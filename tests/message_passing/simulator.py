"""Synchronous message-passing simulation of a feed-forward network.

This is the paper's Section II-A model made literal: one process per
neuron, one channel per synapse, and ``L + 1`` synchronous rounds per
computation (round ``l`` delivers layer ``l-1``'s broadcast to layer
``l``; the final round feeds the linear output node).

The simulator is a *semantic reference*: the mask engine
(:class:`repro.faults.masks.MaskCampaignEngine`, and
:meth:`repro.faults.FaultInjector.run` on top of it) is validated
against it by exact (up to float associativity) equivalence on
identical failure scenarios.  It is intentionally process-grained and
per-input, and lives in the test suite, not in the package.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.faults.scenarios import FailureScenario
from repro.faults.types import (
    CrashFault,
    NeuronFault,
    SynapseByzantineFault,
    SynapseCrashFault,
    SynapseFault,
)
from repro.network.model import FeedForwardNetwork

from .channels import SynapseChannel
from .events import ComponentState, RoundTrace, Signal
from .neuron import NeuronProcess

__all__ = ["DistributedNetwork"]


class DistributedNetwork:
    """A process-per-neuron realisation of a :class:`FeedForwardNetwork`.

    Parameters
    ----------
    network:
        The weights/topology to clone into processes and channels.
    capacity:
        Transmission capacity ``C`` (``None`` = unbounded).
    """

    def __init__(
        self,
        network: FeedForwardNetwork,
        capacity: Optional[float] = 1.0,
    ):
        self.network = network
        self.capacity = capacity
        self.neurons: List[List[NeuronProcess]] = []
        # channels[l][(j, i)] carries layer-l0 emissions; stage l0+1.
        self.channels: List[Dict[tuple[int, int], SynapseChannel]] = []
        self._build()
        self.traces: List[RoundTrace] = []

    def _build(self) -> None:
        net = self.network
        for l0, layer in enumerate(net.layers):
            dense = layer.dense_weights()
            mask = layer.synapse_mask()
            row: List[NeuronProcess] = []
            stage: Dict[tuple[int, int], SynapseChannel] = {}
            for j in range(layer.n_out):
                bias = 0.0
                if hasattr(layer, "use_bias") and layer.use_bias:
                    bias = float(layer.bias[j]) if layer.bias.size > 1 else float(layer.bias[0])
                row.append(
                    NeuronProcess(l0 + 1, j, dense[j], bias, layer.activation)
                )
                for i in range(layer.n_in):
                    if mask[j, i]:
                        stage[(j, i)] = SynapseChannel(dense[j, i], self.capacity)
            self.neurons.append(row)
            self.channels.append(stage)
        # Output stage channels.
        out_stage: Dict[tuple[int, int], SynapseChannel] = {}
        for j in range(net.n_outputs):
            for i in range(net.layer_sizes[-1]):
                out_stage[(j, i)] = SynapseChannel(
                    net.output_weights[j, i], self.capacity
                )
        self.channels.append(out_stage)

    # ------------------------------------------------------------------
    # Failure control
    # ------------------------------------------------------------------

    def reset_failures(self) -> None:
        """Repair every neuron and channel."""
        for row in self.neurons:
            for neuron in row:
                neuron.repair()
        for stage in self.channels:
            for channel in stage.values():
                channel.repair()

    def apply_scenario(
        self,
        scenario: FailureScenario,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Install a failure scenario onto processes and channels.

        Any neuron fault model is accepted (the process applies it at
        fire time with the same deviation-bounded semantics as the
        mask engine); synapse faults may be crash or
        Byzantine-with-offset.
        """
        scenario.validate(self.network)
        for addr, fault in scenario.neuron_faults.items():
            neuron = self.neurons[addr.layer - 1][addr.index]
            if isinstance(fault, CrashFault):
                neuron.crash()
            elif isinstance(fault, NeuronFault):
                neuron.set_fault(fault, capacity=self.capacity, rng=rng)
            else:  # pragma: no cover - scenario validation prevents this
                raise TypeError(f"not a neuron fault: {fault!r}")
        for (l, j, i), fault in scenario.synapse_faults.items():
            channel = self.channels[l - 1][(j, i)]
            if isinstance(fault, SynapseCrashFault):
                channel.crash()
            elif isinstance(fault, SynapseByzantineFault):
                channel.make_byzantine(fault.offset, sign=fault.sign)
            elif isinstance(fault, SynapseFault):
                raise ValueError(
                    f"simulator supports crash/byzantine synapse faults, got {fault!r}"
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, x: np.ndarray, *, record_trace: bool = False) -> np.ndarray:
        """One full synchronous computation for a single input vector.

        Returns the output-node values, shape ``(n_outputs,)``.
        """
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape[0] != self.network.input_dim:
            raise ValueError(
                f"input has {x.shape[0]} entries, expected {self.network.input_dim}"
            )
        self.traces = []
        emissions = list(x)  # layer-0 "emissions" are the client inputs
        src_layer = 0
        for l0, row in enumerate(self.neurons):
            delivered = dropped = corrupted = 0
            for neuron in row:
                neuron.reset_round()
            stage = self.channels[l0]
            for (j, i), channel in stage.items():
                emission = emissions[i]
                if emission is None:  # crashed producer: nothing on the wire
                    dropped += 1
                    continue
                value = channel.transmit(emission)
                if channel.state is not ComponentState.CORRECT:
                    corrupted += 1
                delivered += 1
                row[j].receive(Signal(layer=src_layer, src=i, value=value, round=l0))
            for neuron in row:
                neuron.fire()
            if record_trace:
                self.traces.append(
                    RoundTrace(l0, src_layer, delivered, dropped, corrupted)
                )
            # Faulty emissions were already deviation-bounded at fire time
            # (NeuronProcess.fire); nothing more to clip here.
            emissions = [n.fired_value for n in row]
            src_layer = l0 + 1

        # Output node: linear client summing its channels.
        out = np.array(self.network.output_bias, dtype=np.float64, copy=True)
        out_stage = self.channels[-1]
        for (j, i), channel in out_stage.items():
            emission = emissions[i]
            if emission is None:
                continue
            out[j] += channel.received_term(emission)
        return out

    def run_batch(self, X: np.ndarray) -> np.ndarray:
        """Convenience loop over a batch (the simulator is per-input)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        return np.stack([self.run(x) for x in X])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_processes(self) -> int:
        return sum(len(row) for row in self.neurons)

    @property
    def num_channels(self) -> int:
        return sum(len(stage) for stage in self.channels)

    def component_states(self) -> dict[str, int]:
        """Counts of correct/crashed/byzantine components."""
        counts = {"correct": 0, "crashed": 0, "byzantine": 0}
        for row in self.neurons:
            for neuron in row:
                counts[neuron.state.value] += 1
        for stage in self.channels:
            for channel in stage.values():
                counts[channel.state.value] += 1
        return counts
