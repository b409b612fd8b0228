"""Neuron processes: the computing nodes of the distributed system.

Each neuron is a state machine that (1) accumulates signals from its
incoming channels, (2) applies its weighted sum + activation when told
to fire, and (3) broadcasts its emission.  Faulty neurons deviate per
Definition 2: a crashed neuron emits nothing (consumers read 0); a
Byzantine neuron emits an arbitrary value, which every outgoing channel
then bounds by the capacity (Assumption 1).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from oracles import apply_neuron_fault
from repro.faults.types import ByzantineFault, NeuronFault
from repro.network.activations import Activation

from .events import ComponentState, Signal

__all__ = ["NeuronProcess"]


class NeuronProcess:
    """One neuron of layer ``layer`` (index ``index`` within the layer).

    Parameters
    ----------
    layer, index:
        Address within the network (layers are 1-based).
    weights_in:
        Weight vector over the previous layer's neurons (the weights
        "from" each left neighbour, Equation 3).
    bias:
        Bias term (the constant-neuron weight of the paper's footnote).
    activation:
        The squashing function ``phi``.
    """

    def __init__(
        self,
        layer: int,
        index: int,
        weights_in: np.ndarray,
        bias: float,
        activation: Activation,
    ):
        if layer < 1 or index < 0:
            raise ValueError(f"bad neuron address ({layer}, {index})")
        self.layer = int(layer)
        self.index = int(index)
        self.weights_in = np.asarray(weights_in, dtype=np.float64)
        self.bias = float(bias)
        self.activation = activation
        self.state = ComponentState.CORRECT
        self._fault: Optional[NeuronFault] = None
        self._capacity: Optional[float] = None
        self._rng: Optional[np.random.Generator] = None
        self._inbox: Dict[int, float] = {}
        self.fired_value: Optional[float] = None
        #: Number of signals received before firing (boosting metric).
        self.signals_used: int = 0

    # -- fault control -------------------------------------------------------

    def crash(self) -> None:
        self.state = ComponentState.CRASHED

    def set_fault(
        self,
        fault: NeuronFault,
        *,
        capacity: Optional[float] = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Attach a (non-crash) fault model; applied at every fire.

        The emission follows the deviation-bounded semantics of
        :func:`oracles.apply_neuron_fault` — identical to the mask
        engine, which the tests verify by equivalence.
        """
        self.state = ComponentState.BYZANTINE
        self._fault = fault
        self._capacity = capacity
        self._rng = rng

    def make_byzantine(
        self, value: float, *, capacity: Optional[float] = 1.0
    ) -> None:
        """Sugar: the neuron requests emitting a fixed ``value``."""
        self.set_fault(ByzantineFault(value=float(value)), capacity=capacity)

    def repair(self) -> None:
        self.state = ComponentState.CORRECT
        self._fault = None
        self._capacity = None
        self._rng = None

    @property
    def is_correct(self) -> bool:
        return self.state is ComponentState.CORRECT

    # -- message handling ------------------------------------------------------

    def reset_round(self) -> None:
        """Clear the inbox for a fresh computation."""
        self._inbox.clear()
        self.fired_value = None
        self.signals_used = 0

    def receive(self, signal: Signal) -> None:
        """Accept a delivered signal from a left-layer neighbour."""
        if signal.layer != self.layer - 1:
            raise ValueError(
                f"neuron ({self.layer},{self.index}) got a signal from layer "
                f"{signal.layer}; expected {self.layer - 1}"
            )
        if not 0 <= signal.src < self.weights_in.size:
            raise ValueError(f"signal source {signal.src} out of range")
        self._inbox[signal.src] = signal.value

    @property
    def inbox_size(self) -> int:
        return len(self._inbox)

    def missing_sources(self) -> list[int]:
        """Left-layer indices that have not delivered a signal yet."""
        return [i for i in range(self.weights_in.size) if i not in self._inbox]

    # -- computation -----------------------------------------------------------

    def compute_sum(self) -> float:
        """The received sum ``s_j`` (Equation 3); absent signals read 0.

        Missing entries model crashed-or-reset producers (Definition 2
        and the Corollary-2 boosting rule).
        """
        s = self.bias
        for src, value in self._inbox.items():
            s += self.weights_in[src] * value
        return float(s)

    def fire(self) -> Optional[float]:
        """Compute and broadcast the emission for this round.

        Returns the emitted value, or ``None`` for a crashed neuron
        (nothing is sent; consumers will read 0).
        """
        self.signals_used = self.inbox_size
        if self.state is ComponentState.CRASHED:
            self.fired_value = None
            return None
        nominal = float(self.activation(np.float64(self.compute_sum())))
        if self.state is ComponentState.BYZANTINE and self._fault is not None:
            emitted = apply_neuron_fault(
                self._fault, np.array([nominal]), self._capacity, self._rng
            )
            self.fired_value = float(emitted[0])
        else:
            self.fired_value = nominal
        return self.fired_value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeuronProcess(({self.layer},{self.index}), state={self.state.value}, "
            f"fan_in={self.weights_in.size})"
        )
