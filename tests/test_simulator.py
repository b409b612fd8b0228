"""The message-passing simulator must agree exactly with both the plain
forward pass and the mask engine behind ``FaultInjector.run`` — it is
the process-grained reference for the whole failure model."""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.scenarios import (
    FailureScenario,
    byzantine_scenario,
    crash_scenario,
    random_failure_scenario,
    random_synapse_scenario,
)
from repro.faults.types import OffsetFault, StuckAtFault, SynapseByzantineFault
from repro.network import build_conv_net
from repro.network.model import NeuronAddress

from message_passing import DistributedNetwork


class TestStructure:
    def test_process_and_channel_counts(self, small_net):
        sim = DistributedNetwork(small_net, capacity=1.0)
        assert sim.num_processes == small_net.num_neurons
        assert sim.num_channels == small_net.num_synapses

    def test_component_states_accounting(self, small_net):
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.apply_scenario(crash_scenario([(1, 0), (2, 1)]))
        states = sim.component_states()
        assert states["crashed"] == 2
        assert states["correct"] == small_net.num_neurons - 2 + small_net.num_synapses


class TestNominalEquivalence:
    def test_matches_forward(self, small_net, rng):
        sim = DistributedNetwork(small_net, capacity=1.0)
        x = rng.random((6, 3))
        np.testing.assert_allclose(
            sim.run_batch(x), small_net.forward(x), atol=1e-12
        )

    def test_conv_network(self, rng):
        net = build_conv_net(10, [3], seed=0)
        sim = DistributedNetwork(net, capacity=1.0)
        x = rng.random((3, 10))
        np.testing.assert_allclose(sim.run_batch(x), net.forward(x), atol=1e-12)

    def test_input_dim_checked(self, small_net):
        sim = DistributedNetwork(small_net, capacity=1.0)
        with pytest.raises(ValueError):
            sim.run(np.zeros(5))


class TestFaultEquivalence:
    """Simulator == injector on identical scenarios (to float precision)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_crash_scenarios(self, small_net, seed):
        rng = np.random.default_rng(seed)
        sc = random_failure_scenario(small_net, (2, 1), rng=rng)
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.apply_scenario(sc)
        inj = FaultInjector(small_net, capacity=1.0)
        x = rng.random((5, 3))
        np.testing.assert_allclose(sim.run_batch(x), inj.run(x, sc), atol=1e-12)

    def test_byzantine_sentinel(self, small_net, rng):
        sc = byzantine_scenario([(1, 2), (2, 3)], sign=-1)
        sim = DistributedNetwork(small_net, capacity=0.7)
        sim.apply_scenario(sc)
        inj = FaultInjector(small_net, capacity=0.7)
        x = rng.random((4, 3))
        np.testing.assert_allclose(sim.run_batch(x), inj.run(x, sc), atol=1e-12)

    def test_stuck_and_offset_faults(self, small_net, rng):
        sc = FailureScenario(
            {
                NeuronAddress(1, 0): StuckAtFault(0.9),
                NeuronAddress(2, 2): OffsetFault(offset=0.1),
            }
        )
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.apply_scenario(sc)
        inj = FaultInjector(small_net, capacity=1.0)
        x = rng.random((4, 3))
        np.testing.assert_allclose(sim.run_batch(x), inj.run(x, sc), atol=1e-12)

    def test_synapse_faults(self, small_net, rng):
        sc = random_synapse_scenario(small_net, (2, 1, 1), rng=rng)
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.apply_scenario(sc)
        inj = FaultInjector(small_net, capacity=1.0)
        x = rng.random((4, 3))
        np.testing.assert_allclose(sim.run_batch(x), inj.run(x, sc), atol=1e-12)

    def test_mixed_neuron_and_synapse(self, small_net, rng):
        sc = FailureScenario(
            {NeuronAddress(1, 1): StuckAtFault(0.0)},
            {(3, 0, 0): SynapseByzantineFault(offset=0.2)},
        )
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.apply_scenario(sc)
        inj = FaultInjector(small_net, capacity=1.0)
        x = rng.random((4, 3))
        np.testing.assert_allclose(sim.run_batch(x), inj.run(x, sc), atol=1e-12)

    def test_reset_failures_restores_nominal(self, small_net, rng):
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.apply_scenario(crash_scenario([(1, 0), (1, 1)]))
        sim.reset_failures()
        x = rng.random((3, 3))
        np.testing.assert_allclose(sim.run_batch(x), small_net.forward(x), atol=1e-12)


class TestTracing:
    def test_trace_counts_drops_and_corruption(self, small_net, rng):
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.apply_scenario(crash_scenario([(1, 0)]))
        sim.run(rng.random(3), record_trace=True)
        # Round 1 (delivery into layer 2): 1 producer crashed -> 6 drops.
        layer2_trace = sim.traces[1]
        assert layer2_trace.signals_dropped == 6
        assert layer2_trace.signals_delivered == 7 * 6

    def test_trace_empty_without_flag(self, small_net, rng):
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.run(rng.random(3))
        assert sim.traces == []
