"""Tests for intermittent faults and nonzero-bias semantics."""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, fault_channel_action
from repro.faults.scenarios import FailureScenario, crash_scenario
from repro.faults.types import ByzantineFault, CrashFault, IntermittentFault
from repro.network import build_mlp
from repro.network.model import NeuronAddress

from message_passing import DistributedNetwork
from oracles import run_reference


class TestIntermittentFault:
    def test_p_zero_is_nominal(self):
        fault = IntermittentFault(p=0.0)
        nominal = np.linspace(0, 1, 11)
        out = fault.apply(nominal, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out, nominal)

    def test_p_one_is_wrapped_fault(self):
        fault = IntermittentFault(p=1.0, fault=CrashFault())
        out = fault.apply(np.ones(5), rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out, 0.0)

    def test_hit_rate_statistics(self):
        fault = IntermittentFault(p=0.3, fault=CrashFault())
        out = fault.apply(np.ones(20000), rng=np.random.default_rng(1))
        assert abs((out == 0).mean() - 0.3) < 0.02

    def test_wraps_byzantine(self):
        fault = IntermittentFault(p=1.0, fault=ByzantineFault(value=9.0))
        out = fault.apply(np.zeros(3), rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out, 9.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntermittentFault(p=1.5)
        with pytest.raises(TypeError):
            IntermittentFault(p=0.5, fault="crash")

    def test_not_static(self):
        assert fault_channel_action(IntermittentFault(p=0.5)) == (
            "zero", 0.0, 0.5
        )

    def test_injection_damage_between_nominal_and_permanent(
        self, small_net, batch
    ):
        inj = FaultInjector(small_net, capacity=1.0)
        addr = NeuronAddress(2, 0)
        permanent = inj.output_error(batch, crash_scenario([addr]))
        intermittent = inj.output_error(
            batch,
            FailureScenario({addr: IntermittentFault(p=0.4)}),
            rng=np.random.default_rng(3),
        )
        assert 0 < intermittent <= permanent + 1e-12

    def test_bound_still_dominates(self, small_net, batch):
        """Worst case, the intermittent fault is the wrapped fault
        everywhere — so crash-mode Fep still dominates."""
        from repro.core.fep import network_fep

        inj = FaultInjector(small_net, capacity=1.0)
        scenario = FailureScenario(
            {
                NeuronAddress(1, 0): IntermittentFault(p=0.7),
                NeuronAddress(2, 1): IntermittentFault(p=0.7),
            }
        )
        err = inj.output_error(batch, scenario, rng=np.random.default_rng(4))
        assert err <= network_fep(small_net, (1, 1), mode="crash") + 1e-9


class TestNonzeroBiasSemantics:
    @pytest.fixture
    def biased_net(self, rng):
        net = build_mlp(2, [5, 4], seed=60)
        for layer in net.layers:
            layer.bias[:] = rng.normal(0.0, 0.5, size=layer.bias.shape)
        net.output_bias[:] = 0.3
        return net

    def test_simulator_matches_forward_with_biases(self, biased_net, rng):
        sim = DistributedNetwork(biased_net, capacity=1.0)
        x = rng.random((5, 2))
        np.testing.assert_allclose(
            sim.run_batch(x), biased_net.forward(x), atol=1e-12
        )

    def test_simulator_matches_injector_with_biases(self, biased_net, rng):
        sc = crash_scenario([(1, 1), (2, 0)])
        sim = DistributedNetwork(biased_net, capacity=1.0)
        sim.apply_scenario(sc)
        inj = FaultInjector(biased_net, capacity=1.0)
        x = rng.random((5, 2))
        np.testing.assert_allclose(
            sim.run_batch(x), inj.run(x, sc), atol=1e-12
        )

    def test_crashed_neuron_bias_also_silenced(self, biased_net, rng):
        """A crashed neuron sends nothing — including whatever its bias
        would have contributed (bias lives inside the neuron)."""
        inj = FaultInjector(biased_net, capacity=1.0)
        x = rng.random((4, 2))
        _, taps = run_reference(
            inj, x, crash_scenario([(1, 0)]), return_taps=True
        )
        assert np.all(taps[0][:, 0] == 0.0)

    def test_output_bias_unaffected_by_failures(self, biased_net, rng):
        """The output node's bias is a constant offset outside the
        failure model: crashing everything but one neuron per layer
        leaves exactly bias + surviving contributions."""
        victims = [(1, i) for i in range(1, 5)] + [(2, i) for i in range(1, 4)]
        inj = FaultInjector(biased_net, capacity=1.0)
        x = rng.random((3, 2))
        out = inj.run(x, crash_scenario(victims))
        assert np.all(np.isfinite(out))
