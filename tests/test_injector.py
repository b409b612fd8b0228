"""Unit tests for the vectorised fault injector."""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.masks import MaskCampaignEngine
from repro.faults.scenarios import (
    NOMINAL,
    FailureScenario,
    byzantine_scenario,
    crash_scenario,
    random_failure_scenario,
)
from repro.faults.types import (
    ByzantineFault,
    CrashFault,
    NoiseFault,
    OffsetFault,
    SignFlipFault,
    StuckAtFault,
    SynapseByzantineFault,
    SynapseCrashFault,
)
from repro.network.model import NeuronAddress


class TestNominal:
    def test_empty_scenario_equals_forward(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        np.testing.assert_allclose(
            inj.run(batch, NOMINAL), small_net.forward(batch)
        )

    def test_capacity_validation(self, small_net):
        with pytest.raises(ValueError):
            FaultInjector(small_net, capacity=0.0)
        FaultInjector(small_net, capacity=None)  # unbounded is allowed


class TestCrashSemantics:
    def test_crashed_neuron_reads_zero_downstream(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = crash_scenario([(1, 3)])
        _, taps = inj.run(batch, sc, return_taps=True)
        assert np.all(taps[0][:, 3] == 0.0)

    def test_crash_in_last_layer_removes_contribution(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = crash_scenario([(2, 0)])
        faulty = inj.run(batch, sc)
        taps = small_net.hidden_outputs(batch)
        expected = small_net.forward(batch) - (
            small_net.output_weights[:, 0] * taps[1][:, [0]]
        )
        np.testing.assert_allclose(faulty, expected)

    def test_crash_all_but_one_still_runs(self, single_layer_net, rng):
        inj = FaultInjector(single_layer_net, capacity=1.0)
        sc = crash_scenario([(1, i) for i in range(9)])
        out = inj.run(rng.random((4, 2)), sc)
        assert np.isfinite(out).all()


class TestByzantineSemantics:
    def test_sentinel_deviates_by_capacity(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=0.7)
        sc = byzantine_scenario([(1, 2)], sign=1)
        _, taps = inj.run(batch, sc, return_taps=True)
        nominal_taps = small_net.hidden_outputs(batch)
        np.testing.assert_allclose(taps[0][:, 2], nominal_taps[0][:, 2] + 0.7)

    def test_explicit_value_within_band(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=5.0)
        sc = byzantine_scenario([(1, 0)], value=2.0)
        _, taps = inj.run(batch, sc, return_taps=True)
        np.testing.assert_allclose(taps[0][:, 0], 2.0)

    def test_unbounded_rejects_sentinel(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=None)
        with pytest.raises(ValueError, match="unbounded"):
            inj.run(batch, byzantine_scenario([(1, 0)]))

    def test_unbounded_passes_huge_value(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=None)
        sc = byzantine_scenario([(2, 0)], value=1e6)
        err = inj.output_error(batch, sc)
        assert err > 1e3  # the last layer feeds the linear output node


class TestSynapseSemantics:
    def test_crash_synapse_removes_one_term(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario(synapse_faults={(3, 0, 2): SynapseCrashFault()})
        faulty = inj.run(batch, sc)
        taps = small_net.hidden_outputs(batch)
        expected = small_net.forward(batch).copy()
        expected[:, 0] -= small_net.output_weights[0, 2] * taps[1][:, 2]
        np.testing.assert_allclose(faulty, expected)

    def test_byzantine_synapse_offset_weighted(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario(
            synapse_faults={(3, 0, 1): SynapseByzantineFault(offset=0.5)}
        )
        faulty = inj.run(batch, sc)
        expected = small_net.forward(batch).copy()
        expected[:, 0] += small_net.output_weights[0, 1] * 0.5
        np.testing.assert_allclose(faulty, expected)

    def test_synapse_deviation_clipped_to_capacity(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=0.2)
        sc = FailureScenario(
            synapse_faults={(3, 0, 1): SynapseByzantineFault(offset=100.0)}
        )
        faulty = inj.run(batch, sc)
        expected = small_net.forward(batch).copy()
        expected[:, 0] += small_net.output_weights[0, 1] * 0.2
        np.testing.assert_allclose(faulty, expected)

    def test_hidden_stage_synapse_fault(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario(
            synapse_faults={(2, 1, 0): SynapseByzantineFault(offset=0.3)}
        )
        faulty = inj.run(batch, sc)
        assert np.abs(faulty - small_net.forward(batch)).max() > 0


class TestDynamicFaults:
    def test_noise_fault_reproducible_with_rng(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario({NeuronAddress(1, 0): NoiseFault(sigma=0.1)})
        a = inj.run(batch, sc, rng=np.random.default_rng(5))
        b = inj.run(batch, sc, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_sign_flip(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=10.0)
        sc = FailureScenario({NeuronAddress(1, 4): SignFlipFault()})
        _, taps = inj.run(batch, sc, return_taps=True)
        nominal = small_net.hidden_outputs(batch)
        np.testing.assert_allclose(taps[0][:, 4], -nominal[0][:, 4])


class TestBatchedPath:
    """Lowered scenarios on the mask engine vs the scalar injector.

    The ``run_many`` test names predate the engine becoming the one
    dense evaluator; they keep their ids so the history stays readable.
    """

    def _scenarios(self, net, rng, n=20):
        return [
            random_failure_scenario(net, (2, 1), rng=rng, name=f"s{i}")
            for i in range(n)
        ]

    @staticmethod
    def _outputs(inj, x, scenarios):
        return MaskCampaignEngine(inj, x).outputs(inj.compile_batch(scenarios))

    @staticmethod
    def _errors(inj, x, scenarios, reduction="max"):
        engine = MaskCampaignEngine(inj, x, reduction=reduction)
        return engine.evaluate(inj.compile_batch(scenarios))

    def test_run_many_agrees_with_scalar(self, small_net, batch, rng):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = self._scenarios(small_net, rng)
        outs = self._outputs(inj, batch, scenarios)
        for i, sc in enumerate(scenarios):
            np.testing.assert_allclose(outs[i], inj.run(batch, sc), atol=1e-12)

    def test_run_many_mixed_fault_kinds(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = [
            FailureScenario(
                {
                    NeuronAddress(1, 0): CrashFault(),
                    NeuronAddress(1, 1): ByzantineFault(sign=-1),
                    NeuronAddress(2, 0): StuckAtFault(0.9),
                    NeuronAddress(2, 1): OffsetFault(offset=0.05),
                }
            )
        ]
        outs = self._outputs(inj, batch, scenarios)
        np.testing.assert_allclose(outs[0], inj.run(batch, scenarios[0]), atol=1e-12)

    def test_errors_many_matches_output_error(self, small_net, batch, rng):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = self._scenarios(small_net, rng, n=8)
        errs = self._errors(inj, batch, scenarios)
        for e, sc in zip(errs, scenarios):
            assert e == pytest.approx(inj.output_error(batch, sc))

    def test_compile_lowers_synapse_faults(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario(synapse_faults={(1, 0, 0): SynapseCrashFault()})
        compiled = inj.compile_batch([sc])
        assert compiled.has_synapse_faults
        err = MaskCampaignEngine(inj, batch).evaluate(compiled)
        assert err[0] == pytest.approx(inj.output_error(batch, sc))

    def test_compile_lowers_dynamic_faults(self, small_net):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario({NeuronAddress(1, 0): NoiseFault()})
        compiled = inj.compile_batch([sc])
        assert compiled.is_stochastic
        assert compiled.noise_masks[0][0, 0]

    def test_compile_rejects_unknown_fault_models(self, small_net):
        from repro.faults.types import NeuronFault

        class WeirdFault(NeuronFault):
            def apply(self, nominal, *, rng=None, capacity=None):
                return nominal * 0.5  # pragma: no cover

        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario({NeuronAddress(1, 0): WeirdFault()})
        with pytest.raises(ValueError, match="lowering"):
            inj.compile_batch([sc])

    def test_empty_batch(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        out = self._outputs(inj, batch, [])
        assert out.shape == (0, 32, 1)

    def test_run_many_on_conv_network(self, rng):
        from repro.network import build_conv_net

        net = build_conv_net(12, [3, 2], seed=5)
        inj = FaultInjector(net, capacity=1.0)
        x = rng.random((6, 12))
        scenarios = [
            random_failure_scenario(net, (1, 1), rng=rng, name=f"c{i}")
            for i in range(6)
        ]
        outs = self._outputs(inj, x, scenarios)
        for i, sc in enumerate(scenarios):
            np.testing.assert_allclose(outs[i], inj.run(x, sc), atol=1e-12)

    def test_reduction_modes(self, small_net, batch, rng):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = self._scenarios(small_net, rng, n=4)
        mx = self._errors(inj, batch, scenarios, reduction="max")
        mean = self._errors(inj, batch, scenarios, reduction="mean")
        assert np.all(mean <= mx + 1e-12)
        with pytest.raises(ValueError):
            self._errors(inj, batch, scenarios, reduction="median")
