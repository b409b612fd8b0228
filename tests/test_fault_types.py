"""Unit tests for the fault model hierarchy."""

import numpy as np
import pytest

from repro.faults.injector import fault_channel_action
from repro.faults.types import (
    ByzantineFault,
    CrashFault,
    NoiseFault,
    OffsetFault,
    SignFlipFault,
    StuckAtFault,
    SynapseByzantineFault,
    SynapseCrashFault,
    SynapseNoiseFault,
)

from oracles import apply_neuron_fault

NOMINAL = np.array([0.2, 0.8, 0.5])


class TestNeuronFaultModels:
    def test_crash_emits_zero(self):
        np.testing.assert_array_equal(CrashFault().apply(NOMINAL), 0.0)

    def test_byzantine_explicit_value(self):
        np.testing.assert_array_equal(
            ByzantineFault(value=3.0).apply(NOMINAL), 3.0
        )

    def test_byzantine_sentinel_is_signed_inf(self):
        assert np.all(np.isposinf(ByzantineFault().apply(NOMINAL)))
        assert np.all(np.isneginf(ByzantineFault(sign=-1).apply(NOMINAL)))

    def test_byzantine_sign_validation(self):
        with pytest.raises(ValueError):
            ByzantineFault(sign=2)

    def test_stuck_at(self):
        np.testing.assert_array_equal(StuckAtFault(0.7).apply(NOMINAL), 0.7)

    def test_offset(self):
        np.testing.assert_allclose(
            OffsetFault(offset=0.1).apply(NOMINAL), NOMINAL + 0.1
        )

    def test_sign_flip(self):
        np.testing.assert_allclose(SignFlipFault().apply(NOMINAL), -NOMINAL)

    def test_noise_statistics(self):
        rng = np.random.default_rng(0)
        fault = NoiseFault(sigma=0.5)
        big = fault.apply(np.zeros(20000), rng=rng)
        assert abs(big.mean()) < 0.02
        assert abs(big.std() - 0.5) < 0.02

    def test_noise_sigma_validation(self):
        with pytest.raises(ValueError):
            NoiseFault(sigma=-1.0)

    def test_fault_models_hashable(self):
        assert len({CrashFault(), CrashFault(), ByzantineFault()}) == 2


class TestSynapseFaultModels:
    def test_crash_delivers_zero(self):
        np.testing.assert_array_equal(SynapseCrashFault().apply(NOMINAL), 0.0)

    def test_byzantine_offset(self):
        np.testing.assert_allclose(
            SynapseByzantineFault(offset=0.3).apply(NOMINAL), NOMINAL + 0.3
        )

    def test_byzantine_saturates_against_capacity(self):
        """Regression: offset=None used to return nominal +- inf; under
        unbounded capacity nothing clipped it downstream and campaign
        errors went inf/NaN.  It now saturates to the Lemma-2 worst
        case when the capacity is known, and raises loudly otherwise."""
        out = SynapseByzantineFault().apply(NOMINAL, capacity=0.4)
        np.testing.assert_allclose(out, NOMINAL + 0.4)
        out = SynapseByzantineFault(sign=-1).apply(NOMINAL, capacity=0.4)
        np.testing.assert_allclose(out, NOMINAL - 0.4)
        assert np.all(np.isfinite(out))

    def test_byzantine_sentinel_rejected_without_capacity(self):
        with pytest.raises(ValueError, match="unbounded"):
            SynapseByzantineFault().apply(NOMINAL)

    def test_noise(self):
        rng = np.random.default_rng(1)
        out = SynapseNoiseFault(sigma=0.1).apply(NOMINAL, rng=rng)
        assert out.shape == NOMINAL.shape
        assert not np.array_equal(out, NOMINAL)


class TestStaticFaultAction:
    def test_crash(self):
        assert fault_channel_action(CrashFault()) == ("zero", 0.0, 1.0)

    def test_byzantine_explicit(self):
        assert fault_channel_action(ByzantineFault(value=2.0)) == (
            "set", 2.0, 1.0
        )

    def test_byzantine_sentinel(self):
        kind, v, gate = fault_channel_action(ByzantineFault(sign=-1))
        assert kind == "add" and np.isneginf(v) and gate == 1.0

    def test_stuck_and_offset(self):
        assert fault_channel_action(StuckAtFault(0.3)) == ("set", 0.3, 1.0)
        assert fault_channel_action(OffsetFault(offset=-0.2)) == (
            "add", -0.2, 1.0
        )

    def test_dynamic_faults_are_not_static(self):
        assert fault_channel_action(NoiseFault(sigma=0.2)) == (
            "noise", 0.2, 1.0
        )
        assert fault_channel_action(SignFlipFault()) == ("scale", -1.0, 1.0)


class TestApplyNeuronFault:
    """The reference loop's deviation-bounded semantics (Theorem 2's
    y + lambda model)."""

    def test_crash_is_exactly_zero_even_with_tiny_capacity(self):
        out = apply_neuron_fault(CrashFault(), NOMINAL, capacity=0.01)
        np.testing.assert_array_equal(out, 0.0)

    def test_byzantine_sentinel_deviates_by_capacity(self):
        out = apply_neuron_fault(ByzantineFault(), NOMINAL, capacity=0.5)
        np.testing.assert_allclose(out, NOMINAL + 0.5)
        out = apply_neuron_fault(ByzantineFault(sign=-1), NOMINAL, capacity=0.5)
        np.testing.assert_allclose(out, NOMINAL - 0.5)

    def test_explicit_value_clipped_to_deviation_band(self):
        # Requesting -10 from nominal 0.8 under C=1: emission 0.8 - 1 = -0.2.
        out = apply_neuron_fault(
            ByzantineFault(value=-10.0), np.array([0.8]), capacity=1.0
        )
        assert out[0] == pytest.approx(-0.2)

    def test_explicit_value_within_band_passes_through(self):
        out = apply_neuron_fault(
            ByzantineFault(value=0.9), np.array([0.5]), capacity=1.0
        )
        assert out[0] == pytest.approx(0.9)

    def test_unbounded_capacity_passes_any_value(self):
        out = apply_neuron_fault(
            ByzantineFault(value=1e9), np.array([0.5]), capacity=None
        )
        assert out[0] == 1e9

    def test_unbounded_capacity_rejects_sentinel(self):
        with pytest.raises(ValueError, match="unbounded"):
            apply_neuron_fault(ByzantineFault(), NOMINAL, capacity=None)

    def test_deviation_never_exceeds_capacity(self):
        rng = np.random.default_rng(2)
        for fault in (
            ByzantineFault(),
            ByzantineFault(value=5.0),
            StuckAtFault(-3.0),
            NoiseFault(sigma=10.0),
            SignFlipFault(),
            OffsetFault(offset=99.0),
        ):
            out = apply_neuron_fault(fault, NOMINAL, capacity=0.3, rng=rng)
            assert np.all(np.abs(out - NOMINAL) <= 0.3 + 1e-12)
