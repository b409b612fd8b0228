"""Unit tests for the Forward Error Propagation computations (Theorem 2,
4, 5 formulas) — the heart of the reproduction."""

import numpy as np
import pytest

from repro.core.fep import (
    combined_fep,
    fep_many,
    fep_terms,
    forward_error_propagation,
    heterogeneous_fep,
    network_fep,
    network_fep_terms,
    network_precision_bound,
    network_synapse_fep,
    precision_error_bound,
    synapse_fep,
)
from repro.network import build_mlp


class TestSingleLayerFep:
    """L=1 closed forms: Fep = C * f1 * w_m^(2)."""

    def test_matches_theorem1_shape(self):
        assert forward_error_propagation([3], [10], [0.5, 0.2], 1.0, 1.0) == (
            pytest.approx(3 * 0.2)
        )

    def test_input_weights_never_enter(self):
        a = forward_error_propagation([2], [5], [9.9, 0.3], 1.0, 1.0)
        b = forward_error_propagation([2], [5], [0.0, 0.3], 1.0, 1.0)
        assert a == b

    def test_linear_in_capacity(self):
        base = forward_error_propagation([2], [5], [1, 0.3], 1.0, 1.0)
        assert forward_error_propagation([2], [5], [1, 0.3], 1.0, 2.5) == (
            pytest.approx(2.5 * base)
        )

    def test_k_does_not_enter_single_layer(self):
        # K^(L-l) = K^0 = 1 for the only layer.
        a = forward_error_propagation([2], [5], [1, 0.3], 0.25, 1.0)
        b = forward_error_propagation([2], [5], [1, 0.3], 4.0, 1.0)
        assert a == b


class TestMultilayerFep:
    def test_two_layer_hand_computation(self):
        # L=2, f=(1,1), N=(3,4), w=(w1,w2,w3), K=2, C=1:
        # term1 = 1*K^1*(N2-f2)*w2*(1)*w3 = 2*3*w2*w3
        # term2 = 1*K^0*1*w3 = w3
        w2, w3 = 0.5, 0.25
        got = forward_error_propagation([1, 1], [3, 4], [9, w2, w3], 2.0, 1.0)
        assert got == pytest.approx(2 * 3 * w2 * w3 + w3)

    def test_terms_sum_to_total(self):
        terms = fep_terms([2, 1, 1], [5, 4, 3], [1, 0.5, 0.4, 0.3], 1.5, 2.0)
        total = forward_error_propagation(
            [2, 1, 1], [5, 4, 3], [1, 0.5, 0.4, 0.3], 1.5, 2.0
        )
        assert terms.shape == (3,)
        assert terms.sum() == pytest.approx(total)

    def test_depth_amplification_for_k_above_one(self):
        # Same single failure placed deeper vs shallower: with K>1 the
        # shallower failure (more squashings ahead) costs more when the
        # fan-in products exceed 1... use all-ones to isolate K^(L-l).
        w = [1.0, 1.0, 1.0, 1.0]
        n = [1, 1, 1]
        early = forward_error_propagation([1, 0, 0], n, w, 2.0, 1.0)
        late = forward_error_propagation([0, 0, 1], n, w, 2.0, 1.0)
        assert early == pytest.approx(4.0)  # K^2
        assert late == pytest.approx(1.0)  # K^0

    def test_failed_neurons_stop_amplifying(self):
        # Increasing f2 reduces the (N2 - f2) multiplier on layer-1 terms.
        lo = forward_error_propagation([1, 0], [3, 4], [1, 0.5, 0.5], 1.0, 1.0)
        hi_f2 = forward_error_propagation([1, 3], [3, 4], [1, 0.5, 0.5], 1.0, 1.0)
        term1_lo = fep_terms([1, 0], [3, 4], [1, 0.5, 0.5], 1.0, 1.0)[0]
        term1_hi = fep_terms([1, 3], [3, 4], [1, 0.5, 0.5], 1.0, 1.0)[0]
        assert term1_hi < term1_lo
        assert lo != hi_f2

    def test_zero_failures_zero_fep(self):
        assert forward_error_propagation([0, 0], [3, 3], [1, 1, 1], 1.0, 1.0) == 0.0

    def test_monotone_in_k_when_failures_shallow(self):
        vals = [
            forward_error_propagation([1, 0], [4, 4], [1, 0.5, 0.5], k, 1.0)
            for k in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestValidation:
    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            forward_error_propagation([1], [3, 3], [1, 1, 1], 1.0, 1.0)
        with pytest.raises(ValueError, match="weight_maxes"):
            forward_error_propagation([1, 1], [3, 3], [1, 1], 1.0, 1.0)

    def test_failures_exceeding_sizes(self):
        with pytest.raises(ValueError, match="exceed"):
            forward_error_propagation([4], [3], [1, 1], 1.0, 1.0)

    def test_negative_failures(self):
        with pytest.raises(ValueError):
            forward_error_propagation([-1], [3], [1, 1], 1.0, 1.0)

    def test_bad_k_and_capacity(self):
        with pytest.raises(ValueError):
            forward_error_propagation([1], [3], [1, 1], 0.0, 1.0)
        with pytest.raises(ValueError):
            forward_error_propagation([1], [3], [1, 1], 1.0, 0.0)
        with pytest.raises(ValueError, match="Lemma 1"):
            forward_error_propagation([1], [3], [1, 1], 1.0, np.inf)


    @pytest.mark.parametrize(
        "bound, args",
        [
            (fep_many, ([[1, 0]], [3, 3], [1, -1, 1], 1.0, 1.0)),
            (synapse_fep, ([1, 0, 0], [3, 3], [1, -1, 1], 1.0, 1.0)),
            (heterogeneous_fep, ([1, 0], [3, 3], [1, -1, 1], [1.0, 1.0], 1.0)),
            (combined_fep, ([1, 0], [0, 0, 0], [3, 3], [1, -1, 1], 1.0, 1.0)),
            (precision_error_bound, ([0.1, 0.1], [3, 3], [1, -1, 1], 1.0)),
            (synapse_fep, ([1, 0, 0], [3, 0], [1, 1, 1], 1.0, 1.0)),
            (forward_error_propagation, ([1], [3], [1, 1], np.nan, 1.0)),
            (precision_error_bound, ([0.1], [3], [1, 1], np.inf)),
            (heterogeneous_fep, ([1, 0], [3, 3], [1, 1, 1], [1.0, np.nan], 1.0)),
            (forward_error_propagation, ([[1]], [3], [1, 1], 1.0, 1.0)),
            (forward_error_propagation, ([1, 0], [3, 3], [1, 1, 1], [1.0, 2.0], 1.0)),
            (fep_many, ([[1, 0]], [3, 3], [1, 1, 1], [1.0, 2.0], 1.0)),
            (synapse_fep, ([1, 0, 0], [3, 3], [1, 1, 1], [1.0, 2.0], 1.0)),
            (combined_fep, ([1, 0], [1, 0, 0], [3, 3], [1, 1, 1], [1.0, 2.0], 1.0)),
            (precision_error_bound, ([0.1, 0.1], [3, 3], [1, 1, 1], [1.0, 2.0])),
            (heterogeneous_fep, ([1, 0], [3, 3], [1, 1, 1], 1.0, 1.0)),
        ],
        ids=[
            "many-negative-weight",
            "synapse-negative-weight",
            "heterogeneous-negative-weight",
            "combined-negative-weight",
            "precision-negative-weight",
            "synapse-empty-layer",
            "fep-nan-k",
            "precision-infinite-k",
            "heterogeneous-nan-k",
            "fep-batch-of-one",
            "fep-per-layer-k",
            "many-per-layer-k",
            "synapse-per-layer-k",
            "combined-per-layer-k",
            "precision-per-layer-k",
            "heterogeneous-one-k",
        ],
    )
    def test_every_bound_rejects_what_fep_terms_rejects(self, bound, args):
        """One input check serves all six bounds: none returns a
        (negative, nan or batch-summed) value for a topology that
        ``fep_terms`` refuses, and only the per-layer-K refinement
        reads a list of Lipschitz constants (the others take one ``K``)."""
        with pytest.raises(ValueError):
            bound(*args)


class TestFepMany:
    def test_agrees_with_scalar(self, rng):
        sizes, w, k, c = [5, 4, 3], [1, 0.5, 0.4, 0.3], 1.2, 1.5
        F = np.stack(
            [rng.integers(0, n, size=8) for n in sizes], axis=1
        ).astype(float)
        batch = fep_many(F, sizes, w, k, c)
        for row, expected in zip(F, batch):
            assert forward_error_propagation(row, sizes, w, k, c) == (
                pytest.approx(expected)
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fep_many(np.zeros(3), [3], [1, 1], 1.0, 1.0)


class TestNetworkWrappers:
    def test_crash_mode_uses_activation_sup(self, small_net):
        crash = network_fep(small_net, (1, 1), mode="crash")
        byz = network_fep(small_net, (1, 1), capacity=1.0, mode="byzantine")
        assert crash == pytest.approx(byz)  # sigmoid sup = 1 = C

    def test_byzantine_requires_capacity(self, small_net):
        with pytest.raises(ValueError, match="Lemma 1"):
            network_fep(small_net, (1, 1), mode="byzantine")

    def test_crash_mode_rejects_unbounded_activation(self):
        net = build_mlp(2, [4], activation="relu", seed=0)
        with pytest.raises(ValueError, match="bounded activation"):
            network_fep(net, (1,), mode="crash")

    def test_unknown_mode(self, small_net):
        with pytest.raises(ValueError, match="mode"):
            network_fep(small_net, (1, 1), mode="chaotic")

    def test_terms_match_total(self, small_net):
        terms = network_fep_terms(small_net, (2, 1), mode="crash")
        assert terms.sum() == pytest.approx(network_fep(small_net, (2, 1), mode="crash"))


class TestSynapseFep:
    def test_output_stage_term(self):
        # One faulty synapse into the output node: C * w_m^(L+1).
        got = synapse_fep([0, 0, 1], [3, 2], [0.5, 0.4, 0.3], 2.0, 1.5)
        assert got == pytest.approx(1.5 * 0.3)

    def test_stage1_hand_computation(self):
        # L=1, one synapse into layer 1: only ONE neuron's emission is
        # corrupted, so the bound is C * K * w1 * (N_{L+1}=1) * w2 —
        # the deviation C enters through weight w1, squashes once (K),
        # and reaches the output through that neuron's w2.
        got = synapse_fep([1, 0], [4], [0.5, 0.25], 2.0, 1.0)
        assert got == pytest.approx(1.0 * 2.0 * 0.5 * 1 * 0.25)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            synapse_fep([1, 0], [3, 2], [1, 1, 1], 1.0, 1.0)

    def test_network_wrapper(self, small_net):
        v = network_synapse_fep(small_net, (1, 0, 0), capacity=1.0)
        assert v > 0


class TestPrecisionBound:
    def test_single_layer_hand_computation(self):
        # L=1: lambda * N1 * w2.
        got = precision_error_bound([0.1], [5], [1.0, 0.2], 3.0)
        assert got == pytest.approx(0.1 * 5 * 0.2)

    def test_two_layer_hand_computation(self):
        # term1 = K * l1 * (N1 w2)(N2 w3); term2 = l2 * N2 w3.
        got = precision_error_bound([0.1, 0.2], [3, 4], [9, 0.5, 0.25], 2.0)
        assert got == pytest.approx(2 * 0.1 * (3 * 0.5) * (4 * 0.25) + 0.2 * 4 * 0.25)

    def test_zero_lambdas(self):
        assert precision_error_bound([0, 0], [3, 3], [1, 1, 1], 1.0) == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            precision_error_bound([-0.1], [3], [1, 1], 1.0)

    def test_network_wrapper_positive(self, small_net):
        assert network_precision_bound(small_net, (0.01, 0.01)) > 0
