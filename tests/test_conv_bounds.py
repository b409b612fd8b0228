"""Unit tests for the Section VI convolutional refinements."""

import numpy as np
import pytest

from repro.core.conv import (
    bound_reduction_factor,
    dense_equivalent_weight_maxes,
    max_fanout,
    receptive_field_fep,
)
from repro.core.fep import network_fep
from repro.faults.campaign import _monte_carlo_campaign
from repro.faults.injector import FaultInjector
from repro.network import build_conv_net, build_mlp


@pytest.fixture
def conv_net():
    return build_conv_net(
        16, [3, 3], activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.5}, seed=0,
    )


class TestWeightMaxes:
    def test_conv_dense_equivalent_matches_kernel(self, conv_net):
        assert dense_equivalent_weight_maxes(conv_net) == conv_net.weight_maxes()

    def test_dense_network_consistent(self, small_net):
        assert dense_equivalent_weight_maxes(small_net) == small_net.weight_maxes()


class TestFanout:
    def test_conv_fanout_is_receptive_field(self, conv_net):
        assert max_fanout(conv_net, 1) == 3

    def test_last_layer_fans_to_output(self, conv_net):
        assert max_fanout(conv_net, conv_net.depth) == 1

    def test_dense_fanout_is_next_width(self, small_net):
        assert max_fanout(small_net, 1) == 6

    def test_bounds_checked(self, conv_net):
        with pytest.raises(ValueError):
            max_fanout(conv_net, 0)


class TestRefinedFep:
    def test_never_exceeds_generic(self, conv_net):
        for dist in [(1, 0), (2, 0), (1, 1), (0, 2)]:
            refined = receptive_field_fep(conv_net, dist, mode="crash")
            generic = network_fep(conv_net, dist, mode="crash")
            assert refined <= generic + 1e-12

    def test_strict_gap_for_single_early_failure(self, conv_net):
        # One layer-1 failure reaches at most R=3 of the 12 layer-2
        # neurons, so the refinement is strict.
        assert bound_reduction_factor(conv_net, (1, 0), mode="crash") > 1.0

    def test_degenerates_on_dense(self, small_net):
        for dist in [(1, 0), (2, 1), (0, 3)]:
            assert receptive_field_fep(small_net, dist, mode="crash") == (
                pytest.approx(network_fep(small_net, dist, mode="crash"))
            )

    def test_refined_bound_still_sound(self, conv_net, rng):
        x = rng.random((24, conv_net.input_dim))
        inj = FaultInjector(conv_net, capacity=conv_net.output_bound)
        dist = (2, 0)
        campaign = _monte_carlo_campaign(inj, x, dist, n_scenarios=60, seed=0)
        assert campaign.max_error <= receptive_field_fep(
            conv_net, dist, mode="crash"
        ) + 1e-9

    def test_zero_distribution(self, conv_net):
        assert receptive_field_fep(conv_net, (0, 0), mode="crash") == 0.0
        assert bound_reduction_factor(conv_net, (0, 0), mode="crash") == 1.0

    def test_length_validation(self, conv_net):
        with pytest.raises(ValueError):
            receptive_field_fep(conv_net, (1,), mode="crash")
