"""Unit tests for the Corollary-2 boosting simulation."""

import numpy as np
import pytest

from repro.core.fep import network_fep
from repro.distributed.boosting import (
    BoostingResult,
    LatencyModel,
    boosting_report,
    simulate_boosted_run,
)
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import crash_scenario
from repro.network import build_mlp

from oracles import run_reference


@pytest.fixture
def boost_net():
    return build_mlp(
        2,
        [10, 8],
        activation={"name": "sigmoid", "k": 0.5},
        init={"name": "uniform", "scale": 0.1},
        output_scale=0.05,
        seed=8,
    )


class TestLatencyModel:
    def test_uniform_random_shapes(self, boost_net, rng):
        lat = LatencyModel.uniform_random(boost_net, rng=rng)
        lat.validate(boost_net)
        assert [l.size for l in lat.latencies] == [10, 8]

    def test_straggler_population(self, boost_net, rng):
        lat = LatencyModel.uniform_random(
            boost_net, straggler_fraction=0.2, straggler_scale=100.0, rng=rng
        )
        assert (lat.latencies[0] > 50).sum() == 2

    def test_constant(self, boost_net):
        lat = LatencyModel.constant(boost_net, 2.0)
        assert all(np.all(l == 2.0) for l in lat.latencies)

    def test_validation(self, boost_net):
        bad = LatencyModel([np.ones(3), np.ones(8)])
        with pytest.raises(ValueError):
            bad.validate(boost_net)
        with pytest.raises(ValueError, match="positive"):
            LatencyModel([np.zeros(10), np.ones(8)]).validate(boost_net)


class TestSimulateBoostedRun:
    def test_zero_budget_equals_baseline(self, boost_net, rng):
        lat = LatencyModel.uniform_random(boost_net, rng=rng)
        result = simulate_boosted_run(
            boost_net, rng.random((4, 2)), lat, (0, 0)
        )
        assert result.observed_error == 0.0
        assert result.resets_per_layer == (0, 0)
        assert result.speedup == pytest.approx(1.0)

    def test_error_bounded_by_fep(self, boost_net, rng):
        lat = LatencyModel.uniform_random(
            boost_net, straggler_fraction=0.2, straggler_scale=10, rng=rng
        )
        dist = (2, 1)
        result = simulate_boosted_run(boost_net, rng.random((8, 2)), lat, dist)
        assert result.observed_error <= network_fep(boost_net, dist, mode="crash")
        assert result.resets_per_layer == dist

    def test_speedup_with_stragglers(self, boost_net, rng):
        lat = LatencyModel.uniform_random(
            boost_net, straggler_fraction=0.1, straggler_scale=50.0, rng=rng
        )
        result = simulate_boosted_run(boost_net, rng.random((4, 2)), lat, (1, 1))
        assert result.speedup > 5.0

    def test_no_speedup_with_constant_latency(self, boost_net, rng):
        lat = LatencyModel.constant(boost_net, 1.0)
        result = simulate_boosted_run(boost_net, rng.random((4, 2)), lat, (1, 1))
        assert result.speedup == pytest.approx(1.0)

    def test_resets_are_the_slowest_neurons(self, boost_net, rng):
        lat = LatencyModel.constant(boost_net, 1.0)
        lat.latencies[0][3] = 100.0  # one very slow neuron in layer 1
        x = rng.random((2, 2))
        result = simulate_boosted_run(boost_net, x, lat, (1, 0))
        assert result.resets_per_layer == (1, 0)
        # The boosted output differs from baseline exactly by crashing (1,3).
        inj = FaultInjector(boost_net, capacity=boost_net.output_bound)
        np.testing.assert_allclose(
            result.output_boosted,
            run_reference(inj, x, crash_scenario([(1, 3)])),
            rtol=0, atol=1e-15,
        )
        np.testing.assert_allclose(
            result.output_baseline, boost_net.forward(x), rtol=0, atol=1e-15
        )
        assert result.observed_error > 0

    def test_budget_validation(self, boost_net, rng):
        lat = LatencyModel.constant(boost_net)
        with pytest.raises(ValueError):
            simulate_boosted_run(boost_net, rng.random((2, 2)), lat, (10, 0))
        with pytest.raises(ValueError):
            simulate_boosted_run(boost_net, rng.random((2, 2)), lat, (1,))


class TestBoostingReport:
    def test_report_fields(self, boost_net, rng):
        report = boosting_report(
            boost_net, rng.random((8, 2)), (1, 1), 0.5, 0.1, n_trials=5
        )
        assert report["quotas"] == (9, 7)
        assert report["min_speedup"] >= 1.0
        assert report["max_observed_error"] <= report["error_bound"] + 1e-9

    def test_untolerated_budget_rejected(self):
        net = build_mlp(
            2, [6, 5], init={"name": "uniform", "scale": 2.0},
            output_scale=2.0, seed=0,
        )
        with pytest.raises(ValueError, match="not tolerated"):
            boosting_report(net, np.zeros((2, 2)), (3, 3), 0.2, 0.1, n_trials=2)
