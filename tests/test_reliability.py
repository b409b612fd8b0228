"""Unit tests for the probabilistic reliability layer."""

import numpy as np
import pytest

from repro.core.tolerance import greedy_max_total_failures
from repro.faults.reliability import (
    certified_survival_probability,
    mean_failures_to_violation,
    mission_survival_curve,
    monte_carlo_survival,
)
from repro.network import build_mlp


@pytest.fixture
def robust_net():
    return build_mlp(
        2,
        [8, 6],
        activation={"name": "sigmoid", "k": 0.5},
        init={"name": "uniform", "scale": 0.08},
        output_scale=0.05,
        seed=30,
    )


class TestCertifiedSurvival:
    def test_p_zero_is_certain(self, robust_net):
        assert certified_survival_probability(robust_net, 0.0, 0.5, 0.1) == (
            pytest.approx(1.0)
        )

    def test_p_one_is_never_tolerated(self, robust_net):
        # All neurons failing violates f_l < N_l.
        assert certified_survival_probability(robust_net, 1.0, 0.5, 0.1) == (
            pytest.approx(0.0)
        )

    def test_monotone_in_p(self, robust_net):
        ps = [0.0, 0.05, 0.1, 0.2, 0.4]
        vals = [
            certified_survival_probability(robust_net, p, 0.5, 0.1) for p in ps
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_budget(self, robust_net):
        lo = certified_survival_probability(robust_net, 0.1, 0.2, 0.1)
        hi = certified_survival_probability(robust_net, 0.1, 0.8, 0.1)
        assert hi >= lo

    def test_validation(self, robust_net):
        with pytest.raises(ValueError):
            certified_survival_probability(robust_net, -0.1, 0.5, 0.1)
        with pytest.raises(ValueError):
            certified_survival_probability(robust_net, 0.1, 0.1, 0.5)
        with pytest.raises(ValueError, match="grid"):
            certified_survival_probability(
                robust_net, 0.1, 0.5, 0.1, max_grid=10
            )

    def test_matches_direct_enumeration_single_layer(self):
        """Hand-check against the Theorem-1 closed form on L=1."""
        from scipy import stats as sps

        net = build_mlp(
            2, [6], init={"name": "uniform", "scale": 0.1},
            output_scale=0.1, seed=0,
        )
        eps, eps_p = 0.5, 0.1
        w = net.weight_max(2)
        f_max = min(int((eps - eps_p) / w + 1e-12), 5)
        p = 0.15
        expected = float(sps.binom.cdf(f_max, 6, p))
        got = certified_survival_probability(net, p, eps, eps_p)
        assert got == pytest.approx(expected, abs=1e-12)


class TestMonteCarloSurvival:
    def test_dominates_certified_bound(self, robust_net, rng):
        x = rng.random((24, 2))
        est = monte_carlo_survival(
            robust_net, 0.1, 0.5, 0.1, x, n_trials=200, seed=0
        )
        assert est.certified_lower_bound is not None
        # The MC estimate counts placements the worst case forbids, so
        # it must (statistically) dominate the certified bound.
        assert est.ci_high >= est.certified_lower_bound - 0.05

    def test_p_zero_always_survives(self, robust_net, rng):
        est = monte_carlo_survival(
            robust_net, 0.0, 0.5, 0.1, rng.random((8, 2)), n_trials=20, seed=0
        )
        assert est.survival == 1.0

    def test_ci_ordering(self, robust_net, rng):
        est = monte_carlo_survival(
            robust_net, 0.2, 0.5, 0.1, rng.random((8, 2)), n_trials=50, seed=1
        )
        assert 0 <= est.ci_low <= est.survival <= est.ci_high <= 1

    def test_validation(self, robust_net, rng):
        with pytest.raises(ValueError):
            monte_carlo_survival(
                robust_net, 1.5, 0.5, 0.1, rng.random((4, 2)), n_trials=5
            )


class TestMissionCurve:
    def test_curve_decreasing_in_time(self, robust_net):
        curve = mission_survival_curve(
            robust_net, 0.01, [0.0, 10.0, 50.0, 200.0], 0.5, 0.1
        )
        times = [t for t, _ in curve]
        probs = [p for _, p in curve]
        assert times == [0.0, 10.0, 50.0, 200.0]
        assert probs[0] == pytest.approx(1.0)
        assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_zero_rate_flat(self, robust_net):
        curve = mission_survival_curve(robust_net, 0.0, [0, 100], 0.5, 0.1)
        assert curve[0][1] == pytest.approx(curve[1][1])

    def test_validation(self, robust_net):
        with pytest.raises(ValueError):
            mission_survival_curve(robust_net, -0.1, [1.0], 0.5, 0.1)
        with pytest.raises(ValueError):
            mission_survival_curve(robust_net, 0.1, [-1.0], 0.5, 0.1)
        with pytest.raises(ValueError, match="needs x"):
            mission_survival_curve(
                robust_net, 0.1, [1.0], 0.5, 0.1, n_trials=10
            )

    def test_monte_carlo_triples_share_one_engine(self, robust_net, rng):
        """With x/n_trials the curve gains an estimated column; a shared
        engine reproduces the per-point monte_carlo_survival results."""
        x = rng.random((12, 2))
        times = [0.0, 5.0, 20.0]
        curve = mission_survival_curve(
            robust_net, 0.02, times, 0.5, 0.1, x=x, n_trials=60, seed=9
        )
        assert [t for t, *_ in curve] == times
        for t, certified, estimated in curve:
            p = 1.0 - float(np.exp(-0.02 * t))
            direct = monte_carlo_survival(
                robust_net, p, 0.5, 0.1, x, n_trials=60, seed=9
            )
            assert estimated == direct.survival
            assert estimated >= certified - 0.06

    def test_explicit_engine_reused_across_grid(self, robust_net, rng):
        from repro.faults.injector import FaultInjector
        from repro.faults.masks import MaskCampaignEngine

        x = rng.random((8, 2))
        engine = MaskCampaignEngine(
            FaultInjector(robust_net, capacity=robust_net.output_bound), x
        )
        with_engine = mission_survival_curve(
            robust_net, 0.05, [0.0, 10.0], 0.5, 0.1,
            x=x, n_trials=40, seed=4, engine=engine,
        )
        without = mission_survival_curve(
            robust_net, 0.05, [0.0, 10.0], 0.5, 0.1,
            x=x, n_trials=40, seed=4,
        )
        assert with_engine == without


class TestMeanFailuresToViolation:
    def test_exceeds_greedy_tolerance(self, robust_net, rng):
        x = rng.random((16, 2))
        analytic = sum(greedy_max_total_failures(robust_net, 0.5, 0.1))
        empirical = mean_failures_to_violation(
            robust_net, 0.5, 0.1, x, n_trials=30, seed=0
        )
        # Random placements survive at least as long as the worst case.
        assert empirical >= analytic

    def test_matches_scalar_oracle(self, robust_net, rng):
        """The prefix-mask engine path reproduces the sequential scalar
        loop exactly: same seed, same permutations, same counts."""
        from oracles import mean_failures_to_violation_scalar

        x = rng.random((12, 2))
        for eps_prime in (0.45, 0.3):
            fast = mean_failures_to_violation(
                robust_net, 0.5, eps_prime, x, n_trials=25, seed=3
            )
            oracle = mean_failures_to_violation_scalar(
                robust_net, 0.5, eps_prime, x, n_trials=25, seed=3
            )
            assert fast == oracle

    def test_chunking_does_not_change_results(self, robust_net, rng):
        x = rng.random((8, 2))
        a = mean_failures_to_violation(
            robust_net, 0.5, 0.4, x, n_trials=11, seed=1, trials_per_chunk=2
        )
        b = mean_failures_to_violation(
            robust_net, 0.5, 0.4, x, n_trials=11, seed=1, trials_per_chunk=64
        )
        assert a == b

    def test_engine_reuse(self, robust_net, rng):
        from repro.faults.injector import FaultInjector
        from repro.faults.masks import MaskCampaignEngine

        x = rng.random((8, 2))
        engine = MaskCampaignEngine(
            FaultInjector(robust_net, capacity=robust_net.output_bound), x
        )
        shared = mean_failures_to_violation(
            robust_net, 0.5, 0.4, x, n_trials=10, seed=2, engine=engine
        )
        fresh = mean_failures_to_violation(
            robust_net, 0.5, 0.4, x, n_trials=10, seed=2
        )
        assert shared == fresh

    def test_engine_capacity_mismatch_rejected(self, robust_net, rng):
        from repro.faults.injector import FaultInjector
        from repro.faults.masks import MaskCampaignEngine

        x = rng.random((8, 2))
        engine = MaskCampaignEngine(
            FaultInjector(robust_net, capacity=0.123), x
        )
        with pytest.raises(ValueError, match="capacity"):
            mean_failures_to_violation(
                robust_net, 0.5, 0.4, x, n_trials=5, engine=engine
            )

    def test_engine_probe_batch_mismatch_rejected(self, robust_net, rng):
        from repro.faults.injector import FaultInjector
        from repro.faults.masks import MaskCampaignEngine

        engine = MaskCampaignEngine(
            FaultInjector(robust_net, capacity=robust_net.output_bound),
            rng.random((8, 2)),
        )
        with pytest.raises(ValueError, match="probe batch"):
            mean_failures_to_violation(
                robust_net, 0.5, 0.4, rng.random((8, 2)), n_trials=5,
                engine=engine,
            )


class TestEpsilonPair:
    """Every survival function refuses the epsilon pairs Theorem 3
    refuses (``0 < epsilon_prime <= epsilon``) instead of reading a
    negative budget."""

    @pytest.mark.parametrize("eps, eps_prime", [(0.1, 0.5), (0.5, 0.0)])
    @pytest.mark.parametrize(
        "survival",
        [
            lambda net, e, ep, x: certified_survival_probability(
                net, 0.05, e, ep
            ),
            lambda net, e, ep, x: monte_carlo_survival(
                net, 0.05, e, ep, x, n_trials=20
            ),
            lambda net, e, ep, x: mean_failures_to_violation(
                net, e, ep, x, n_trials=5
            ),
        ],
        ids=["certified", "monte-carlo", "mean-failures"],
    )
    def test_bad_pair_rejected(self, survival, eps, eps_prime, rng):
        net = build_mlp(3, [6, 5], seed=0)
        with pytest.raises(ValueError, match="epsilon_prime <= epsilon"):
            survival(net, eps, eps_prime, rng.random((4, 3)))


class TestEngineReuse:
    def test_shared_engine_matches_per_call_engines(self, robust_net, rng):
        from repro.faults.injector import FaultInjector
        from repro.faults.masks import MaskCampaignEngine

        x = rng.random((16, robust_net.input_dim))
        engine = MaskCampaignEngine(
            FaultInjector(robust_net, capacity=robust_net.output_bound), x
        )
        for p in (0.05, 0.2):
            direct = monte_carlo_survival(
                robust_net, p, 0.5, 0.1, x, n_trials=120, seed=4
            )
            shared = monte_carlo_survival(
                robust_net, p, 0.5, 0.1, x, n_trials=120, seed=4, engine=engine
            )
            assert shared == direct

    def test_engine_for_other_network_rejected(self, robust_net, rng):
        from repro.faults.injector import FaultInjector
        from repro.faults.masks import MaskCampaignEngine

        other = build_mlp(
            2, [8, 6], activation={"name": "sigmoid", "k": 0.5},
            init={"name": "uniform", "scale": 0.08}, output_scale=0.05,
            seed=31,
        )
        x = rng.random((8, 2))
        engine = MaskCampaignEngine(
            FaultInjector(other, capacity=other.output_bound), x
        )
        with pytest.raises(ValueError, match="different network"):
            monte_carlo_survival(
                robust_net, 0.1, 0.5, 0.1, x, n_trials=20, engine=engine
            )
