"""Unit tests for the adversarial worst-case search."""

import numpy as np
import pytest

from repro.faults.adversary import (
    adversarial_byzantine_scenario,
    adversarial_crash_scenario,
    output_sensitivities,
    worst_input_search,
)
from repro.faults.campaign import _monte_carlo_campaign, run_campaign
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import FailureScenario, crash_scenario


class TestSensitivities:
    def test_shapes(self, small_net, batch):
        sens = output_sensitivities(small_net, batch)
        assert [s.shape for s in sens] == [(32, 8), (32, 6)]

    def test_last_layer_equals_output_weights(self, small_net, batch):
        sens = output_sensitivities(small_net, batch)
        np.testing.assert_allclose(
            sens[-1], np.abs(np.broadcast_to(small_net.output_weights[0], (32, 6)))
        )

    def test_matches_finite_difference(self, small_net):
        x = np.full((1, 3), 0.4)
        sens = output_sensitivities(small_net, x)
        # Perturb one layer-1 neuron's emission and compare.
        taps = small_net.hidden_outputs(x)
        h = 1e-6
        for i in range(3):
            bumped = taps[0].copy()
            bumped[:, i] += h
            fd = (
                small_net.forward_from(1, bumped) - small_net.forward_from(1, taps[0])
            ) / h
            assert abs(abs(fd[0, 0]) - sens[0][0, i]) < 1e-4


class TestAdversarialScenarios:
    def test_distribution_respected(self, small_net, batch):
        sc = adversarial_byzantine_scenario(small_net, (2, 1), batch)
        assert sc.neuron_distribution(2) == (2, 1)
        sc2 = adversarial_crash_scenario(small_net, (1, 2), batch)
        assert sc2.neuron_distribution(2) == (1, 2)

    def test_adversarial_crash_beats_random_average(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        dist = (2, 1)
        mc = _monte_carlo_campaign(inj, batch, dist, n_scenarios=60, seed=0)
        adv = adversarial_crash_scenario(small_net, dist, batch)
        adv_err = run_campaign(inj, batch, [adv]).max_error
        assert adv_err >= mc.mean_error

    def test_adversarial_byzantine_beats_random_average(self, small_net, batch):
        from repro.faults.types import ByzantineFault

        inj = FaultInjector(small_net, capacity=1.0)
        dist = (2, 1)
        mc = _monte_carlo_campaign(
            inj, batch, dist, n_scenarios=60, seed=0, fault=ByzantineFault()
        )
        adv = adversarial_byzantine_scenario(small_net, dist, batch, capacity=1.0)
        adv_err = run_campaign(inj, batch, [adv]).max_error
        assert adv_err >= mc.mean_error

    def test_length_validation(self, small_net, batch):
        with pytest.raises(ValueError):
            adversarial_byzantine_scenario(small_net, (1,), batch)
        with pytest.raises(ValueError):
            adversarial_crash_scenario(small_net, (1, 1, 1), batch)


class TestWorstInputSearch:
    def test_improves_on_random_sampling(self, small_net, rng):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = crash_scenario([(1, 0), (1, 1), (2, 0)])
        x_star, best = worst_input_search(
            inj, sc, n_candidates=64, refine_steps=10, rng=rng
        )
        random_x = rng.random((64, 3))
        random_best = float(
            np.abs(small_net.forward(random_x) - inj.run(random_x, sc)).max()
        )
        assert best >= random_best - 1e-9

    @pytest.mark.parametrize("net_name", ["small_net", "wide_net"])
    def test_fault_free_scenario_reads_exactly_zero(self, net_name, request, rng):
        """Faulty and nominal outputs come from one engine: with no
        fault every candidate's error is 0, not a rounding residue."""
        net = request.getfixturevalue(net_name)
        inj = FaultInjector(net, capacity=1.0)
        _, best = worst_input_search(
            inj, FailureScenario(), n_candidates=64, refine_steps=5, rng=rng
        )
        assert best == 0.0

    def test_returns_point_in_cube(self, small_net, rng):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = crash_scenario([(1, 0)])
        x_star, best = worst_input_search(
            inj, sc, n_candidates=16, refine_steps=5, rng=rng
        )
        assert x_star.shape == (3,)
        assert np.all(x_star >= 0) and np.all(x_star <= 1)
        assert best >= 0
