"""End-to-end integration tests: the full pipeline the paper implies.

train an over-provisioned approximation -> certify it -> inject the
certified failures -> the epsilon guarantee holds against the *target
function*, not just against the nominal network output.
"""

import numpy as np
import pytest

from repro.core.certification import certify
from repro.core.fep import network_fep
from repro.distributed.boosting import LatencyModel, simulate_boosted_run
from repro.faults.campaign import _monte_carlo_campaign
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import random_failure_scenario
from repro.network import build_mlp, load_network, save_network
from repro.quantization.precision import build_quantized_network, greedy_bit_allocation
from repro.training.data import gaussian_bump, grid_inputs, sample_dataset, sup_error
from repro.training.regularizers import MaxNormConstraint
from repro.training.trainer import Trainer

from message_passing import DistributedNetwork


@pytest.fixture(scope="module")
def trained():
    """Train one over-provisioned approximation once for the module."""
    target = gaussian_bump(2, width=0.25)
    net = build_mlp(
        2,
        [24, 16],
        activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.3},
        output_scale=0.3,
        seed=100,
    )
    rng = np.random.default_rng(100)
    X, y = sample_dataset(target, 1024, rng=rng)
    trainer = Trainer(
        optimizer="adam", regularizers=[MaxNormConstraint(0.5)]
    )
    trainer.train(net, X, y, epochs=150, batch_size=64, rng=rng)
    grid = grid_inputs(2, 20)
    eps_prime = sup_error(net, target, grid)
    return net, target, grid, eps_prime


class TestTrainCertifyInject:
    def test_training_reached_useful_precision(self, trained):
        _, _, _, eps_prime = trained
        assert eps_prime < 0.35

    def test_certified_failures_keep_epsilon_vs_target(self, trained):
        net, target, grid, eps_prime = trained
        epsilon = eps_prime + 0.15  # required accuracy; surplus is the budget
        cert = certify(net, epsilon, eps_prime, mode="crash")
        dist = cert.maximal_distribution
        injector = FaultInjector(net, capacity=net.output_bound)
        rng = np.random.default_rng(7)
        truth = target(grid)
        for trial in range(20):
            scenario = random_failure_scenario(net, dist, rng=rng)
            faulty = injector.run(grid, scenario)[:, 0]
            # Definition 3: the failed network still eps-approximates F.
            assert np.max(np.abs(faulty - truth)) <= epsilon + 1e-9

    def test_audit_agrees_with_direct_campaign(self, trained):
        net, _, grid, eps_prime = trained
        epsilon = eps_prime + 0.15
        cert = certify(net, epsilon, eps_prime, mode="crash")
        injector = FaultInjector(net, capacity=net.output_bound)
        campaign = _monte_carlo_campaign(
            injector, grid[::7], cert.maximal_distribution, n_scenarios=50, seed=1
        )
        assert campaign.max_error <= cert.budget + 1e-9


class TestCrossEngineConsistency:
    def test_simulator_injector_and_saved_network_agree(self, trained, tmp_path):
        net, _, grid, _ = trained
        path = save_network(net, tmp_path / "trained.npz")
        reloaded = load_network(path)
        scenario = random_failure_scenario(
            net, (2, 1), rng=np.random.default_rng(3)
        )
        injector = FaultInjector(reloaded, capacity=1.0)
        sim = DistributedNetwork(reloaded, capacity=1.0)
        sim.apply_scenario(scenario)
        x = grid[:10]
        np.testing.assert_allclose(
            sim.run_batch(x), injector.run(x, scenario), atol=1e-10
        )


class TestQuantizedDeployment:
    def test_bit_allocation_keeps_epsilon_vs_target(self, trained):
        net, target, grid, eps_prime = trained
        budget = 0.1
        alloc = greedy_bit_allocation(net, budget)
        qnet = build_quantized_network(net, alloc)
        truth = target(grid)
        q_err = np.max(np.abs(qnet.forward(grid)[:, 0] - truth))
        assert q_err <= eps_prime + budget + 1e-9


class TestBoostedDeployment:
    def test_boosting_on_trained_network(self, trained):
        net, target, grid, eps_prime = trained
        epsilon = eps_prime + 0.15
        cert = certify(net, epsilon, eps_prime, mode="crash")
        dist = tuple(min(f, 2) for f in cert.maximal_distribution)
        lat = LatencyModel.uniform_random(
            net, straggler_fraction=0.1, straggler_scale=20,
            rng=np.random.default_rng(4),
        )
        result = simulate_boosted_run(net, grid[:16], lat, dist)
        assert result.observed_error <= network_fep(net, dist, mode="crash") + 1e-9
        assert result.speedup >= 1.0
