"""Unit tests for fault-injection campaigns."""

import numpy as np
import pytest

from repro.faults.campaign import (
    CampaignResult,
    count_crash_configurations,
    exhaustive_crash_campaign,
    run_campaign,
)
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import all_single_neuron_faults, crash_scenario
from repro.faults.types import NoiseFault
from repro.faults.scenarios import FailureScenario
from repro.network.model import NeuronAddress
from repro.specs import CampaignSpec, FaultSpec, NetworkRef, SamplerSpec, run

#: The ``small_net`` fixture as a builder recipe, so specs can name it.
SMALL_NET = NetworkRef(
    builder="mlp",
    params={
        "input_dim": 3,
        "hidden": [8, 6],
        "activation": {"name": "sigmoid", "k": 1.0},
        "init": {"name": "uniform", "scale": 0.5},
        "output_scale": 0.5,
        "seed": 0,
    },
)


def _campaign_spec(distribution, *, fault="crash", **kw):
    return CampaignSpec(
        network=SMALL_NET,
        sampler=SamplerSpec(kind="fixed", distribution=distribution),
        fault=FaultSpec(kind=fault),
        capacity=1.0,
        **kw,
    )


class TestCampaignResult:
    def test_aggregates(self):
        r = CampaignResult(np.array([0.1, 0.5, 0.3]), ["a", "b", "c"])
        assert r.max_error == 0.5
        assert r.mean_error == pytest.approx(0.3)
        assert r.worst_scenario == "b"
        assert r.num_scenarios == 3

    def test_fraction_exceeding(self):
        r = CampaignResult(np.array([0.1, 0.5, 0.3]))
        assert r.fraction_exceeding(0.2) == pytest.approx(2 / 3)

    def test_empty(self):
        r = CampaignResult(np.empty(0))
        assert r.max_error == 0.0 and r.worst_scenario is None
        assert r.fraction_exceeding(0.0) == 0.0

    def test_merge(self):
        a = CampaignResult(np.array([0.1]), ["a"])
        b = CampaignResult(np.array([0.9]), ["b"])
        merged = a.merged_with(b)
        assert merged.num_scenarios == 2 and merged.worst_scenario == "b"

    def test_summary_string(self):
        assert "n=3" in CampaignResult(np.array([0.1, 0.2, 0.3])).summary()


class TestRunCampaign:
    def test_chunking_does_not_change_results(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = list(all_single_neuron_faults(small_net))
        a = run_campaign(inj, batch, scenarios, chunk_size=3)
        b = run_campaign(inj, batch, scenarios, chunk_size=1000)
        np.testing.assert_allclose(a.errors, b.errors)

    def test_falls_back_to_scalar_path_for_dynamic_faults(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = [
            FailureScenario({NeuronAddress(1, 0): NoiseFault(sigma=0.01)}, name="n")
        ]
        result = run_campaign(inj, batch, scenarios)
        assert result.num_scenarios == 1 and result.max_error > 0

    def test_invalid_chunk_size(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        with pytest.raises(ValueError):
            run_campaign(inj, batch, [], chunk_size=0)

    def test_names_kept_and_dropped(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = [crash_scenario([(1, 0)], name="one")]
        with_names = run_campaign(inj, batch, scenarios, keep_names=True)
        without = run_campaign(inj, batch, scenarios, keep_names=False)
        assert with_names.scenario_names == ["one"]
        assert without.scenario_names == []

    @pytest.mark.slow
    def test_parallel_workers_match_serial(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = list(all_single_neuron_faults(small_net))
        serial = run_campaign(inj, batch, scenarios)
        parallel = run_campaign(inj, batch, list(scenarios), n_workers=2, chunk_size=4)
        np.testing.assert_allclose(serial.errors, parallel.errors)


class TestMonteCarloCampaign:
    def test_seed_reproducibility(self):
        spec = _campaign_spec((2, 1), n_scenarios=20, seed=1)
        np.testing.assert_array_equal(run(spec).errors, run(spec).errors)

    def test_byzantine_fault_injection(self):
        crash = run(_campaign_spec((2, 1), n_scenarios=30, seed=2))
        byz = run(
            _campaign_spec((2, 1), fault="byzantine", n_scenarios=30, seed=2)
        )
        # Byzantine deviation (C=1) hurts at least as much as a crash on
        # average (crash deviation is |y| <= 1).
        assert byz.mean_error >= 0.5 * crash.mean_error

    def test_zero_failures_zero_error(self):
        r = run(_campaign_spec((0, 0), n_scenarios=5, seed=0))
        np.testing.assert_allclose(r.errors, 0.0)


class TestExhaustive:
    def test_count_formula(self, small_net):
        assert count_crash_configurations(small_net, 2) == 91  # C(14, 2)

    def test_exhaustive_evaluates_all(self, single_layer_net, rng):
        inj = FaultInjector(single_layer_net, capacity=1.0)
        x = rng.random((8, 2))
        r = exhaustive_crash_campaign(inj, x, 2)
        assert r.num_scenarios == 45

    def test_exhaustive_refuses_explosion(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        with pytest.raises(ValueError, match="combinatorial|configurations"):
            exhaustive_crash_campaign(inj, batch, 7, max_configurations=100)

    def test_exhaustive_max_at_least_single_worst(self, single_layer_net, rng):
        inj = FaultInjector(single_layer_net, capacity=1.0)
        x = rng.random((8, 2))
        singles = exhaustive_crash_campaign(inj, x, 1)
        pairs = exhaustive_crash_campaign(inj, x, 2)
        assert pairs.max_error >= singles.max_error - 1e-12
