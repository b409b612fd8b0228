"""Unit tests for the mask-native campaign engine.

Covers the DESIGN.md three-engine equivalence contract: the mask
engine must agree with the object-path ``compile_batch`` lowering, the
scalar injector, and the process-grained simulator on identical
scenarios — plus the statistical contract of the samplers and the
float32 fast path's tolerance.
"""

import itertools

import numpy as np
import pytest

from repro.distributed.simulator import DistributedNetwork
from repro.faults.campaign import (
    _monte_carlo_campaign,
    exhaustive_crash_campaign,
    run_campaign,
)
from repro.faults.injector import FaultInjector
from repro.faults.masks import (
    BernoulliSampler,
    FixedDistributionSampler,
    FixedSynapseDistributionSampler,
    MaskCampaignEngine,
    MixedFaultSampler,
    SynapseBernoulliSampler,
    combination_index_array,
    masks_from_flat_indices,
    merge_mask_batches,
    sampled_campaign_errors,
)
from repro.faults.scenarios import (
    FailureScenario,
    exhaustive_crash_scenarios,
    random_failure_scenario,
    random_synapse_scenario,
)
from repro.faults.types import (
    ByzantineFault,
    CrashFault,
    IntermittentFault,
    NoiseFault,
    OffsetFault,
    StuckAtFault,
)
from repro.network import build_mlp
from repro.network.model import NeuronAddress

from oracles import scalar_errors


@pytest.fixture
def injector(small_net):
    return FaultInjector(small_net, capacity=1.0)


# ---------------------------------------------------------------------------
# Engine equivalence (the DESIGN.md contract)
# ---------------------------------------------------------------------------


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "fault",
        [
            CrashFault(),
            ByzantineFault(),            # capacity-saturating sentinel
            ByzantineFault(value=0.7),   # value-pulling
            StuckAtFault(value=0.9),
            OffsetFault(offset=0.3),
        ],
    )
    def test_matches_compiled_object_path(self, small_net, injector, batch, rng, fault):
        scenarios = [
            random_failure_scenario(small_net, (2, 1), fault=fault, rng=rng)
            for _ in range(24)
        ]
        compiled = injector.compile_batch(scenarios)
        engine = MaskCampaignEngine(injector, batch, chunk_size=7)
        np.testing.assert_allclose(
            engine.evaluate(compiled),
            scalar_errors(injector, batch, scenarios),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_matches_scalar_injector(self, small_net, injector, batch, rng):
        scenarios = [
            random_failure_scenario(small_net, (3, 2), rng=rng) for _ in range(10)
        ]
        compiled = injector.compile_batch(scenarios)
        engine = MaskCampaignEngine(injector, batch)
        scalar = np.array([injector.output_error(batch, sc) for sc in scenarios])
        np.testing.assert_allclose(engine.evaluate(compiled), scalar, rtol=1e-12)

    def test_matches_simulator_reference(self, small_net, injector, rng):
        x = rng.random((4, small_net.input_dim))
        scenario = random_failure_scenario(small_net, (2, 1), rng=rng)
        compiled = injector.compile_batch([scenario])
        engine = MaskCampaignEngine(injector, x)
        sim = DistributedNetwork(small_net, capacity=1.0)
        sim.apply_scenario(scenario)
        np.testing.assert_allclose(
            engine.outputs(compiled)[0], sim.run_batch(x), rtol=1e-9
        )

    def test_chunking_invariance(self, injector, batch, rng):
        scenarios = [
            random_failure_scenario(injector.network, (2, 2), rng=rng)
            for _ in range(20)
        ]
        compiled = injector.compile_batch(scenarios)
        a = MaskCampaignEngine(injector, batch, chunk_size=3).evaluate(compiled)
        b = MaskCampaignEngine(injector, batch, chunk_size=64).evaluate(compiled)
        np.testing.assert_array_equal(a, b)

    def test_float32_fast_path_tolerance(self, injector, batch, rng):
        scenarios = [
            random_failure_scenario(injector.network, (2, 1), rng=rng)
            for _ in range(32)
        ]
        compiled = injector.compile_batch(scenarios)
        e64 = MaskCampaignEngine(injector, batch, dtype=np.float64).evaluate(compiled)
        e32 = MaskCampaignEngine(injector, batch, dtype="float32").evaluate(compiled)
        assert e64.dtype == np.float64
        np.testing.assert_allclose(e32, e64, atol=1e-5)
        with pytest.raises(ValueError, match="float32 or float64"):
            MaskCampaignEngine(injector, batch, dtype=np.int32)

    def test_mean_reduction(self, injector, batch, rng):
        scenarios = [
            random_failure_scenario(injector.network, (2, 0), rng=rng)
            for _ in range(8)
        ]
        compiled = injector.compile_batch(scenarios)
        engine = MaskCampaignEngine(injector, batch, reduction="mean")
        scalar = [
            injector.output_error(batch, sc, reduction="mean")
            for sc in scenarios
        ]
        np.testing.assert_allclose(
            engine.evaluate(compiled), scalar, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "fault", [ByzantineFault(), OffsetFault(offset=10.0)]
    )
    def test_sampler_batches_work_on_injector_run_many(
        self, small_net, batch, rng, fault
    ):
        """Sampler batches carry unresolved add-channel sentinels /
        unclipped offsets; the engine must resolve them at evaluation
        exactly like the scalar injector does for the same faults."""
        inj = FaultInjector(small_net, capacity=0.3)
        sampler = FixedDistributionSampler(small_net, (2, 1), fault=fault)
        compiled = sampler.sample(12, rng)
        scenarios = [
            FailureScenario(
                {
                    NeuronAddress(l0 + 1, int(i)): fault
                    for l0, mask in enumerate(compiled.add_masks)
                    for i in np.flatnonzero(mask[s])
                }
            )
            for s in range(compiled.num_scenarios)
        ]
        assert all(len(sc.neuron_faults) == 3 for sc in scenarios)
        via_engine = MaskCampaignEngine(inj, batch).evaluate(compiled)
        assert np.all(np.isfinite(via_engine))
        np.testing.assert_allclose(
            via_engine, scalar_errors(inj, batch, scenarios), rtol=1e-12
        )

    def test_unbounded_capacity_rejects_sentinels(self, small_net, batch, rng):
        inj = FaultInjector(small_net, capacity=None)
        sampler = FixedDistributionSampler(small_net, (1, 0), fault=ByzantineFault())
        compiled = sampler.sample(4, rng)
        with pytest.raises(ValueError, match="unbounded"):
            MaskCampaignEngine(inj, batch).evaluate(compiled)

    def test_empty_batch(self, injector, batch):
        compiled = injector.compile_batch([])
        engine = MaskCampaignEngine(injector, batch)
        assert engine.evaluate(compiled).shape == (0,)
        assert engine.outputs(compiled).shape[0] == 0


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


class TestSamplers:
    def test_fixed_counts_exact(self, small_net, rng):
        sampler = FixedDistributionSampler(small_net, (3, 2))
        batch = sampler.sample(200, rng)
        np.testing.assert_array_equal(batch.zero_masks[0].sum(axis=1), 3)
        np.testing.assert_array_equal(batch.zero_masks[1].sum(axis=1), 2)
        assert not batch.set_masks[0].any() and not batch.add_masks[0].any()

    def test_marginals_match_object_sampler(self, small_net, rng):
        """Each neuron of layer l is hit with probability f_l / N_l —
        the same per-layer distribution as random_failure_scenario."""
        S = 4000
        dist = (3, 2)
        sampler = FixedDistributionSampler(small_net, dist)
        batch = sampler.sample(S, rng)
        obj_counts = [np.zeros(n) for n in small_net.layer_sizes]
        for _ in range(S):
            sc = random_failure_scenario(small_net, dist, rng=rng)
            for addr in sc.neuron_faults:
                obj_counts[addr.layer - 1][addr.index] += 1
        for l0, (n, f) in enumerate(zip(small_net.layer_sizes, dist)):
            p = f / n
            sigma = np.sqrt(p * (1 - p) / S)
            mask_freq = batch.zero_masks[l0].mean(axis=0)
            obj_freq = obj_counts[l0] / S
            assert np.all(np.abs(mask_freq - p) < 6 * sigma)
            assert np.all(np.abs(obj_freq - p) < 6 * sigma)

    def test_full_layer_and_zero_counts(self, small_net, rng):
        sizes = small_net.layer_sizes
        batch = FixedDistributionSampler(small_net, (sizes[0], 0)).sample(5, rng)
        assert batch.zero_masks[0].all()
        assert not batch.zero_masks[1].any()

    def test_byzantine_channel_routing(self, small_net, rng):
        batch = FixedDistributionSampler(
            small_net, (2, 0), fault=StuckAtFault(value=0.4)
        ).sample(6, rng)
        assert not batch.zero_masks[0].any()
        np.testing.assert_array_equal(batch.set_masks[0].sum(axis=1), 2)
        assert np.all(batch.set_values[0][batch.set_masks[0]] == 0.4)

    def test_bernoulli_rates(self, small_net, rng):
        sampler = BernoulliSampler(small_net, 0.3)
        batch = sampler.sample(3000, rng)
        for mask in batch.zero_masks:
            assert abs(mask.mean() - 0.3) < 0.02

    def test_stochastic_faults_fill_their_channels(self, small_net, rng):
        batch = FixedDistributionSampler(
            small_net, (2, 1), fault=NoiseFault(sigma=0.3)
        ).sample(6, rng)
        assert batch.is_stochastic
        np.testing.assert_array_equal(batch.noise_masks[0].sum(axis=1), 2)
        assert np.all(batch.noise_sigma[0][batch.noise_masks[0]] == 0.3)
        gated = FixedDistributionSampler(
            small_net, (1, 1), fault=IntermittentFault(p=0.25)
        ).sample(6, rng)
        assert gated.is_stochastic
        assert np.all(gated.gate_p[0][gated.zero_masks[0]] == 0.25)
        assert np.all(gated.gate_p[0][~gated.zero_masks[0]] == 1.0)

    def test_rejects_bad_args(self, small_net):
        from repro.faults.types import SynapseCrashFault

        with pytest.raises(ValueError, match="synapse"):
            FixedDistributionSampler(
                small_net, (1, 0), fault=SynapseCrashFault()
            )
        with pytest.raises(ValueError, match="length"):
            FixedDistributionSampler(small_net, (1,))
        with pytest.raises(ValueError):
            FixedDistributionSampler(small_net, (100, 0))
        with pytest.raises(ValueError):
            BernoulliSampler(small_net, 1.5)


# ---------------------------------------------------------------------------
# Exhaustive compilation
# ---------------------------------------------------------------------------


class TestExhaustiveCompilation:
    @pytest.mark.parametrize("n,k", [(6, 0), (6, 1), (6, 3), (6, 6), (3, 5)])
    def test_combination_index_array(self, n, k):
        combos = list(itertools.combinations(range(n), k))
        expected = np.array(combos, dtype=np.intp).reshape(len(combos), k)
        np.testing.assert_array_equal(combination_index_array(n, k), expected)

    def test_masks_from_flat_indices_round_trip(self, small_net):
        flat = np.array([[0, 8], [1, 13], [7, 9]])  # spans both layers
        batch = masks_from_flat_indices(small_net.layer_sizes, flat)
        for s, pair in enumerate(flat):
            for idx in pair:
                addr = small_net.address_of(int(idx))
                assert batch.zero_masks[addr.layer - 1][s, addr.index]
        assert batch.zero_masks[0].sum() + batch.zero_masks[1].sum() == flat.size

    def test_flat_indices_validation(self, small_net):
        with pytest.raises(ValueError, match="outside"):
            masks_from_flat_indices(small_net.layer_sizes, np.array([[99]]))
        with pytest.raises(ValueError, match="2-D"):
            masks_from_flat_indices(small_net.layer_sizes, np.array([1, 2]))

    def test_exhaustive_errors_guard_materialisation(self, injector, batch):
        from repro.faults.masks import exhaustive_crash_errors

        with pytest.raises(ValueError, match="configurations"):
            exhaustive_crash_errors(
                injector, batch, 7, max_configurations=100
            )

    def test_exhaustive_campaign_matches_object_path(self, injector, batch):
        new = exhaustive_crash_campaign(injector, batch, 2, chunk_size=16)
        old = run_campaign(
            injector,
            batch,
            exhaustive_crash_scenarios(injector.network, 2),
            keep_names=False,
        )
        np.testing.assert_allclose(new.errors, old.errors, rtol=1e-12)


# ---------------------------------------------------------------------------
# Campaign-level behaviour
# ---------------------------------------------------------------------------


class TestSampledCampaigns:
    def test_serial_matches_parallel(self, injector, batch):
        sampler = FixedDistributionSampler(injector.network, (2, 1))
        serial = sampled_campaign_errors(
            injector, batch, sampler, 120, seed=7, chunk_size=32
        )
        parallel = sampled_campaign_errors(
            injector, batch, sampler, 120, seed=7, chunk_size=32, n_workers=2
        )
        np.testing.assert_array_equal(serial, parallel)

    def test_chunk_size_does_not_change_draws(self, injector, batch):
        sampler = FixedDistributionSampler(injector.network, (2, 1))
        a = sampled_campaign_errors(injector, batch, sampler, 50, seed=3, chunk_size=8)
        b = sampled_campaign_errors(injector, batch, sampler, 50, seed=3, chunk_size=50)
        np.testing.assert_array_equal(a, b)

    def test_monte_carlo_routes_static_faults_to_masks(self, injector, batch):
        result = _monte_carlo_campaign(
            injector, batch, (2, 1), n_scenarios=30, seed=1, dtype="float32"
        )
        assert result.num_scenarios == 30
        assert result.scenario_names == []  # mask path carries no names

    def test_monte_carlo_stochastic_runs_on_mask_engine(self, injector, batch):
        """Stochastic fault models no longer fall back to the ~25x
        slower object path: they sample mask channels like everything
        else (and therefore carry no per-scenario names)."""
        result = _monte_carlo_campaign(
            injector, batch, (1, 0), n_scenarios=4, seed=1,
            fault=NoiseFault(sigma=0.05),
        )
        assert result.num_scenarios == 4
        assert result.scenario_names == []
        assert result.max_error > 0

    def test_stochastic_chunks_draw_independent_noise(self, injector, batch):
        """Regression: the seed-era scalar fallback used a fixed rng(0)
        per chunk, replaying identical noise in every chunk."""
        result = _monte_carlo_campaign(
            injector, batch, (1, 1), n_scenarios=8, seed=0, chunk_size=1,
            fault=NoiseFault(sigma=0.5),
        )
        assert np.unique(result.errors).size == result.errors.size

    def test_monte_carlo_synapse_distribution(self, injector, batch):
        from repro.faults.types import SynapseByzantineFault

        result = _monte_carlo_campaign(
            injector, batch, (2, 1, 1), n_scenarios=16, seed=3,
            fault=SynapseByzantineFault(),
        )
        assert result.num_scenarios == 16
        assert np.all(np.isfinite(result.errors))
        assert result.max_error > 0

    def test_sampler_network_mismatch_rejected(self, injector, batch):
        other = build_mlp(3, [4, 4], seed=9)
        sampler = FixedDistributionSampler(other, (1, 1))
        with pytest.raises(ValueError, match="layer sizes"):
            sampled_campaign_errors(injector, batch, sampler, 10)

    def test_engine_reuse_guard_compares_probes_in_float64(
        self, injector, batch
    ):
        """Regression: the probe-batch guard used to cast to the engine
        dtype first, so two distinct float64 batches colliding at
        float32 slipped past on a float32 engine."""
        engine = MaskCampaignEngine(injector, batch, dtype="float32")
        # One float64 ulp away: == batch at float32, != at float64.
        other = np.nextafter(batch, np.inf)
        assert np.array_equal(
            other.astype(np.float32), batch.astype(np.float32)
        )
        sampler = FixedDistributionSampler(injector.network, (1, 1))
        with pytest.raises(ValueError, match="different probe batch"):
            sampled_campaign_errors(
                injector, other, sampler, 8, seed=0, engine=engine
            )
        # The true probe batch still passes.
        errs = sampled_campaign_errors(
            injector, batch, sampler, 8, seed=0, engine=engine
        )
        assert errs.shape == (8,)


# ---------------------------------------------------------------------------
# Full fault-taxonomy coverage (stochastic + synapse channels)
# ---------------------------------------------------------------------------


class TestTaxonomyEquivalence:
    """Satellite: statistical-equivalence suite between the scalar
    injector and the new mask channels, for every fault kind."""

    from repro.faults.types import (  # noqa: PLC0415 - parametrization aid
        SignFlipFault,
        SynapseByzantineFault,
        SynapseCrashFault,
        SynapseNoiseFault,
    )

    def test_sign_flip_matches_scalar_exactly(self, small_net, injector,
                                              batch, rng):
        scenarios = [
            random_failure_scenario(
                small_net, (2, 1), fault=self.SignFlipFault(), rng=rng
            )
            for _ in range(20)
        ]
        compiled = injector.compile_batch(scenarios)
        engine = MaskCampaignEngine(injector, batch, chunk_size=7)
        np.testing.assert_allclose(
            engine.evaluate(compiled), scalar_errors(injector, batch, scenarios),
            rtol=1e-10,
        )

    @pytest.mark.parametrize(
        "fault",
        [SynapseCrashFault(), SynapseByzantineFault(),
         SynapseByzantineFault(offset=0.4, sign=-1)],
    )
    def test_deterministic_synapse_faults_match_scalar_exactly(
        self, small_net, injector, batch, rng, fault
    ):
        scenarios = [
            random_synapse_scenario(small_net, (2, 1, 1), fault=fault, rng=rng)
            for _ in range(16)
        ]
        compiled = injector.compile_batch(scenarios)
        engine = MaskCampaignEngine(injector, batch, chunk_size=5)
        scalar = scalar_errors(injector, batch, scenarios)
        np.testing.assert_allclose(engine.evaluate(compiled), scalar, rtol=1e-9)

    @staticmethod
    def _assert_statistically_equivalent(scalar, mask):
        from scipy import stats as sps

        ks = sps.ks_2samp(scalar, mask)
        assert ks.pvalue > 1e-3, (
            f"KS test rejects equivalence (p={ks.pvalue:.2e}): "
            f"scalar mean {scalar.mean():.4f} vs mask mean {mask.mean():.4f}"
        )
        spread = max(scalar.std(), 1e-6)
        assert abs(scalar.mean() - mask.mean()) < 0.25 * spread
        for q in (0.25, 0.5, 0.75):
            assert abs(
                np.quantile(scalar, q) - np.quantile(mask, q)
            ) < 0.35 * spread

    @pytest.mark.parametrize(
        "fault",
        [
            NoiseFault(sigma=0.3),
            IntermittentFault(p=0.4),
            IntermittentFault(p=0.6, fault=ByzantineFault(value=0.9)),
            IntermittentFault(p=0.5, fault=NoiseFault(sigma=0.4)),
        ],
    )
    def test_stochastic_neuron_faults_match_scalar_statistically(
        self, small_net, injector, batch, rng, fault
    ):
        S = 400
        scenarios = [
            random_failure_scenario(small_net, (2, 1), fault=fault, rng=rng)
            for _ in range(S)
        ]
        compiled = injector.compile_batch(scenarios)
        assert compiled.is_stochastic
        engine = MaskCampaignEngine(injector, batch)
        scalar = scalar_errors(injector, batch, scenarios, seed=11)
        mask = engine.evaluate(compiled, rng=np.random.default_rng(12))
        self._assert_statistically_equivalent(scalar, mask)

    def test_synapse_noise_matches_scalar_statistically(
        self, small_net, injector, batch, rng
    ):
        S = 400
        scenarios = [
            random_synapse_scenario(
                small_net, (3, 2, 1), fault=self.SynapseNoiseFault(sigma=0.4),
                rng=rng,
            )
            for _ in range(S)
        ]
        compiled = injector.compile_batch(scenarios)
        assert compiled.is_stochastic
        engine = MaskCampaignEngine(injector, batch)
        scalar = scalar_errors(injector, batch, scenarios, seed=21)
        mask = engine.evaluate(compiled, rng=np.random.default_rng(22))
        self._assert_statistically_equivalent(scalar, mask)

    def test_stochastic_sampler_matches_scalar_statistically(
        self, small_net, injector, batch
    ):
        """Sampler-native stochastic campaigns (no scenario objects at
        all) draw from the same per-layer distribution as the scalar
        twin."""
        fault = NoiseFault(sigma=0.25)
        sampler = FixedDistributionSampler(small_net, (2, 1), fault=fault)
        mask = sampled_campaign_errors(
            injector, batch, sampler, 400, seed=5
        )
        rng = np.random.default_rng(6)
        scenarios = [
            random_failure_scenario(small_net, (2, 1), fault=fault, rng=rng)
            for _ in range(400)
        ]
        scalar = scalar_errors(injector, batch, scenarios, seed=7)
        self._assert_statistically_equivalent(scalar, mask)

    def test_intermittent_crash_emits_exact_zero_on_hit(self, small_net, batch):
        """Scalar-path bugfix: an intermittent *crash* is a crash where
        it hits (exactly 0 — Definition 2), not a Byzantine value whose
        deviation is clipped to the capacity."""
        from repro.faults.injector import apply_neuron_fault
        from repro.faults.types import IntermittentFault

        nominal = np.full(2000, 5.0)
        out = apply_neuron_fault(
            IntermittentFault(p=0.5), nominal, capacity=0.5,
            rng=np.random.default_rng(0),
        )
        hit = out != 5.0
        assert 0.4 < hit.mean() < 0.6
        np.testing.assert_array_equal(out[hit], 0.0)  # not 4.5

    def test_stochastic_serial_matches_parallel(self, injector, batch):
        sampler = FixedDistributionSampler(
            injector.network, (2, 1), fault=NoiseFault(sigma=0.3)
        )
        serial = sampled_campaign_errors(
            injector, batch, sampler, 96, seed=7, chunk_size=32
        )
        parallel = sampled_campaign_errors(
            injector, batch, sampler, 96, seed=7, chunk_size=32, n_workers=2
        )
        np.testing.assert_array_equal(serial, parallel)

    def test_synapse_sampler_serial_matches_parallel(self, injector, batch):
        from repro.faults.types import SynapseNoiseFault

        sampler = SynapseBernoulliSampler(
            injector.network, 0.05, fault=SynapseNoiseFault(sigma=0.2)
        )
        serial = sampled_campaign_errors(
            injector, batch, sampler, 96, seed=9, chunk_size=32
        )
        parallel = sampled_campaign_errors(
            injector, batch, sampler, 96, seed=9, chunk_size=32, n_workers=2
        )
        np.testing.assert_array_equal(serial, parallel)

    def test_stochastic_campaign_reproducible_by_seed(self, injector, batch):
        sampler = BernoulliSampler(
            injector.network, 0.2, fault=NoiseFault(sigma=0.3)
        )
        a = sampled_campaign_errors(injector, batch, sampler, 64, seed=3)
        b = sampled_campaign_errors(injector, batch, sampler, 64, seed=3)
        c = sampled_campaign_errors(injector, batch, sampler, 64, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unseeded_stochastic_evaluation_warns_once(
        self, injector, batch, rng, monkeypatch
    ):
        import repro.faults.types as types_mod
        from repro.faults.types import UnseededFaultWarning

        monkeypatch.setattr(types_mod, "_unseeded_warned", False)
        sampler = FixedDistributionSampler(
            injector.network, (1, 0), fault=NoiseFault(sigma=0.2)
        )
        compiled = sampler.sample(4, rng)
        engine = MaskCampaignEngine(injector, batch)
        with pytest.warns(UnseededFaultWarning):
            engine.evaluate(compiled)


class TestSynapseSamplers:
    def test_fixed_counts_exact(self, small_net, rng):
        sampler = FixedSynapseDistributionSampler(small_net, (3, 2, 1))
        batch = sampler.sample(50, rng)
        stages = batch.synapse_stages
        assert [np.bincount(st.add_s, minlength=50).tolist()
                for st in stages] == [[3] * 50, [2] * 50, [1] * 50]

    def test_counts_validated_against_physical_synapses(self, small_net):
        with pytest.raises(ValueError, match="synapse counts"):
            FixedSynapseDistributionSampler(small_net, (10_000, 0, 0))
        with pytest.raises(ValueError, match="L\\+1"):
            FixedSynapseDistributionSampler(small_net, (1, 1))

    def test_bernoulli_rates(self, small_net, rng):
        sampler = SynapseBernoulliSampler(small_net, 0.3)
        batch = sampler.sample(2000, rng)
        for st, n_phys in zip(
            batch.synapse_stages, sampler.stage_synapse_counts
        ):
            rate = st.add_s.size / (2000 * n_phys)
            assert abs(rate - 0.3) < 0.03

    def test_rejects_neuron_faults(self, small_net):
        with pytest.raises(ValueError, match="weight-level"):
            SynapseBernoulliSampler(small_net, 0.1, fault=CrashFault())

    def test_network_identity_checked_beyond_layer_sizes(
        self, small_net, injector, batch
    ):
        """Regression: two networks with identical layer sizes can
        differ in input_dim — the sampler's COO synapse tables would
        then scatter into the wrong (or non-existent) weights."""
        other = build_mlp(5, list(small_net.layer_sizes), seed=4)
        assert other.layer_sizes == small_net.layer_sizes
        sampler = SynapseBernoulliSampler(other, 0.1)
        with pytest.raises(ValueError, match="input_dim"):
            sampled_campaign_errors(injector, batch, sampler, 8)
        # Mixed samplers delegate the check to their components.
        mixed = MixedFaultSampler([sampler])
        with pytest.raises(ValueError, match="input_dim"):
            sampled_campaign_errors(injector, batch, mixed, 8)


class TestMixedFaultSampler:
    def test_union_of_components(self, small_net, rng):
        from repro.faults.types import SynapseNoiseFault

        mixed = MixedFaultSampler(
            [
                FixedDistributionSampler(small_net, (2, 0)),
                FixedDistributionSampler(
                    small_net, (0, 1), fault=ByzantineFault(value=0.8)
                ),
                SynapseBernoulliSampler(
                    small_net, 0.1, fault=SynapseNoiseFault(sigma=0.1)
                ),
            ]
        )
        batch = mixed.sample(40, rng)
        np.testing.assert_array_equal(batch.zero_masks[0].sum(axis=1), 2)
        np.testing.assert_array_equal(batch.set_masks[1].sum(axis=1), 1)
        assert batch.has_synapse_faults and batch.is_stochastic

    def test_later_component_wins_on_collisions(self, small_net, rng):
        """Both components fail the whole first layer: every cell
        collides, and the later (Byzantine) component must own them —
        the FailureScenario.merged_with semantics."""
        width = small_net.layer_sizes[0]
        mixed = MixedFaultSampler(
            [
                FixedDistributionSampler(small_net, (width, 0)),
                FixedDistributionSampler(
                    small_net, (width, 0), fault=StuckAtFault(0.7)
                ),
            ]
        )
        batch = mixed.sample(5, rng)
        assert not batch.zero_masks[0].any()
        assert batch.set_masks[0].all()

    def test_mixed_campaign_evaluates(self, injector, batch, rng):
        mixed = MixedFaultSampler(
            [
                FixedDistributionSampler(injector.network, (1, 1)),
                SynapseBernoulliSampler(injector.network, 0.05),
            ]
        )
        errs = sampled_campaign_errors(injector, batch, mixed, 64, seed=2)
        assert errs.shape == (64,) and np.all(np.isfinite(errs))

    def test_rejects_mismatched_components(self, small_net):
        other = build_mlp(3, [4, 4], seed=9)
        with pytest.raises(ValueError, match="layer sizes"):
            MixedFaultSampler(
                [
                    FixedDistributionSampler(small_net, (1, 0)),
                    FixedDistributionSampler(other, (1, 0)),
                ]
            )
        with pytest.raises(ValueError, match="at least one"):
            MixedFaultSampler([])

    def test_merge_empty_list(self, small_net):
        merged = merge_mask_batches(small_net.layer_sizes, [])
        assert merged.num_scenarios == 0
