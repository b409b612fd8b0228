"""Unit tests for the mask-native campaign engine.

Covers the DESIGN.md equivalence contract: the mask engine, the one
evaluator, must agree with its two test oracles on identical scenarios
— the scalar reference loop (``oracles.run_reference``, fed by the
object-path ``compile_batch`` lowering) and the process-grained
simulator (``message_passing``) — plus the statistical contract of the
samplers and the float32 fast path's tolerance.
"""

import itertools

import numpy as np
import pytest

from repro.core.fep import network_fep
from repro.faults import masks as masks_mod
from repro.faults.campaign import (
    _monte_carlo_campaign,
    exhaustive_crash_campaign,
    run_campaign,
)
from repro.faults.injector import NEURON_CHANNELS, FaultInjector
from repro.faults.masks import (
    BernoulliSampler,
    FixedDistributionSampler,
    FixedSynapseDistributionSampler,
    MaskCampaignEngine,
    MixedFaultSampler,
    SynapseBernoulliSampler,
    combination_index_array,
    empty_mask_batch,
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
    SignFlipFault,
    StuckAtFault,
    SynapseByzantineFault,
    SynapseCrashFault,
)
from repro.network import build_mlp
from repro.network.model import NeuronAddress

from message_passing import DistributedNetwork
from oracles import apply_neuron_fault, reference_error, scalar_errors


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
        scalar = scalar_errors(injector, batch, scenarios)
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

    @pytest.mark.parametrize(
        "n_in, hidden, scale, out_scale, seed, n_probes, chunks",
        [
            # The generated-input chunk-invariance example: one 2-row
            # GEMM rounds differently from two 1-row GEMMs.
            (2, [2], 0.75, 0.75, 1, 1, (1, 2)),
            # The 4-[16,12]-1 bench net at its default chunk.
            (4, [16, 12], 0.4, 0.3, 21, 16, (1, 1024)),
        ],
        ids=["2-[2]-1", "4-[16,12]-1"],
    )
    def test_fault_free_scenarios_read_zero_at_every_chunk(
        self, n_in, hidden, scale, out_scale, seed, n_probes, chunks
    ):
        """A flat ``(S*B, N)`` GEMM lets BLAS pick its kernel by the row
        count, so a fault-free scenario's sums drift from the ``(B, N)``
        nominal pass by an ulp at some slice sizes (errors of 2.8e-17
        and 5.6e-17 here with a flat GEMM); the per-scenario stacked
        GEMMs keep them exact."""
        net = build_mlp(
            n_in, hidden, activation={"name": "sigmoid", "k": 1.0},
            init={"name": "uniform", "scale": scale},
            output_scale=out_scale, seed=seed,
        )
        injector = FaultInjector(net, capacity=1.0)
        x = np.random.default_rng(0).random((n_probes, n_in))
        compiled = BernoulliSampler(net, 0.0).sample(
            max(chunks), np.random.default_rng(0)
        )
        for chunk in chunks:
            errors = MaskCampaignEngine(
                injector, x, chunk_size=chunk
            ).evaluate(compiled)
            np.testing.assert_array_equal(errors, 0.0)

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
            reference_error(injector, batch, sc, reduction="mean")
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

    def test_empty_probe_batch(self, injector, rng):
        """No inputs: no output rows, and no output error to report."""
        compiled = injector.compile_batch([
            random_failure_scenario(injector.network, (2, 1), rng=rng)
            for _ in range(3)
        ])
        engine = MaskCampaignEngine(
            injector, np.empty((0, injector.network.input_dim))
        )
        n_out = injector.network.n_outputs
        assert engine.nominal.shape == (0, n_out)
        assert engine.outputs(compiled).shape == (3, 0, n_out)
        with pytest.raises(ValueError, match="empty probe batch"):
            engine.evaluate(compiled)


class TestWideNetRankK:
    """Engine equivalence on a net wide enough for the rank-k route.

    The route changes the float summation order of the second layer's
    received sums, so it meets the oracle (and the dense route) within
    the unchanged ``rtol=1e-12``, while chunking stays bitwise.
    """

    #: First-layer fault counts cycled over the scenarios: 0-2 take the
    #: rank-k route on the 48-wide first layer, 3+ the dense GEMM.
    FIRST_LAYER_COUNTS = (0, 1, 2, 3, 5, 1, 2)

    @pytest.fixture
    def wide_injector(self, wide_net):
        return FaultInjector(wide_net, capacity=1.0)

    @pytest.fixture
    def probes(self, rng, wide_net):
        return rng.random((16, wide_net.input_dim))

    def _neuron_scenarios(self, net, fault, rng, n=28):
        return [
            random_failure_scenario(
                net,
                (self.FIRST_LAYER_COUNTS[s % len(self.FIRST_LAYER_COUNTS)], 1, 1),
                fault=fault,
                rng=rng,
            )
            for s in range(n)
        ]

    @staticmethod
    def _routes(engine, compiled):
        """``(sparse, dense)`` scenario counts of one full-batch slice."""
        st0 = (
            compiled.synapse_stages[0]
            if compiled.has_synapse_faults else None
        )
        route = engine._rank_k_route(
            compiled, 0, compiled.num_scenarios, st0
        )
        assert route is not None
        sparse = int(np.sum(route[1] * masks_mod.RANK_K_RATIO < 48))
        return sparse, compiled.num_scenarios - sparse

    def test_route_needs_a_wide_first_layer(self, small_net, wide_net, rng):
        for net, expect in ((small_net, False), (wide_net, True)):
            inj = FaultInjector(net, capacity=1.0)
            compiled = inj.compile_batch(
                [random_failure_scenario(net, (1,) + (0,) * (net.depth - 1),
                                         rng=rng)]
            )
            engine = MaskCampaignEngine(inj, rng.random((4, net.input_dim)))
            route = engine._rank_k_route(compiled, 0, 1, None)
            assert (route is not None) is expect

    @pytest.mark.parametrize(
        "fault",
        [
            CrashFault(),
            ByzantineFault(),
            ByzantineFault(value=0.7),
            StuckAtFault(value=0.9),
            OffsetFault(offset=0.3),
            SignFlipFault(),
        ],
        ids=lambda f: repr(f),
    )
    def test_neuron_faults_match_scalar(
        self, wide_net, wide_injector, probes, rng, fault
    ):
        scenarios = self._neuron_scenarios(wide_net, fault, rng)
        compiled = wide_injector.compile_batch(scenarios)
        engine = MaskCampaignEngine(wide_injector, probes, chunk_size=9)
        sparse, dense = self._routes(engine, compiled)
        assert sparse and dense
        np.testing.assert_allclose(
            engine.evaluate(compiled),
            scalar_errors(wide_injector, probes, scenarios),
            rtol=1e-12,
            atol=1e-14,
        )

    @pytest.mark.parametrize(
        "dist",
        [(2, 0, 0, 0), (2, 2, 1, 1), (0, 3, 1, 1), (6, 0, 0, 0)],
        ids=["stage1", "stage1+2", "stage2-only", "stage1-dense"],
    )
    @pytest.mark.parametrize(
        "fault",
        [
            SynapseCrashFault(),
            SynapseByzantineFault(),
            SynapseByzantineFault(offset=0.4, sign=-1),
        ],
        ids=lambda f: repr(f),
    )
    def test_synapse_faults_match_scalar(
        self, wide_net, wide_injector, probes, rng, fault, dist
    ):
        scenarios = [
            random_synapse_scenario(wide_net, dist, fault=fault, rng=rng)
            for _ in range(20)
        ]
        compiled = wide_injector.compile_batch(scenarios)
        engine = MaskCampaignEngine(wide_injector, probes, chunk_size=6)
        np.testing.assert_allclose(
            engine.evaluate(compiled),
            scalar_errors(wide_injector, probes, scenarios),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_mixed_batches_match_scalar(
        self, wide_net, wide_injector, probes, rng
    ):
        neuron = self._neuron_scenarios(wide_net, ByzantineFault(value=0.2), rng)
        scenarios = [
            sc.merged_with(
                random_synapse_scenario(
                    wide_net, (1, 1, 0, 1),
                    fault=SynapseCrashFault(), rng=rng,
                )
            )
            for sc in neuron
        ]
        compiled = wide_injector.compile_batch(scenarios)
        engine = MaskCampaignEngine(wide_injector, probes, chunk_size=8)
        sparse, dense = self._routes(engine, compiled)
        assert sparse and dense
        np.testing.assert_allclose(
            engine.evaluate(compiled),
            scalar_errors(wide_injector, probes, scenarios),
            rtol=1e-12,
            atol=1e-14,
        )

    @pytest.mark.parametrize(
        "n_scenarios, chunks",
        [
            (300, (1, 7, 64, 300)),
            # A campaign-sized batch: 128-row slices with a 60-row tail
            # against the default chunk's single 700-row slice.
            (700, (128, 1024)),
        ],
        ids=["small-chunks", "default-chunk"],
    )
    def test_bernoulli_chunk_invariance_is_bitwise(
        self, wide_net, wide_injector, probes, n_scenarios, chunks
    ):
        """Rank-k and dense rows share slices, at every chunk size."""
        compiled = BernoulliSampler(wide_net, 0.05).sample(
            n_scenarios, np.random.default_rng(4)
        )
        k = compiled.zero_masks[0].sum(axis=1)
        assert np.any(k * masks_mod.RANK_K_RATIO < 48)
        assert np.any(k * masks_mod.RANK_K_RATIO >= 48)
        runs = [
            MaskCampaignEngine(
                wide_injector, probes, chunk_size=chunk
            ).evaluate(compiled)
            for chunk in chunks
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0], other)

    @pytest.mark.parametrize(
        "fault",
        [
            CrashFault(),
            NoiseFault(sigma=0.3),
            IntermittentFault(p=0.5, fault=ByzantineFault(value=0.9)),
        ],
        ids=lambda f: repr(f),
    )
    def test_rank_k_route_matches_dense_route(
        self, wide_net, wide_injector, probes, monkeypatch, fault
    ):
        """The compact first-layer pass visits the faulty cells in the
        dense pass's order, so even stochastic faults realise the same
        draws: the two routes differ only in summation order."""
        sampler = BernoulliSampler(wide_net, 0.05, fault=fault)
        rank_k = sampled_campaign_errors(
            wide_injector, probes, sampler, 700, seed=8, chunk_size=128
        )
        monkeypatch.setattr(masks_mod, "RANK_K_RATIO", 10**9)
        dense = sampled_campaign_errors(
            wide_injector, probes, sampler, 700, seed=8, chunk_size=128
        )
        np.testing.assert_allclose(rank_k, dense, rtol=1e-12, atol=1e-14)

    def test_zero_fault_scenarios_report_exactly_zero(
        self, wide_net, wide_injector, probes
    ):
        compiled = BernoulliSampler(wide_net, 0.0).sample(
            10, np.random.default_rng(0)
        )
        errors = MaskCampaignEngine(wide_injector, probes).evaluate(compiled)
        np.testing.assert_array_equal(errors, 0.0)

    def test_crash_errors_within_fep(self, wide_net, probes):
        dist = (2, 2, 1)
        injector = FaultInjector(wide_net, capacity=wide_net.output_bound)
        errors = sampled_campaign_errors(
            injector, probes, FixedDistributionSampler(wide_net, dist),
            3000, seed=2,
        )
        assert errors.max() > 0
        assert errors.max() <= network_fep(wide_net, dist, mode="crash")


class TestDeterministicTiles:
    """A deterministic batch is evaluated in tiles of at most
    ``TILE_BYTES`` per layer buffer; a stochastic one keeps
    ``chunk_size`` slices.  On 4-[64,64]-1 at ``B = 16`` a tile is
    256 rows."""

    TILE = 256

    @pytest.fixture
    def net(self):
        return build_mlp(
            4, [64, 64], activation={"name": "sigmoid", "k": 1.0},
            init={"name": "uniform", "scale": 0.4}, output_scale=0.3,
            seed=21,
        )

    @pytest.fixture
    def inj(self, net):
        return FaultInjector(net, capacity=net.output_bound)

    @pytest.fixture
    def probes(self, net):
        return np.random.default_rng(3).random((16, net.input_dim))

    @staticmethod
    def _slices(monkeypatch):
        """The ``(lo, hi)`` of every engine slice from now on."""
        seen = []
        inner = MaskCampaignEngine._evaluate_slice

        def spy(self, batch, lo, hi, *args):
            seen.append((lo, hi))
            return inner(self, batch, lo, hi, *args)

        monkeypatch.setattr(MaskCampaignEngine, "_evaluate_slice", spy)
        return seen

    @pytest.mark.parametrize(
        "make",
        [
            lambda net: FixedDistributionSampler(net, (3, 2)),
            lambda net: BernoulliSampler(
                net, 0.05, fault=ByzantineFault(value=0.9)
            ),
        ],
        ids=["fixed-crash", "bernoulli-byzantine"],
    )
    def test_wide_deterministic_batch_is_tiled_and_bitwise(
        self, net, inj, probes, monkeypatch, make
    ):
        batch = make(net).sample(600, np.random.default_rng(5))
        assert not batch.is_stochastic
        engine = MaskCampaignEngine(inj, probes)
        assert engine._step(batch) == self.TILE
        seen = self._slices(monkeypatch)
        errors, outputs = engine.evaluate(batch), engine.outputs(batch)
        assert seen == 2 * [(0, 256), (256, 512), (512, 600)]
        single = MaskCampaignEngine(inj, probes, chunk_size=1)
        np.testing.assert_array_equal(errors, single.evaluate(batch))
        np.testing.assert_array_equal(outputs, single.outputs(batch))

    def test_stochastic_batch_keeps_chunk_slices(
        self, net, inj, probes, monkeypatch
    ):
        batch = FixedDistributionSampler(
            net, (3, 2), fault=IntermittentFault(p=0.5, fault=CrashFault())
        ).sample(600, np.random.default_rng(5))
        assert batch.is_stochastic
        engine = MaskCampaignEngine(inj, probes, chunk_size=512)
        seen = self._slices(monkeypatch)
        engine.evaluate(batch, rng=np.random.default_rng(0))
        assert seen == [(0, 512), (512, 600)]

    def test_buffers_hold_one_step_and_only_grow(self, net, inj, probes):
        # Mixed first-layer counts: rank-k rows and dense rows share
        # slices, so the rank-k route takes its scratch buffer.
        sampler = BernoulliSampler(net, 0.05)
        gated = BernoulliSampler(
            net, 0.05, fault=IntermittentFault(p=0.5, fault=CrashFault())
        )
        engine = MaskCampaignEngine(inj, probes, chunk_size=512)

        def rows():
            bufs = engine._buffers + [engine._out_buffer]
            assert len({len(b) for b in bufs}) == 1
            return len(bufs[0])

        engine.evaluate(sampler.sample(40, np.random.default_rng(1)))
        assert rows() == 40  # the batch, not the 256-row step
        assert len(engine._rank_k_buffer) == 40
        engine.evaluate(
            gated.sample(600, np.random.default_rng(1)),
            rng=np.random.default_rng(2),
        )
        assert rows() == 512
        assert len(engine._rank_k_buffer) == 512  # re-derived on growth
        engine.evaluate(sampler.sample(600, np.random.default_rng(1)))
        assert rows() == 512

    def test_one_scenario_call_allocates_one_row(self, net, inj, probes):
        scenario = FailureScenario(
            neuron_faults={NeuronAddress(1, 0): CrashFault()}
        )
        engine = MaskCampaignEngine(inj, probes)
        engine.outputs(inj.compile_batch([scenario]))
        assert engine._buffers[0].shape[0] == 1
        assert engine._out_buffer.shape[0] == 1

    def test_quantized_deterministic_batch_is_tile_invariant(
        self, net, inj, probes
    ):
        from repro.backends.quantized import (
            QuantizedMaskEngine,
            tier_quantizers,
        )

        batch = FixedDistributionSampler(net, (3, 2)).sample(
            600, np.random.default_rng(5)
        )
        runs = [
            QuantizedMaskEngine(
                inj, probes, chunk_size=chunk,
                quantizers=tier_quantizers("quantized-int8", net.depth),
            )
            for chunk in (masks_mod.DEFAULT_CHUNK, 100, 1)
        ]
        assert [e._step(batch) for e in runs] == [self.TILE, 100, 1]
        errors = [e.evaluate(batch) for e in runs]
        for other in errors[1:]:
            np.testing.assert_array_equal(errors[0], other)


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

    @staticmethod
    def _second_min_by_copy(keys):
        """The count-2 threshold on a copy of the key block."""
        scratch = keys.copy()
        scratch[np.arange(len(keys)), scratch.argmin(axis=1)] = np.inf
        return scratch.min(axis=1)

    def test_two_of_a_row_bitwise_with_tied_keys(self):
        """The in-place second minimum picks what a masked copy picks,
        tied keys (and the argpartition fallback) included, and leaves
        the key block as it was."""
        keys = np.random.default_rng(4).random((64, 192))
        keys[0, [3, 7]] = keys[0].min() / 2  # a tied minimum
        keys[1, [5, 9, 11]] = keys[1].min() / 2  # ties past the threshold
        keys[2, 4] = keys[2, 8] = np.partition(keys[2], 1)[1]
        before = keys.copy()
        got = masks_mod._sample_fixed_count_masks(
            None, len(keys), keys.shape[1], 2, keys=keys
        )
        np.testing.assert_array_equal(keys, before)
        kth = self._second_min_by_copy(before)
        want = before <= kth[:, None]
        bad = want.sum(axis=1) != 2
        assert bad[1] and bad[2] and not bad[0]
        rows = np.nonzero(bad)[0]
        want[rows] = False
        picks = np.argpartition(before[rows], 1, axis=1)[:, :2]
        want[rows[:, None], picks] = True
        np.testing.assert_array_equal(got, want)
        assert (got.sum(axis=1) == 2).all()

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

    @pytest.mark.parametrize("n_workers", [0, 2])
    @pytest.mark.parametrize("chunk_size", [0, -4])
    def test_exhaustive_errors_reject_bad_chunk_size(
        self, injector, batch, chunk_size, n_workers
    ):
        from repro.faults.masks import exhaustive_crash_errors

        with pytest.raises(
            ValueError, match=f"chunk_size must be positive, got {chunk_size}"
        ):
            exhaustive_crash_errors(
                injector, batch, 2, chunk_size=chunk_size, n_workers=n_workers
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
    """Equivalence between the scalar reference loop and the mask
    channels for every fault kind: exact for the deterministic ones,
    statistical for the stochastic ones."""

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
        """An intermittent *crash* is a crash where it hits (exactly 0
        — Definition 2), not a Byzantine value whose deviation is
        clipped to the capacity."""
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


#: The neuron faults, one per lowering the channels can carry.
NEURON_FAULTS = {
    "crash": CrashFault(),
    "byzantine+": ByzantineFault(sign=1),
    "byzantine-": ByzantineFault(sign=-1),
    "byzantine-value": ByzantineFault(value=0.8),
    "stuck-at": StuckAtFault(0.3),
    "offset": OffsetFault(offset=-0.2),
    "sign-flip": SignFlipFault(),
    "noise": NoiseFault(sigma=0.3),
    "intermittent-crash": IntermittentFault(p=0.4),
    "intermittent-byzantine": IntermittentFault(
        p=0.6, fault=ByzantineFault(value=0.9)
    ),
    "intermittent-noise": IntermittentFault(
        p=0.5, fault=NoiseFault(sigma=0.4)
    ),
}


def _channel_arrays(batch):
    """Every neuron channel's per-layer arrays (``None`` when absent),
    keyed by attribute, plus ``gate_p``."""
    attrs = [a for pair in NEURON_CHANNELS.values() for a in pair if a]
    return {a: getattr(batch, a) for a in attrs + ["gate_p"]}


def _assert_same_channels(got, want):
    got, want = _channel_arrays(got), _channel_arrays(want)
    for attr in want:
        assert (got[attr] is None) == (want[attr] is None), attr
        if want[attr] is not None:
            for g, w in zip(got[attr], want[attr], strict=True):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), attr


class TestChannelWriter:
    """``CompiledScenarioBatch.mark`` is the one writer of the neuron
    channels: the samplers, ``compile_batch`` and the merge go through
    it, so they lay out the same cells identically."""

    C = 0.5

    @pytest.mark.parametrize(
        "fault", NEURON_FAULTS.values(), ids=NEURON_FAULTS.keys()
    )
    def test_sampler_and_compile_batch_write_the_same_channels(
        self, small_net, rng, fault
    ):
        sampled = FixedDistributionSampler(
            small_net, (3, 2), fault=fault
        ).sample(24, rng)
        scenarios = [
            FailureScenario(
                {
                    NeuronAddress(l0 + 1, int(i)): fault
                    for l0 in range(small_net.depth)
                    for i in np.flatnonzero(sampled.touched(l0)[s])
                }
            )
            for s in range(24)
        ]
        compiled = FaultInjector(
            small_net, capacity=self.C
        ).compile_batch(scenarios)
        # compile_batch resolves the capacity sentinels eagerly; a
        # batch with no additive fault has no add values to resolve.
        if sampled.add_values is not None:
            sampled.add_values = [
                np.clip(v, -self.C, self.C) for v in sampled.add_values
            ]
        _assert_same_channels(sampled, compiled)

    def test_first_use_allocates_the_channel_for_every_layer(
        self, small_net
    ):
        sizes = small_net.layer_sizes
        batch = empty_mask_batch(sizes, 4)
        assert batch.scale_masks is batch.noise_masks is batch.gate_p is None
        batch.mark("scale", 1, (2, 3), -1.0)
        assert [m.shape for m in batch.scale_masks] == [(4, n) for n in sizes]
        assert [v.shape for v in batch.scale_values] == [(4, n) for n in sizes]
        assert batch.noise_masks is None and batch.gate_p is None
        batch.mark("noise", 0, (1, 0), 0.3, gate=0.5)
        assert [m.shape for m in batch.noise_masks] == [(4, n) for n in sizes]
        assert [g.shape for g in batch.gate_p] == [(4, n) for n in sizes]
        assert batch.gate_p[0][1, 0] == 0.5
        assert np.count_nonzero(np.concatenate(batch.gate_p, axis=1) < 1) == 1
        assert batch.scale_masks[1][2, 3] and batch.scale_values[1][2, 3] == -1
        assert batch.noise_masks[0][1, 0] and batch.noise_sigma[0][1, 0] == 0.3

    @pytest.mark.parametrize("kind", NEURON_CHANNELS)
    def test_mask_and_index_write_the_same_arrays(self, small_net, kind):
        rng = np.random.default_rng(4)
        by_mask = empty_mask_batch(small_net.layer_sizes, 6)
        by_index = empty_mask_batch(small_net.layer_sizes, 6)
        for l0, n in enumerate(small_net.layer_sizes):
            where = rng.random((6, n)) < 0.4
            by_mask.mark(kind, l0, where, 0.7, gate=0.25)
            by_index.mark(kind, l0, np.nonzero(where), 0.7, gate=0.25)
        _assert_same_channels(by_mask, by_index)

    def test_touched_is_a_fresh_union(self, small_net):
        batch = empty_mask_batch(small_net.layer_sizes, 3)
        assert batch.neuron_channels_clear
        batch.mark("zero", 0, (0, 1))
        batch.mark("noise", 0, (2, 4), 0.1)
        assert not batch.neuron_channels_clear  # marking drops the cache
        touched = batch.touched(0)
        assert np.flatnonzero(touched).tolist() == [1, 2 * 8 + 4]
        np.testing.assert_array_equal(batch.touched(0, 1, 3), touched[1:3])
        touched[:] = True
        assert batch.zero_masks[0].sum() == 1
