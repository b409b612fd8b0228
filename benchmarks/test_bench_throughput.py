"""Performance ablations — the engineering claims behind the harness.

1. *Analytic bound vs exhaustive experiment* — the paper's motivation:
   computing Fep "only requires looking at the topology", while the
   empirical check faces a combinatorial explosion.  We time both on
   the same question and assert the gap is orders of magnitude.
2. *Mask engine vs scalar injection* — the batched masked-GEMM path
   (``test_bench_mask_engine_eval_only``, 256 scenarios) against the
   per-scenario scalar oracle (``test_bench_injector_scalar_loop``, 16
   scenarios); compare per-scenario cost (the hot-path design of
   DESIGN.md).
3. *Simulator vs injector* — the process-grained semantic reference is
   expected to be slow; its cost is recorded to justify keeping it as
   a reference next to the mask engine rather than on the hot path.
4. *Mask-native pipeline* — sampling, evaluation and the object-scenario
   ("seed") pipeline at S=1k and S=100k.
"""

import numpy as np
import pytest

from repro.core.fep import network_fep
from repro.faults.campaign import exhaustive_crash_campaign, run_campaign
from repro.faults.injector import FaultInjector
from repro.faults.masks import (
    FixedDistributionSampler,
    MaskCampaignEngine,
    sampled_campaign_errors,
)
from repro.faults.scenarios import random_failure_scenario
from repro.distributed.simulator import DistributedNetwork
from repro.network import build_mlp


@pytest.fixture(scope="module")
def setup():
    net = build_mlp(
        4, [16, 12],
        activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.4},
        output_scale=0.3,
        seed=21,
    )
    rng = np.random.default_rng(21)
    x = rng.random((64, 4))
    scenarios = [
        random_failure_scenario(net, (3, 2), rng=rng, name=f"s{i}")
        for i in range(256)
    ]
    return net, x, scenarios


def test_bench_fep_analytic(benchmark, setup):
    """The bound costs microseconds — 'only looking at the topology'."""
    net, _, _ = setup
    value = benchmark(network_fep, net, (3, 2), mode="crash")
    assert value > 0


def test_bench_exhaustive_experiment(benchmark, setup):
    """The empirical alternative for just n_fail=2 over a small grid."""
    net, x, _ = setup
    injector = FaultInjector(net, capacity=1.0)

    result = benchmark.pedantic(
        exhaustive_crash_campaign,
        args=(injector, x[:16], 2),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    # C(28, 2) = 378 configurations for ONE failure count on ONE grid;
    # the analytic bound answered the general question instantly.
    assert result.num_scenarios == 378


def test_bench_injector_scalar_loop(benchmark, setup):
    net, x, scenarios = setup
    injector = FaultInjector(net, capacity=1.0)
    subset = scenarios[:16]  # scalar path; keep the round affordable

    def scalar_loop():
        return [injector.run(x, sc) for sc in subset]

    outs = benchmark(scalar_loop)
    assert len(outs) == 16


def test_bench_simulator_reference(benchmark, setup):
    net, x, scenarios = setup
    sim = DistributedNetwork(net, capacity=1.0)
    sim.apply_scenario(scenarios[0])
    out = benchmark.pedantic(
        sim.run_batch, args=(x[:8],), rounds=3, iterations=1, warmup_rounds=0
    )
    assert out.shape == (8, 1)


def test_bench_compile_scenarios(benchmark, setup):
    net, _, scenarios = setup
    injector = FaultInjector(net, capacity=1.0)
    compiled = benchmark(injector.compile_batch, scenarios)
    assert compiled.num_scenarios == 256


# ---------------------------------------------------------------------------
# Mask-native engine (DESIGN.md throughput path)
# ---------------------------------------------------------------------------


def test_bench_mask_sampler_100k(benchmark, setup):
    """Array-level scenario sampling: 100k scenarios, no Python objects."""
    net, _, _ = setup
    sampler = FixedDistributionSampler(net, (3, 2))
    rng = np.random.default_rng(0)
    batch = benchmark(sampler.sample, 100_000, rng)
    assert batch.num_scenarios == 100_000


def test_bench_mask_campaign_1k(benchmark, setup):
    """Full pipeline (sample -> evaluate -> reduce) at S=1k."""
    net, x, _ = setup
    injector = FaultInjector(net, capacity=1.0)
    sampler = FixedDistributionSampler(net, (3, 2))
    errors = benchmark(
        sampled_campaign_errors, injector, x[:16], sampler, 1_000, seed=0
    )
    assert errors.shape == (1_000,)


def test_bench_seed_pipeline_1k(benchmark, setup):
    """The seed path at S=1k: object sampling + compile_batch lowering.

    The ratio against ``test_bench_mask_campaign_1k`` is the speedup
    of the mask-native engine over the object-scenario pipeline.
    """
    net, x, _ = setup
    injector = FaultInjector(net, capacity=1.0)

    def seed_pipeline():
        rng = np.random.default_rng(0)
        stream = (
            random_failure_scenario(net, (3, 2), rng=rng, name=f"mc{i}")
            for i in range(1_000)
        )
        return run_campaign(injector, x[:16], stream, chunk_size=256)

    result = benchmark(seed_pipeline)
    assert result.num_scenarios == 1_000


def test_bench_mask_campaign_100k(benchmark, setup):
    """Full pipeline at S=100k, float32 fast path (single round)."""
    net, x, _ = setup
    injector = FaultInjector(net, capacity=1.0)
    sampler = FixedDistributionSampler(net, (3, 2))
    errors = benchmark.pedantic(
        sampled_campaign_errors,
        args=(injector, x[:16], sampler, 100_000),
        kwargs=dict(seed=0, dtype="float32"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert errors.shape == (100_000,)


def test_bench_mask_engine_eval_only(benchmark, setup):
    """Streamed evaluation alone (preallocated buffers, float64)."""
    net, x, scenarios = setup
    injector = FaultInjector(net, capacity=1.0)
    compiled = injector.compile_batch(scenarios)
    engine = MaskCampaignEngine(injector, x, chunk_size=256)
    errors = benchmark(engine.evaluate, compiled)
    assert errors.shape == (256,)
