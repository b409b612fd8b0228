"""The lockstep chaos job loop against the per-block reference loop.

A chaos job steps several replica blocks over one fleet, drawing each
block's randomness from its own generator, evaluates each window in
one engine call per group of blocks with the gate draws routed to
their blocks, and carries forward the errors of rows that repeat the
previous epoch.  Over generated specs — every process, policy and
detector kind, 1–80 replicas, a narrow net and one whose sparse rows
take the rank-k route, the default engine chunk or an explicit one of
1–64 rows, ground truth on and off, in-process and on two workers —
the report and the trace must be bitwise equal to running every block
on its own through ``tests/oracles.py::simulate_block_reference``
(every row evaluated, one call per window), and (in-process) every
block's generator must end in the same state.

The fast profile runs in tier-1; the deep one is marked ``slow_stats``
(``make test-stats``, or ``python -m pytest -m slow_stats
tests/test_chaos_lockstep.py``).
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

import repro.chaos.campaign as campaign_mod
from oracles import PerBlockDriver
from repro.chaos.deployment import ReplicaStreams
from repro.specs import (
    ChaosSpec,
    DetectorSpec,
    EngineSpec,
    NetworkRef,
    PolicySpec,
    ProcessSpec,
    TelemetrySpec,
    TrafficSpec,
    run,
)

def _net(hidden) -> NetworkRef:
    return NetworkRef(
        builder="mlp",
        params={
            "input_dim": 3,
            "hidden": list(hidden),
            "activation": {"name": "sigmoid", "k": 1.0},
            "init": {"name": "uniform", "scale": 0.4},
            "output_scale": 0.3,
            "seed": 8,
        },
    )


NET = _net([7, 5])
#: ``N_1 = 20 > RANK_K_RATIO``: rows with at most one faulty first-layer
#: cell take the engine's rank-k route.
WIDE_NET = _net([20, 6])

PROCESSES = st.one_of(
    st.builds(
        ProcessSpec, kind=st.just("lifetime"),
        rate=st.sampled_from([0.01, 0.05]), shape=st.sampled_from([1.0, 1.7]),
    ),
    st.builds(
        ProcessSpec, kind=st.just("poisson"),
        rate=st.sampled_from([0.05, 0.3]),
    ),
    st.builds(
        ProcessSpec, kind=st.just("bursts"),
        rate=st.sampled_from([0.1, 0.4]), duration=st.integers(1, 4),
        fraction=st.sampled_from([None, 0.5]),
        hit_p=st.sampled_from([0.5, 1.0]),
    ),
    st.builds(
        ProcessSpec, kind=st.just("blasts"),
        rate=st.sampled_from([0.05, 0.3]),
        fraction=st.sampled_from([None, 0.3]),
    ),
)

POLICIES = st.one_of(
    st.builds(PolicySpec, kind=st.just("none")),
    st.builds(
        PolicySpec, kind=st.just("rejuvenate"), period=st.integers(2, 5),
        tolerated=st.sampled_from([None, (2, 1)]),
    ),
    st.builds(
        PolicySpec, kind=st.just("repair"), latency=st.integers(0, 2),
        downtime=st.integers(0, 2),
    ),
    st.builds(
        PolicySpec, kind=st.just("spare"), spares=st.integers(0, 3),
        swap_latency=st.integers(0, 2),
    ),
)


@st.composite
def chaos_specs(draw):
    policy = draw(POLICIES)
    kinds = draw(st.lists(
        st.sampled_from(["threshold", "cusum", "certified"]),
        unique=True,
        min_size=1 if policy.kind in ("repair", "spare") else 0,
        max_size=3,
    ))
    modulate = draw(st.booleans())
    return ChaosSpec(
        network=draw(st.sampled_from([NET, WIDE_NET])),
        epsilon=0.5,
        epsilon_prime=0.1,
        processes=tuple(draw(st.lists(PROCESSES, min_size=1, max_size=3))),
        detectors=tuple(DetectorSpec(kind=k) for k in kinds),
        policy=policy,
        traffic=(
            TrafficSpec(kind="bursty", modulate_probes=True) if modulate
            else TrafficSpec()
        ),
        epochs=draw(st.integers(1, 12)),
        epochs_chunk=draw(st.integers(1, 8)),
        replicas=draw(st.integers(1, 80)),
        batch=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 2**16)),
        telemetry=TelemetrySpec() if draw(st.booleans()) else None,
        engine=EngineSpec(
            chunk_size=draw(st.one_of(st.none(), st.integers(1, 64)))
        ),
    )


class _RecordingStreams(ReplicaStreams):
    """Production streams that remember their generators."""

    made: list = []

    def __init__(self, generators, sizes):
        super().__init__(generators, sizes)
        self.made.extend(self.generators)


def _report_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def check_lockstep_matches_reference(spec: ChaosSpec, workers: int) -> None:
    mp = pytest.MonkeyPatch()
    try:
        _RecordingStreams.made = []
        mp.setattr(campaign_mod, "ReplicaStreams", _RecordingStreams)
        got = run(spec, workers=workers)
        driver = PerBlockDriver()
        mp.setattr(campaign_mod, "_run_blocks", driver)
        want = run(spec)
    finally:
        mp.undo()
    assert _report_json(got) == _report_json(want)
    assert got.trace.equals(want.trace)
    assert got.trace.block_sizes == want.trace.block_sizes
    if workers == 0:
        made = _RecordingStreams.made
        assert len(made) == len(driver.generators) == len(got.trace.block_sizes)
        for mine, ref in zip(made, driver.generators):
            assert mine.bit_generator.state == ref.bit_generator.state


_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)


@settings(max_examples=25, **_SETTINGS)
@given(spec=chaos_specs(), workers=st.sampled_from([0, 0, 2]))
def test_lockstep_job_matches_per_block_reference(spec, workers):
    check_lockstep_matches_reference(spec, workers)


@pytest.mark.slow_stats
@settings(max_examples=300, **_SETTINGS)
@given(spec=chaos_specs(), workers=st.sampled_from([0, 2]))
def test_lockstep_job_matches_per_block_reference_deep(spec, workers):
    check_lockstep_matches_reference(spec, workers)


@pytest.mark.parametrize("workers", [0, 2])
def test_every_kind_across_three_blocks(workers):
    """A fixed spec with all four processes, all three detectors and
    each policy kind, over three blocks with a partial last one."""
    for policy in (
        PolicySpec(kind="rejuvenate", period=3, tolerated=(2, 1)),
        PolicySpec(kind="repair", latency=1),
        PolicySpec(kind="spare", spares=1),
    ):
        spec = ChaosSpec(
            network=NET,
            epsilon=0.5,
            epsilon_prime=0.1,
            processes=(
                ProcessSpec(kind="lifetime", rate=0.03, shape=1.5),
                ProcessSpec(kind="poisson", rate=0.2),
                ProcessSpec(kind="bursts", rate=0.3),
                ProcessSpec(kind="blasts", rate=0.1),
            ),
            detectors=(
                DetectorSpec(kind="threshold"),
                DetectorSpec(kind="cusum"),
                DetectorSpec(kind="certified"),
            ),
            policy=policy,
            traffic=TrafficSpec(kind="bursty", modulate_probes=True),
            epochs=10,
            epochs_chunk=4,
            replicas=37,
            batch=5,
            seed=11,
            telemetry=TelemetrySpec(),
        )
        check_lockstep_matches_reference(spec, workers)


def test_plain_generator_drives_a_one_block_fleet():
    """``ReplicaStreams.of`` wraps a generator as one block: its draws
    are the generator's own calls."""
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    streams = ReplicaStreams.of(a, 5)
    assert np.array_equal(streams.random(4), b.random((5, 4)))
    assert np.array_equal(streams.integers(3), b.integers(0, 3, size=5))
    assert a.bit_generator.state == b.bit_generator.state
