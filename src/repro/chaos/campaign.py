"""The chaos orchestrator: lifecycle simulation → telemetry → SLO report.

``_run_chaos_campaign`` (behind ``repro.run(ChaosSpec)``) is the fifth
subsystem's entry point.  Per epoch it (1) applies due repairs, (2)
steps every fault process over the whole replica fleet, (3) snapshots
the fleet into the window buffers; per *window* of ``epochs_chunk``
epochs it gathers the ``W * R`` (epoch, replica) rows into one
:class:`~repro.faults.injector.CompiledScenarioBatch` per group of
replica blocks and streams each through one
:class:`~repro.faults.masks.MaskCampaignEngine` evaluation — the hot
loop contains zero per-scenario Python, and a row that repeats its
replica's previous epoch is carried forward rather than evaluated
(:meth:`~repro.chaos.deployment.DeployedNetwork.evaluate`).  Detectors
consume the evaluated errors and policies schedule repairs from the
firings.

The loop computes no summary statistics of its own: every evaluated
window and every repair/rejuvenation action is *emitted* into a
:class:`~repro.chaos.telemetry.TelemetryTrace` through a
:class:`~repro.chaos.telemetry.TelemetryRecorder` (telemetry-native
chaos; DESIGN.md seventh subsystem), and the :class:`ChaosReport` —
availability (plain and request-weighted), the time-to-first-violation
distribution, MTBF / MTTR, per-detector precision/recall against
ground truth — is derived afterwards by the pure function
:func:`~repro.chaos.telemetry.report_from_trace`.  The trace rides on
the report (``report.trace``) for replay and AIOps scoring
(:mod:`repro.chaos.replay`, :mod:`repro.chaos.aiops`).

Determinism and parallelism follow the repo's campaign discipline
(DESIGN.md): replicas are partitioned into fixed blocks of
:data:`REPLICA_BLOCK`; block ``b`` always draws from the ``b+1``-th
spawned child of ``SeedSequence(seed)`` (child 0 drives the traffic
draw).  The block is the unit of seeding and fan-out; the *job* is the
unit of vectorisation: :func:`_simulate_job` steps a run of
consecutive blocks in lockstep over one fleet, so each epoch costs a
few whole-job numpy calls rather than a few per block, and a window
costs one engine call per group of blocks that fits the engine chunk
(by default, the whole job), while every draw still goes to the
owning block's generator
(:class:`~repro.chaos.deployment.ReplicaStreams`, routed by batch row
inside the engine).  In-process one job holds every block; with
workers the blocks split into contiguous jobs on the campaigns' block
driver (:func:`~repro.faults.masks._run_blocks`).  The fault schedule,
detector firings and SLO report are bitwise identical however the
blocks are grouped, serial == parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.masks import DEFAULT_CHUNK, MaskCampaignEngine, _run_blocks
from ..network.model import FeedForwardNetwork
from ..obs import RunObserver
from .deployment import DeployedNetwork, ReplicaStreams
from .detectors import DriftDetector
from .policies import NoRepairPolicy, RepairPolicy
from .processes import FaultProcess
from .telemetry import (
    TelemetryRecorder,
    TelemetryTrace,
    concat_traces,
    report_from_trace,
)
from .traffic import TrafficModel

__all__ = ["ChaosReport", "REPLICA_BLOCK"]

#: Fixed parallel quantum: replica block ``b`` always covers replicas
#: ``[b * REPLICA_BLOCK, ...)`` and always simulates with the same
#: spawned seed, regardless of worker count — campaign results depend
#: only on the seed (the chaos twin of ``masks.SAMPLE_BLOCK``).
REPLICA_BLOCK = 16


@dataclass
class ChaosReport:
    """SLO summary of one chaos campaign.

    ``availability`` counts every (epoch, replica) cell that served
    within the error budget and was not in repair downtime;
    ``weighted_availability`` weighs cells by the epoch's request
    traffic.  ``mtbf`` / ``mttr`` are measured in epochs over
    violation *episodes* (maximal runs of consecutive violating
    epochs per replica).  ``detector_stats`` scores each detector's
    firings against ground truth (violating, in-service cells).

    Degenerate fleets: with zero violation episodes — a fault-free
    fleet, or one whose every cell sat in repair downtime — ``mtbf``
    and ``mttr`` are both ``nan``.  The statistics are undefined
    without an episode to average over; ``nan`` says so explicitly
    where older revisions mixed an ``inf`` MTBF with a ``0.0`` MTTR.

    ``trace`` is the campaign's full
    :class:`~repro.chaos.telemetry.TelemetryTrace` — the event stream
    this report was derived from (excluded from :meth:`to_dict`, like
    ``errors``).
    """

    n_replicas: int
    epochs: int
    epsilon: float
    epsilon_prime: float
    availability: float
    weighted_availability: float
    violation_fraction: float
    downtime_fraction: float
    time_to_first_violation: np.ndarray
    n_violation_episodes: int
    mtbf: float
    mttr: float
    detector_stats: Dict[str, dict] = field(default_factory=dict)
    policy_stats: Dict[str, object] = field(default_factory=dict)
    requests: Optional[np.ndarray] = None
    errors: Optional[np.ndarray] = None
    trace: Optional[TelemetryTrace] = None

    @property
    def budget(self) -> float:
        return self.epsilon - self.epsilon_prime

    def survival_curve(self) -> np.ndarray:
        """Empirical survival by mission time: entry ``m`` is the
        fraction of replicas with no violation during their first ``m``
        epochs, shape ``(epochs + 1,)`` (``curve[0] == 1``).

        The chaos twin of
        :func:`~repro.faults.reliability.mission_survival_curve`: under
        a no-repair policy and exponential lifetimes it must dominate
        the certified bound at every mission time ``m * dt``.
        """
        t = np.arange(self.epochs + 1)
        first = np.asarray(self.time_to_first_violation)
        return (first[None, :] >= t[:, None]).mean(axis=1)

    def to_dict(self) -> dict:
        from ..artifacts import jsonable

        payload = {
            k: jsonable(v)
            for k, v in self.__dict__.items()
            if k not in ("errors", "trace")
        }
        payload["budget"] = self.budget
        return payload

    def summary(self) -> str:
        lines = [
            f"ChaosReport(replicas={self.n_replicas}, epochs={self.epochs}, "
            f"budget={self.budget:.4g})",
            f"  availability:          {self.availability:.4f}"
            f"  (request-weighted {self.weighted_availability:.4f})",
            f"  violations:            {self.violation_fraction:.4f} of cells"
            f" in {self.n_violation_episodes} episodes",
            f"  MTBF / MTTR (epochs):  {self.mtbf:.4g} / {self.mttr:.4g}",
            f"  downtime:              {self.downtime_fraction:.4f} of cells",
            "  median epochs to first violation: "
            f"{float(np.median(self.time_to_first_violation)):.4g}",
        ]
        for name, stats in self.detector_stats.items():
            lines.append(
                f"  detector {name}: fired {stats['firings']}, "
                f"precision {stats['precision']:.3f}, "
                f"recall {stats['recall']:.3f}"
            )
        if self.policy_stats:
            pretty = ", ".join(
                f"{k}={v}" for k, v in sorted(self.policy_stats.items())
                if k != "name"
            )
            lines.append(
                f"  policy {self.policy_stats.get('name', '?')}: {pretty}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Job simulation: consecutive replica blocks in lockstep
# ---------------------------------------------------------------------------


def _simulate_job(
    engine: MaskCampaignEngine, shared: tuple, job: tuple
) -> list:
    """Full lifecycle of a run of consecutive replica blocks.

    ``job`` is ``(n_replicas, block sizes, block seeds)``; ``shared``
    holds the campaign-wide objects.  One fleet holds all the job's
    replicas and every epoch steps it as a whole, but each block draws
    from its own generator (:class:`~repro.chaos.deployment.
    ReplicaStreams`), in the window evaluations too
    (:meth:`~repro.chaos.deployment.DeployedNetwork.evaluate`) — so
    every block's trajectory, and the stream it leaves behind, is the
    one simulating it alone produces.  The
    process/detector/policy objects are reset here (the worker and the
    serial path reuse the same pickled objects across jobs).  The
    recorder is installed as the fleet state's telemetry seam, so
    repair and rejuvenation-reset actions are captured where they
    happen; it never touches the RNG, so the fault schedule is bitwise
    identical with ground-truth recording on or off.

    Returns one ``(trace, engine seconds)`` pair per block, the
    seconds being that block's share of the window evaluations.
    """
    (processes, detectors, policy, epochs, epochs_chunk, epsilon,
     epsilon_prime, probe_counts, ground_truth) = shared
    n_replicas, sizes, seeds = job
    streams = ReplicaStreams([np.random.default_rng(s) for s in seeds], sizes)
    network = engine.network
    fleet = DeployedNetwork(
        network, engine.xb64, n_replicas, window=epochs_chunk, engine=engine
    )
    state = fleet.state
    for proc in processes:
        proc.reset(n_replicas, network.layer_sizes)
    for det in detectors:
        det.reset(n_replicas)
    policy.reset(network, n_replicas, sizes)

    recorder = TelemetryRecorder(
        epochs=epochs,
        n_replicas=n_replicas,
        epsilon=epsilon,
        epsilon_prime=epsilon_prime,
        layer_sizes=network.layer_sizes,
        process_kinds=tuple(type(p).__name__ for p in processes),
        detector_names=tuple(d.name for d in detectors),
        policy_name=policy.name,
        epochs_chunk=epochs_chunk,
        ground_truth=ground_truth,
    )
    state.telemetry = recorder
    budget = epsilon - epsilon_prime
    seconds = np.zeros(len(sizes))

    epoch = 0
    while epoch < epochs:
        w = min(epochs_chunk, epochs - epoch)
        fleet.window.clear()
        for k in range(w):
            state.begin_epoch(epoch + k)
            policy.apply(state, processes, detectors, streams)
            for p_idx, proc in enumerate(processes):
                proc.step(state, streams)
                if ground_truth:
                    # Per-process damage attribution: the recorder
                    # buffers the fleet's masks after every step and
                    # differences their counts at the window flush.
                    recorder.record_step(p_idx, k, state)
            fleet.window.snapshot(state)
            state.advance_ages()
        counts = (
            probe_counts[epoch : epoch + w]
            if probe_counts is not None
            else None
        )
        errors, dt = fleet.evaluate(streams, counts)
        seconds += dt
        down_w = fleet.window.down
        viol_w = (errors > budget + 1e-12) & ~down_w
        # Monitoring sees nothing from an out-of-service replica: its
        # error reads as freshly-repaired (0) for the detectors.
        observed = np.where(down_w, 0.0, errors)
        firings_w = {
            det.name: det.update(observed, epoch) for det in detectors
        }
        policy.observe(state, errors, firings_w, epoch)
        recorder.record_window(epoch, errors, down_w, viol_w, firings_w)
        epoch += w

    state.telemetry = None
    traces = recorder.finish(policy.block_stats(), sizes)
    return list(zip(traces, seconds.tolist()))


def _block_spans(sizes: Sequence[int], seconds: Sequence[float]) -> dict:
    """An observer payload with one ``block`` span per replica block.

    Blocks step in lockstep inside a job and share engine calls, so no
    span can wrap one block's work alone: each span is recorded after
    the run and timed by that block's share of the window evaluations
    (each call's time split by the block's evaluated rows).  Its shape
    does not depend on how the blocks were grouped into jobs or calls,
    which keeps the run's span tree identical serial vs parallel.
    """
    ob = RunObserver()
    for index, (size, dt) in enumerate(zip(sizes, seconds)):
        with ob.block_span(index, int(size)):
            pass
        ob.trace.spans[-1].dt = dt
    return ob.worker_payload()


def _run_chaos_campaign(
    network: FeedForwardNetwork,
    x: np.ndarray,
    processes: Sequence[FaultProcess],
    *,
    epochs: int,
    n_replicas: int,
    epsilon: float,
    epsilon_prime: float,
    traffic: Optional[TrafficModel] = None,
    detectors: Sequence[DriftDetector] = (),
    policy: Optional[RepairPolicy] = None,
    capacity: Optional[float] = None,
    seed: "int | np.random.SeedSequence | None" = 0,
    epochs_chunk: int = 32,
    chunk_size: Optional[int] = None,
    dtype: "str | np.dtype" = np.float64,
    n_workers: int = 0,
    keep_errors: bool = False,
    telemetry=None,
    spec_payload: Optional[dict] = None,
    obs=None,
) -> ChaosReport:
    """Simulate a deployed fleet under temporal chaos; return the SLO report.

    Parameters mirror the static campaigns where they overlap
    (``capacity`` defaults to ``sup phi``; ``dtype=float32`` selects
    the engine's fast path).  ``epochs_chunk`` is the evaluation
    window: detection/repair scheduling happens at window granularity
    (a real monitoring pipeline's aggregation interval).  Larger
    windows amortise better; smaller windows tighten the repair
    feedback loop.  ``chunk_size`` (default ``max(epochs_chunk *
    REPLICA_BLOCK, DEFAULT_CHUNK)``) bounds the rows of one engine
    call: consecutive blocks whose windows fit in it share a call.

    The simulation emits a :class:`~repro.chaos.telemetry.TelemetryTrace`
    and the report is derived from it
    (:func:`~repro.chaos.telemetry.report_from_trace`); the trace is
    returned on ``report.trace``.  ``telemetry`` is an optional
    :class:`~repro.specs.TelemetrySpec`-shaped object (``enabled`` /
    ``ground_truth`` attributes): with both true, the trace also
    carries the ground-truth channels (per-layer crash/transient
    counts, per-process damage attribution) the AIOps tasks score
    against.  ``spec_payload`` (the originating spec's ``to_dict``)
    is embedded in the trace so a stored trace can rebuild its
    detectors for replay.  ``n_workers`` follows the block driver's
    contract.  ``obs`` records one ``block`` span per replica block
    (:func:`_block_spans`) and its profile is charged by the engines.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if epochs_chunk < 1:
        raise ValueError(f"epochs_chunk must be >= 1, got {epochs_chunk}")
    if not (0 < epsilon_prime <= epsilon):
        raise ValueError("need 0 < epsilon_prime <= epsilon")
    if not processes:
        raise ValueError("need at least one fault process")
    names = [d.name for d in detectors]
    if len(set(names)) != len(names):
        raise ValueError(f"detector names must be unique, got {names}")
    policy = policy if policy is not None else NoRepairPolicy()
    wanted = getattr(policy, "detector", None)
    if wanted is not None and wanted not in names:
        raise ValueError(
            f"policy {policy.name!r} triggers on detector {wanted!r}, but "
            f"the campaign runs {names or 'no detectors'}"
        )
    if policy.suggested_window is not None and not detectors:
        # suggested_window marks closed-loop policies: without a firing
        # source they would silently never repair.
        raise ValueError(
            f"closed-loop policy {policy.name!r} needs at least one "
            "detector to trigger on"
        )
    capacity = capacity if capacity is not None else network.output_bound
    epochs = int(epochs)
    epochs_chunk = min(int(epochs_chunk), epochs)
    if policy.suggested_window is not None:
        # Closed-loop policies schedule repairs from evaluated windows;
        # cap the window so their feedback loop can actually close.
        epochs_chunk = min(epochs_chunk, int(policy.suggested_window))

    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    sizes = [REPLICA_BLOCK] * (n_replicas // REPLICA_BLOCK)
    if n_replicas % REPLICA_BLOCK:
        sizes.append(n_replicas % REPLICA_BLOCK)
    children = ss.spawn(len(sizes) + 1)
    traffic_rng = np.random.default_rng(children[0])
    requests = (
        traffic.requests(epochs, traffic_rng) if traffic is not None else None
    )

    xb, _ = network._as_batch(x)
    probe_counts = None
    if traffic is not None and traffic.modulate_probes:
        probe_counts = traffic.probe_counts(requests, xb.shape[0])
    chunk = chunk_size or max(epochs_chunk * REPLICA_BLOCK, DEFAULT_CHUNK)
    ground_truth = bool(
        telemetry is not None
        and getattr(telemetry, "enabled", False)
        and getattr(telemetry, "ground_truth", False)
    )

    # One job in-process; with workers, contiguous runs of blocks.
    n_jobs = min(n_workers, len(sizes)) if n_workers and n_workers > 1 else 1
    cuts = [len(sizes) * j // n_jobs for j in range(n_jobs + 1)]
    jobs = [
        (sum(sizes[a:b]), tuple(sizes[a:b]), tuple(children[1 + a : 1 + b]))
        for a, b in zip(cuts, cuts[1:])
    ]
    results = _run_blocks(
        _simulate_job,
        (
            tuple(processes), tuple(detectors), policy, epochs, epochs_chunk,
            float(epsilon), float(epsilon_prime), probe_counts, ground_truth,
        ),
        jobs,
        FaultInjector(network, capacity=capacity),
        xb,
        chunk_size=chunk,
        dtype=dtype,
        n_workers=n_workers,
        profile=None if obs is None else obs.profile,
    )
    blocks = [pair for job in results for pair in job]
    if obs is not None:
        obs.absorb(_block_spans(sizes, [dt for _, dt in blocks]))

    # Block order is fixed, so the assembled trace — and therefore the
    # derived report — is bitwise identical, serial == parallel.
    trace = concat_traces(
        [t for t, _ in blocks], requests=requests, spec_payload=spec_payload
    )
    return report_from_trace(trace, keep_errors=keep_errors)
