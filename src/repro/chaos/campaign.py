"""The chaos orchestrator: lifecycle simulation → telemetry → SLO report.

``_run_chaos_campaign`` (behind ``repro.run(ChaosSpec)``) is the fifth
subsystem's entry point.  Per epoch it (1) applies due repairs, (2)
steps every fault process over the whole replica fleet, (3) snapshots
the fleet into the window buffers; per *window* of ``epochs_chunk``
epochs it compiles one
:class:`~repro.faults.injector.CompiledScenarioBatch` of ``W * R``
scenario rows and streams it through a single
:class:`~repro.faults.masks.MaskCampaignEngine` evaluation — the hot
loop contains zero per-scenario Python.  Detectors consume the
evaluated errors and policies schedule repairs from the firings.

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
:data:`REPLICA_BLOCK`; block ``b`` always simulates with the ``b+1``-th
spawned child of ``SeedSequence(seed)`` (child 0 drives the traffic
draw).  The blocks run through the campaigns' block driver
(:func:`~repro.faults.masks._run_blocks`) with :func:`_simulate_block`
as the block function — jobs carry only ``(block size, seed)`` — so the
fault schedule, detector firings and SLO report are bitwise identical,
serial == parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.masks import MaskCampaignEngine, _run_blocks
from ..network.model import FeedForwardNetwork
from .deployment import DeployedNetwork
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
# Block simulation (the unit of parallelism)
# ---------------------------------------------------------------------------


def _simulate_block(
    engine: MaskCampaignEngine, shared: tuple, job: tuple
) -> TelemetryTrace:
    """Full lifecycle of one replica block; emits the block's trace.

    The process/detector/policy objects are reset here (the worker and
    the serial path reuse the same pickled objects across blocks), so
    a block's trajectory depends only on its seed.  The recorder is
    installed as the fleet state's telemetry seam, so repair and
    rejuvenation-reset actions are captured where they happen; it
    never touches the RNG, so the fault schedule is bitwise identical
    with ground-truth recording on or off.  ``job`` is ``(n_replicas,
    SeedSequence)``; ``shared`` holds the campaign-wide objects.
    """
    (processes, detectors, policy, epochs, epochs_chunk, epsilon,
     epsilon_prime, probe_counts, ground_truth) = shared
    n_replicas, seed = job
    rng = np.random.default_rng(seed)
    network = engine.network
    fleet = DeployedNetwork(
        network, engine.xb64, n_replicas, window=epochs_chunk, engine=engine
    )
    state = fleet.state
    for proc in processes:
        proc.reset(n_replicas, network.layer_sizes)
    for det in detectors:
        det.reset(n_replicas)
    policy.reset(network, n_replicas)

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

    epoch = 0
    while epoch < epochs:
        w = min(epochs_chunk, epochs - epoch)
        fleet.window.clear()
        for k in range(w):
            state.begin_epoch(epoch + k)
            policy.apply(state, processes, detectors, rng)
            for p_idx, proc in enumerate(processes):
                proc.step(state, rng)
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
        errors = fleet.evaluate_window(rng, counts)  # (w, R)
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
    return recorder.finish(policy.stats())


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
    profile=None,
    obs=None,
) -> ChaosReport:
    """Simulate a deployed fleet under temporal chaos; return the SLO report.

    Parameters mirror the static campaigns where they overlap
    (``capacity`` defaults to ``sup phi``; ``dtype=float32`` selects
    the engine's fast path).  ``epochs_chunk`` is the evaluation
    window: each engine call covers ``epochs_chunk * block`` scenario
    rows, and detection/repair scheduling happens at window
    granularity (a real monitoring pipeline's aggregation interval).
    Larger windows amortise better; smaller windows tighten the
    repair feedback loop.

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
    detectors for replay.  ``n_workers``, ``profile`` and ``obs``
    follow the block driver's contract, one ``block`` span per replica
    block.
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
    chunk = chunk_size or max(epochs_chunk * REPLICA_BLOCK, 1)
    ground_truth = bool(
        telemetry is not None
        and getattr(telemetry, "enabled", False)
        and getattr(telemetry, "ground_truth", False)
    )

    blocks = _run_blocks(
        _simulate_block,
        (
            tuple(processes), tuple(detectors), policy, epochs, epochs_chunk,
            float(epsilon), float(epsilon_prime), probe_counts, ground_truth,
        ),
        zip(sizes, children[1:]),
        FaultInjector(network, capacity=capacity),
        xb,
        chunk_size=chunk,
        dtype=dtype,
        n_workers=n_workers,
        profile=profile,
        obs=obs,
    )

    # Block order is fixed, so the assembled trace — and therefore the
    # derived report — is bitwise identical, serial == parallel.
    trace = concat_traces(blocks, requests=requests, spec_payload=spec_payload)
    return report_from_trace(trace, keep_errors=keep_errors)
