"""Telemetry-native chaos: the typed event stream every report derives from.

The chaos refactor's contract (DESIGN.md, seventh subsystem): the
epoch loop no longer computes summary statistics inline — it *emits*
a compact columnar :class:`TelemetryTrace` through a
:class:`TelemetryRecorder` seam, and everything downstream is a pure
function of the trace:

* :func:`report_from_trace` derives the classic
  :class:`~repro.chaos.campaign.ChaosReport` — bitwise identical to
  the numbers the old inline aggregation produced, because every
  aggregate is an order-independent integer reduction over the same
  grids;
* :mod:`repro.chaos.replay` re-serves a stored trace epoch-by-epoch
  to any detector without re-simulating;
* :mod:`repro.chaos.aiops` scores detection / localization / RCA
  tasks against the trace's ground-truth channels.

The trace is columnar, not evented, on the hot channels: per-epoch
per-replica error/violation/downtime/alarm grids are dense ``(E, R)``
arrays (they were already materialised per window by the old loop, so
recording them is free), while the sparse facts — repair and
rejuvenation-reset actions — are flat ``(kind, epoch, replica)``
event columns.  Ground-truth channels (per-layer crash/transient
counts and per-process damage attribution) are optional: they cost
two mask copies per process step and are only recorded when telemetry
is enabled with ``ground_truth=True``.

Blocks are the unit of seeding and fan-out: a job steps several
replica blocks in lockstep under one recorder, :meth:`TelemetryRecorder.
finish` splits the job's channels back into one trace per block, and
:func:`concat_traces` joins them along the replica axis in fixed block
order, so the assembled trace is bitwise identical however the blocks
were grouped into jobs, serially or on the fork-once pool.

Persistence is schema-versioned and split: :func:`save_trace` writes
``<base>.json`` (scalar metadata, block policy stats, the originating
spec payload) plus ``<base>.npz`` (every array channel).  The JSON
side keeps Python's ``Infinity``/``NaN`` literals (``json`` reads
them back exactly), so a loaded trace reproduces its report bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.injector import block_slices

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "ACTION_REPAIR",
    "ACTION_RESET",
    "TelemetryTrace",
    "TelemetryRecorder",
    "concat_traces",
    "report_from_trace",
    "episode_runs",
    "save_trace",
    "load_trace",
]

#: Version stamp written into every persisted trace; :func:`load_trace`
#: refuses a payload written by a different schema.
TRACE_SCHEMA_VERSION = 1

#: Action-event kinds (the ``action_kind`` column).
ACTION_REPAIR = 0  #: a policy fully repaired the replica this epoch
ACTION_RESET = 1  #: a rejuvenation served this epoch with reset masks


@dataclass
class TelemetryTrace:
    """Columnar telemetry of one chaos campaign (or one replica block).

    Grid channels are epoch-major ``(E, R)`` arrays; ground-truth
    channels add the layer axis (``(E, R, L)``) or the process axis
    (``(P, E, R)``).  ``block_sizes`` records the replica partition
    the campaign simulated with (fixed :data:`~repro.chaos.campaign.
    REPLICA_BLOCK` quanta), which is what lets the replayer reproduce
    per-block detector state exactly.

    Ground-truth semantics: ``crash_counts``/``transient_counts`` are
    the number of crashed / intermittent components per layer at each
    epoch's evaluation point; ``process_hits[p, e, r]`` is the damage
    (newly crashed or newly intermittent components, summed over
    layers) process ``p`` introduced on replica ``r`` at epoch ``e`` —
    arrivals that land on already-dead components are not double
    counted.
    """

    epochs: int
    n_replicas: int
    epsilon: float
    epsilon_prime: float
    layer_sizes: Tuple[int, ...]
    process_kinds: Tuple[str, ...]
    detector_names: Tuple[str, ...]
    policy_name: str
    epochs_chunk: int
    block_sizes: Tuple[int, ...]
    viol: np.ndarray  # (E, R) bool
    down: np.ndarray  # (E, R) bool
    alarms: Dict[str, np.ndarray] = field(default_factory=dict)
    action_kind: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int8)
    )
    action_epoch: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    action_replica: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    block_policy_stats: Tuple[dict, ...] = ()
    errors: Optional[np.ndarray] = None  # (E, R) float64
    requests: Optional[np.ndarray] = None  # (E,) float64
    crash_counts: Optional[np.ndarray] = None  # (E, R, L) int32
    transient_counts: Optional[np.ndarray] = None  # (E, R, L) int32
    process_hits: Optional[np.ndarray] = None  # (P, E, R) int32
    spec_payload: Optional[dict] = None
    schema_version: int = TRACE_SCHEMA_VERSION

    @property
    def budget(self) -> float:
        return self.epsilon - self.epsilon_prime

    @property
    def has_ground_truth(self) -> bool:
        return self.crash_counts is not None

    def observed(self) -> np.ndarray:
        """What monitoring saw: errors with downtime cells reading 0
        (an out-of-service replica reports as freshly repaired)."""
        if self.errors is None:
            raise ValueError(
                "trace has no error channel (dropped by retention); "
                "replay and observed() need retain_errors=True"
            )
        return np.where(self.down, 0.0, self.errors)

    def actions(self, kind: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(epochs, replicas)`` columns of the events of one kind,
        in recorded (block-major, epoch-ascending) order."""
        sel = self.action_kind == kind
        return self.action_epoch[sel], self.action_replica[sel]

    def equals(self, other: "TelemetryTrace") -> bool:
        """Bitwise trace equality (metadata and every array channel)."""
        if not isinstance(other, TelemetryTrace):
            return False
        meta = (
            "epochs", "n_replicas", "epsilon", "epsilon_prime",
            "layer_sizes", "process_kinds", "detector_names",
            "policy_name", "epochs_chunk", "block_sizes",
            "block_policy_stats", "spec_payload", "schema_version",
        )
        if any(getattr(self, k) != getattr(other, k) for k in meta):
            return False

        def same(a, b):
            if a is None or b is None:
                return a is None and b is None
            return bool(np.array_equal(a, b))

        if sorted(self.alarms) != sorted(other.alarms):
            return False
        if any(not same(g, other.alarms[n]) for n, g in self.alarms.items()):
            return False
        channels = (
            "viol", "down", "action_kind", "action_epoch",
            "action_replica", "errors", "requests", "crash_counts",
            "transient_counts", "process_hits",
        )
        return all(
            same(getattr(self, k), getattr(other, k)) for k in channels
        )

    def retained(
        self, *, retain_errors: bool = True, retain_epochs: Optional[int] = None
    ) -> "TelemetryTrace":
        """A retention-trimmed copy for persistence.

        ``retain_errors=False`` drops the dense float error channel
        (reports derived from the trimmed trace keep every statistic
        except the raw error grid; replay needs the channel and will
        refuse).  ``retain_epochs=N`` keeps only the *first* ``N``
        epochs — a prefix, so epoch numbering, window alignment and
        per-block replay of the retained horizon stay exact.
        """
        trimmed = self
        if retain_epochs is not None and retain_epochs < self.epochs:
            n = int(retain_epochs)
            if n < 1:
                raise ValueError(f"retain_epochs must be >= 1, got {n}")
            keep = self.action_epoch < n
            trimmed = replace(
                trimmed,
                epochs=n,
                viol=self.viol[:n],
                down=self.down[:n],
                alarms={k: g[:n] for k, g in self.alarms.items()},
                action_kind=self.action_kind[keep],
                action_epoch=self.action_epoch[keep],
                action_replica=self.action_replica[keep],
                errors=None if self.errors is None else self.errors[:n],
                requests=(
                    None if self.requests is None else self.requests[:n]
                ),
                crash_counts=(
                    None
                    if self.crash_counts is None
                    else self.crash_counts[:n]
                ),
                transient_counts=(
                    None
                    if self.transient_counts is None
                    else self.transient_counts[:n]
                ),
                process_hits=(
                    None
                    if self.process_hits is None
                    else self.process_hits[:, :n]
                ),
            )
        if not retain_errors and trimmed.errors is not None:
            trimmed = replace(trimmed, errors=None)
        return trimmed


class TelemetryRecorder:
    """The epoch loop's write seam: one recorder per simulated fleet.

    The campaign installs the recorder as ``FleetState.telemetry``, so
    state mutations that carry operational meaning — full repairs,
    rejuvenation resets — emit events from the one place they happen,
    and the per-window evaluation results land in preallocated grid
    channels.  Recording draws nothing from the RNG, so a campaign's
    fault schedule is bitwise identical with telemetry on or off.
    """

    def __init__(
        self,
        *,
        epochs: int,
        n_replicas: int,
        epsilon: float,
        epsilon_prime: float,
        layer_sizes: Sequence[int],
        process_kinds: Sequence[str],
        detector_names: Sequence[str],
        policy_name: str,
        epochs_chunk: int,
        ground_truth: bool = False,
    ):
        E, R = int(epochs), int(n_replicas)
        self.epochs = E
        self.n_replicas = R
        self.epsilon = float(epsilon)
        self.epsilon_prime = float(epsilon_prime)
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.process_kinds = tuple(process_kinds)
        self.detector_names = tuple(detector_names)
        self.policy_name = str(policy_name)
        self.epochs_chunk = int(epochs_chunk)
        self.ground_truth = bool(ground_truth)
        self.errors = np.zeros((E, R), dtype=np.float64)
        self.viol = np.zeros((E, R), dtype=bool)
        self.down = np.zeros((E, R), dtype=bool)
        self.alarms = {
            name: np.zeros((E, R), dtype=bool) for name in self.detector_names
        }
        self._events: List[Tuple[int, int, int]] = []  # (kind, epoch, replica)
        L, P = len(self.layer_sizes), len(self.process_kinds)
        if self.ground_truth:
            self.crash_counts = np.zeros((E, R, L), dtype=np.int32)
            self.transient_counts = np.zeros((E, R, L), dtype=np.int32)
            self.process_hits = np.zeros((P, E, R), dtype=np.int32)
            # Window-local scratch: the fleet's flat crashed [0] and
            # intermittent [1] masks after step p of epoch row w, at
            # [:, p, w], reduced in one vectorised pass at the flush.
            rows = min(self.epochs_chunk, E)
            self._masks = np.empty(
                (2, P, rows, R, sum(self.layer_sizes)), dtype=bool
            )
            # (ΣN_l, L) layer membership: a mask row times it counts
            # that row's set cells per layer.
            self._membership = np.repeat(
                np.eye(L, dtype=np.float32), self.layer_sizes, axis=0
            )
            self._prev_zero = np.zeros((rows, R), dtype=bool)
            self._carry_zero = np.zeros(R, dtype=bool)
            self._carry_dead = np.zeros(R, dtype=np.int64)
            self._buffered_through = -1
        else:
            self.crash_counts = None
            self.transient_counts = None
            self.process_hits = None

    # -- event channels (called via the FleetState seam) -------------------

    def record_repair(self, epoch: int, replicas: np.ndarray) -> None:
        """A policy fully repaired ``replicas`` (boolean mask)."""
        for r in np.nonzero(replicas)[0]:
            self._events.append((ACTION_REPAIR, int(epoch), int(r)))
        if self.ground_truth:
            # A repaired replica's damage count drops to zero, which
            # moves the attribution baseline of the epoch whose steps
            # the repair precedes: this epoch's if its masks are not
            # buffered yet (start-of-epoch policy hook), the next
            # window's first otherwise (end-of-window hook).
            w = int(epoch) % self.epochs_chunk
            if w <= self._buffered_through:
                self._carry_zero |= replicas
            else:
                self._prev_zero[w] |= replicas

    def record_reset(self, epoch: int, replica: int) -> None:
        """A rejuvenating replica serves ``epoch`` with reset masks."""
        self._events.append((ACTION_RESET, int(epoch), int(replica)))

    # -- ground-truth channels ---------------------------------------------
    #
    # Per-epoch capture is two raw mask copies per process step (the
    # fleet's flat crash channel and its transient gates) into window
    # scratch; every reduction (per-layer health counts, per-process
    # damage attribution) is deferred to the window flush, where it
    # vectorises over the whole ``(2, P, W, R, ΣN_l)`` block.  That
    # deferral is what keeps full ground-truth recording cheap; its
    # cost is the ``chaos.telemetry_overhead`` metric of the benchmark
    # (perfbench).

    def record_step(self, process_index: int, w: int, state) -> None:
        """Buffer the fleet's masks right after process
        ``process_index`` stepped (window row ``w``); the last
        process's boundary is the epoch-end evaluation point the health
        channels describe."""
        np.copyto(self._masks[0, process_index, w], state.crash_flat)
        np.greater(
            state.transient_flat, 0.0, out=self._masks[1, process_index, w]
        )
        self._buffered_through = w

    def _flush_ground_truth(self, first_epoch: int, w: int) -> None:
        """Reduce the buffered masks of one window into the per-layer
        health channels and the per-process damage attribution.

        The attribution baseline of epoch ``e`` is the previous
        epoch's dead count (transients were cleared at epoch start),
        zeroed for replicas a policy repaired before ``e``'s steps —
        exactly the value the old per-epoch differencing measured.
        """
        sl = slice(first_epoch, first_epoch + w)
        R = self.n_replicas
        # (2, P, w, R, L): per-layer crashed / intermittent counts at
        # every buffered boundary; the last boundary is the epoch end.
        # One float32 GEMM against the layer membership: a count is at
        # most ΣN_l, exact in float32, so the int32 cast is exact too.
        masks = self._masks[:, :, :w].astype(np.float32)
        counts = (
            (masks.reshape(-1, masks.shape[-1]) @ self._membership)
            .reshape(masks.shape[:-1] + (-1,))
            .astype(np.int32)
        )
        self.crash_counts[sl] = counts[0, -1]
        self.transient_counts[sl] = counts[1, -1]
        crashed, flaky = counts.sum(axis=4, dtype=np.int64)  # (P, w, R)
        total = crashed + flaky
        dead = crashed[-1]
        prev = np.empty((w, R), dtype=np.int64)
        prev[0] = self._carry_dead
        prev[1:] = dead[:-1]
        pz = self._prev_zero[:w]
        if pz.any():
            prev[pz] = 0
            self._prev_zero[:w] = False
        # Process p's damage is the step from the boundary before it
        # (the previous epoch's dead count for the first) to its own.
        self.process_hits[0, sl] = total[0] - prev
        self.process_hits[1:, sl] = total[1:] - total[:-1]
        self._carry_dead = dead[w - 1].copy()
        if self._carry_zero.any():
            self._carry_dead[self._carry_zero] = 0
            self._carry_zero[:] = False
        self._buffered_through = -1

    # -- grid channels -----------------------------------------------------

    def record_window(
        self,
        first_epoch: int,
        errors: np.ndarray,
        down: np.ndarray,
        viol: np.ndarray,
        firings: Dict[str, np.ndarray],
    ) -> None:
        """One evaluated window's ``(W, R)`` grids, rows = epochs
        ``first_epoch .. first_epoch + W - 1``."""
        w = errors.shape[0]
        sl = slice(first_epoch, first_epoch + w)
        self.errors[sl] = errors
        self.down[sl] = down
        self.viol[sl] = viol
        for name, grid in firings.items():
            self.alarms[name][sl] = grid
        if self.ground_truth:
            self._flush_ground_truth(first_epoch, w)

    def finish(
        self,
        block_policy_stats: Sequence[dict],
        block_sizes: Optional[Sequence[int]] = None,
    ) -> List[TelemetryTrace]:
        """Seal one trace per replica block (default: one block).

        Block ``b``'s trace holds its replica columns of every channel
        and its own action events, in recorded order with block-local
        replica indices — exactly what recording the block alone
        produces, because no channel mixes replicas.
        """
        if self._events:
            kinds, epochs_col, reps = zip(*self._events)
        else:
            kinds, epochs_col, reps = (), (), ()
        kinds = np.asarray(kinds, dtype=np.int8)
        epochs_col = np.asarray(epochs_col, dtype=np.int64)
        reps = np.asarray(reps, dtype=np.int64)
        sizes = block_sizes if block_sizes is not None else (self.n_replicas,)
        traces = []
        for cols, stats in zip(block_slices(sizes), block_policy_stats):
            size = cols.stop - cols.start
            own = (reps >= cols.start) & (reps < cols.stop)

            def part(grid):  # the block's replica columns
                return None if grid is None else grid[:, cols]

            traces.append(TelemetryTrace(
                epochs=self.epochs,
                n_replicas=size,
                epsilon=self.epsilon,
                epsilon_prime=self.epsilon_prime,
                layer_sizes=self.layer_sizes,
                process_kinds=self.process_kinds,
                detector_names=self.detector_names,
                policy_name=self.policy_name,
                epochs_chunk=self.epochs_chunk,
                block_sizes=(size,),
                viol=part(self.viol),
                down=part(self.down),
                alarms={k: part(g) for k, g in self.alarms.items()},
                action_kind=kinds[own],
                action_epoch=epochs_col[own],
                action_replica=reps[own] - cols.start,
                block_policy_stats=(dict(stats),),
                errors=part(self.errors),
                crash_counts=part(self.crash_counts),
                transient_counts=part(self.transient_counts),
                process_hits=(
                    None if self.process_hits is None
                    else self.process_hits[:, :, cols]
                ),
            ))
        return traces


def concat_traces(
    blocks: Sequence[TelemetryTrace],
    *,
    requests: Optional[np.ndarray] = None,
    spec_payload: Optional[dict] = None,
) -> TelemetryTrace:
    """Join per-block traces along the replica axis, in block order.

    Block order is fixed by the campaign's replica partition, so the
    result is bitwise identical whether the blocks were simulated
    serially or on the fork-once pool.  Event columns concatenate
    block-major with replica indices offset to fleet coordinates.
    """
    if not blocks:
        raise ValueError("need at least one block trace")
    head = blocks[0]
    meta = (
        "epochs", "epsilon", "epsilon_prime", "layer_sizes",
        "process_kinds", "detector_names", "policy_name", "epochs_chunk",
    )
    for b in blocks[1:]:
        bad = [k for k in meta if getattr(b, k) != getattr(head, k)]
        if bad:
            raise ValueError(f"block traces disagree on {bad}")

    def cat(name, axis):
        parts = [getattr(b, name) for b in blocks]
        if any(p is None for p in parts):
            if not all(p is None for p in parts):
                raise ValueError(f"channel {name!r} present in some "
                                 "blocks but not others")
            return None
        return np.concatenate(parts, axis=axis)

    starts = np.concatenate(
        [[0], np.cumsum([b.n_replicas for b in blocks])]
    )
    kind = np.concatenate([b.action_kind for b in blocks])
    epoch = np.concatenate([b.action_epoch for b in blocks])
    replica = np.concatenate(
        [b.action_replica + starts[i] for i, b in enumerate(blocks)]
    )
    return TelemetryTrace(
        epochs=head.epochs,
        n_replicas=int(starts[-1]),
        epsilon=head.epsilon,
        epsilon_prime=head.epsilon_prime,
        layer_sizes=head.layer_sizes,
        process_kinds=head.process_kinds,
        detector_names=head.detector_names,
        policy_name=head.policy_name,
        epochs_chunk=head.epochs_chunk,
        block_sizes=tuple(int(b.n_replicas) for b in blocks),
        viol=cat("viol", 1),
        down=cat("down", 1),
        alarms={
            name: np.concatenate([b.alarms[name] for b in blocks], axis=1)
            for name in head.detector_names
        },
        action_kind=kind,
        action_epoch=epoch,
        action_replica=replica,
        block_policy_stats=tuple(
            stats for b in blocks for stats in b.block_policy_stats
        ),
        errors=cat("errors", 1),
        requests=requests,
        crash_counts=cat("crash_counts", 1),
        transient_counts=cat("transient_counts", 1),
        process_hits=cat("process_hits", 2),
        spec_payload=spec_payload,
    )


# ---------------------------------------------------------------------------
# Episode run-length encoding
# ---------------------------------------------------------------------------


def episode_runs(
    viol: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-numpy RLE over an ``(E, R)`` violation grid.

    Returns ``(replica, onset, length)`` int64 columns, one row per
    maximal run of consecutive violating epochs of one replica,
    ordered replica-major then onset-ascending.  Vectorised: the grid
    is padded with healthy sentinel rows and differenced, so run
    starts/ends fall out of two ``nonzero`` calls — no per-column
    Python (``tests/oracles.py`` holds the per-column test oracle).
    """
    viol = np.asarray(viol, dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    if viol.size == 0:
        return empty, empty.copy(), empty.copy()
    v = viol.T  # (R, E): row-major nonzero => replica-major run order
    padded = np.zeros((v.shape[0], v.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = v
    d = np.diff(padded, axis=1)
    rep, onset = np.nonzero(d == 1)
    _, end = np.nonzero(d == -1)  # same rows, pairwise aligned with starts
    return (
        rep.astype(np.int64),
        onset.astype(np.int64),
        (end - onset).astype(np.int64),
    )


# ---------------------------------------------------------------------------
# Report derivation
# ---------------------------------------------------------------------------


def report_from_trace(trace: TelemetryTrace, *, keep_errors: bool = False):
    """Derive the :class:`~repro.chaos.campaign.ChaosReport` from a trace.

    Every statistic is an order-independent integer reduction over the
    trace grids, so the derived report is bitwise identical to what
    the pre-telemetry inline aggregation produced — and independent of
    whether the trace was assembled serially or from parallel blocks.

    Degenerate fleets (the MTBF/MTTR contract): with zero violation
    episodes — a fault-free fleet, or one whose every cell sat in
    repair downtime — both ``mtbf`` and ``mttr`` are ``nan`` (the
    statistics are undefined, not zero or infinite).
    """
    from .campaign import ChaosReport  # deferred: campaign imports us

    E, R = trace.epochs, trace.n_replicas
    viol, down = trace.viol, trace.down
    total_cells = E * R
    viol_cells = int(viol.sum())
    down_cells = int(down.sum())
    good_by_epoch = (~viol & ~down).sum(axis=1)
    any_viol = viol.any(axis=0)
    first = np.where(any_viol, viol.argmax(axis=0), E)
    _, _, lengths = episode_runs(viol)
    episodes = int(lengths.shape[0])
    violating = int(lengths.sum())

    availability = float(good_by_epoch.sum()) / total_cells
    requests = trace.requests
    if requests is not None and requests.sum() > 0:
        weighted = float(
            (good_by_epoch / R * requests).sum() / requests.sum()
        )
    else:
        weighted = availability

    detector_stats = {}
    in_service = ~down
    for name in trace.detector_names:
        grid = trace.alarms[name]
        tp = int((grid & viol & in_service).sum())
        fp = int((grid & ~viol & in_service).sum())
        fn = int((~grid & viol & in_service).sum())
        detector_stats[name] = {
            "firings": int((grid & in_service).sum()),
            "tp": tp,
            "fp": fp,
            "fn": fn,
            "precision": tp / (tp + fp) if tp + fp else 1.0,
            "recall": tp / (tp + fn) if tp + fn else 1.0,
        }

    policy_stats: Dict[str, object] = {"name": trace.policy_name}
    for stats in trace.block_policy_stats:
        for k, v in stats.items():
            if isinstance(v, (int, np.integer)):
                policy_stats[k] = int(policy_stats.get(k, 0)) + int(v)
            elif isinstance(v, float):
                acc = policy_stats.setdefault(k, [])
                if isinstance(acc, list):
                    acc.append(v)
            elif v is not None:
                policy_stats.setdefault(k, v)
    for k, v in list(policy_stats.items()):
        if isinstance(v, list):
            policy_stats[k] = float(np.mean(v)) if v else None

    return ChaosReport(
        n_replicas=R,
        epochs=E,
        epsilon=float(trace.epsilon),
        epsilon_prime=float(trace.epsilon_prime),
        availability=availability,
        weighted_availability=weighted,
        violation_fraction=viol_cells / total_cells,
        downtime_fraction=down_cells / total_cells,
        time_to_first_violation=first,
        n_violation_episodes=episodes,
        mtbf=(
            float((total_cells - violating - down_cells) / episodes)
            if episodes
            else float("nan")
        ),
        mttr=float(violating / episodes) if episodes else float("nan"),
        detector_stats=detector_stats,
        policy_stats=policy_stats,
        requests=requests,
        errors=trace.errors if keep_errors else None,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Persistence (schema-versioned JSON metadata + npz array payload)
# ---------------------------------------------------------------------------

_ALARM_PREFIX = "alarms__"
_OPTIONAL_CHANNELS = (
    "errors", "requests", "crash_counts", "transient_counts", "process_hits",
)


def _trace_paths(path: "str | Path") -> Tuple[Path, Path]:
    base = Path(path)
    if base.suffix in (".json", ".npz"):
        base = base.with_suffix("")
    return base.with_suffix(".json"), base.with_suffix(".npz")


def save_trace(trace: TelemetryTrace, path: "str | Path") -> Path:
    """Persist ``trace`` as ``<base>.json`` + ``<base>.npz``; returns
    the JSON path.  ``path`` may carry either suffix (or none)."""
    json_path, npz_path = _trace_paths(path)
    arrays: Dict[str, np.ndarray] = {
        "viol": trace.viol,
        "down": trace.down,
        "action_kind": trace.action_kind,
        "action_epoch": trace.action_epoch,
        "action_replica": trace.action_replica,
    }
    for name, grid in trace.alarms.items():
        arrays[_ALARM_PREFIX + name] = grid
    for name in _OPTIONAL_CHANNELS:
        value = getattr(trace, name)
        if value is not None:
            arrays[name] = value
    meta = {
        "schema_version": trace.schema_version,
        "epochs": trace.epochs,
        "n_replicas": trace.n_replicas,
        "epsilon": trace.epsilon,
        "epsilon_prime": trace.epsilon_prime,
        "layer_sizes": list(trace.layer_sizes),
        "process_kinds": list(trace.process_kinds),
        "detector_names": list(trace.detector_names),
        "policy_name": trace.policy_name,
        "epochs_chunk": trace.epochs_chunk,
        "block_sizes": list(trace.block_sizes),
        "block_policy_stats": list(trace.block_policy_stats),
        "spec_payload": trace.spec_payload,
        "channels": sorted(arrays),
        "npz": npz_path.name,
    }
    json_path.parent.mkdir(parents=True, exist_ok=True)
    # allow_nan keeps Infinity/NaN literals (e.g. a rejuvenation
    # policy's mean_boost_speedup): json.loads reads them back exactly,
    # which is what keeps report-from-loaded-trace bitwise faithful.
    json_path.write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    np.savez_compressed(npz_path, **arrays)
    return json_path


def load_trace(path: "str | Path") -> TelemetryTrace:
    """Inverse of :func:`save_trace`; refuses other schema versions."""
    json_path, npz_path = _trace_paths(path)
    meta = json.loads(json_path.read_text(encoding="utf-8"))
    version = meta.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"trace {json_path} has schema_version {version!r}; this "
            f"build reads {TRACE_SCHEMA_VERSION}"
        )
    with np.load(npz_path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    missing = {"viol", "down"} - set(arrays)
    if missing:
        raise ValueError(f"trace {npz_path} lost channels {sorted(missing)}")
    alarms = {
        name: arrays[_ALARM_PREFIX + name]
        for name in meta["detector_names"]
        if _ALARM_PREFIX + name in arrays
    }
    return TelemetryTrace(
        epochs=int(meta["epochs"]),
        n_replicas=int(meta["n_replicas"]),
        epsilon=float(meta["epsilon"]),
        epsilon_prime=float(meta["epsilon_prime"]),
        layer_sizes=tuple(meta["layer_sizes"]),
        process_kinds=tuple(meta["process_kinds"]),
        detector_names=tuple(meta["detector_names"]),
        policy_name=meta["policy_name"],
        epochs_chunk=int(meta["epochs_chunk"]),
        block_sizes=tuple(meta["block_sizes"]),
        viol=arrays["viol"],
        down=arrays["down"],
        alarms=alarms,
        action_kind=arrays["action_kind"],
        action_epoch=arrays["action_epoch"],
        action_replica=arrays["action_replica"],
        block_policy_stats=tuple(meta["block_policy_stats"]),
        errors=arrays.get("errors"),
        requests=arrays.get("requests"),
        crash_counts=arrays.get("crash_counts"),
        transient_counts=arrays.get("transient_counts"),
        process_hits=arrays.get("process_hits"),
        spec_payload=meta.get("spec_payload"),
        schema_version=int(version),
    )
