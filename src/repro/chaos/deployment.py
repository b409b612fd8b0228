"""Deployed-fleet state and its lowering onto the campaign engine.

A chaos campaign watches ``R`` independent replicas of one trained
network serve traffic over discrete epochs while fault processes
(:mod:`repro.chaos.processes`) degrade them and repair policies
(:mod:`repro.chaos.policies`) heal them.  Three classes carry that
story:

* :class:`FleetState` — the mutable health of the fleet at one epoch:
  cumulative crash masks, component ages, per-epoch transient gates,
  per-epoch boosted-reset masks (rejuvenation) and repair downtime.
  Each channel is one flat ``(R, ΣN_l)`` array with per-layer column
  views, mutated in place by processes and policies — no per-replica
  Python objects;
* :class:`EpochWindow` — the bridge to the engine: it snapshots the
  fleet once per epoch into preallocated ``(W, R, ΣN_l)`` buffers and
  gathers any set of a window's ``(epoch, replica)`` rows into **one**
  :class:`~repro.faults.injector.CompiledScenarioBatch`, so the
  replica × time grid streams through
  :class:`~repro.faults.masks.MaskCampaignEngine` calls — never
  per-scenario Python;
* :class:`DeployedNetwork` — the fleet wired to its engine: one call
  per group of consecutive replica blocks, with every gate draw routed
  to its block's generator, and the rows that repeat the previous
  epoch carried forward instead of evaluated.

:class:`ReplicaStreams` (one generator per replica block, defined next
to the mask kernels that route draws through it) is re-exported here.

Everything temporal lowers onto exactly two engine channels: permanent
damage (crashes, blasts) and rejuvenation resets are crash (``zero``)
masks; transient bursts are crash masks Bernoulli-gated by ``gate_p``.
That is what keeps the chaos subsystem a thin layer: the fault
*semantics* live in one place (``apply_mask_channels``), shared with
every other campaign in the repo.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from ..faults.injector import (
    CompiledScenarioBatch,
    FaultInjector,
    ReplicaStreams,
)
from ..faults.masks import MaskCampaignEngine, empty_mask_batch
from ..network.model import FeedForwardNetwork

__all__ = ["FleetState", "EpochWindow", "DeployedNetwork", "ReplicaStreams"]


def layer_columns(
    buf: np.ndarray, layer_sizes: Sequence[int]
) -> List[np.ndarray]:
    """Per-layer views ``buf[..., o_l : o_l + N_l]`` of a flat buffer
    whose last axis holds every layer's components side by side."""
    views, start = [], 0
    for n in layer_sizes:
        views.append(buf[..., start : start + n])
        start += n
    return views


class FleetState:
    """Health of ``R`` replicas at the current epoch.

    Each channel is one flat ``(R, ΣN_l)`` buffer (``crash_flat``,
    ``age_flat``, ``transient_flat``, ``reset_flat``: layers side by
    side along the columns), so a whole-fleet operation — the epoch
    clears, ageing, repair, a window snapshot — is one numpy call.
    The per-layer lists (``crash[l0]`` …) are column views of those
    buffers: processes and policies address one layer and write
    through to the flat channel.

    Attributes
    ----------
    crash:
        ``crash[l0]`` is the ``(R, N_{l+1})`` boolean mask of
        permanently failed components (cumulative until repaired).
    age:
        Epochs since each component's birth or last repair (drives
        Weibull wear-out).
    transient_p / has_transients:
        Per-epoch intermittent faults: ``transient_p`` is each cell's
        probability of emitting 0 per evaluation (0 = healthy), gated
        at evaluation time through the engine's ``gate_p`` channel.
        Cleared every epoch; burst processes re-arm the cells while a
        burst lasts, and overlapping bursts superpose as independent
        Bernoulli hits (``1 - (1-p1)(1-p2)``).
    reset_zero:
        Per-epoch boosted-reset masks: a rejuvenating replica serves
        its restart epoch with these components reading 0 (Corollary
        2's reset semantics), cleared afterwards.
    down_until:
        Replica ``r`` is out of service (repair downtime) while
        ``epoch < down_until[r]``.
    telemetry:
        The campaign's :class:`~repro.chaos.telemetry.TelemetryRecorder`
        seam (``None`` outside a recording campaign): repairs and
        rejuvenation resets are operationally meaningful state
        transitions, so they emit action events from the one place
        they happen rather than from every policy that triggers them.
    """

    def __init__(self, layer_sizes: Sequence[int], n_replicas: int):
        if n_replicas < 1:
            raise ValueError(f"need >= 1 replica, got {n_replicas}")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.n_replicas = int(n_replicas)
        shape = (self.n_replicas, sum(self.layer_sizes))
        self.crash_flat = np.zeros(shape, dtype=bool)
        self.age_flat = np.zeros(shape, dtype=np.float64)
        self.transient_flat = np.zeros(shape, dtype=np.float64)
        self.reset_flat = np.zeros(shape, dtype=bool)
        self.crash = layer_columns(self.crash_flat, self.layer_sizes)
        self.age = layer_columns(self.age_flat, self.layer_sizes)
        self.transient_p = layer_columns(self.transient_flat, self.layer_sizes)
        self.reset_zero = layer_columns(self.reset_flat, self.layer_sizes)
        self.down_until = np.zeros(self.n_replicas, dtype=np.int64)
        self.epoch = 0
        self.has_transients = False
        self.has_resets = False
        self.telemetry = None

    # -- epoch lifecycle ---------------------------------------------------

    def begin_epoch(self, epoch: int) -> None:
        """Clear the per-epoch channels and move the clock."""
        self.epoch = int(epoch)
        if self.has_transients:
            self.transient_flat.fill(0.0)
            self.has_transients = False
        if self.has_resets:
            self.reset_flat.fill(False)
            self.has_resets = False

    def advance_ages(self) -> None:
        """Every component ages one epoch (called once per epoch)."""
        self.age_flat += 1.0

    # -- mutation API (processes / policies) -------------------------------

    def set_transient(self, cells: np.ndarray, hit_p: float) -> None:
        """Mark ``cells`` (a boolean ``(R, ΣN_l)`` mask over the flat
        channel) intermittent for this epoch: each emits 0 with
        probability ``hit_p`` per evaluation.  A cell hit by several
        transients superposes them as independent Bernoulli gates
        (``p <- 1 - (1-p)(1-hit_p)``), matching nested
        ``IntermittentFault`` composition."""
        if not np.count_nonzero(cells):
            return
        p = self.transient_flat
        if not self.has_transients:
            # First writer this epoch: every cell is still 0, so the
            # superposition below would store hit_p exactly.
            np.copyto(p, float(hit_p), where=cells)
        else:
            # First fault on a cell keeps hit_p exact; only genuine
            # overlaps pay the superposition arithmetic.
            combined = np.where(
                p == 0.0, float(hit_p), 1.0 - (1.0 - p) * (1.0 - float(hit_p))
            )
            np.copyto(p, combined, where=cells)
        self.has_transients = True

    def set_resets(self, replica: int, reset_masks: Sequence[np.ndarray]) -> None:
        """Apply one replica's boosted-restart reset masks for this epoch."""
        for l0, mask in enumerate(reset_masks):
            self.reset_zero[l0][replica] |= mask
        self.has_resets = True
        if self.telemetry is not None:
            self.telemetry.record_reset(self.epoch, replica)

    def repair(self, replicas: np.ndarray) -> None:
        """Fully repair ``replicas`` (boolean ``(R,)`` mask): all
        components healthy, ages reset."""
        if not replicas.any():
            return
        self.crash_flat[replicas] = False
        self.age_flat[replicas] = 0.0
        if self.telemetry is not None:
            self.telemetry.record_repair(self.epoch, replicas)

    @property
    def down_now(self) -> np.ndarray:
        """Replicas in repair downtime at the current epoch."""
        return self.epoch < self.down_until


class EpochWindow:
    """Preallocated ``(W, R, ΣN_l)`` snapshot buffers for one window.

    ``snapshot`` copies the fleet's flat channels into the next epoch
    row (one call per channel, whatever the depth or the block count).
    :meth:`skips` finds the rows that repeat the previous epoch of the
    same window.  :meth:`batch` gathers any set of filled ``(epoch, replica)`` rows into one mask
    batch — one gather per channel, handing the engine per-layer
    column views, never per-scenario Python.
    """

    def __init__(self, layer_sizes: Sequence[int], window: int, n_replicas: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.window = int(window)
        self.n_replicas = int(n_replicas)
        width = sum(self.layer_sizes)
        shape = (self.window, self.n_replicas, width)
        self._zero = np.zeros(shape, dtype=bool)
        # Each crash row as one opaque ``width``-byte item: comparing
        # two epochs' rows is one elementwise ``==`` over ``(W, R)``.
        row = np.dtype((np.void, width))
        self._zero_rows = self._zero.view(row)[..., 0]
        self._gate = np.ones(shape, dtype=np.float64)
        # The masks a crash window never sets, shared (read-only) by
        # every batch it gathers.
        self._blank = empty_mask_batch(
            self.layer_sizes, self.window * self.n_replicas
        )
        for arrays in (self._blank.set_masks, self._blank.add_masks):
            for a in arrays:
                a.flags.writeable = False
        self._down = np.zeros((self.window, self.n_replicas), dtype=bool)
        self.count = 0
        self._any_gate = False

    def clear(self) -> None:
        """Start a new window."""
        self.count = 0
        if self._any_gate:
            self._gate.fill(1.0)
        self._any_gate = False

    def snapshot(self, state: FleetState) -> None:
        """Record the fleet's health for the current epoch."""
        w = self.count
        if w >= self.window:
            raise RuntimeError("window buffers full; call clear() first")
        zero = self._zero[w]
        np.logical_or(state.crash_flat, state.reset_flat, out=zero)
        if state.has_transients:
            # Permanent damage wins on overlap: a crashed component
            # is not "intermittently" dead.
            gated = (state.transient_flat > 0.0) & ~zero
            if np.count_nonzero(gated):
                zero |= gated
                # The engine's gate_p is the fault's per-evaluation
                # activation probability (1.0 = permanent), exactly
                # the transient hit probability stored in the state.
                np.copyto(
                    self._gate[w], state.transient_flat, where=gated
                )
                self._any_gate = True
        self._down[w] = state.down_now
        self.count += 1

    def skips(self, same_count: Optional[np.ndarray] = None) -> np.ndarray:
        """``(count, R)``: the rows whose error equals the same
        replica's error one epoch earlier, known without evaluation.

        A row qualifies when it has no gate (no draw, so its error is a
        pure function of its crash mask and probe count), its crash
        mask equals the replica's mask one epoch earlier in this
        window, that earlier row had no gate either, and both epochs
        use the same probe count (``same_count[e - 1]`` for epoch ``e``;
        ``None``: a fixed count).  A window's first epoch is always
        evaluated.
        """
        w = self.count
        skip = np.zeros((w, self.n_replicas), dtype=bool)
        skip[1:] = self._zero_rows[1:w] == self._zero_rows[: w - 1]
        if self._any_gate:
            gated = np.any(self._gate[:w] < 1.0, axis=2)
            skip &= ~gated
            skip[1:] &= ~gated[:-1]
        if same_count is not None:
            skip[1:] &= same_count[:, None]
        return skip

    def batch(self, index: np.ndarray) -> CompiledScenarioBatch:
        """The filled rows ``index`` (flat ``epoch * R + replica``
        positions) as one mask batch, in ``index`` order.

        Without any gate in the window the batch has no ``gate_p``; a
        gate-free row of a gated window gets all-ones gates, which the
        mask kernel treats exactly like none: no gated cell, no draw.

        This is the one place that builds a :class:`CompiledScenarioBatch`
        directly instead of through ``empty_mask_batch`` and ``mark``:
        it hands over gathered crash and gate rows as they are, where
        ``mark`` would allocate, OR and copy them again (routed through
        ``mark``, one call of a ``chaos-fleet`` operation took 44–52 µs
        instead of 16–24 µs, and 96–100 µs instead of 29–42 µs with
        gates; an operation makes four).
        """
        sizes, S = self.layer_sizes, index.size
        width = sum(sizes)
        gate = None
        if self._any_gate:
            gate = self._gate.reshape(-1, width)
            gate = layer_columns(gate[index], sizes)
        blank = self._blank
        return CompiledScenarioBatch(
            zero_masks=layer_columns(
                self._zero.reshape(-1, width)[index], sizes
            ),
            set_masks=[a[:S] for a in blank.set_masks],
            set_values=None,
            add_masks=[a[:S] for a in blank.add_masks],
            add_values=None,
            names=[],
            gate_p=gate,
        )

    @property
    def down(self) -> np.ndarray:
        """Downtime cells of the filled rows, shape ``(count, R)``."""
        return self._down[: self.count]


class DeployedNetwork:
    """One replica fleet wired to a streaming engine.

    Owns the :class:`FleetState`, the :class:`EpochWindow` buffers and
    the :class:`~repro.faults.masks.MaskCampaignEngine` (built once —
    weight casts, nominal pass and chunk buffers are paid per fleet,
    not per epoch).  :meth:`evaluate` turns the buffered epochs into
    per-cell output errors, optionally reduced over a per-epoch probe
    count (traffic modulation).
    """

    def __init__(
        self,
        network: FeedForwardNetwork,
        x: np.ndarray,
        n_replicas: int,
        *,
        capacity: "float | None" = None,
        window: int = 32,
        chunk_size: Optional[int] = None,
        dtype: "str | np.dtype" = np.float64,
        engine: Optional[MaskCampaignEngine] = None,
    ):
        self.network = network
        if engine is None:
            capacity = capacity if capacity is not None else network.output_bound
            injector = FaultInjector(network, capacity=capacity)
            engine = MaskCampaignEngine(
                injector,
                x,
                chunk_size=chunk_size or max(int(window) * int(n_replicas), 1),
                dtype=dtype,
            )
        elif engine.network is not network:
            raise ValueError("engine was built for a different network")
        self.engine = engine
        self.state = FleetState(network.layer_sizes, n_replicas)
        self.window = EpochWindow(network.layer_sizes, window, n_replicas)

    @property
    def n_replicas(self) -> int:
        return self.state.n_replicas

    def _row_errors(
        self,
        batch: CompiledScenarioBatch,
        rng,
        counts: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Errors of ``batch``'s rows from one engine call on ``rng``.

        ``counts`` (per row, values in ``1..B``) restricts each row's
        error reduction to its first ``counts[s]`` probes — the
        traffic-modulated probe batch.  Without it the engine's
        streamed reduction over the full probe batch is used (the fast
        path).  Either way a row's error depends only on its own masks,
        draws and count, not on the rows it shares the call with.
        """
        if counts is None:
            return self.engine.evaluate(batch, rng=rng)
        outs = self.engine.outputs(batch, rng=rng)  # (S, B, n_out)
        err = np.abs(
            outs - np.asarray(self.engine.nominal, dtype=np.float64)[None]
        ).max(axis=2)  # (S, B)
        live = np.arange(self.engine.batch_size)[None, :] < counts[:, None]
        err[~live] = -np.inf
        return err.max(axis=1)

    def evaluate(
        self,
        streams: ReplicaStreams,
        probe_counts: Optional[np.ndarray] = None,
    ) -> tuple:
        """Errors of the buffered epochs, shape ``(count, R)``, and the
        engine seconds charged to each replica block.

        ``streams`` holds one generator per replica block.  Consecutive blocks whose window rows
        fit in the engine's chunk share one engine call, each gate draw
        routed to its block's generator, so every block draws what a
        call on its own rows would.  Rows that repeat the replica's
        previous epoch in the window (:meth:`EpochWindow.skips`) are not
        evaluated;
        their error is carried forward.  A block whose window alone
        exceeds the chunk is its own call, every row evaluated and
        sliced at the chunk as a call on that block alone slices it.
        Each call's seconds are split over its blocks by evaluated
        rows.  ``probe_counts`` (per buffered epoch, values in
        ``1..B``) is :meth:`_row_errors`' traffic modulation.
        """
        w, R = self.window.count, self.n_replicas
        counts = None
        same_count = None
        if probe_counts is not None:
            counts = np.asarray(probe_counts, dtype=np.intp)
            if counts.shape != (w,):
                raise ValueError(
                    f"probe_counts shape {counts.shape} != ({w},)"
                )
            B = self.engine.batch_size
            if counts.min() < 1 or counts.max() > B:
                raise ValueError(
                    f"probe counts must lie in 1..{B}, got "
                    f"[{counts.min()}, {counts.max()}]"
                )
            same_count = counts[1:] == counts[:-1]
        skip = self.window.skips(same_count)

        # Groups of consecutive blocks ``[b0, b1)``; ``open_rows``
        # counts the last group's window rows while it can still grow.
        chunk = self.engine.chunk_size
        groups: list = []
        open_rows = None
        for b, rows in enumerate(streams.slices):
            size = w * (rows.stop - rows.start)
            if open_rows is not None and open_rows + size <= chunk:
                groups[-1][1] = b + 1
                open_rows += size
                continue
            groups.append([b, b + 1])
            open_rows = size if size <= chunk else None
            if open_rows is None:
                skip[:, rows] = False  # its own call, evaluated in full

        # Flat ``epoch * R + replica`` positions, block-major and
        # epoch-major within each block: the rows a call on each block
        # alone sees, in block order.
        order = np.concatenate([
            (np.arange(w)[:, None] * R + np.arange(rows.start, rows.stop))
            .ravel()
            for rows in streams.slices
        ])
        keep = ~skip.reshape(-1)[order]
        done = np.concatenate(([0], np.cumsum(keep)))
        errors = np.empty((w, R))
        seconds = np.zeros(len(streams.generators))
        for b0, b1 in groups:
            lo, hi = w * streams.bounds[b0], w * streams.bounds[b1]
            index = order[lo:hi][keep[lo:hi]]
            evaluated = np.diff(done[w * streams.bounds[b0 : b1 + 1]])
            t0 = time.perf_counter()
            errors.reshape(-1)[index] = self._row_errors(
                self.window.batch(index),
                ReplicaStreams(streams.generators[b0:b1], evaluated),
                None if counts is None else counts[index // R],
            )
            dt = time.perf_counter() - t0
            seconds[b0:b1] += dt * evaluated / index.size

        for e in np.flatnonzero(skip.any(axis=1)):
            np.copyto(errors[e], errors[e - 1], where=skip[e])
        return errors, seconds
