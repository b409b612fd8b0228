"""Deployed-fleet state and its lowering onto the campaign engine.

A chaos campaign watches ``R`` independent replicas of one trained
network serve traffic over discrete epochs while fault processes
(:mod:`repro.chaos.processes`) degrade them and repair policies
(:mod:`repro.chaos.policies`) heal them.  Two classes carry that
story:

* :class:`FleetState` — the mutable health of the fleet at one epoch:
  cumulative crash masks, component ages, per-epoch transient gates,
  per-epoch boosted-reset masks (rejuvenation) and repair downtime.
  Each channel is one flat ``(R, ΣN_l)`` array with per-layer column
  views, mutated in place by processes and policies — no per-replica
  Python objects;
* :class:`EpochWindow` — the bridge to the engine: it snapshots the
  fleet once per epoch into preallocated ``(W, R, ΣN_l)`` buffers and
  compiles a window of ``W`` epochs into **one**
  :class:`~repro.faults.injector.CompiledScenarioBatch` of
  ``W * R`` scenario rows (epoch-major), so the whole fleet × time
  grid streams through a single
  :class:`~repro.faults.masks.MaskCampaignEngine` evaluation — never
  per-scenario Python.

Everything temporal lowers onto exactly two engine channels: permanent
damage (crashes, blasts) and rejuvenation resets are crash (``zero``)
masks; transient bursts are crash masks Bernoulli-gated by ``gate_p``.
That is what keeps the chaos subsystem a thin layer: the fault
*semantics* live in one place (``apply_mask_channels``), shared with
every other campaign in the repo.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..faults.injector import CompiledScenarioBatch, FaultInjector
from ..faults.masks import MaskCampaignEngine, empty_mask_batch
from ..network.model import FeedForwardNetwork

__all__ = ["FleetState", "EpochWindow", "DeployedNetwork"]


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

    ``snapshot`` copies the fleet's flat channels into row ``w`` (one
    call per channel, whatever the depth); ``compile`` reshapes the
    filled rows into a ``(w * R, ΣN_l)`` block and hands the engine
    its per-layer column views (epoch-major: scenario ``k`` is epoch
    ``k // R``, replica ``k % R``) without touching per-scenario
    Python.
    """

    def __init__(self, layer_sizes: Sequence[int], window: int, n_replicas: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.window = int(window)
        self.n_replicas = int(n_replicas)
        shape = (self.window, self.n_replicas, sum(self.layer_sizes))
        self._zero = np.zeros(shape, dtype=bool)
        self._gate = np.ones(shape, dtype=np.float64)
        self._down = np.zeros(shape[:2], dtype=bool)
        self.count = 0
        self._any_gate = False

    def clear(self) -> None:
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
                np.copyto(self._gate[w], state.transient_flat, where=gated)
                self._any_gate = True
        self._down[w] = state.down_now
        self.count += 1

    def compile(self) -> CompiledScenarioBatch:
        """The filled rows as one mask batch of ``count * R`` scenarios."""
        w, R = self.count, self.n_replicas
        S = w * R
        sizes = self.layer_sizes
        batch = empty_mask_batch(sizes, S)
        batch.zero_masks = layer_columns(self._zero[:w].reshape(S, -1), sizes)
        if self._any_gate:
            batch.gate_p = layer_columns(self._gate[:w].reshape(S, -1), sizes)
        return batch

    @property
    def down(self) -> np.ndarray:
        """Downtime cells of the filled rows, shape ``(count, R)``."""
        return self._down[: self.count]


class DeployedNetwork:
    """One replica fleet wired to a streaming engine.

    Owns the :class:`FleetState`, the :class:`EpochWindow` buffers and
    the :class:`~repro.faults.masks.MaskCampaignEngine` (built once —
    weight casts, nominal pass and chunk buffers are paid per fleet,
    not per epoch).  ``evaluate_window`` turns the buffered epochs
    into per-cell output errors, optionally reduced over a per-epoch
    probe count (traffic modulation).
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

    def evaluate_window(
        self,
        rng: np.random.Generator,
        probe_counts: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Errors of the buffered epochs, shape ``(count, R)``.

        ``probe_counts`` (per buffered epoch, values in ``1..B``)
        restricts each epoch's error reduction to its first ``n_e``
        probes — the traffic-modulated probe batch.  Without it the
        engine's streamed reduction over the full probe batch is used
        (the fast path).
        """
        w, R = self.window.count, self.n_replicas
        batch = self.window.compile()
        if probe_counts is None:
            return self.engine.evaluate(batch, rng=rng).reshape(w, R)
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
        outs = self.engine.outputs(batch, rng=rng)  # (S, B, n_out)
        err = np.abs(
            outs - np.asarray(self.engine.nominal, dtype=np.float64)[None]
        ).max(axis=2)  # (S, B)
        live = np.arange(B)[None, :] < np.repeat(counts, R)[:, None]
        err[~live] = -np.inf
        return err.max(axis=1).reshape(w, R)
