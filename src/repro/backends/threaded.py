"""The ``threaded`` backend: chunk evaluation tiled over a thread pool.

The hot campaign loop — GEMM, segment-sum synapse corrections, mask
channels — spends nearly all its time inside NumPy calls that release
the GIL, so a thread pool scales it without the fork-once machinery's
per-process network copies.  :class:`ThreadedMaskEngine` keeps one
:class:`~repro.faults.masks.MaskCampaignEngine` per pool thread (each
with its own activation buffers and workspace), splits every batch
into fixed tiles, and evaluates tiles concurrently.

Determinism contract: the tile layout and the per-tile generators
depend only on the batch size and the engine's tile width — never on
the pool size or scheduling order — so results are identical across
worker counts (``serial == threaded``).  Deterministic fault batches
are additionally bitwise-identical to the ``numpy`` backend: every
scenario's arithmetic (stacked GEMMs, rank-k route) is independent of
the slice it shares, so the tile layout is immaterial.  Stochastic
batches draw from per-tile spawned generators, so they are
reproducible for a fixed seed but follow a different (equally
distributed) stream than the serial engine.
"""

from __future__ import annotations

import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter as _perf_counter
from typing import List, Optional

import numpy as np

from ..faults.masks import MaskCampaignEngine
from ..profiling import PhaseProfile
from . import register_backend

__all__ = ["ThreadedMaskEngine"]

#: Default tile width: small enough to keep all threads busy on one
#: SAMPLE_BLOCK-sized batch, large enough to amortise slice overhead.
DEFAULT_TILE = 256


class ThreadedMaskEngine:
    """Evaluates mask batches by tiling slices over a thread pool.

    Drop-in for :class:`MaskCampaignEngine` wherever an ``engine=`` is
    accepted: exposes the same evaluation methods and the attributes
    the campaign runners guard on.  ``workers=0`` sizes the pool from
    ``os.cpu_count()``.

    When :attr:`profile` is set the tiles run serially on one member
    engine (phase timers are not thread-safe); the tile layout and
    draw streams are unchanged, so profiling never changes results.
    When :attr:`obs` (a :class:`~repro.obs.RunObserver`) is *also*
    set, the pool stays tile-parallel instead: each member engine
    charges a private per-call profile folded into :attr:`profile`
    afterwards, and every tile records its queue wait and per-worker
    busy time into the observer's metrics (timing-valued, hence
    scheduling-dependent — the numeric results stay deterministic).
    """

    def __init__(
        self,
        injector,
        x: np.ndarray,
        *,
        chunk_size: int = 1024,
        reduction: str = "max",
        dtype: "str | np.dtype" = np.float64,
        workers: int = 0,
        tile: Optional[int] = None,
    ):
        n = int(workers) if workers else (os.cpu_count() or 1)
        self.workers = max(1, min(n, 32))
        self._engines: List[MaskCampaignEngine] = [
            MaskCampaignEngine(
                injector, x, chunk_size=chunk_size, reduction=reduction,
                dtype=dtype,
            )
            for _ in range(self.workers)
        ]
        lead = self._engines[0]
        self.injector = lead.injector
        self.network = lead.network
        self.capacity = lead.capacity
        self.chunk_size = lead.chunk_size
        self.reduction = lead.reduction
        self.dtype = lead.dtype
        self.xb64 = lead.xb64
        self.xb = lead.xb
        self.batch_size = lead.batch_size
        self.tile = int(tile) if tile else min(DEFAULT_TILE, self.chunk_size)
        if self.tile < 1:
            raise ValueError(f"tile must be >= 1, got {self.tile}")
        self.profile = None
        self.obs = None
        self._obs_lock = threading.Lock()
        self._engine_index = {id(e): i for i, e in enumerate(self._engines)}
        self._pool: Optional[ThreadPoolExecutor] = None
        # Engines are borrowed through this queue; the pool never runs
        # more than ``workers`` tasks at once, so a get() always finds
        # a free engine without blocking.
        self._idle: "queue.SimpleQueue[MaskCampaignEngine]" = queue.SimpleQueue()
        for eng in self._engines:
            self._idle.put(eng)

    # -- internals ---------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="mask-engine",
            )
        return self._pool

    def _tiles(self, S: int):
        return [(lo, min(lo + self.tile, S)) for lo in range(0, S, self.tile)]

    def _tile_rngs(self, batch, rng, n_tiles):
        """Per-tile generators for stochastic batches (spawned in tile
        order, so the streams depend only on the layout), else Nones."""
        if not batch.is_stochastic:
            return [None] * n_tiles
        rng = self._engines[0]._resolve_rng(batch, rng)
        return rng.spawn(n_tiles)

    def _eval_tile(self, batch, lo, hi, trng, want_outputs):
        obs = self.obs
        if obs is None:
            eng = self._idle.get()
            try:
                return eng._evaluate_slice(batch, lo, hi, want_outputs, trng)
            finally:
                self._idle.put(eng)
        t0 = _perf_counter()
        eng = self._idle.get()
        wait = _perf_counter() - t0
        t1 = _perf_counter()
        try:
            return eng._evaluate_slice(batch, lo, hi, want_outputs, trng)
        finally:
            busy = _perf_counter() - t1
            self._idle.put(eng)
            worker = self._engine_index[id(eng)]
            with self._obs_lock:
                obs.metrics.histogram(
                    "repro_tile_queue_wait_seconds",
                    help="Seconds each tile waited for a free member engine.",
                ).observe(wait)
                obs.metrics.counter(
                    "repro_tiles",
                    "Tiles evaluated, by pool member.",
                    worker=worker,
                ).inc()
                obs.metrics.counter(
                    "repro_tile_busy_seconds",
                    "Evaluation seconds, by pool member (utilization).",
                    worker=worker,
                ).inc(busy)

    def _run(self, batch, want_outputs, rng):
        S = batch.num_scenarios
        tiles = self._tiles(S)
        rngs = self._tile_rngs(batch, rng, len(tiles))
        fold_profile = None
        if (
            self.profile is not None and self.obs is None
        ) or self.workers == 1 or len(tiles) == 1:
            lead = self._engines[0]
            prev = lead.profile
            lead.profile = self.profile
            try:
                return [
                    lead._evaluate_slice(batch, lo, hi, want_outputs, trng)
                    for (lo, hi), trng in zip(tiles, rngs)
                ]
            finally:
                lead.profile = prev
        if self.profile is not None:
            # Observed run: stay tile-parallel; each member engine
            # charges a private profile, folded below in engine order.
            fold_profile = self.profile
            for eng in self._engines:
                eng.profile = PhaseProfile()
        pool = self._ensure_pool()
        try:
            futures = [
                pool.submit(
                    self._eval_tile, batch, lo, hi, trng, want_outputs
                )
                for (lo, hi), trng in zip(tiles, rngs)
            ]
            return [f.result() for f in futures]
        finally:
            if fold_profile is not None:
                for eng in self._engines:
                    fold_profile.add_dict(eng.profile.as_dict())
                    eng.profile = None

    # -- public API --------------------------------------------------------

    def evaluate(self, batch, *, rng=None) -> np.ndarray:
        """Per-scenario output errors ``(S,)``; tile-parallel."""
        if batch.num_scenarios == 0:
            return np.empty(0, dtype=np.float64)
        pieces = self._run(batch, False, rng)
        return np.concatenate(pieces).astype(np.float64, copy=False)

    def outputs(self, batch, *, rng=None) -> np.ndarray:
        """Faulty outputs ``(S, B, n_outputs)``; tile-parallel."""
        if batch.num_scenarios == 0:
            return np.empty((0, self.batch_size, self.network.n_outputs))
        return np.concatenate(self._run(batch, True, rng))

    @property
    def nominal(self) -> np.ndarray:
        return self._engines[0].nominal

    def close(self) -> None:
        """Shut the pool down (idempotent); the engine stays usable —
        the next evaluation simply rebuilds the pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _threaded_engine(injector, x, *, chunk_size, reduction, dtype, workers):
    return ThreadedMaskEngine(
        injector, x, chunk_size=chunk_size, reduction=reduction, dtype=dtype,
        workers=workers,
    )


register_backend("threaded", _threaded_engine)
