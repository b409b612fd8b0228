"""Fork-once process pools and lazy, bounded job streaming.

Every parallel path in this repo is embarrassingly parallel at the
grain of "one chunk of work", but the seed implementation paid two
avoidable costs:

* the *payload* cost — each submitted job carried a pickled copy of
  the immutable shared state (the network, the probe batch), so a
  1000-chunk campaign serialised the network 1000 times;
* the *materialisation* cost — ``Executor.map`` over a fully built
  job list forces every chunk (and every scenario inside it) into
  memory before the first result returns.

This module fixes both patterns once, for every caller:

* :func:`fork_once_pool` builds a ``ProcessPoolExecutor`` whose
  *initializer* receives the shared state exactly once per worker;
  jobs afterwards carry only small per-chunk payloads (indices, RNG
  seeds);
* :func:`bounded_map` is an ordered ``imap`` with a bounded window of
  in-flight futures: the job iterable is consumed lazily, so a
  million-scenario campaign keeps O(window x chunk) state instead of
  O(total).

The campaign drivers (Monte-Carlo, exhaustive, adaptive, chaos and
object-scenario campaigns) do not call these directly: they share one
block driver, :func:`repro.faults.masks._run_blocks`, which owns the
pool, the worker body, per-block observation payloads and early stops.
:func:`bounded_map` yielding strictly in submission order is what lets
that driver fold worker payloads in serial order, and closing it
cancels the jobs no worker has picked up, so an early stop discards at
most the blocks already handed out.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

__all__ = ["default_workers", "fork_once_pool", "worker_state", "bounded_map"]


def default_workers() -> int:
    """A sensible process count: cores - 1, at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)


#: Per-worker shared state, populated once by the pool initializer.
_WORKER_STATE: dict = {}


def _init_worker(builder, build_args):  # pragma: no cover - subprocess body
    _WORKER_STATE.clear()  # a reused worker must not leak a prior pool's state
    _WORKER_STATE.update(builder(*build_args))


def worker_state() -> dict:
    """The dict built by this worker's :func:`fork_once_pool` builder."""
    return _WORKER_STATE


def fork_once_pool(
    n_workers: int,
    builder: Callable[..., dict],
    build_args: Sequence[Any] = (),
) -> ProcessPoolExecutor:
    """A process pool that ships shared state to each worker exactly once.

    ``builder(*build_args)`` runs in every worker at spawn time and
    returns a dict of shared objects (the expensive payload — networks,
    engines, probe batches), readable in job functions via
    :func:`worker_state`.  Jobs submitted afterwards should carry only
    per-chunk payloads.  The caller owns the pool (use it as a context
    manager); ``builder`` and ``build_args`` must be picklable.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_init_worker,
        initargs=(builder, tuple(build_args)),
    )


def bounded_map(
    pool: ProcessPoolExecutor,
    fn: Callable[[Any], Any],
    jobs: Iterable[Any],
    *,
    window: Optional[int] = None,
) -> Iterator[Any]:
    """Ordered ``imap`` with at most ``window`` jobs in flight.

    Unlike ``Executor.map``, the ``jobs`` iterable is consumed lazily:
    a new job is submitted only when a slot frees up, so an unbounded
    scenario stream never gets materialised.  Results are yielded in
    submission order.  Closing the generator early (a consumer that
    stops reading) cancels every submitted job that has not started.
    """
    if window is None:
        window = 2 * (pool._max_workers or 1)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    pending: deque = deque()
    try:
        for job in jobs:
            pending.append(pool.submit(fn, job))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
