"""The resident campaign service: an asyncio daemon serving spec jobs.

:class:`CampaignService` is the serving layer over ``repro.run``: a
single event loop accepts JSONL connections (unix socket or loopback
TCP per :class:`~repro.specs.ServiceSpec`), validates every submitted
payload through the strict spec parsers, and answers each submit with
exactly one terminal message.  The job lifecycle composes four layers,
in order:

1. **Admission** — a bounded queue (``queue_depth``) feeds
   ``max_inflight`` runner tasks.  A full queue sheds the submit with
   a typed ``rejected`` response; a draining daemon rejects everything
   new.  Nothing ever blocks the event loop waiting for capacity.
2. **Coalescing** — jobs are keyed by the spec's ``content_hash``; a
   submit that matches an in-flight job attaches as a subscriber
   instead of spawning a second evaluation.  N identical concurrent
   submissions cost one engine run.
3. **Cache** — before queueing, the spec hash is looked up in a
   bounded in-memory LRU and then in the
   :class:`~repro.artifacts.ArtifactStore` run index
   (``results_dir``).  Hits answer immediately, no engine call.
4. **Evaluation** — runner tasks hand the spec to ``repro.run`` on a
   thread pool (the engines are numpy-bound and release the GIL in
   the kernels; the loop stays responsive).  A per-job timeout turns
   a stuck evaluation into a typed ``timeout`` response.

Streaming rides the observability plane: the job's
:class:`_StreamingObserver` (a :class:`~repro.obs.RunObserver`) emits
one ``chunk`` event per evaluated SAMPLE_BLOCK / epoch window — the
same block spans the trace records, serial or fan-out — plus an
``adaptive`` event when a confidence sequence stops early.  Because
observation draws no randomness, a streamed, daemon-served result is
bitwise identical to a direct ``repro.run(spec)``.

Service health is a :class:`~repro.obs.MetricsRegistry` — queue depth,
in-flight gauge, coalesce/cache/shed counters, a job-latency histogram
— served as OpenMetrics text by the ``metrics`` op.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..artifacts import ArtifactStore
from ..obs import MetricsRegistry, RunObserver, render_openmetrics
from ..specs import (
    CampaignSpec,
    ChaosSpec,
    ServiceSpec,
    Spec,
    SpecError,
    SurvivalSpec,
    run,
    spec_from_dict,
)
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    parse_request,
    result_payload,
)

__all__ = ["CampaignService", "ServiceThread", "DEFAULT_SOCKET"]

#: Default unix-socket path when the spec names no endpoint.
DEFAULT_SOCKET = "repro-service.sock"

#: The workload kinds the daemon evaluates.
RUNNABLE_SPECS = (CampaignSpec, SurvivalSpec, ChaosSpec)

#: Schema version of the persisted run-result records.
RUN_RECORD_VERSION = 1

#: Listen backlog — sized for benchmark-scale connect bursts (>= 1000
#: concurrent clients), not the kernel default of ~100.
LISTEN_BACKLOG = 2048

#: Job-latency histogram buckets (seconds) — service jobs span
#: sub-millisecond cache hits to multi-second chaos campaigns.
LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


class _StreamingObserver(RunObserver):
    """A run observer that narrates chunk progress onto the wire.

    Progress becomes visible in exactly three places, all already
    instrumented by the obs subsystem: the serial chunk loops call
    :meth:`block_span`, fan-out parents :meth:`absorb` one worker
    payload per block (in submission order), and the adaptive layer
    calls :meth:`record_adaptive` with its stop decision.  Overriding
    those three seams streams every workload kind without touching an
    engine.  ``emit`` is called from the job thread; the daemon wraps
    it in ``call_soon_threadsafe``.
    """

    def __init__(self, emit: Callable[[Dict[str, Any]], None]):
        super().__init__(events=True)
        self._emit = emit
        self._evaluated = 0

    def _chunk(self, index: int, scenarios: int) -> None:
        self._evaluated += scenarios
        self._emit(
            {
                "type": "chunk",
                "index": index,
                "scenarios": scenarios,
                "evaluated": self._evaluated,
            }
        )

    @contextmanager
    def block_span(self, index: int, scenarios: int, **attrs):
        with super().block_span(index, scenarios, **attrs):
            yield
        self._chunk(int(index), int(scenarios))

    def absorb(self, payload) -> None:
        super().absorb(payload)
        for span in payload.get("spans", ()):
            if span.get("name") == "block":
                attrs = span.get("attrs", {})
                self._chunk(
                    int(attrs.get("index", -1)),
                    int(attrs.get("scenarios", 0)),
                )

    def record_adaptive(self, report) -> None:
        super().record_adaptive(report)
        self._emit(
            {
                "type": "adaptive",
                "method": report.method,
                "stopped": bool(report.stopped),
                "n_scenarios": int(report.n_scenarios),
                "n_cap": int(report.n_cap),
                "estimate": float(report.estimate),
                "ci_low": float(report.ci_low),
                "ci_high": float(report.ci_high),
            }
        )


class _Job:
    """One in-flight evaluation; subscribers share its event stream."""

    __slots__ = (
        "spec",
        "spec_hash",
        "timeout",
        "created",
        "subscribers",
        "finished",
        "terminal",
    )

    def __init__(self, spec: Spec, spec_hash: str, timeout: Optional[float]):
        self.spec = spec
        self.spec_hash = spec_hash
        self.timeout = timeout
        self.created = time.perf_counter()
        self.subscribers: List[asyncio.Queue] = []
        self.finished = asyncio.Event()
        self.terminal: Optional[Dict[str, Any]] = None

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        if self.terminal is not None:  # finished between lookup and attach
            queue.put_nowait(self.terminal)
        else:
            self.subscribers.append(queue)
        return queue


_STOP = object()  # runner-task poison pill


class CampaignService:
    """The daemon: admission -> coalesce -> cache -> engine -> stream."""

    def __init__(
        self, spec: ServiceSpec, *, store: Optional[ArtifactStore] = None
    ):
        if store is None and spec.results_dir is not None:
            store = ArtifactStore(spec.results_dir)
        self.spec = spec
        self.store = store
        self.metrics = MetricsRegistry()
        self._jobs: Dict[str, _Job] = {}
        self._cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._cache_lock = threading.Lock()
        self._queue: Optional[asyncio.Queue] = None
        self._runners: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._deliveries = 0  # submit conversations mid-flight
        self._stopped: Optional[asyncio.Event] = None
        self.started = threading.Event()  # set once the endpoint listens

    # -- metrics handles ---------------------------------------------------

    def _count(self, name: str, help: str, n: int = 1, **labels) -> None:
        self.metrics.counter(name, help, **labels).inc(n)

    def _observe_latency(self, seconds: float) -> None:
        self.metrics.histogram(
            "repro_service_job_seconds",
            buckets=LATENCY_BUCKETS,
            help="Submit-to-terminal latency per job.",
        ).observe(seconds)

    def _set_gauges(self) -> None:
        self.metrics.gauge(
            "repro_service_queue_depth", "Jobs waiting for a runner."
        ).set(self._queue.qsize() if self._queue is not None else 0)
        self.metrics.gauge(
            "repro_service_inflight", "Jobs admitted and not yet terminal."
        ).set(len(self._jobs))

    # -- the endpoint ------------------------------------------------------

    @property
    def endpoint(self) -> str:
        if self.spec.port is not None:
            return f"{self.spec.host}:{self.spec.port}"
        return self.spec.socket or DEFAULT_SOCKET

    async def serve(self) -> None:
        """Bind the endpoint and serve until a shutdown op arrives."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._queue = asyncio.Queue(maxsize=self.spec.queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=self.spec.max_inflight,
            thread_name_prefix="repro-job",
        )
        self._runners = [
            asyncio.ensure_future(self._runner())
            for _ in range(self.spec.max_inflight)
        ]
        socket_path: Optional[Path] = None
        if self.spec.port is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.spec.host,
                port=self.spec.port, backlog=LISTEN_BACKLOG,
                limit=MAX_LINE_BYTES,
            )
        else:
            socket_path = Path(self.spec.socket or DEFAULT_SOCKET)
            socket_path.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(OSError):
                socket_path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(socket_path),
                backlog=LISTEN_BACKLOG, limit=MAX_LINE_BYTES,
            )
        self.started.set()
        try:
            async with self._server:
                await self._stopped.wait()
        finally:
            for _ in self._runners:
                with contextlib.suppress(asyncio.QueueFull):
                    self._queue.put_nowait(_STOP)
            for task in self._runners:
                task.cancel()
            await asyncio.gather(*self._runners, return_exceptions=True)
            self._executor.shutdown(wait=False, cancel_futures=True)
            if socket_path is not None:
                with contextlib.suppress(OSError):
                    socket_path.unlink()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except ValueError:
                    # The stream's ``limit`` is MAX_LINE_BYTES: a longer
                    # frame cannot be parsed or resynchronised, so answer
                    # once with a typed error and close.
                    await self._send(
                        writer, self._error("frame too large", kind="protocol")
                    )
                    break
                if not line:
                    break
                try:
                    request = parse_request(line)
                except ProtocolError as exc:
                    await self._send(
                        writer, self._error(str(exc), kind="protocol")
                    )
                    continue
                op = request["op"]
                if op == "ping":
                    await self._send(writer, self._pong())
                elif op == "metrics":
                    self._set_gauges()
                    await self._send(
                        writer,
                        {
                            "type": "metrics",
                            "protocol": PROTOCOL_VERSION,
                            "openmetrics": render_openmetrics(self.metrics),
                        },
                    )
                elif op == "shutdown":
                    await self._handle_shutdown(request, writer)
                    break
                else:
                    self._deliveries += 1
                    try:
                        await self._handle_submit(request, writer)
                    finally:
                        self._deliveries -= 1
        except (ConnectionError, asyncio.CancelledError):
            # Client went away mid-conversation, or the loop is tearing
            # down an idle connection; either way, end quietly.
            pass
        finally:
            writer.close()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await writer.wait_closed()

    async def _send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        writer.write(encode(message))
        await writer.drain()

    def _error(self, detail: str, *, kind: str) -> Dict[str, Any]:
        self._count(
            "repro_service_errors", "Error responses by kind.", kind=kind
        )
        return {
            "type": "error",
            "protocol": PROTOCOL_VERSION,
            "kind": kind,
            "detail": detail,
        }

    def _pong(self) -> Dict[str, Any]:
        return {
            "type": "pong",
            "protocol": PROTOCOL_VERSION,
            "inflight": len(self._jobs),
            "queued": self._queue.qsize() if self._queue is not None else 0,
            "draining": self._draining,
        }

    # -- submit: cache -> coalesce -> admit --------------------------------

    async def _handle_submit(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        self._count("repro_service_submits", "Submit requests received.")
        try:
            spec = spec_from_dict(request["spec"])
        except SpecError as exc:
            await self._send(writer, self._error(str(exc), kind="spec"))
            return
        if not isinstance(spec, RUNNABLE_SPECS):
            await self._send(
                writer,
                self._error(
                    f"{type(spec).__name__} is not a servable workload",
                    kind="spec",
                ),
            )
            return
        spec_hash = spec.content_hash()
        stream = bool(request.get("stream", False))

        cached = await self._cache_lookup(spec_hash)
        if cached is not None:
            await self._send(
                writer,
                self._accepted(spec_hash, cached=True, coalesced=False),
            )
            await self._send(
                writer,
                self._terminal_result(cached, cached=True, coalesced=False),
            )
            return

        job = self._jobs.get(spec_hash)
        coalesced = job is not None
        if coalesced:
            self._count(
                "repro_service_coalesce_hits",
                "Submits attached to an in-flight identical job.",
            )
        else:
            if self._draining:
                self._count(
                    "repro_service_rejected",
                    "Submits rejected by admission control.",
                    reason="shutting-down",
                )
                await self._send(
                    writer, self._rejected("shutting-down")
                )
                return
            job = _Job(spec, spec_hash, request.get("timeout"))
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self._count(
                    "repro_service_rejected",
                    "Submits rejected by admission control.",
                    reason="queue-full",
                )
                self._count(
                    "repro_service_shed", "Jobs shed by a full queue."
                )
                await self._send(writer, self._rejected("queue-full"))
                return
            self._jobs[spec_hash] = job
        self._set_gauges()

        subscription = job.subscribe()
        await self._send(
            writer,
            self._accepted(spec_hash, cached=False, coalesced=coalesced),
        )
        while True:
            event = await subscription.get()
            if event.get("type") in ("chunk", "adaptive") and not stream:
                continue
            await self._send(writer, event)
            if event.get("type") not in ("chunk", "adaptive"):
                break

    def _accepted(
        self, spec_hash: str, *, cached: bool, coalesced: bool
    ) -> Dict[str, Any]:
        return {
            "type": "accepted",
            "protocol": PROTOCOL_VERSION,
            "job": spec_hash,
            "cached": cached,
            "coalesced": coalesced,
        }

    def _rejected(self, reason: str) -> Dict[str, Any]:
        return {
            "type": "rejected",
            "protocol": PROTOCOL_VERSION,
            "reason": reason,
            "queue_depth": self.spec.queue_depth,
        }

    def _terminal_result(
        self, payload: Dict[str, Any], *, cached: bool, coalesced: bool
    ) -> Dict[str, Any]:
        return {
            "type": "result",
            "protocol": PROTOCOL_VERSION,
            "cached": cached,
            "coalesced": coalesced,
            "result": payload,
        }

    # -- the result cache --------------------------------------------------

    async def _cache_lookup(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        with self._cache_lock:
            payload = self._cache.get(spec_hash)
            if payload is not None:
                self._cache.move_to_end(spec_hash)
        if payload is not None:
            self._count(
                "repro_service_cache_hits",
                "Submits answered from the result cache.",
                tier="memory",
            )
            return payload
        if self.store is None:
            return None
        record = await self._loop.run_in_executor(
            None, self.store.load_run_result, spec_hash
        )
        if record is None or record.get("version") != RUN_RECORD_VERSION:
            return None
        payload = record["result"]
        self._cache_put(spec_hash, payload)
        self._count(
            "repro_service_cache_hits",
            "Submits answered from the result cache.",
            tier="store",
        )
        return payload

    def _cache_put(self, spec_hash: str, payload: Dict[str, Any]) -> None:
        if self.spec.cache_entries == 0:
            return
        with self._cache_lock:
            self._cache[spec_hash] = payload
            self._cache.move_to_end(spec_hash)
            while len(self._cache) > self.spec.cache_entries:
                self._cache.popitem(last=False)

    # -- runners -----------------------------------------------------------

    async def _runner(self) -> None:
        while True:
            job = await self._queue.get()
            if job is _STOP:
                return
            await self._run_job(job)

    async def _run_job(self, job: _Job) -> None:
        self._set_gauges()

        def emit(event: Dict[str, Any]) -> None:
            try:
                self._loop.call_soon_threadsafe(self._publish, job, event)
            except RuntimeError:  # loop closed; a timed-out job's thread
                pass              # outlived the daemon — drop the event

        future = self._loop.run_in_executor(
            self._executor, self._evaluate, job, emit
        )
        timeout = job.timeout or self.spec.job_timeout
        try:
            payload = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            # The evaluation thread cannot be interrupted; it keeps
            # running and its (still-correct) result lands in the
            # cache on completion, but this job answers now.
            future.add_done_callback(lambda f: f.exception())
            self._finish(
                job,
                {
                    "type": "timeout",
                    "protocol": PROTOCOL_VERSION,
                    "job": job.spec_hash,
                    "timeout_s": timeout,
                },
                outcome="timeout",
            )
            return
        except Exception as exc:  # engine/spec failures become typed errors
            self._finish(
                job, self._error(str(exc), kind="internal"), outcome="error"
            )
            return
        self._finish(
            job,
            self._terminal_result(payload, cached=False, coalesced=False),
            outcome="completed",
        )

    def _evaluate(
        self, job: _Job, emit: Callable[[Dict[str, Any]], None]
    ) -> Dict[str, Any]:
        """Thread body: run the engines, encode, write through the cache."""
        obs = _StreamingObserver(emit)
        outcome = run(job.spec, obs=obs)
        payload = result_payload(job.spec, outcome)
        self._count(
            "repro_service_engine_runs", "Engine evaluations executed."
        )
        self._cache_put(job.spec_hash, payload)
        if self.store is not None:
            self.store.save_run_result(
                job.spec_hash,
                {
                    "version": RUN_RECORD_VERSION,
                    "spec_hash": job.spec_hash,
                    "kind": job.spec.spec_tag,
                    "spec": job.spec.to_dict(),
                    "result": payload,
                },
            )
        return payload

    def _publish(self, job: _Job, event: Dict[str, Any]) -> None:
        for queue in job.subscribers:
            queue.put_nowait(event)

    def _finish(
        self, job: _Job, terminal: Dict[str, Any], *, outcome: str
    ) -> None:
        self._count(
            "repro_service_jobs", "Finished jobs by outcome.", outcome=outcome
        )
        self._observe_latency(time.perf_counter() - job.created)
        if self._jobs.get(job.spec_hash) is job:
            del self._jobs[job.spec_hash]
        job.terminal = terminal
        self._publish(job, terminal)
        job.subscribers = []
        job.finished.set()
        self._set_gauges()

    # -- shutdown ----------------------------------------------------------

    async def _handle_shutdown(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        drain = bool(request.get("drain", True))
        self._draining = True
        drained = 0
        if drain:
            while self._jobs:
                job = next(iter(self._jobs.values()))
                await job.finished.wait()
                drained += 1
            # Jobs are terminal; now let their results finish crossing
            # the wire (a drained job with an undelivered answer is not
            # drained).
            while self._deliveries:
                await asyncio.sleep(0.005)
        with contextlib.suppress(ConnectionError):
            await self._send(
                writer,
                {
                    "type": "shutdown-ack",
                    "protocol": PROTOCOL_VERSION,
                    "drained": drained,
                },
            )
        self._stopped.set()

    def request_shutdown(self) -> None:
        """Stop serving from outside the loop (signal handlers, tests)."""
        if self._loop is not None and self._stopped is not None:
            try:
                self._loop.call_soon_threadsafe(self._stopped.set)
            except RuntimeError:  # loop already closed: nothing to stop
                pass


class ServiceThread:
    """A daemon running on a background thread — tests, benches, smoke.

    ``with ServiceThread(spec) as service:`` starts the loop, waits for
    the endpoint to listen, and on exit requests shutdown and joins.
    """

    def __init__(
        self, spec: ServiceSpec, *, store: Optional[ArtifactStore] = None
    ):
        self.service = CampaignService(spec, store=store)
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.service.serve()),
            name="repro-service",
            daemon=True,
        )

    def __enter__(self) -> CampaignService:
        self._thread.start()
        if not self.service.started.wait(timeout=10.0):
            raise RuntimeError("service failed to start within 10s")
        return self.service

    def __exit__(self, *exc_info) -> None:
        self.service.request_shutdown()
        self._thread.join(timeout=10.0)
