"""Artifact store: persist experiment results, cache unchanged re-runs.

The registry (:mod:`repro.experiments.registry`) says *what* can run;
this module makes every run durable and resumable:

* each :class:`~repro.experiments.runner.ExperimentResult` is persisted
  as a JSON artifact under ``<root>/artifacts/<id>.json`` (rows, shape
  checks, metrics, notes — :meth:`ExperimentResult.to_dict`);
* ``<root>/manifest.json`` records, per experiment, the provenance the
  report needs: content key, git SHA, seed, dtype, wall time, the
  shape-check outcomes, and where the artifact lives — plus running
  store-wide cache hit/miss totals (``manifest["cache"]``), surfaced
  by ``repro report``;
* the **content key** is a hash of the experiment module's source plus
  the call parameters.  Re-running an experiment whose source and
  parameters are unchanged is a *cache hit*: the stored result is
  loaded and reported as cached, nothing is executed.  Editing the
  module (or passing different parameters, or ``force=True``)
  invalidates exactly that experiment.

``repro run-all`` drives this store over the whole registry —
optionally in parallel over the fork-once pool — and ``repro report``
renders the manifest into EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from .experiments.registry import RegisteredExperiment
    from .experiments.runner import ExperimentResult

__all__ = [
    "ArtifactStore",
    "RunOutcome",
    "content_key",
    "current_git_sha",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "LOCK_NAME",
    "jsonable",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: Cross-process mutex guarding manifest read-modify-write sequences.
LOCK_NAME = ".manifest.lock"


def jsonable(value: Any) -> Any:
    """Recursively convert a result value into plain JSON types.

    Rows and metrics routinely carry numpy scalars/arrays and tuples;
    the artifact store persists results as JSON, so everything lowers
    to (str, int, float, bool, None, list, dict).  Non-finite floats
    survive as strings (JSON has no inf/nan).
    """
    import numpy as np

    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            # 0-d arrays: tolist() yields a bare scalar, which the
            # list comprehension below would try to iterate.  Unwrap
            # through the scalar path so non-finite values still get
            # the string treatment instead of corrupting the payload.
            return jsonable(value[()])
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


@contextmanager
def _file_lock(path: Path, *, timeout: float = 30.0, stale_after: float = 60.0):
    """A cross-process mutex: ``O_CREAT | O_EXCL`` on a lockfile.

    Creation is atomic on every POSIX filesystem, so whichever process
    wins the ``os.open`` owns the critical section; everyone else polls.
    A lockfile older than ``stale_after`` seconds is presumed abandoned
    (its owner crashed between create and unlink) and is stolen.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:  # holder released between open and stat
                continue
            if age > stale_after:
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"gave up waiting for manifest lock {path} "
                    f"after {timeout}s"
                )
            time.sleep(0.002)
            continue
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
        finally:
            os.close(fd)
        break
    try:
        yield
    finally:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - stolen as stale
            pass


def content_key(
    exp: RegisteredExperiment, params: Optional[Mapping[str, Any]] = None
) -> str:
    """Cache key: experiment id + workload identity + call parameters.

    Spec-declaring experiments (``@experiment(..., spec=...)``) key on
    the declared spec's **content hash** plus the entry point's
    signature defaults: the cache survives module refactors and
    replays whenever the *workload* — the versioned, serializable run
    spec and the parameter defaults the entry point sweeps with — is
    unchanged.  (The defaults matter: an experiment like
    ``chaos_rejuvenation`` sweeps ``periods=(5, 10, 20)`` around its
    canonical spec, and changing that sweep must invalidate.)
    Experiments without a spec fall back to hashing the *module*
    source (not just the function, because entry points routinely lean
    on module-level helpers); shared-library changes (e.g. the
    campaign engine) deliberately do not invalidate either key —
    ``--force`` exists for that.
    """
    spec_hash = exp.spec_hash()
    if spec_hash is not None:
        identity = {
            "spec_hash": spec_hash,
            "defaults": jsonable(_signature_defaults(exp)),
        }
    else:
        module = sys.modules[exp.fn.__module__]
        source = inspect.getsource(module)
        identity = {
            "source_sha": hashlib.sha256(source.encode()).hexdigest()
        }
    blob = json.dumps(
        {
            "experiment_id": exp.experiment_id,
            **identity,
            "params": jsonable(dict(params or {})),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def current_git_sha(cwd: "str | Path | None" = None) -> Optional[str]:
    """Short git SHA of the working tree, or None outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=str(cwd) if cwd is not None else None,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _signature_defaults(exp: RegisteredExperiment) -> Dict[str, Any]:
    """The entry point's keyword defaults — the swept workload
    parameters a declared spec doesn't capture by itself."""
    try:
        parameters = inspect.signature(exp.fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return {}
    return {
        name: p.default
        for name, p in parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def _default_seed(exp: RegisteredExperiment) -> Optional[int]:
    """The experiment's seed: the entry point's ``seed=`` default."""
    try:
        param = inspect.signature(exp.fn).parameters.get("seed")
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return None
    if param is None or param.default is inspect.Parameter.empty:
        return None
    return param.default


@dataclass(frozen=True)
class RunOutcome:
    """What ``ArtifactStore.run`` did for one experiment."""

    experiment_id: str
    result: ExperimentResult
    cached: bool
    wall_time_s: float
    entry: Dict[str, Any]

    @property
    def passed(self) -> bool:
        return self.result.passed

    def status_line(self) -> str:
        tag = "cached" if self.cached else ("pass" if self.passed else "FAIL")
        line = f"[{tag:>6}] {self.experiment_id} ({self.wall_time_s:.2f}s)"
        failing = self.result.failed_checks()
        if failing:
            line += f"  failing: {failing}"
        return line


def _compact(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _encode_run_record(record: Mapping[str, Any]) -> bytes:
    """``json.dumps(record, sort_keys=True, separators=(",", ":"))``
    plus a newline, as UTF-8 — with ``record["result"]`` allowed to be
    the already-encoded bytes of that member.

    The members sorting before and after ``"result"`` are encoded as
    two compact objects whose braces are trimmed, and the bytes go
    between them: byte-identical to encoding the decoded record.
    """
    result = record.get("result")
    if not isinstance(result, bytes):
        return (_compact(dict(record)) + "\n").encode("utf-8")
    head = _compact({k: v for k, v in record.items() if k < "result"})[:-1]
    tail = _compact({k: v for k, v in record.items() if k > "result"})[1:]
    return b"".join((
        head.encode("utf-8"), b"," if len(head) > 1 else b"",
        b'"result":', result,
        b"," if len(tail) > 1 else b"", tail.encode("utf-8"), b"\n",
    ))


class ArtifactStore:
    """JSON artifacts + manifest under one ``results/`` root."""

    def __init__(self, root: "str | Path" = "results"):
        self.root = Path(root)
        self.artifact_dir = self.root / "artifacts"
        self.trace_dir = self.root / "traces"
        self.manifest_path = self.root / MANIFEST_NAME

    # -- manifest ----------------------------------------------------------

    def load_manifest(self) -> Dict[str, Any]:
        if not self.manifest_path.exists():
            return {"version": MANIFEST_VERSION, "entries": {}}
        with open(self.manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest.setdefault("version", MANIFEST_VERSION)
        manifest.setdefault("entries", {})
        manifest.setdefault("cache", {"hits": 0, "misses": 0})
        return manifest

    @staticmethod
    def _bump_cache(
        manifest: Dict[str, Any], *, hits: int = 0, misses: int = 0
    ) -> None:
        """Add to the store-wide cache counters (in place)."""
        cache = manifest.setdefault("cache", {"hits": 0, "misses": 0})
        cache["hits"] = int(cache.get("hits", 0)) + hits
        cache["misses"] = int(cache.get("misses", 0)) + misses

    def _write_manifest(self, manifest: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # Unique temp name per process: two writers renaming the same
        # temp path can publish a torn manifest even when each write
        # is individually atomic.
        tmp = self.manifest_path.with_suffix(f".json.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        tmp.replace(self.manifest_path)

    def update_manifest(
        self, mutate: Callable[[Dict[str, Any]], None]
    ) -> Dict[str, Any]:
        """Locked read-modify-write: apply ``mutate`` to the manifest.

        Every manifest mutation in the store routes through here, so
        concurrent clients (parallel ``run()`` calls, multiple service
        daemons, the CLI) serialize on the lockfile instead of losing
        each other's updates.  Returns the manifest as written.
        """
        with _file_lock(self.root / LOCK_NAME):
            manifest = self.load_manifest()
            mutate(manifest)
            self._write_manifest(manifest)
        return manifest

    def entries(self) -> Dict[str, Dict[str, Any]]:
        return self.load_manifest()["entries"]

    # -- artifacts ---------------------------------------------------------

    def artifact_path(self, experiment_id: str) -> Path:
        return self.artifact_dir / f"{experiment_id}.json"

    def load_result(self, experiment_id: str) -> ExperimentResult:
        from .experiments.runner import ExperimentResult

        path = self.artifact_path(experiment_id)
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentResult.from_dict(json.load(fh))

    def _write_artifact(self, result: ExperimentResult) -> Path:
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        path = self.artifact_path(result.experiment_id)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
            fh.write("\n")
        return path

    # -- telemetry traces --------------------------------------------------

    def trace_path(self, name: str) -> Path:
        """Base JSON path of a stored chaos telemetry trace.

        ``name`` is whatever keys the trace — an experiment id, or a
        spec content hash (``ChaosSpec.content_hash()``), so re-running
        an identical workload overwrites rather than accumulates.  The
        npz array payload sits next to it with the same stem.
        """
        return self.trace_dir / f"{name}.json"

    def save_trace(self, name: str, trace) -> Path:
        """Persist a :class:`~repro.chaos.telemetry.TelemetryTrace`
        under ``<root>/traces/<name>.{json,npz}``; returns the JSON
        path.  Retention is the caller's business — pass the trace
        through :meth:`TelemetryTrace.retained` first if the spec asks
        for trimming."""
        from .chaos.telemetry import save_trace as _save

        return _save(trace, self.trace_path(name))

    def load_trace(self, name: str):
        """Load a stored trace by name (schema-version checked)."""
        from .chaos.telemetry import load_trace as _load

        return _load(self.trace_path(name))

    # -- spec-keyed run results (the service cache) ------------------------

    def run_result_path(self, spec_hash: str) -> Path:
        """Where a spec-hash-keyed run result lives."""
        return self.root / "runs" / f"{spec_hash}.json"

    def save_run_result(
        self, spec_hash: str, record: Mapping[str, Any]
    ) -> Path:
        """Persist one run result keyed by its spec's ``content_hash``.

        The record is encoded compactly with sorted keys (the C
        encoder), written to a thread-unique temp file and renamed —
        atomic: a concurrent reader sees the old file or the new one,
        never a torn write.  ``record["result"]`` is either a mapping
        or its already-encoded compact JSON bytes (the daemon's cached
        answer); bytes are spliced in at the sorted-key position, so
        the file is the same either way and no float is encoded twice
        (:func:`_encode_run_record`).  ``runs/<hash>.json`` is its own
        index, so the manifest is not touched and the cost does not
        grow with the number of stored runs.  Safe for any number of
        concurrent writers; identical specs overwrite in place.
        """
        path = self.run_result_path(spec_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_bytes(_encode_run_record(record))
        tmp.replace(path)
        return path

    def load_run_result(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The stored run result for ``spec_hash``, or None."""
        path = self.run_result_path(spec_hash)
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    # -- cache + execution -------------------------------------------------

    def cached_entry(
        self,
        exp: RegisteredExperiment,
        params: Optional[Mapping[str, Any]] = None,
        *,
        entries: Optional[Mapping[str, Dict[str, Any]]] = None,
        key: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """The manifest entry iff it is a valid cache hit, else None.

        Batch callers pass ``entries`` (one manifest read for the whole
        batch) and/or a precomputed ``key``.
        """
        if entries is None:
            entries = self.entries()
        entry = entries.get(exp.experiment_id)
        if entry is None:
            return None
        if entry.get("key") != (key or content_key(exp, params)):
            return None
        if not self.artifact_path(exp.experiment_id).exists():
            return None
        return entry

    def record(
        self,
        exp: RegisteredExperiment,
        result: ExperimentResult,
        wall_time_s: float,
        params: Optional[Mapping[str, Any]] = None,
        *,
        key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Persist ``result`` and its provenance; returns the entry."""
        artifact = self._write_artifact(result)
        params = dict(params or {})
        entry = {
            "experiment_id": exp.experiment_id,
            "key": key or content_key(exp, params),
            "status": "pass" if result.passed else "fail",
            "failed_checks": result.failed_checks(),
            "artifact": str(artifact.relative_to(self.root)),
            "wall_time_s": round(float(wall_time_s), 4),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            # Anchor on the package source, not the process cwd — the
            # SHA must describe the repro checkout that actually ran.
            "git_sha": current_git_sha(Path(__file__).resolve().parent),
            "seed": jsonable(params.get("seed", _default_seed(exp))),
            "dtype": str(params.get("dtype", "float64")),
            # Spec-declaring experiments also record the replayable
            # workload identity (the spec's content hash) explicitly.
            "spec_hash": exp.spec_hash(),
            "params": jsonable(params),
            "anchor": exp.anchor,
            "runtime": exp.runtime,
            "tags": list(exp.tags),
        }
        def _mutate(manifest: Dict[str, Any]) -> None:
            manifest["version"] = MANIFEST_VERSION
            manifest["entries"][exp.experiment_id] = entry
            self._bump_cache(manifest, misses=1)  # a recorded run is a miss

        self.update_manifest(_mutate)
        return entry

    def run(
        self,
        exp: RegisteredExperiment,
        params: Optional[Mapping[str, Any]] = None,
        *,
        force: bool = False,
        obs=None,
    ) -> RunOutcome:
        """Run ``exp`` (or serve it from cache) and persist the outcome.

        ``obs`` (a :class:`~repro.obs.RunObserver`) gets one
        ``cache-hit``/``cache-miss`` event per lookup.
        """
        key = content_key(exp, params)
        if not force:
            entry = self.cached_entry(exp, params, key=key)
            if entry is not None:
                self.update_manifest(lambda m: self._bump_cache(m, hits=1))
                if obs is not None:
                    obs.record_cache(exp.experiment_id, True)
                return RunOutcome(
                    experiment_id=exp.experiment_id,
                    result=self.load_result(exp.experiment_id),
                    cached=True,
                    wall_time_s=float(entry.get("wall_time_s", 0.0)),
                    entry=entry,
                )
        start = time.perf_counter()
        result = exp.run(**dict(params or {}))
        wall = time.perf_counter() - start
        entry = self.record(exp, result, wall, params, key=key)
        if obs is not None:
            obs.record_cache(exp.experiment_id, False)
        return RunOutcome(
            experiment_id=exp.experiment_id,
            result=result,
            cached=False,
            wall_time_s=wall,
            entry=entry,
        )

    def run_many(
        self,
        experiments: Sequence[RegisteredExperiment],
        *,
        force: bool = False,
        n_workers: int = 0,
        log=None,
        obs=None,
    ) -> List[RunOutcome]:
        """Run a batch, optionally fanning out over the fork-once pool.

        Workers only *execute* experiments (pure compute, results ship
        back as JSON-safe payloads); the parent process owns every
        artifact and manifest write, so there is no concurrent-write
        hazard on the store.  Cache hits never reach the pool; their
        counter bump is batched into one manifest write parent-side.
        """
        outcomes: Dict[str, RunOutcome] = {}
        to_run: List[RegisteredExperiment] = []
        hits = 0
        manifest_entries = self.entries()  # one read for the whole batch
        for exp in experiments:
            if not force:
                entry = self.cached_entry(exp, entries=manifest_entries)
                if entry is not None:
                    hits += 1
                    if obs is not None:
                        obs.record_cache(exp.experiment_id, True)
                    outcomes[exp.experiment_id] = RunOutcome(
                        experiment_id=exp.experiment_id,
                        result=self.load_result(exp.experiment_id),
                        cached=True,
                        wall_time_s=float(entry.get("wall_time_s", 0.0)),
                        entry=entry,
                    )
                    if log:
                        log(outcomes[exp.experiment_id].status_line())
                    continue
            to_run.append(exp)
        if hits:
            self.update_manifest(lambda m: self._bump_cache(m, hits=hits))

        if to_run and n_workers and n_workers > 1:
            from .experiments.runner import ExperimentResult
            from .parallel import bounded_map, fork_once_pool

            ids = [exp.experiment_id for exp in to_run]
            by_id = {exp.experiment_id: exp for exp in to_run}
            with fork_once_pool(
                min(n_workers, len(to_run)), _build_worker_state
            ) as pool:
                for exp_id, payload, wall in bounded_map(
                    pool, _worker_run_experiment, ids
                ):
                    exp = by_id[exp_id]
                    result = ExperimentResult.from_dict(payload)
                    entry = self.record(exp, result, wall)
                    if obs is not None:
                        obs.record_cache(exp_id, False)
                    outcomes[exp_id] = RunOutcome(
                        experiment_id=exp_id,
                        result=result,
                        cached=False,
                        wall_time_s=wall,
                        entry=entry,
                    )
                    if log:
                        log(outcomes[exp_id].status_line())
        else:
            for exp in to_run:
                outcomes[exp.experiment_id] = self.run(
                    exp, force=force, obs=obs
                )
                if log:
                    log(outcomes[exp.experiment_id].status_line())

        return [
            outcomes[exp.experiment_id]
            for exp in experiments
            if exp.experiment_id in outcomes
        ]


def _build_worker_state() -> dict:  # pragma: no cover - subprocess body
    """fork_once_pool builder: discover the registry once per worker."""
    from .experiments import registry

    return {"registry": registry.discover()}


def _worker_run_experiment(
    exp_id: str,
) -> Tuple[str, Dict[str, Any], float]:  # pragma: no cover - subprocess body
    """Job body: run one experiment, return its JSON payload + wall time."""
    from .parallel import worker_state

    exp = worker_state()["registry"][exp_id]
    start = time.perf_counter()
    result = exp.run()
    wall = time.perf_counter() - start
    return exp_id, result.to_dict(), wall
