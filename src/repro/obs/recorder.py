"""The run observer: one object bundling trace + metrics + profile.

:class:`RunObserver` is what the instrumentation seams pass around —
``repro.run(spec, obs=observer)`` threads one instance through
dispatch, the campaign chunk loops, the adaptive stopping layer, the
chaos orchestrator and the artifact store.  It owns:

* a :class:`~repro.obs.trace.RunTrace` (the span plane),
* a :class:`~repro.obs.registry.MetricsRegistry` (the metrics plane),
* an embedded :class:`~repro.profiling.PhaseProfile` — the *same*
  object the engines' ``engine.profile`` seam charges, so per-phase
  wall time needs no second instrumentation path.  It is the run's
  only profile: ``repro.run(spec, profile=p)`` makes ``p`` the
  observer's profile.  :meth:`finalize` publishes it into the registry
  (``repro_phase_seconds{phase=...}``), and the ``--profile`` table is
  printed from it, or rebuilt from a stored record
  (:func:`profile_from_metrics`).

Worker protocol: a parallel worker builds its own observer per block,
evaluates inside a ``block`` span, and ships
:meth:`RunObserver.worker_payload` home; the parent adds the payload's
profile seconds to ``obs.profile`` and calls :meth:`absorb` (spans
graft, metrics merge) in block submission order.  The one place doing
both is the campaigns' block driver,
:func:`repro.faults.masks._run_blocks`; for chaos it folds the profile
alone, because the chaos driver records its own per-replica-block
spans.  The observer draws no randomness anywhere, so run results are
bitwise identical with observation on or off.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from ..profiling import PHASES, PhaseProfile
from .registry import MetricsRegistry
from .trace import RunTrace

__all__ = [
    "RunObserver",
    "RECORD_VERSION",
    "span_if",
    "profile_from_metrics",
    "save_run_record",
    "load_run_record",
]

#: Schema version of the persisted run record (``save_run_record``).
RECORD_VERSION = 1


def span_if(obs: "Optional[RunObserver]", name: str, **attrs):
    """``obs.span(...)`` when observing, a no-op context otherwise —
    the null-safe form every instrumentation seam uses."""
    if obs is None:
        return nullcontext()
    return obs.span(name, **attrs)


class RunObserver:
    """Run-wide observability: spans, metrics, and the phase profile.

    ``events=False`` drops point events (adaptive looks, cache
    hits/misses) while keeping the span tree and metrics — the
    :class:`~repro.specs.ObsSpec` ``events`` switch.
    """

    def __init__(self, *, events: bool = True):
        self.trace = RunTrace()
        self.metrics = MetricsRegistry()
        self.profile = PhaseProfile()
        self.events = bool(events)

    # -- recording seams ---------------------------------------------------

    def span(self, name: str, **attrs):
        return self.trace.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        if self.events:
            self.trace.event(name, **attrs)

    @contextmanager
    def block_span(self, index: int, scenarios: int, **attrs):
        """The per-block unit both the serial loops and the workers
        record — one shape, so the merged tree matches the serial one."""
        self.metrics.counter(
            "repro_blocks", "Evaluated scenario blocks."
        ).inc()
        with self.span("block", index=index, scenarios=scenarios, **attrs):
            yield

    def record_adaptive(self, report) -> None:
        """Publish an :class:`~repro.faults.adaptive.AdaptiveReport`'s
        stop decision (all count/rate valued — deterministic)."""
        g = self.metrics.gauge
        g(
            "repro_adaptive_stop_epoch",
            "Scenarios consumed when the confidence sequence stopped.",
        ).set(report.n_scenarios)
        g(
            "repro_adaptive_violation_rate",
            "Final violation-rate estimate.",
        ).set(report.estimate)
        g("repro_adaptive_ci_low", "Final CI lower bound.").set(report.ci_low)
        g("repro_adaptive_ci_high", "Final CI upper bound.").set(report.ci_high)
        self.metrics.counter(
            "repro_adaptive_looks", "Confidence-sequence looks taken."
        ).inc(report.looks)

    def record_cache(self, experiment_id: str, hit: bool) -> None:
        """One artifact-store lookup: counter + span event."""
        name = (
            "repro_artifact_cache_hits" if hit else "repro_artifact_cache_misses"
        )
        self.metrics.counter(
            name, "Artifact-store cache lookups by outcome."
        ).inc()
        self.event(
            "cache-hit" if hit else "cache-miss", experiment=experiment_id
        )

    # -- worker merge protocol ---------------------------------------------

    def worker_payload(self) -> Dict[str, Any]:
        """The picklable block payload a pool worker ships home."""
        return {
            "spans": [s.to_dict() for s in self.trace.spans],
            "metrics": self.metrics.as_dict(),
            "profile": self.profile.as_dict(),
        }

    def absorb(self, payload: Mapping) -> None:
        """Graft a worker payload's spans under the current span and
        merge its metrics (the block driver adds its profile seconds to
        :attr:`profile`)."""
        self.trace.graft(payload["spans"])
        self.metrics.merge(payload["metrics"])

    # -- finalize + persistence --------------------------------------------

    def finalize(self) -> None:
        """Publish the phase profile into the metrics plane."""
        for phase in PHASES:
            self.metrics.gauge(
                "repro_phase_seconds",
                "Wall seconds per campaign phase.",
                phase=phase,
            ).set(self.profile.seconds[phase])
        if self.profile.scenarios:
            self.metrics.counter(
                "repro_scenarios", "Scenarios evaluated by the engines."
            ).inc(self.profile.scenarios)

    def record(self, spec_payload: Optional[Mapping] = None) -> dict:
        """The persistable run record (spec + spans + metrics)."""
        return {
            "record_version": RECORD_VERSION,
            "spec": dict(spec_payload) if spec_payload is not None else None,
            "trace": self.trace.to_dict(),
            "metrics": self.metrics.as_dict(),
        }


def profile_from_metrics(metrics: "MetricsRegistry | Mapping") -> PhaseProfile:
    """Rebuild the ``--profile`` view from published metrics — the
    PhaseProfile-as-a-view over observed data."""
    if not isinstance(metrics, MetricsRegistry):
        metrics = MetricsRegistry.from_dict(metrics)
    profile = PhaseProfile()
    for phase in PHASES:
        seconds = metrics.value("repro_phase_seconds", phase=phase)
        if seconds:
            profile.add(phase, seconds)
    scenarios = metrics.value("repro_scenarios")
    profile.scenarios = int(scenarios or 0)
    return profile


def save_run_record(record: Mapping, path: "str | Path") -> Path:
    """Write a run record (``RunObserver.record()``) as pretty JSON."""
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_name(path.name + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_run_record(path: "str | Path") -> dict:
    """Read a stored run record; schema-version checked."""
    path = Path(path)
    if not path.exists() and path.suffix != ".json":
        path = path.with_name(path.name + ".json")
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    version = record.get("record_version")
    if version != RECORD_VERSION:
        raise ValueError(
            f"run record version mismatch: stored {version!r}, this build "
            f"reads {RECORD_VERSION}"
        )
    return record
