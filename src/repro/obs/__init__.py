"""Run-wide observability: span traces, metrics, OpenMetrics export.

The eighth subsystem.  Every ``repro.run(spec)`` — campaign, survival
or chaos, any backend, any worker count — can carry a
:class:`RunObserver` that records a hierarchical span trace (dispatch,
network load, per-block sampling/evaluation, adaptive-stopping looks,
artifact-cache hits) and a Prometheus-style metrics registry, without
perturbing a single random draw: numeric results are **bitwise
identical** with observation on or off, and the parallel paths merge
per-worker span buffers in block submission order so serial ==
parallel holds for the trace structure too.

Layers (see DESIGN.md "Observability"):

* :mod:`repro.obs.registry` — zero-dependency counters / gauges /
  fixed-bucket histograms with deterministic merge;
* :mod:`repro.obs.trace` — the span tree with events and worker
  grafting;
* :mod:`repro.obs.recorder` — :class:`RunObserver`, the object the
  instrumentation seams thread, plus run-record persistence;
* :mod:`repro.obs.exporters` — OpenMetrics exposition, JSONL event
  stream, and the ``repro obs`` text renderings.

Quickstart::

    from repro import run
    from repro.obs import RunObserver, render_openmetrics

    obs = RunObserver()
    result = run(spec, obs=obs)
    print(render_openmetrics(obs.metrics))
"""

from .exporters import (
    events_jsonl,
    render_metrics_table,
    render_openmetrics,
    render_span_tree,
)
from .recorder import (
    RECORD_VERSION,
    RunObserver,
    load_run_record,
    profile_from_metrics,
    save_run_record,
    span_if,
)
from .registry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import RunTrace, Span

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "RunTrace",
    "Span",
    "RunObserver",
    "RECORD_VERSION",
    "span_if",
    "profile_from_metrics",
    "save_run_record",
    "load_run_record",
    "render_openmetrics",
    "events_jsonl",
    "render_span_tree",
    "render_metrics_table",
]
