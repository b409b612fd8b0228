"""Experiment harness: result containers and plain-text reporting.

Every experiment module exposes ``run_<id>(...) -> ExperimentResult``.
A result carries the regenerated rows/series of the corresponding paper
figure (or the validation table of a theorem) plus named *shape
checks* — the boolean assertions that constitute "the reproduction
holds": bounds dominate, errors grow with K, trade-offs slope the
right way.  Benchmarks execute the experiment under pytest-benchmark
and assert every shape check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..artifacts import jsonable

__all__ = ["ExperimentResult", "format_table", "jsonable"]


@dataclass
class ExperimentResult:
    """Outcome of one reproduction experiment.

    Attributes
    ----------
    experiment_id:
        Paper anchor, e.g. ``"figure3"`` or ``"theorem2"``.
    description:
        One-line statement of what the paper shows there.
    rows:
        The regenerated table/series, one dict per row.
    shape_checks:
        Named boolean claims that must hold for the reproduction to
        count (the *shape* of the paper's result, not its absolute
        numbers).
    metrics:
        Headline scalars (tightness ratios, slopes, speedups).
    notes:
        Substitutions or caveats worth surfacing in EXPERIMENTS.md.
    """

    experiment_id: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    shape_checks: Dict[str, bool] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """All shape checks hold."""
        return all(self.shape_checks.values())

    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.shape_checks.items() if not ok]

    def assert_passed(self) -> None:
        """Raise with the failing check names (bench-side assertion)."""
        failing = self.failed_checks()
        if failing:
            raise AssertionError(
                f"{self.experiment_id}: shape checks failed: {failing}\n"
                + format_table(self.rows)
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload — the artifact the store persists."""
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "rows": [jsonable(row) for row in self.rows],
            "shape_checks": {k: bool(v) for k, v in self.shape_checks.items()},
            "metrics": {k: jsonable(v) for k, v in self.metrics.items()},
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (tuples come back as lists).

        Non-finite metric values round-trip: JSON has no inf/nan, so
        :func:`jsonable` stores them as strings and they are coerced
        back to floats here.
        """
        metrics = {}
        for k, v in payload.get("metrics", {}).items():
            if isinstance(v, str):
                try:
                    v = float(v)  # "inf" / "-inf" / "nan"
                except ValueError:
                    pass
            metrics[k] = v
        return cls(
            experiment_id=payload["experiment_id"],
            description=payload["description"],
            rows=[dict(row) for row in payload.get("rows", [])],
            shape_checks=dict(payload.get("shape_checks", {})),
            metrics=metrics,
            notes=list(payload.get("notes", [])),
        )

    def report(self) -> str:
        """Human-readable report used by the example scripts."""
        lines = [f"== {self.experiment_id}: {self.description}"]
        if self.rows:
            lines.append(format_table(self.rows))
        if self.metrics:
            lines.append(
                "metrics: "
                + ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.metrics.items()))
            )
        for name, ok in self.shape_checks.items():
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, tuple):
        return "(" + ",".join(_fmt(v) for v in value) + ")"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]]) -> str:
    """Fixed-width plain-text table from row dicts (union of keys)."""
    if not rows:
        return "(no rows)"
    keys: List[str] = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    cells = [[_fmt(row.get(k, "")) for k in keys] for row in rows]
    widths = [
        max(len(keys[i]), *(len(r[i]) for r in cells)) for i in range(len(keys))
    ]
    header = "  ".join(k.ljust(w) for k, w in zip(keys, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in cells)
    return "\n".join([header, sep, body])
