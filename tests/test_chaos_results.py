"""Cross-commit pins of the golden chaos specs' results.

The golden spec fixtures pin spec *bytes*, and the telemetry parity
test only compares serial with parallel runs of the same commit, so a
change that moved a chaos schedule would pass both.  This module pins
what each ``tests/fixtures/specs/chaos_*.json`` spec *produces*, in
``tests/fixtures/chaos_results.json``:

* a SHA-256 of the report's ``to_dict()`` with every float replaced by
  ``None`` (the floats are stored beside it and compared at
  ``rtol=1e-12``);
* SHA-256s of the trace's integer and boolean channels — violation,
  downtime and alarm grids, the action columns, and the ground-truth
  ``crash_counts`` / ``transient_counts`` / ``process_hits`` of the
  same spec run with ground-truth telemetry on;
* the float error grid, compared at ``rtol=1e-12`` so that another
  BLAS build does not fail the pin.

Regenerate (only when a result change is intended) with::

    PYTHONPATH=src python tests/test_chaos_results.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.specs import TelemetrySpec, load_spec, run

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PINS = FIXTURES / "chaos_results.json"
GOLDEN = sorted((FIXTURES / "specs").glob("chaos_*.json"))
RTOL = 1e-12


def _split_floats(node, path: str, floats: dict):
    """``node`` with every float replaced by ``None``; the floats are
    collected into ``floats`` keyed by their path."""
    if isinstance(node, dict):
        return {
            k: _split_floats(v, f"{path}.{k}", floats)
            for k, v in sorted(node.items())
        }
    if isinstance(node, list):
        return [
            _split_floats(v, f"{path}[{i}]", floats)
            for i, v in enumerate(node)
        ]
    if isinstance(node, float):
        floats[path] = node
        return None
    return node


def _array_sha(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _channels(trace) -> dict:
    out = {
        name: _array_sha(getattr(trace, name))
        for name in (
            "viol", "down", "action_kind", "action_epoch", "action_replica",
        )
    }
    for name, grid in sorted(trace.alarms.items()):
        out[f"alarms.{name}"] = _array_sha(grid)
    return out


def run_golden(path: Path):
    """The golden spec as stored and with ground-truth telemetry on."""
    spec = load_spec(path)
    return run(spec), run(dataclasses.replace(spec, telemetry=TelemetrySpec()))


def chaos_pins(report, truth) -> dict:
    """The pins of one golden spec's two runs."""
    floats: dict = {}
    stripped = _split_floats(report.to_dict(), "report", floats)
    payload = json.dumps(stripped, sort_keys=True).encode()
    channels = _channels(truth.trace)
    for name in ("crash_counts", "transient_counts", "process_hits"):
        channels[name] = _array_sha(getattr(truth.trace, name))
    return {
        "report_sha256": hashlib.sha256(payload).hexdigest(),
        "report_floats": floats,
        "channels": channels,
        "errors": truth.trace.errors.tolist(),
    }


def _stored() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_every_golden_chaos_spec_is_pinned():
    assert sorted(_stored()) == [p.stem for p in GOLDEN]


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_chaos_results_match_pins(path):
    want = _stored()[path.stem]
    report, truth = run_golden(path)
    got = chaos_pins(report, truth)
    assert got["report_sha256"] == want["report_sha256"]
    assert got["channels"] == want["channels"]
    # ground-truth recording draws nothing: same report, same grids
    assert truth.to_dict() == report.to_dict()
    plain = _channels(report.trace)
    assert plain == {k: v for k, v in got["channels"].items() if k in plain}
    assert sorted(got["report_floats"]) == sorted(want["report_floats"])
    for key, value in want["report_floats"].items():
        mine = got["report_floats"][key]
        if math.isnan(value):
            assert math.isnan(mine), key
        else:
            assert mine == pytest.approx(value, rel=RTOL, abs=0.0), key
    np.testing.assert_allclose(
        np.asarray(got["errors"]), np.asarray(want["errors"]),
        rtol=RTOL, atol=0.0,
    )


if __name__ == "__main__":
    pins = {p.stem: chaos_pins(*run_golden(p)) for p in GOLDEN}
    # one spec per line: a result change diffs as the specs it moved
    lines = [
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(pins.items())
    ]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {PINS} ({len(pins)} specs)", file=sys.stderr)
