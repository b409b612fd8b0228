"""Cross-commit pins of the golden campaign specs' results.

The golden spec fixtures pin spec *bytes*, and the engine-equivalence
tests compare the engine with an oracle of the same commit, so a change
that moved every campaign's errors alike would pass both.  This module
pins what each ``tests/fixtures/specs/campaign_*.json`` spec
*produces*, in ``tests/fixtures/campaign_results.json``:

* the per-scenario error vector, compared at ``rtol=1e-12`` so that
  another BLAS build does not fail the pin;
* for an adaptive or stratified run, a SHA-256 of the report's fields
  with every float replaced by ``None`` (the floats are stored beside
  it and compared at the same tolerance).

A spec that names a saved network by path (``net.npz``) runs on
:func:`pinned_network`, saved to a temporary file.

Regenerate (only when a result change is intended) with::

    PYTHONPATH=src python tests/test_campaign_results.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.network import build_mlp, save_network
from repro.specs import NetworkRef, load_spec, run

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PINS = FIXTURES / "campaign_results.json"
GOLDEN = sorted((FIXTURES / "specs").glob("campaign_*.json"))
RTOL = 1e-12


def pinned_network():
    """The network that path-named golden specs run on."""
    return build_mlp(
        4, [16, 12], activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.4}, output_scale=0.3, seed=21,
    )


def _split_floats(node, path: str, floats: dict):
    """``node`` with every float replaced by ``None``; the floats are
    collected into ``floats`` keyed by their path."""
    if isinstance(node, dict):
        return {
            k: _split_floats(v, f"{path}.{k}", floats)
            for k, v in sorted(node.items())
        }
    if isinstance(node, (list, tuple)):
        return [
            _split_floats(v, f"{path}[{i}]", floats)
            for i, v in enumerate(node)
        ]
    if isinstance(node, float):
        floats[path] = node
        return None
    return node


def run_golden(path: Path, workdir: Path):
    """The golden spec's result; a path-named network is
    :func:`pinned_network` saved under ``workdir``."""
    spec = load_spec(path)
    if spec.network.path is not None:
        saved = save_network(pinned_network(), workdir / "net.npz")
        spec = spec.replace(network=NetworkRef(path=str(saved)))
    return run(spec)


def campaign_pins(result) -> dict:
    """The pins of one golden spec's run."""
    floats: dict = {}
    report = None
    if result.adaptive is not None:
        stripped = _split_floats(
            dataclasses.asdict(result.adaptive), "report", floats
        )
        payload = json.dumps(stripped, sort_keys=True).encode()
        report = hashlib.sha256(payload).hexdigest()
    return {
        "report_sha256": report,
        "report_floats": floats,
        "errors": np.asarray(result.errors, dtype=np.float64).tolist(),
    }


def _stored() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def _close(got: float, want: float, key: str) -> None:
    if math.isnan(want):
        assert math.isnan(got), key
    else:
        assert got == pytest.approx(want, rel=RTOL, abs=0.0), key


def test_every_golden_campaign_spec_is_pinned():
    assert sorted(_stored()) == [p.stem for p in GOLDEN]


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_campaign_results_match_pins(path, tmp_path):
    want = _stored()[path.stem]
    got = campaign_pins(run_golden(path, tmp_path))
    assert got["report_sha256"] == want["report_sha256"]
    assert sorted(got["report_floats"]) == sorted(want["report_floats"])
    for key, value in want["report_floats"].items():
        _close(got["report_floats"][key], value, key)
    assert len(got["errors"]) == len(want["errors"])
    np.testing.assert_allclose(
        np.asarray(got["errors"]), np.asarray(want["errors"]),
        rtol=RTOL, atol=0.0,
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pins = {
            p.stem: campaign_pins(run_golden(p, Path(tmp))) for p in GOLDEN
        }
    # one spec per line: a result change diffs as the specs it moved
    lines = [
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(pins.items())
    ]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {PINS} ({len(pins)} specs)", file=sys.stderr)
