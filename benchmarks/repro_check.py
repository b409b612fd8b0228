"""Stored-results gate: every stored artifact reproduces at HEAD.

``make repro-check`` runs ``python -m repro run-all --force`` into a
temporary results directory (``--experiments-md -``, so neither
``results/`` nor EXPERIMENTS.md is written) and compares each fresh
``artifacts/*.json`` with the stored one under ``results/artifacts/``,
field by field:

* the same file set, the same keys in every mapping and the same
  length of every list;
* strings, ints, bools and nulls equal, type included (non-finite
  floats are stored as the strings ``"nan"``/``"inf"``, so NaN
  positions must match);
* floats within a relative tolerance of ``RTOL``.

``RTOL`` is 1e-12, not bitwise: a fresh run reproduces most artifacts
bit for bit, but a few reductions drift by a few ulps between runs
(DESIGN.md, "The stored-results gate").  Exit status 0 when every
artifact matches; otherwise each mismatch is printed with its JSON
path and the status is 1.

Run from the repo root::

    python benchmarks/repro_check.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STORED = ROOT / "results" / "artifacts"

#: Relative tolerance on floats (DESIGN.md, "The stored-results gate").
RTOL = 1e-12


def diff(stored, fresh, path: str = "$"):
    """Yield one ``"path: reason"`` line per mismatch of two JSON values."""
    if type(stored) is not type(fresh):
        yield (
            f"{path}: {type(stored).__name__} {stored!r} -> "
            f"{type(fresh).__name__} {fresh!r}"
        )
    elif isinstance(stored, dict):
        if stored.keys() != fresh.keys():
            yield (
                f"{path}: keys {sorted(stored.keys() - fresh.keys())} "
                f"stored only, {sorted(fresh.keys() - stored.keys())} "
                "fresh only"
            )
        for key in sorted(stored.keys() & fresh.keys()):
            yield from diff(stored[key], fresh[key], f"{path}.{key}")
    elif isinstance(stored, list):
        if len(stored) != len(fresh):
            yield f"{path}: length {len(stored)} -> {len(fresh)}"
        for i, (a, b) in enumerate(zip(stored, fresh)):
            yield from diff(a, b, f"{path}[{i}]")
    elif isinstance(stored, float):
        if not (
            (math.isnan(stored) and math.isnan(fresh))
            or math.isclose(stored, fresh, rel_tol=RTOL, abs_tol=0.0)
        ):
            yield f"{path}: {stored!r} -> {fresh!r}"
    elif stored != fresh:
        yield f"{path}: {stored!r} -> {fresh!r}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [
                sys.executable, "-m", "repro", "run-all", "--force",
                "--results-dir", tmp, "--experiments-md", "-",
            ],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        fresh_dir = Path(tmp) / "artifacts"
        stored_names = {p.name for p in STORED.glob("*.json")}
        fresh_names = {p.name for p in fresh_dir.glob("*.json")}
        problems = [
            f"{name}: stored, not produced" for name in
            sorted(stored_names - fresh_names)
        ] + [
            f"{name}: produced, not stored" for name in
            sorted(fresh_names - stored_names)
        ]
        for name in sorted(stored_names & fresh_names):
            stored = json.loads((STORED / name).read_text(encoding="utf-8"))
            fresh = json.loads(
                (fresh_dir / name).read_text(encoding="utf-8")
            )
            problems += [f"{name} {line}" for line in diff(stored, fresh)]
    for line in problems:
        print(line)
    print(
        f"repro-check: {len(stored_names)} stored artifacts, "
        f"{len(problems)} mismatches (rtol {RTOL:g})"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
