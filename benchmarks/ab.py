#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark: a base revision against this checkout.

Run from the repository root::

    python3 benchmarks/ab.py --base HEAD~1 --workload chaos-fleet --pairs 10
    python3 benchmarks/ab.py --smoke      # CI: HEAD against itself, tiny sizes

The base revision's committed files are exported (``git archive``) into
a temporary directory; the head is this working tree.  Each pair runs
``perfbench/run.py --workload W --seed S --trace 0`` once in each tree,
base first in even pairs and head first in odd ones, so a drift of the
host's speed hits both sides alike.  Pair ``i`` uses seed ``S_i``, drawn
from a root seed that is printed first (``--root-seed`` repeats a run).

For every end-to-end metric of ``BENCHMARK.json`` it prints the median
and interquartile range of each side, the pairs the head won, and a
verdict:

* ``worse``: the head's median is worse than the base's by more than
  the metric's ``bound``;
* ``gain``: over at least ten pairs, the head won at least 90% of them
  and its median beats the base's by more than the base's IQR (the
  yardstick for claiming a speed-up);
* ``unresolved``: either side's IQR, relative to the base median, is
  wider than the bound, and not every head run beats every base run,
  so the runs cannot tell the change from noise at that bound;
* ``same`` otherwise.

Each run lasts ``BENCHMARK.json``'s ``run_seconds`` on both sides (0.3 s
under ``--smoke``), so no run length other than the benchmark's own
can back a verdict.

The share of failed operations is compared as well.  The last line of
standard output is one JSON object with every number printed above.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import secrets
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.core import percentile  # noqa: E402

#: A ``gain`` verdict needs this many pairs and this share of wins.
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Seconds per run under ``--smoke``, which checks the runner only.
SMOKE_SECONDS = 0.3


def export_revision(rev: str, dest: Path) -> Path:
    """The committed tree of ``rev`` unpacked under ``dest``."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    tree = dest / "base"
    # The "data" filter refuses links and paths leaving ``tree``
    # (Pythons without it predate the filter argument).
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(tree, **safe)
    return tree


def pair_seeds(root_seed: int, pairs: int) -> list:
    import numpy as np

    return [int(s) for s in
            np.random.SeedSequence(root_seed).generate_state(pairs)]


def bench_once(tree: Path, workload: str, seed: int, seconds: float,
               smoke: bool) -> dict:
    """One untraced perfbench run in ``tree``; its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n"
            f"{out.stderr[-2000:]}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    return tuple(percentile(values, q) for q in (25, 50, 75))


def summarise(metric: dict, base: list, head: list) -> dict:
    """Medians, IQRs, wins and the verdict of one metric's pairs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b25, b50, b75 = quartiles(base)
    h25, h50, h75 = quartiles(head)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    gain = sign * (h50 - b50)  # > 0: the head's median is better
    rel = gain / abs(b50) if b50 else 0.0
    spread = max(b75 - b25, h75 - h25) / abs(b50) if b50 else 0.0
    separated = (min(head) > max(base) if sign > 0
                 else max(head) < min(base))  # every head run better
    if rel < -metric["bound"]:
        verdict = "worse"
    elif (len(base) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(base))
          and gain > b75 - b25):
        verdict = "gain"
    elif spread > metric["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "base_median": b50, "base_iqr": b75 - b25,
        "head_median": h50, "head_iqr": h75 - h25,
        "change": rel, "wins": wins, "pairs": len(base),
        "bound": metric["bound"], "verdict": verdict,
    }


def failed_share(results: list) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default=None,
                        help="base revision (default HEAD~1; HEAD with --smoke)")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default chaos-fleet)")
    parser.add_argument("--pairs", type=int, default=None,
                        help="interleaved pairs per workload (default 10; 2 with --smoke)")
    parser.add_argument("--root-seed", type=int, default=None,
                        help="seed the pair seeds derive from (default: random, printed)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the runner, claims nothing")
    args = parser.parse_args(argv)
    if args.smoke:
        args.base = args.base or "HEAD"
        args.pairs = args.pairs or 2
    args.base = args.base or "HEAD~1"
    args.pairs = args.pairs or 10
    args.workload = args.workload or ["chaos-fleet"]
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = SMOKE_SECONDS if args.smoke else manifest["run_seconds"]
    root_seed = (args.root_seed if args.root_seed is not None
                 else secrets.randbits(32))
    seeds = pair_seeds(root_seed, args.pairs)
    print(f"root seed {root_seed}; base {args.base}; head {ROOT}; "
          f"{args.pairs} pairs of {seconds:g} s runs; seeds {seeds}")
    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    report = {"root_seed": root_seed, "base": args.base, "seeds": seeds,
              "workloads": {}}
    try:
        trees = {"base": export_revision(args.base, scratch), "head": ROOT}
        for workload in args.workload:
            runs = {"base": [], "head": []}
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(bench_once(
                        trees[side], workload, seed, seconds, args.smoke))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, "
                      f"{order[0]} first) done", flush=True)
            rows = {}
            print(f"\n{workload}")
            print(f"  {'metric':<18} {'base median':>12} {'IQR':>9} "
                  f"{'head median':>12} {'IQR':>9} {'change':>8} "
                  f"{'wins':>6}  verdict")
            for metric in manifest["end_to_end"]:
                name = metric["name"]
                row = summarise(
                    metric,
                    [r["metrics"][name]["value"] for r in runs["base"]],
                    [r["metrics"][name]["value"] for r in runs["head"]],
                )
                rows[name] = row
                print(f"  {name:<18} {row['base_median']:>12.5g} "
                      f"{row['base_iqr']:>9.3g} {row['head_median']:>12.5g} "
                      f"{row['head_iqr']:>9.3g} {row['change']:>+8.1%} "
                      f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
                      f" (bound {row['bound']:.0%})")
            shares = {side: failed_share(runs[side]) for side in runs}
            print(f"  failed share: base {shares['base']:.3g}, "
                  f"head {shares['head']:.3g}"
                  + ("  WORSE" if shares["head"] > shares["base"] else ""))
            report["workloads"][workload] = {"metrics": rows,
                                             "failed_share": shares}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
