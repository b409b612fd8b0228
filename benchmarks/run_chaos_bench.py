"""Chaos-campaign benchmark: streamed fleet evaluation vs a scalar epoch loop.

The chaos subsystem's claim is that a *temporal* campaign — R replicas
x E epochs of evolving fault state — stays mask-native end to end: the
whole fleet x time grid streams through ``MaskCampaignEngine`` in
windows, with zero per-scenario Python in the hot loop.  This
benchmark prices that claim at fleet x epochs >= 1e5 cells:

* **chaos engine** — ``_run_chaos_campaign`` (no-repair, exponential
  component lifetimes), wall-clock for the full grid, including the
  process simulation and SLO aggregation;
* **scalar epoch loop** — the naive implementation: advance the same
  fleet state epoch by epoch, build one ``FailureScenario`` per
  (epoch, replica) cell and call ``injector.output_error`` on it.
  Timed on a cell subsample (it is orders of magnitude slower) and
  extrapolated by throughput; the JSON records both numbers.

Results land in ``BENCH_campaign.json`` under the ``"chaos"`` key.
The acceptance target tracked here: the chaos engine must be >= 10x
the scalar epoch loop at fleet x epochs >= 1e5.

A second section, ``"telemetry"``, prices the telemetry-native
refactor: the same campaign with full telemetry capture (ground-truth
fault labels, per-process damage attribution) vs the plain run whose
trace carries only what the report needs.  Tracked target: capture
overhead < 10% of campaign wall time (recording is array slicing into
preallocated channels, never RNG or per-scenario Python).

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_chaos_bench.py
    PYTHONPATH=src python benchmarks/run_chaos_bench.py --replicas 128 --epochs 800
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.chaos import ComponentLifetimeProcess
from repro.chaos.campaign import _run_chaos_campaign
from repro.chaos.deployment import FleetState
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import crash_scenario
from repro.network import build_mlp
from repro.network.model import NeuronAddress

RATE = 0.002
EPSILON, EPSILON_PRIME = 0.5, 0.1
N_PROBES = 16
SCALAR_REF_CELLS = 2_000


def bench_network():
    """The throughput-bench network of run_campaign_bench.py."""
    return build_mlp(
        4, [16, 12],
        activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.4},
        output_scale=0.3,
        seed=21,
    )


def time_chaos_engine(net, x, n_replicas, epochs, seed=0, telemetry=None):
    t0 = time.perf_counter()
    report = _run_chaos_campaign(
        net, x, [ComponentLifetimeProcess(RATE)],
        epochs=epochs, n_replicas=n_replicas,
        epsilon=EPSILON, epsilon_prime=EPSILON_PRIME,
        seed=seed, epochs_chunk=64, telemetry=telemetry,
    )
    return time.perf_counter() - t0, report


def time_telemetry_overhead(net, x, n_replicas, epochs, repeats=5):
    """Best-of-N wall time, full telemetry capture vs plain run.

    Both runs share the seed, so the fault schedule — and therefore
    the report — is bitwise identical; only the recording differs.
    The off/on measurements are interleaved (off, on, off, on, ...)
    so transient machine load hits both variants alike instead of
    biasing whichever phase it overlapped.
    """
    from types import SimpleNamespace

    on_spec = SimpleNamespace(enabled=True, ground_truth=True)
    t_off = float("inf")
    t_on = float("inf")
    report_on = None
    for _ in range(repeats):
        t_off = min(t_off, time_chaos_engine(net, x, n_replicas, epochs)[0])
        t, report_on = time_chaos_engine(
            net, x, n_replicas, epochs, telemetry=on_spec
        )
        t_on = min(t_on, t)
    return t_off, t_on, report_on


def time_scalar_epoch_loop(net, x, n_replicas, epochs, n_cells, seed=0):
    """The naive path: one FailureScenario + scalar evaluation per cell.

    Simulates the same kind of fleet trajectory (same process, same
    law), walks the (epoch, replica) grid in order and evaluates the
    first ``n_cells`` cells; throughput extrapolates to the full grid.
    """
    injector = FaultInjector(net, capacity=net.output_bound)
    state = FleetState(net.layer_sizes, n_replicas)
    proc = ComponentLifetimeProcess(RATE)
    proc.reset(n_replicas, net.layer_sizes)
    rng = np.random.default_rng(seed)
    evaluated = 0
    max_err = 0.0
    t0 = time.perf_counter()
    for epoch in range(epochs):
        state.begin_epoch(epoch)
        proc.step(state, rng)
        for r in range(n_replicas):
            if evaluated >= n_cells:
                break
            addresses = [
                NeuronAddress(l0 + 1, int(i))
                for l0, mask in enumerate(state.crash)
                for i in np.nonzero(mask[r])[0]
            ]
            err = injector.output_error(x, crash_scenario(addresses))
            max_err = max(max_err, err)
            evaluated += 1
        state.advance_ages()
        if evaluated >= n_cells:
            break
    elapsed = time.perf_counter() - t0
    return elapsed, evaluated, max_err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=128,
                        help="fleet size R (default 128)")
    parser.add_argument("--epochs", type=int, default=800,
                        help="mission length E (default 800; R*E is the "
                             "scenario-grid size)")
    parser.add_argument("--ref-cells", type=int, default=SCALAR_REF_CELLS,
                        help="cells to time on the scalar reference")
    parser.add_argument("--output", default=None,
                        help="output path (default: BENCH_campaign.json "
                             "next to this script's repo root)")
    args = parser.parse_args(argv)

    net = bench_network()
    x = np.random.default_rng(21).random((N_PROBES, net.input_dim))
    cells = args.replicas * args.epochs
    print(
        f"chaos bench: fleet {args.replicas} x {args.epochs} epochs = "
        f"{cells} cells, rate {RATE}"
    )

    t_chaos, report = time_chaos_engine(net, x, args.replicas, args.epochs)
    print(
        f"  chaos engine:      {t_chaos:8.3f}s  "
        f"({cells / t_chaos:,.0f} cells/s)  "
        f"availability={report.availability:.4f}"
    )

    t_ref, n_ref, max_err_ref = time_scalar_epoch_loop(
        net, x, args.replicas, args.epochs, args.ref_cells
    )
    t_scalar_full = t_ref * (cells / n_ref)
    print(
        f"  scalar epoch loop: {t_ref:8.3f}s for {n_ref} cells "
        f"-> {t_scalar_full:,.1f}s extrapolated "
        f"({n_ref / t_ref:,.0f} cells/s)"
    )
    speedup = t_scalar_full / t_chaos
    print(f"  speedup: {speedup:.1f}x  (target >= 10x)")

    payload = {
        "workload": {
            "network": "mlp 4->[16,12]->1 (throughput-bench, seed 21)",
            "process": f"ComponentLifetimeProcess(rate={RATE})",
            "policy": "none",
            "n_replicas": args.replicas,
            "epochs": args.epochs,
            "cells": cells,
            "n_probes": N_PROBES,
            "epsilon": EPSILON,
            "epsilon_prime": EPSILON_PRIME,
        },
        "chaos_engine_s": round(t_chaos, 4),
        "cells_per_s_chaos": round(cells / t_chaos),
        "scalar_ref_cells": n_ref,
        "scalar_ref_s": round(t_ref, 4),
        "scalar_extrapolated_s": round(t_scalar_full, 4),
        "cells_per_s_scalar": round(n_ref / t_ref),
        "speedup": round(speedup, 2),
        "availability": report.availability,
        "violation_fraction": report.violation_fraction,
    }

    out_path = Path(
        args.output
        if args.output
        else Path(__file__).resolve().parent.parent / "BENCH_campaign.json"
    )
    t_off, t_on, report_on = time_telemetry_overhead(
        net, x, args.replicas, args.epochs
    )
    overhead = (t_on - t_off) / t_off
    trace = report_on.trace
    print(
        f"  telemetry capture: {t_off:8.3f}s off vs {t_on:8.3f}s on "
        f"-> overhead {overhead * 100:.1f}%  (target < 10%)"
    )
    telemetry_payload = {
        "workload": {
            "network": "mlp 4->[16,12]->1 (throughput-bench, seed 21)",
            "process": f"ComponentLifetimeProcess(rate={RATE})",
            "n_replicas": args.replicas,
            "epochs": args.epochs,
            "cells": cells,
            "ground_truth": True,
        },
        "telemetry_off_s": round(t_off, 4),
        "telemetry_on_s": round(t_on, 4),
        "overhead_fraction": round(overhead, 4),
        "trace_channels": {
            "grid": ["errors", "viol", "down"],
            "ground_truth": [
                "crash_counts", "transient_counts", "process_hits"
            ],
        },
        "ground_truth_cells": int(
            trace.crash_counts.size + trace.transient_counts.size
            + trace.process_hits.size
        ),
    }

    existing = {}
    if out_path.exists():
        existing = json.loads(out_path.read_text(encoding="utf-8"))
    existing["chaos"] = payload
    existing["telemetry"] = telemetry_payload
    out_path.write_text(
        json.dumps(existing, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
