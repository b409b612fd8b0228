"""Command-line interface: ``python -m repro <command>``.

Commands (``repro <command> --help`` lists each one's flags):

``run-all`` / ``report`` / ``experiments``
    Run the experiment registry through the artifact pipeline (cached,
    provenance-stamped, EXPERIMENTS.md regenerated), regenerate the
    report from stored artifacts, or run experiments without
    persistence.
``certify`` / ``inspect``
    A saved network's robustness certificate / topology summary.
``campaign`` / ``survival`` / ``chaos``
    The spec workloads: a mask-native fault-injection campaign
    (Monte-Carlo, Bernoulli or exhaustive, over the whole fault
    taxonomy), the certified or Monte-Carlo survival probability under
    i.i.d. failures, and a temporal chaos campaign over a deployed
    replica fleet (fault processes, detectors, repair policy, SLO
    report).
``obs`` / ``aiops``
    Inspect a stored observability record; score AIOps tasks over a
    stored chaos telemetry trace.
``serve`` / ``submit`` / ``shutdown``
    The resident campaign service (:mod:`repro.service`): run the
    daemon, send it one workload spec (exit 1 on a typed
    rejected/timeout/error terminal), stop it.

The four spec verbs (``campaign``, ``survival``, ``chaos``, ``serve``)
are thin shells over the declarative spec layer (:mod:`repro.specs`).
Each flag is declared once, as a :class:`~repro.specs.model.Flag` row
of its spec class's ``cli_flags`` table (flag, dotted field path,
argparse type/choices, help, CLI default); :func:`add_spec_flags`
builds the verb's parser from it and :func:`spec_from_args` lowers the
parsed flags onto the spec, so exposing a new field on the CLI takes
one row.  Every spec verb carries ``--dump-spec`` (print the spec JSON
instead of running; it round-trips byte-identically through ``--spec``)
and ``--spec FILE`` (run a stored spec; any table flag typed next to it
is an error, and a positional network path overrides the spec's
network).  Malformed input of any command — a missing archive, an
unreadable file, a bad spec — exits 2 with a one-line ``error:``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

from .specs.model import (
    _EPSILON_FLAGS,
    CampaignSpec,
    ChaosSpec,
    DetectorSpec,
    NetworkRef,
    ProcessSpec,
    ServiceSpec,
    SurvivalSpec,
    _bounded,
    _unit_float,  # noqa: F401 - the CLI's argparse guards live on the rows
    _unit_open_float,  # noqa: F401
    _workers_count,
    load_spec,
)

__all__ = ["main", "build_parser", "add_spec_flags", "spec_from_args"]


def _add_flags(parser, flags) -> None:
    """One ``add_argument`` per :class:`~repro.specs.model.Flag` row;
    rows sharing an ``exclusive`` name share a mutually exclusive
    group.  The argparse default is always None (see ``Flag``)."""
    groups = {}
    for flag in flags:
        target = parser
        if flag.exclusive is not None:
            if flag.exclusive not in groups:
                groups[flag.exclusive] = parser.add_mutually_exclusive_group()
            target = groups[flag.exclusive]
        options = {
            "type": flag.type, "choices": flag.choices,
            "metavar": flag.metavar, "action": flag.action,
            "dest": flag.dest, "help": flag.help,
        }
        target.add_argument(
            flag.flag, default=None,
            **{k: v for k, v in options.items() if v is not None},
        )


def _has_network(spec_class) -> bool:
    return any(f.name == "network" for f in dataclasses.fields(spec_class))


def add_spec_flags(parser, spec_class) -> None:
    """Build a spec verb's parser from ``spec_class.cli_flags``: the
    optional network positional, one argument per table row, and the
    ``--spec FILE`` / ``--dump-spec`` shell every spec verb shares."""
    network = _has_network(spec_class)
    if network:
        parser.add_argument("network", nargs="?", default=None,
                            help="path to a save_network() .npz archive")
    _add_flags(parser, spec_class.cli_flags)
    parser.add_argument(
        "--spec", metavar="FILE", default=None,
        help="run from a JSON spec file instead of flags: the file "
             "defines the whole run, so any spec flag typed next to it "
             "is an error (execution flags still apply)"
             + ("; a positional network path, if given, overrides the "
                "spec's network" if network else ""),
    )
    parser.add_argument(
        "--dump-spec", action="store_true",
        help="print the spec as JSON and exit without running (the "
             "--spec input format; round-trips byte-identically)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'When Neurons Fail' (IPDPS 2017): "
        "fault-tolerance bounds for feed-forward neural networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_all = sub.add_parser(
        "run-all",
        help="run the experiment registry with artifact caching",
    )
    p_all.add_argument(
        "--filter", action="append", default=None, dest="filters",
        metavar="TOKEN",
        help="select experiments by id, tag, or anchor substring "
             "(repeatable; default: everything)",
    )
    p_all.add_argument(
        "--list", action="store_true",
        help="list the selected experiments and exit",
    )
    p_all.add_argument(
        "--force", action="store_true",
        help="re-run even on a cache hit",
    )
    p_all.add_argument(
        "--jobs", type=_workers_count, default=0, metavar="N",
        help="worker processes (0 = in-process)",
    )
    p_all.add_argument(
        "--results-dir", default="results", metavar="DIR",
        help="artifact store root (default: results/)",
    )
    p_all.add_argument(
        "--experiments-md", default="EXPERIMENTS.md", metavar="PATH",
        help="regenerated report path (default EXPERIMENTS.md; "
             "'-' skips the write)",
    )

    p_rep = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md from stored artifacts"
    )
    p_rep.add_argument(
        "--results-dir", default="results", metavar="DIR",
        help="artifact store root (default: results/)",
    )
    p_rep.add_argument(
        "--output", default="EXPERIMENTS.md", metavar="PATH",
        help="where to write the report (default EXPERIMENTS.md)",
    )

    p_exp = sub.add_parser(
        "experiments", help="run paper-reproduction experiments"
    )
    p_exp.add_argument(
        "names", nargs="*", help="experiment ids (default: all); see --list"
    )
    p_exp.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    p_exp.add_argument(
        "--markdown", metavar="PATH", default=None,
        help="also write a Markdown report to PATH",
    )

    def add_obs(p):
        """Observability flags every workload command carries."""
        p.add_argument(
            "--obs", metavar="RECORD", default=None,
            help="observe the run — span trace + metrics registry — "
                 "and persist the record to RECORD.json (inspect it "
                 "with 'repro obs'); never changes results",
        )
        p.add_argument(
            "--profile", action="store_true",
            help="report per-phase wall time (sampling / compile / "
                 "gemm / corrections / reduction), serial or parallel",
        )

    p_cert = sub.add_parser("certify", help="certify a saved network")
    p_cert.add_argument("network", help="path to a save_network() .npz archive")
    for flag in _EPSILON_FLAGS:
        p_cert.add_argument(flag.flag, type=flag.type, required=True,
                            help=flag.help)
    p_cert.add_argument("--mode", choices=("crash", "byzantine"), default="crash")
    p_cert.add_argument("--capacity", type=float, default=None,
                        help="transmission capacity C (byzantine mode)")

    p_ins = sub.add_parser("inspect", help="topology summary of a saved network")
    p_ins.add_argument("network", help="path to a save_network() .npz archive")

    p_sur = sub.add_parser(
        "survival", help="certified survival probability under iid failures"
    )
    add_spec_flags(p_sur, SurvivalSpec)
    p_sur.add_argument("--workers", type=_workers_count, default=0,
                       help="worker processes for the Monte-Carlo "
                            "estimate (0 = in-process)")
    add_obs(p_sur)

    p_cam = sub.add_parser(
        "campaign", help="mask-native fault-injection campaign"
    )
    add_spec_flags(p_cam, CampaignSpec)
    add_obs(p_cam)

    p_chaos = sub.add_parser(
        "chaos",
        help="temporal chaos campaign over a deployed replica fleet",
    )
    add_spec_flags(p_chaos, ChaosSpec)
    p_chaos.add_argument("--telemetry", metavar="TRACE", default=None,
                         help="record the campaign's telemetry trace "
                              "(ground-truth fault labels included) and "
                              "persist it to TRACE.json + TRACE.npz")
    p_chaos.add_argument("--replay", metavar="TRACE", default=None,
                         help="skip simulation: replay a stored trace "
                              "against its spec's detectors and check "
                              "alarm parity with the live run")
    add_obs(p_chaos)

    p_obs = sub.add_parser(
        "obs",
        help="inspect a stored observability record (trace + metrics)",
    )
    p_obs.add_argument(
        "record",
        help="path to a record saved by --obs RECORD (or "
             "ObsSpec(record=...)); '.json' may be omitted",
    )
    obs_mode = p_obs.add_mutually_exclusive_group()
    obs_mode.add_argument(
        "--openmetrics", action="store_true",
        help="print the metrics as an OpenMetrics text exposition",
    )
    obs_mode.add_argument(
        "--jsonl", action="store_true",
        help="print the span/event stream as JSON lines (walk order)",
    )
    obs_mode.add_argument(
        "--profile", action="store_true",
        help="print the per-phase wall-time table (the --profile view "
             "rebuilt from the published metrics)",
    )

    p_aiops = sub.add_parser(
        "aiops",
        help="score AIOps tasks (detection / localization / RCA) over "
             "a stored telemetry trace",
    )
    p_aiops.add_argument("trace",
                         help="path to a trace saved by chaos --telemetry "
                              "(.json/.npz stem)")

    #: --socket / --host / --port: the service endpoint rows, shared by
    #: the client commands.
    endpoint = [f for f in ServiceSpec.cli_flags
                if f.path in ("socket", "host", "port")]

    p_serve = sub.add_parser(
        "serve",
        help="run the resident campaign service (spec jobs over JSONL)",
    )
    add_spec_flags(p_serve, ServiceSpec)

    p_submit = sub.add_parser(
        "submit",
        help="submit a campaign/survival/chaos spec to a running service",
    )
    p_submit.add_argument(
        "spec", metavar="SPEC",
        help="path to a workload spec JSON (campaign/survival/chaos)",
    )
    _add_flags(p_submit, endpoint)
    p_submit.add_argument(
        "--stream", action="store_true",
        help="print per-chunk progress as the engines evaluate",
    )
    p_submit.add_argument(
        "--timeout", type=_bounded(
            float, 0, "timeout must be > 0", exclusive=True,
        ), default=None, metavar="SECONDS",
        help="override the service's job timeout for this submission",
    )
    p_submit.add_argument(
        "--json", action="store_true",
        help="print the full result payload as JSON instead of a summary",
    )

    p_down = sub.add_parser(
        "shutdown", help="stop a running campaign service"
    )
    _add_flags(p_down, endpoint)
    p_down.add_argument(
        "--no-drain", action="store_true",
        help="stop immediately instead of draining in-flight jobs",
    )
    return parser


def _cmd_run_all(args) -> int:
    from .analysis.reporting import write_experiments_md
    from .artifacts import ArtifactStore
    from .experiments import registry

    selected = registry.select(args.filters)
    bad_tokens = registry.unmatched(args.filters)
    if not selected or bad_tokens:
        what = (
            f"filter(s) match no experiment: {bad_tokens}"
            if bad_tokens
            else f"no experiment matches filter(s) {args.filters}"
        )
        print(
            f"{what}; known ids: {', '.join(registry.experiment_ids())}",
            file=sys.stderr,
        )
        return 2
    if args.list:
        for exp in selected:
            print(
                f"{exp.experiment_id:28s} {exp.runtime:6s} {exp.anchor}"
                f"  [{', '.join(exp.tags)}]"
            )
        return 0

    store = ArtifactStore(args.results_dir)
    outcomes = store.run_many(
        selected, force=args.force, n_workers=args.jobs, log=print
    )
    failed = [o.experiment_id for o in outcomes if not o.passed]
    n_cached = sum(1 for o in outcomes if o.cached)
    executed_s = sum(o.wall_time_s for o in outcomes if not o.cached)
    print(
        f"{len(outcomes)} experiments: {len(outcomes) - len(failed)} pass, "
        f"{len(failed)} fail, {n_cached} cached ({executed_s:.1f}s executed; "
        f"manifest: {store.manifest_path})"
    )
    if args.experiments_md != "-":
        path = write_experiments_md(
            registry.all_experiments(), store, args.experiments_md
        )
        print(f"report written to {path}")
    if failed:
        print(f"FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    from .artifacts import ArtifactStore

    store = ArtifactStore(args.results_dir)
    if not store.manifest_path.exists():
        # Rendering an empty store would overwrite the report with
        # "0/N stored" — almost always a mistyped --results-dir.
        raise FileNotFoundError(
            f"no artifact store at {args.results_dir} "
            f"({store.manifest_path.name} not found); nothing written"
        )
    from .analysis.reporting import write_experiments_md
    from .experiments import registry

    experiments = registry.all_experiments()
    manifest = store.load_manifest()
    entries = manifest["entries"]
    n_stored = sum(1 for e in experiments if e.experiment_id in entries)
    path = write_experiments_md(experiments, store, args.output)
    print(
        f"report written to {path} ({n_stored}/{len(experiments)} "
        "experiments have stored artifacts)"
    )
    cache = manifest.get("cache", {})
    print(
        f"artifact cache: {int(cache.get('hits', 0))} hits, "
        f"{int(cache.get('misses', 0))} misses (lifetime)"
    )
    return 0


def _cmd_experiments(args) -> int:
    from .experiments import ALL_EXPERIMENTS

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    names = args.names or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    failed = []
    results = {}
    for name in names:
        result = ALL_EXPERIMENTS[name]()
        results[name] = result
        print(result.report())
        print()
        if not result.passed:
            failed.append(name)
    if args.markdown:
        from .analysis.reporting import write_markdown_report

        path = write_markdown_report(results, args.markdown)
        print(f"markdown report written to {path}")
    if failed:
        print(f"FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_certify(args) -> int:
    from .core.certification import certify
    from .network.serialization import load_network

    network = load_network(args.network)
    cert = certify(
        network,
        args.epsilon,
        args.epsilon_prime,
        mode=args.mode,
        capacity=args.capacity,
    )
    print(cert.summary())
    return 0


def _cmd_inspect(args) -> int:
    from .analysis.topology import topology_stats
    from .network.serialization import load_network

    network = load_network(args.network)
    print(network.summary())
    stats = topology_stats(network)
    print(f"  mean |weight|: {stats['mean_abs_weight']:.4g}")
    print(f"  DAG: {stats['is_dag']}, longest path: {stats['longest_path_len']} hops")
    return 0


def _lower_stopping(values) -> None:
    """--allocation neyman/rare only makes sense stratified; saying so
    implicitly beats rejecting the obvious intent."""
    stopping = values.get("stopping", {})
    if "allocation" in stopping:
        stopping.setdefault("stratify", True)


def _lower_campaign(values, args) -> None:
    """The sampler selector (--distribution | --exhaustive | --p-fail)
    picks the sampler kind; --fault names use hyphens."""
    _lower_stopping(values)
    sampler = values.get("sampler", {})
    if "distribution" in sampler:
        text = sampler["distribution"]
        try:
            sampler["distribution"] = tuple(
                int(v) for v in text.split(",") if v.strip() != ""
            )
        except ValueError:
            raise ValueError(f"bad distribution {text!r}") from None
        sampler["kind"] = "fixed"
    elif "p_fail" in sampler:
        sampler["kind"] = "bernoulli"
    elif "n_fail" in sampler:
        sampler["kind"] = "exhaustive"
        ignored = [
            flag.flag for flag in CampaignSpec.cli_flags
            if flag.path.split(".")[0] in ("fault", "n_scenarios")
            and getattr(args, flag.attr) is not None
        ]
        if ignored:
            raise ValueError(
                f"{', '.join(ignored)} only appl"
                f"{'ies' if len(ignored) == 1 else 'y'} to Monte-Carlo "
                "campaigns; the exhaustive sweep enumerates crash "
                "configurations"
            )
    fault = values.get("fault", {})
    if "kind" in fault:
        fault["kind"] = fault["kind"].replace("-", "_")


def _lower_survival(values, args) -> None:
    """An adaptive flag only makes sense for the injection estimate."""
    _lower_stopping(values)
    if "stopping" in values:
        values.setdefault("method", "monte_carlo")


def _lower_chaos(values, args) -> None:
    """Repeatable --process/--detector build one spec per name;
    ``weibull`` is a lifetime process carrying --weibull-shape."""
    processes = values["processes"]  # --weibull-shape has a CLI default
    shape = processes.pop("shape")
    kinds = processes.pop("kind", ["lifetime"])
    values["processes"] = tuple(
        ProcessSpec(kind="lifetime", shape=shape, **processes)
        if kind == "weibull"
        else ProcessSpec(kind=kind, **processes)
        for kind in kinds
    )
    if "detectors" in values:
        values["detectors"] = tuple(
            DetectorSpec(kind=kind) for kind in values["detectors"]["kind"]
        )


def _lower_service(values, args) -> None:
    """--port alone serves on the loopback host."""
    if "port" in values:
        values.setdefault("host", "127.0.0.1")


#: The few lines per verb for flags that are not 1:1 with a field.
_LOWERINGS = {
    CampaignSpec: _lower_campaign,
    SurvivalSpec: _lower_survival,
    ChaosSpec: _lower_chaos,
    ServiceSpec: _lower_service,
}


def _build(spec_class, values):
    """``spec_class(**values)``, building nested specs from sub-dicts."""
    return spec_class(**{
        name: _build(spec_class._nested[name], value)
        if isinstance(value, dict) else value
        for name, value in values.items()
    })


def spec_from_args(spec_class, args):
    """Lower a parsed spec verb to its spec: each typed flag (else its
    row's CLI default) lands on the row's dotted field path, the verb's
    lowering handles the selector/alias flags, and every field left
    unset keeps the spec's own default."""
    values = {}
    for flag in spec_class.cli_flags:
        value = getattr(args, flag.attr)
        if value is None:
            value = flag.default
        if value is None:
            continue
        *parents, leaf = flag.path.split(".")
        node = values
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
    if _has_network(spec_class):
        if args.network is None:
            raise ValueError("network archive required (or pass --spec FILE)")
        values["network"] = NetworkRef(path=args.network)
    _LOWERINGS[spec_class](values, args)
    missing = [
        " | ".join(
            flag.flag for flag in spec_class.cli_flags
            if flag.path.split(".")[0] == f.name
        )
        for f in dataclasses.fields(spec_class)
        if f.name not in values
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(
            f"{', '.join(missing)} required (or run from a stored "
            "--spec FILE)"
        )
    return _build(spec_class, values)


def _resolve_spec(args, spec_class):
    """The shared ``--spec FILE`` / flag shell of every spec verb.

    Builds the spec from the flags, or loads the stored one
    (type-checked against the verb).  A stored spec is edited, not
    partially overridden: any table flag typed next to ``--spec`` is an
    error; only a positional network path overrides.
    """
    if args.spec is None:
        return spec_from_args(spec_class, args)
    typed = [
        flag.flag for flag in spec_class.cli_flags
        if getattr(args, flag.attr) is not None
    ]
    if typed:
        raise ValueError(
            f"--spec conflicts with {', '.join(typed)}: spec flags cannot "
            "be combined with --spec — the stored spec defines the run "
            "(edit the file, or rebuild it with --dump-spec)"
        )
    spec = load_spec(args.spec)
    if not isinstance(spec, spec_class):
        raise ValueError(
            f"{args.spec} holds a {type(spec).__name__}; {args.command} "
            f"needs a {spec_class.__name__}"
        )
    if getattr(args, "network", None) is not None:
        spec = spec.replace(network=NetworkRef(path=args.network))
    return spec


def _dump(spec) -> int:
    print(spec.to_json(), end="")
    return 0


def _instruments(args):
    """``(profile, obs)``: a fresh PhaseProfile when ``--profile`` and a
    fresh RunObserver when ``--obs`` was typed, else None each."""
    profile = obs = None
    if args.profile:
        from .profiling import PhaseProfile

        profile = PhaseProfile()
    if args.obs is not None:
        from .obs import RunObserver

        obs = RunObserver()
    return profile, obs


def _report_instruments(profile, obs, spec, path) -> None:
    """Print the phase table and persist the observer's run record."""
    if profile is not None:
        print(profile.report())
    if obs is not None:
        from .obs import save_run_record

        out = save_run_record(obs.record(spec.to_dict()), path)
        print(f"obs record -> {out} (inspect with 'repro obs {out}')")


def _describe_sampler(spec) -> str:
    sampler = spec.sampler
    if sampler.kind == "fixed":
        return f"distribution {sampler.distribution}, fault {spec.fault.kind}"
    if sampler.kind == "bernoulli":
        return f"p_fail {sampler.p_fail}, fault {spec.fault.kind}"
    return f"mixed population ({len(sampler.components)} components)"


def _cmd_survival(args) -> int:
    from . import specs

    spec = _resolve_spec(args, SurvivalSpec)
    if args.dump_spec:
        return _dump(spec)
    profile, obs = _instruments(args)
    outcome = specs.run(
        spec, workers=args.workers or None, profile=profile, obs=obs
    )
    if spec.method == "certified":
        print(
            "certified P[eps-guarantee survives | "
            f"p_fail={spec.p_fail}] >= {outcome:.6f}"
        )
    else:
        print(f"monte-carlo survival: {outcome!r}")
    _report_instruments(profile, obs, spec, args.obs)
    return 0


def _cmd_campaign(args) -> int:
    from . import specs

    spec = _resolve_spec(args, CampaignSpec)
    if args.dump_spec:
        return _dump(spec)
    if spec.sampler.kind == "exhaustive":
        from .faults.campaign import count_crash_configurations

        total = count_crash_configurations(
            spec.network.resolve(), spec.sampler.n_fail
        )
        print(f"exhaustive sweep: {total} configurations of "
              f"{spec.sampler.n_fail} crashes")
    else:
        print(f"monte-carlo campaign: {spec.n_scenarios} scenarios, "
              f"{_describe_sampler(spec)}")
    profile, obs = _instruments(args)
    result = specs.run(spec, profile=profile, obs=obs)
    print(result.summary())
    if result.errors.size:
        print(
            f"  p50={result.quantile(0.5):.6g}  "
            f"p99={result.quantile(0.99):.6g}"
        )
    if spec.threshold is not None and result.errors.size:
        frac = result.fraction_exceeding(spec.threshold)
        print(f"  fraction exceeding {spec.threshold:g}: {frac:.4f}")
    rep = result.adaptive
    if rep is not None and hasattr(rep, "stopped"):
        word = "stopped" if rep.stopped else "hit the cap"
        print(
            f"  adaptive ({rep.method}): {word} after "
            f"{rep.n_scenarios}/{rep.n_cap} scenarios; violation rate "
            f"{rep.estimate:.6g} in [{rep.ci_low:.6g}, {rep.ci_high:.6g}] "
            f"at delta={rep.delta:g}"
        )
    elif rep is not None:
        print(
            f"  stratified ({rep.allocation}): violation rate "
            f"{rep.estimate:.6g} in [{rep.ci_low:.6g}, {rep.ci_high:.6g}], "
            f"n={rep.n_scenarios}, certified-zero mass "
            f"{rep.certified_mass:.6g} over shells {list(rep.certified_shells)}"
        )
    _report_instruments(profile, obs, spec, args.obs)
    return 0


def _chaos_replay(path: str) -> int:
    """``chaos --replay TRACE``: re-serve a stored trace to the
    detectors its spec declares and report alarm parity with the live
    run — no network, no simulation."""
    import numpy as np

    from . import specs
    from .chaos.replay import replay_detectors
    from .chaos.telemetry import load_trace
    from .specs.dispatch import build_detector

    trace = load_trace(path)
    if trace.spec_payload is None:
        raise ValueError(
            "trace carries no spec payload (not produced by a spec "
            "run); rebuild detectors in Python via "
            "repro.chaos.replay_detectors instead"
        )
    spec = specs.spec_from_dict(trace.spec_payload)
    network = None
    if any(d.kind == "certified" for d in spec.detectors):
        network = spec.network.resolve()  # certified alarm needs Fep
    detectors = [build_detector(d, spec, network) for d in spec.detectors]
    print(
        f"replaying {trace.epochs} epochs x {trace.n_replicas} replicas "
        f"({len(detectors)} detectors, no re-simulation)"
    )
    grids = replay_detectors(trace, detectors)
    exact = True
    for name in sorted(grids):
        live = trace.alarms.get(name)
        if live is None:
            status = "no live grid stored"
            exact = False
        elif np.array_equal(grids[name], live):
            status = "matches the live run exactly"
        else:
            status = "DIFFERS from the live run"
            exact = False
        print(f"  {name}: {int(grids[name].sum())} alarm cells; {status}")
    print("replay parity:", "exact" if exact else "NOT exact")
    return 0 if exact else 1


def _cmd_chaos(args) -> int:
    from . import specs

    if args.replay is not None:
        return _chaos_replay(args.replay)
    spec = _resolve_spec(args, ChaosSpec)
    if args.telemetry is not None and spec.telemetry is None:
        spec = spec.replace(telemetry=specs.TelemetrySpec())
    if args.dump_spec:
        return _dump(spec)
    print(
        f"chaos campaign: {spec.replicas} replicas x {spec.epochs} "
        f"epochs, processes {[p.kind for p in spec.processes]}, "
        f"policy {spec.policy.kind}"
    )
    profile, obs = _instruments(args)
    report = specs.run(spec, profile=profile, obs=obs)
    print(report.summary())
    if args.telemetry is not None:
        from .chaos.telemetry import save_trace

        t = spec.telemetry
        trace = report.trace.retained(
            retain_errors=t.retain_errors, retain_epochs=t.retain_epochs
        )
        json_path = save_trace(trace, args.telemetry)
        print(
            f"telemetry trace -> {json_path} "
            f"(+ {json_path.with_suffix('.npz').name})"
        )
    _report_instruments(profile, obs, spec, args.obs)
    return 0


def _cmd_obs(args) -> int:
    from .obs import (
        MetricsRegistry,
        RunTrace,
        events_jsonl,
        load_run_record,
        profile_from_metrics,
        render_metrics_table,
        render_openmetrics,
        render_span_tree,
    )

    record = load_run_record(args.record)
    trace = RunTrace.from_dict(record["trace"])
    metrics = MetricsRegistry.from_dict(record["metrics"])
    if args.openmetrics:
        print(render_openmetrics(metrics), end="")
    elif args.jsonl:
        print(events_jsonl(trace), end="")
    elif args.profile:
        print(profile_from_metrics(metrics).report())
    else:
        spec_payload = record.get("spec")
        if spec_payload:
            print(
                f"spec: {spec_payload.get('spec', '?')} "
                f"(version {spec_payload.get('spec_version', '?')})"
            )
        print(render_span_tree(trace))
        print(render_metrics_table(metrics))
    return 0


def _cmd_aiops(args) -> int:
    import json as _json

    from .chaos.aiops import scorecard
    from .chaos.telemetry import load_trace
    from .artifacts import jsonable

    sheet = scorecard(load_trace(args.trace))
    print(_json.dumps(jsonable(sheet), indent=2, sort_keys=True))
    return 0


def _make_client(args):
    """A ServiceClient for the parsed endpoint flags (submit/shutdown)."""
    from .service import DEFAULT_SOCKET, ServiceClient

    if args.port is not None:
        return ServiceClient(host=args.host or "127.0.0.1", port=args.port)
    if args.host is not None:
        raise ValueError("--host needs --port")
    return ServiceClient(args.socket or DEFAULT_SOCKET)


def _cmd_serve(args) -> int:
    import asyncio

    from .service import CampaignService

    spec = _resolve_spec(args, ServiceSpec)
    if args.dump_spec:
        return _dump(spec)
    service = CampaignService(spec)
    print(f"repro service listening on {service.endpoint}", file=sys.stderr)
    try:
        asyncio.run(service.serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _cmd_submit(args) -> int:
    import json as _json

    from .service import ServiceUnavailable, summarize_result

    spec = load_spec(args.spec)
    client = _make_client(args)

    def on_event(message):
        mtype = message.get("type")
        if mtype == "chunk" and args.stream:
            print(
                f"chunk {message.get('index')}: "
                f"{message.get('scenarios')} scenarios "
                f"({message.get('evaluated')} evaluated)",
                file=sys.stderr,
            )
        elif mtype == "adaptive" and args.stream:
            print(
                f"adaptive stop: n={message.get('n_scenarios')} "
                f"estimate={message.get('estimate'):.6g} "
                f"CI [{message.get('ci_low'):.6g}, "
                f"{message.get('ci_high'):.6g}]",
                file=sys.stderr,
            )

    try:
        terminal = client.submit(
            spec, stream=args.stream, timeout=args.timeout,
            on_event=on_event,
        )
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    ttype = terminal.get("type")
    if ttype == "result":
        payload = terminal["result"]
        if args.json:
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            provenance = (
                "cached" if terminal.get("cached")
                else "coalesced" if terminal.get("coalesced")
                else "evaluated"
            )
            print(f"[{provenance}] {summarize_result(payload)}")
        return 0
    if ttype == "rejected":
        print(f"error: job rejected: {terminal.get('reason')}",
              file=sys.stderr)
    elif ttype == "timeout":
        print(f"error: job timed out after {terminal.get('timeout_s')}s",
              file=sys.stderr)
    else:
        print(f"error: {terminal.get('kind')}: {terminal.get('detail')}",
              file=sys.stderr)
    return 1


def _cmd_shutdown(args) -> int:
    from .service import ServiceUnavailable

    client = _make_client(args)
    try:
        ack = client.shutdown(drain=not args.no_drain)
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"service stopped (drained {ack.get('drained', 0)} jobs)")
    return 0


_COMMANDS = {
    "run-all": _cmd_run_all,
    "report": _cmd_report,
    "experiments": _cmd_experiments,
    "certify": _cmd_certify,
    "inspect": _cmd_inspect,
    "survival": _cmd_survival,
    "campaign": _cmd_campaign,
    "chaos": _cmd_chaos,
    "obs": _cmd_obs,
    "aiops": _cmd_aiops,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "shutdown": _cmd_shutdown,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        # Missing archives, unreadable files and malformed specs or
        # flags read as one-line CLI errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
