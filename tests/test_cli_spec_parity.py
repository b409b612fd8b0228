"""CLI <-> spec parity: the argparse path IS the spec path.

For every ``campaign``/``survival``/``chaos`` example command in
README.md and EXPERIMENTS.md (sizes clamped so the suite stays fast),
assert that

* the argparse namespace lowers (``spec_from_args`` over the spec's
  flag table) to a spec whose ``repro.run`` output is bit-identical
  to the legacy direct-kwargs wiring the CLI used to perform inline
  (same artifact content hash, same seeds);
* ``--dump-spec`` output reloads through ``--spec`` byte-identically;
* ``--spec`` rejects every typed spec flag and keeps execution flags.

The generated counterpart — command lines drawn from the flag tables
themselves, plus the pinned per-flag corpus — is
``tests/test_cli_corpus.py``.
"""

import argparse
import dataclasses
import hashlib
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro import specs
from repro.cli import build_parser, main, spec_from_args
from repro.network import build_mlp, save_network

ROOT = Path(__file__).resolve().parent.parent

#: Clamps applied to documentation-scale flags (value = test ceiling).
_CLAMPS = {
    "--n-scenarios": 300,
    "--epochs": 10,
    "--replicas": 8,
    "--batch": 8,
}


def _doc_commands():
    """Every ``python -m repro campaign/survival/chaos ...`` example in
    README.md / EXPERIMENTS.md, with backslash continuations joined."""
    text = ""
    for name in ("README.md", "EXPERIMENTS.md"):
        text += (ROOT / name).read_text(encoding="utf-8") + "\n"
    joined, buf = [], ""
    for raw in text.splitlines():
        line = raw.strip()
        if buf:
            buf += " " + line.rstrip("\\").strip()
            if not line.endswith("\\"):
                joined.append(buf)
                buf = ""
            continue
        if line.startswith("python -m repro "):
            if line.endswith("\\"):
                buf = line.rstrip("\\").strip()
            else:
                joined.append(line)
    commands = []
    for line in joined:
        line = line.split("#")[0].split(">")[0].strip()
        argv = shlex.split(line)[3:]  # drop `python -m repro`
        if not argv or argv[0] not in ("campaign", "survival", "chaos"):
            continue
        if "--spec" in argv or "--dump-spec" in argv:
            # The spec-file round-trip examples are exercised by the
            # dedicated dump-spec tests below, not the parity harness.
            continue
        commands.append(argv)
    return commands


DOC_COMMANDS = _doc_commands()


def _clamped(argv, network_path):
    out = []
    it = iter(argv)
    for token in it:
        if token.endswith(".npz"):
            out.append(network_path)
        elif token in _CLAMPS:
            value = next(it)
            out.extend([token, str(min(int(value), _CLAMPS[token]))])
        else:
            out.append(token)
    return out


@pytest.fixture(scope="module")
def saved_net(tmp_path_factory):
    net = build_mlp(
        2, [8, 6], activation={"name": "sigmoid", "k": 0.5},
        init={"name": "uniform", "scale": 0.1}, output_scale=0.05, seed=40,
    )
    return str(save_network(net, tmp_path_factory.mktemp("nets") / "net.npz"))


def _legacy_campaign(args):
    """The pre-spec CLI wiring, verbatim: the parity reference."""
    from repro.faults.campaign import (
        _monte_carlo_campaign,
        exhaustive_crash_campaign,
    )
    from repro.faults.injector import FaultInjector
    from repro.faults.types import (
        ByzantineFault,
        CrashFault,
        IntermittentFault,
        NoiseFault,
        OffsetFault,
        SignFlipFault,
        StuckAtFault,
        SynapseByzantineFault,
        SynapseCrashFault,
        SynapseNoiseFault,
    )
    from repro.network.serialization import load_network

    network = load_network(args.network)
    capacity = (
        args.capacity if args.capacity is not None else network.output_bound
    )
    injector = FaultInjector(network, capacity=capacity)
    x = np.random.default_rng(args.seed).random(
        (max(1, args.batch), network.input_dim)
    )
    if args.exhaustive is not None:
        return exhaustive_crash_campaign(
            injector, x, args.exhaustive,
            chunk_size=args.chunk_size, n_workers=args.workers,
            dtype=args.dtype,
        )
    distribution = tuple(int(v) for v in args.distribution.split(","))
    value = args.value if args.value is not None else 1.0
    fault = {
        "crash": CrashFault(),
        "byzantine": ByzantineFault(value=args.value),
        "stuck": StuckAtFault(value=value),
        "offset": OffsetFault(offset=value),
        "noise": NoiseFault(sigma=args.sigma),
        "intermittent": IntermittentFault(p=args.p_transient),
        "sign-flip": SignFlipFault(),
        "synapse-crash": SynapseCrashFault(),
        "synapse-byzantine": SynapseByzantineFault(offset=args.value),
        "synapse-noise": SynapseNoiseFault(sigma=args.sigma),
    }[args.fault or "crash"]
    return _monte_carlo_campaign(
        injector, x, distribution,
        n_scenarios=args.n_scenarios if args.n_scenarios is not None else 10_000,
        fault=fault, seed=args.seed, chunk_size=args.chunk_size,
        n_workers=args.workers, dtype=args.dtype,
    )


def _legacy_chaos(args):
    from repro.chaos import (
        CertifiedAlarmDetector,
        ComponentLifetimeProcess,
        ConstantTraffic,
        CorrelatedBlastProcess,
        CUSUMDetector,
        DetectorRepairPolicy,
        DiurnalTraffic,
        NoRepairPolicy,
        ParetoBurstyTraffic,
        PeriodicRejuvenationPolicy,
        PoissonArrivalProcess,
        SpareActivationPolicy,
        ThresholdDetector,
        TransientBurstProcess,
    )
    from repro.chaos.campaign import _run_chaos_campaign
    from repro.core.tolerance import greedy_max_total_failures
    from repro.network.serialization import load_network

    network = load_network(args.network)
    budget = args.epsilon - args.epsilon_prime
    x = np.random.default_rng(args.seed).random(
        (args.batch, network.input_dim)
    )
    process_factories = {
        "lifetime": lambda: ComponentLifetimeProcess(args.rate),
        "weibull": lambda: ComponentLifetimeProcess(
            args.rate, shape=max(args.weibull_shape, 1e-9)
        ),
        "poisson": lambda: PoissonArrivalProcess(args.rate),
        "bursts": lambda: TransientBurstProcess(min(args.rate, 1.0)),
        "blasts": lambda: CorrelatedBlastProcess(min(args.rate, 1.0)),
    }
    detector_factories = {
        "threshold": lambda: ThresholdDetector(budget),
        "cusum": lambda: CUSUMDetector(budget / 2.0, 2.0 * budget),
        "certified": lambda: CertifiedAlarmDetector(
            network, args.rate, args.epsilon, args.epsilon_prime,
            capacity=args.capacity,
        ),
    }
    if args.policy == "rejuvenate":
        policy = PeriodicRejuvenationPolicy(
            args.period,
            greedy_max_total_failures(network, args.epsilon, args.epsilon_prime),
        )
    elif args.policy == "repair":
        policy = DetectorRepairPolicy(latency=args.latency)
    elif args.policy == "spare":
        policy = SpareActivationPolicy(args.spares)
    else:
        policy = NoRepairPolicy()
    traffic = {
        "constant": ConstantTraffic,
        "diurnal": DiurnalTraffic,
        "bursty": ParetoBurstyTraffic,
    }[args.traffic]()
    return _run_chaos_campaign(
        network, x,
        [process_factories[n]() for n in (args.processes or ["lifetime"])],
        traffic=traffic,
        detectors=[
            detector_factories[n]() for n in (args.detectors or ["threshold"])
        ],
        policy=policy, epochs=args.epochs, n_replicas=args.replicas,
        epsilon=args.epsilon, epsilon_prime=args.epsilon_prime,
        capacity=args.capacity, seed=args.seed,
        epochs_chunk=args.epochs_chunk, n_workers=args.workers,
        dtype=args.dtype,
    )


def _spec_default(spec_class, path):
    """The spec's own default for the dotted field ``path`` (None where
    the field is required or its parent defaults to None)."""
    head, _, rest = path.partition(".")
    default = spec_class.__dataclass_fields__[head].default
    if default is dataclasses.MISSING or default is None:
        return None
    if not rest:
        return default
    if isinstance(default, tuple):
        default = default[0]
    return getattr(default, rest)


def _legacy_namespace(args, spec_class):
    """The namespace the legacy wiring read: argparse now leaves every
    untyped table flag None, so fill each with the value the old parser
    defaulted it to — the row's CLI default, else the spec's default
    (repeatable flags defaulted to None)."""
    out = argparse.Namespace(**vars(args))
    for flag in spec_class.cli_flags:
        if getattr(out, flag.attr) is None and flag.action != "append":
            setattr(out, flag.attr, flag.default if flag.default is not None
                    else _spec_default(spec_class, flag.path))
    return out


def _errors_digest(result) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(result.errors, dtype=np.float64).tobytes()
    ).hexdigest()


def _command_ids():
    return [" ".join(argv[:4]) for argv in DOC_COMMANDS]


def test_docs_actually_show_spec_backed_commands():
    """The satellite contract is vacuous if the docs lose their CLI
    examples; keep at least the campaign + chaos families visible."""
    verbs = {argv[0] for argv in DOC_COMMANDS}
    assert {"campaign", "chaos"} <= verbs


@pytest.mark.parametrize("argv", DOC_COMMANDS, ids=_command_ids())
def test_doc_example_argparse_equals_spec_path(argv, saved_net):
    argv = _clamped(argv, saved_net)
    args = build_parser().parse_args(argv)
    spec_class = {
        "campaign": specs.CampaignSpec,
        "survival": specs.SurvivalSpec,
        "chaos": specs.ChaosSpec,
    }[argv[0]]
    spec = spec_from_args(spec_class, args)
    args = _legacy_namespace(args, spec_class)
    # Same seeds: the spec records exactly what argparse carried (the
    # survival subcommand is seedless — the certified bound is exact).
    if hasattr(args, "seed"):
        assert spec.seed == args.seed

    outcome = specs.run(spec)
    if argv[0] == "campaign":
        legacy = _legacy_campaign(args)
        assert _errors_digest(outcome) == _errors_digest(legacy)
        np.testing.assert_array_equal(outcome.errors, legacy.errors)
    elif argv[0] == "survival":
        from repro.faults.reliability import certified_survival_probability
        from repro.network.serialization import load_network

        legacy = certified_survival_probability(
            load_network(args.network), args.p_fail, args.epsilon,
            args.epsilon_prime, mode=args.mode, capacity=args.capacity,
        )
        assert outcome == legacy
    else:
        legacy = _legacy_chaos(args)
        assert outcome.to_dict() == legacy.to_dict()


@pytest.mark.parametrize("argv", DOC_COMMANDS, ids=_command_ids())
def test_doc_example_dump_spec_round_trips_byte_identically(
    argv, saved_net, tmp_path, capsys
):
    argv = _clamped(argv, saved_net)
    assert main(argv + ["--dump-spec"]) == 0
    dumped = capsys.readouterr().out
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(dumped, encoding="utf-8")
    assert main([argv[0], "--spec", str(spec_file), "--dump-spec"]) == 0
    assert capsys.readouterr().out == dumped, (
        "--dump-spec must round-trip byte-identically through --spec"
    )


def test_spec_rejects_explicit_workload_flags(saved_net, tmp_path, capsys):
    """--spec owns the workload: an explicitly-typed workload flag next
    to it is an error, not a silent no-op."""
    argv = ["campaign", saved_net, "--distribution", "2,1",
            "--n-scenarios", "50", "--batch", "4"]
    assert main(argv + ["--dump-spec"]) == 0
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(
        ["campaign", "--spec", str(spec_file), "--n-scenarios", "500"]
    ) == 2
    assert "cannot be combined with --spec" in capsys.readouterr().err
    assert main(
        ["chaos", "--spec", str(spec_file), "--epsilon", "0.9"]
    ) == 2  # conflict check fires before the spec-type check
    capsys.readouterr()


def test_spec_file_actually_runs(saved_net, tmp_path, capsys):
    """`--spec FILE` executes the stored workload end to end."""
    argv = ["campaign", saved_net, "--distribution", "2,1",
            "--n-scenarios", "50", "--batch", "4"]
    assert main(argv + ["--dump-spec"]) == 0
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["campaign", "--spec", str(spec_file)]) == 0
    assert "CampaignResult(n=50" in capsys.readouterr().out


@pytest.fixture
def stored_specs(saved_net, tmp_path, capsys):
    """A dumped campaign, survival and chaos spec file per verb."""
    lines = {
        "campaign": ["campaign", saved_net, "--distribution", "2,1",
                     "--n-scenarios", "50", "--batch", "4"],
        "survival": ["survival", saved_net, "--p-fail", "0.05",
                     "--epsilon", "0.5", "--epsilon-prime", "0.35"],
        "chaos": ["chaos", saved_net, "--epsilon", "0.5",
                  "--epsilon-prime", "0.35", "--epochs", "4",
                  "--replicas", "4"],
    }
    files = {}
    for verb, argv in lines.items():
        assert main(argv + ["--dump-spec"]) == 0
        files[verb] = tmp_path / f"{verb}.json"
        files[verb].write_text(capsys.readouterr().out, encoding="utf-8")
    return files


@pytest.mark.parametrize("verb, flags", [
    # The two silently-dropped commands the flag tables fixed.
    ("campaign", ["--seed", "9", "--batch", "2"]),
    ("chaos", ["--epochs", "999", "--policy", "repair"]),
    ("campaign", ["--chunk-size", "64"]),
    ("campaign", ["--dtype", "float32"]),
    ("campaign", ["--backend", "float16"]),
    ("campaign", ["--sigma", "0.3"]),
    ("campaign", ["--workers", "2"]),
    ("survival", ["--mode", "byzantine"]),
    ("chaos", ["--replicas", "3"]),
    ("chaos", ["--rate", "0.5"]),
    ("chaos", ["--traffic", "bursty"]),
])
def test_spec_rejects_every_typed_spec_flag(stored_specs, capsys, verb,
                                            flags):
    """Flags that used to carry a default were invisible to the --spec
    conflict check and silently lost to the file."""
    argv = [verb, "--spec", str(stored_specs[verb]), *flags, "--dump-spec"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --spec conflicts with")
    assert all(flag in err for flag in flags[::2])


@pytest.mark.parametrize("verb, flags", [
    ("campaign", ["--obs", "rec", "--profile"]),
    ("survival", ["--workers", "2", "--obs", "rec", "--profile"]),
    ("chaos", ["--obs", "rec", "--profile"]),
])
def test_spec_accepts_execution_flags(stored_specs, capsys, verb, flags):
    argv = [verb, "--spec", str(stored_specs[verb]), "--dump-spec"]
    assert main(argv) == 0
    dumped = capsys.readouterr().out
    assert main(argv + flags) == 0
    assert capsys.readouterr().out == dumped
