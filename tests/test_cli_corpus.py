"""The CLI is generated from the spec flag tables: a compatibility gate.

``tests/fixtures/cli/`` pins the command line as it stood before the
spec verbs (``campaign``/``survival``/``chaos``/``serve``) were
generated from their spec classes' ``cli_flags`` tables:

* ``dump_spec.json`` — the ``--dump-spec`` bytes of every README /
  EXPERIMENTS example line plus one line per flag (and per choice) of
  the four verbs; each must still print byte-identically, so spec
  content hashes (and daemon cache keys) never move;
* ``options.json`` — each verb's option strings, choices, metavars,
  nargs, action kinds and namespace attributes;
* ``<verb>.help.txt`` — each verb's ``--help`` (COLUMNS=80), whose
  option listing must stay the same set.

On top of the corpus, a hypothesis sweep draws command lines from the
tables themselves and checks that ``--dump-spec`` -> ``--spec``
round-trips byte-identically, that each typed flag lands on its
declared field path, and that ``--spec`` next to any table flag is a
typed exit-2 error.  Run with ``make spec-roundtrip``.
"""

import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.specs import (
    CampaignSpec,
    ChaosSpec,
    ServiceSpec,
    SurvivalSpec,
    spec_from_dict,
)

CORPUS = Path(__file__).resolve().parent / "fixtures" / "cli"
VERBS = {
    "campaign": CampaignSpec,
    "survival": SurvivalSpec,
    "chaos": ChaosSpec,
    "serve": ServiceSpec,
}
#: Flags of the spec verbs that steer execution, not the spec: allowed
#: next to ``--spec`` and deliberately absent from the tables.
EXECUTION_FLAGS = {
    "campaign": {"--spec", "--dump-spec", "--obs", "--profile"},
    "survival": {"--spec", "--dump-spec", "--obs", "--profile",
                 "--workers"},
    "chaos": {"--spec", "--dump-spec", "--obs", "--profile",
              "--telemetry", "--replay"},
    "serve": {"--spec", "--dump-spec"},
}
DUMPS = json.loads((CORPUS / "dump_spec.json").read_text(encoding="utf-8"))


def _subparser(verb):
    parser = build_parser()
    sub = next(
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    )
    return sub.choices[verb]


def _option_table(verb):
    rows = {}
    for action in _subparser(verb)._actions:
        if not action.option_strings:
            if action.dest != "help":
                rows[action.dest] = {"positional": True, "nargs": action.nargs}
            continue
        if "-h" in action.option_strings:
            continue
        rows[action.option_strings[0]] = {
            "choices": list(action.choices) if action.choices else None,
            "metavar": action.metavar,
            "nargs": action.nargs,
            "action": type(action).__name__,
            "dest": action.dest,
        }
    return rows


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "entry", DUMPS, ids=[entry["line"] for entry in DUMPS]
)
def test_corpus_line_dumps_the_parents_bytes(entry, capsys):
    code, out, err = _run(shlex.split(entry["line"]) + ["--dump-spec"], capsys)
    assert code == 0, err
    assert out == entry["dump"]


def test_corpus_covers_every_table_flag():
    typed = {
        (line.split()[0], token)
        for line in (entry["line"] for entry in DUMPS)
        for token in line.split()
        if token.startswith("--")
    }
    for verb, spec_class in VERBS.items():
        for flag in spec_class.cli_flags:
            assert (verb, flag.flag) in typed, (verb, flag.flag)


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_keeps_its_options(verb):
    stored = json.loads((CORPUS / "options.json").read_text(encoding="utf-8"))
    assert _option_table(verb) == stored[verb]


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_help_lists_the_same_options(verb):
    def listed(text):
        return set(re.findall(r"^  (--[a-z-]+)", text, flags=re.M))

    stored = (CORPUS / f"{verb}.help.txt").read_text(encoding="utf-8")
    assert listed(_subparser(verb).format_help()) == listed(stored)


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_spec_flag_is_one_table_row(verb):
    """The table is the whole spec surface of the verb: each non-
    execution option is exactly one row, and no row repeats a flag."""
    flags = [flag.flag for flag in VERBS[verb].cli_flags]
    assert len(flags) == len(set(flags))
    options = {k for k in _option_table(verb) if k.startswith("--")}
    assert options - EXECUTION_FLAGS[verb] == set(flags)


# -- property sweep over the tables -----------------------------------------

_unit = st.floats(0.01, 0.99).map(lambda v: f"{v:.3f}")
_small = st.integers(1, 64).map(str)

#: One valid-value strategy per table flag; cross-flag constraints are
#: repaired per verb below.
VALUES = {
    "--distribution": st.lists(st.integers(0, 3), min_size=1, max_size=3)
    .map(lambda fs: ",".join(map(str, fs))),
    "--exhaustive": st.integers(0, 3).map(str),
    "--p-fail": _unit,
    "--n-scenarios": _small,
    "--value": st.floats(-2, 2).map(lambda v: f"{v:.3f}"),
    "--sigma": _unit,
    "--p-transient": _unit,
    "--capacity": st.floats(0.5, 4).map(lambda v: f"{v:.3f}"),
    "--batch": _small,
    "--seed": st.integers(0, 2**31).map(str),
    "--chunk-size": _small,
    "--workers": st.integers(0, 4).map(str),
    "--threshold": _unit,
    "--target-ci": _unit,
    "--delta": _unit,
    "--min-scenarios": _small,
    "--epsilon": st.just("0.5"),
    "--epsilon-prime": st.sampled_from(["0.1", "0.35", "0.5"]),
    "--n-trials": _small,
    "--rate": _unit,
    "--weibull-shape": st.floats(0.1, 5).map(lambda v: f"{v:.3f}"),
    "--epochs": _small,
    "--replicas": _small,
    "--period": _small,
    "--latency": st.integers(0, 8).map(str),
    "--spares": st.integers(0, 8).map(str),
    "--epochs-chunk": _small,
    "--socket": st.just("svc.sock"),
    "--host": st.sampled_from(["127.0.0.1", "localhost", "::1"]),
    "--port": st.integers(1, 65535).map(str),
    "--max-inflight": _small,
    "--queue-depth": st.integers(0, 64).map(str),
    "--job-timeout": st.floats(0.1, 60).map(lambda v: f"{v:.3f}"),
    "--results-dir": st.just("results"),
    "--cache-entries": st.integers(0, 64).map(str),
}
_VALUE_FAULTS = ("byzantine", "stuck", "offset", "synapse-byzantine")
_STOPPING = ("--target-ci", "--delta", "--stopping-method",
             "--min-scenarios", "--stratify", "--allocation")


def _value_strategy(flag):
    if flag.action == "store_true":
        return st.just(None)
    if flag.action == "append":
        return st.lists(
            st.sampled_from(flag.choices), min_size=1, max_size=3, unique=True
        )
    if flag.choices is not None:
        return st.sampled_from(flag.choices)
    return VALUES[flag.flag]


def _repair(verb, typed, draw):
    """Make a drawn flag set a valid command (cross-flag constraints)."""
    if verb == "campaign":
        selectors = [f for f in ("--distribution", "--exhaustive", "--p-fail")
                     if f in typed]
        keep = selectors[0] if selectors else draw(st.sampled_from(
            ["--distribution", "--exhaustive", "--p-fail"]))
        for flag in ("--distribution", "--exhaustive", "--p-fail"):
            typed.pop(flag, None)
        typed[keep] = draw(VALUES[keep])
        if keep == "--exhaustive":
            for flag in list(typed):
                if flag in ("--fault", "--value", "--sigma", "--p-transient",
                            "--n-scenarios") or flag in _STOPPING:
                    del typed[flag]
        if "--value" in typed and typed.get("--fault") not in _VALUE_FAULTS:
            typed["--fault"] = draw(st.sampled_from(_VALUE_FAULTS))
        if any(f in typed for f in _STOPPING):
            typed.setdefault("--threshold", "0.4")
        if "--stratify" in typed or "--allocation" in typed:
            typed.pop("--distribution", None)
            typed["--p-fail"] = typed.get("--p-fail") or "0.05"
            if typed.get("--fault", "").startswith("synapse"):
                typed["--fault"] = "crash"
                typed.pop("--value", None)
    elif verb == "survival":
        for flag in ("--p-fail", "--epsilon", "--epsilon-prime"):
            typed.setdefault(flag, draw(VALUES[flag]))
        if any(f in typed for f in _STOPPING):
            typed.pop("--method", None)
    elif verb == "chaos":
        for flag in ("--epsilon", "--epsilon-prime"):
            typed.setdefault(flag, draw(VALUES[flag]))
    else:
        if "--host" in typed:
            typed.setdefault("--port", "8765")
        if "--port" in typed:
            typed.pop("--socket", None)
    return typed


def _argv(verb, typed):
    argv = [verb] + (["net.npz"] if verb != "serve" else [])
    for flag, value in typed.items():
        if value is None:
            argv.append(flag)
        elif isinstance(value, list):
            for item in value:
                argv += [flag, item]
        else:
            argv += [flag, value]
    return argv


def _at(spec, path):
    node = spec
    for name in path.split("."):
        if isinstance(node, tuple):
            node = [getattr(item, name) for item in node]
        else:
            node = getattr(node, name)
    return node


def _expected(flag, value):
    """What a typed value must read as at the row's field path."""
    if flag.action == "store_true":
        return True
    if flag.flag == "--distribution":
        return tuple(int(v) for v in value.split(","))
    if flag.flag == "--fault":
        return value.replace("-", "_")
    if flag.flag == "--process":
        return ["lifetime" if v == "weibull" else v for v in value]
    if flag.type is not None:
        return flag.type(value)
    return value


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("verb", sorted(VERBS))
def test_table_lines_round_trip_and_land(verb, data, tmp_path, capsys):
    flags = VERBS[verb].cli_flags
    chosen = data.draw(
        st.lists(st.sampled_from(flags), max_size=8, unique=True)
    )
    typed = {flag.flag: data.draw(_value_strategy(flag)) for flag in chosen}
    typed = _repair(verb, typed, data.draw)
    argv = _argv(verb, typed)

    code, dumped, err = _run(argv + ["--dump-spec"], capsys)
    assert code == 0, (argv, err)
    spec = spec_from_dict(json.loads(dumped))
    by_flag = {flag.flag: flag for flag in flags}
    for name, value in typed.items():
        flag = by_flag[name]
        got = _at(spec, flag.path)
        if name == "--weibull-shape":
            kinds = typed.get("--process", [])
            got = [s for s, k in zip(got, kinds) if k == "weibull"]
            assert got == [flag.type(value)] * len(got)
            continue
        expected = _expected(flag, value)
        if isinstance(got, list) and flag.action != "append":
            got = set(got) or {expected}  # broadcast over the processes
            expected = {expected}
        assert got == expected, (argv, name)

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(dumped, encoding="utf-8")
    code, again, _ = _run([verb, "--spec", str(spec_file), "--dump-spec"],
                          capsys)
    assert code == 0 and again == dumped

    # Every table flag typed next to --spec is a typed error.
    extra = data.draw(st.sampled_from(flags))
    value = data.draw(_value_strategy(extra))
    code, _, err = _run(
        _argv(verb, {extra.flag: value})
        + ["--spec", str(spec_file), "--dump-spec"],
        capsys,
    )
    assert code == 2
    assert f"--spec conflicts with {extra.flag}" in err
