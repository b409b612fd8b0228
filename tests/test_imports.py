"""Import budget of the serve and run paths.

Starting the daemon or running a campaign/chaos spec must not load
scipy, networkx or the experiment registry: those cost most of a cold
start and none of these paths use them (DESIGN.md, "Cold start").
``import repro`` and the path to the daemon's first pong load no numpy
and no engine either; a campaign loads its engines on its first job,
and never the chaos subsystem.
Each case runs in a fresh interpreter, because this test process has
long since imported everything; the checks are on module names, never
on times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "tests" / "fixtures" / "specs"

#: Top-level modules the serve and run paths must leave unloaded.
HEAVY = ("scipy", "networkx", "repro.experiments")

#: What ``import repro`` and the path to the first pong leave unloaded.
ENGINES = (
    "numpy", "repro.faults", "repro.network", "repro.core", "repro.chaos",
    "repro.distributed",
)


def loaded_after(code: str, modules: tuple = HEAVY) -> list:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_fixture(name: str) -> str:
    return (
        "from repro import run\n"
        "from repro.specs import load_spec\n"
        "from repro.service.protocol import result_payload\n"
        f"spec = load_spec({str(SPECS / name)!r})\n"
        "result_payload(spec, run(spec))\n"
    )


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.service.daemon"]
)
def test_import_stays_light(module):
    assert loaded_after(f"import {module}", HEAVY + ENGINES) == []


def test_campaign_run_and_encode_load_no_chaos():
    code = run_fixture("campaign_crash.json")
    assert loaded_after(code, ("repro.chaos",)) == []


@pytest.mark.parametrize(
    "fixture", ["campaign_crash.json", "chaos_bursts_repair_cusum.json"]
)
def test_run_and_encode_stay_light(fixture):
    assert loaded_after(run_fixture(fixture)) == []


def test_certified_survival_loads_scipy_on_first_use():
    assert loaded_after(run_fixture("survival_certified.json")) == ["scipy"]
