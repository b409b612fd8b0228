"""Documentation consistency gate (``make docs-check``).

Fails when the generated/maintained docs drift from the experiment
registry: a registered experiment missing from EXPERIMENTS.md or
docs/paper_map.md, an experiment module or entry point without a
docstring, or a README that lost its links. Runs in the tier-1 suite
and standalone via the ``docs`` marker.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro.experiments as exp_pkg
from repro.experiments import registry

pytestmark = pytest.mark.docs

ROOT = Path(__file__).resolve().parent.parent


def _read(relpath: str) -> str:
    path = ROOT / relpath
    assert path.exists(), f"{relpath} is missing (see README / Makefile)"
    return path.read_text(encoding="utf-8")


def test_experiments_md_lists_every_registered_experiment():
    text = _read("EXPERIMENTS.md")
    for exp in registry.all_experiments():
        assert f"`{exp.experiment_id}`" in text, (
            f"{exp.experiment_id} missing from EXPERIMENTS.md — "
            "regenerate with `python -m repro report`"
        )
        assert f"`{exp.command}`" in text


def test_paper_map_lists_every_registered_experiment():
    text = _read("docs/paper_map.md")
    for exp in registry.all_experiments():
        assert f"`{exp.experiment_id}`" in text, (
            f"{exp.experiment_id} missing from docs/paper_map.md"
        )


def test_paper_map_points_at_real_modules():
    text = _read("docs/paper_map.md")
    for exp in registry.all_experiments():
        relpath = "src/" + exp.module.replace(".", "/") + ".py"
        assert relpath in text, f"{relpath} missing from docs/paper_map.md"
        assert (ROOT / relpath).exists()


def test_readme_links_the_documentation_set():
    text = _read("README.md")
    for link in ("DESIGN.md", "EXPERIMENTS.md", "docs/paper_map.md",
                 "docs/api.md"):
        assert link in text, f"README.md lost its link to {link}"


def test_api_md_documents_every_exported_spec_class():
    """docs/api.md is the spec reference: every spec class exported by
    repro.specs must appear in its reference tables, plus the
    dispatcher itself."""
    import repro.specs as specs_pkg

    text = _read("docs/api.md")
    spec_classes = [
        name
        for name in specs_pkg.__all__
        if name[0].isupper() and name.isidentifier() and not name.isupper()
    ]
    assert spec_classes, "repro.specs exports no spec classes?"
    for name in spec_classes:
        assert f"`{name}`" in text, (
            f"docs/api.md is missing exported spec class {name} — every "
            "spec in the public API must be documented"
        )
    assert "repro.run" in text, "docs/api.md lost the dispatcher reference"


def test_api_md_documents_every_spec_field():
    """The reference table covers every field of every spec dataclass
    (field name appearing in backticks) — a new field must document its
    default and which engine channel it lowers to."""
    import dataclasses

    from repro.specs.model import _SPEC_TYPES

    text = _read("docs/api.md")
    for tag, cls in sorted(_SPEC_TYPES.items()):
        for f in dataclasses.fields(cls):
            assert f"`{f.name}`" in text, (
                f"docs/api.md is missing field {cls.__name__}.{f.name}"
            )


def test_readme_quickstart_uses_the_spec_api():
    text = _read("README.md")
    assert "repro.run" in text or "run(spec" in text, (
        "README quickstart no longer shows the spec-layer entry point"
    )
    assert "--dump-spec" in text and "--spec" in text, (
        "README lost the CLI spec round-trip story"
    )


def test_design_md_documents_the_pipeline():
    text = _read("DESIGN.md")
    for needle in ("registry", "artifact", "EXPERIMENTS.md"):
        assert needle in text


def test_every_experiment_module_has_a_docstring():
    for info in pkgutil.iter_modules(exp_pkg.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        assert (module.__doc__ or "").strip(), (
            f"repro.experiments.{info.name} has no module docstring"
        )


def test_every_registered_entry_point_has_a_docstring():
    for exp in registry.all_experiments():
        assert (exp.fn.__doc__ or "").strip(), (
            f"{exp.experiment_id}'s entry point has no docstring"
        )


def _concrete_fault_models():
    import repro.faults.types as types_mod
    from repro.faults.types import FaultModel, NeuronFault, SynapseFault

    abstract = {FaultModel, NeuronFault, SynapseFault}

    def walk(cls):
        for sub in cls.__subclasses__():
            yield from walk(sub)
        if cls not in abstract and cls.__module__ == types_mod.__name__:
            yield cls

    return sorted(set(walk(FaultModel)), key=lambda c: c.__name__)


def test_every_fault_model_lowers_and_has_a_taxonomy_row():
    """Taxonomy gate: every concrete FaultModel subclass lowers onto
    the mask campaign engine (fault_channel_action /
    synapse_fault_action), the one evaluator, and has a row in
    DESIGN.md's fault-taxonomy table."""
    import re

    from repro.faults.injector import fault_channel_action, synapse_fault_action

    design = _read("DESIGN.md")
    models = _concrete_fault_models()
    assert models, "no concrete fault models found in repro.faults.types"
    for cls in models:
        instance = cls()  # every taxonomy model has total defaults
        assert (
            fault_channel_action(instance) is not None
            or synapse_fault_action(instance) is not None
        ), f"{cls.__name__} has no mask-channel lowering"
        # Anchor on taxonomy-table rows ("| `ClassName` | ..."), not bare
        # substrings — CrashFault must not pass via SynapseCrashFault's
        # row.
        assert re.search(
            rf"^\|\s*`{cls.__name__}`\s*\|.*$", design, flags=re.M
        ), f"{cls.__name__} has no row in DESIGN.md's fault-taxonomy table"


def test_paper_map_documents_the_fault_taxonomy():
    text = _read("docs/paper_map.md")
    for needle in (
        "SynapseByzantineFault", "IntermittentFault", "Lemma 2 / Theorem 4",
        "MixedFaultSampler",
    ):
        assert needle in text, f"{needle} missing from docs/paper_map.md"
