"""Public-API hygiene: exports exist, subpackages import cleanly, and
the top-level namespace matches the README's promises."""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.core",
    "repro.network",
    "repro.training",
    "repro.faults",
    "repro.distributed",
    "repro.quantization",
    "repro.analysis",
    "repro.experiments",
    "repro.specs",
    "repro.service",
    "repro.cli",
]

#: The spec family `repro.__init__` promises (and docs/api.md documents).
SPEC_EXPORTS = [
    "NetworkRef",
    "FaultSpec",
    "SamplerSpec",
    "EngineSpec",
    "CampaignSpec",
    "SurvivalSpec",
    "ProcessSpec",
    "DetectorSpec",
    "PolicySpec",
    "TrafficSpec",
    "TelemetrySpec",
    "ChaosSpec",
    "ServiceSpec",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestTopLevelPromises:
    def test_readme_quickstart_names(self):
        """The names used by README's quickstart must be top-level."""
        import repro

        for name in (
            "build_mlp",
            "certify",
            "FaultInjector",
            "random_failure_scenario",
        ):
            assert hasattr(repro, name)

    def test_core_reexports(self):
        from repro import (  # noqa: F401
            check_theorem1,
            check_theorem3,
            check_theorem4,
            check_theorem5,
            forward_error_propagation,
            precision_error_bound,
            synapse_fep,
            theorem1_max_crashes,
        )

    def test_experiment_ids_match_paper_anchors(self):
        from repro.experiments import ALL_EXPERIMENTS

        expected = {
            "figure1", "figure2", "figure3",
            "theorem1", "theorem2", "theorem3", "theorem4", "theorem5",
            "lemma1",
            "corollary1_overprovision", "corollary2_boosting",
            "tradeoff_k", "tradeoff_weights",
            "section6_conv",
            "intro_pruning", "baseline_smr",
            "extension_reliability", "extension_fep_learning",
            "chaos_survival", "chaos_rejuvenation",
            "quantized_probes", "adaptive_sampling",
            "incident_replay",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_every_experiment_callable_without_args(self):
        from repro.experiments import ALL_EXPERIMENTS
        import inspect

        for name, fn in ALL_EXPERIMENTS.items():
            sig = inspect.signature(fn)
            required = [
                p for p in sig.parameters.values()
                if p.default is inspect.Parameter.empty
                and p.kind is not inspect.Parameter.VAR_KEYWORD
            ]
            assert not required, f"{name} requires positional args"


class TestSpecLayerPromises:
    """The declarative run-spec layer is the stable public API: the
    whole family plus run() is exported at the top level (the drift
    this test previously allowed is what docs/api.md now gates)."""

    def test_spec_family_is_top_level(self):
        import repro

        for name in SPEC_EXPORTS + ["run", "SPEC_VERSION", "SpecError",
                                    "spec_from_dict", "load_spec",
                                    "save_spec"]:
            assert hasattr(repro, name), f"repro.{name} not exported"
            assert name in repro.__all__, f"repro.{name} missing from __all__"

    def test_specs_are_frozen_dataclasses(self):
        import dataclasses

        import repro

        for name in SPEC_EXPORTS:
            cls = getattr(repro, name)
            assert dataclasses.is_dataclass(cls), f"{name} is not a dataclass"
            assert cls.__dataclass_params__.frozen, f"{name} is not frozen"

    def test_run_dispatches_every_runnable_spec(self):
        """run()'s docstring promises the three workload returns."""
        import repro

        doc = repro.run.__doc__ or ""
        for name in ("CampaignSpec", "SurvivalSpec", "ChaosSpec"):
            assert name in doc

    def test_deprecated_entry_points_are_gone(self):
        """The direct-kwargs shims were removed in favour of specs."""
        import repro
        import repro.chaos
        import repro.faults

        for module in (repro, repro.faults, repro.chaos):
            for name in ("monte_carlo_campaign", "run_chaos_campaign"):
                assert name not in module.__all__
                assert not hasattr(module, name)


class TestDocstringCoverage:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_module_docstrings(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    def test_public_callables_documented(self):
        """Every public callable/class in core and faults is documented."""
        for pkg_name in ("repro.core", "repro.faults", "repro.distributed"):
            pkg = importlib.import_module(pkg_name)
            for symbol in pkg.__all__:
                obj = getattr(pkg, symbol)
                if callable(obj):
                    assert obj.__doc__, f"{pkg_name}.{symbol} lacks a docstring"
