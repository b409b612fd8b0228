"""The declarative run-spec layer: validation, serialization, hashing,
dispatch equivalence, and spec-keyed artifacts."""

import json

import numpy as np
import pytest

from repro.specs import (
    SPEC_VERSION,
    CampaignSpec,
    ChaosSpec,
    DetectorSpec,
    EngineSpec,
    FaultSpec,
    NetworkRef,
    PolicySpec,
    ProcessSpec,
    SamplerSpec,
    SpecError,
    SurvivalSpec,
    TrafficSpec,
    load_spec,
    run,
    save_spec,
    spec_from_dict,
)

NET = NetworkRef(
    builder="mlp",
    params={
        "input_dim": 2,
        "hidden": [8, 6],
        "activation": {"name": "sigmoid", "k": 0.5},
        "init": {"name": "uniform", "scale": 0.1},
        "output_scale": 0.05,
        "seed": 40,
    },
)


def small_campaign(**kw):
    base = dict(
        network=NET,
        sampler=SamplerSpec(kind="fixed", distribution=(2, 1)),
        fault=FaultSpec(kind="crash"),
        n_scenarios=60,
        batch=4,
        seed=3,
    )
    base.update(kw)
    return CampaignSpec(**base)


def small_chaos(**kw):
    base = dict(
        network=NET,
        epsilon=0.5,
        epsilon_prime=0.1,
        processes=(ProcessSpec(kind="lifetime", rate=0.1),),
        epochs=8,
        replicas=6,
        batch=4,
        seed=3,
    )
    base.update(kw)
    return ChaosSpec(**base)


ALL_SPECS = [
    small_campaign(),
    small_campaign(
        sampler=SamplerSpec(kind="exhaustive", n_fail=1), fault=FaultSpec()
    ),
    small_campaign(
        sampler=SamplerSpec(
            kind="mixed",
            components=(
                SamplerSpec(
                    kind="fixed",
                    distribution=(1, 0),
                    fault=FaultSpec(kind="crash"),
                ),
                SamplerSpec(
                    kind="bernoulli",
                    p_fail=0.05,
                    fault=FaultSpec(kind="noise", sigma=0.05),
                ),
            ),
        )
    ),
    SurvivalSpec(network=NET, p_fail=0.05, epsilon=0.5, epsilon_prime=0.1),
    SurvivalSpec(
        network=NET,
        p_fail=0.05,
        epsilon=0.5,
        epsilon_prime=0.1,
        method="monte_carlo",
        fault=FaultSpec(kind="intermittent", p=0.7, inner=FaultSpec(kind="stuck", value=1.0)),
        n_trials=40,
        batch=4,
    ),
    small_chaos(),
    small_chaos(
        processes=(
            ProcessSpec(kind="lifetime", rate=0.05, shape=1.6),
            ProcessSpec(kind="bursts", rate=0.1, fraction=0.3),
        ),
        detectors=(DetectorSpec(kind="threshold"), DetectorSpec(kind="cusum")),
        policy=PolicySpec(kind="repair", latency=1, detector="cusum"),
        traffic=TrafficSpec(kind="bursty"),
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_tag)
    def test_json_round_trip_is_identity(self, spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        again = type(spec).from_dict(payload)
        assert again == spec
        assert again.to_dict() == spec.to_dict()
        assert again.content_hash() == spec.content_hash()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_tag)
    def test_spec_from_dict_dispatches_on_tag(self, spec):
        assert spec_from_dict(spec.to_dict()) == spec

    def test_to_json_is_byte_stable(self):
        spec = small_campaign()
        assert spec.to_json() == type(spec).from_dict(spec.to_dict()).to_json()
        assert spec.to_json().endswith("\n")

    def test_save_and_load(self, tmp_path):
        spec = small_chaos()
        path = save_spec(spec, tmp_path / "chaos.json")
        assert load_spec(path) == spec

    def test_every_payload_carries_version_and_tag(self):
        for spec in ALL_SPECS:
            payload = spec.to_dict()
            assert payload["spec_version"] == SPEC_VERSION
            assert payload["spec"] == spec.spec_tag


class TestStrictness:
    def test_unknown_key_rejected(self):
        payload = small_campaign().to_dict()
        payload["n_scenario"] = 5  # typo'd key must not silently vanish
        with pytest.raises(SpecError, match="unknown key"):
            CampaignSpec.from_dict(payload)

    def test_missing_required_key_rejected(self):
        payload = small_campaign().to_dict()
        del payload["network"]
        with pytest.raises(SpecError, match="missing required key"):
            CampaignSpec.from_dict(payload)

    def test_version_mismatch_rejected(self):
        payload = small_campaign().to_dict()
        payload["spec_version"] = SPEC_VERSION + 1
        with pytest.raises(SpecError, match="spec_version mismatch"):
            CampaignSpec.from_dict(payload)

    def test_wrong_tag_rejected(self):
        payload = small_campaign().to_dict()
        with pytest.raises(SpecError, match="expected spec tag"):
            ChaosSpec.from_dict(payload)

    def test_unknown_tag_rejected(self):
        with pytest.raises(SpecError, match="unknown spec tag"):
            spec_from_dict({"spec": "warp_drive", "spec_version": SPEC_VERSION})

    def test_null_nested_spec_rejected_as_spec_error(self):
        """A stored payload with `"network": null` (or any non-optional
        nested field nulled) fails loud at construction, not as an
        AttributeError deep inside a run."""
        payload = small_campaign().to_dict()
        payload["network"] = None
        with pytest.raises(SpecError, match="may not be null"):
            CampaignSpec.from_dict(payload)
        payload = small_campaign(
            sampler=SamplerSpec(kind="exhaustive", n_fail=1),
            fault=FaultSpec(),
        ).to_dict()
        payload["fault"] = None
        with pytest.raises(SpecError, match="may not be null"):
            CampaignSpec.from_dict(payload)
        chaos = small_chaos().to_dict()
        chaos["processes"] = None
        with pytest.raises(SpecError, match="may not be null"):
            ChaosSpec.from_dict(chaos)
        # Optional nested fields (default None) still accept null.
        survival = SurvivalSpec(
            network=NET, p_fail=0.1, epsilon=0.5, epsilon_prime=0.1,
            method="monte_carlo",
        ).to_dict()
        assert survival["fault"] is None
        assert SurvivalSpec.from_dict(survival).fault is None

    def test_wrong_nested_type_rejected(self):
        with pytest.raises(SpecError, match="must be a NetworkRef"):
            CampaignSpec(
                network=FaultSpec(),  # type: ignore[arg-type]
                sampler=SamplerSpec(kind="fixed", distribution=(1, 1)),
            )


class TestEagerValidation:
    def test_network_ref_needs_exactly_one_source(self):
        with pytest.raises(SpecError):
            NetworkRef()
        with pytest.raises(SpecError):
            NetworkRef(path="net.npz", builder="mlp")

    def test_network_ref_validates_builder_params(self):
        with pytest.raises(SpecError, match="missing"):
            NetworkRef(builder="mlp", params={"input_dim": 2})
        with pytest.raises(SpecError, match="unknown key"):
            NetworkRef(
                builder="mlp",
                params={"input_dim": 2, "hidden": [4], "depth": 3},
            )
        with pytest.raises(SpecError, match="unknown builder"):
            NetworkRef(builder="transformer", params={})

    def test_fault_spec_taxonomy_is_closed(self):
        with pytest.raises(SpecError, match="not in taxonomy"):
            FaultSpec(kind="gamma_ray")
        with pytest.raises(SpecError, match="meaningless"):
            FaultSpec(kind="crash", value=2.0)
        with pytest.raises(SpecError, match="intermittent"):
            FaultSpec(kind="crash", inner=FaultSpec())
        with pytest.raises(SpecError, match="neuron faults"):
            FaultSpec(kind="intermittent", inner=FaultSpec(kind="synapse_crash"))

    def test_sampler_spec_cross_field_rules(self):
        with pytest.raises(SpecError, match="distribution"):
            SamplerSpec(kind="fixed")
        with pytest.raises(SpecError, match="p_fail"):
            SamplerSpec(kind="bernoulli", p_fail=1.5)
        with pytest.raises(SpecError, match="crash-only"):
            SamplerSpec(kind="exhaustive", n_fail=1, fault=FaultSpec(kind="noise"))
        with pytest.raises(SpecError, match="component"):
            SamplerSpec(kind="mixed")
        with pytest.raises(SpecError, match="its own fault"):
            SamplerSpec(
                kind="mixed",
                components=(SamplerSpec(kind="fixed", distribution=(1, 1)),),
            )

    def test_campaign_spec_exhaustive_is_crash_only(self):
        with pytest.raises(SpecError, match="exhaustive"):
            small_campaign(
                sampler=SamplerSpec(kind="exhaustive", n_fail=1),
                fault=FaultSpec(kind="byzantine"),
            )

    def test_survival_spec_validates_probability_and_budget(self):
        with pytest.raises(SpecError):
            SurvivalSpec(network=NET, p_fail=1.5, epsilon=0.5, epsilon_prime=0.1)
        with pytest.raises(SpecError):
            SurvivalSpec(network=NET, p_fail=0.1, epsilon=0.1, epsilon_prime=0.5)
        with pytest.raises(SpecError, match="monte_carlo"):
            SurvivalSpec(
                network=NET, p_fail=0.1, epsilon=0.5, epsilon_prime=0.1,
                fault=FaultSpec(),
            )

    def test_chaos_spec_closed_loop_needs_detectors(self):
        with pytest.raises(SpecError, match="closed-loop"):
            small_chaos(policy=PolicySpec(kind="repair"), detectors=())
        with pytest.raises(SpecError, match="triggers on detector"):
            small_chaos(
                policy=PolicySpec(kind="repair", detector="cusum"),
                detectors=(DetectorSpec(kind="threshold"),),
            )
        with pytest.raises(SpecError, match="unique"):
            small_chaos(
                detectors=(DetectorSpec(kind="threshold"),) * 2
            )

    def test_engine_spec_bounds(self):
        with pytest.raises(SpecError):
            EngineSpec(dtype="float16")
        with pytest.raises(SpecError):
            EngineSpec(workers=-1)
        with pytest.raises(SpecError):
            EngineSpec(chunk_size=0)

    def test_engine_backend_validated_eagerly(self):
        for name in ("numpy", "threaded", "quantized-int8", "float16"):
            assert EngineSpec(backend=name).backend == name
        with pytest.raises(SpecError, match="backend"):
            EngineSpec(backend="cuda")
        with pytest.raises(SpecError, match="backend"):
            small_campaign(engine=EngineSpec(backend="gpu"))

    def test_engine_backend_round_trips(self):
        spec = small_campaign(engine=EngineSpec(backend="threaded"))
        again = spec_from_dict(spec.to_dict())
        assert again == spec and again.engine.backend == "threaded"
        assert '"backend": "threaded"' in spec.to_json()

    def test_payload_without_backend_loads_as_numpy(self):
        """Specs stored before the backend field exist must still load
        (the field defaults, like every optional engine knob)."""
        payload = small_campaign().to_dict()
        del payload["engine"]["backend"]
        spec = spec_from_dict(payload)
        assert spec.engine.backend == "numpy"


class TestContentHash:
    def test_hash_is_stable_and_workload_sensitive(self):
        a, b = small_campaign(), small_campaign()
        assert a.content_hash() == b.content_hash()
        assert (
            small_campaign(seed=4).content_hash() != a.content_hash()
        )
        assert (
            small_campaign(fault=FaultSpec(kind="noise")).content_hash()
            != a.content_hash()
        )

    def test_hash_survives_round_trip(self, tmp_path):
        spec = small_chaos()
        path = save_spec(spec, tmp_path / "s.json")
        assert load_spec(path).content_hash() == spec.content_hash()


class TestDispatchEquivalence:
    """repro.run(spec) reproduces the legacy direct-kwargs paths bitwise."""

    def test_campaign_matches_monte_carlo_campaign(self):
        from repro.faults.campaign import _monte_carlo_campaign
        from repro.faults.injector import FaultInjector
        from repro.faults.types import NoiseFault

        spec = small_campaign(fault=FaultSpec(kind="noise", sigma=0.1))
        result = run(spec)

        network = NET.resolve()
        injector = FaultInjector(network, capacity=network.output_bound)
        x = np.random.default_rng(3).random((4, network.input_dim))
        legacy = _monte_carlo_campaign(
            injector, x, (2, 1),
            n_scenarios=60, fault=NoiseFault(sigma=0.1), seed=3,
            chunk_size=1024,
        )
        np.testing.assert_array_equal(result.errors, legacy.errors)

    def test_exhaustive_matches_legacy_sweep(self):
        from repro.faults.campaign import exhaustive_crash_campaign
        from repro.faults.injector import FaultInjector

        spec = small_campaign(
            sampler=SamplerSpec(kind="exhaustive", n_fail=1),
            fault=FaultSpec(),
        )
        result = run(spec)
        network = NET.resolve()
        injector = FaultInjector(network, capacity=network.output_bound)
        x = np.random.default_rng(3).random((4, network.input_dim))
        legacy = exhaustive_crash_campaign(
            injector, x, 1, chunk_size=1024
        )
        assert result.num_scenarios == network.num_neurons
        np.testing.assert_array_equal(result.errors, legacy.errors)

    def test_survival_certified_matches_direct_call(self):
        from repro.faults.reliability import certified_survival_probability

        spec = SurvivalSpec(
            network=NET, p_fail=0.05, epsilon=0.5, epsilon_prime=0.1
        )
        assert run(spec) == certified_survival_probability(
            NET.resolve(), 0.05, 0.5, 0.1
        )

    def test_chaos_matches_hand_built_campaign(self):
        from repro.chaos import ComponentLifetimeProcess, ThresholdDetector
        from repro.chaos.campaign import _run_chaos_campaign
        from repro.chaos.traffic import ConstantTraffic

        spec = small_chaos()
        report = run(spec)
        network = NET.resolve()
        x = np.random.default_rng(3).random((4, network.input_dim))
        legacy = _run_chaos_campaign(
            network, x, [ComponentLifetimeProcess(0.1)],
            traffic=ConstantTraffic(),
            detectors=[ThresholdDetector(0.4)],
            epochs=8, n_replicas=6, epsilon=0.5, epsilon_prime=0.1, seed=3,
        )
        assert report.to_dict() == legacy.to_dict()

    def test_run_accepts_dict_and_path(self, tmp_path):
        spec = small_campaign()
        direct = run(spec)
        from_dict = run(spec.to_dict())
        from_path = run(save_spec(spec, tmp_path / "c.json"))
        np.testing.assert_array_equal(direct.errors, from_dict.errors)
        np.testing.assert_array_equal(direct.errors, from_path.errors)

    def test_run_rejects_non_runnable_specs(self):
        with pytest.raises(SpecError, match="not a runnable spec"):
            run(FaultSpec())

    def test_survival_rejects_workers_fanout(self):
        spec = SurvivalSpec(
            network=NET, p_fail=0.05, epsilon=0.5, epsilon_prime=0.1,
            method="monte_carlo", n_trials=10, batch=4,
        )
        with pytest.raises(SpecError, match="workers fan-out"):
            run(spec, workers=4)
        # workers<=1 (the in-process values) stay accepted.
        assert run(spec, workers=1) is not None

    def test_workers_override_matches_serial(self):
        spec = small_campaign()
        serial = run(spec)
        parallel = run(spec, workers=2)
        np.testing.assert_array_equal(serial.errors, parallel.errors)

    def test_engine_reuse_matches_fresh_engine(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.masks import MaskCampaignEngine

        spec = small_campaign()
        network = NET.resolve()
        injector = FaultInjector(network, capacity=network.output_bound)
        x = np.random.default_rng(3).random((4, network.input_dim))
        engine = MaskCampaignEngine(injector, x, chunk_size=1024)
        np.testing.assert_array_equal(
            run(spec).errors, run(spec, engine=engine).errors
        )


class TestSpecKeyedArtifacts:
    """Spec-declaring experiments cache on spec hashes, not source."""

    def test_chaos_experiments_declare_their_specs(self):
        from repro.experiments import registry

        for exp_id in ("chaos_survival", "chaos_rejuvenation"):
            exp = registry.get(exp_id)
            assert exp.spec is not None, f"{exp_id} lost its declared spec"
            assert isinstance(exp.spec, ChaosSpec)
            assert exp.spec_hash() == exp.spec.content_hash()

    def test_content_key_uses_spec_hash_not_source(self):
        from dataclasses import replace

        from repro.artifacts import content_key
        from repro.experiments import registry

        exp = registry.get("chaos_survival")
        key = content_key(exp)

        # Key is a pure function of (id, spec hash, signature defaults,
        # params): two entry points with identical defaults but
        # different bodies hash identically (module refactors don't
        # invalidate) ...
        def body_a(*, periods=(5, 10), seed=11):
            return "a"

        def body_b(*, periods=(5, 10), seed=11):
            return "b"

        assert content_key(replace(exp, fn=body_a)) == content_key(
            replace(exp, fn=body_b)
        )
        # ... while changing the declared spec, or a swept default (the
        # workload parameters outside the canonical spec), invalidates.
        respecced = replace(exp, spec=exp.spec.replace(seed=exp.spec.seed + 1))
        assert content_key(respecced) != key

        def body_c(*, periods=(5, 10, 20), seed=11):
            return "a"

        assert content_key(replace(exp, fn=body_a)) != content_key(
            replace(exp, fn=body_c)
        )

    def test_spec_declared_experiment_is_cache_hit_on_rerun(self, tmp_path):
        from repro.artifacts import ArtifactStore
        from repro.experiments.registry import RegisteredExperiment
        from repro.experiments.runner import ExperimentResult

        spec = small_campaign()
        calls = []

        def entry_point():
            calls.append(1)
            result = run(spec)
            return ExperimentResult(
                experiment_id="spec_probe",
                description="spec-keyed cache probe",
                rows=[{"max_error": result.max_error}],
                shape_checks={"ran": True},
            )

        exp = RegisteredExperiment(
            experiment_id="spec_probe",
            fn=entry_point,
            title="spec-keyed cache probe",
            anchor="test",
            spec=spec,
        )
        store = ArtifactStore(tmp_path / "results")
        first = store.run(exp)
        second = store.run(exp)
        assert not first.cached and second.cached
        assert len(calls) == 1
        assert first.entry["key"] == second.entry["key"]
        assert first.entry["spec_hash"] == spec.content_hash()
