"""Run-wide observability: spans, metrics, exporters, determinism.

Four contracts are audited here:

* **determinism** — the observer draws no randomness, so campaign /
  adaptive / chaos results are bitwise identical with observation on
  or off, serial and parallel; and because worker span payloads fold
  in block submission order, the observed trace *structure*
  (:meth:`RunTrace.fingerprint`) is identical serial vs parallel;
* **registry semantics** — counters add, gauges overwrite, histogram
  buckets follow Prometheus ``le`` edge rules, merges are
  deterministic;
* **exposition** — ``render_openmetrics`` emits valid OpenMetrics
  text (HELP/TYPE preamble, ``_total`` counter suffix, cumulative
  ``_bucket`` rows, the ``# EOF`` terminator);
* **plumbing** — ``repro.run`` wraps every spec kind in a ``run``
  span, ``ObsSpec(record=...)`` persists a version-checked record,
  the CLI inspects it, and the artifact store counts cache hits and
  misses.
"""

import json

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.cli import main
from repro.experiments.registry import RegisteredExperiment
from repro.experiments.runner import ExperimentResult
from repro.chaos import (
    ComponentLifetimeProcess,
    DetectorRepairPolicy,
    ThresholdDetector,
)
from repro.chaos.campaign import REPLICA_BLOCK, _run_chaos_campaign
from repro.faults.adaptive import adaptive_campaign_errors
from repro.faults.injector import FaultInjector
from repro.faults.masks import (
    FixedDistributionSampler,
    exhaustive_crash_errors,
    sampled_campaign_errors,
)
from repro.network import build_mlp
from repro.obs import (
    RECORD_VERSION,
    MetricsRegistry,
    RunObserver,
    RunTrace,
    events_jsonl,
    load_run_record,
    profile_from_metrics,
    render_metrics_table,
    render_openmetrics,
    render_span_tree,
    save_run_record,
)
from repro.profiling import PhaseProfile
from repro.specs import (
    CampaignSpec,
    ChaosSpec,
    DetectorSpec,
    FaultSpec,
    NetworkRef,
    ObsSpec,
    PolicySpec,
    ProcessSpec,
    SamplerSpec,
    SpecError,
    StoppingSpec,
    run,
)


@pytest.fixture(scope="module")
def net():
    return build_mlp(
        2,
        [5, 4],
        activation={"name": "sigmoid", "k": 0.6},
        init={"name": "uniform", "scale": 0.35},
        output_scale=0.3,
        seed=3,
    )


@pytest.fixture(scope="module")
def probes():
    return np.random.default_rng(11).random((6, 2))


# -- the metrics registry ------------------------------------------------


class TestRegistry:
    def test_counter_accumulates_and_rejects_decrements(self):
        reg = MetricsRegistry()
        reg.counter("repro_things", "Things.").inc()
        reg.counter("repro_things").inc(2.5)
        assert reg.value("repro_things") == 3.5
        with pytest.raises(ValueError, match="only go up"):
            reg.counter("repro_things").inc(-1)

    def test_counter_name_must_not_carry_the_total_suffix(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="_total"):
            reg.counter("repro_things_total")

    def test_gauge_is_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("repro_level").set(4.0)
        reg.gauge("repro_level").set(1.5)
        assert reg.value("repro_level") == 1.5

    def test_kind_conflict_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("repro_x")

    def test_labels_address_distinct_series_in_sorted_order(self):
        reg = MetricsRegistry()
        reg.counter("repro_tiles", worker=1).inc()
        reg.counter("repro_tiles", worker=0).inc(3)
        assert reg.value("repro_tiles", worker=0) == 3
        assert reg.value("repro_tiles", worker=1) == 1
        (_, _, _, _, series), = reg.families()
        labels = [dict(key) for key, _ in series]
        assert labels == [{"worker": "0"}, {"worker": "1"}]

    def test_histogram_edge_value_lands_in_its_le_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_wait", buckets=(0.1, 1.0))
        h.observe(0.1)   # == first edge -> first bucket (le semantics)
        h.observe(0.5)
        h.observe(1.0)   # == last finite edge
        h.observe(7.0)   # above every bound -> +Inf only
        assert h.counts == [1, 2]
        assert h.inf_count == 1
        assert h.count == 4
        assert h.cumulative() == [("0.1", 1), ("1", 3), ("+Inf", 4)]

    def test_histogram_bucket_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            reg.histogram("repro_a", buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("repro_b", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="implicit"):
            reg.histogram("repro_c", buckets=(1.0, float("inf")))

    def test_merge_adds_counts_and_overwrites_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("repro_n").inc(2)
        a.gauge("repro_g").set(1.0)
        a.histogram("repro_h", buckets=(1.0,)).observe(0.5)
        b.counter("repro_n").inc(3)
        b.gauge("repro_g").set(9.0)
        b.histogram("repro_h", buckets=(1.0,)).observe(2.0)
        a.merge(b)
        assert a.value("repro_n") == 5
        assert a.value("repro_g") == 9.0
        h = a.histogram("repro_h", buckets=(1.0,))
        assert h.counts == [1] and h.inf_count == 1 and h.sum == 2.5

    def test_as_dict_round_trip_is_exact(self):
        reg = MetricsRegistry()
        reg.counter("repro_n", "N.", worker=2).inc(4)
        reg.gauge("repro_g").set(0.25)
        reg.histogram("repro_h", buckets=(0.5, 2.0)).observe(1.0)
        back = MetricsRegistry.from_dict(
            json.loads(json.dumps(reg.as_dict()))
        )
        assert back.as_dict() == reg.as_dict()


# -- the span plane ------------------------------------------------------


class TestTrace:
    def test_fingerprint_ignores_timing_but_not_structure(self):
        a, b = RunTrace(), RunTrace()
        for t in (a, b):
            with t.span("run", kind="campaign"):
                with t.span("block", index=0, scenarios=8):
                    t.event("adaptive-look", look=1)
        assert a.fingerprint() == b.fingerprint()
        c = RunTrace()
        with c.span("run", kind="campaign"):
            with c.span("block", index=1, scenarios=8):
                c.event("adaptive-look", look=1)
        assert a.fingerprint() != c.fingerprint()

    def test_graft_appends_under_the_current_span(self):
        worker = RunObserver()
        with worker.block_span(0, 16):
            pass
        parent = RunObserver()
        with parent.span("run"):
            parent.absorb(worker.worker_payload())
        (root,) = parent.trace.spans
        assert [child.name for child in root.children] == ["block"]
        assert parent.metrics.value("repro_blocks") == 1


# -- exporters -----------------------------------------------------------


class TestExporters:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("repro_blocks", "Blocks.").inc(2)
        reg.gauge("repro_rate", "Rate.", phase="gemm").set(0.5)
        reg.histogram(
            "repro_wait", buckets=(0.1, 1.0), help="Waits."
        ).observe(0.3)
        return reg

    def test_openmetrics_exposition_shape(self):
        text = render_openmetrics(self._registry())
        lines = text.splitlines()
        assert "# HELP repro_blocks Blocks." in lines
        assert "# TYPE repro_blocks counter" in lines
        assert "repro_blocks_total 2" in lines
        assert 'repro_rate{phase="gemm"} 0.5' in lines
        assert 'repro_wait_bucket{le="0.1"} 0' in lines
        assert 'repro_wait_bucket{le="1"} 1' in lines
        assert 'repro_wait_bucket{le="+Inf"} 1' in lines
        assert "repro_wait_count 1" in lines
        assert "repro_wait_sum 0.3" in lines
        assert text.endswith("# EOF\n")

    def test_events_jsonl_is_one_sorted_object_per_line(self):
        obs = RunObserver()
        with obs.span("run"):
            obs.event("cache-hit", experiment="toy")
        rows = [
            json.loads(line)
            for line in events_jsonl(obs.trace).splitlines()
        ]
        assert [r["name"] for r in rows] == ["run", "cache-hit"]
        assert rows[1]["type"] == "event"
        for row, line in zip(rows, events_jsonl(obs.trace).splitlines()):
            assert line == json.dumps(row, sort_keys=True)

    def test_span_tree_and_metrics_table_render(self):
        obs = RunObserver()
        with obs.span("run", kind="campaign"):
            with obs.block_span(0, 8):
                pass
        tree = render_span_tree(obs.trace)
        assert "run" in tree and "block" in tree
        table = render_metrics_table(self._registry())
        assert "repro_blocks_total 2" in table


# -- determinism: obs on/off, serial vs parallel -------------------------


def _sampled_run(net, probes, **kw):
    sampler = FixedDistributionSampler(net, (2, 1))
    return sampled_campaign_errors(
        FaultInjector(net), probes, sampler, 600, seed=5, **kw
    )


def _exhaustive_run(net, probes, **kw):
    return exhaustive_crash_errors(
        FaultInjector(net), probes, 2, chunk_size=16, **kw
    )


def _chaos_run(net, probes, **kw):
    report = _run_chaos_campaign(
        net, probes, [ComponentLifetimeProcess(0.06)],
        epochs=12, n_replicas=REPLICA_BLOCK + 5, epsilon=0.3,
        epsilon_prime=0.1, detectors=(ThresholdDetector(0.1),),
        policy=DetectorRepairPolicy(1), seed=4, keep_errors=True, **kw,
    )
    return report.to_dict(), report.errors


#: name -> (run(net, probes, **driver_kw), block count)
_BLOCK_RUNS = {
    "sampled": (_sampled_run, 1),
    "exhaustive": (_exhaustive_run, 3),
    "chaos": (_chaos_run, 2),
}


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["sampled", "exhaustive"])
    def test_campaign_bitwise_identical_obs_on_off(self, kind, net, probes):
        run_blocks, blocks = _BLOCK_RUNS[kind]
        base = run_blocks(net, probes)
        obs = RunObserver()
        observed = run_blocks(net, probes, obs=obs)
        assert np.array_equal(base, observed)
        assert obs.metrics.value("repro_blocks") == blocks

    def test_sampled_campaign_trace_identical_serial_vs_parallel(
        self, net, probes
    ):
        injector = FaultInjector(net)
        sampler = FixedDistributionSampler(net, (2, 1))
        serial_obs, parallel_obs = RunObserver(), RunObserver()
        serial = sampled_campaign_errors(
            injector, probes, sampler, 2300, seed=5, obs=serial_obs
        )
        parallel = sampled_campaign_errors(
            injector, probes, sampler, 2300, seed=5, n_workers=2,
            obs=parallel_obs,
        )
        assert np.array_equal(serial, parallel)
        assert serial_obs.trace.fingerprint() == parallel_obs.trace.fingerprint()
        assert (
            serial_obs.metrics.value("repro_blocks")
            == parallel_obs.metrics.value("repro_blocks")
            == 3
        )
        assert (
            serial_obs.profile.scenarios
            == parallel_obs.profile.scenarios
            == 2300
        )

    @pytest.mark.parametrize("kind", ["exhaustive", "chaos"])
    def test_block_trace_identical_serial_vs_parallel(
        self, kind, net, probes
    ):
        run_blocks, blocks = _BLOCK_RUNS[kind]
        serial_obs, parallel_obs = RunObserver(), RunObserver()
        serial = run_blocks(net, probes, obs=serial_obs)
        parallel = run_blocks(net, probes, n_workers=2, obs=parallel_obs)
        # assert_equal, not ==: chaos reports may carry NaN MTBF/MTTR.
        np.testing.assert_equal(serial, parallel)
        assert serial_obs.trace.fingerprint() == parallel_obs.trace.fingerprint()
        assert (
            serial_obs.metrics.value("repro_blocks")
            == parallel_obs.metrics.value("repro_blocks")
            == blocks
        )

    def test_adaptive_look_events_identical_serial_vs_parallel(
        self, net, probes
    ):
        injector = FaultInjector(net)
        sampler = FixedDistributionSampler(net, (2, 1))
        results = {}
        for workers, obs in (
            (0, RunObserver()),
            (2, RunObserver()),
        ):
            errors, report = adaptive_campaign_errors(
                injector, probes, sampler, 4096,
                threshold=0.05, target_ci=0.2,
                min_scenarios=512, seed=9, n_workers=workers, obs=obs,
            )
            results[workers] = (errors, report, obs)
        (e0, r0, o0), (e2, r2, o2) = results[0], results[2]
        assert np.array_equal(e0, e2)
        assert r0 == r2
        assert o0.trace.fingerprint() == o2.trace.fingerprint()
        assert o0.metrics.value("repro_adaptive_looks") == r0.looks
        assert o0.metrics.value("repro_adaptive_stop_epoch") == r0.n_scenarios

    def test_events_false_drops_point_events_only(self, net, probes):
        injector = FaultInjector(net)
        sampler = FixedDistributionSampler(net, (2, 1))
        quiet = RunObserver(events=False)
        adaptive_campaign_errors(
            injector, probes, sampler, 2048,
            threshold=0.05, target_ci=0.2,
            min_scenarios=512, seed=9, obs=quiet,
        )
        names = {span.name for _, span in quiet.trace.walk()}
        assert "block" in names
        assert all(not span.events for _, span in quiet.trace.walk())


# -- the dispatcher + ObsSpec --------------------------------------------


def _campaign_spec(net_path, **kw):
    return CampaignSpec(
        network=NetworkRef(path=str(net_path)),
        sampler=SamplerSpec(kind="fixed", distribution=(2, 1)),
        fault=FaultSpec(kind="crash"),
        n_scenarios=400,
        batch=6,
        seed=5,
        **kw,
    )


@pytest.fixture(scope="module")
def net_path(net, tmp_path_factory):
    from repro.network import save_network

    path = tmp_path_factory.mktemp("obs") / "net.npz"
    save_network(net, path)
    return path


class TestDispatch:
    def test_run_span_wraps_every_spec_kind(self, net_path):
        obs = RunObserver()
        result = run(_campaign_spec(net_path), obs=obs)
        (root,) = obs.trace.spans
        assert root.name == "run"
        assert root.attrs["kind"] == "campaign"
        assert root.attrs["spec"] == _campaign_spec(net_path).content_hash()
        assert root.children[0].name == "network-load"
        assert obs.metrics.value("repro_scenarios") == 400
        base = run(_campaign_spec(net_path))
        assert np.array_equal(base.errors, result.errors)

    def test_run_chaos_with_obs_matches_plain_run(self, net_path):
        spec = ChaosSpec(
            network=NetworkRef(path=str(net_path)),
            epsilon=0.3,
            epsilon_prime=0.1,
            processes=(ProcessSpec(kind="poisson", rate=0.05),),
            detectors=(DetectorSpec(kind="threshold"),),
            policy=PolicySpec(kind="rejuvenate", period=5),
            epochs=12,
            replicas=8,
            batch=6,
            seed=4,
        )
        obs = RunObserver()
        observed = run(spec, obs=obs)
        plain = run(spec)
        assert observed.availability == plain.availability
        assert obs.trace.spans[0].attrs["kind"] == "chaos"
        assert obs.metrics.value("repro_blocks") >= 1

    def test_adaptive_spec_records_stop_gauges(self, net_path):
        spec = _campaign_spec(
            net_path,
            threshold=0.05,
            stopping=StoppingSpec(target_ci=0.2, min_scenarios=128),
        )
        obs = RunObserver()
        result = run(spec, obs=obs)
        rep = result.adaptive
        assert obs.metrics.value("repro_adaptive_stop_epoch") == rep.n_scenarios
        assert obs.metrics.value("repro_adaptive_looks") == rep.looks

    def test_run_profile_alone_matches_plain_run(self, net_path):
        spec = _campaign_spec(net_path)
        profile = PhaseProfile()
        profiled = run(spec, profile=profile)
        assert np.array_equal(profiled.errors, run(spec).errors)
        assert profile.scenarios == spec.n_scenarios
        assert profile.seconds["gemm"] > 0

    def test_run_profile_becomes_the_observer_profile(self, net_path):
        profile, obs = PhaseProfile(), RunObserver()
        run(_campaign_spec(net_path), profile=profile, obs=obs)
        assert obs.profile is profile
        assert obs.metrics.value(
            "repro_phase_seconds", phase="gemm"
        ) == profile.seconds["gemm"]

    def test_obs_spec_autorecords_to_disk(self, net_path, tmp_path):
        record_path = tmp_path / "rec"
        spec = _campaign_spec(
            net_path, obs=ObsSpec(record=str(record_path))
        )
        base = run(_campaign_spec(net_path))
        result = run(spec)
        assert np.array_equal(base.errors, result.errors), (
            "an ObsSpec must never change results"
        )
        record = load_run_record(record_path)
        assert record["spec"] == spec.to_dict()
        trace = RunTrace.from_dict(record["trace"])
        assert trace.spans[0].name == "run"
        prof = profile_from_metrics(record["metrics"])
        assert prof.scenarios == 400

    def test_obs_spec_disabled_records_nothing(self, net_path, tmp_path):
        record_path = tmp_path / "off"
        spec = _campaign_spec(
            net_path, obs=ObsSpec(enabled=False, record=str(record_path))
        )
        run(spec)
        assert not record_path.with_name("off.json").exists()

    def test_obs_spec_omitted_keeps_payload_and_hash(self, net_path):
        spec = _campaign_spec(net_path)
        assert "obs" not in spec.to_dict()
        with_obs = _campaign_spec(net_path, obs=ObsSpec())
        assert with_obs.to_dict()["obs"]["spec"] == "obs"
        assert spec.content_hash() != with_obs.content_hash()

    def test_obs_spec_rejects_blank_record_path(self):
        with pytest.raises(SpecError, match="non-empty"):
            ObsSpec(record="  ")


# -- persistence + CLI ---------------------------------------------------


class TestRecordAndCli:
    def test_record_round_trips_and_checks_version(self, tmp_path):
        obs = RunObserver()
        with obs.span("run", kind="campaign"):
            obs.metrics.counter("repro_blocks").inc()
        obs.finalize()
        path = save_run_record(obs.record({"spec": "campaign"}), tmp_path / "r")
        assert path.name == "r.json"
        record = load_run_record(tmp_path / "r")  # suffix optional
        assert record["record_version"] == RECORD_VERSION
        bad = dict(record, record_version=RECORD_VERSION + 1)
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="version mismatch"):
            load_run_record(tmp_path / "bad.json")

    @pytest.fixture
    def record_file(self, net_path, tmp_path):
        obs = RunObserver()
        run(_campaign_spec(net_path), obs=obs)
        return save_run_record(
            obs.record(_campaign_spec(net_path).to_dict()), tmp_path / "rec"
        )

    def test_cli_obs_default_view(self, record_file, capsys):
        assert main(["obs", str(record_file)]) == 0
        out = capsys.readouterr().out
        assert "spec: campaign" in out
        assert "run" in out and "block" in out
        assert "repro_scenarios_total 400" in out

    def test_cli_obs_openmetrics(self, record_file, capsys):
        assert main(["obs", str(record_file), "--openmetrics"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "# TYPE repro_scenarios counter" in out

    def test_cli_obs_jsonl(self, record_file, capsys):
        assert main(["obs", str(record_file), "--jsonl"]) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert rows[0]["name"] == "run"

    def test_cli_obs_profile_view(self, record_file, capsys):
        assert main(["obs", str(record_file), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "gemm" in out

    def test_cli_obs_missing_record(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_campaign_obs_flag_writes_record(
        self, net_path, tmp_path, capsys
    ):
        record = tmp_path / "cli_rec"
        code = main([
            "campaign", str(net_path), "--distribution", "2,1",
            "--n-scenarios", "400", "--obs", str(record),
        ])
        assert code == 0
        assert "obs record ->" in capsys.readouterr().out
        assert load_run_record(record)["spec"]["spec"] == "campaign"

    def test_cli_campaign_profile_alone_writes_no_record(
        self, net_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "campaign", str(net_path), "--distribution", "2,1",
            "--n-scenarios", "400", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out and "gemm" in out
        assert "obs record" not in out
        assert list(tmp_path.iterdir()) == []

    def test_cli_survival_profile_and_obs(self, net_path, tmp_path, capsys):
        record = tmp_path / "sur_rec"
        code = main([
            "survival", str(net_path), "--p-fail", "0.05",
            "--epsilon", "0.3", "--epsilon-prime", "0.1",
            "--method", "monte_carlo", "--n-trials", "50",
            "--profile", "--obs", str(record),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase" in out  # the profile table printed
        assert load_run_record(record)["spec"]["spec"] == "survival"


# -- profiling in parallel (the lifted restriction) ----------------------


class TestParallelProfiling:
    def test_profile_folds_across_workers(self, net, probes):
        injector = FaultInjector(net)
        sampler = FixedDistributionSampler(net, (2, 1))
        obs = RunObserver()
        serial = sampled_campaign_errors(
            injector, probes, sampler, 2300, seed=5
        )
        parallel = sampled_campaign_errors(
            injector, probes, sampler, 2300, seed=5, n_workers=2, obs=obs,
        )
        assert np.array_equal(serial, parallel)
        assert obs.profile.scenarios == 2300
        assert obs.profile.seconds["gemm"] > 0

    def test_chaos_profile_folds_across_workers(self, net, probes):
        serial_obs, parallel_obs = RunObserver(), RunObserver()
        _chaos_run(net, probes, obs=serial_obs)
        _chaos_run(net, probes, n_workers=2, obs=parallel_obs)
        assert serial_obs.profile.scenarios > 0
        assert parallel_obs.profile.scenarios == serial_obs.profile.scenarios
        assert parallel_obs.profile.seconds["gemm"] > 0


# -- artifact-store cache accounting -------------------------------------


def _run_toy_obs(seed: int = 7):
    return ExperimentResult(
        experiment_id="toy-obs",
        description="toy",
        shape_checks={"ok": True},
    )


TOY = RegisteredExperiment(
    "toy-obs", _run_toy_obs, title="Toy", anchor="Toy", tags=("toy",),
    runtime="fast", order=1, module=__name__,
)


class TestCacheAccounting:
    def test_manifest_counts_hits_and_misses(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        obs = RunObserver()
        store.run(TOY, obs=obs)
        store.run(TOY, obs=obs)
        store.run(TOY, force=True, obs=obs)
        cache = store.load_manifest()["cache"]
        assert cache == {"hits": 1, "misses": 2}
        assert obs.metrics.value("repro_artifact_cache_hits") == 1
        assert obs.metrics.value("repro_artifact_cache_misses") == 2
        events = [
            (name, attrs["experiment"])
            for _, span in obs.trace.walk()
            for name, _, attrs in span.events
        ]
        assert events == [
            ("cache-miss", "toy-obs"),
            ("cache-hit", "toy-obs"),
            ("cache-miss", "toy-obs"),
        ]

    def test_run_many_batches_the_hit_bump(self, tmp_path):
        store = ArtifactStore(tmp_path / "results")
        store.run_many([TOY])
        store.run_many([TOY])
        assert store.load_manifest()["cache"] == {"hits": 1, "misses": 1}

    def test_report_cli_prints_cache_line(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "results")
        store.run(TOY)
        store.run(TOY)
        code = main([
            "report", "--results-dir", str(tmp_path / "results"),
            "--output", str(tmp_path / "EXP.md"),
        ])
        assert code == 0
        assert "artifact cache: 1 hits, 1 misses" in capsys.readouterr().out
