"""The artifact store: manifest round-trip, caching, CLI pipeline.

A toy registered experiment (module-level, so ``inspect.getsource``
works for the content key) counts its executions — the cache tests
assert *skips*, not just equal results.
"""

import json

import numpy as np
import pytest

from repro.artifacts import ArtifactStore, content_key
from repro.cli import main
from repro.experiments.registry import RegisteredExperiment
from repro.experiments.runner import ExperimentResult, jsonable
from repro.service import result_payload
from repro.service.protocol import encode_result
from repro.specs import (
    CampaignSpec,
    ChaosSpec,
    FaultSpec,
    NetworkRef,
    ProcessSpec,
    SamplerSpec,
    SurvivalSpec,
    run,
)

_TOY_CALLS = []


def _run_toy(seed: int = 7):
    """Toy experiment used by the store tests."""
    _TOY_CALLS.append(seed)
    return ExperimentResult(
        experiment_id="toy",
        description="toy experiment",
        rows=[{"a": 1.5, "pair": (1, 2), "np": np.float64(0.25)}],
        shape_checks={"ok": True},
        metrics={"m": np.float32(2.0)},
        notes=["a note"],
    )


TOY = RegisteredExperiment(
    "toy", _run_toy, title="Toy", anchor="Toy anchor", tags=("toy",),
    runtime="fast", order=1, module=__name__,
)


@pytest.fixture
def store(tmp_path):
    _TOY_CALLS.clear()
    return ArtifactStore(tmp_path / "results")


class TestJsonable:
    def test_lowering(self):
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable(np.float64(1.5)) == 1.5
        assert jsonable(np.array([1, 2])) == [1, 2]
        assert jsonable({"k": np.int64(3)}) == {"k": 3}
        assert jsonable(float("inf")) == "inf"

    def test_nonfinite_metrics_round_trip_and_render(self):
        import math

        from repro.analysis.reporting import result_to_markdown

        r = ExperimentResult(
            "nf", "d", metrics={"i": float("inf"), "n": float("nan")},
            shape_checks={"ok": True},
        )
        back = ExperimentResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back.metrics["i"] == float("inf")
        assert math.isnan(back.metrics["n"])
        assert "inf" in back.report()  # formatting must not raise
        assert "inf" in result_to_markdown(back)

    def test_result_round_trip(self):
        result = _run_toy()
        payload = json.loads(json.dumps(result.to_dict()))
        back = ExperimentResult.from_dict(payload)
        assert back.experiment_id == "toy"
        assert back.shape_checks == {"ok": True}
        assert back.passed
        assert back.rows[0]["pair"] == [1, 2]  # tuples come back as lists
        assert back.metrics["m"] == 2.0
        assert back.notes == ["a note"]

    def test_zero_dim_arrays_unwrap(self):
        """0-d ndarrays lower through the scalar path instead of
        crashing the list comprehension (np.mean and friends hand
        these back routinely)."""
        assert jsonable(np.array(1.5)) == 1.5
        assert jsonable(np.array(3, dtype=np.int64)) == 3
        assert jsonable(np.array(True)) is True
        assert jsonable(np.array(float("inf"))) == "inf"
        assert jsonable({"m": np.array(float("nan"))}) == {"m": "nan"}

    def test_float64_values_survive_exactly(self):
        """Full 53-bit mantissas survive the JSON round trip bit for
        bit — no silent float64 truncation."""
        vals = np.array([1.0 / 3.0, 0.1 + 0.2, np.nextafter(1.0, 2.0)])
        back = json.loads(json.dumps(jsonable(vals)))
        assert back == vals.tolist()
        scalar = np.float64(np.nextafter(0.5, 1.0))
        assert json.loads(json.dumps(jsonable(scalar))) == float(scalar)
        zero_d = np.array(np.nextafter(2.0, 3.0))
        assert json.loads(json.dumps(jsonable(zero_d))) == float(zero_d)

    def test_nested_numpy_payload_round_trip(self):
        """Telemetry-style payloads: nested dicts/tuples of numpy
        scalars, nd-arrays and 0-d arrays all lower to plain JSON."""
        payload = {
            "grid": np.arange(6, dtype=np.int32).reshape(2, 3),
            "scalars": (np.float32(0.5), np.int16(-2), np.bool_(True)),
            "zero_d": np.array(2.5),
            "mixed": [np.int8(1), {"deep": np.float64(0.75)}],
        }
        back = json.loads(json.dumps(jsonable(payload)))
        assert back == {
            "grid": [[0, 1, 2], [3, 4, 5]],
            "scalars": [0.5, -2, True],
            "zero_d": 2.5,
            "mixed": [1, {"deep": 0.75}],
        }


class TestStore:
    def test_run_persists_artifact_and_manifest(self, store):
        outcome = store.run(TOY)
        assert not outcome.cached and outcome.passed
        assert store.artifact_path("toy").exists()
        entry = store.entries()["toy"]
        assert entry["status"] == "pass"
        assert entry["failed_checks"] == []
        assert entry["seed"] == 7  # lifted from the entry point's default
        assert entry["dtype"] == "float64"
        assert entry["key"] == content_key(TOY)
        assert entry["wall_time_s"] >= 0
        assert entry["anchor"] == "Toy anchor"
        loaded = store.load_result("toy")
        assert loaded.to_dict() == outcome.result.to_dict()

    def test_second_run_is_a_cache_hit(self, store):
        first = store.run(TOY)
        outcome = store.run(TOY)
        assert outcome.cached
        assert len(_TOY_CALLS) == 1  # the function did not execute again
        assert outcome.result.to_dict() == first.result.to_dict()

    def test_force_reruns(self, store):
        store.run(TOY)
        outcome = store.run(TOY, force=True)
        assert not outcome.cached
        assert len(_TOY_CALLS) == 2

    def test_params_change_invalidates(self, store):
        assert content_key(TOY) != content_key(TOY, {"seed": 9})
        store.run(TOY)
        outcome = store.run(TOY, params={"seed": 9})
        assert not outcome.cached
        assert outcome.entry["seed"] == 9
        assert _TOY_CALLS == [7, 9]

    def test_manifest_key_mismatch_invalidates(self, store):
        store.run(TOY)
        manifest = store.load_manifest()
        manifest["entries"]["toy"]["key"] = "stale"
        store._write_manifest(manifest)
        assert store.cached_entry(TOY) is None
        assert not store.run(TOY).cached

    def test_missing_artifact_invalidates(self, store):
        store.run(TOY)
        store.artifact_path("toy").unlink()
        assert store.cached_entry(TOY) is None

    def test_failing_result_recorded_as_fail(self, store):
        def run_bad():
            """bad"""
            return ExperimentResult(
                "bad", "d", shape_checks={"broken": False}
            )

        bad = RegisteredExperiment(
            "bad", run_bad, title="Bad", anchor="X", module=__name__
        )
        outcome = store.run(bad)
        assert not outcome.passed
        entry = store.entries()["bad"]
        assert entry["status"] == "fail"
        assert entry["failed_checks"] == ["broken"]

    def test_run_many_serial_mixes_cache_and_fresh(self, store):
        store.run(TOY)
        lines = []
        outcomes = store.run_many([TOY], log=lines.append)
        assert [o.cached for o in outcomes] == [True]
        assert "cached" in lines[0]
        assert len(_TOY_CALLS) == 1


class TestCli:
    def test_run_all_filter_smoke(self, tmp_path, capsys):
        results = tmp_path / "results"
        md = tmp_path / "EXPERIMENTS.md"
        argv = [
            "run-all", "--filter", "figure1",
            "--results-dir", str(results), "--experiments-md", str(md),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[  pass] figure1" in out
        assert (results / "manifest.json").exists()
        assert (results / "artifacts" / "figure1.json").exists()
        text = md.read_text(encoding="utf-8")
        assert "`figure1`" in text and "✅ pass" in text
        # Unselected experiments still appear in the map, as not-run.
        assert "`figure3`" in text and "⏳ not run" in text

        # Second invocation: cache hit, reported as cached.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[cached] figure1" in out
        assert "1 cached" in out

    def test_run_all_parallel_jobs(self, tmp_path, capsys):
        assert main([
            "run-all", "--filter", "figure1", "--filter", "lemma1",
            "--jobs", "2", "--results-dir", str(tmp_path / "results"),
            "--experiments-md", "-",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 experiments: 2 pass" in out
        store = ArtifactStore(tmp_path / "results")
        assert set(store.entries()) == {"figure1", "lemma1"}

    def test_run_all_unknown_filter(self, tmp_path, capsys):
        assert main([
            "run-all", "--filter", "nonsense",
            "--results-dir", str(tmp_path / "results"),
        ]) == 2

    def test_run_all_partially_unknown_filter_refuses(self, tmp_path, capsys):
        # A typo next to a valid token must not silently validate less
        # than the user asked for.
        assert main([
            "run-all", "--filter", "figure1", "--filter", "theorm2",
            "--results-dir", str(tmp_path / "results"),
        ]) == 2
        assert "theorm2" in capsys.readouterr().err

    def test_report_tolerates_missing_artifact(self, tmp_path, capsys):
        results = tmp_path / "results"
        md = tmp_path / "EXPERIMENTS.md"
        assert main([
            "run-all", "--filter", "figure1",
            "--results-dir", str(results), "--experiments-md", str(md),
        ]) == 0
        (results / "artifacts" / "figure1.json").unlink()
        capsys.readouterr()
        assert main([
            "report", "--results-dir", str(results), "--output", str(md),
        ]) == 0
        text = md.read_text(encoding="utf-8")
        assert "`figure1`" in text and "✅" not in text  # stale → not run

    def test_run_all_list(self, tmp_path, capsys):
        assert main(["run-all", "--filter", "theorem", "--list"]) == 0
        out = capsys.readouterr().out
        assert "theorem1" in out and "theorem5" in out

    def test_report_without_running(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        md = tmp_path / "EXPERIMENTS.md"
        md.write_text("kept\n", encoding="utf-8")
        # A store with no manifest is an error, and the old report stays.
        assert main([
            "report", "--results-dir", str(results), "--output", str(md),
        ]) == 2
        assert md.read_text(encoding="utf-8") == "kept\n"
        assert not (results / "manifest.json").exists()


class TestTraceStore:
    """ArtifactStore's telemetry-trace shelf (``<root>/traces/``)."""

    def _tiny_trace(self):
        from repro.chaos.telemetry import TelemetryTrace

        viol = np.zeros((4, 2), dtype=bool)
        viol[1, 0] = viol[2, 0] = True
        return TelemetryTrace(
            epochs=4, n_replicas=2, epsilon=0.5, epsilon_prime=0.1,
            layer_sizes=(3, 2), process_kinds=("Toy",),
            detector_names=("threshold",), policy_name="none",
            epochs_chunk=2, block_sizes=(2,),
            viol=viol, down=np.zeros((4, 2), dtype=bool),
            alarms={"threshold": viol.copy()},
            errors=np.linspace(0.0, 0.7, 8).reshape(4, 2),
            spec_payload={"spec": "chaos"},
        )

    def test_save_load_round_trip(self, store):
        trace = self._tiny_trace()
        path = store.save_trace("incident_replay", trace)
        assert path == store.trace_path("incident_replay")
        assert path.exists()
        assert path.with_suffix(".npz").exists()
        assert path.parent == store.trace_dir
        loaded = store.load_trace("incident_replay")
        assert trace.equals(loaded)
        assert loaded.spec_payload == {"spec": "chaos"}

    def test_missing_trace_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.load_trace("never_recorded")


class TestRunRecordSplice:
    """A record saved around pre-encoded result bytes is the canonical
    compact record, byte for byte, and loads back as the same dict."""

    @staticmethod
    def _payload(kind):
        net = NetworkRef(
            builder="mlp", params={"input_dim": 4, "hidden": [12, 8], "seed": 1}
        )
        spec = {
            "campaign": lambda: CampaignSpec(
                network=net,
                sampler=SamplerSpec(kind="fixed", distribution=(2, 1)),
                fault=FaultSpec(kind="crash"), n_scenarios=512, seed=3,
            ),
            "survival": lambda: SurvivalSpec(
                network=net, p_fail=0.05, epsilon=0.5, epsilon_prime=0.1,
                method="monte_carlo", n_trials=128, seed=3,
            ),
            "chaos": lambda: ChaosSpec(
                network=net, epsilon=0.5, epsilon_prime=0.1,
                processes=(ProcessSpec(kind="lifetime", rate=0.1),),
                epochs=4, replicas=3, batch=4, seed=3,
            ),
        }[kind]()
        payload = result_payload(spec, run(spec))
        if kind == "chaos":  # non-finite floats must splice verbatim
            report = payload["report"]
            report["requests"][1:3] = [float("inf"), float("nan")]
            report["budget"] = float("-inf")
        return spec, payload

    @staticmethod
    def _canonical(record):
        return (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")

    @pytest.mark.parametrize("kind", ["campaign", "survival", "chaos"])
    def test_encoded_result_splices_to_the_canonical_record(
        self, store, kind
    ):
        spec, payload = self._payload(kind)
        record = {
            "version": 2, "spec_hash": spec.content_hash(),
            "kind": spec.spec_tag, "spec": spec.to_dict(), "result": payload,
        }
        canonical = self._canonical(record)
        path = store.save_run_result(
            "spliced", {**record, "result": encode_result(payload)}
        )
        assert path.read_bytes() == canonical
        assert store.save_run_result("mapping", record).read_bytes() == canonical
        # NaN != NaN, so compare the loaded dict through its encoding.
        loaded = store.load_run_result("spliced")
        assert self._canonical(loaded) == canonical
        if kind != "chaos":
            assert loaded == record

    @pytest.mark.parametrize(
        "keys", [("result",), ("a", "result"), ("result", "z"),
                 ("a", "result", "z", "s", "resulted", "Result")],
    )
    def test_result_at_any_sorted_position(self, store, keys):
        record = {key: [1.5, key] for key in keys}
        record["result"] = {"x": [0.1, -0.0, 1e308]}
        spliced = {**record, "result": b'{"x":[0.1,-0.0,1e+308]}'}
        path = store.save_run_result("any", spliced)
        assert path.read_bytes() == self._canonical(record)


def _hammer_store(args):
    """Subprocess body: interleave run-result writes and cache bumps."""
    root, worker_id, n_updates = args
    store = ArtifactStore(root)
    for i in range(n_updates):
        store.save_run_result(
            f"w{worker_id}-{i:02d}", {"kind": "campaign", "i": i}
        )
        store.update_manifest(
            lambda m: ArtifactStore._bump_cache(m, hits=1)
        )
    return worker_id


class TestConcurrentManifestWrites:
    """Multi-client safety: parallel writers never corrupt or lose
    manifest updates (the service daemon's store is shared by design)."""

    N_WORKERS = 4
    N_UPDATES = 8

    def test_parallel_writers_lose_no_updates(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        root = str(tmp_path / "results")
        jobs = [
            (root, w, self.N_UPDATES) for w in range(self.N_WORKERS)
        ]
        with ProcessPoolExecutor(max_workers=self.N_WORKERS) as pool:
            done = list(pool.map(_hammer_store, jobs))
        assert sorted(done) == list(range(self.N_WORKERS))

        store = ArtifactStore(root)
        # The manifest is valid JSON (atomic rename: never torn) and
        # the locked read-modify-write counters add up exactly ...
        manifest = json.loads(store.manifest_path.read_text())
        expected = self.N_WORKERS * self.N_UPDATES
        assert manifest["cache"]["hits"] == expected
        # ... and every run record from every worker loads exactly.
        for worker in range(self.N_WORKERS):
            for i in range(self.N_UPDATES):
                assert store.load_run_result(f"w{worker}-{i:02d}") == {
                    "kind": "campaign", "i": i,
                }

    def test_run_records_leave_the_manifest_untouched(self, tmp_path):
        """``runs/<hash>.json`` is its own index: saving a run record
        costs the same at any store size and never takes the lock."""
        store = ArtifactStore(tmp_path / "results")
        store.save_run_result("first", {"kind": "campaign", "i": 0})
        assert not store.manifest_path.exists()
        store.update_manifest(lambda m: ArtifactStore._bump_cache(m, hits=1))
        before = store.manifest_path.read_bytes()
        store.save_run_result("second", {"kind": "campaign", "i": 1})
        assert store.manifest_path.read_bytes() == before
        assert "runs" not in json.loads(before)
        assert store.load_run_result("second") == {"kind": "campaign", "i": 1}

    def test_lock_times_out_instead_of_hanging(self, tmp_path):
        from repro.artifacts import LOCK_NAME, _file_lock

        lock = tmp_path / LOCK_NAME
        lock.write_text("held\n")
        with pytest.raises(TimeoutError, match="manifest lock"):
            with _file_lock(lock, timeout=0.05):
                pass  # pragma: no cover - lock is held

    def test_stale_lock_is_stolen(self, tmp_path):
        import os

        from repro.artifacts import LOCK_NAME, _file_lock

        lock = tmp_path / LOCK_NAME
        lock.write_text("crashed\n")
        old = lock.stat().st_mtime - 120
        os.utime(lock, (old, old))
        with _file_lock(lock, timeout=1.0, stale_after=60.0):
            assert lock.exists()  # we own the recreated lock
        assert not lock.exists()
