"""Telemetry-native chaos: trace emission, replay, AIOps scoring.

Covers the telemetry subsystem end to end: the vectorised episode RLE
against its scalar oracle, the degenerate-fleet MTBF/MTTR contract,
trace persistence and retention, deterministic detector replay, the
AIOps scoring tasks, and the TelemetrySpec schema's strict
back-compat with pre-telemetry ChaosSpec payloads.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import (
    ACTION_REPAIR,
    ACTION_RESET,
    CUSUMDetector,
    TelemetryTrace,
    ThresholdDetector,
    concat_traces,
    detection_scores,
    episode_runs,
    incidents,
    load_trace,
    localization_truth,
    rca_truth,
    replay_detectors,
    replay_report,
    report_from_trace,
    save_trace,
    score_localization,
    score_rca,
    scorecard,
)
from repro.chaos.campaign import _run_chaos_campaign
from repro.chaos.detectors import CertifiedAlarmDetector
from repro.chaos.policies import DetectorRepairPolicy
from repro.chaos.processes import (
    ComponentLifetimeProcess,
    TransientBurstProcess,
)
from repro.network import build_mlp

from oracles import episode_runs_scalar

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "specs"


# ---------------------------------------------------------------------------
# Shared live campaign (session-scoped: several tests read the trace)
# ---------------------------------------------------------------------------


def _detectors():
    return [
        ThresholdDetector(threshold=0.05),
        CUSUMDetector(drift=0.01, threshold=0.1),
    ]


def _campaign(n_workers=0, telemetry=True):
    from types import SimpleNamespace

    rng = np.random.default_rng(5)
    net = build_mlp(2, [12, 10], activation="sigmoid", seed=5,
                    output_scale=0.3)
    x = rng.uniform(-1, 1, size=(16, 2))
    procs = [
        ComponentLifetimeProcess(rate=0.25),
        TransientBurstProcess(burst_rate=0.3, fraction=0.5),
    ]
    tel = SimpleNamespace(enabled=True, ground_truth=True)
    return _run_chaos_campaign(
        net, x, procs,
        epochs=48, n_replicas=32, epsilon=0.12, epsilon_prime=0.1,
        detectors=_detectors(),
        policy=DetectorRepairPolicy(detector="threshold"),
        seed=11, epochs_chunk=8, n_workers=n_workers,
        telemetry=tel if telemetry else None,
    )


@pytest.fixture(scope="module")
def live_report():
    return _campaign()


@pytest.fixture(scope="module")
def live_trace(live_report):
    return live_report.trace


# ---------------------------------------------------------------------------
# Episode RLE: vectorised vs scalar oracle
# ---------------------------------------------------------------------------


class TestEpisodeRuns:
    def _assert_matches_oracle(self, grid):
        got = episode_runs(grid)
        want = episode_runs_scalar(grid)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_grids_match_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        shape = rng.integers(1, 40, size=2)
        self._assert_matches_oracle(rng.random(shape) < 0.4)

    @pytest.mark.parametrize(
        "grid",
        [
            np.zeros((5, 3), dtype=bool),          # fault-free
            np.ones((5, 3), dtype=bool),           # one run per replica
            np.ones((1, 4), dtype=bool),           # single-epoch runs
            np.zeros((0, 0), dtype=bool),          # empty
            np.zeros((6, 0), dtype=bool),          # no replicas
            np.array([[1], [0], [1], [1], [0], [1]], dtype=bool),
        ],
        ids=["all-healthy", "all-violating", "one-epoch", "empty",
             "no-replicas", "alternating"],
    )
    def test_edge_grids_match_scalar_oracle(self, grid):
        self._assert_matches_oracle(grid)

    def test_run_accounting(self):
        grid = np.zeros((6, 2), dtype=bool)
        grid[1:3, 0] = True   # replica 0: onset 1, length 2
        grid[5, 0] = True     # replica 0: onset 5, length 1 (ends at E)
        grid[0:6, 1] = True   # replica 1: full-horizon run
        rep, onset, length = episode_runs(grid)
        assert rep.tolist() == [0, 0, 1]
        assert onset.tolist() == [1, 5, 0]
        assert length.tolist() == [2, 1, 6]


# ---------------------------------------------------------------------------
# Degenerate-fleet MTBF/MTTR contract
# ---------------------------------------------------------------------------


def _grid_trace(viol, down, **kwargs):
    E, R = viol.shape
    defaults = dict(
        epochs=E, n_replicas=R, epsilon=0.5, epsilon_prime=0.1,
        layer_sizes=(3, 2), process_kinds=("Toy",),
        detector_names=(), policy_name="none", epochs_chunk=max(E, 1),
        block_sizes=(R,), viol=viol, down=down,
    )
    defaults.update(kwargs)
    return TelemetryTrace(**defaults)


class TestDegenerateFleets:
    def test_fault_free_fleet_mtbf_mttr_nan(self):
        E, R = 6, 4
        trace = _grid_trace(
            np.zeros((E, R), dtype=bool), np.zeros((E, R), dtype=bool)
        )
        report = report_from_trace(trace)
        assert report.n_violation_episodes == 0
        assert np.isnan(report.mtbf) and np.isnan(report.mttr)
        assert report.availability == 1.0

    def test_all_down_fleet_mtbf_mttr_nan(self):
        E, R = 6, 4
        trace = _grid_trace(
            np.zeros((E, R), dtype=bool), np.ones((E, R), dtype=bool)
        )
        report = report_from_trace(trace)
        assert report.n_violation_episodes == 0
        assert np.isnan(report.mtbf) and np.isnan(report.mttr)
        assert report.availability == 0.0
        assert report.downtime_fraction == 1.0

    def test_contract_is_documented(self):
        from repro.chaos import ChaosReport

        doc = ChaosReport.__doc__ or ""
        assert "nan" in doc

    def test_episodes_present_keeps_finite_stats(self):
        E, R = 6, 2
        viol = np.zeros((E, R), dtype=bool)
        viol[2:4, 0] = True
        report = report_from_trace(
            _grid_trace(viol, np.zeros((E, R), dtype=bool))
        )
        assert report.n_violation_episodes == 1
        assert report.mtbf == float(E * R - 2) and report.mttr == 2.0


# ---------------------------------------------------------------------------
# Trace persistence and retention
# ---------------------------------------------------------------------------


class TestTracePersistence:
    def test_round_trip_is_bitwise(self, live_trace, tmp_path):
        path = save_trace(live_trace, tmp_path / "trace")
        assert path.suffix == ".json"
        loaded = load_trace(path)
        assert live_trace.equals(loaded)
        # ... and the derived report is bitwise identical too.
        assert (
            report_from_trace(loaded).to_dict()
            == report_from_trace(live_trace).to_dict()
        )

    def test_load_accepts_either_suffix(self, live_trace, tmp_path):
        save_trace(live_trace, tmp_path / "t.json")
        assert live_trace.equals(load_trace(tmp_path / "t.npz"))
        assert live_trace.equals(load_trace(tmp_path / "t"))

    def test_schema_version_gate(self, live_trace, tmp_path):
        path = save_trace(live_trace, tmp_path / "t")
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["schema_version"] = 999
        path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match="schema_version"):
            load_trace(path)

    def test_retained_drops_errors(self, live_trace):
        trimmed = live_trace.retained(retain_errors=False)
        assert trimmed.errors is None
        with pytest.raises(ValueError, match="retain_errors"):
            trimmed.observed()
        # grid statistics survive the trim
        full = report_from_trace(live_trace).to_dict()
        slim = report_from_trace(trimmed).to_dict()
        assert slim == full

    def test_retained_epoch_prefix(self, live_trace):
        n = 16
        trimmed = live_trace.retained(retain_epochs=n)
        assert trimmed.epochs == n
        assert trimmed.viol.shape == (n, live_trace.n_replicas)
        np.testing.assert_array_equal(trimmed.viol, live_trace.viol[:n])
        assert int(trimmed.action_epoch.max(initial=0)) < n
        assert trimmed.process_hits.shape[1] == n
        # prefix keeps replay exact over the retained horizon
        replayed = replay_detectors(trimmed, _detectors())
        for name in trimmed.detector_names:
            np.testing.assert_array_equal(
                replayed[name], live_trace.alarms[name][:n]
            )

    def test_retained_rejects_zero_epochs(self, live_trace):
        with pytest.raises(ValueError, match="retain_epochs"):
            live_trace.retained(retain_epochs=0)


# ---------------------------------------------------------------------------
# Serial == parallel, and the recorder's schedule-neutrality
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_parallel_trace_bitwise_equal(self, live_report):
        parallel = _campaign(n_workers=2)
        assert parallel.trace.equals(live_report.trace)
        assert parallel.to_dict() == live_report.to_dict()

    def test_ground_truth_capture_does_not_move_the_schedule(
        self, live_report
    ):
        """Recording draws nothing from the RNG: the same campaign
        with telemetry off produces the identical report."""
        plain = _campaign(telemetry=False)
        assert plain.trace.has_ground_truth is False
        assert plain.to_dict() == live_report.to_dict()
        assert np.array_equal(plain.trace.viol, live_report.trace.viol)

    def test_concat_rejects_mismatched_blocks(self, live_trace):
        from dataclasses import replace

        other = replace(live_trace, epsilon=0.9)
        with pytest.raises(ValueError, match="disagree"):
            concat_traces([live_trace, other])


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class TestReplay:
    def test_replay_matches_live_alarms_bitwise(self, live_trace):
        replayed = replay_detectors(live_trace, _detectors())
        for name in live_trace.detector_names:
            np.testing.assert_array_equal(
                replayed[name], live_trace.alarms[name]
            )

    def test_replay_certified_detector_matches_live(self):
        """The stateful certified alarm (repair-log replays inside its
        update) survives the trace round trip too."""
        from types import SimpleNamespace

        rng = np.random.default_rng(5)
        net = build_mlp(2, [12, 10], activation="sigmoid", seed=5,
                        output_scale=0.3)
        x = rng.uniform(-1, 1, size=(16, 2))

        def dets():
            return [
                ThresholdDetector(threshold=0.05),
                CertifiedAlarmDetector(net, 0.25, 0.12, 0.1),
            ]

        report = _run_chaos_campaign(
            net, x, [ComponentLifetimeProcess(rate=0.25)],
            epochs=32, n_replicas=32, epsilon=0.12, epsilon_prime=0.1,
            detectors=dets(),
            policy=DetectorRepairPolicy(detector="threshold"),
            seed=11, epochs_chunk=8,
            telemetry=SimpleNamespace(enabled=True, ground_truth=False),
        )
        replayed = replay_detectors(report.trace, dets())
        for name in report.trace.detector_names:
            np.testing.assert_array_equal(
                replayed[name], report.trace.alarms[name]
            )

    def test_replay_report_swaps_detector_stats_only(self, live_trace):
        report = replay_report(live_trace, [ThresholdDetector(0.05)])
        base = report_from_trace(live_trace)
        assert tuple(report.detector_stats) == ("threshold",)
        assert report.availability == base.availability
        assert report.n_violation_episodes == base.n_violation_episodes
        assert (
            report.detector_stats["threshold"]
            == base.detector_stats["threshold"]
        )

    def test_replay_requires_error_channel(self, live_trace):
        with pytest.raises(ValueError, match="retain_errors"):
            replay_detectors(
                live_trace.retained(retain_errors=False), _detectors()
            )

    def test_replay_rejects_duplicate_names(self, live_trace):
        with pytest.raises(ValueError, match="unique"):
            replay_detectors(
                live_trace, [ThresholdDetector(0.1), ThresholdDetector(0.2)]
            )


# ---------------------------------------------------------------------------
# AIOps scoring
# ---------------------------------------------------------------------------


class TestAiops:
    def _toy_trace(self):
        """Hand-built two-incident trace with known ground truth."""
        E, R, L, P = 8, 2, 2, 2
        viol = np.zeros((E, R), dtype=bool)
        viol[2:5, 0] = True   # incident A: replica 0, onset 2, len 3
        viol[6, 1] = True     # incident B: replica 1, onset 6, len 1
        crash = np.zeros((E, R, L), dtype=np.int32)
        crash[2:, 0, 0] = 1   # incident A: layer 0 damaged at onset
        transient = np.zeros((E, R, L), dtype=np.int32)
        transient[6, 1, 1] = 2  # incident B: layer 1 damaged at onset
        hits = np.zeros((P, E, R), dtype=np.int32)
        hits[0, 2, 0] = 1     # process 0 caused incident A
        hits[1, 6, 1] = 2     # process 1 caused incident B
        return _grid_trace(
            viol, np.zeros((E, R), dtype=bool),
            process_kinds=("Lifetime", "Bursts"),
            crash_counts=crash, transient_counts=transient,
            process_hits=hits,
        )

    def test_incidents_enumeration(self):
        incs = incidents(self._toy_trace())
        assert [(i.replica, i.onset, i.length) for i in incs] == [
            (0, 2, 3), (1, 6, 1)
        ]
        assert incs[0].end == 5

    def test_detection_scores_exact(self):
        trace = self._toy_trace()
        alarms = np.zeros(trace.viol.shape, dtype=bool)
        alarms[4, 0] = True   # catches incident A, two epochs late
        alarms[0, 1] = True   # false alarm (healthy, in service)
        scores = detection_scores(trace, alarms)
        assert scores["n_incidents"] == 2
        assert scores["detected"] == 1
        assert scores["detection_rate"] == 0.5
        assert scores["mean_ttd"] == 2.0
        assert scores["false_alarm_cells"] == 1
        assert scores["replica_precision"] == 1.0  # both flagged violate
        assert scores["replica_recall"] == 1.0

    def test_detection_rejects_wrong_shape(self):
        trace = self._toy_trace()
        with pytest.raises(ValueError, match="shape"):
            detection_scores(trace, np.zeros((3, 3), dtype=bool))

    def test_localization_truth_and_scoring(self):
        trace = self._toy_trace()
        truth = localization_truth(trace)
        assert truth == [(0,), (1,)]
        perfect = score_localization(trace, truth)
        assert perfect["layer_precision"] == 1.0
        assert perfect["layer_recall"] == 1.0
        # claiming every layer: recall 1, precision 1/2
        sloppy = score_localization(trace, [(0, 1), (0, 1)])
        assert sloppy["layer_recall"] == 1.0
        assert sloppy["layer_precision"] == 0.5

    def test_rca_truth_and_scoring(self):
        trace = self._toy_trace()
        truth = rca_truth(trace)
        assert truth == [0, 1]
        assert score_rca(trace, truth)["accuracy"] == 1.0
        half = score_rca(trace, [0, 0])
        assert half["accuracy"] == 0.5
        assert half["by_kind"]["Lifetime"]["accuracy"] == 1.0
        assert half["by_kind"]["Bursts"]["accuracy"] == 0.0

    def test_ground_truth_required(self):
        bare = _grid_trace(
            np.zeros((4, 2), dtype=bool), np.zeros((4, 2), dtype=bool)
        )
        with pytest.raises(ValueError, match="ground.truth|ground_truth"):
            localization_truth(bare)
        with pytest.raises(ValueError, match="ground_truth"):
            rca_truth(bare)

    def test_live_campaign_oracles_are_perfect(self, live_trace):
        sheet = scorecard(live_trace)
        assert sheet["n_incidents"] > 0
        assert sheet["localization_oracle"]["layer_precision"] == 1.0
        assert sheet["localization_oracle"]["layer_recall"] == 1.0
        assert sheet["rca_oracle"]["accuracy"] == 1.0
        thresh = sheet["detection"]["threshold"]
        assert thresh["detection_rate"] <= 1.0
        assert thresh["mean_ttd"] >= 0.0

    def test_scorecard_without_ground_truth(self):
        viol = np.zeros((4, 2), dtype=bool)
        viol[1, 0] = True
        trace = _grid_trace(
            viol, np.zeros((4, 2), dtype=bool),
            detector_names=("threshold",),
            alarms={"threshold": viol.copy()},
        )
        sheet = scorecard(trace)
        assert sheet["ground_truth"] == "absent"
        assert sheet["detection"]["threshold"]["detection_rate"] == 1.0


# ---------------------------------------------------------------------------
# Event channels
# ---------------------------------------------------------------------------


class TestEventChannels:
    def test_repair_and_reset_events_recorded(self, live_trace):
        repair_epochs, repair_replicas = live_trace.actions(ACTION_REPAIR)
        assert repair_epochs.size > 0  # the repair policy fired
        assert int(repair_replicas.max()) < live_trace.n_replicas
        assert int(repair_epochs.max()) < live_trace.epochs
        reset_epochs, _ = live_trace.actions(ACTION_RESET)
        assert reset_epochs.size == 0  # no rejuvenation in this campaign


# ---------------------------------------------------------------------------
# TelemetrySpec schema back-compat
# ---------------------------------------------------------------------------


class TestTelemetrySpecSchema:
    def test_old_payloads_lower_and_hash_unchanged(self):
        """A pre-telemetry ChaosSpec payload (no ``telemetry`` key)
        must parse, serialise back byte-identically, and keep its
        content hash — stored artifacts stay cache-valid."""
        from repro.specs import ChaosSpec, spec_from_dict

        path = FIXTURE_DIR / "chaos_survival_experiment.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "telemetry" not in payload
        spec = spec_from_dict(payload)
        assert spec.telemetry is None
        assert spec.to_dict() == payload
        assert isinstance(spec, ChaosSpec)

    def test_default_spec_omits_telemetry_key(self):
        from repro.experiments.exp_chaos_survival import chaos_survival_spec

        assert "telemetry" not in chaos_survival_spec().to_dict()

    def test_telemetry_spec_round_trip(self):
        from repro.specs import ChaosSpec, TelemetrySpec, spec_from_dict

        from repro.experiments.exp_incident_replay import (
            incident_replay_spec,
        )

        spec = incident_replay_spec()
        payload = spec.to_dict()
        assert payload["telemetry"]["enabled"] is True
        back = spec_from_dict(payload)
        assert isinstance(back, ChaosSpec)
        assert back == spec
        assert back.telemetry == TelemetrySpec()

    def test_retain_epochs_validated(self):
        from repro.specs import SpecError, TelemetrySpec

        with pytest.raises(SpecError, match="retain_epochs"):
            TelemetrySpec(retain_epochs=0)


# ---------------------------------------------------------------------------
# Golden-fixture parity: every stored chaos spec derives its report
# from the trace, bitwise-identically serial vs parallel
# ---------------------------------------------------------------------------


CHAOS_FIXTURES = sorted(FIXTURE_DIR.glob("chaos_*.json"))


@pytest.mark.parametrize("path", CHAOS_FIXTURES,
                         ids=[p.stem for p in CHAOS_FIXTURES])
def test_golden_chaos_fixture_trace_parity(path):
    from repro.specs import load_spec, run

    spec = load_spec(path)
    serial = run(spec)
    assert serial.trace is not None
    # the report IS report_from_trace(trace) — re-deriving is bitwise
    assert report_from_trace(serial.trace).to_dict() == serial.to_dict()
    parallel = run(spec, workers=2)
    assert parallel.trace.equals(serial.trace)
    assert parallel.to_dict() == serial.to_dict()
