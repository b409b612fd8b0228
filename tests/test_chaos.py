"""Unit tests for the temporal chaos subsystem (repro.chaos)."""

import numpy as np
import pytest

from repro.chaos import (
    REPLICA_BLOCK,
    CertifiedAlarmDetector,
    ComponentLifetimeProcess,
    ConstantTraffic,
    CorrelatedBlastProcess,
    CUSUMDetector,
    DetectorRepairPolicy,
    DiurnalTraffic,
    EpochWindow,
    FleetState,
    NoRepairPolicy,
    ParetoBurstyTraffic,
    PeriodicRejuvenationPolicy,
    PoissonArrivalProcess,
    SpareActivationPolicy,
    ThresholdDetector,
    TransientBurstProcess,
    recommended_spares,
)
from repro.chaos.campaign import _run_chaos_campaign
from repro.distributed.boosting import (
    LatencyModel,
    boosted_reset_masks,
    simulate_boosted_run,
)
from repro.distributed.replication import ReplicatedEnsemble
from repro.faults.injector import FaultInjector
from repro.faults.masks import MaskCampaignEngine
from repro.faults.reliability import mission_survival_curve
from repro.faults.scenarios import crash_scenario
from repro.network import build_mlp
from repro.network.model import NeuronAddress

from oracles import run_reference, scalar_errors


@pytest.fixture
def sensitive_net():
    """Weights large enough that accumulated crashes break a 0.4 budget."""
    return build_mlp(
        2,
        [12, 10],
        activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.4},
        output_scale=0.3,
        seed=5,
    )


@pytest.fixture
def probes():
    return np.random.default_rng(5).random((12, 2))


def _campaign(net, x, processes, **kw):
    defaults = dict(
        epochs=24, n_replicas=20, epsilon=0.5, epsilon_prime=0.1, seed=11
    )
    defaults.update(kw)
    return _run_chaos_campaign(net, x, processes, **defaults)


class TestProcesses:
    def _state(self, sizes=(6, 5), R=8):
        return FleetState(sizes, R)

    def test_lifetime_accumulates_monotonically(self):
        state = self._state()
        proc = ComponentLifetimeProcess(0.2)
        proc.reset(8, state.layer_sizes)
        rng = np.random.default_rng(0)
        prev = 0
        for epoch in range(20):
            state.begin_epoch(epoch)
            proc.step(state, rng)
            dead = int(sum(c.sum() for c in state.crash))
            assert dead >= prev
            prev = dead
            state.advance_ages()
        assert prev > 0

    def test_exponential_matches_mission_lifetime_law(self):
        """Survival after t epochs is exp(-rate * t) — the law
        mission_survival_curve integrates against."""
        rate, t, R = 0.05, 30, 400
        state = FleetState((50,), R)
        proc = ComponentLifetimeProcess(rate)
        proc.reset(R, state.layer_sizes)
        rng = np.random.default_rng(3)
        for epoch in range(t):
            state.begin_epoch(epoch)
            proc.step(state, rng)
            state.advance_ages()
        alive = 1.0 - state.crash[0].mean()
        assert alive == pytest.approx(float(np.exp(-rate * t)), abs=0.01)

    def test_weibull_wearout_accelerates(self):
        """shape > 1: old components fail faster than young ones."""
        R = 600
        rng = np.random.default_rng(4)
        proc = ComponentLifetimeProcess(0.05, shape=2.0)
        proc.reset(R, (40,))
        young, old = FleetState((40,), R), FleetState((40,), R)
        for a in old.age:
            a += 20.0
        young.begin_epoch(0)
        proc.step(young, rng)
        old.begin_epoch(0)
        proc.step(old, rng)
        assert old.crash[0].mean() > young.crash[0].mean() * 2

    def test_poisson_hits_expected_count(self):
        R, n, rate, epochs = 200, 30, 0.5, 10
        state = FleetState((n,), R)
        proc = PoissonArrivalProcess(rate)
        proc.reset(R, (n,))
        rng = np.random.default_rng(7)
        for epoch in range(epochs):
            state.begin_epoch(epoch)
            proc.step(state, rng)
        # E[dead] = n * (1 - (1 - 1/n)^(rate * epochs)) per replica.
        expected = n * (1.0 - (1.0 - 1.0 / n) ** (rate * epochs))
        assert state.crash[0].sum(axis=1).mean() == pytest.approx(
            expected, rel=0.15
        )

    def test_burst_sets_gates_then_expires(self):
        state = self._state()
        proc = TransientBurstProcess(1.0, duration=2, fraction=0.5, hit_p=0.3)
        proc.reset(8, state.layer_sizes)
        rng = np.random.default_rng(1)
        state.begin_epoch(0)
        proc.step(state, rng)
        assert state.has_transients
        gated0 = sum((g > 0.0).sum() for g in state.transient_p)
        assert gated0 > 0
        assert all(
            np.all((g == 0.0) | (g == 0.3)) for g in state.transient_p
        )
        # No permanent damage from a burst.
        assert not any(c.any() for c in state.crash)
        # After the burst expires (and no restart because remaining
        # gates re-trigger only at remaining == 0).
        state.begin_epoch(1)
        proc.step(state, rng)
        proc.on_repair(state, np.ones(8, dtype=bool))
        state.begin_epoch(2)
        assert not state.has_transients

    def test_blast_kills_a_layer_slice_at_once(self):
        state = self._state(sizes=(10, 8), R=4)
        proc = CorrelatedBlastProcess(1.0, fraction=0.5)
        proc.reset(4, state.layer_sizes)
        rng = np.random.default_rng(2)
        state.begin_epoch(0)
        proc.step(state, rng)
        for r in range(4):
            per_layer = [int(c[r].sum()) for c in state.crash]
            # Exactly one layer hit, with round(fraction * N_l) kills.
            assert sorted(
                (hits, n)
                for hits, n in zip(per_layer, state.layer_sizes)
                if hits
            ) in ([(4, 8)], [(5, 10)])

    def test_determinism(self):
        runs = []
        for _ in range(2):
            state = self._state()
            procs = [
                PoissonArrivalProcess(0.3),
                TransientBurstProcess(0.2),
                CorrelatedBlastProcess(0.1),
            ]
            rng = np.random.default_rng(42)
            for p in procs:
                p.reset(8, state.layer_sizes)
            for epoch in range(10):
                state.begin_epoch(epoch)
                for p in procs:
                    p.step(state, rng)
                state.advance_ages()
            runs.append(
                [c.copy() for c in state.crash]
                + [g.copy() for g in state.transient_p]
            )
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            ComponentLifetimeProcess(-0.1)
        with pytest.raises(ValueError):
            ComponentLifetimeProcess(0.1, shape=0.0)
        with pytest.raises(ValueError):
            TransientBurstProcess(1.5)
        with pytest.raises(ValueError):
            CorrelatedBlastProcess(0.1, fraction=0.0)
        proc = PoissonArrivalProcess((0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="layers"):
            proc.reset(4, (6, 5))


class TestDeployment:
    def test_window_compiles_the_fleet_grid(self, sensitive_net, probes):
        """A compiled window row equals the scalar injector's view of
        the same (epoch, replica) crash set."""
        sizes = sensitive_net.layer_sizes
        R, W = 3, 4
        state = FleetState(sizes, R)
        win = EpochWindow(sizes, W, R)
        proc = ComponentLifetimeProcess(0.15)
        proc.reset(R, sizes)
        rng = np.random.default_rng(9)
        snapshots = []
        for epoch in range(W):
            state.begin_epoch(epoch)
            proc.step(state, rng)
            win.snapshot(state)
            snapshots.append([c.copy() for c in state.crash])
            state.advance_ages()
        batch = win.batch(np.arange(W * R))
        assert batch.num_scenarios == W * R
        injector = FaultInjector(
            sensitive_net, capacity=sensitive_net.output_bound
        )
        errors = MaskCampaignEngine(injector, probes).evaluate(batch)
        scenarios = [
            crash_scenario(
                [
                    NeuronAddress(l0 + 1, int(i))
                    for l0, mask in enumerate(snapshots[e])
                    for i in np.nonzero(mask[r])[0]
                ]
            )
            for e in range(W)
            for r in range(R)
        ]
        np.testing.assert_allclose(
            errors, scalar_errors(injector, probes, scenarios), atol=1e-12
        )

    def test_window_overflow_guard(self):
        win = EpochWindow((4,), 1, 2)
        state = FleetState((4,), 2)
        win.snapshot(state)
        with pytest.raises(RuntimeError, match="full"):
            win.snapshot(state)

    def test_overlapping_transients_superpose(self):
        """Two transients on one cell combine as independent Bernoulli
        gates (1 - (1-p1)(1-p2)), never as the milder of the two."""
        state = FleetState((4,), 2)
        cells = np.zeros((2, 4), dtype=bool)
        cells[0, 1] = True
        state.set_transient(cells, 0.9)
        state.set_transient(cells, 0.2)
        assert state.transient_p[0][0, 1] == pytest.approx(
            1.0 - (1.0 - 0.9) * (1.0 - 0.2)
        )
        # The compiled gate carries the combined hit probability.
        win = EpochWindow((4,), 1, 2)
        win.snapshot(state)
        batch = win.batch(np.arange(2))
        assert batch.gate_p is not None
        assert batch.zero_masks[0][0, 1]
        assert batch.gate_p[0][0, 1] == pytest.approx(0.92)

    def test_unchanged_rows_carry_forward(self, sensitive_net, probes):
        """Only a window's first epoch and the rows that differ from the
        replica's previous epoch, or carry a gate there or before, reach
        the engine; every error equals the every-row reference."""
        from oracles import evaluate_window_reference
        from repro.chaos.deployment import DeployedNetwork, ReplicaStreams

        R, W = 3, 4
        fleet = DeployedNetwork(sensitive_net, probes, R, window=W)
        ref = DeployedNetwork(sensitive_net, probes, R, window=W)
        seen = []
        evaluate = fleet.engine.evaluate

        def counting(batch, **kw):
            seen.append(batch.num_scenarios)
            return evaluate(batch, **kw)

        fleet.engine.evaluate = counting
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        flaky = np.zeros((R, sum(sensitive_net.layer_sizes)), dtype=bool)
        flaky[1, 2] = True
        # Replica 0 is healthy at each window's first epoch and loses
        # two cells from its second on; replica 1 is gated at epoch 2.
        # Window 0 evaluates all of epoch 0, replica 0 at epoch 1 and
        # replica 1 at epochs 2 and 3 (3 + 1 + 2); window 1 all of its
        # first epoch and replica 0 at its second (3 + 1).
        for window, evaluated in ((0, 6), (1, 4)):
            for f in (fleet, ref):
                f.window.clear()
                for k in range(W):
                    f.state.begin_epoch(window * W + k)
                    f.state.crash[0][0, :2] = k >= 1
                    if window * W + k == 2:
                        f.state.set_transient(flaky, 0.5)
                    f.window.snapshot(f.state)
            got, _ = fleet.evaluate(ReplicaStreams.of(a, R))
            assert np.array_equal(got, evaluate_window_reference(ref, b))
            assert seen.pop() == evaluated
        assert a.bit_generator.state == b.bit_generator.state

    def test_repair_clears_masks_and_ages(self):
        state = FleetState((5, 4), 3)
        state.crash[0][1] = True
        state.age[0] += 7
        fixed = np.array([False, True, False])
        state.repair(fixed)
        assert not state.crash[0][1].any()
        assert np.all(state.age[0][1] == 0) and np.all(state.age[0][0] == 7)


class TestTraffic:
    def test_constant(self):
        t = ConstantTraffic(500.0)
        req = t.requests(10, np.random.default_rng(0))
        assert np.all(req == 500.0)

    def test_diurnal_cycles(self):
        t = DiurnalTraffic(100.0, amplitude=0.5, period=8)
        req = t.requests(16, np.random.default_rng(0))
        assert np.all(req >= 0)
        assert req[:8] == pytest.approx(req[8:])
        assert req.max() > req.min()

    def test_pareto_heavy_tail(self):
        t = ParetoBurstyTraffic(100.0, alpha=1.5)
        req = t.requests(4000, np.random.default_rng(0))
        assert np.all(req >= 100.0)
        assert req.max() > 5 * np.median(req)

    def test_probe_counts_proportional(self):
        t = DiurnalTraffic(100.0)
        req = np.array([0.0, 50.0, 100.0])
        counts = t.probe_counts(req, 16)
        assert counts.tolist() == [1, 8, 16]

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantTraffic(-1.0)
        with pytest.raises(ValueError):
            DiurnalTraffic(100, amplitude=1.5)
        with pytest.raises(ValueError):
            ParetoBurstyTraffic(100, alpha=1.0)


class TestDetectors:
    def test_threshold_exact(self):
        det = ThresholdDetector(0.5)
        det.reset(3)
        errors = np.array([[0.1, 0.6, 0.5], [0.51, 0.2, 0.9]])
        fired = det.update(errors, 0)
        assert fired.tolist() == [
            [False, True, False],
            [True, False, True],
        ]

    def test_cusum_catches_slow_drift_a_threshold_misses(self):
        cusum = CUSUMDetector(drift=0.1, threshold=0.5)
        cusum.reset(1)
        thr = ThresholdDetector(0.5)
        thr.reset(1)
        # Sustained 0.25 — under the 0.5 line forever, but drifting.
        errors = np.full((6, 1), 0.25)
        assert not thr.update(errors, 0).any()
        fired = cusum.update(errors, 0)
        assert fired.any()
        # After firing the statistic re-arms.
        k = int(np.argmax(fired[:, 0]))
        assert not fired[k + 1, 0] if k + 1 < 6 else True

    def test_cusum_ignores_single_blip(self):
        cusum = CUSUMDetector(drift=0.2, threshold=1.0)
        cusum.reset(1)
        errors = np.zeros((8, 1))
        errors[3, 0] = 0.9
        assert not cusum.update(errors, 0).any()

    def test_cusum_resets_on_repair(self):
        cusum = CUSUMDetector(drift=0.0, threshold=10.0)
        cusum.reset(2)
        cusum.update(np.full((3, 2), 1.0), 0)
        assert np.all(cusum.s == 3.0)
        cusum.on_repair(np.array([True, False]), 3)
        assert cusum.s.tolist() == [0.0, 3.0]

    def test_certified_alarm_epoch_matches_bound(self, sensitive_net):
        det = CertifiedAlarmDetector(
            sensitive_net, 0.03, 0.5, 0.1, p_threshold=0.5
        )
        e = det.alarm_epoch
        assert e is not None and e > 0
        curve = mission_survival_curve(
            sensitive_net, 0.03, [e - 1, e], 0.5, 0.1
        )
        assert curve[0][1] >= 0.5 > curve[1][1]

    def test_certified_alarm_rearms_after_repair(self, sensitive_net):
        det = CertifiedAlarmDetector(
            sensitive_net, 0.03, 0.5, 0.1, p_threshold=0.5
        )
        det.reset(2)
        e = det.alarm_epoch
        errors = np.zeros((1, 2))
        assert det.update(errors, e).all()
        det.on_repair(np.array([True, False]), e + 1)
        fired = det.update(errors, e + 1 + e)  # replica 0's clock restarted
        assert fired.tolist() == [[True, False]]

    def test_certified_alarm_sees_mid_window_repairs(self, sensitive_net):
        """Repairs land mid-window (policies apply them at epoch
        start); each epoch must be judged against the repair clock as
        of that epoch, not the end-of-window state."""
        det = CertifiedAlarmDetector(
            sensitive_net, 0.03, 0.5, 0.1, p_threshold=0.5
        )
        det.reset(1)
        det.alarm_epoch = 3
        det.on_repair(np.array([True]), 4)  # logged before update runs
        fired = det.update(np.zeros((10, 1)), 0)
        # Alarm at epoch 3 (clock from 0), then at 7 (clock from the
        # epoch-4 repair) — the pre-repair alarm must not be lost.
        assert np.nonzero(fired[:, 0])[0].tolist() == [3, 7]

    def test_certified_alarm_never_fires_at_zero_rate(self, sensitive_net):
        det = CertifiedAlarmDetector(sensitive_net, 0.0, 0.5, 0.1)
        assert det.alarm_epoch is None
        det.reset(2)
        assert not det.update(np.ones((4, 2)), 0).any()


class TestCampaign:
    def test_deterministic_replay(self, sensitive_net, probes):
        kw = dict(
            detectors=[ThresholdDetector(0.4)],
            policy=DetectorRepairPolicy(latency=1),
            traffic=DiurnalTraffic(100.0),
            keep_errors=True,
        )
        a = _campaign(
            sensitive_net, probes, [ComponentLifetimeProcess(0.05)], **kw
        )
        b = _campaign(
            sensitive_net, probes, [ComponentLifetimeProcess(0.05)], **kw
        )
        assert np.array_equal(a.errors, b.errors)
        assert a.to_dict() == b.to_dict()

    def test_serial_equals_parallel_bitwise(self, sensitive_net, probes):
        """The acceptance property: same seed => identical fault
        schedule, detector firings and SLO report, serial == parallel."""
        kw = dict(
            n_replicas=3 * REPLICA_BLOCK + 5,
            detectors=[ThresholdDetector(0.4), CUSUMDetector(0.1, 1.0)],
            policy=DetectorRepairPolicy(latency=1, downtime=1),
            traffic=DiurnalTraffic(100.0),
            keep_errors=True,
            epochs=20,
        )
        procs = [
            ComponentLifetimeProcess(0.05),
            TransientBurstProcess(0.1),
        ]
        serial = _campaign(sensitive_net, probes, procs, n_workers=0, **kw)
        parallel = _campaign(sensitive_net, probes, procs, n_workers=3, **kw)
        assert np.array_equal(serial.errors, parallel.errors)
        assert serial.to_dict() == parallel.to_dict()

    def test_availability_and_ground_truth_consistency(
        self, sensitive_net, probes
    ):
        rep = _campaign(
            sensitive_net,
            probes,
            [ComponentLifetimeProcess(0.08)],
            detectors=[ThresholdDetector(0.3)],
            keep_errors=True,
            epochs=30,
            epsilon_prime=0.2,
        )
        assert rep.n_violation_episodes > 0
        viol = rep.errors > 0.3 + 1e-12
        assert rep.violation_fraction == pytest.approx(viol.mean())
        assert rep.availability == pytest.approx(1.0 - viol.mean())
        # No repairs -> the threshold detector at the budget *is* the
        # ground truth.
        det = rep.detector_stats["threshold"]
        assert det["precision"] == 1.0 and det["recall"] == 1.0
        assert det["firings"] == int(viol.sum())
        assert rep.mttr > 0 and np.isfinite(rep.mtbf)

    def test_no_repair_dominates_certified_mission_curve(
        self, sensitive_net, probes
    ):
        rate = 0.03
        rep = _campaign(
            sensitive_net,
            probes,
            [ComponentLifetimeProcess(rate)],
            epochs=30,
            n_replicas=48,
        )
        empirical = rep.survival_curve()
        for t, certified in mission_survival_curve(
            sensitive_net, rate, [0.0, 10.0, 20.0, 30.0], 0.5, 0.1
        ):
            assert empirical[int(t)] >= certified - 1e-12

    def test_rejuvenation_beats_no_repair(self, sensitive_net, probes):
        procs = lambda: [ComponentLifetimeProcess(0.06, shape=1.5)]
        base = _campaign(
            sensitive_net, probes, procs(), policy=NoRepairPolicy(),
            epochs=40, epsilon_prime=0.2,
        )
        rej = _campaign(
            sensitive_net, probes, procs(),
            policy=PeriodicRejuvenationPolicy(8, (1, 0)),
            epochs=40, epsilon_prime=0.2,
        )
        assert base.n_violation_episodes > 0
        assert rej.availability > base.availability
        assert rej.policy_stats["rejuvenations"] > 0
        assert rej.policy_stats["mean_boost_speedup"] > 1.0

    def test_repair_policy_reduces_mttr(self, sensitive_net, probes):
        procs = lambda: [ComponentLifetimeProcess(0.08)]
        base = _campaign(
            sensitive_net, probes, procs(), epochs=40,
            detectors=[ThresholdDetector(0.3)], epsilon_prime=0.2,
        )
        fixed = _campaign(
            sensitive_net, probes, procs(), epochs=40,
            detectors=[ThresholdDetector(0.3)], epsilon_prime=0.2,
            policy=DetectorRepairPolicy(latency=0, downtime=1),
            epochs_chunk=4,
        )
        assert fixed.policy_stats["repairs"] > 0
        assert fixed.downtime_fraction > 0
        assert fixed.mttr < base.mttr

    def test_spares_deplete_then_fleet_degrades(self, sensitive_net, probes):
        rep = _campaign(
            sensitive_net, probes, [ComponentLifetimeProcess(0.08)],
            epochs=40, n_replicas=8, epsilon_prime=0.2,
            detectors=[ThresholdDetector(0.3)],
            policy=SpareActivationPolicy(2, swap_latency=0),
            epochs_chunk=4,
        )
        assert rep.policy_stats["spares_used"] >= 1
        assert rep.policy_stats["spares_used"] <= 2

    def test_traffic_weighting_changes_availability(
        self, sensitive_net, probes
    ):
        rep = _campaign(
            sensitive_net, probes, [ComponentLifetimeProcess(0.08)],
            traffic=ParetoBurstyTraffic(100.0, alpha=1.5),
            epochs=30, keep_errors=True, epsilon_prime=0.2,
        )
        assert rep.requests is not None and rep.requests.shape == (30,)
        assert rep.violation_fraction > 0
        assert rep.weighted_availability != pytest.approx(rep.availability)

    def test_probe_modulation_path(self, sensitive_net, probes):
        rep = _campaign(
            sensitive_net, probes, [ComponentLifetimeProcess(0.08)],
            traffic=DiurnalTraffic(100.0, modulate_probes=True),
            epochs=16, keep_errors=True,
        )
        full = _campaign(
            sensitive_net, probes, [ComponentLifetimeProcess(0.08)],
            epochs=16, keep_errors=True,
        )
        # Same fault schedule; errors reduced over fewer probes can
        # only be <= the full-batch reduction.
        assert np.all(rep.errors <= full.errors + 1e-12)

    def test_validation(self, sensitive_net, probes):
        with pytest.raises(ValueError, match="epochs"):
            _campaign(
                sensitive_net, probes, [ComponentLifetimeProcess(0.1)],
                epochs=0,
            )
        with pytest.raises(ValueError, match="process"):
            _campaign(sensitive_net, probes, [])
        with pytest.raises(ValueError, match="unique"):
            _campaign(
                sensitive_net, probes, [ComponentLifetimeProcess(0.1)],
                detectors=[ThresholdDetector(0.1), ThresholdDetector(0.2)],
            )
        with pytest.raises(ValueError, match="triggers on detector"):
            _campaign(
                sensitive_net, probes, [ComponentLifetimeProcess(0.1)],
                detectors=[ThresholdDetector(0.1)],
                policy=DetectorRepairPolicy(detector="cusum"),
            )
        with pytest.raises(ValueError, match="needs at least one detector"):
            _campaign(
                sensitive_net, probes, [ComponentLifetimeProcess(0.1)],
                policy=DetectorRepairPolicy(),
            )


class TestRejuvenationInterplay:
    """The replication + boosting machinery the rejuvenation policy
    reuses: reset sets, makespan accounting, ensemble repair."""

    def test_reset_masks_match_simulate_boosted_run(self, sensitive_net):
        rng = np.random.default_rng(8)
        latency = LatencyModel.uniform_random(sensitive_net, rng=rng)
        tolerated = (2, 1)
        masks, base_t, boost_t = boosted_reset_masks(
            sensitive_net, latency, tolerated
        )
        result = simulate_boosted_run(
            sensitive_net, np.random.default_rng(0).random(2), latency,
            tolerated,
        )
        assert tuple(int(m.sum()) for m in masks) == result.resets_per_layer
        assert base_t == pytest.approx(result.baseline_makespan)
        assert boost_t == pytest.approx(result.boosted_makespan)
        assert base_t >= boost_t

    def test_reset_masks_reproduce_boosted_values(self, sensitive_net, probes):
        """Injecting the reset masks as crashes reproduces the boosted
        run's outputs — the policy's lowering is faithful."""
        rng = np.random.default_rng(9)
        latency = LatencyModel.uniform_random(sensitive_net, rng=rng)
        tolerated = (2, 1)
        masks, _, _ = boosted_reset_masks(sensitive_net, latency, tolerated)
        result = simulate_boosted_run(
            sensitive_net, probes, latency, tolerated
        )
        addresses = [
            NeuronAddress(l0 + 1, int(i))
            for l0, m in enumerate(masks)
            for i in np.nonzero(m)[0]
        ]
        injector = FaultInjector(
            sensitive_net, capacity=sensitive_net.output_bound
        )
        out = run_reference(injector, probes, crash_scenario(addresses))
        np.testing.assert_allclose(out, result.output_boosted)

    def test_boosted_reset_masks_validation(self, sensitive_net):
        latency = LatencyModel.constant(sensitive_net)
        with pytest.raises(ValueError, match="length"):
            boosted_reset_masks(sensitive_net, latency, (1,))
        with pytest.raises(ValueError, match="budget"):
            boosted_reset_masks(sensitive_net, latency, (12, 0))

    def test_rejuvenated_smr_fleet_recovers_the_vote(self, sensitive_net):
        """An SMR ensemble whose replicas degrade like a chaos fleet:
        within tolerance the vote holds; repair_all (the rejuvenation
        primitive at machine grain) restores an exact vote."""
        x = np.random.default_rng(1).random((4, 2))
        ensemble = ReplicatedEnsemble.of_copies(sensitive_net, 5)
        ensemble.crash_replica(0)
        ensemble.make_replica_byzantine(1, 9.0)
        assert ensemble.masks_current_failures()
        # The median vote tracks the reference despite the failures.
        assert ensemble.vote_error(x, sensitive_net) == pytest.approx(0.0)
        ensemble.repair_all()
        assert ensemble.num_faulty == 0
        np.testing.assert_allclose(
            ensemble.forward(x), sensitive_net.forward(x)
        )

    def test_rejuvenation_campaign_serial_equals_parallel(
        self, sensitive_net, probes
    ):
        """Seeded serial == parallel for the full rejuvenation loop
        (latency draws, reset masks, repair bookkeeping included)."""
        kw = dict(
            n_replicas=REPLICA_BLOCK + 7,
            policy=PeriodicRejuvenationPolicy(6, (2, 1)),
            epochs=20,
            keep_errors=True,
        )
        procs = lambda: [ComponentLifetimeProcess(0.06)]
        serial = _campaign(
            sensitive_net, probes, procs(), n_workers=0, **kw
        )
        parallel = _campaign(
            sensitive_net, probes, procs(), n_workers=2, **kw
        )
        assert np.array_equal(serial.errors, parallel.errors)
        assert serial.to_dict() == parallel.to_dict()


class TestRecommendedSpares:
    def test_monotone_in_horizon(self, sensitive_net):
        short = recommended_spares(sensitive_net, 32, 0.03, 5, 0.5, 0.1)
        long = recommended_spares(sensitive_net, 32, 0.03, 60, 0.5, 0.1)
        assert 0 <= short <= long <= 32

    def test_zero_rate_needs_no_spares(self, sensitive_net):
        assert recommended_spares(sensitive_net, 32, 0.0, 100, 0.5, 0.1) == 0
