"""Repair and mitigation policies: how a fleet heals.

Policies close the loop between the monitoring plane
(:mod:`repro.chaos.detectors`) and the fleet state
(:mod:`repro.chaos.deployment`).  The campaign calls
:meth:`~RepairPolicy.apply` at the start of every epoch (perform
repairs that have come due) and :meth:`~RepairPolicy.observe` after
every evaluated window (schedule new repairs from errors and detector
firings).  All repairs ripple to the fault processes and detectors,
so ages, burst timers and CUSUM statistics restart with the replica.

The menu covers the paper's Section-V deployment stories:

* :class:`NoRepairPolicy` — the mission-survival baseline: faults only
  accumulate, availability decays exactly like the certified
  mission-survival curve's lower bound;
* :class:`PeriodicRejuvenationPolicy` — software rejuvenation via the
  Corollary-2 boosting scheme: every ``period`` epochs a replica
  restarts fully repaired, and it serves its restart epoch in *boosted
  mode* — the reset stragglers of one
  :func:`~repro.distributed.boosting.boosted_reset_masks` draw become
  that epoch's crash mask, so the rejuvenation cost is a bounded,
  Fep-priced error blip rather than downtime.  The period is the
  boosting trade-off knob the `exp_chaos_rejuvenation` experiment
  sweeps;
* :class:`DetectorRepairPolicy` — closed-loop repair: when a detector
  fires, schedule a full repair ``latency`` epochs later and pay
  ``downtime`` epochs out of service (the MTTR the SLO report prices);
* :class:`SpareActivationPolicy` — over-provisioning at fleet grain: a
  pool of warm spares absorbs detector firings with a fast swap until
  the pool is dry, after which the fleet degrades like no-repair.
  :func:`recommended_spares` sizes the pool from the certified
  survival bound, the fleet-level twin of Corollary 1's neuron-level
  over-provisioning.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..distributed.boosting import LatencyModel, boosted_reset_masks
from ..faults.injector import block_slices
from ..faults.reliability import certified_survival_probability
from ..network.model import FeedForwardNetwork
from .deployment import ReplicaStreams

__all__ = [
    "RepairPolicy",
    "NoRepairPolicy",
    "PeriodicRejuvenationPolicy",
    "DetectorRepairPolicy",
    "SpareActivationPolicy",
    "recommended_spares",
]


class RepairPolicy:
    """Base policy; subclasses are picklable and reset per fleet.

    A fleet may hold several replica blocks (``block_sizes`` at
    :meth:`reset`; default one block): the policy acts on the whole
    fleet at once, keeps any per-block resource (the spare pool) per
    block, and reports one stats dict per block (:meth:`block_stats`),
    each exactly what a fleet of that block alone would report.
    """

    name = "policy"
    #: Closed-loop policies cap the campaign's evaluation window:
    #: detection/repair scheduling happens at window granularity, so a
    #: window swallowing the whole mission would mean repairs never
    #: land.  ``None`` = any window is fine (open-loop policies).
    suggested_window: "int | None" = None

    def reset(
        self,
        network: FeedForwardNetwork,
        n_replicas: int,
        block_sizes: "tuple | None" = None,
    ) -> None:
        self.network = network
        self.n_replicas = int(n_replicas)
        self.blocks = block_slices(
            block_sizes if block_sizes is not None else (self.n_replicas,)
        )
        self.repairs = np.zeros(self.n_replicas, dtype=np.int64)

    def apply(self, state, processes, detectors, rng) -> None:
        """Start-of-epoch hook: perform repairs that are due."""

    def observe(self, state, errors, firings, first_epoch: int) -> None:
        """End-of-window hook: ``errors`` and ``firings`` are ``(W, R)``
        grids for epochs ``first_epoch..first_epoch + W - 1``."""

    def block_stats(self) -> list:
        """Aggregate counters for the SLO report, one dict per block."""
        return [
            {"repairs": int(self.repairs[rows].sum())} for rows in self.blocks
        ]

    # -- shared plumbing ---------------------------------------------------

    def _full_repair(self, state, processes, detectors, replicas) -> None:
        """Repair ``replicas`` everywhere: fleet masks + ages, process
        state (burst timers), detector state (CUSUM sums, alarms)."""
        if not np.count_nonzero(replicas):
            return
        state.repair(replicas)
        for proc in processes:
            proc.on_repair(state, replicas)
        for det in detectors:
            det.on_repair(replicas, state.epoch)
        self.repairs += replicas


class NoRepairPolicy(RepairPolicy):
    """Faults accumulate forever — the mission-survival baseline."""

    name = "none"


class PeriodicRejuvenationPolicy(RepairPolicy):
    """Rejuvenate every ``period`` epochs through a boosted restart.

    At each rejuvenation epoch every replica is fully repaired and
    serves that epoch in boosted mode: a fresh latency draw (the
    straggler population restarting processes exhibit) picks the
    ``tolerated[l]`` slowest producers per layer, and their reset set
    — via :func:`~repro.distributed.boosting.boosted_reset_masks` —
    is the replica's crash mask for the restart epoch.  Corollary 2
    bounds the blip by ``Fep(tolerated)``; the recorded makespans
    price the latency the boost saved versus waiting for stragglers.
    """

    name = "rejuvenate"

    def __init__(
        self,
        period: int,
        tolerated,
        *,
        straggler_fraction: float = 0.1,
        straggler_scale: float = 10.0,
    ):
        if period < 1:
            raise ValueError(f"rejuvenation period must be >= 1, got {period}")
        self.period = int(period)
        self.tolerated = tuple(int(f) for f in tolerated)
        self.straggler_fraction = float(straggler_fraction)
        self.straggler_scale = float(straggler_scale)

    def reset(self, network, n_replicas, block_sizes=None):
        super().reset(network, n_replicas, block_sizes)
        if len(self.tolerated) != network.depth:
            raise ValueError(
                f"tolerated length {len(self.tolerated)} != depth "
                f"{network.depth}"
            )
        self.n_rejuvenations = 0
        self.speedups: list = []  # one (R,) array per rejuvenation

    def apply(self, state, processes, detectors, rng):
        if state.epoch == 0 or state.epoch % self.period != 0:
            return
        everyone = np.ones(self.n_replicas, dtype=bool)
        self._full_repair(state, processes, detectors, everyone)
        # Per-replica loop, deliberately: each replica's restart needs
        # an independent latency draw from its block's generator, and
        # rejuvenation epochs are rare (one in `period`) — this is
        # process-side bookkeeping, not the per-scenario hot loop,
        # which stays on the streamed engine.
        speedups = np.empty(self.n_replicas)
        for g, rows in ReplicaStreams.of(rng, self.n_replicas).blocks():
            for r in range(rows.start, rows.stop):
                latency = LatencyModel.uniform_random(
                    self.network,
                    straggler_fraction=self.straggler_fraction,
                    straggler_scale=self.straggler_scale,
                    rng=g,
                )
                masks, base_t, boost_t = boosted_reset_masks(
                    self.network, latency, self.tolerated
                )
                state.set_resets(r, masks)
                speedups[r] = base_t / boost_t if boost_t else float("inf")
        self.speedups.append(speedups)
        self.n_rejuvenations += 1

    def block_stats(self):
        return [
            {
                "repairs": int(self.repairs[rows].sum()),
                "rejuvenations": self.n_rejuvenations,
                "mean_boost_speedup": (
                    float(np.mean(np.concatenate(
                        [s[rows] for s in self.speedups]
                    )))
                    if self.speedups else None
                ),
            }
            for rows in self.blocks
        ]


class DetectorRepairPolicy(RepairPolicy):
    """Repair a replica ``latency`` epochs after a detector fires.

    ``detector`` names which detector's firings trigger repairs
    (default: any).  A triggered replica is repaired at
    ``firing epoch + 1 + latency`` and is out of service for
    ``downtime`` epochs from the repair — the MTTR the report prices.
    At most one repair is in flight per replica.
    """

    name = "repair"
    suggested_window = 8

    def __init__(
        self,
        latency: int = 2,
        *,
        downtime: int = 1,
        detector: Optional[str] = None,
    ):
        if latency < 0:
            raise ValueError(f"repair latency must be >= 0, got {latency}")
        if downtime < 0:
            raise ValueError(f"downtime must be >= 0, got {downtime}")
        self.latency = int(latency)
        self.downtime = int(downtime)
        self.detector = detector

    def reset(self, network, n_replicas, block_sizes=None):
        super().reset(network, n_replicas, block_sizes)
        self.pending = np.full(n_replicas, -1, dtype=np.int64)

    def _trigger_grid(self, firings: dict) -> np.ndarray:
        if self.detector is not None:
            if self.detector not in firings:
                raise KeyError(
                    f"policy wants detector {self.detector!r}; campaign "
                    f"ran {sorted(firings)}"
                )
            return firings[self.detector]
        grids = list(firings.values())
        out = np.zeros(grids[0].shape, dtype=bool) if grids else None
        for g in grids:
            out |= g
        return out

    def observe(self, state, errors, firings, first_epoch):
        grid = self._trigger_grid(firings)
        if grid is None or not grid.any():
            return
        fired_any = grid.any(axis=0)
        first_fire = np.where(fired_any, grid.argmax(axis=0), 0)
        due = first_epoch + first_fire + 1 + self.latency
        # Windowed evaluation cannot repair the past: a repair that
        # came due inside the just-evaluated window lands on the next
        # epoch instead (monitoring-granularity latency).
        due = np.maximum(due, first_epoch + grid.shape[0])
        schedule = fired_any & (self.pending < 0)
        self.pending[schedule] = due[schedule]

    def apply(self, state, processes, detectors, rng):
        due = self.pending == state.epoch
        # count_nonzero: on (R,)-sized masks a far cheaper test than any()
        if not np.count_nonzero(due):
            return
        self._full_repair(state, processes, detectors, due)
        state.down_until[due] = state.epoch + self.downtime
        self.pending[due] = -1


class SpareActivationPolicy(DetectorRepairPolicy):
    """Swap fired replicas for warm spares while the pool lasts.

    Identical trigger plumbing to :class:`DetectorRepairPolicy`, but
    each repair consumes one spare from a pool of ``n_spares`` and
    completes after ``swap_latency`` epochs with no downtime (the
    spare was already warm).  When the pool runs dry the fleet is on
    its own — scheduled swaps still waiting are cancelled.

    The pool is provisioned per replica *block*
    (:data:`~repro.chaos.campaign.REPLICA_BLOCK` replicas share
    ``n_spares`` spares) — availability-zone-local spares, which is
    also what keeps blocks independent and the campaign's serial and
    parallel paths bitwise identical.  :func:`recommended_spares`
    sizes the pool from the certified survival bound.
    """

    name = "spare"

    def __init__(
        self,
        n_spares: int,
        *,
        swap_latency: int = 1,
        detector: Optional[str] = None,
    ):
        super().__init__(swap_latency, downtime=0, detector=detector)
        if n_spares < 0:
            raise ValueError(f"n_spares must be >= 0, got {n_spares}")
        self.n_spares = int(n_spares)

    def reset(self, network, n_replicas, block_sizes=None):
        super().reset(network, n_replicas, block_sizes)
        self.spares_left = [self.n_spares] * len(self.blocks)

    def apply(self, state, processes, detectors, rng):
        due = self.pending == state.epoch
        if not np.count_nonzero(due):
            return
        # Each block swaps its lowest due replicas from its own pool.
        swap = np.zeros(self.n_replicas, dtype=bool)
        for b, rows in enumerate(self.blocks):
            idx = np.flatnonzero(due[rows])[: self.spares_left[b]]
            swap[idx + rows.start] = True
            self.spares_left[b] -= idx.size
        self._full_repair(state, processes, detectors, swap)
        self.pending[due] = -1  # dry pool: cancelled, not retried

    def block_stats(self):
        return [
            {
                "repairs": int(self.repairs[rows].sum()),
                "spares_used": self.n_spares - left,
                "spares_left": left,
            }
            for rows, left in zip(self.blocks, self.spares_left)
        ]


def recommended_spares(
    network: FeedForwardNetwork,
    n_replicas: int,
    failure_rate: float,
    horizon_epochs: int,
    epsilon: float,
    epsilon_prime: float,
    *,
    target_availability: float = 0.99,
    dt: float = 1.0,
    capacity: Optional[float] = None,
    mode: str = "crash",
) -> int:
    """Spare-pool size from the certified survival bound.

    The fleet-level face of Corollary-1 over-provisioning: with
    exponential component lifetimes, each replica independently loses
    its certificate by the horizon with probability at least ``q = 1 -
    certified_survival(p(horizon))``.  Expecting ``n_replicas * q``
    losses, the pool is sized to the smallest count whose expected
    shortfall keeps fleet availability at ``target_availability``
    (conservative: every loss consumes one spare).

    The returned count is *fleet-wide*;
    :class:`SpareActivationPolicy` provisions its pool per
    :data:`~repro.chaos.campaign.REPLICA_BLOCK`-replica block, so
    deploy ``ceil(k * REPLICA_BLOCK / n_replicas)`` spares per block
    to realise a fleet-wide pool of ``k``.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    if horizon_epochs < 0:
        raise ValueError(
            f"horizon_epochs must be >= 0, got {horizon_epochs}"
        )
    if not 0 < target_availability <= 1:
        raise ValueError(
            f"target_availability must be in (0,1], got {target_availability}"
        )
    p = 1.0 - float(np.exp(-failure_rate * horizon_epochs * dt))
    survive = certified_survival_probability(
        network, p, epsilon, epsilon_prime, capacity=capacity, mode=mode
    )
    q = 1.0 - survive
    from scipy import stats as sps

    # Smallest k with P[Binomial(R, q) <= k] >= target.
    k = int(sps.binom.ppf(target_availability, n_replicas, q))
    return max(0, k)
