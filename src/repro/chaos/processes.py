"""Stochastic fault-arrival and lifetime processes.

Every campaign elsewhere in the repo is a *static snapshot*: sample S
i.i.d. scenarios, evaluate, aggregate.  The paper's deployment story
(Section V: survival over mission time, rejuvenation via boosting) is
temporal — faults *arrive* while the network serves traffic.  This
module provides the arrival side of that story: a
:class:`FaultProcess` advances the health state of a whole replica
fleet by one epoch at a time, emitting incremental mask updates that
:mod:`repro.chaos.deployment` accumulates and compiles for the
campaign engine.

Processes are **array-level**: one :meth:`~FaultProcess.step` call
mutates the fleet masks (per-layer ``(R, N_l)`` views of the flat
``(R, ΣN_l)`` channels) for all ``R`` replicas at once —
no per-replica or per-neuron Python in the epoch loop.  They are also
**deterministic**: every draw comes from the generator threaded in by
the campaign, and the draw shapes do not depend on worker count, so a
chaos run replays bitwise from its seed (serial == parallel).

The taxonomy mirrors the failure modes the paper and the
chaos-engineering literature care about:

* :class:`PoissonArrivalProcess` — memoryless arrivals per layer
  (``k ~ Poisson(rate)`` component hits per replica per epoch);
* :class:`ComponentLifetimeProcess` — per-component exponential or
  Weibull lifetimes.  With the default ``shape=1`` the cumulative
  failure probability after ``t`` epochs is exactly the
  ``1 - exp(-rate * t)`` of
  :func:`repro.faults.reliability.mission_survival_curve`, so the
  no-repair chaos campaign converges on the certified survival bound;
* :class:`TransientBurstProcess` — soft-error storms: a burst makes a
  random component subset *intermittent* for a few epochs, lowered
  onto the engine's ``gate_p`` channel;
* :class:`CorrelatedBlastProcess` — correlated layer blasts (a rack
  loss, a bad deploy): one event crashes a fraction of a single layer
  simultaneously.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .deployment import layer_columns

__all__ = [
    "FaultProcess",
    "PoissonArrivalProcess",
    "ComponentLifetimeProcess",
    "TransientBurstProcess",
    "CorrelatedBlastProcess",
]


def _per_layer(value, layer_sizes, name: str) -> tuple:
    """Broadcast a scalar (or validate a sequence) to one value per layer."""
    if np.isscalar(value):
        return tuple(float(value) for _ in layer_sizes)
    values = tuple(float(v) for v in value)
    if len(values) != len(layer_sizes):
        raise ValueError(
            f"{name} has {len(values)} entries for {len(layer_sizes)} layers"
        )
    return values


def _scatter_counted_hits(
    rng: np.random.Generator, counts: np.ndarray, width: int
) -> np.ndarray:
    """``(R, width)`` boolean hits with exactly ``counts[r]`` True per row.

    The varying-count sibling of the mask samplers' batched
    ``argpartition`` trick: rows share one uniform key draw, row ``r``
    takes the ``counts[r]`` smallest keys — a uniform random subset per
    row, one vectorised call for the whole fleet.
    """
    R = counts.shape[0]
    hits = np.zeros((R, width), dtype=bool)
    if not counts.any():
        return hits
    keys = rng.random((R, width))
    order = np.argsort(keys, axis=1)
    take = np.arange(width)[None, :] < counts[:, None]
    rows = np.broadcast_to(np.arange(R)[:, None], (R, width))
    hits[rows[take], order[take]] = True
    return hits


class FaultProcess:
    """Advances fleet health by one epoch; subclasses are picklable.

    Lifecycle: the campaign calls :meth:`reset` once per replica block
    (workers receive pickled copies and reset them too, so serial and
    parallel runs see identical state), then :meth:`step` once per
    epoch with the block's generator, and :meth:`on_repair` whenever a
    policy repairs replicas (so age- or burst-tracking state restarts
    with the replica).
    """

    def reset(self, n_replicas: int, layer_sizes: Sequence[int]) -> None:
        self.n_replicas = int(n_replicas)
        self.layer_sizes = tuple(int(n) for n in layer_sizes)

    def step(self, state, rng: np.random.Generator) -> None:
        """Mutate ``state`` (a :class:`repro.chaos.deployment.FleetState`)
        for the current epoch."""
        raise NotImplementedError

    def on_repair(self, state, replicas: np.ndarray) -> None:
        """Notification that ``replicas`` (boolean ``(R,)`` mask) were
        repaired; default: nothing to forget."""


class PoissonArrivalProcess(FaultProcess):
    """Memoryless fault arrivals: ``Poisson(rate_l)`` hits per layer/epoch.

    Each arrival crashes a uniformly random component of the layer
    (arrivals may land on already-dead components — a dead component
    stays dead, matching the superposition property of thinned Poisson
    streams).  ``rate`` is a scalar (shared by all layers) or one rate
    per layer.
    """

    def __init__(self, rate: "float | Sequence[float]" = 0.1):
        self.rate = rate

    def reset(self, n_replicas, layer_sizes):
        super().reset(n_replicas, layer_sizes)
        self.rates = _per_layer(self.rate, self.layer_sizes, "rate")
        if any(r < 0 for r in self.rates):
            raise ValueError(f"arrival rates must be >= 0, got {self.rates}")

    def step(self, state, rng):
        for l0, (n, rate) in enumerate(zip(self.layer_sizes, self.rates)):
            if rate == 0.0:
                continue
            counts = rng.poisson(rate, self.n_replicas)
            if counts.any():
                state.crash[l0] |= _scatter_counted_hits(rng, counts, n)


class ComponentLifetimeProcess(FaultProcess):
    """Per-component exponential (``shape=1``) or Weibull lifetimes.

    A component of age ``a`` (epochs since birth or last repair) fails
    during the next epoch with probability ``1 - exp(H(a) - H(a+dt))``
    where ``H(t) = (rate * t) ** shape`` is the cumulative hazard.  For
    ``shape=1`` this is the constant ``1 - exp(-rate * dt)`` — the
    discrete-time twin of ``mission_survival_curve``'s
    ``p(t) = 1 - exp(-rate * t)``: a never-repaired component is alive
    at epoch ``t`` with probability ``exp(-rate * dt * t)`` exactly.
    ``shape > 1`` models wear-out (rejuvenation's whole point),
    ``shape < 1`` infant mortality.
    """

    def __init__(self, rate: float, *, shape: float = 1.0, dt: float = 1.0):
        if rate < 0:
            raise ValueError(f"failure rate must be >= 0, got {rate}")
        if shape <= 0:
            raise ValueError(f"Weibull shape must be positive, got {shape}")
        if dt <= 0:
            raise ValueError(f"epoch duration dt must be positive, got {dt}")
        self.rate = float(rate)
        self.shape = float(shape)
        self.dt = float(dt)

    def reset(self, n_replicas, layer_sizes):
        super().reset(n_replicas, layer_sizes)
        # shape == 1: the hazard is constant, so is the failure chance.
        self._p_const = 1.0 - np.exp(-self.rate * self.dt)

    def step(self, state, rng):
        for l0, n in enumerate(self.layer_sizes):
            if self.shape == 1.0:
                p = self._p_const
            else:
                a = state.age[l0] * self.dt
                p = 1.0 - np.exp(
                    (self.rate * a) ** self.shape
                    - (self.rate * (a + self.dt)) ** self.shape
                )
            # Draw for every component (constant stream shape; the
            # already-crashed simply cannot fail twice).
            hits = rng.random((self.n_replicas, n)) < p
            state.crash[l0] |= hits


class TransientBurstProcess(FaultProcess):
    """Soft-error storms lowered onto the engine's ``gate_p`` channel.

    Each epoch a healthy replica enters a burst with probability
    ``burst_rate``; for the next ``duration`` epochs a random
    ``fraction`` of its components (drawn once, at burst start) become
    *intermittent*: they emit 0 with probability ``hit_p`` per
    evaluation — exactly the
    :class:`~repro.faults.types.IntermittentFault` semantics, realised
    by the engine's evaluation-time Bernoulli gates rather than by
    permanent mask bits.  Bursts end on their own; repairs also clear
    them.
    """

    def __init__(
        self,
        burst_rate: float = 0.05,
        *,
        duration: int = 3,
        fraction: float = 0.2,
        hit_p: float = 0.5,
    ):
        if not 0 <= burst_rate <= 1:
            raise ValueError(f"burst_rate must be in [0,1], got {burst_rate}")
        if duration < 1:
            raise ValueError(f"duration must be >= 1, got {duration}")
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0,1], got {fraction}")
        if not 0 <= hit_p <= 1:
            raise ValueError(f"hit_p must be in [0,1], got {hit_p}")
        self.burst_rate = float(burst_rate)
        self.duration = int(duration)
        self.fraction = float(fraction)
        self.hit_p = float(hit_p)

    def reset(self, n_replicas, layer_sizes):
        super().reset(n_replicas, layer_sizes)
        self.remaining = np.zeros(self.n_replicas, dtype=np.int64)
        # One flat (R, ΣN_l) mask, drawn per layer through its views and
        # armed on the fleet's flat transient channel in one call.
        self.affected_flat = np.zeros(
            (self.n_replicas, sum(self.layer_sizes)), dtype=bool
        )
        self.affected = layer_columns(self.affected_flat, self.layer_sizes)

    def step(self, state, rng):
        starts = (self.remaining == 0) & (
            rng.random(self.n_replicas) < self.burst_rate
        )
        # count_nonzero: on (R,)-sized masks a far cheaper test than any()
        k = np.count_nonzero(starts)
        if k:
            self.remaining[starts] = self.duration
            for l0, n in enumerate(self.layer_sizes):
                self.affected[l0][starts] = rng.random((k, n)) < self.fraction
        active = self.remaining > 0
        if np.count_nonzero(active):
            cells = self.affected_flat & active[:, None]
            state.set_transient(cells, self.hit_p)
            self.remaining -= active

    def on_repair(self, state, replicas):
        self.remaining[replicas] = 0
        self.affected_flat[replicas] = False


class CorrelatedBlastProcess(FaultProcess):
    """Correlated layer blasts: one event kills a slice of one layer.

    With probability ``rate`` per replica per epoch, a uniformly random
    layer loses a uniformly random ``fraction`` of its components at
    once — the rack-loss / bad-rollout failure mode that i.i.d.
    per-component models cannot produce.  Blasts are independent
    across replicas (the fleet analogue of independent availability
    zones).
    """

    def __init__(self, rate: float = 0.01, *, fraction: float = 0.5):
        if not 0 <= rate <= 1:
            raise ValueError(f"blast rate must be in [0,1], got {rate}")
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0,1], got {fraction}")
        self.rate = float(rate)
        self.fraction = float(fraction)

    def step(self, state, rng):
        R = self.n_replicas
        hit = rng.random(R) < self.rate
        # Layer choices are drawn for every replica so the stream shape
        # never depends on the hit pattern (deterministic replay).
        layers = rng.integers(0, len(self.layer_sizes), size=R)
        if not hit.any():
            return
        for l0, n in enumerate(self.layer_sizes):
            rows = hit & (layers == l0)
            if not rows.any():
                continue
            k = max(1, int(round(self.fraction * n)))
            counts = np.where(rows, k, 0)
            state.crash[l0] |= _scatter_counted_hits(rng, counts, n)
