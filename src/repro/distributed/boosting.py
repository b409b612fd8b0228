"""The Corollary-2 boosting scheme: fire after ``N - f`` signals.

Section V-B: "Each time a neuron receives a sufficient amount of
information from its preceding input layer, it sends a reset to the
slow neurons instead of waiting for their values and moves on with its
own computation, adopting value 0 for the slow neurons."  Corollary 2
quantifies "sufficient": if the crash distribution ``(f_l)`` satisfies
Theorem 3, waiting for only ``N_{l-1} - f_{l-1}`` signals preserves the
epsilon-approximation — because the un-waited-for neurons are
indistinguishable from crashes, which the bound already covers.

The simulation attaches a latency to every neuron.  In the *baseline*
regime each layer waits for its slowest producer; in the *boosted*
regime each consumer fires as soon as the per-layer quota of fastest
producers has delivered, resetting the stragglers (whose values read
0).  We report both the accuracy impact (bounded by Fep at ``(f_l)``)
and the latency saved — the scheme's entire point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.bounds import corollary2_required_signals
from ..core.fep import network_fep
from ..faults.scenarios import FailureScenario, crash_scenario
from ..faults.injector import FaultInjector
from ..network.model import FeedForwardNetwork, NeuronAddress

__all__ = [
    "LatencyModel",
    "BoostingResult",
    "boosted_reset_masks",
    "simulate_boosted_run",
    "boosting_report",
]


@dataclass
class LatencyModel:
    """Per-neuron compute latencies (arbitrary time units).

    ``latencies[l0][i]`` is the time neuron ``i`` of layer ``l0+1``
    needs between having its inputs and firing.  Factories provide the
    common cases.
    """

    latencies: List[np.ndarray]

    @classmethod
    def uniform_random(
        cls,
        network: FeedForwardNetwork,
        *,
        low: float = 1.0,
        high: float = 2.0,
        straggler_fraction: float = 0.1,
        straggler_scale: float = 10.0,
        rng: Optional[np.random.Generator] = None,
    ) -> "LatencyModel":
        """Uniform latencies with a fraction of heavy stragglers.

        The straggler population is what boosting is designed to mask:
        ``straggler_fraction`` of each layer runs ``straggler_scale``
        times slower.
        """
        if not 0 <= straggler_fraction <= 1:
            raise ValueError(f"straggler_fraction must be in [0,1]")
        rng = rng if rng is not None else np.random.default_rng()
        lat: List[np.ndarray] = []
        for n in network.layer_sizes:
            base = rng.uniform(low, high, size=n)
            n_slow = int(np.floor(straggler_fraction * n))
            if n_slow:
                slow = rng.choice(n, size=n_slow, replace=False)
                base[slow] *= straggler_scale
            lat.append(base)
        return cls(lat)

    @classmethod
    def constant(cls, network: FeedForwardNetwork, value: float = 1.0) -> "LatencyModel":
        return cls([np.full(n, float(value)) for n in network.layer_sizes])

    def validate(self, network: FeedForwardNetwork) -> "LatencyModel":
        if len(self.latencies) != network.depth:
            raise ValueError(
                f"latency model has {len(self.latencies)} layers, network "
                f"has {network.depth}"
            )
        for l0, (lat, n) in enumerate(zip(self.latencies, network.layer_sizes)):
            if lat.shape != (n,):
                raise ValueError(
                    f"layer {l0 + 1} latencies shape {lat.shape} != ({n},)"
                )
            if np.any(lat <= 0):
                raise ValueError("latencies must be positive")
        return self


@dataclass
class BoostingResult:
    """Outcome of one boosted run vs its synchronous baseline."""

    output_boosted: np.ndarray
    output_baseline: np.ndarray
    #: Completion time of each layer in the baseline (wait-for-all) regime.
    baseline_layer_times: tuple[float, ...]
    #: Completion time of each layer in the boosted regime.
    boosted_layer_times: tuple[float, ...]
    #: Neurons reset (treated as 0) per layer.
    resets_per_layer: tuple[int, ...]
    #: The analytic error bound for the implied crash distribution.
    error_bound: float

    @property
    def baseline_makespan(self) -> float:
        return self.baseline_layer_times[-1]

    @property
    def boosted_makespan(self) -> float:
        return self.boosted_layer_times[-1]

    @property
    def speedup(self) -> float:
        if self.boosted_makespan == 0:
            return float("inf")
        return self.baseline_makespan / self.boosted_makespan

    @property
    def observed_error(self) -> float:
        return float(np.max(np.abs(self.output_boosted - self.output_baseline)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BoostingResult(speedup={self.speedup:.2f}x, "
            f"resets={self.resets_per_layer}, err={self.observed_error:.4g} "
            f"<= bound {self.error_bound:.4g})"
        )


def _boosted_timing(
    network: FeedForwardNetwork,
    latency: LatencyModel,
    tolerated: Sequence[int],
) -> tuple[list, list, list]:
    """Layer completion times and reset sets for one latency draw.

    In the boosted regime each consumer fires once the ``N_l - f_l``
    fastest producers of layer ``l`` delivered; the remaining ``f_l``
    (chosen by the latency draw) are reset.  The baseline waits for the
    slowest producer instead.
    """
    baseline_times: list[float] = []
    boosted_times: list[float] = []
    reset_sets: list[np.ndarray] = []
    t_base = 0.0
    t_boost = 0.0
    for l0 in range(network.depth):
        lat = latency.latencies[l0]
        n = lat.size
        f = int(tolerated[l0])
        finish = t_boost + lat
        order = np.argsort(finish)
        quota = n - f
        # The consumer fires once the quota-th fastest producer delivered.
        t_boost = float(finish[order[quota - 1]])
        reset_sets.append(order[quota:])
        t_base = t_base + float(lat.max())
        baseline_times.append(t_base)
        boosted_times.append(t_boost)
    return baseline_times, boosted_times, reset_sets


def _validate_boost_args(
    network: FeedForwardNetwork,
    latency: LatencyModel,
    tolerated: Sequence[int],
) -> tuple[int, ...]:
    """Shared precondition check for the boosted-run entry points."""
    latency.validate(network)
    tolerated = tuple(int(f) for f in tolerated)
    if len(tolerated) != network.depth:
        raise ValueError(
            f"tolerated length {len(tolerated)} != depth {network.depth}"
        )
    for f, n in zip(tolerated, network.layer_sizes):
        if not 0 <= f < n:
            raise ValueError(f"straggler budget {tolerated} outside [0, N_l)")
    return tolerated


def boosted_reset_masks(
    network: FeedForwardNetwork,
    latency: LatencyModel,
    tolerated: Sequence[int],
) -> tuple[List[np.ndarray], float, float]:
    """Reset sets of one boosted run, as per-layer boolean masks.

    The mask-level face of :func:`simulate_boosted_run`: the same
    timing model picks which ``f_l`` stragglers each layer resets, but
    the result is returned as ``(reset_masks, baseline_makespan,
    boosted_makespan)`` — ``reset_masks[l0]`` is the ``(N_{l+1},)``
    boolean mask of neurons whose values read 0 during the boosted
    pass.  This is what the chaos subsystem's rejuvenation policy
    lowers straight onto the campaign engine's crash channel: a
    rejuvenating replica serves its restart epoch in boosted mode, the
    reset set *is* its fault mask for that epoch, and the makespans
    price the restart (Section V-B's latency accounting).
    """
    tolerated = _validate_boost_args(network, latency, tolerated)
    baseline_times, boosted_times, reset_sets = _boosted_timing(
        network, latency, tolerated
    )
    masks = []
    for n, resets in zip(network.layer_sizes, reset_sets):
        mask = np.zeros(n, dtype=bool)
        mask[resets] = True
        masks.append(mask)
    return masks, baseline_times[-1], boosted_times[-1]


def simulate_boosted_run(
    network: FeedForwardNetwork,
    x: np.ndarray,
    latency: LatencyModel,
    tolerated: Sequence[int],
) -> BoostingResult:
    """Run one input through the boosted protocol and its baseline.

    ``tolerated = (f_l)`` is the per-layer straggler budget; consumers
    of layer ``l`` fire after the fastest ``N_l - f_l`` producers of
    layer ``l`` have delivered, resetting the rest (their values read
    0, i.e. a crash of the slowest ``f_l`` — chosen *by the latency
    draw*, not adversarially).

    Timing model: layer ``l``'s neuron ``i`` fires at
    ``ready(l) + latency[l][i]`` where ``ready(l)`` is when its own
    quota was met; the baseline waits for the max instead of the
    quota-th order statistic.
    """
    tolerated = _validate_boost_args(network, latency, tolerated)

    baseline_times, boosted_times, reset_sets = _boosted_timing(
        network, latency, tolerated
    )

    # --- values ---------------------------------------------------------
    injector = FaultInjector(network, capacity=network.output_bound)
    addresses = [
        NeuronAddress(l0 + 1, int(i))
        for l0, resets in enumerate(reset_sets)
        for i in resets
    ]
    scenario = (
        crash_scenario(addresses, name="boosting-resets")
        if addresses
        else FailureScenario(name="boosting-none")
    )
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim == 1:
        xb = xb[None, :]
    out_boosted = injector.run(xb, scenario)
    out_baseline = network.forward(xb)

    bound = network_fep(network, tolerated, mode="crash")
    return BoostingResult(
        output_boosted=out_boosted,
        output_baseline=out_baseline,
        baseline_layer_times=tuple(baseline_times),
        boosted_layer_times=tuple(boosted_times),
        resets_per_layer=tuple(len(r) for r in reset_sets),
        error_bound=bound,
    )


def boosting_report(
    network: FeedForwardNetwork,
    x: np.ndarray,
    tolerated: Sequence[int],
    epsilon: float,
    epsilon_prime: float,
    *,
    n_trials: int = 20,
    straggler_fraction: float = 0.1,
    straggler_scale: float = 10.0,
    seed: int = 0,
) -> dict:
    """Aggregate boosting statistics over random latency draws.

    Validates the budget through Corollary 2 first (raises if the
    distribution is not tolerated), then reports mean/min speedup and
    the worst observed output deviation against the analytic bound.

    Timing is simulated per trial (cheap), but the value computation is
    batched: every trial's reset set becomes one row of a crash-mask
    batch, evaluated in a single sweep on the mask-native engine
    instead of ``n_trials`` scalar injector runs (see DESIGN.md).
    """
    from ..faults.masks import MaskCampaignEngine, empty_mask_batch

    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    quotas = corollary2_required_signals(network, tolerated, epsilon, epsilon_prime)
    rng = np.random.default_rng(seed)
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim == 1:
        xb = xb[None, :]

    speedups = []
    batch = empty_mask_batch(network.layer_sizes, n_trials)
    batch.names.extend(f"trial{t}" for t in range(n_trials))
    zero_masks = batch.zero_masks
    for t in range(n_trials):
        latency = LatencyModel.uniform_random(
            network,
            straggler_fraction=straggler_fraction,
            straggler_scale=straggler_scale,
            rng=rng,
        )
        baseline_times, boosted_times, reset_sets = _boosted_timing(
            network, latency, tolerated
        )
        boosted = boosted_times[-1]
        speedups.append(
            float("inf") if boosted == 0 else baseline_times[-1] / boosted
        )
        for l0, resets in enumerate(reset_sets):
            zero_masks[l0][t, resets] = True

    injector = FaultInjector(network, capacity=network.output_bound)
    engine = MaskCampaignEngine(injector, xb)
    outs = engine.outputs(batch)  # (n_trials, B, n_out)
    errors = np.abs(outs - engine.nominal[None]).max(axis=(1, 2))

    bound = network_fep(network, tolerated, mode="crash")
    return {
        "quotas": quotas,
        "mean_speedup": float(np.mean(speedups)),
        "min_speedup": float(np.min(speedups)),
        "max_observed_error": float(errors.max()),
        "error_bound": bound,
        "budget": epsilon - epsilon_prime,
        "n_trials": n_trials,
    }
