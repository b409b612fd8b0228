"""Fault-injection campaigns: Monte-Carlo and exhaustive sweeps.

A campaign evaluates the empirical output error of a network over many
failure scenarios — the "costly experiment ... facing a discouraging
combinatorial explosion" that the paper's analytic bounds replace.  We
make the experiment affordable enough to *validate* the bounds.  One
engine, the mask-native :mod:`repro.faults.masks`, evaluates every
campaign (see DESIGN.md); scenarios reach it two ways:

* **sampled masks** — scenarios are sampled, compiled and evaluated
  as array-level mask channels end to end.  The *entire* fault
  taxonomy routes here: static and stochastic neuron faults, synapse
  faults, and mixed populations;
* **the object path** — expressive :class:`FailureScenario` objects
  are lowered per chunk by ``compile_batch`` onto the same engine.

Either way chunking bounds peak memory (``chunk x batch x width``
floats), chunks can fan out over worker processes through the shared
block driver (:func:`~repro.faults.masks._run_blocks`), and stochastic
faults draw per-chunk RNG streams spawned from the campaign seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..network.model import FeedForwardNetwork
from .injector import FaultInjector
from .masks import (
    FixedDistributionSampler,
    FixedSynapseDistributionSampler,
    MaskCampaignEngine,
    MaskSampler,
    _concat,
    _run_blocks,
    exhaustive_crash_errors,
    sampled_campaign_errors,
)
from .scenarios import FailureScenario
from .types import CrashFault, FaultModel, SynapseFault

__all__ = [
    "CampaignResult",
    "run_campaign",
    "exhaustive_crash_campaign",
    "count_crash_configurations",
]


@dataclass
class CampaignResult:
    """Aggregated outcome of a fault-injection campaign.

    ``errors[s]`` is the output error (max over the input batch, max
    over outputs) of scenario ``s``.
    """

    errors: np.ndarray
    scenario_names: List[str] = field(default_factory=list)
    reduction: str = "max"
    #: Filled when the run used confidence-sequence early stopping or
    #: the stratified estimator (an ``AdaptiveReport`` /
    #: ``StratifiedReport`` from :mod:`repro.faults.adaptive`); None
    #: for plain fixed-size campaigns.
    adaptive: Optional[object] = None

    @property
    def num_scenarios(self) -> int:
        return int(self.errors.size)

    @property
    def max_error(self) -> float:
        return float(self.errors.max()) if self.errors.size else 0.0

    @property
    def mean_error(self) -> float:
        return float(self.errors.mean()) if self.errors.size else 0.0

    @property
    def worst_scenario(self) -> Optional[str]:
        if not self.errors.size:
            return None
        idx = int(np.argmax(self.errors))
        return self.scenario_names[idx] if self.scenario_names else str(idx)

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.errors, q)) if self.errors.size else 0.0

    def fraction_exceeding(self, threshold: float) -> float:
        """Fraction of scenarios whose error exceeds ``threshold`` —
        the empirical probability of breaking the epsilon guarantee."""
        if not self.errors.size:
            return 0.0
        return float(np.mean(self.errors > threshold))

    def merged_with(self, other: "CampaignResult") -> "CampaignResult":
        return CampaignResult(
            np.concatenate([self.errors, other.errors]),
            self.scenario_names + other.scenario_names,
            self.reduction,
        )

    def summary(self) -> str:
        return (
            f"CampaignResult(n={self.num_scenarios}, max={self.max_error:.6g}, "
            f"mean={self.mean_error:.6g}, p95={self.quantile(0.95):.6g})"
        )


def _chunks(iterable: Iterable, size: int) -> Iterator[list]:
    it = iter(iterable)
    while True:
        block = list(itertools.islice(it, size))
        if not block:
            return
        yield block


def _evaluate_chunk(engine: MaskCampaignEngine, shared, job) -> np.ndarray:
    """Block function: errors for one chunk of object scenarios.

    ``job`` is ``(size, scenarios, SeedSequence)``.  Scenarios lower
    through ``compile_batch`` (the whole fault taxonomy compiles to mask
    channels) and stream through the campaign engine.  The seed drives
    the stochastic draws: each chunk evaluates with a stream spawned
    off the campaign seed, so no two chunks replay the same noise.
    """
    _, chunk, seed = job
    batch = engine.injector.compile_batch(chunk)
    return engine.evaluate(batch, rng=np.random.default_rng(seed))


def run_campaign(
    injector: FaultInjector,
    x: np.ndarray,
    scenarios: Iterable[FailureScenario],
    *,
    chunk_size: int = 256,
    reduction: str = "max",
    n_workers: int = 0,
    keep_names: bool = True,
    seed: Optional[int] = 0,
) -> CampaignResult:
    """Evaluate every scenario's output error over the input batch.

    This is the object-scenario entry point — it accepts any
    :class:`FailureScenario`, including synapse and stochastic faults.
    Campaigns over sampled fault populations should prefer a
    :class:`repro.CampaignSpec` through ``repro.run`` (or
    :func:`exhaustive_crash_campaign`), which sample masks directly.

    Parameters
    ----------
    chunk_size:
        Scenarios per vectorised sweep; bounds peak memory at roughly
        ``chunk_size * len(x) * max_width`` float64s per layer.
    n_workers:
        ``0`` (default) runs in-process; ``> 1`` fans chunks out
        through the block driver (:func:`~repro.faults.masks._run_blocks`).
        Either way the scenario stream is consumed lazily, chunk by
        chunk.
    seed:
        Campaign seed for the stochastic faults: each chunk evaluates
        with an RNG spawned from this seed, so noise is independent
        across chunks yet reproducible (default 0 keeps repeated calls
        deterministic; pass ``None`` for fresh entropy).
    """
    names: List[str] = []
    seed_root = np.random.SeedSequence(seed)

    def jobs() -> Iterator[tuple]:
        for chunk in _chunks(scenarios, chunk_size):
            if keep_names:
                names.extend(sc.name for sc in chunk)
            yield len(chunk), chunk, seed_root.spawn(1)[0]

    # One engine for the whole campaign: weight casts, nominal pass and
    # chunk buffers are paid once, every chunk streams through.
    errors = _concat(_run_blocks(
        _evaluate_chunk, None, jobs(), injector, x, chunk_size=chunk_size,
        reduction=reduction, n_workers=n_workers,
    ))
    return CampaignResult(errors, names if keep_names else [], reduction)


def _monte_carlo_campaign(
    injector: FaultInjector,
    x: np.ndarray,
    distribution: Sequence[int],
    *,
    n_scenarios: int = 1000,
    fault: Optional[FaultModel] = None,
    sampler: Optional[MaskSampler] = None,
    seed: Optional[int] = None,
    chunk_size: int = 256,
    reduction: str = "max",
    n_workers: int = 0,
    dtype: "str | np.dtype" = np.float64,
) -> CampaignResult:
    """Random scenarios with a fixed per-layer distribution ``(f_l)``.

    This is the Figure-3 workload: hold the failure distribution fixed,
    sample which components fail, measure the output error.  The whole
    fault taxonomy runs end-to-end on the mask-native engine: neuron
    faults (crash / Byzantine / stuck-at / offset / sign-flip / noise /
    intermittent) sample per-layer mask channels, synapse faults
    (``distribution`` then has length ``L + 1``, the per-*stage* counts
    of Theorem 4) sample sparse weight-level channels.  Masks are drawn
    with vectorised RNG, evaluated in streamed chunks, and optionally
    fanned out over a fork-once worker pool that receives only chunk
    sizes and spawned seeds; stochastic faults realise their noise from
    the same per-block streams, so serial == parallel.

    ``sampler`` overrides the default samplers entirely (e.g. a
    :class:`~repro.faults.masks.MixedFaultSampler` drawing
    heterogeneous fault populations); ``distribution`` and ``fault``
    are then ignored.

    ``dtype=float32`` selects the fast evaluation path; the default
    float64 matches the scalar reference loop to float associativity.
    """
    if sampler is None:
        fault = fault if fault is not None else CrashFault()
        if isinstance(fault, SynapseFault):
            sampler = FixedSynapseDistributionSampler(
                injector.network, distribution, fault=fault
            )
        else:
            sampler = FixedDistributionSampler(
                injector.network, distribution, fault=fault
            )
    errors = sampled_campaign_errors(
        injector,
        x,
        sampler,
        n_scenarios,
        seed=seed,
        chunk_size=chunk_size,
        reduction=reduction,
        dtype=dtype,
        n_workers=n_workers,
    )
    return CampaignResult(errors, [], reduction)


def count_crash_configurations(network: FeedForwardNetwork, n_fail: int) -> int:
    """``C(num_neurons, n_fail)`` — the size of the exhaustive experiment.

    Quantifies the paper's "combinatorial explosion" argument; the
    exhaustive campaign refuses to run when this is too large.
    """
    return math.comb(network.num_neurons, n_fail)


def exhaustive_crash_campaign(
    injector: FaultInjector,
    x: np.ndarray,
    n_fail: int,
    *,
    chunk_size: int = 512,
    max_configurations: int = 2_000_000,
    reduction: str = "max",
    n_workers: int = 0,
    dtype: "str | np.dtype" = np.float64,
    engine=None,
    obs=None,
) -> CampaignResult:
    """Every configuration of exactly ``n_fail`` crashed neurons.

    Raises when the configuration count exceeds ``max_configurations``
    (by default 2e6) — the practical face of the paper's combinatorial
    explosion observation.  Within budget, the sweep is compiled to
    combination index arrays in bulk (no per-configuration Python
    objects) and streamed through the mask engine.

    ``engine`` reuses a prebuilt evaluation engine (any backend built
    for this injector and probe batch, in-process only); ``obs``
    records block spans and per-phase wall time, worker-safe.  Both,
    and the refusal, are those of
    :func:`~repro.faults.masks.exhaustive_crash_errors`.
    """
    errors = exhaustive_crash_errors(
        injector,
        x,
        n_fail,
        chunk_size=chunk_size,
        reduction=reduction,
        dtype=dtype,
        n_workers=n_workers,
        max_configurations=max_configurations,
        engine=engine,
        obs=obs,
    )
    return CampaignResult(errors, [], reduction)
