"""Adaptive sampling for campaign and survival runs.

Two estimators make the Monte-Carlo audits of the paper's claims
affordable at deployment scale (ROADMAP open item: sequential early
stopping + stratified/importance sampling over the tolerated lattice):

* **Anytime-valid confidence sequences** —
  :func:`adaptive_campaign_errors` streams the usual
  :data:`~repro.faults.masks.SAMPLE_BLOCK` scenario blocks and, at
  every block boundary, forms a confidence interval on the violation
  rate ``P[error > threshold]`` that is valid *simultaneously over all
  looks* (union bound: look ``k`` spends ``delta / (k (k+1))`` of the
  error budget, which sums to ``delta``).  The run stops at the first
  boundary where the two-sided width is ``<= target_ci``.  Because
  looks happen only on block boundaries in spawn order, the stop epoch
  is a pure function of the seed: serial and parallel runs stop after
  the *same* block and return bitwise-identical prefixes of the
  fixed-size campaign.

  Two half-widths are offered: ``hoeffding`` (variance-free,
  ``sqrt(log(2/d_k) / 2n)``) and ``empirical_bernstein`` (the
  Audibert–Munos–Szepessvári empirical-Bernstein bound for [0,1]
  variables, ``sqrt(2 V_n log(3/d_k) / n) + 3 log(3/d_k) / n``), which
  adapts to the observed variance ``V_n = p(1-p)`` and stops an order
  of magnitude earlier in the rare-event regime ``p -> 0``.

* **Stratified / importance estimation over fault-count shells** —
  :func:`stratified_violation_estimate` partitions the i.i.d. failure
  law by the *total* fault count: conditioned on ``sum F_j = k`` the
  failed set is a uniform ``k``-subset
  (:class:`~repro.faults.masks.TotalCountShellSampler`), and shell
  ``k`` carries binomial weight ``w_k = C(N,k) p^k (1-p)^(N-k)``.
  Shells whose *every* per-layer count distribution satisfies Theorem
  3 are certified violation-free and contribute exactly zero without a
  single sample; the remaining budget is allocated proportionally
  (exactly unbiased), by Neyman's rule (pilot-estimated ``w_k
  sigma_k``), or uniformly over the uncertified shells — the
  importance-weighted path that concentrates samples on the rare
  heavy-fault shells a plain Monte-Carlo campaign essentially never
  visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..obs.recorder import span_if
from .injector import FaultInjector
from .masks import (
    DEFAULT_CHUNK,
    SAMPLE_BLOCK,
    MaskCampaignEngine,
    MaskSampler,
    TotalCountShellSampler,
    _sampled_blocks,
    sampled_campaign_errors,
)
from .types import FaultModel

__all__ = [
    "STOPPING_METHODS",
    "confidence_sequence_interval",
    "hoeffding_fixed_n",
    "AdaptiveReport",
    "adaptive_campaign_errors",
    "StratifiedReport",
    "stratified_violation_estimate",
    "certified_zero_shells",
]

#: Confidence-sequence families (mirrors ``repro.specs.STOPPING_METHODS``
#: — the spec layer is pure data and must not be imported from here).
STOPPING_METHODS = ("hoeffding", "empirical_bernstein")


def _look_delta(delta: float, look: int) -> float:
    """Error budget spent at look ``k``: ``delta / (k (k+1))`` sums to
    ``delta`` over ``k = 1, 2, ...`` — an anytime union bound with no
    horizon."""
    return delta / (look * (look + 1.0))


def confidence_sequence_interval(
    method: str,
    n: int,
    violations: int,
    look: int,
    delta: float,
) -> Tuple[float, float]:
    """Two-sided CI on the violation rate, valid at the ``look``-th
    boundary of an anytime confidence sequence.

    ``hoeffding`` spends no variance knowledge; ``empirical_bernstein``
    plugs in the empirical variance ``p(1-p)`` (exact for indicator
    variables), whose half-width scales like ``sqrt(p)`` instead of a
    constant — the rare-event workhorse.  Both hold with probability
    ``>= 1 - delta`` simultaneously over every look.
    """
    if method not in STOPPING_METHODS:
        raise ValueError(
            f"method must be one of {STOPPING_METHODS}, got {method!r}"
        )
    if n < 1 or look < 1:
        return (0.0, 1.0)
    d = _look_delta(delta, look)
    phat = violations / n
    if method == "hoeffding":
        half = math.sqrt(math.log(2.0 / d) / (2.0 * n))
    else:
        var = phat * (1.0 - phat)
        log_term = math.log(3.0 / d)
        half = math.sqrt(2.0 * var * log_term / n) + 3.0 * log_term / n
    return (max(0.0, phat - half), min(1.0, phat + half))


def hoeffding_fixed_n(target_ci: float, delta: float) -> int:
    """The a-priori fixed-``n`` matching a Hoeffding CI of width
    ``target_ci`` at confidence ``1 - delta``: ``n = log(2/delta) /
    (2 (target_ci/2)^2)`` — the sample size a non-adaptive campaign
    must commit to before seeing a single scenario.  The benchmark's
    fixed-``S`` reference."""
    if not 0 < target_ci < 1:
        raise ValueError(f"target_ci must be in (0,1), got {target_ci}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return int(math.ceil(math.log(2.0 / delta) / (2.0 * (target_ci / 2.0) ** 2)))


@dataclass(frozen=True)
class AdaptiveReport:
    """What the confidence-sequence stopper did and what it certifies.

    ``[ci_low, ci_high]`` contains the true violation rate with
    probability ``>= 1 - delta`` (over the scenario sampling), no
    matter when the run stopped.  ``stopped`` is False when the cap
    ``n_cap`` ran out before the CI reached ``target_ci``.
    """

    method: str
    target_ci: float
    delta: float
    threshold: float
    n_scenarios: int
    n_cap: int
    looks: int
    stopped: bool
    violations: int
    estimate: float
    ci_low: float
    ci_high: float

    @property
    def ci_width(self) -> float:
        return self.ci_high - self.ci_low

    @property
    def savings_factor(self) -> float:
        """Scenarios saved against the cap: ``n_cap / n_scenarios``."""
        return self.n_cap / max(1, self.n_scenarios)


def adaptive_campaign_errors(
    injector: FaultInjector,
    x: np.ndarray,
    sampler: MaskSampler,
    n_scenarios: int,
    *,
    threshold: float,
    method: str = "hoeffding",
    target_ci: float = 0.05,
    delta: float = 0.05,
    min_scenarios: int = SAMPLE_BLOCK,
    tol: float = 0.0,
    seed: "int | np.random.SeedSequence | None" = None,
    chunk_size: int = DEFAULT_CHUNK,
    reduction: str = "max",
    dtype: "str | np.dtype" = np.float64,
    n_workers: int = 0,
    engine: "MaskCampaignEngine | None" = None,
    profile=None,
    obs=None,
) -> Tuple[np.ndarray, AdaptiveReport]:
    """Stream scenario blocks until the violation-rate CI is tight.

    The block layout, seeds and evaluation are *exactly* those of
    :func:`~repro.faults.masks.sampled_campaign_errors` with the same
    arguments — block ``c`` always draws from the ``c``-th spawned
    seed child — and the stop decision is the block driver's ``stop``
    callback (:func:`~repro.faults.masks._run_blocks`), taken in the
    parent at block boundaries in spawn order: the returned errors are
    a bitwise prefix of the fixed-``n_scenarios`` campaign on any
    worker count.

    ``threshold`` defines a violation as ``error > threshold + tol``
    (``tol=1e-12`` matches the survival path's budget comparison).
    ``min_scenarios`` floors the sample count before the first stop
    decision; ``n_scenarios`` stays the hard cap.

    ``profile`` and ``obs`` mirror :func:`sampled_campaign_errors`.
    The observer additionally records one ``adaptive-look`` event per
    stop decision (look number, scenarios seen, violations, CI bounds
    once past ``min_scenarios``) and publishes the final report's stop
    epoch and CI as gauges.
    """
    if method not in STOPPING_METHODS:
        raise ValueError(
            f"method must be one of {STOPPING_METHODS}, got {method!r}"
        )
    if not 0 < target_ci < 1:
        raise ValueError(f"target_ci must be in (0,1), got {target_ci}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if min_scenarios < 1:
        raise ValueError(f"min_scenarios must be >= 1, got {min_scenarios}")
    if n_scenarios < 1:
        raise ValueError(f"n_scenarios must be >= 1, got {n_scenarios}")
    sampler.check_network(injector.network)
    threshold = float(threshold)
    n_done = 0
    violations = 0
    looks = 0
    stopped = False

    def consume(block_errors: np.ndarray) -> bool:
        """The stop look: fold one block into the confidence sequence;
        True = stop.  The look events it records hold counts and
        count-derived CI bounds only, so they match serial vs parallel."""
        nonlocal n_done, violations, looks, stopped
        n_done += block_errors.size
        violations += int(np.sum(block_errors > threshold + tol))
        looks += 1
        done = False
        attrs = {"look": looks, "n": n_done, "violations": violations}
        if n_done >= min_scenarios:
            lo, hi = confidence_sequence_interval(
                method, n_done, violations, looks, delta
            )
            attrs["ci_low"] = lo
            attrs["ci_high"] = hi
            if hi - lo <= target_ci:
                stopped = True
                done = True
        if obs is not None:
            obs.event("adaptive-look", stopped=done, **attrs)
        return done

    pieces = _sampled_blocks(
        injector, x, sampler, n_scenarios, seed=seed, chunk_size=chunk_size,
        reduction=reduction, dtype=dtype, n_workers=n_workers, engine=engine,
        profile=profile, obs=obs, stop=consume,
    )
    errors = np.concatenate(pieces)
    lo, hi = confidence_sequence_interval(
        method, n_done, violations, looks, delta
    )
    report = AdaptiveReport(
        method=method,
        target_ci=float(target_ci),
        delta=float(delta),
        threshold=threshold,
        n_scenarios=n_done,
        n_cap=int(n_scenarios),
        looks=looks,
        stopped=stopped,
        violations=violations,
        estimate=violations / n_done,
        ci_low=lo,
        ci_high=hi,
    )
    if obs is not None:
        obs.record_adaptive(report)
    return errors, report


# ---------------------------------------------------------------------------
# Stratified / importance estimation over total-fault-count shells
# ---------------------------------------------------------------------------

ALLOCATION_KINDS = ("proportional", "neyman", "rare")


def certified_zero_shells(
    network,
    budget: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "crash",
    max_grid: int = 200_000,
) -> np.ndarray:
    """``(N+1,)`` bool: shell ``k`` has *zero* violation probability.

    Shell ``k`` is certified when **every** per-layer count
    distribution ``(f_l)`` with ``sum f_l = k`` satisfies Theorem 3
    (``Fep <= budget``) — then any placement and any mode-consistent
    behaviour keeps the error inside the budget, so the shell's
    violation rate is exactly 0 and the stratified estimator skips it
    without sampling.  Evaluated over the full count grid
    ``prod(N_l + 1)``; networks beyond ``max_grid`` points certify
    nothing (all-False) rather than guess.
    """
    from .reliability import _tolerated_mask

    sizes = network.layer_sizes
    total = int(sum(sizes))
    out = np.zeros(total + 1, dtype=bool)
    grid_size = int(np.prod([n + 1 for n in sizes]))
    if grid_size > max_grid:
        return out
    (ok,) = _tolerated_mask(network, budget, capacity=capacity, mode=mode)
    grids = np.meshgrid(*[np.arange(n + 1) for n in sizes], indexing="ij")
    totals = np.add.reduce([g.ravel() for g in grids])
    bad_per_shell = np.bincount(
        totals, weights=~ok.ravel(), minlength=total + 1
    )
    out[:] = bad_per_shell == 0
    return out


def _largest_remainder(
    targets: np.ndarray, budget: int, floor: int
) -> np.ndarray:
    """Integer allocation of ``budget`` proportional to ``targets``
    with a per-stratum ``floor`` — deterministic (largest remainder,
    ties to the lower index)."""
    m = targets.size
    floor_total = floor * m
    if budget < floor_total:
        raise ValueError(
            f"budget {budget} cannot give {m} strata {floor} scenarios each"
        )
    spread = budget - floor_total
    weights = targets / targets.sum() if targets.sum() > 0 else np.full(m, 1 / m)
    raw = weights * spread
    alloc = np.floor(raw).astype(int)
    remainder = spread - int(alloc.sum())
    if remainder > 0:
        order = np.argsort(-(raw - alloc), kind="stable")
        alloc[order[:remainder]] += 1
    return alloc + floor


@dataclass(frozen=True)
class StratifiedReport:
    """The stratified/importance estimate and its audit trail.

    ``estimate = sum_k w_k p_k`` over the sampled shells (certified
    shells contribute 0 exactly); ``variance`` is the stratified
    variance ``sum w_k^2 p_k (1 - p_k) / n_k``; ``[ci_low, ci_high]``
    is a rigorous fixed-``n`` bound: per-shell Hoeffding at
    ``delta / m`` recombined through the weights, plus nothing for the
    certified mass (its rate is exactly 0, not estimated).
    """

    estimate: float
    variance: float
    ci_low: float
    ci_high: float
    n_scenarios: int
    threshold: float
    delta: float
    allocation: str
    p_fail: float
    shells: Tuple[int, ...]
    weights: Tuple[float, ...]
    allocations: Tuple[int, ...]
    shell_rates: Tuple[float, ...]
    certified_shells: Tuple[int, ...]
    certified_mass: float
    skipped_mass: float = 0.0

    @property
    def std_error(self) -> float:
        return math.sqrt(self.variance)


def stratified_violation_estimate(
    injector: FaultInjector,
    x: np.ndarray,
    p_fail: float,
    n_scenarios: int,
    *,
    threshold: float,
    fault: Optional[FaultModel] = None,
    tol: float = 0.0,
    allocation: str = "proportional",
    pilot: int = 256,
    delta: float = 0.05,
    prune_mode: Optional[str] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    chunk_size: int = DEFAULT_CHUNK,
    reduction: str = "max",
    dtype: "str | np.dtype" = np.float64,
    engine: "MaskCampaignEngine | None" = None,
    max_grid: int = 200_000,
    profile=None,
    obs=None,
) -> StratifiedReport:
    """Estimate ``P[error > threshold]`` under i.i.d. ``p_fail`` failures
    by stratifying on the total fault count.

    The i.i.d. law factors exactly: ``P[violation] = sum_k w_k *
    P[violation | k faults]`` with ``w_k = Binomial(N, p_fail).pmf(k)``
    and the conditional law a uniform ``k``-subset
    (:class:`~repro.faults.masks.TotalCountShellSampler`).  The
    estimator samples each uncertified shell with its own spawned seed
    child (shell order is fixed, so results are deterministic and
    engine/backend agnostic) and recombines unbiasedly.

    ``prune_mode`` (``"crash"`` / ``"byzantine"``) switches on the
    Theorem-3 certificate of :func:`certified_zero_shells`: pass it
    only when ``threshold`` is the epsilon budget the certificate
    speaks about and the fault's emissions respect the capacity (the
    crash/Byzantine regimes of the paper).  ``allocation`` picks
    proportional (exactly unbiased — the test-oracle mode), Neyman
    (a ``pilot`` phase per shell estimates ``sigma_k``, the remaining
    budget goes ``∝ w_k sigma_k``; pilot and main draws are pooled), or
    ``rare`` (uniform over uncertified shells — the importance-weighted
    rare-event path).  Shells whose binomial weight underflows to zero
    are dropped with their (zero) mass recorded in ``skipped_mass``.

    ``profile`` / ``obs`` thread through the per-shell campaigns; the
    observer wraps each sampled shell in a ``shell`` span (attrs: the
    fault count ``k`` and draw count) around its block spans.
    """
    from scipy import stats as sps

    if not 0 <= p_fail <= 1:
        raise ValueError(f"p_fail must be in [0,1], got {p_fail}")
    if allocation not in ALLOCATION_KINDS:
        raise ValueError(
            f"allocation must be one of {ALLOCATION_KINDS}, got {allocation!r}"
        )
    if n_scenarios < 1:
        raise ValueError(f"n_scenarios must be >= 1, got {n_scenarios}")
    if pilot < 2:
        raise ValueError(f"pilot must be >= 2, got {pilot}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    network = injector.network
    sizes = network.layer_sizes
    total = int(sum(sizes))
    threshold = float(threshold)

    weights = sps.binom.pmf(np.arange(total + 1), total, p_fail)
    certified = np.zeros(total + 1, dtype=bool)
    if prune_mode is not None:
        certified = certified_zero_shells(
            network,
            threshold,
            capacity=injector.capacity if prune_mode == "byzantine" else None,
            mode=prune_mode,
            max_grid=max_grid,
        )
    active = np.nonzero((weights > 0.0) & ~certified)[0]
    certified_idx = np.nonzero((weights > 0.0) & certified)[0]
    certified_mass = float(weights[certified_idx].sum())
    skipped_mass = float(
        1.0 - weights[weights > 0.0].sum()
    )  # pmf underflow only
    if active.size == 0:
        # Everything certified: the estimate is exactly zero.
        return StratifiedReport(
            estimate=0.0,
            variance=0.0,
            ci_low=0.0,
            ci_high=0.0,
            n_scenarios=0,
            threshold=threshold,
            delta=float(delta),
            allocation=allocation,
            p_fail=float(p_fail),
            shells=(),
            weights=(),
            allocations=(),
            shell_rates=(),
            certified_shells=tuple(int(k) for k in certified_idx),
            certified_mass=certified_mass,
            skipped_mass=skipped_mass,
        )

    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    # Two children per shell, spawned up front in shell order: one for
    # the pilot/main draw, one for the Neyman top-up phase — the seed
    # layout never depends on the pilot's outcome.
    children = ss.spawn(2 * active.size)

    if engine is None:
        engine = MaskCampaignEngine(
            injector,
            x,
            chunk_size=min(int(chunk_size), SAMPLE_BLOCK),
            reduction=reduction,
            dtype=dtype,
        )

    w_active = weights[active]
    m = active.size
    floor = 2
    if allocation == "proportional":
        alloc = _largest_remainder(w_active, n_scenarios, floor)
        extra = np.zeros(m, dtype=int)
    elif allocation == "rare":
        alloc = _largest_remainder(np.full(m, 1.0), n_scenarios, floor)
        extra = np.zeros(m, dtype=int)
    else:  # neyman
        pilot_n = min(int(pilot), max(floor, n_scenarios // (2 * m)))
        pilot_n = max(floor, pilot_n)
        if pilot_n * m > n_scenarios:
            raise ValueError(
                f"budget {n_scenarios} cannot pilot {m} shells with "
                f"{pilot_n} scenarios each"
            )
        alloc = np.full(m, pilot_n, dtype=int)
        extra = None  # decided after the pilot

    def shell_errors(i: int, n: int, child) -> np.ndarray:
        shell_sampler = TotalCountShellSampler(
            sizes, int(active[i]), fault=fault
        )
        with span_if(obs, "shell", k=int(active[i]), n=int(n)):
            return sampled_campaign_errors(
                injector,
                x,
                shell_sampler,
                n,
                seed=child,
                chunk_size=engine.chunk_size,
                reduction=reduction,
                dtype=dtype,
                engine=engine,
                profile=profile,
                obs=obs,
            )

    per_shell = [shell_errors(i, int(alloc[i]), children[2 * i]) for i in range(m)]

    if allocation == "neyman":
        viols = np.array(
            [int(np.sum(e > threshold + tol)) for e in per_shell], dtype=float
        )
        ns = alloc.astype(float)
        # Laplace-smoothed sigma keeps zero-violation pilot shells
        # sampleable (sigma exactly 0 would starve them forever).
        p_smooth = (viols + 1.0) / (ns + 2.0)
        sigma = np.sqrt(p_smooth * (1.0 - p_smooth))
        remaining = n_scenarios - int(alloc.sum())
        extra = (
            _largest_remainder(w_active * sigma, remaining, 0)
            if remaining > 0
            else np.zeros(m, dtype=int)
        )
        for i in range(m):
            if extra[i] > 0:
                per_shell[i] = np.concatenate(
                    [per_shell[i], shell_errors(i, int(extra[i]), children[2 * i + 1])]
                )

    n_k = np.array([e.size for e in per_shell], dtype=int)
    viol_k = np.array(
        [int(np.sum(e > threshold + tol)) for e in per_shell], dtype=int
    )
    rates = viol_k / n_k
    estimate = float(np.dot(w_active, rates))
    variance = float(np.sum(w_active**2 * rates * (1.0 - rates) / n_k))
    # Rigorous recombined CI: per-shell fixed-n Hoeffding at delta/m.
    half_k = np.sqrt(np.log(2.0 * m / delta) / (2.0 * n_k))
    half = float(np.dot(w_active, half_k))
    return StratifiedReport(
        estimate=estimate,
        variance=variance,
        ci_low=max(0.0, estimate - half),
        ci_high=min(1.0, estimate + half),
        n_scenarios=int(n_k.sum()),
        threshold=threshold,
        delta=float(delta),
        allocation=allocation,
        p_fail=float(p_fail),
        shells=tuple(int(k) for k in active),
        weights=tuple(float(w) for w in w_active),
        allocations=tuple(int(n) for n in n_k),
        shell_rates=tuple(float(r) for r in rates),
        certified_shells=tuple(int(k) for k in certified_idx),
        certified_mass=certified_mass,
        skipped_mass=skipped_mass,
    )
