"""Probabilistic reliability analysis on top of the worst-case bounds.

The paper's theorems are adversarial: *any* placement of ``(f_l)``
failures is absorbed.  A deployment engineer usually asks the dual
question: *if every neuron fails independently with probability ``p``
(per mission), what is the probability the epsilon-guarantee
survives?*  Because Theorem 3's condition depends only on the per-layer
*counts* — not on which neurons fail — the survival event contains the
event ``{(F_1..F_L) is a tolerated distribution}`` where ``F_l ~
Binomial(N_l, p)`` independently.  This module computes that lower
bound exactly (dynamic programming over the per-layer count
distributions), plus Monte-Carlo estimates of the *actual* survival
probability (which can only be higher: untolerated counts may still
land on harmless neurons), and mission-time curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import stats as sps

from ..core.fep import fep_many
from ..network.model import FeedForwardNetwork
from .injector import FaultInjector
from .masks import (
    BernoulliSampler,
    MaskCampaignEngine,
    SynapseBernoulliSampler,
    empty_mask_batch,
    sampled_campaign_errors,
)
from .types import CrashFault, FaultModel, IntermittentFault, SynapseFault

__all__ = [
    "certified_survival_probability",
    "ReliabilityEstimate",
    "monte_carlo_survival",
    "mission_survival_curve",
    "mean_failures_to_violation",
]


def _tolerated_mask(
    network: FeedForwardNetwork,
    budget: float,
    *,
    capacity: Optional[float],
    mode: str,
) -> list[np.ndarray]:
    """Tolerance mask over the joint count grid.

    The Theorem-3 condition couples the layers (the ``(N_l - f_l)``
    products), so no per-layer marginal exists; the mask has shape
    ``(N_1+1, ..., N_L+1)``.
    """
    from ..core.fep import _network_capacity

    c = _network_capacity(network, capacity, mode)
    sizes = network.layer_sizes
    grids = np.meshgrid(*[np.arange(n + 1) for n in sizes], indexing="ij")
    counts = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    # f_l = N_l is never tolerated (Theorem 3 needs f_l < N_l); clamp for
    # the Fep evaluation and mark those rows invalid.
    valid = np.all(counts < np.asarray(sizes)[None, :], axis=1)
    clamped = np.minimum(counts, np.asarray(sizes, dtype=np.float64) - 1)
    feps = fep_many(
        clamped, sizes, network.weight_maxes(), network.lipschitz_constant, c
    )
    ok = valid & (feps <= budget + 1e-12)
    return [ok.reshape([n + 1 for n in sizes])]


def certified_survival_probability(
    network: FeedForwardNetwork,
    p_fail: float,
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "crash",
    max_grid: int = 2_000_000,
) -> float:
    """Exact lower bound on P[epsilon-guarantee survives].

    ``P[ (F_1..F_L) tolerated ]`` with ``F_l ~ Binomial(N_l, p_fail)``
    independent — a *certified* survival probability: whenever the
    counts are tolerated, Theorem 3 guarantees survival for any
    placement and any (mode-consistent) faulty behaviour.

    The computation enumerates the count grid ``prod(N_l + 1)`` and
    weighs it by the product of binomial pmfs; refuses above
    ``max_grid`` points.
    """
    if not 0 <= p_fail <= 1:
        raise ValueError(f"p_fail must be in [0,1], got {p_fail}")
    if not (0 < epsilon_prime <= epsilon):
        raise ValueError("need 0 < epsilon_prime <= epsilon")
    sizes = network.layer_sizes
    grid_size = int(np.prod([n + 1 for n in sizes]))
    if grid_size > max_grid:
        raise ValueError(
            f"count grid has {grid_size} points (> {max_grid}); use "
            "monte_carlo_survival instead"
        )
    budget = epsilon - epsilon_prime
    (ok,) = _tolerated_mask(network, budget, capacity=capacity, mode=mode)
    # Tensor-contract the independent binomial pmfs against the mask.
    weights = [sps.binom.pmf(np.arange(n + 1), n, p_fail) for n in sizes]
    weighted = ok.astype(np.float64)
    for axis, w in enumerate(weights):
        shape = [1] * len(sizes)
        shape[axis] = len(w)
        weighted = weighted * w.reshape(shape)
    return float(weighted.sum())


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Monte-Carlo survival estimate with a CI."""

    survival: float
    ci_low: float
    ci_high: float
    n_trials: int
    certified_lower_bound: Optional[float] = None
    #: The ``AdaptiveReport`` / ``StratifiedReport`` when the run used
    #: confidence-sequence stopping or the stratified estimator
    #: (:mod:`repro.faults.adaptive`); None for plain fixed-``n`` runs.
    adaptive: Optional[object] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        certified = (
            f", certified>={self.certified_lower_bound:.4f}"
            if self.certified_lower_bound is not None
            else ""
        )
        return (
            f"ReliabilityEstimate({self.survival:.4f} "
            f"[{self.ci_low:.4f}, {self.ci_high:.4f}], "
            f"n={self.n_trials}{certified})"
        )


def monte_carlo_survival(
    network: FeedForwardNetwork,
    p_fail: float,
    epsilon: float,
    epsilon_prime: float,
    x: np.ndarray,
    *,
    fault: Optional[FaultModel] = None,
    capacity: Optional[float] = None,
    n_trials: int = 500,
    seed: Optional[int] = 0,
    confidence: float = 0.95,
    engine: "MaskCampaignEngine | None" = None,
    stopping=None,
    profile=None,
    obs=None,
) -> ReliabilityEstimate:
    """Estimate the *actual* survival probability by injection.

    Each trial fails every component independently with ``p_fail``
    (Bernoulli), injects, and checks the output error over the probe
    batch against the budget.  Reports a Wilson interval and, when the
    count grid is affordable, attaches the certified lower bound —
    the Monte-Carlo estimate must dominate it.

    Every fault model evaluates on the mask-native engine: neuron
    faults (including stochastic ones — transient/intermittent crashes,
    Gaussian noise) Bernoulli-sample neurons, synapse faults Bernoulli-
    sample the physical synapses (per-mission synapse reliability, the
    Theorem-4 granularity).  Callers sweeping a grid of ``p_fail``
    values over the same network and probe batch (survival curves)
    should build one :class:`~repro.faults.masks.MaskCampaignEngine`
    and pass it as ``engine`` — the weight casts, nominal forward pass
    and buffers are then paid once for the whole sweep instead of once
    per grid point.

    ``stopping`` (a :class:`repro.specs.StoppingSpec` or anything with
    its fields) switches the trial loop to the adaptive layer
    (:mod:`repro.faults.adaptive`): with ``stratify=False`` a
    confidence sequence streams trial blocks and stops once the CI on
    the violation rate ``P[error > budget]`` is inside ``target_ci``
    (``n_trials`` becomes the cap, and the evaluated trials are a
    bitwise prefix of the fixed-``n_trials`` run); with
    ``stratify=True`` the budget is allocated over total-fault-count
    shells with Theorem-3-certified shells skipped outright.  Either
    way the reported interval is the adaptive one (anytime-valid /
    recombined Hoeffding, at level ``1 - stopping.delta``) rather than
    the Wilson interval, and the full report rides on
    ``ReliabilityEstimate.adaptive``.  ``stopping.threshold`` defaults
    to the budget ``epsilon - epsilon_prime``.

    ``profile`` (per-phase wall time) and ``obs`` (span trace +
    metrics) thread straight through to the campaign engines — see
    :func:`~repro.faults.masks.sampled_campaign_errors`.
    """
    if not 0 <= p_fail <= 1:
        raise ValueError(f"p_fail must be in [0,1], got {p_fail}")
    budget = epsilon - epsilon_prime
    fault = fault if fault is not None else CrashFault()
    # An intermittent fault behaves like its wrapped fault where it
    # hits; capacity defaults and the certificate mode follow the
    # innermost model.
    effective = fault
    while isinstance(effective, IntermittentFault):
        effective = effective.fault
    if capacity is None and isinstance(effective, CrashFault):
        injector_capacity: Optional[float] = network.output_bound
    else:
        injector_capacity = capacity
    if engine is not None:
        # The engine carries its own injector, probe batch and dtype —
        # a mismatch with the explicit arguments would silently
        # evaluate the wrong model, inputs, or fault magnitude.  (The
        # probe batch itself is validated in sampled_campaign_errors.)
        if engine.network is not network:
            raise ValueError(
                "engine was built for a different network than the one "
                "passed to monte_carlo_survival"
            )
        if engine.capacity != injector_capacity:
            raise ValueError(
                f"engine capacity {engine.capacity} != effective "
                f"campaign capacity {injector_capacity}"
            )
        injector = engine.injector
    else:
        injector = FaultInjector(network, capacity=injector_capacity)

    if isinstance(fault, SynapseFault):
        sampler: BernoulliSampler | SynapseBernoulliSampler = (
            SynapseBernoulliSampler(network, p_fail, fault=fault)
        )
    else:
        sampler = BernoulliSampler(network, p_fail, fault=fault)
    adaptive_report = None
    if stopping is None:
        errors = sampled_campaign_errors(
            injector, x, sampler, n_trials, seed=seed, engine=engine,
            profile=profile, obs=obs,
        )
        survived = int(np.sum(errors <= budget + 1e-12))
        estimate = survived / n_trials
        n_used = n_trials
        lo, hi = _wilson_interval(survived, n_trials, confidence)
    else:
        from .adaptive import (
            adaptive_campaign_errors,
            stratified_violation_estimate,
        )

        threshold = (
            budget if stopping.threshold is None else stopping.threshold
        )
        if stopping.stratify:
            if isinstance(fault, SynapseFault):
                raise ValueError(
                    "stratified stopping is count-shell based and does "
                    "not apply to synapse faults"
                )
            mode = (
                "crash" if isinstance(effective, CrashFault) else "byzantine"
            )
            adaptive_report = stratified_violation_estimate(
                injector,
                x,
                p_fail,
                n_trials,
                threshold=threshold,
                fault=fault,
                tol=1e-12,
                allocation=stopping.allocation,
                pilot=stopping.pilot,
                delta=stopping.delta,
                prune_mode=mode,
                seed=seed,
                engine=engine,
                profile=profile,
                obs=obs,
            )
        else:
            _, adaptive_report = adaptive_campaign_errors(
                injector,
                x,
                sampler,
                n_trials,
                threshold=threshold,
                method=stopping.method,
                target_ci=stopping.target_ci,
                delta=stopping.delta,
                min_scenarios=stopping.min_scenarios,
                tol=1e-12,
                seed=seed,
                engine=engine,
                profile=profile,
                obs=obs,
            )
        # Survival = 1 - violation rate; the CI flips accordingly.
        estimate = 1.0 - adaptive_report.estimate
        n_used = adaptive_report.n_scenarios
        lo = 1.0 - adaptive_report.ci_high
        hi = 1.0 - adaptive_report.ci_low

    certified = None
    grid_size = int(np.prod([n + 1 for n in network.layer_sizes]))
    # The count-grid certificate speaks about neuron failure counts
    # (Theorem 3); synapse-grained campaigns have no such bound here.
    if grid_size <= 200_000 and not isinstance(fault, SynapseFault):
        mode = "crash" if isinstance(effective, CrashFault) else "byzantine"
        try:
            certified = certified_survival_probability(
                network, p_fail, epsilon, epsilon_prime,
                capacity=capacity, mode=mode,
            )
        except ValueError:
            certified = None
    return ReliabilityEstimate(
        estimate, lo, hi, n_used, certified, adaptive_report
    )


def _wilson_interval(k: int, n: int, confidence: float) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    z = sps.norm.ppf(0.5 + confidence / 2.0)
    phat = k / n
    denom = 1 + z**2 / n
    centre = (phat + z**2 / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def mission_survival_curve(
    network: FeedForwardNetwork,
    failure_rate: float,
    mission_times: Sequence[float],
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "crash",
    x: Optional[np.ndarray] = None,
    n_trials: int = 0,
    fault: Optional[FaultModel] = None,
    seed: Optional[int] = 0,
    engine: "MaskCampaignEngine | None" = None,
) -> "list[tuple[float, float]] | list[tuple[float, float, float]]":
    """Certified survival over mission time with exponential lifetimes.

    Each neuron fails by time ``t`` with ``p(t) = 1 - exp(-rate * t)``;
    the curve is ``[(t, certified_survival(p(t)))]``.  This is the
    deployment-facing face of over-provisioning: more budget = flatter
    curve.

    Passing a probe batch ``x`` with ``n_trials > 0`` additionally
    Monte-Carlo-estimates the *actual* survival at every grid point
    and returns ``(t, certified, estimated)`` triples.  The whole
    mission grid shares **one**
    :class:`~repro.faults.masks.MaskCampaignEngine` (built here when
    ``engine`` is omitted, exactly like
    :func:`monte_carlo_survival`'s defaults), so the weight casts,
    nominal forward pass and chunk buffers are paid once for the
    curve, not once per mission time.
    """
    if failure_rate < 0:
        raise ValueError(f"failure_rate must be >= 0, got {failure_rate}")
    if n_trials < 0:
        raise ValueError(f"n_trials must be >= 0, got {n_trials}")
    estimate = n_trials > 0
    if estimate and x is None:
        raise ValueError("Monte-Carlo estimation (n_trials > 0) needs x")
    if estimate and engine is None:
        # The same capacity defaulting monte_carlo_survival applies: a
        # (possibly wrapped) crash fault caps emissions at sup phi.
        effective = fault if fault is not None else CrashFault()
        while isinstance(effective, IntermittentFault):
            effective = effective.fault
        engine_capacity = (
            network.output_bound
            if capacity is None and isinstance(effective, CrashFault)
            else capacity
        )
        engine = MaskCampaignEngine(
            FaultInjector(network, capacity=engine_capacity), x
        )
    curve: list = []
    for t in mission_times:
        if t < 0:
            raise ValueError(f"mission times must be >= 0, got {t}")
        p = 1.0 - float(np.exp(-failure_rate * t))
        certified = certified_survival_probability(
            network, p, epsilon, epsilon_prime, capacity=capacity, mode=mode,
        )
        if not estimate:
            curve.append((float(t), certified))
            continue
        est = monte_carlo_survival(
            network, p, epsilon, epsilon_prime, x,
            fault=fault, capacity=capacity, n_trials=n_trials, seed=seed,
            engine=engine,
        )
        curve.append((float(t), certified, est.survival))
    return curve


def mean_failures_to_violation(
    network: FeedForwardNetwork,
    epsilon: float,
    epsilon_prime: float,
    x: np.ndarray,
    *,
    n_trials: int = 200,
    seed: Optional[int] = 0,
    engine: "MaskCampaignEngine | None" = None,
    trials_per_chunk: Optional[int] = None,
) -> float:
    """Empirical mean number of sequential crashes until epsilon breaks.

    Crashes neurons one at a time (uniformly at random, without
    replacement) until the output error over the probe batch exceeds
    the budget; returns the mean count over trials.  The analytic
    counterpart is the greedy tolerance of
    :func:`repro.core.tolerance.greedy_max_total_failures`, which this
    empirical count must (weakly) exceed.

    A trial's sequential crash accumulation is a *prefix-mask batch*:
    row ``k`` of the trial crashes the first ``k + 1`` neurons of the
    trial's permutation, so one streamed engine evaluation replaces
    ``num_neurons`` scalar ``injector.output_error`` calls and the
    first row whose error exceeds the budget is the trial's count.
    Trials are chunked (``trials_per_chunk`` rows of ``num_neurons``
    scenarios each) to bound the mask batch; ``engine`` lets callers
    sharing a network/probe batch reuse one campaign engine.  The
    scalar one-crash-at-a-time loop lives in ``tests/oracles.py`` — the
    oracle this path must reproduce permutation for permutation.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    budget = epsilon - epsilon_prime
    if engine is None:
        injector = FaultInjector(network, capacity=network.output_bound)
        engine = MaskCampaignEngine(injector, x)
    else:
        if engine.network is not network:
            raise ValueError(
                "engine was built for a different network than the one "
                "passed to mean_failures_to_violation"
            )
        if engine.capacity != network.output_bound:
            raise ValueError(
                f"engine capacity {engine.capacity} != sup phi = "
                f"{network.output_bound} (the crash-campaign capacity)"
            )
        xb, _ = network._as_batch(x)
        if not np.array_equal(np.asarray(xb, dtype=np.float64), engine.xb64):
            raise ValueError(
                "engine was built for a different probe batch than x"
            )
    rng = np.random.default_rng(seed)
    total = network.num_neurons
    sizes = network.layer_sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if trials_per_chunk is None:
        # ~4M mask cells per chunk keeps the batch comfortably small.
        trials_per_chunk = max(1, 4_000_000 // (total * total))
    steps = np.arange(total)
    counts: list[np.ndarray] = []
    done = 0
    while done < n_trials:
        m = min(int(trials_per_chunk), n_trials - done)
        # Same draw sequence as the scalar oracle: one permutation per
        # trial, in trial order.
        perms = np.stack([rng.permutation(total) for _ in range(m)])
        # rank[t, j] = step at which trial t crashes flat neuron j;
        # prefix row k of trial t crashes every j with rank <= k.
        ranks = np.argsort(perms, axis=1)
        masks = ranks[:, None, :] <= steps[None, :, None]  # (m, total, total)
        flat = masks.reshape(m * total, total)
        batch = empty_mask_batch(sizes, m * total)
        batch.zero_masks = [
            np.ascontiguousarray(flat[:, offsets[l0] : offsets[l0 + 1]])
            for l0 in range(len(sizes))
        ]
        errors = engine.evaluate(batch).reshape(m, total)
        exceed = errors > budget + 1e-12
        counts.append(
            np.where(exceed.any(axis=1), exceed.argmax(axis=1) + 1, total)
        )
        done += m
    return float(np.mean(np.concatenate(counts)))
