"""Error statistics and shape checks used by the experiment reports.

The reproduction criterion for a theory paper is *shape*, not absolute
numbers: bounds must dominate observations, errors must grow with K at
the predicted polynomial order, trade-off curves must be monotone.
These helpers make those checks explicit and reusable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Summary",
    "summarize",
    "bootstrap_ci",
    "loglog_slope",
    "is_monotone",
    "dominance_ratio",
    "coverage_pvalue",
]


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of an error sample."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n} mean={self.mean:.4g} std={self.std:.4g} "
            f"min={self.minimum:.4g} p50={self.p50:.4g} p95={self.p95:.4g} "
            f"max={self.maximum:.4g}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics of a sample (empty samples are all-zero)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        n=int(v.size),
        mean=float(v.mean()),
        std=float(v.std()),
        minimum=float(v.min()),
        maximum=float(v.max()),
        p50=float(np.quantile(v, 0.5)),
        p95=float(np.quantile(v, 0.95)),
    )


def bootstrap_ci(
    values: Sequence[float],
    *,
    statistic=np.mean,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap confidence interval for a statistic of the sample."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        x = float(statistic(v)) if v.size else 0.0
        return (x, x)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, v.size, size=(n_resamples, v.size))
    boot = np.apply_along_axis(statistic, 1, v[idx])
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(boot, alpha)), float(np.quantile(boot, 1 - alpha)))


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope (and r-value) of ``log y`` against ``log x``.

    The Figure-3 shape check: for failures at depth ``l`` of an
    ``L``-layer net, the error grows like ``K**(L-l)`` for large K, so
    the log-log slope approaches ``L - l`` (plus the saturation regime
    at small K).  Zero/negative values are dropped (log-undefined).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        raise ValueError("need at least two positive (x, y) pairs")
    from scipy import stats as sps

    res = sps.linregress(np.log(x[keep]), np.log(y[keep]))
    return float(res.slope), float(res.rvalue)


def is_monotone(
    values: Sequence[float],
    *,
    increasing: bool = True,
    tolerance: float = 0.0,
) -> bool:
    """Whether a sequence is (weakly) monotone, up to ``tolerance``
    of allowed backsliding per step (noise robustness)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        return True
    diffs = np.diff(v)
    if increasing:
        return bool(np.all(diffs >= -tolerance))
    return bool(np.all(diffs <= tolerance))


def dominance_ratio(bounds: Sequence[float], observations: Sequence[float]) -> float:
    """``max(observed / bound)`` — soundness demands ``<= 1``.

    Pairs with a zero bound require a zero observation (else ``inf``).
    """
    b = np.asarray(bounds, dtype=np.float64)
    o = np.asarray(observations, dtype=np.float64)
    if b.shape != o.shape:
        raise ValueError(f"shape mismatch: {b.shape} vs {o.shape}")
    if b.size == 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(b > 0, o / b, np.where(o > 0, np.inf, 0.0))
    return float(ratios.max())


def coverage_pvalue(covered: int, trials: int, level: float) -> float:
    """One-sided binomial p-value that an interval's empirical coverage
    is consistent with its nominal ``level``.

    ``P[Binomial(trials, level) <= covered]``: small values mean the
    interval covered the truth significantly *less* often than
    promised.  This is the audit gate of the adaptive-sampling test
    tier — a ``1 - delta`` confidence sequence over many seeded
    replications must keep this p-value above the test's significance
    floor (over-coverage is fine; conservative intervals are sound).
    """
    if not 0 <= covered <= trials:
        raise ValueError(f"need 0 <= covered <= trials, got {covered}/{trials}")
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0,1), got {level}")
    from scipy import stats as sps

    return float(sps.binom.cdf(covered, trials, level))
