"""Figure 3 — output error vs Lipschitz constant across eight networks.

The paper's only measured plot: "Experimental values of the error (Er)
at the output of several neural networks, affected with similar amount
of neuron failures, plotted against the Lipschitz constant in a log
scale", with the observation that "Fep has a polynomial dependency on
K as observed in Figure 3".

Reproduction protocol (substitutions documented in DESIGN.md):

* the eight architectures are the concrete family of
  :data:`repro.network.builder.FIGURE3_SPECS` (depth 1-4, width 8-64);
* for each network and each K on a log-spaced grid, the *same* weights
  (same seed) and the *same* failure pattern are used — only the
  activation steepness varies, isolating the K-dependence;
* the failure load is "a similar amount" across networks: a fixed
  number of first-layer crashes (paper wording), measured as the max
  output error over a Monte-Carlo batch of failure placements plus the
  gradient-guided adversarial placement;
* expected shape: Er non-decreasing in K (up to MC noise) and, for the
  deeper networks, super-linear growth — the polynomial signature;
  the analytic Fep dominates every observation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..analysis.stats import dominance_ratio, is_monotone, loglog_slope
from ..core.fep import network_fep
from ..faults.adversary import adversarial_crash_scenario
from ..faults.campaign import _monte_carlo_campaign, run_campaign
from ..faults.injector import FaultInjector
from ..network.builder import FIGURE3_SPECS, build_figure3_network
from .registry import experiment
from .runner import ExperimentResult

__all__ = ["run_figure3", "DEFAULT_K_GRID"]

DEFAULT_K_GRID: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)


@experiment(
    "figure3",
    title="Output error vs Lipschitz constant across eight networks",
    anchor="Figure 3",
    tags=("figure", "campaign"),
    runtime="medium",
    order=30,
)
def run_figure3(
    *,
    k_grid: Sequence[float] = DEFAULT_K_GRID,
    n_fail: int = 2,
    n_scenarios: int = 60,
    n_inputs: int = 64,
    networks: Optional[Sequence[int]] = None,
    seed: int = 7,
    dtype: str = "float64",
) -> ExperimentResult:
    """Regenerate the Figure-3 series ``Er(K)`` for each network.

    The Monte-Carlo points run on the mask-native campaign engine
    (array-level placement sampling + streamed evaluation), so the
    per-point effort can be raised far beyond the default without the
    scenario-object overhead of the object path.

    Parameters
    ----------
    k_grid:
        Lipschitz constants to sweep (log-spaced, as in the figure).
    n_fail:
        First-layer crash count — the "similar amount of neuron
        failures" applied to every network.
    n_scenarios, n_inputs:
        Monte-Carlo effort per (network, K) point.
    networks:
        Indices into the 8-network family (default: all of them).
    dtype:
        Campaign evaluation precision; ``"float32"`` selects the fast
        path for large ``n_scenarios`` (bound-domination checks keep
        comfortable margin either way).
    """
    k_grid = tuple(sorted(float(k) for k in k_grid))
    net_ids = tuple(networks) if networks is not None else tuple(range(len(FIGURE3_SPECS)))
    rng = np.random.default_rng(seed)

    rows = []
    per_net_errors: dict[int, list[float]] = {i: [] for i in net_ids}
    per_net_bounds: dict[int, list[float]] = {i: [] for i in net_ids}
    for idx in net_ids:
        x = rng.random((n_inputs, FIGURE3_SPECS[idx][0]))
        for k in k_grid:
            net = build_figure3_network(idx, k)
            depth = net.depth
            dist = [0] * depth
            dist[0] = min(n_fail, net.layer_sizes[0] - 1)
            injector = FaultInjector(net, capacity=net.output_bound)
            mc = _monte_carlo_campaign(
                injector,
                x,
                dist,
                n_scenarios=n_scenarios,
                seed=seed + idx,
                dtype=dtype,
            )
            adv = adversarial_crash_scenario(net, dist, x)
            adv_err = run_campaign(injector, x, [adv]).max_error
            er = max(mc.max_error, adv_err)
            bound = network_fep(net, dist, mode="crash")
            per_net_errors[idx].append(er)
            per_net_bounds[idx].append(bound)
            rows.append(
                {
                    "net": f"Net {idx + 1}",
                    "depth": depth,
                    "K": k,
                    "f_layer1": dist[0],
                    "Er": er,
                    "fep_bound": bound,
                }
            )

    # --- shape checks -----------------------------------------------------
    monotone_ok = all(
        is_monotone(errs, increasing=True, tolerance=0.05 * max(errs))
        for errs in per_net_errors.values()
    )
    sound = (
        dominance_ratio(
            [b for bs in per_net_bounds.values() for b in bs],
            [e for es in per_net_errors.values() for e in es],
        )
        <= 1.0 + 1e-9
    )
    # Polynomial signature: deeper networks show larger log-log slope of
    # the *bound* (exactly depth - 1 + saturating activation effects) and
    # a positive slope of the measured error.
    slopes = {}
    for idx in net_ids:
        slope, _ = loglog_slope(k_grid, per_net_errors[idx])
        slopes[idx] = slope
    positive_slopes = all(s > 0 for s in slopes.values())
    depth_of = {i: len(FIGURE3_SPECS[i][1]) for i in net_ids}
    deep_ids = [i for i in net_ids if depth_of[i] >= 3]
    shallow_ids = [i for i in net_ids if depth_of[i] == 1]
    depth_orders = True
    if deep_ids and shallow_ids:
        depth_orders = min(slopes[i] for i in deep_ids) > max(
            -0.1, min(slopes[i] for i in shallow_ids) - 1.5
        ) and (
            np.mean([slopes[i] for i in deep_ids])
            > np.mean([slopes[i] for i in shallow_ids])
        )

    checks = {
        "error_increases_with_K": monotone_ok,
        "fep_bound_dominates_every_point": sound,
        "polynomial_growth_positive_loglog_slope": positive_slopes,
        "deeper_networks_grow_faster_in_K": bool(depth_orders),
    }
    return ExperimentResult(
        experiment_id="figure3",
        description="Output error Er vs Lipschitz constant K for eight "
        "networks under a fixed failure load (log-scale K)",
        rows=rows,
        shape_checks=checks,
        metrics={
            **{f"slope_net{i + 1}": s for i, s in slopes.items()},
            "worst_tightness": max(
                e / b
                for es, bs in zip(per_net_errors.values(), per_net_bounds.values())
                for e, b in zip(es, bs)
                if b > 0
            ),
        },
        notes=[
            "architectures are substitutes (paper does not disclose Nets 1-8)",
            "Er = max over MC placements + gradient-guided adversarial placement",
        ],
    )
