"""Extension — availability vs rejuvenation period: the boosting trade.

Section V-B's boosting scheme doubles as *software rejuvenation*: a
replica restarts fully repaired and serves its restart epoch in
boosted mode, with the reset stragglers of one
:func:`~repro.distributed.boosting.boosted_reset_masks` draw as that
epoch's crash mask.  Corollary 2 prices the restart — the blip is
bounded by ``Fep(tolerated)``, which the certificate keeps inside the
epsilon budget — so rejuvenation trades a *bounded, certified* error
blip against the *unbounded* error of accumulated wear-out faults.

Every campaign in the sweep is *declared*:
:func:`chaos_rejuvenation_spec` builds the
:class:`~repro.specs.ChaosSpec` for one rejuvenation period (``None``
= the no-repair baseline), the registry stores the canonical sweep
spec, and the entry point executes each through ``repro.run`` — the
artifact store keys caching/replay on the spec's content hash.

This experiment sweeps the rejuvenation period over a fleet whose
components wear out (Weibull lifetimes, ``shape > 1``) and validates
the trade:

* every rejuvenation period beats the no-repair baseline on
  availability (same seed, same fault schedule law);
* availability improves (weakly) as rejuvenation gets more frequent —
  the blips are certified within budget, so they never cost
  availability, only latency;
* on a fault-free fleet the rejuvenation blips are bounded by the
  analytic ``Fep(tolerated)`` (Corollary 2's guarantee, measured);
* the boosted restarts actually save latency (mean speedup > 1,
  Section V-B's entire point).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.fep import network_fep
from ..core.tolerance import greedy_max_total_failures
from ..specs import (
    ChaosSpec,
    NetworkRef,
    PolicySpec,
    ProcessSpec,
    run as run_spec,
)
from .registry import experiment
from .runner import ExperimentResult

__all__ = ["run_chaos_rejuvenation", "chaos_rejuvenation_spec"]

#: Same deterministic topology recipe as `chaos_survival`.
_NETWORK = NetworkRef(
    builder="mlp",
    params={
        "input_dim": 2,
        "hidden": [12, 10],
        "activation": {"name": "sigmoid", "k": 1.0},
        "init": {"name": "uniform", "scale": 0.4},
        "output_scale": 0.3,
        "seed": 5,
    },
)


def chaos_rejuvenation_spec(
    *,
    period: Optional[int] = 10,
    epsilon: float = 0.5,
    epsilon_prime: float = 0.1,
    failure_rate: float = 0.04,
    weibull_shape: float = 1.6,
    epochs: int = 60,
    n_replicas: int = 48,
    seed: int = 13,
    keep_errors: bool = False,
) -> ChaosSpec:
    """One wear-out rejuvenation campaign as a declarative spec.

    ``period=None`` is the no-repair baseline; otherwise the policy
    rejuvenates every ``period`` epochs with the straggler budget
    derived from the certificate at lowering (``tolerated=None``).
    """
    policy = (
        PolicySpec()
        if period is None
        else PolicySpec(kind="rejuvenate", period=int(period))
    )
    return ChaosSpec(
        network=_NETWORK,
        epsilon=epsilon,
        epsilon_prime=epsilon_prime,
        processes=(
            ProcessSpec(
                kind="lifetime", rate=failure_rate, shape=weibull_shape
            ),
        ),
        detectors=(),
        policy=policy,
        epochs=epochs,
        replicas=n_replicas,
        batch=16,
        seed=seed,
        probe_seed=5,
        keep_errors=keep_errors,
    )


@experiment(
    "chaos_rejuvenation",
    title="Availability vs rejuvenation period (boosted restarts)",
    anchor="Extension (Section V-B boosting as rejuvenation)",
    tags=("extension", "chaos", "campaign", "boosting"),
    runtime="medium",
    order=161,
    spec=chaos_rejuvenation_spec(),
)
def run_chaos_rejuvenation(
    *,
    epsilon: float = 0.5,
    epsilon_prime: float = 0.1,
    failure_rate: float = 0.04,
    weibull_shape: float = 1.6,
    epochs: int = 60,
    n_replicas: int = 48,
    periods: tuple = (5, 10, 20),
    seed: int = 13,
) -> ExperimentResult:
    """Sweep availability vs rejuvenation period, the boosting trade-off."""
    net = _NETWORK.resolve()
    # The straggler budget the certificate tolerates: resets drawn from
    # it keep every restart blip inside the epsilon budget.
    tolerated = greedy_max_total_failures(net, epsilon, epsilon_prime)
    fep_bound = network_fep(net, tolerated, mode="crash")

    def campaign(period: Optional[int]):
        return run_spec(
            chaos_rejuvenation_spec(
                period=period,
                epsilon=epsilon,
                epsilon_prime=epsilon_prime,
                failure_rate=failure_rate,
                weibull_shape=weibull_shape,
                epochs=epochs,
                n_replicas=n_replicas,
                seed=seed,
            )
        )

    baseline = campaign(None)
    rows = [
        {
            "period": "none",
            "availability": baseline.availability,
            "violations": baseline.violation_fraction,
            "mttr_epochs": baseline.mttr,
            "rejuvenations": 0,
            "mean_boost_speedup": None,
        }
    ]
    sweeps = []
    for period in periods:
        rep = campaign(int(period))
        sweeps.append((int(period), rep))
        rows.append(
            {
                "period": int(period),
                "availability": rep.availability,
                "violations": rep.violation_fraction,
                "mttr_epochs": rep.mttr,
                "rejuvenations": rep.policy_stats.get("rejuvenations", 0),
                "mean_boost_speedup": rep.policy_stats.get(
                    "mean_boost_speedup"
                ),
            }
        )

    # Corollary-2 blip audit on a fault-free fleet: with a zero failure
    # rate every nonzero error is a rejuvenation reset blip, so the
    # worst epoch error must sit under the analytic Fep bound.
    quiet = run_spec(
        chaos_rejuvenation_spec(
            period=5,
            epsilon=epsilon,
            epsilon_prime=epsilon_prime,
            failure_rate=0.0,
            weibull_shape=1.0,
            epochs=20,
            n_replicas=16,
            seed=seed,
            keep_errors=True,
        )
    )
    worst_blip = float(quiet.errors.max())

    availabilities = [rep.availability for _, rep in sweeps]
    speedups = [
        rep.policy_stats.get("mean_boost_speedup") for _, rep in sweeps
    ]
    checks = {
        "rejuvenation_beats_no_repair": all(
            a > baseline.availability for a in availabilities
        ),
        "more_frequent_is_no_worse": all(
            a >= b - 5e-3
            for a, b in zip(availabilities, availabilities[1:])
        ),
        "restart_blip_within_fep_bound": worst_blip <= fep_bound + 1e-9,
        "blip_within_epsilon_budget": worst_blip
        <= (epsilon - epsilon_prime) + 1e-9,
        "boosted_restarts_save_latency": all(s and s > 1.0 for s in speedups),
    }
    return ExperimentResult(
        experiment_id="chaos_rejuvenation",
        description="Availability vs rejuvenation period under wear-out "
        "faults; boosted restarts keep blips inside the certified budget",
        rows=rows,
        shape_checks=checks,
        metrics={
            "baseline_availability": baseline.availability,
            "best_availability": max(availabilities),
            "worst_restart_blip": worst_blip,
            "fep_bound": fep_bound,
            "tolerated_total": float(sum(tolerated)),
            "spec_hash": chaos_rejuvenation_spec().content_hash(),
        },
        notes=[
            "extension: rejuvenation = full repair + one boosted-mode "
            "epoch whose reset set is a Corollary-2 straggler draw; the "
            "trade is a certified blip vs unbounded wear-out error",
            "every swept campaign is a ChaosSpec; the canonical "
            "period=10 spec keys the artifact cache",
            "mttr_epochs is the mean violation-episode length; a fleet "
            "with no violation episode reports nan (undefined)",
        ],
    )
