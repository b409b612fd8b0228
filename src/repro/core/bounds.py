"""The paper's theorems as a checkable API.

Every result of the paper is exposed as a function returning a
:class:`BoundCheck` (or a scalar where the result *is* a scalar), so
experiments and user code can ask exactly the paper's question: *does
this network, over-provisioned to epsilon', still epsilon-approximate
its target under this failure distribution?*

The mapping is:

=============  ==========================================================
Paper          API
=============  ==========================================================
Theorem 1      :func:`theorem1_max_crashes`, :func:`check_theorem1`
Theorem 2      :func:`repro.core.fep.forward_error_propagation`
Theorem 3      :func:`check_theorem3` (Byzantine + crash modes)
Lemma 1        :func:`lemma1_unbounded_transmission`
Lemma 2        :func:`lemma2_synapse_neuron_equivalence`
Theorem 4      :func:`check_theorem4`
Theorem 5      :func:`repro.core.fep.precision_error_bound`,
               :func:`check_theorem5`
Corollary 2    :func:`corollary2_required_signals`
=============  ==========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..network.model import FeedForwardNetwork
from .fep import (
    forward_error_propagation,
    network_fep,
    network_precision_bound,
    network_synapse_fep,
)

__all__ = [
    "BoundCheck",
    "theorem1_max_crashes",
    "check_theorem1",
    "check_theorem3",
    "check_theorem4",
    "check_theorem5",
    "lemma1_unbounded_transmission",
    "lemma2_synapse_neuron_equivalence",
    "corollary2_required_signals",
]


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of checking a failure distribution against a bound.

    Attributes
    ----------
    tolerated:
        Whether the distribution satisfies the theorem's condition
        (``error_bound <= budget``).
    error_bound:
        The analytic worst-case output perturbation (Fep or analogue).
    budget:
        The slack ``epsilon - epsilon_prime`` bought by over-provision.
    margin:
        ``budget - error_bound`` (negative when not tolerated).
    theorem:
        Which result produced this check.
    """

    tolerated: bool
    error_bound: float
    budget: float
    theorem: str

    @property
    def margin(self) -> float:
        return self.budget - self.error_bound

    def __bool__(self) -> bool:
        return self.tolerated

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "tolerated" if self.tolerated else "NOT tolerated"
        return (
            f"BoundCheck[{self.theorem}]({verdict}: bound={self.error_bound:.6g} "
            f"vs budget={self.budget:.6g})"
        )


def _validate_epsilons(epsilon: float, epsilon_prime: float) -> float:
    if not (0 < epsilon_prime <= epsilon):
        raise ValueError(
            f"need 0 < epsilon_prime <= epsilon, got epsilon={epsilon}, "
            f"epsilon_prime={epsilon_prime}"
        )
    return epsilon - epsilon_prime


# ---------------------------------------------------------------------------
# Theorem 1 — single layer, crashes
# ---------------------------------------------------------------------------


def theorem1_max_crashes(
    epsilon: float,
    epsilon_prime: float,
    w_max: float,
) -> int:
    """Theorem 1: the largest ``Nfail`` with ``Nfail <= (eps - eps')/w_m``.

    ``w_max`` is the maximum |weight| from the single layer to the
    output node.  Returns 0 when the budget is zero (an exactly-minimal
    network tolerates nothing — Section II-C).
    """
    budget = _validate_epsilons(epsilon, epsilon_prime)
    if w_max <= 0:
        raise ValueError(f"w_max must be positive, got {w_max}")
    return int(math.floor(budget / w_max + 1e-12))


def check_theorem1(
    network: FeedForwardNetwork,
    n_fail: int,
    epsilon: float,
    epsilon_prime: float,
) -> BoundCheck:
    """Check ``n_fail`` crashes against Theorem 1 on a 1-layer network."""
    if network.depth != 1:
        raise ValueError(
            f"Theorem 1 addresses single-layer networks; this one has "
            f"L={network.depth} (use check_theorem3)"
        )
    if n_fail < 0:
        raise ValueError(f"n_fail must be >= 0, got {n_fail}")
    budget = _validate_epsilons(epsilon, epsilon_prime)
    w_max = network.weight_max(2)
    bound = n_fail * w_max
    return BoundCheck(bound <= budget + 1e-12, bound, budget, "theorem1")


# ---------------------------------------------------------------------------
# Theorem 3 — multilayer, Byzantine (or crash) neurons
# ---------------------------------------------------------------------------


def check_theorem3(
    network: FeedForwardNetwork,
    failures: Sequence[int],
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "byzantine",
) -> BoundCheck:
    """Theorem 3: the distribution ``(f_l)`` is tolerated iff
    ``Fep <= epsilon - epsilon_prime`` (and ``f_l < N_l`` for all l).

    ``mode="crash"`` applies the Section IV-B substitution
    ``C -> sup phi``; ``mode="byzantine"`` requires finite ``capacity``.
    """
    budget = _validate_epsilons(epsilon, epsilon_prime)
    failures = tuple(int(f) for f in failures)
    if len(failures) != network.depth:
        raise ValueError(
            f"failure distribution length {len(failures)} != depth {network.depth}"
        )
    fep = network_fep(network, failures, capacity=capacity, mode=mode)
    # Theorem 3 requires f_l < N_l: at least one correct neuron per layer.
    spare = all(f < n for f, n in zip(failures, network.layer_sizes))
    return BoundCheck(spare and fep <= budget + 1e-12, fep, budget, "theorem3")


# ---------------------------------------------------------------------------
# Theorem 4 — Byzantine synapses
# ---------------------------------------------------------------------------


def check_theorem4(
    network: FeedForwardNetwork,
    synapse_failures: Sequence[int],
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: float,
) -> BoundCheck:
    """Theorem 4: synapse distribution ``(f_1..f_{L+1})`` tolerated iff
    the synapse Fep is within the over-provision budget."""
    budget = _validate_epsilons(epsilon, epsilon_prime)
    synapse_failures = tuple(int(f) for f in synapse_failures)
    if len(synapse_failures) != network.depth + 1:
        raise ValueError(
            f"synapse distribution length {len(synapse_failures)} != "
            f"L+1 = {network.depth + 1}"
        )
    bound = network_synapse_fep(network, synapse_failures, capacity=capacity)
    return BoundCheck(bound <= budget + 1e-12, bound, budget, "theorem4")


# ---------------------------------------------------------------------------
# Theorem 5 — precision reduction
# ---------------------------------------------------------------------------


def check_theorem5(
    network: FeedForwardNetwork,
    lambdas: Sequence[float],
    epsilon: float,
    epsilon_prime: float,
) -> BoundCheck:
    """Theorem 5: per-layer implementation errors ``lambda_l`` keep the
    epsilon-approximation iff their propagated bound fits the budget."""
    budget = _validate_epsilons(epsilon, epsilon_prime)
    bound = network_precision_bound(network, lambdas)
    return BoundCheck(bound <= budget + 1e-12, bound, budget, "theorem5")


# ---------------------------------------------------------------------------
# Lemmas
# ---------------------------------------------------------------------------


def lemma1_unbounded_transmission(capacity: Optional[float]) -> bool:
    """Lemma 1: with unbounded transmission (``capacity=None`` or inf),
    no network tolerates a single Byzantine neuron.

    Returns ``True`` when the *network is vulnerable* (capacity
    unbounded).  The quantitative face of the lemma is the limit
    ``Nfail -> 0`` as ``C -> inf`` in Theorem 3, which the experiments
    exhibit.
    """
    return capacity is None or not np.isfinite(capacity)


def lemma2_synapse_neuron_equivalence(
    capacity: float,
    lipschitz: float,
) -> float:
    """Lemma 2: a faulty synapse is at worst a neuron error of ``C * K``.

    Returns that worst-case equivalent neuron-output error (the
    receiving neuron squashes a received-sum perturbation of at most
    the synapse's corrupted emission, amplified by Lipschitzness).
    """
    if capacity <= 0 or lipschitz <= 0:
        raise ValueError("capacity and lipschitz must be positive")
    return float(capacity * lipschitz)


# ---------------------------------------------------------------------------
# Corollary 2 — boosting
# ---------------------------------------------------------------------------


def corollary2_required_signals(
    network: FeedForwardNetwork,
    failures: Sequence[int],
    epsilon: float,
    epsilon_prime: float,
) -> tuple[int, ...]:
    """Corollary 2: per-layer signal quotas under a tolerated crash
    distribution.

    If ``(f_l)`` satisfies Theorem 3 in crash mode, a neuron of layer
    ``l`` may fire after receiving only ``N_{l-1} - f_{l-1}`` signals
    from its left layer (treating the missing ones as crashed, value
    0), while the output provably stays epsilon-accurate.  Returns the
    quota for each layer ``2..L`` plus the output stage, i.e. a tuple
    of length ``L`` whose entry ``i`` is the quota for the consumers of
    layer ``i+1``'s signals.

    Raises when the distribution is *not* tolerated — firing early
    would then void the guarantee.
    """
    check = check_theorem3(
        network, failures, epsilon, epsilon_prime, mode="crash"
    )
    if not check.tolerated:
        raise ValueError(
            f"distribution {tuple(failures)} is not tolerated "
            f"(Fep={check.error_bound:.6g} > budget={check.budget:.6g}); "
            "boosting would break the epsilon-guarantee"
        )
    return tuple(
        n - f for n, f in zip(network.layer_sizes, failures)
    )
