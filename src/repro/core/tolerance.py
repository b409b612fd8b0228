"""Inverting the bounds: how many failures *can* this network take?

Theorem 3 gives a yes/no condition on a failure distribution
``(f_l)``.  This module solves the practical inverse problems:

* the largest failure count in a single layer (others healthy);
* the largest uniform per-layer fraction;
* a maximal *total* failure count via greedy allocation (Fep is not
  additive across layers — failing a neuron in layer ``l`` also
  *removes* it from the ``(N_l - f_l)`` amplification factor of
  earlier-layer terms, so allocation order matters);
* the exact Pareto frontier of tolerated distributions for small
  networks, via the vectorised :func:`repro.core.fep.fep_many`;
* critical parameter values: the largest capacity ``C`` and the
  largest weight scale compatible with a target distribution (the
  knobs of the Section V-C trade-offs).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..network.model import FeedForwardNetwork
from .bounds import _validate_epsilons
from .fep import (
    _network_capacity,
    fep_many,
    forward_error_propagation,
    network_fep,
    network_synapse_fep,
)

__all__ = [
    "max_failures_single_layer",
    "max_uniform_fraction",
    "greedy_max_total_failures",
    "tolerated_distributions",
    "max_capacity_for_distribution",
    "max_weight_scale_for_distribution",
    "max_synapse_failures_single_stage",
]


def max_failures_single_layer(
    network: FeedForwardNetwork,
    layer: int,
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "crash",
) -> int:
    """Largest ``f_layer`` tolerated with every other layer healthy.

    Fep restricted to one layer is linear in ``f_layer``'s own count
    but the suffix products of *earlier* terms are unaffected (they are
    zero), so the answer is an exact floor division — capped at
    ``N_layer - 1`` (Theorem 3 requires at least one correct neuron).
    """
    if not 1 <= layer <= network.depth:
        raise ValueError(f"layer {layer} outside 1..{network.depth}")
    budget = _validate_epsilons(epsilon, epsilon_prime)
    c = _network_capacity(network, capacity, mode)
    sizes = network.layer_sizes
    # Per-unit cost of one failure in `layer`:
    unit = np.zeros(network.depth, dtype=int)
    unit[layer - 1] = 1
    cost = forward_error_propagation(
        unit, sizes, network.weight_maxes(), network.lipschitz_constant, c
    )
    if cost <= 0:
        return sizes[layer - 1] - 1
    best = int(np.floor(budget / cost + 1e-12))
    return max(0, min(best, sizes[layer - 1] - 1))


def max_uniform_fraction(
    network: FeedForwardNetwork,
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "crash",
    resolution: int = 100,
) -> float:
    """Largest fraction ``p`` such that failing ``floor(p * N_l)`` neurons
    in *every* layer simultaneously is tolerated.

    Scans ``p`` on a grid of ``resolution`` steps (Fep is not monotone
    in ``p`` in general — failed neurons also stop amplifying — so we
    scan rather than bisect; in practice the tolerated set is an
    interval containing 0).
    """
    budget = _validate_epsilons(epsilon, epsilon_prime)
    c = _network_capacity(network, capacity, mode)
    sizes = np.asarray(network.layer_sizes)
    best = 0.0
    fractions = np.linspace(0.0, 1.0, resolution + 1)
    candidates = np.floor(fractions[:, None] * sizes[None, :])
    # Theorem 3 requires f_l < N_l: stop before any layer fails entirely.
    valid = np.all(candidates < sizes[None, :], axis=1)
    feps = fep_many(
        np.minimum(candidates, sizes[None, :] - 1),
        network.layer_sizes,
        network.weight_maxes(),
        network.lipschitz_constant,
        c,
    )
    ok = valid & (feps <= budget + 1e-12)
    for p, good in zip(fractions, ok):
        if good:
            best = float(p)
        else:
            break
    return best


def greedy_max_total_failures(
    network: FeedForwardNetwork,
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "crash",
) -> tuple[int, ...]:
    """A maximal tolerated distribution by greedy one-at-a-time allocation.

    At each step, tentatively add one failure to each layer, keep the
    choice with the smallest resulting Fep if it still fits the budget;
    stop when no single addition fits.  The result is maximal (no
    single failure can be added) though not necessarily maximum —
    :func:`tolerated_distributions` gives the exact frontier for small
    networks.
    """
    budget = _validate_epsilons(epsilon, epsilon_prime)
    c = _network_capacity(network, capacity, mode)
    sizes = network.layer_sizes
    w = network.weight_maxes()
    K = network.lipschitz_constant
    current = np.zeros(network.depth, dtype=int)

    while True:
        candidates = []
        for l0 in range(network.depth):
            if current[l0] + 1 >= sizes[l0]:
                continue  # keep at least one correct neuron per layer
            trial = current.copy()
            trial[l0] += 1
            candidates.append(trial)
        if not candidates:
            break
        feps = fep_many(np.array(candidates), sizes, w, K, c)
        order = int(np.argmin(feps))
        if feps[order] <= budget + 1e-12:
            current = candidates[order]
        else:
            break
    return tuple(int(v) for v in current)


def tolerated_distributions(
    network: FeedForwardNetwork,
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "crash",
    max_grid: int = 200_000,
) -> list[tuple[int, ...]]:
    """All maximal tolerated distributions (the Pareto frontier).

    Checks Theorem 3 over the full grid ``prod (N_l)`` of distributions
    (refusing beyond ``max_grid`` points) and returns the distributions
    not dominated by another tolerated one.  Everything stays at the
    array level: the grid is an index array (``np.indices``, never a
    Python list of tuples), the Theorem-3 check is one ``fep_many``
    call, and the Pareto filter shifts the tolerated-set lattice along
    each axis instead of probing a Python set point by point.
    """
    budget = _validate_epsilons(epsilon, epsilon_prime)
    c = _network_capacity(network, capacity, mode)
    sizes = network.layer_sizes
    grid_size = int(np.prod(sizes))
    if grid_size > max_grid:
        raise ValueError(
            f"distribution grid has {grid_size} points (> {max_grid}); "
            "use greedy_max_total_failures instead"
        )
    L = len(sizes)
    grid = np.indices(sizes).reshape(L, -1).T.astype(np.float64)  # (M, L)
    feps = fep_many(
        grid, sizes, network.weight_maxes(), network.lipschitz_constant, c
    )
    tolerated = (feps <= budget + 1e-12).reshape(sizes)  # boolean lattice
    # A tolerated point is dominated iff any +1-along-one-axis neighbour
    # is also tolerated: shift the lattice down each axis and OR.
    dominated = np.zeros_like(tolerated)
    for axis in range(L):
        src = [slice(None)] * L
        dst = [slice(None)] * L
        src[axis] = slice(1, None)
        dst[axis] = slice(0, -1)
        dominated[tuple(dst)] |= tolerated[tuple(src)]
    maximal = np.argwhere(tolerated & ~dominated)  # lexicographically sorted
    return [tuple(int(v) for v in row) for row in maximal]


def max_synapse_failures_single_stage(
    network: FeedForwardNetwork,
    stage: int,
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: float,
) -> int:
    """Largest count of Byzantine synapses tolerated at one stage.

    Stage ``l`` (1-based, ``1..L+1``) holds the synapses into layer
    ``l``.  Theorem 4's bound is linear in the per-stage count, so the
    answer is a floor division, capped at the number of physical
    synapses at that stage.
    """
    if not 1 <= stage <= network.depth + 1:
        raise ValueError(f"stage {stage} outside 1..{network.depth + 1}")
    budget = _validate_epsilons(epsilon, epsilon_prime)
    unit = [0] * (network.depth + 1)
    unit[stage - 1] = 1
    cost = network_synapse_fep(network, unit, capacity=capacity)
    if stage <= network.depth:
        stage_size = network.layers[stage - 1].num_synapses
    else:
        stage_size = network.n_outputs * network.layer_sizes[-1]
    if cost <= 0:
        return stage_size
    return min(int(np.floor(budget / cost + 1e-12)), stage_size)


def max_capacity_for_distribution(
    network: FeedForwardNetwork,
    failures: Sequence[int],
    epsilon: float,
    epsilon_prime: float,
) -> float:
    """Largest transmission capacity ``C`` under which ``(f_l)`` is
    still tolerated (Byzantine mode).

    Fep is linear in ``C``, so ``C* = budget / (Fep / C)``; returns
    ``inf`` when the distribution is free (all ``f_l = 0``) —
    consistent with Lemma 1: any actual Byzantine neuron forces a
    finite capacity.
    """
    budget = _validate_epsilons(epsilon, epsilon_prime)
    unit_fep = network_fep(network, failures, capacity=1.0, mode="byzantine")
    if unit_fep == 0.0:
        return float("inf")
    return budget / unit_fep


def max_weight_scale_for_distribution(
    network: FeedForwardNetwork,
    failures: Sequence[int],
    epsilon: float,
    epsilon_prime: float,
    *,
    capacity: Optional[float] = None,
    mode: str = "crash",
    tol: float = 1e-9,
) -> float:
    """Largest uniform weight-scaling ``s`` keeping ``(f_l)`` tolerated.

    Scaling every synaptic weight by ``s`` scales each Fep term by
    ``s**(L + 1 - l)`` — monotone increasing in ``s`` — so the answer
    is found by bisection.  This quantifies the Section V-C weight
    trade-off: smaller weights buy robustness.
    """
    budget = _validate_epsilons(epsilon, epsilon_prime)
    c = _network_capacity(network, capacity, mode)
    sizes = network.layer_sizes
    w = np.asarray(network.weight_maxes())
    K = network.lipschitz_constant

    def fep_at(scale: float) -> float:
        return forward_error_propagation(failures, sizes, w * scale, K, c)

    if fep_at(1.0) <= budget:
        lo, hi = 1.0, 2.0
        while fep_at(hi) <= budget and hi < 1e12:
            lo, hi = hi, hi * 2.0
        if hi >= 1e12:
            return float("inf")
    else:
        lo, hi = 0.0, 1.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if fep_at(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo
