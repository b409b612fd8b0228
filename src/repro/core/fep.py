"""Forward Error Propagation — the paper's central quantity (Theorem 2).

Given an ``L``-layer network with ``N_l`` neurons per layer, per-layer
max incoming weights ``w_m^(l)`` (``l = 1..L+1``; stage ``L+1`` feeds
the linear output node), a ``K``-Lipschitz activation and transmission
capacity ``C``, a per-layer failure distribution ``f = (f_1..f_L)``
perturbs the output by at most::

    Fep(f) = C * sum_{l=1}^{L} f_l * K^(L-l)
                 * prod_{l'=l+1}^{L+1} (N_l' - f_l') * w_m^(l')

with the convention ``N_{L+1} = 1``, ``f_{L+1} = 0``.  The bound is
*tight* (worst-case constructions attain it) and computing it needs
only the topology — no input sweep, no configuration enumeration.

Every bound here is one sum of the same per-layer terms: an error
``e_l`` at layer ``l``'s output, pushed through the squashing stages
and correct fan-outs on its right (one private kernel, a reversed
``cumprod``)::

    term_l = e_l * K^(L-l) * prod_{l'=l+1}^{L+1} (N_l' - f_l') * w_m^(l')

Theorem 2's Fep takes ``e_l = C * f_l``; Theorem 4's synapse bound
takes ``e_l = C * K * w_m^(l)`` per faulty stage-``l`` synapse
(Lemma 2) with ``f = 0``; the combined bound adds both; Theorem 5's
precision bound takes ``e_l = lambda_l * N_l`` with ``f = 0``; the
per-layer-K refinement swaps ``K^(L-l)`` for the downstream product
of the ``K_l'``.  One input check serves them all.  Fep, its per-layer
decomposition and the vectorised :func:`fep_many` agree bit for bit
(the tolerance decisions compare them with the budget); network-aware
wrappers pull ``N_l, w_m, K`` straight from a
:class:`FeedForwardNetwork`.

Crash-only variant (Section IV-B): when no neuron is Byzantine, ``C``
can be replaced by ``sup phi`` (1 for the sigmoid) — the most a correct
(and hence a silently-missing) neuron could have contributed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..network.model import FeedForwardNetwork

__all__ = [
    "fep_terms",
    "forward_error_propagation",
    "fep_many",
    "network_fep",
    "network_fep_terms",
    "synapse_fep",
    "network_synapse_fep",
    "combined_fep",
    "network_combined_fep",
    "heterogeneous_fep",
    "network_heterogeneous_fep",
    "precision_error_bound",
    "network_precision_bound",
]


def _validate(
    failures: Optional[Sequence[int]],
    layer_sizes: Sequence[int],
    weight_maxes: Sequence[float],
    lipschitz: "float | Sequence[float]",
    capacity: float = 1.0,
    *,
    batch: bool = False,
    per_layer_k: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The checked float arrays ``(f, n, w, K)`` every bound reads.

    ``failures`` counts the failed neurons per layer (``None``: none),
    one ``(M, L)`` row per distribution with ``batch``; ``lipschitz``
    is one ``K``, or one per layer with ``per_layer_k``.
    """
    n = np.asarray(layer_sizes, dtype=np.float64)
    f = (
        np.zeros_like(n)
        if failures is None
        else np.asarray(failures, dtype=np.float64)
    )
    w = np.asarray(weight_maxes, dtype=np.float64)
    k = np.asarray(lipschitz, dtype=np.float64)
    if n.ndim != 1 or f.ndim != 1 + batch or f.shape[-1] != n.size:
        raise ValueError(
            f"failures of shape {f.shape} do not match layer_sizes "
            f"of length {n.shape}{' (need (M, L))' if batch else ''}"
        )
    L = n.size
    if w.shape != (L + 1,):
        raise ValueError(
            f"weight_maxes must have length L+1={L + 1} "
            f"(w_m^(1)..w_m^(L+1)), got {w.shape}"
        )
    want = (L,) if per_layer_k else ()
    if k.shape != want:
        raise ValueError(f"Lipschitz constants must have shape {want}, got {k.shape}")
    if not np.all(f >= 0):
        raise ValueError("failure counts must be non-negative")
    if np.any(f > n):
        raise ValueError(f"failures {failures} exceed layer sizes {tuple(layer_sizes)}")
    if not np.all(n > 0):
        raise ValueError("layer sizes must be positive")
    if not np.all(w >= 0):
        raise ValueError("weight maxima must be non-negative")
    if not np.all((k > 0) & np.isfinite(k)):
        raise ValueError(
            f"Lipschitz constant must be positive and finite, got {lipschitz}"
        )
    if not (capacity > 0 and np.isfinite(capacity)):
        raise ValueError(
            f"capacity must be positive and finite, got {capacity} "
            "(unbounded transmission tolerates nothing — Lemma 1)"
        )
    return f, n, w, k


def _nonnegative(values: Sequence[float], length: int, what: str) -> np.ndarray:
    """``values`` as a checked ``(length,)`` float array."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (length,):
        raise ValueError(f"{what} must have length {length}, got {v.shape}")
    if not np.all(v >= 0):
        raise ValueError(f"{what} must be non-negative")
    return v


def _propagate(
    sources: np.ndarray,
    f: np.ndarray,
    n: np.ndarray,
    w: np.ndarray,
    k: np.ndarray,
) -> np.ndarray:
    """The per-layer terms every bound sums: ``(..., L)`` with::

        term_l = sources_l * K^(L-l) * prod_{l'=l+1}^{L+1} (N_l' - f_l') * w_m^(l')

    (``N_{L+1} = 1``, ``f_{L+1} = 0``): an error of ``sources_l`` at
    layer ``l``'s output, amplified by the squashing stages and the
    correct fan-outs on its right.  A per-layer ``k`` replaces
    ``K^(L-l)`` by the product of the downstream ``K_l'``.  ``sources``
    and ``f`` may carry a leading batch axis.
    """
    L = n.size
    # suffix[..., l0] = prod_{l'=l0+2..L+1} (N_l' - f_l') * w_m^(l') in
    # 1-based layer terms, i.e. the product attached to term l = l0+1.
    # w holds w_m^(1)..w_m^(L+1) at indices 0..L, so stage l' reads
    # w[l'-1].  Reversed cumprod realises all L suffix products in one
    # pass.
    n_ext = np.concatenate([n, [1.0]])
    f_ext = np.concatenate([f, np.zeros(f.shape[:-1] + (1,))], axis=-1)
    mult = (n_ext[1:] - f_ext[..., 1:]) * w[1:]  # stages 2..L+1
    suffix = np.cumprod(mult[..., ::-1], axis=-1)[..., ::-1]
    if k.ndim == 0:
        powers = k ** np.arange(L - 1, -1, -1, dtype=np.float64)
    else:  # downstream activations l+1..L
        powers = np.append(np.cumprod(k[:0:-1])[::-1], 1.0)
    # Kept as (sources * powers) * suffix: Theorem 3's budget tests
    # compare against these bits.
    return sources * powers * suffix


def fep_terms(
    failures: Sequence[int],
    layer_sizes: Sequence[int],
    weight_maxes: Sequence[float],
    lipschitz: float,
    capacity: float = 1.0,
) -> np.ndarray:
    """Per-layer contributions to Fep; ``fep_terms(...).sum() == Fep``.

    Term ``l`` (1-based) is the worst-case output perturbation caused
    by the ``f_l`` failures *of layer l alone*, amplified by the
    ``L - l`` squashing stages and the correct fan-outs on its right.
    The decomposition makes the paper's observation quantitative: the
    effect of a failure grows exponentially (``K^(L-l)``) with the
    depth at which it occurs (for ``K > 1``; it *shrinks* for ``K < 1``).
    """
    f, n, w, k = _validate(failures, layer_sizes, weight_maxes, lipschitz, capacity)
    return _propagate(capacity * f, f, n, w, k)


def forward_error_propagation(
    failures: Sequence[int],
    layer_sizes: Sequence[int],
    weight_maxes: Sequence[float],
    lipschitz: float,
    capacity: float = 1.0,
) -> float:
    """``Fep`` of Theorem 2 — the tight output-perturbation bound.

    Parameters
    ----------
    failures:
        Per-layer failure counts ``(f_1, ..., f_L)``.
    layer_sizes:
        ``(N_1, ..., N_L)``.
    weight_maxes:
        ``(w_m^(1), ..., w_m^(L+1))``; ``w_m^(1)`` (input synapses) is
        accepted for symmetry but does not enter the neuron-failure
        bound (errors originate at neuron *outputs*).
    lipschitz:
        ``K`` of the activation.
    capacity:
        ``C`` of Assumption 1; pass the activation's ``sup phi`` for
        the crash-only variant.
    """
    return float(fep_terms(failures, layer_sizes, weight_maxes, lipschitz, capacity).sum())


def fep_many(
    failure_matrix: np.ndarray,
    layer_sizes: Sequence[int],
    weight_maxes: Sequence[float],
    lipschitz: float,
    capacity: float = 1.0,
) -> np.ndarray:
    """Vectorised Fep for ``(M, L)`` failure distributions at once.

    Used by the tolerance-region solvers, which scan thousands of
    candidate distributions.
    """
    F, n, w, k = _validate(
        failure_matrix, layer_sizes, weight_maxes, lipschitz, capacity, batch=True
    )
    return _propagate(capacity * F, F, n, w, k).sum(axis=1)


# ---------------------------------------------------------------------------
# Network-aware wrappers
# ---------------------------------------------------------------------------


def _network_capacity(
    network: FeedForwardNetwork, capacity: Optional[float], mode: str
) -> float:
    if mode == "crash":
        c = network.output_bound
        if not np.isfinite(c):
            raise ValueError(
                "crash-mode bounds need a bounded activation "
                f"(sup|phi| = {c}); this network violates the paper's "
                "squashing-function hypothesis"
            )
        return c
    if mode == "byzantine":
        if capacity is None:
            raise ValueError(
                "Byzantine-mode bounds need a finite capacity C (Assumption 1); "
                "with unbounded transmission nothing is tolerated (Lemma 1)"
            )
        return float(capacity)
    raise ValueError(f"mode must be 'crash' or 'byzantine', got {mode!r}")


def network_fep(
    network: FeedForwardNetwork,
    failures: Sequence[int],
    *,
    capacity: Optional[float] = None,
    mode: str = "byzantine",
) -> float:
    """Fep for a concrete network, reading ``N_l, w_m, K`` off the model.

    ``mode="crash"`` substitutes ``sup phi`` for ``C`` (Section IV-B);
    ``mode="byzantine"`` requires an explicit finite ``capacity``.
    """
    c = _network_capacity(network, capacity, mode)
    return forward_error_propagation(
        failures,
        network.layer_sizes,
        network.weight_maxes(),
        network.lipschitz_constant,
        c,
    )


def network_fep_terms(
    network: FeedForwardNetwork,
    failures: Sequence[int],
    *,
    capacity: Optional[float] = None,
    mode: str = "byzantine",
) -> np.ndarray:
    """Per-layer Fep decomposition for a concrete network."""
    c = _network_capacity(network, capacity, mode)
    return fep_terms(
        failures,
        network.layer_sizes,
        network.weight_maxes(),
        network.lipschitz_constant,
        c,
    )


# ---------------------------------------------------------------------------
# Synapse failures (Theorem 4)
# ---------------------------------------------------------------------------


def synapse_fep(
    failures: Sequence[int],
    layer_sizes: Sequence[int],
    weight_maxes: Sequence[float],
    lipschitz: float,
    capacity: float = 1.0,
) -> float:
    """Theorem 4's bound for Byzantine *synapses*.

    ``failures = (f_1, ..., f_{L+1})`` counts faulty synapses per
    stage; stage ``l`` holds the synapses from layer ``l-1`` into layer
    ``l`` (stage ``L+1`` feeds the output node).  Each faulty synapse
    at stage ``l`` corrupts the emission it carries by at most ``C``,
    giving a received-sum error ``<= w_m^(l) * C``, a squashed error
    ``<= K * w_m^(l) * C`` (Lemma 2), then propagates like a neuron
    error of layer ``l``::

        Fep_syn = C * sum_{l=1}^{L+1} f_l * K^(L+1-l) * w_m^(l)
                      * prod_{l'=l+1}^{L+1} (N_l' - g_l') * w_m^(l')

    where ``g_l'`` is the number of *neurons* of layer ``l'`` whose
    output is already corrupted by those stage-``l'`` synapse faults
    (conservatively 0 here — keeping all ``N_l'`` multipliers is the
    worst case, and matches the paper's statement with ``f'_l`` the
    neuron-failure counts, zero in a pure-synapse scenario).  This is
    :func:`combined_fep` without neuron failures: ``g`` is the ``f``
    handed to the propagation kernel.

    The ``l = L+1`` term is ``C * f_{L+1} * w_m^(L+1)`` — no Lipschitz
    factor, since the output node is linear.
    """
    return combined_fep(
        None, failures, layer_sizes, weight_maxes, lipschitz, capacity
    )


def network_synapse_fep(
    network: FeedForwardNetwork,
    failures: Sequence[int],
    *,
    capacity: float,
) -> float:
    """Theorem-4 synapse bound for a concrete network."""
    return synapse_fep(
        failures,
        network.layer_sizes,
        network.weight_maxes(),
        network.lipschitz_constant,
        capacity,
    )


def heterogeneous_fep(
    failures: Sequence[int],
    layer_sizes: Sequence[int],
    weight_maxes: Sequence[float],
    lipschitz_constants: Sequence[float],
    capacity: float = 1.0,
) -> float:
    """Fep refined for per-layer Lipschitz constants.

    The paper states Theorem 2 with a single ``K`` (the worst over the
    network); when layers use differently-tuned activations the exact
    amplification of a layer-``l`` error is the *product* of the
    downstream constants::

        Fep_het(f) = C * sum_l f_l * (prod_{l'=l+1..L} K_l')
                         * (prod_{l'=l+1..L+1} (N_l' - f_l') * w_m^(l'))

    which reduces to Theorem 2's ``K**(L-l)`` when all ``K_l`` are
    equal, and never exceeds the homogeneous bound evaluated at
    ``K = max_l K_l`` (tested).  The refinement is sound for the same
    reason the original is: each traversed activation multiplies the
    incoming perturbation by at most its own constant.
    """
    f, n, w, ks = _validate(
        failures, layer_sizes, weight_maxes, lipschitz_constants, capacity,
        per_layer_k=True,
    )
    return float(_propagate(capacity * f, f, n, w, ks).sum())


def network_heterogeneous_fep(
    network: FeedForwardNetwork,
    failures: Sequence[int],
    *,
    capacity: Optional[float] = None,
    mode: str = "byzantine",
) -> float:
    """Per-layer-K Fep for a concrete network."""
    c = _network_capacity(network, capacity, mode)
    return heterogeneous_fep(
        failures,
        network.layer_sizes,
        network.weight_maxes(),
        network.lipschitz_constants(),
        c,
    )


def combined_fep(
    neuron_failures: Sequence[int],
    synapse_failures: Sequence[int],
    layer_sizes: Sequence[int],
    weight_maxes: Sequence[float],
    lipschitz: float,
    capacity: float = 1.0,
) -> float:
    """Joint bound for simultaneous neuron *and* synapse failures.

    The paper notes "our bound can easily be extended to the case where
    synapses can fail": both error sources enter the output linearly
    through the same triangle-inequality pipeline, so their worst-case
    contributions **add**.  We keep the neuron-failure ``(N_l - f_l)``
    discounts in both terms (failed neurons amplify neither their own
    errors nor transiting synapse errors), which keeps the sum a sound
    upper bound:

    ``combined <= Fep(neuron_failures) + Fep_syn(synapse_failures)``

    evaluated with the *same* ``(N_l - f_l)`` carrier counts.
    """
    f, n, w, k = _validate(
        neuron_failures, layer_sizes, weight_maxes, lipschitz, capacity
    )
    s = _nonnegative(synapse_failures, n.size + 1, "synapse failure counts")
    # Lemma 2: a faulty stage-l synapse is a layer-l error of C*K*w_m^(l);
    # one into the linear output node adds C*w_m^(L+1) directly.
    sources = capacity * (f + s[:-1] * w[:-1] * k)
    return float(
        _propagate(sources, f, n, w, k).sum() + capacity * s[-1] * w[-1]
    )


def network_combined_fep(
    network: FeedForwardNetwork,
    neuron_failures: Sequence[int],
    synapse_failures: Sequence[int],
    *,
    capacity: Optional[float] = None,
    mode: str = "byzantine",
) -> float:
    """Combined neuron+synapse bound for a concrete network."""
    c = _network_capacity(network, capacity, mode)
    return combined_fep(
        neuron_failures,
        synapse_failures,
        network.layer_sizes,
        network.weight_maxes(),
        network.lipschitz_constant,
        c,
    )


# ---------------------------------------------------------------------------
# Precision / memory-cost reduction (Theorem 5)
# ---------------------------------------------------------------------------


def precision_error_bound(
    lambdas: Sequence[float],
    layer_sizes: Sequence[int],
    weight_maxes: Sequence[float],
    lipschitz: float,
) -> float:
    """Theorem 5: output error when *every* neuron of layer ``l`` carries
    an implementation error of magnitude at most ``lambda_l``::

        |Fneu - Flambda| <= sum_{l=1}^{L} K^(L-l) * lambda_l
                              * prod_{l'=l}^{L} N_l' * w_m^(l'+1)

    This is the paper's first theoretical quantification of the
    precision-reduction trade-offs observed experimentally in Proteus
    [31]; :mod:`repro.quantization` produces the ``lambda_l`` for
    concrete fixed-point schemes.
    """
    f, n, w, k = _validate(None, layer_sizes, weight_maxes, lipschitz)
    lam = _nonnegative(lambdas, n.size, "lambdas")
    # Every neuron of layer l errs, so layer l's error is lambda_l*N_l.
    return float(_propagate(lam * n, f, n, w, k).sum())


def network_precision_bound(
    network: FeedForwardNetwork,
    lambdas: Sequence[float],
) -> float:
    """Theorem-5 bound for a concrete network."""
    return precision_error_bound(
        lambdas,
        network.layer_sizes,
        network.weight_maxes(),
        network.lipschitz_constant,
    )
