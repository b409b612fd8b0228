"""Precision allocation: the inverse of Theorem 5.

Theorem 5 maps per-layer errors ``lambda_l`` to an output-error bound.
Deployment asks the inverse: *given an output-error budget, how few
bits can each layer use?*  Because the bound is a weighted sum
``sum_l c_l * lambda_l`` with per-layer propagation coefficients
``c_l`` computable from the topology, the inverse is tractable:

* :func:`layer_error_coefficients` — the ``c_l``;
* :func:`uniform_bit_allocation` — one bit-width for every layer;
* :func:`greedy_bit_allocation` — start at a floor and add bits where
  the marginal bound reduction per bit is largest, until the budget is
  met (deeper-amplified layers naturally receive more bits when
  ``K * N * w_m > 1``);
* :func:`memory_savings` — the headline number: fraction of activation
  memory saved vs a 64-bit baseline.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.fep import _propagate, _validate
from ..network.model import FeedForwardNetwork
from .quantizers import FixedPointQuantizer, QuantizedNetwork

__all__ = [
    "layer_error_coefficients",
    "uniform_bit_allocation",
    "greedy_bit_allocation",
    "build_quantized_network",
    "memory_savings",
]


def layer_error_coefficients(network: FeedForwardNetwork) -> np.ndarray:
    """Coefficients ``c_l`` with ``bound = sum_l c_l * lambda_l``.

    ``c_l = K**(L-l) * prod_{l'=l..L} N_l' * w_m^(l'+1)`` — the
    Theorem-5 propagation weight of layer ``l``'s implementation error.
    """
    f, n, w, k = _validate(
        None,
        network.layer_sizes,
        network.weight_maxes(),
        network.lipschitz_constant,
    )
    return _propagate(n, f, n, w, k)


def _bound_for_bits(coeffs: np.ndarray, bits: np.ndarray) -> float:
    # Round-to-nearest fixed point: lambda_l = 2**-(bits+1).
    lambdas = 2.0 ** (-(bits.astype(np.float64) + 1.0))
    return float(np.sum(coeffs * lambdas))


def uniform_bit_allocation(
    network: FeedForwardNetwork,
    budget: float,
    *,
    max_bits: int = 52,
) -> int:
    """Smallest single bit-width ``b`` whose Theorem-5 bound fits ``budget``.

    Raises when even ``max_bits`` cannot meet the budget.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    coeffs = layer_error_coefficients(network)
    for b in range(1, max_bits + 1):
        bits = np.full(network.depth, b)
        if _bound_for_bits(coeffs, bits) <= budget:
            return b
    raise ValueError(
        f"budget {budget:g} unreachable even at {max_bits} bits "
        f"(bound floor {_bound_for_bits(coeffs, np.full(network.depth, max_bits)):g})"
    )


def greedy_bit_allocation(
    network: FeedForwardNetwork,
    budget: float,
    *,
    min_bits: int = 1,
    max_bits: int = 52,
) -> tuple[int, ...]:
    """Per-layer bit-widths meeting ``budget`` with few total bits.

    Greedy: start every layer at ``min_bits``; while the bound exceeds
    the budget, grant one bit to the layer with the largest current
    bound contribution (each bit halves that layer's ``lambda_l``).
    Greedy on this objective is optimal for halving-decrements of a
    separable sum.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    coeffs = layer_error_coefficients(network)
    bits = np.full(network.depth, int(min_bits))
    while _bound_for_bits(coeffs, bits) > budget:
        contributions = coeffs * 2.0 ** (-(bits + 1.0))
        order = np.argsort(contributions)[::-1]
        granted = False
        for idx in order:
            if bits[idx] < max_bits:
                bits[idx] += 1
                granted = True
                break
        if not granted:
            raise ValueError(
                f"budget {budget:g} unreachable with max_bits={max_bits}"
            )
    return tuple(int(b) for b in bits)


def build_quantized_network(
    network: FeedForwardNetwork,
    bits: "int | Sequence[int]",
) -> QuantizedNetwork:
    """Wrap ``network`` with fixed-point quantisers of the given widths."""
    if isinstance(bits, (int, np.integer)):
        bits = [int(bits)] * network.depth
    bits = [int(b) for b in bits]
    if len(bits) != network.depth:
        raise ValueError(f"need {network.depth} bit-widths, got {len(bits)}")
    return QuantizedNetwork(network, [FixedPointQuantizer(b) for b in bits])


def memory_savings(
    network: FeedForwardNetwork,
    bits: "int | Sequence[int]",
    *,
    full_precision_bits: int = 64,
) -> float:
    """Fraction of activation memory saved vs the full-precision net."""
    qnet = build_quantized_network(network, bits)
    full = network.num_neurons * full_precision_bits
    return 1.0 - qnet.memory_bits(full_precision_bits) / full
