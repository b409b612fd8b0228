"""Pruning: the dual of crashing (paper, Introduction).

"If the failures of a number of neurons do not impact the overall
result, then these neurons could have been eliminated from the design
of that network in the first place."  Pruning makes that observation
operational: removing a neuron is *exactly* a permanent crash, so

* the accuracy cost of pruning a set S is bounded by the crash-mode
  Fep of S's per-layer distribution (testable), and
* a tolerated distribution is a *certified pruning budget*: the
  pruned network provably stays an epsilon-approximation.

Unlike a crash, pruning actually shrinks the network, so this module
also rebuilds the smaller :class:`FeedForwardNetwork` (used to trade
certified robustness back for memory/latency when deploying on
constrained hardware).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..core.bounds import _validate_epsilons
from ..core.fep import network_fep
from ..network.layers import DenseLayer
from ..network.model import FeedForwardNetwork, NeuronAddress

__all__ = [
    "prune_neurons",
    "lowest_influence_neurons",
    "certified_prune",
]


def prune_neurons(
    network: FeedForwardNetwork,
    addresses: Iterable["NeuronAddress | tuple[int, int]"],
) -> FeedForwardNetwork:
    """Physically remove the listed neurons (dense networks only).

    Equivalent to permanently crashing them: the returned network's
    output equals the crashed network's output for every input (tested
    property).  Removing all of a layer is rejected.
    """
    victims: dict[int, set[int]] = {}
    for addr in addresses:
        addr = network.check_address(addr)
        victims.setdefault(addr.layer, set()).add(addr.index)
    for layer in network.layers:
        if not isinstance(layer, DenseLayer):
            raise TypeError(
                "prune_neurons supports dense layers only "
                f"(got {type(layer).__name__})"
            )
    for l, idxs in victims.items():
        if len(idxs) >= network.layer_sizes[l - 1]:
            raise ValueError(f"cannot prune all {len(idxs)} neurons of layer {l}")

    keep_per_layer = []
    for l, width in enumerate(network.layer_sizes, start=1):
        gone = victims.get(l, set())
        keep_per_layer.append(np.array([i for i in range(width) if i not in gone]))

    new_layers = []
    prev_keep: Optional[np.ndarray] = None
    for l0, layer in enumerate(network.layers):
        w = layer.dense_weights()
        keep = keep_per_layer[l0]
        w_new = w[keep, :]
        if prev_keep is not None:
            w_new = w_new[:, prev_keep]
        bias_new = layer.bias[keep] if layer.use_bias else None
        new_layers.append(
            DenseLayer(
                w_new.shape[1],
                w_new.shape[0],
                layer.activation,
                weights=w_new,
                bias=bias_new,
                use_bias=layer.use_bias,
            )
        )
        prev_keep = keep
    out_w = network.output_weights[:, keep_per_layer[-1]]
    return FeedForwardNetwork(new_layers, out_w, network.output_bias)


def lowest_influence_neurons(
    network: FeedForwardNetwork,
    distribution: Sequence[int],
    x: np.ndarray,
) -> list[NeuronAddress]:
    """Per layer, the ``f_l`` neurons whose removal hurts least.

    Influence = mean |output sensitivity x nominal emission| over the
    probe batch — the same first-order damage the adversary maximises
    (:func:`repro.faults.adversary.adversarial_crash_scenario`),
    minimised instead.
    """
    from ..faults.adversary import output_sensitivities

    if len(distribution) != network.depth:
        raise ValueError(
            f"distribution length {len(distribution)} != depth {network.depth}"
        )
    sens = output_sensitivities(network, x)
    hidden = network.hidden_outputs(x)
    picks: list[NeuronAddress] = []
    for l, count in enumerate(distribution, start=1):
        count = int(count)
        if count == 0:
            continue
        if count >= network.layer_sizes[l - 1]:
            raise ValueError(f"cannot prune all of layer {l}")
        damage = (sens[l - 1] * np.abs(hidden[l - 1])).mean(axis=0)
        order = np.argsort(damage)[:count]
        picks.extend(NeuronAddress(l, int(i)) for i in order)
    return picks


def certified_prune(
    network: FeedForwardNetwork,
    epsilon: float,
    epsilon_prime: float,
    x: np.ndarray,
    *,
    distribution: Optional[Sequence[int]] = None,
) -> tuple[FeedForwardNetwork, float]:
    """Prune a *tolerated* distribution of lowest-influence neurons.

    Returns ``(pruned_network, fep_bound)``.  By Theorem 3 the pruned
    network is still an epsilon-approximation of whatever the original
    epsilon'-approximated — no retraining, no re-evaluation needed
    (though callers are encouraged to re-measure; the bound is
    worst-case, the realised loss is usually far smaller).
    """
    from ..core.tolerance import greedy_max_total_failures

    budget = _validate_epsilons(epsilon, epsilon_prime)
    if distribution is None:
        distribution = greedy_max_total_failures(
            network, epsilon, epsilon_prime, mode="crash"
        )
    distribution = tuple(int(f) for f in distribution)
    fep = network_fep(network, distribution, mode="crash")
    if fep > budget + 1e-12:
        raise ValueError(
            f"distribution {distribution} is not tolerated "
            f"(Fep {fep:.6g} > budget {budget:.6g})"
        )
    victims = lowest_influence_neurons(network, distribution, x)
    if not victims:
        return network.copy(), 0.0
    return prune_neurons(network, victims), fep
