"""Worst-case (adversarial) failure construction and input search.

The tightness halves of Theorems 1-3 are *constructive*: the adversary
crashes the neurons with the highest weights, on inputs where those
neurons were emitting values close to the activation maximum, and
Byzantine neurons saturate the transmission capacity in the most
harmful direction.  This module operationalises that adversary:

* :func:`output_sensitivities` — exact gradients of the output w.r.t.
  each neuron's emitted value (the "weight" of a failure);
* :func:`adversarial_byzantine_scenario` — victims and emission signs
  chosen by sensitivity;
* :func:`adversarial_crash_scenario` — victims whose *removal* hurts
  most (sensitivity x nominal emission);
* :func:`worst_input_search` — random + local search over the input
  cube maximising the realised output error for a fixed scenario.

Together these provide the empirical lower bound that the experiments
compare against the analytic Fep upper bound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..network.model import FeedForwardNetwork, NeuronAddress
from .injector import FaultInjector
from .masks import MaskCampaignEngine
from .scenarios import FailureScenario
from .types import ByzantineFault, CrashFault

__all__ = [
    "output_sensitivities",
    "adversarial_byzantine_scenario",
    "adversarial_crash_scenario",
    "worst_input_search",
]


def output_sensitivities(
    network: FeedForwardNetwork, x: np.ndarray
) -> List[np.ndarray]:
    """Gradients ``d Fneu / d y^(l)_i`` for every hidden layer.

    Returns a list of length ``L``; entry ``l-1`` has shape
    ``(B, N_l)`` (single-output networks; for multi-output nets the
    max-|.|-over-outputs gradient is returned).

    The sensitivity of the output to neuron ``(l, i)``'s emission is
    exactly the coefficient that multiplies an infinitesimal error
    ``lambda^(l)_i`` in the forward error propagation — the empirical
    counterpart of the per-layer Fep terms.
    """
    net = network
    xb, _ = net._as_batch(x)
    B = xb.shape[0]

    # Forward pass keeping pre-activations.
    pre: List[np.ndarray] = []
    y = xb
    for layer in net.layers:
        s = layer.pre_activation(y)
        pre.append(s)
        y = layer.activation(s)

    sens: List[Optional[np.ndarray]] = [None] * net.depth
    # g[b, i] = d out / d y^(L)_i ; reduce multi-output by max-abs later.
    # We propagate one gradient per output then take the max over outputs.
    grads = np.broadcast_to(
        net.output_weights[:, None, :], (net.n_outputs, B, net.layer_sizes[-1])
    ).copy()  # (O, B, N_L)
    sens[net.depth - 1] = np.max(np.abs(grads), axis=0)
    for l0 in range(net.depth - 1, 0, -1):
        layer = net.layers[l0]
        dphi = layer.activation.derivative(pre[l0])  # (B, N_l0+1)
        w = layer.dense_weights()  # (N_{l0+1}, N_{l0})
        grads = (grads * dphi[None]) @ w  # (O, B, N_{l0})
        sens[l0 - 1] = np.max(np.abs(grads), axis=0)
    return [np.asarray(s) for s in sens]


def _signed_sensitivities(
    network: FeedForwardNetwork, x: np.ndarray
) -> List[np.ndarray]:
    """Like :func:`output_sensitivities` but signed, first output only."""
    net = network
    xb, _ = net._as_batch(x)
    pre: List[np.ndarray] = []
    y = xb
    for layer in net.layers:
        s = layer.pre_activation(y)
        pre.append(s)
        y = layer.activation(s)
    grads = np.broadcast_to(
        net.output_weights[0][None, :], (xb.shape[0], net.layer_sizes[-1])
    ).copy()
    out: List[np.ndarray] = [grads]
    for l0 in range(net.depth - 1, 0, -1):
        layer = net.layers[l0]
        dphi = layer.activation.derivative(pre[l0])
        grads = (grads * dphi) @ layer.dense_weights()
        out.append(grads)
    out.reverse()
    return out


def adversarial_byzantine_scenario(
    network: FeedForwardNetwork,
    distribution: Sequence[int],
    x: np.ndarray,
    *,
    capacity: Optional[float] = 1.0,
    name: str = "adversarial-byzantine",
) -> FailureScenario:
    """Byzantine scenario maximising first-order output damage.

    Victims in each layer are the neurons with the highest mean
    |sensitivity| over the input batch; each emits the capacity with
    the sign of its (mean) sensitivity, i.e. pushes the output in a
    coherent direction — the equality-case alignment ("positively
    proportional" contributions) of the tightness proofs.
    """
    if len(distribution) != network.depth:
        raise ValueError(
            f"distribution length {len(distribution)} != depth {network.depth}"
        )
    signed = _signed_sensitivities(network, x)
    faults = {}
    for l, count in enumerate(distribution, start=1):
        count = int(count)
        if count == 0:
            continue
        mean_signed = signed[l - 1].mean(axis=0)
        order = np.argsort(np.abs(mean_signed))[::-1][:count]
        for i in order:
            sign = 1 if mean_signed[i] >= 0 else -1
            value = None if capacity is not None else 1.0
            faults[NeuronAddress(l, int(i))] = ByzantineFault(value=value, sign=sign)
    return FailureScenario(faults, name=name)


def adversarial_crash_scenario(
    network: FeedForwardNetwork,
    distribution: Sequence[int],
    x: np.ndarray,
    *,
    name: str = "adversarial-crash",
) -> FailureScenario:
    """Crash the neurons whose removal perturbs the output most.

    First-order damage of crashing neuron ``(l, i)`` is
    ``|sensitivity * y_nominal|``; victims are ranked by its mean over
    the batch — the multilayer generalisation of "kill the key neurons
    with highest weights on inputs where they output close to 1"
    (Theorem 1's adversary).
    """
    if len(distribution) != network.depth:
        raise ValueError(
            f"distribution length {len(distribution)} != depth {network.depth}"
        )
    sens = output_sensitivities(network, x)
    hidden = network.hidden_outputs(x)
    faults = {}
    for l, count in enumerate(distribution, start=1):
        count = int(count)
        if count == 0:
            continue
        damage = (sens[l - 1] * np.abs(hidden[l - 1])).mean(axis=0)
        order = np.argsort(damage)[::-1][:count]
        for i in order:
            faults[NeuronAddress(l, int(i))] = CrashFault()
    return FailureScenario(faults, name=name)


def worst_input_search(
    injector: FaultInjector,
    scenario: FailureScenario,
    *,
    n_candidates: int = 256,
    refine_steps: int = 30,
    step: float = 0.25,
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, float]:
    """Search the input cube ``[0,1]^d`` for the error-maximising input.

    Random multistart (including the cube corners for small ``d``)
    followed by shrinking coordinate perturbations.  Returns
    ``(x_star, error)``.

    This is the "costly experiment of looking at all the possible
    inputs" the paper contrasts with the analytic bound — here reduced
    to a stochastic search usable as an empirical lower bound.
    """
    rng = rng if rng is not None else np.random.default_rng()
    d = injector.network.input_dim

    candidates = [rng.random((n_candidates, d))]
    if d <= 10:
        corners = np.array(
            np.meshgrid(*([[0.0, 1.0]] * d), indexing="ij")
        ).reshape(d, -1).T
        candidates.append(corners)
    xs = np.vstack(candidates)
    batch = injector.compile_batch([scenario])

    def errors(points: np.ndarray) -> np.ndarray:
        """Per-point output errors; the faulty and the nominal outputs
        come from one engine, so a fault-free scenario reads 0."""
        engine = MaskCampaignEngine(injector, points)
        return np.abs(engine.outputs(batch)[0] - engine.nominal).max(axis=1)

    errs = errors(xs)
    best_idx = int(np.argmax(errs))
    best_x = xs[best_idx].copy()
    best_err = float(errs[best_idx])

    scale = step
    for _ in range(refine_steps):
        proposals = np.clip(
            best_x[None, :] + rng.normal(0.0, scale, size=(16, d)), 0.0, 1.0
        )
        perrs = errors(proposals)
        k = int(np.argmax(perrs))
        if perrs[k] > best_err:
            best_err = float(perrs[k])
            best_x = proposals[k].copy()
        else:
            scale *= 0.7
    return best_x, best_err
