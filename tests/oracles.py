"""Test oracles: the slow, obviously-correct twins of hot paths in ``src/``.

Each function here is the reference a vectorised kernel is checked
against — bitwise where the contract is bitwise, to float
associativity otherwise.  None of them is imported by the package.

* :func:`scalar_errors` — per-scenario output errors through the
  scalar :meth:`FaultInjector.run` path, the oracle for every batched
  evaluation (:class:`~repro.faults.masks.MaskCampaignEngine`);
* :func:`apply_synapse_corrections_reference` /
  :func:`corrected_first_layer_reference` — the plain ``np.add.at``
  scatter the segment-sum synapse kernels must reproduce bit for bit;
  :func:`use_scatter_reference` swaps them into the engine;
* :func:`episode_runs_scalar` — per-column run-length encoding, the
  oracle of :func:`repro.chaos.telemetry.episode_runs`;
* :func:`mean_failures_to_violation_scalar` — the one-crash-at-a-time
  loop :func:`repro.faults.reliability.mean_failures_to_violation`
  must match permutation for permutation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.faults.injector import (
    FaultInjector,
    _bound_deviation,
    _synapse_emissions,
)
from repro.faults.scenarios import FailureScenario
from repro.faults.types import CrashFault


def scalar_errors(injector, x, scenarios, seed=1234) -> np.ndarray:
    """Per-scenario ``output_error`` through the scalar injector."""
    rng = np.random.default_rng(seed)
    return np.array(
        [injector.output_error(x, sc, rng=rng) for sc in scenarios]
    )


def apply_synapse_corrections_reference(
    pre, stage, source, weights, capacity, rng=None
):
    """The per-entry ``np.add.at`` scatter, channel by channel (zero,
    add, noise) — the bitwise reference of
    :func:`repro.faults.injector.apply_synapse_corrections`."""
    if stage is None or stage.is_empty:
        return pre
    B = pre.shape[1]
    view = pre.transpose(0, 2, 1)  # (S, N_out, B) view: scatter target

    if stage.zero_s.size:
        dev = _bound_deviation(
            -_synapse_emissions(source, stage.zero_s, stage.zero_i), capacity
        )
        np.add.at(
            view,
            (stage.zero_s, stage.zero_j),
            weights[stage.zero_j, stage.zero_i][:, None] * dev,
        )
    if stage.add_s.size:
        dev = _bound_deviation(stage.add_values, capacity)
        np.add.at(
            view,
            (stage.add_s, stage.add_j),
            (weights[stage.add_j, stage.add_i] * dev)[:, None],
        )
    if stage.noise_s.size:
        if rng is None:
            raise ValueError(
                "synapse noise channels need an rng; pass the campaign "
                "generator"
            )
        dev = _bound_deviation(
            rng.standard_normal((stage.noise_s.size, B))
            * stage.noise_sigma[:, None],
            capacity,
        )
        np.add.at(
            view,
            (stage.noise_s, stage.noise_j),
            weights[stage.noise_j, stage.noise_i][:, None] * dev,
        )
    return pre


def corrected_first_layer_reference(engine, Y, st0, rng):
    """Dense stage-1 corrections: broadcast the cached pre-activations,
    scatter every correction, squash the whole ``(S, B, N_1)`` tensor.

    Drop-in for ``MaskCampaignEngine._corrected_first_layer``, which
    touches only the corrected cells.
    """
    S, B = Y.shape[:2]
    Y[...] = engine._ensure_base_pre1()
    apply_synapse_corrections_reference(
        Y, st0, engine.xb, engine._stage_weights(0), engine.capacity, rng
    )
    Y2 = Y.reshape(S * B, -1)
    engine.network.layers[0].activation.evaluate_into(Y2, Y2)
    engine._post_activation(0, Y2)


def use_scatter_reference(monkeypatch) -> None:
    """Route every engine synapse correction through the reference."""
    monkeypatch.setattr(
        "repro.faults.masks.apply_synapse_corrections",
        apply_synapse_corrections_reference,
    )
    monkeypatch.setattr(
        "repro.faults.masks.MaskCampaignEngine._corrected_first_layer",
        corrected_first_layer_reference,
    )


def episode_runs_scalar(
    viol: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column Python oracle for :func:`repro.chaos.telemetry.episode_runs`."""
    viol = np.asarray(viol, dtype=bool)
    rows: List[Tuple[int, int, int]] = []
    if viol.size:
        E, R = viol.shape
        for r in range(R):
            e = 0
            while e < E:
                if viol[e, r]:
                    start = e
                    while e < E and viol[e, r]:
                        e += 1
                    rows.append((r, start, e - start))
                else:
                    e += 1
    if not rows:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    rep, onset, length = (np.asarray(c, dtype=np.int64) for c in zip(*rows))
    return rep, onset, length


def mean_failures_to_violation_scalar(
    network,
    epsilon: float,
    epsilon_prime: float,
    x: np.ndarray,
    *,
    n_trials: int = 200,
    seed: Optional[int] = 0,
) -> float:
    """The one-crash-at-a-time loop
    :func:`repro.faults.reliability.mean_failures_to_violation` must
    match (same seed, same permutations, same counts)."""
    budget = epsilon - epsilon_prime
    injector = FaultInjector(network, capacity=network.output_bound)
    rng = np.random.default_rng(seed)
    addresses = list(network.iter_addresses())
    counts = []
    for _ in range(n_trials):
        order = rng.permutation(len(addresses))
        faults = {}
        violated_at = len(addresses)
        for step, idx in enumerate(order, start=1):
            faults[addresses[idx]] = CrashFault()
            scenario = FailureScenario(dict(faults))
            err = injector.output_error(x, scenario)
            if err > budget + 1e-12:
                violated_at = step
                break
        counts.append(violated_at)
    return float(np.mean(counts))
