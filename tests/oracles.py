"""Test oracles: the slow, obviously-correct twins of hot paths in ``src/``.

Each function here is the reference a vectorised kernel is checked
against — bitwise where the contract is bitwise, to float
associativity otherwise.  None of them is imported by the package.

* :func:`run_reference` — one scenario neuron by neuron and synapse by
  synapse, each fault through its own :meth:`FaultModel.apply` under
  the deviation bound (:func:`apply_neuron_fault`), with optional
  per-layer taps: the oracle of the one evaluator in ``src/``,
  :class:`~repro.faults.masks.MaskCampaignEngine` (and so of
  :meth:`FaultInjector.run`, which goes through it);
  :func:`reference_error` / :func:`scalar_errors` are its output errors
  against the fault-free :meth:`FeedForwardNetwork.forward`.  The
  message-passing simulator in ``message_passing/`` is the second,
  process-grained oracle;
* :func:`apply_mask_channels_reference` — every permanent channel as
  one masked write over the whole ``(S, B, N)`` tensor, the form the
  gather/compute/scatter kernel of
  :func:`repro.faults.injector.apply_mask_channels` must reproduce bit
  for bit, RNG stream included;
* :func:`apply_synapse_corrections_reference` /
  :func:`stage1_cells_reference` — the plain ``np.add.at``
  scatter the segment-sum synapse kernels must reproduce bit for bit;
  :func:`use_scatter_reference` swaps them into the engine;
* :func:`episode_runs_scalar` — per-column run-length encoding, the
  oracle of :func:`repro.chaos.telemetry.episode_runs`;
* :func:`mean_failures_to_violation_scalar` — the one-crash-at-a-time
  loop :func:`repro.faults.reliability.mean_failures_to_violation`
  must match permutation for permutation;
* :func:`simulate_block_reference` / :class:`PerBlockDriver` — the
  chaos epoch loop one replica block at a time on a plain generator,
  the oracle of the lockstep job loop
  (:func:`repro.chaos.campaign._simulate_job`);
* :class:`DamageAttributionOracle` — naive per-step damage counts, the
  oracle of the recorder's ground-truth channels;
* :func:`fep_terms_reference` — Theorem 2's per-layer terms as one
  reversed ``cumprod``, the bits :mod:`repro.core.fep`'s Fep, its
  decomposition and ``fep_many`` must keep; :func:`synapse_fep_loops`,
  :func:`heterogeneous_fep_loops`, :func:`combined_fep_loops` and
  :func:`precision_error_bound_loops` — the paper's other bounds as
  explicit per-layer loops.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.chaos.deployment import DeployedNetwork
from repro.chaos.processes import FaultProcess
from repro.chaos.telemetry import TelemetryRecorder
from repro.faults.injector import (
    FaultInjector,
    _bound_deviation,
    _synapse_emissions,
)
from repro.faults.masks import MaskCampaignEngine
from repro.faults.scenarios import FailureScenario
from repro.faults.types import (
    CrashFault,
    IntermittentFault,
    fault_is_stochastic,
    unseeded_rng,
)


def apply_neuron_fault(fault, nominal, capacity, rng=None) -> np.ndarray:
    """Faulty emission under the deviation-bounded semantics.

    Crash emits exactly 0; every other fault emits
    ``nominal + clip(requested - nominal, -C, +C)`` (Theorem 2's
    ``y + lambda`` with ``|lambda| <= C``).  Unbounded capacity passes
    finite requests through and rejects capacity sentinels.

    Intermittent faults are resolved here (not via
    ``IntermittentFault.apply``) so the wrapped fault keeps its own
    semantics elementwise: an intermittent *crash* emits exactly 0 on
    hit (Definition 2: crashes do not interact with the capacity).
    """
    nominal = np.asarray(nominal, dtype=np.float64)
    if isinstance(fault, CrashFault):
        return np.zeros_like(nominal)
    if isinstance(fault, IntermittentFault):
        if rng is None:
            rng = unseeded_rng("apply_neuron_fault(IntermittentFault)")
        hit = rng.random(nominal.shape) < fault.p
        faulty = apply_neuron_fault(fault.fault, nominal, capacity, rng)
        return np.where(hit, faulty, nominal)
    requested = fault.apply(nominal, rng=rng)
    if capacity is None:
        if not np.all(np.isfinite(requested)):
            raise ValueError(
                "capacity-saturating fault (value=None) under unbounded "
                "transmission: specify an explicit Byzantine value"
            )
        return requested
    deviation = np.clip(requested - nominal, -capacity, capacity)
    return nominal + deviation


def run_reference(
    injector, x, scenario, *, rng=None, return_taps=False
):
    """``Ffail(X)`` for one scenario, one fault at a time.

    Layer by layer: each faulty synapse adds ``w_ji * clip(delivered -
    y_i, ±C)`` to its receiver's sum (``fault.apply`` gives the
    delivered emission), then each faulty neuron's column goes through
    :func:`apply_neuron_fault`, in the scenario's dict order.  Returns
    ``(B, n_outputs)`` outputs, or ``(outputs, taps)`` with the
    per-layer faulty activations when ``return_taps`` is set.
    """
    scenario.validate(injector.network)
    net = injector.network
    capacity = injector.capacity
    xb, squeeze = net._as_batch(x)
    if rng is None:
        stochastic = any(
            fault_is_stochastic(f)
            for faults in (scenario.neuron_faults, scenario.synapse_faults)
            for f in faults.values()
        )
        rng = (
            unseeded_rng("run_reference")
            if stochastic
            else np.random.default_rng()
        )
    neuron_faults = [[] for _ in range(net.depth)]
    for addr, fault in scenario.neuron_faults.items():
        neuron_faults[addr.layer - 1].append((addr.index, fault))
    synapse_faults = [[] for _ in range(net.depth + 1)]
    for (l, j, i), fault in scenario.synapse_faults.items():
        synapse_faults[l - 1].append((j, i, fault))

    def corrupt(sums, emissions, weights, faults):
        sums = sums.copy()
        for j, i, fault in faults:
            delivered = fault.apply(emissions[:, i], rng=rng, capacity=capacity)
            sums[:, j] += weights[j, i] * _bound_deviation(
                delivered - emissions[:, i], capacity
            )
        return sums

    y = xb
    taps: List[np.ndarray] = []
    for l0, layer in enumerate(net.layers):
        s = layer.pre_activation(y)
        if synapse_faults[l0]:
            s = corrupt(s, y, layer.dense_weights(), synapse_faults[l0])
        y = layer.activation(s)
        if neuron_faults[l0]:
            y = y.copy()
            for i, fault in neuron_faults[l0]:
                y[:, i] = apply_neuron_fault(fault, y[:, i], capacity, rng)
        if return_taps:
            taps.append(y)
    out = net.readout(y)
    if synapse_faults[net.depth]:
        out = corrupt(out, y, net.output_weights, synapse_faults[net.depth])
    if squeeze:
        out = out[0]
    return (out, taps) if return_taps else out


def reference_error(injector, x, scenario, *, rng=None, reduction="max"):
    """``output_error`` through :func:`run_reference`, against the
    fault-free :meth:`FeedForwardNetwork.forward`."""
    xb, _ = injector.network._as_batch(x)
    faulty = run_reference(injector, xb, scenario, rng=rng)
    err = np.abs(injector.network.forward(xb) - faulty).max(axis=1)
    return float(err.max() if reduction == "max" else err.mean())


def scalar_errors(injector, x, scenarios, seed=1234) -> np.ndarray:
    """Per-scenario :func:`reference_error`, one generator for all."""
    rng = np.random.default_rng(seed)
    return np.array(
        [reference_error(injector, x, sc, rng=rng) for sc in scenarios]
    )


def apply_mask_channels_reference(
    Y, zero, set_mask, set_values, add_mask, add_values, capacity, *,
    scale_mask=None, scale_values=None, noise_mask=None, noise_sigma=None,
    gate_p=None, rng=None,
):
    """One layer's fault channels as masked writes over the whole
    ``(S, B, N)`` tensor: each permanent channel is an ``np.copyto`` /
    ``np.add`` with a broadcast ``where=`` mask.  Gated cells draw
    their ``(K, B)`` Bernoulli pattern from ``rng`` per channel (zero,
    set, scale, add), in row-major cell order, then noise draws — the
    draw order of the production kernel."""
    gated_cells = gate_p is not None and np.any(gate_p < 1.0)
    Yt = Y.transpose(0, 2, 1)

    def split(mask):
        if not gated_cells:
            return mask, None
        g = mask & (gate_p < 1.0)
        if not g.any():
            return mask, None
        rows, cols = np.nonzero(g)
        hit = rng.random((rows.size, Y.shape[1])) < gate_p[rows, cols][:, None]
        return mask & ~g, (rows, cols, hit)

    def gated_write(gated, fn):
        rows, cols, hit = gated
        cells = Yt[rows, cols]
        Yt[rows, cols] = np.where(hit, fn(cells, rows, cols), cells)

    def clip(vals, ref):
        if capacity is None:
            return vals
        return np.clip(vals, ref - capacity, ref + capacity)

    if zero.any():
        dense, gated = split(zero)
        np.copyto(Y, 0.0, where=dense[:, None, :])
        if gated is not None:
            gated_write(gated, lambda c, r, k: 0.0)
    if set_mask.any():
        dense, gated = split(set_mask)
        vals = clip(np.broadcast_to(set_values[:, None, :], Y.shape), Y)
        np.copyto(Y, vals, where=dense[:, None, :], casting="unsafe")
        if gated is not None:
            gated_write(gated, lambda c, r, k: clip(
                np.broadcast_to(set_values[r, k][:, None], c.shape), c
            ))
    if scale_mask is not None and scale_mask.any():
        dense, gated = split(scale_mask)
        vals = clip(scale_values[:, None, :] * Y, Y)
        np.copyto(Y, vals, where=dense[:, None, :], casting="unsafe")
        if gated is not None:
            gated_write(gated, lambda c, r, k: clip(
                scale_values[r, k][:, None] * c, c
            ))
    if add_mask.any():
        dense, gated = split(add_mask)
        add = add_values
        if capacity is not None:
            add = np.clip(add, -capacity, capacity)
        np.add(Y, add[:, None, :], out=Y, where=dense[:, None, :],
               casting="unsafe")
        if gated is not None:
            rows, cols, hit = gated
            cells = Yt[rows, cols]
            cells += np.where(hit, add[rows, cols][:, None], 0.0)
            Yt[rows, cols] = cells
    if noise_mask is not None and noise_mask.any():
        rows, cols = np.nonzero(noise_mask)
        delta = (
            rng.standard_normal((rows.size, Y.shape[1]))
            * noise_sigma[rows, cols][:, None]
        )
        if capacity is not None:
            np.clip(delta, -capacity, capacity, out=delta)
        if gated_cells:
            gp = gate_p[rows, cols]
            flaky = gp < 1.0
            if flaky.any():
                delta[flaky] *= (
                    rng.random((int(flaky.sum()), Y.shape[1]))
                    < gp[flaky][:, None]
                )
        Yt[rows, cols] += delta
    return Y


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


def stage1_cells_reference(engine, st0, rng):
    """Dense stage-1 corrections: broadcast the cached pre-activations,
    scatter every correction, squash the whole ``(S, B, N_1)`` tensor,
    then read the corrected targets back.

    Drop-in for ``MaskCampaignEngine._stage1_cells``, which touches
    only the corrected cells.
    """
    s = np.concatenate((st0.zero_s, st0.add_s, st0.noise_s))
    j = np.concatenate((st0.zero_j, st0.add_j, st0.noise_j))
    pre0 = engine._base_pre[0]
    n = pre0.shape[1]
    Y = np.empty((int(s.max()) + 1,) + pre0.shape, dtype=pre0.dtype)
    Y[...] = pre0
    apply_synapse_corrections_reference(
        Y, st0, engine.xb, engine._stage_weights(0), engine.capacity, rng
    )
    engine.network.layers[0].activation.evaluate_into(Y, Y)
    engine._post_activation(0, Y)
    u_s, u_j = np.divmod(np.unique(s * n + j), n)
    return u_s, u_j, Y.transpose(0, 2, 1)[u_s, u_j]


def use_scatter_reference(monkeypatch) -> None:
    """Route every engine synapse correction through the reference."""
    monkeypatch.setattr(
        "repro.faults.masks.apply_synapse_corrections",
        apply_synapse_corrections_reference,
    )
    monkeypatch.setattr(
        "repro.faults.masks.MaskCampaignEngine._stage1_cells",
        stage1_cells_reference,
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
            err = reference_error(injector, x, scenario)
            if err > budget + 1e-12:
                violated_at = step
                break
        counts.append(violated_at)
    return float(np.mean(counts))


class DamageAttributionOracle:
    """Naive per-step damage counts of a chaos campaign.

    :meth:`wrap` the campaign's processes (serial runs only: the
    wrappers log into this object).  Around every process step the
    wrapper counts, replica by replica and layer by layer, the crashed
    and the intermittent (``transient_p > 0``) components.  Before an
    epoch's first step that count is the baseline: repairs have
    already zeroed a repaired replica's masks and transients were
    cleared at epoch start.  :meth:`channels` differences the counts
    into ``(crash_counts, transient_counts, process_hits)`` with the
    trace's shapes, blocks joined along the replica axis.
    """

    def __init__(self):
        self.blocks: List[list] = []  # per block: one record per epoch

    def wrap(self, processes) -> list:
        return [
            _CountingProcess(p, i, len(processes), self)
            for i, p in enumerate(processes)
        ]

    def channels(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        crash, trans, hits = [], [], []
        for epochs in self.blocks:
            crash.append(np.array([e["crash"] for e in epochs], np.int32))
            trans.append(np.array([e["trans"] for e in epochs], np.int32))
            steps = [
                [after - before for before, after in
                 zip([e["before"]] + e["after"][:-1], e["after"])]
                for e in epochs
            ]  # (E, P, R)
            hits.append(np.array(steps, np.int32).transpose(1, 0, 2))
        return (
            np.concatenate(crash, axis=1),
            np.concatenate(trans, axis=1),
            np.concatenate(hits, axis=2),
        )


def _layer_counts(state) -> Tuple[list, list]:
    """``(crashed, intermittent)`` per replica per layer, one cell at a
    time."""
    crashed, flaky = [], []
    for r in range(state.n_replicas):
        crashed.append([
            sum(bool(c) for c in state.crash[l0][r])
            for l0 in range(len(state.layer_sizes))
        ])
        flaky.append([
            sum(p > 0.0 for p in state.transient_p[l0][r])
            for l0 in range(len(state.layer_sizes))
        ])
    return crashed, flaky


def _damaged(state) -> np.ndarray:
    crashed, flaky = _layer_counts(state)
    return np.array([sum(c) + sum(f) for c, f in zip(crashed, flaky)])


class _CountingProcess(FaultProcess):
    """A process that logs damage counts around its inner step."""

    def __init__(self, inner, index, n_processes, oracle):
        self.inner = inner
        self.index = index
        self.n_processes = n_processes
        self.oracle = oracle

    def reset(self, n_replicas, layer_sizes):
        super().reset(n_replicas, layer_sizes)
        self.inner.reset(n_replicas, layer_sizes)
        if self.index == 0:
            self.oracle.blocks.append([])

    def step(self, state, rng):
        epochs = self.oracle.blocks[-1]
        if self.index == 0:
            epochs.append({"before": _damaged(state), "after": []})
        self.inner.step(state, rng)
        epochs[-1]["after"].append(_damaged(state))
        if self.index == self.n_processes - 1:
            epochs[-1]["crash"], epochs[-1]["trans"] = _layer_counts(state)

    def on_repair(self, state, replicas):
        self.inner.on_repair(state, replicas)


def evaluate_window_reference(fleet, rng, probe_counts=None) -> np.ndarray:
    """Errors ``(count, R)`` of a fleet's buffered window: every row
    evaluated, epoch-major, in one engine call drawing from ``rng``.

    The full-window form production's grouped, carry-forward
    :meth:`~repro.chaos.deployment.DeployedNetwork.evaluate` must
    reproduce for a one-block fleet — so comparing the two checks the
    skip rule independently.  ``probe_counts`` (per epoch) restricts
    each epoch's reduction to its first ``n_e`` probes.
    """
    w, R = fleet.window.count, fleet.n_replicas
    batch = fleet.window.batch(np.arange(w * R))
    engine = fleet.engine
    if probe_counts is None:
        return engine.evaluate(batch, rng=rng).reshape(w, R)
    outs = engine.outputs(batch, rng=rng)  # (S, B, n_out)
    err = np.abs(
        outs - np.asarray(engine.nominal, dtype=np.float64)[None]
    ).max(axis=2)  # (S, B)
    counts = np.repeat(np.asarray(probe_counts, dtype=np.intp), R)
    err[np.arange(engine.batch_size)[None, :] >= counts[:, None]] = -np.inf
    return err.max(axis=1).reshape(w, R)


def simulate_block_reference(engine, shared: tuple, n_replicas: int, rng):
    """One replica block's chaos lifecycle on one plain generator.

    The per-block epoch loop :func:`repro.chaos.campaign._simulate_job`
    must reproduce block for block: a fleet of this block alone, reset
    on its own, every draw and its window evaluations on ``rng``.
    ``shared`` is the job function's campaign-wide tuple.  Returns the
    block's :class:`~repro.chaos.telemetry.TelemetryTrace`.
    """
    (processes, detectors, policy, epochs, epochs_chunk, epsilon,
     epsilon_prime, probe_counts, ground_truth) = shared
    network = engine.network
    fleet = DeployedNetwork(
        network, engine.xb64, n_replicas, window=epochs_chunk, engine=engine
    )
    state = fleet.state
    for proc in processes:
        proc.reset(n_replicas, network.layer_sizes)
    for det in detectors:
        det.reset(n_replicas)
    policy.reset(network, n_replicas)
    recorder = TelemetryRecorder(
        epochs=epochs,
        n_replicas=n_replicas,
        epsilon=epsilon,
        epsilon_prime=epsilon_prime,
        layer_sizes=network.layer_sizes,
        process_kinds=tuple(type(p).__name__ for p in processes),
        detector_names=tuple(d.name for d in detectors),
        policy_name=policy.name,
        epochs_chunk=epochs_chunk,
        ground_truth=ground_truth,
    )
    state.telemetry = recorder
    budget = epsilon - epsilon_prime
    epoch = 0
    while epoch < epochs:
        w = min(epochs_chunk, epochs - epoch)
        fleet.window.clear()
        for k in range(w):
            state.begin_epoch(epoch + k)
            policy.apply(state, processes, detectors, rng)
            for p_idx, proc in enumerate(processes):
                proc.step(state, rng)
                if ground_truth:
                    recorder.record_step(p_idx, k, state)
            fleet.window.snapshot(state)
            state.advance_ages()
        counts = (
            probe_counts[epoch : epoch + w]
            if probe_counts is not None
            else None
        )
        errors = evaluate_window_reference(fleet, rng, counts)
        down_w = fleet.window.down
        viol_w = (errors > budget + 1e-12) & ~down_w
        observed = np.where(down_w, 0.0, errors)
        firings_w = {
            det.name: det.update(observed, epoch) for det in detectors
        }
        policy.observe(state, errors, firings_w, epoch)
        recorder.record_window(epoch, errors, down_w, viol_w, firings_w)
        epoch += w
    state.telemetry = None
    (trace,) = recorder.finish(policy.block_stats())
    return trace


class PerBlockDriver:
    """Drop-in for the chaos campaign's ``_run_blocks``: every replica
    block of every job runs on its own through
    :func:`simulate_block_reference`, in block order, with a plain
    generator per block (kept in :attr:`generators` for their final
    states)."""

    def __init__(self):
        self.generators: List[np.random.Generator] = []

    def __call__(self, block_fn, shared, jobs, injector, x, *, chunk_size,
                 dtype=np.float64, **_):
        engine = MaskCampaignEngine(
            injector, x, chunk_size=chunk_size, dtype=dtype
        )
        results = []
        for _, sizes, seeds in jobs:
            job = []
            for size, seed in zip(sizes, seeds):
                rng = np.random.default_rng(seed)
                self.generators.append(rng)
                job.append(
                    (simulate_block_reference(engine, shared, size, rng), 0.0)
                )
            results.append(job)
        return results


# ---------------------------------------------------------------------------
# The bounds of repro.core.fep, written out (inputs assumed valid)
# ---------------------------------------------------------------------------


def fep_terms_reference(f, n, w, K, C) -> np.ndarray:
    """Theorem 2's terms ``C * f_l * K^(L-l) * prod_{l'>l} (N_l' - f_l')
    * w_m^(l')``: the suffix products by one reversed ``cumprod``,
    associated as ``((C * f) * K-powers) * suffix``."""
    f, n, w = (np.asarray(a, dtype=np.float64) for a in (f, n, w))
    L = f.shape[0]
    n_ext = np.concatenate([n, [1.0]])
    f_ext = np.concatenate([f, [0.0]])
    mult = (n_ext[1:] - f_ext[1:]) * w[1:]
    suffix = np.cumprod(mult[::-1])[::-1]
    powers = K ** np.arange(L - 1, -1, -1, dtype=np.float64)
    return C * f * powers * suffix


def synapse_fep_loops(s, n, w, K, C) -> float:
    """Theorem 4: ``C * sum_{l=1}^{L+1} s_l * K^(L+1-l) * w_m^(l) *
    prod_{l'>l} N_l' * w_m^(l')``, the output stage without a K."""
    L = len(n)
    n_ext = list(n) + [1.0]
    total = 0.0
    for l in range(1, L + 2):
        prod = 1.0
        for lp in range(l + 1, L + 2):
            prod *= n_ext[lp - 1] * w[lp - 1]
        total += s[l - 1] * K ** (L + 1 - l) * w[l - 1] * prod
    return C * total


def heterogeneous_fep_loops(f, n, w, ks, C) -> float:
    """Fep with the downstream product of per-layer ``K_l'`` in place
    of ``K^(L-l)``."""
    L = len(n)
    n_ext = list(n) + [1.0]
    f_ext = list(f) + [0.0]
    total = 0.0
    for l in range(1, L + 1):
        k_prod = 1.0
        for lp in range(l + 1, L + 1):
            k_prod *= ks[lp - 1]
        carrier = 1.0
        for lp in range(l + 1, L + 2):
            carrier *= (n_ext[lp - 1] - f_ext[lp - 1]) * w[lp - 1]
        total += f[l - 1] * k_prod * carrier
    return C * total


def combined_fep_loops(f, s, n, w, K, C) -> float:
    """Fep of the neuron failures ``f`` plus Theorem 4's synapse sum,
    its carriers discounted by ``f``."""
    L = len(n)
    n_ext = list(n) + [1.0]
    f_ext = list(f) + [0.0]
    total = 0.0
    for l in range(1, L + 2):
        prod = 1.0
        for lp in range(l + 1, L + 2):
            prod *= (n_ext[lp - 1] - f_ext[lp - 1]) * w[lp - 1]
        total += s[l - 1] * K ** (L + 1 - l) * w[l - 1] * prod
    return float(fep_terms_reference(f, n, w, K, C).sum()) + C * total


def precision_error_bound_loops(lam, n, w, K) -> float:
    """Theorem 5: ``sum_l K^(L-l) * lambda_l * prod_{l'=l}^{L} N_l' *
    w_m^(l'+1)``."""
    L = len(n)
    total = 0.0
    for l in range(1, L + 1):
        prod = 1.0
        for lp in range(l, L + 1):
            prod *= n[lp - 1] * w[lp]
        total += K ** (L - l) * lam[l - 1] * prod
    return total
