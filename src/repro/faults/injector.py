"""Vectorised fault injection: run a network under a failure scenario.

The injector realises Definition 2 and Assumption 1 of the paper as
masked tensor algebra:

* a **crashed** neuron's emitted value is replaced by 0 ("stops
  sending"; consumers read 0 — no capacity interaction, and the
  crash-mode bounds use ``sup phi`` instead of ``C``);
* a **Byzantine** neuron broadcasts ``y + lambda`` (Theorem 2's error
  model): the *deviation* ``lambda`` carried by its synapses is
  bounded by the transmission capacity ``C`` (Assumption 1), so the
  effective emission is ``y + clip(requested - y, -C, +C)``.  Under
  *unbounded* capacity (``capacity=None``) no clipping happens, which
  is the regime of Lemma 1.  (The paper's Assumption 1 phrases the
  bound on the transmitted value; its Theorem-2 algebra bounds the
  error ``lambda`` by ``C`` — we follow the algebra, which is the
  sound-and-tight reading.  See DESIGN.md.);
* a **faulty synapse** corrupts the emission it carries: the receiver
  reads ``w_ji * v`` where ``|v - y_i| <= C`` (so the received-sum
  error is at most ``w_m * C``, the per-synapse term of Theorem 4 and
  Lemma 2); a crashed synapse delivers ``v = 0``.

This module holds the scalar oracle and the mask kernels:

* :meth:`FaultInjector.run` — one scenario, batch of inputs; supports
  every fault model including stochastic ones.  It is the reference
  the batched evaluator is tested against.
* :func:`apply_mask_channels` / :func:`apply_synapse_corrections` —
  the per-layer mask kernels of the one dense evaluator,
  :class:`repro.faults.masks.MaskCampaignEngine`, which runs a *batch
  of scenarios* with one GEMM per layer for all S x B (scenario,
  input) pairs.  The whole fault taxonomy lowers: static faults as
  value channels, stochastic faults (noise, intermittent gates) as
  evaluation-time draws from a threaded RNG, synapse faults as sparse
  per-stage received-sum corrections.

:meth:`FaultInjector.compile_batch` is the thin adapter that lowers
object scenarios into the :class:`CompiledScenarioBatch` mask
representation the engine consumes; the engine's samplers draw the
same batches directly as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..network.model import FeedForwardNetwork
from .scenarios import FailureScenario
from .types import (
    ByzantineFault,
    CrashFault,
    FaultModel,
    IntermittentFault,
    NoiseFault,
    OffsetFault,
    SignFlipFault,
    StuckAtFault,
    SynapseByzantineFault,
    SynapseCrashFault,
    SynapseNoiseFault,
    fault_is_stochastic,
    unseeded_rng,
)

__all__ = [
    "FaultInjector",
    "CompiledScenarioBatch",
    "MaskWorkspace",
    "SynapseStageChannels",
    "static_fault_action",
    "fault_channel_action",
    "synapse_fault_action",
    "apply_neuron_fault",
    "apply_mask_channels",
    "apply_synapse_corrections",
]

#: A channel write goes through the sparse gather/scatter kernel when
#: the affected cells cover at most ``1 / _SPARSE_ROWS_LIMIT`` of the
#: ``(S, N)`` mask; denser masks keep the vectorised masked write.
#: Both kernels are bitwise-identical, so the threshold is purely a
#: throughput heuristic.
_SPARSE_ROWS_LIMIT = 4


class MaskWorkspace:
    """Reusable scratch buffers for the per-chunk mask kernels.

    The gate (intermittent) kernels draw ``(K, B)`` uniforms per
    channel; drawing them into one growable buffer via
    ``Generator.random(out=...)`` produces the same stream as a fresh
    allocation while skipping the per-channel allocations.  One
    workspace per engine — it is not thread-safe, so the threaded
    backend gives each worker engine its own.
    """

    __slots__ = ("_uniform",)

    def __init__(self) -> None:
        self._uniform: Optional[np.ndarray] = None

    def uniform(self, rng: np.random.Generator, k: int, b: int) -> np.ndarray:
        """A ``(k, b)`` float64 uniform draw backed by the shared buffer.

        The returned view is invalidated by the next call; callers
        consume it immediately (comparisons materialise fresh bools).
        """
        buf = self._uniform
        if buf is None or buf.shape[0] < k or buf.shape[1] != b:
            rows = k if buf is None or buf.shape[1] != b else max(
                k, 2 * buf.shape[0]
            )
            buf = self._uniform = np.empty((rows, b))
        out = buf[:k]
        rng.random(out=out)
        return out


def static_fault_action(fault: FaultModel) -> Optional[tuple[str, float]]:
    """The input-independent action of a fault, or ``None``.

    Returns one of:

    * ``("zero", 0.0)`` — crash: emission is exactly 0;
    * ``("set", v)`` — Byzantine with explicit value / stuck-at: the
      emission is pulled to ``v`` subject to the deviation bound;
    * ``("add", delta)`` — Byzantine capacity sentinel (``+-inf``, to
      be resolved to ``+-C``) or a fixed offset: emission is
      ``y + delta``.

    Stochastic or sign-dependent faults (noise, sign flip) return
    ``None``; :func:`fault_channel_action` covers those via the
    stochastic mask channels.
    """
    if isinstance(fault, CrashFault):
        return ("zero", 0.0)
    if isinstance(fault, ByzantineFault):
        if fault.value is None:
            return ("add", fault.sign * np.inf)
        return ("set", float(fault.value))
    if isinstance(fault, StuckAtFault):
        return ("set", float(fault.value))
    if isinstance(fault, OffsetFault):
        return ("add", float(fault.offset))
    return None


def fault_channel_action(
    fault: FaultModel,
) -> Optional[tuple[str, float, float]]:
    """The mask-channel lowering ``(kind, value, gate_p)`` of a neuron fault.

    Extends :func:`static_fault_action` to the whole neuron-fault
    taxonomy:

    * ``("zero" | "set" | "add", v, p)`` — the static actions;
    * ``("scale", s, p)`` — multiplicative faults (sign flip is
      ``s = -1``): emission pulled toward ``s * y`` under the
      deviation bound;
    * ``("noise", sigma, p)`` — additive Gaussian noise, realised
      elementwise at evaluation time, deviation clipped to ``+-C``.

    ``gate_p`` is the per-element activation probability of the fault
    (1.0 for permanent faults); :class:`IntermittentFault` lowers to
    its wrapped fault's channel with ``gate_p`` multiplied by ``p``
    (nested intermittents compose multiplicatively — independent
    Bernoulli gates).  Returns ``None`` for synapse faults (see
    :func:`synapse_fault_action`) and unknown models.
    """
    base = static_fault_action(fault)
    if base is not None:
        return (*base, 1.0)
    if isinstance(fault, SignFlipFault):
        return ("scale", -1.0, 1.0)
    if isinstance(fault, NoiseFault):
        return ("noise", float(fault.sigma), 1.0)
    if isinstance(fault, IntermittentFault):
        inner = fault_channel_action(fault.fault)
        if inner is None:
            return None
        kind, value, gate = inner
        return (kind, value, gate * float(fault.p))
    return None


def synapse_fault_action(fault: FaultModel) -> Optional[tuple[str, float]]:
    """The weight-level lowering of a synapse fault, or ``None``.

    * ``("zero", 0.0)`` — crashed synapse: delivers 0, i.e. a
      received-sum correction ``w_ji * clip(-y_i, -C, +C)``;
    * ``("add", delta)`` — Byzantine synapse: correction
      ``w_ji * clip(delta, -C, +C)``; ``+-inf`` is the capacity
      sentinel (Lemma 2's saturated worst case);
    * ``("noise", sigma)`` — Gaussian noise on the carried emission.
    """
    if isinstance(fault, SynapseCrashFault):
        return ("zero", 0.0)
    if isinstance(fault, SynapseByzantineFault):
        if fault.offset is None:
            return ("add", fault.sign * np.inf)
        return ("add", float(fault.offset))
    if isinstance(fault, SynapseNoiseFault):
        return ("noise", float(fault.sigma))
    return None


def apply_neuron_fault(
    fault: FaultModel,
    nominal: np.ndarray,
    capacity: Optional[float],
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Faulty emission under the deviation-bounded semantics.

    Crash emits exactly 0; every other fault emits
    ``nominal + clip(requested - nominal, -C, +C)`` (Theorem 2's
    ``y + lambda`` with ``|lambda| <= C``).  Unbounded capacity passes
    finite requests through and rejects capacity sentinels.

    Intermittent faults are resolved here (not via
    ``IntermittentFault.apply``) so the wrapped fault keeps its own
    semantics elementwise — in particular an intermittent *crash*
    emits exactly 0 on hit (Definition 2: crashes do not interact with
    the capacity), where the old path clipped the crash deviation to
    ``+-C`` like a Byzantine value.
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


def apply_mask_channels(
    Y: np.ndarray,
    zero: np.ndarray,
    set_mask: np.ndarray,
    set_values: np.ndarray,
    add_mask: np.ndarray,
    add_values: np.ndarray,
    capacity: Optional[float],
    *,
    scale_mask: Optional[np.ndarray] = None,
    scale_values: Optional[np.ndarray] = None,
    noise_mask: Optional[np.ndarray] = None,
    noise_sigma: Optional[np.ndarray] = None,
    gate_p: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    workspace: Optional[MaskWorkspace] = None,
) -> np.ndarray:
    """Apply one layer's fault channels in place on ``(S, B, N)`` activations.

    The single definition of the mask semantics, used by the
    streaming engine in :mod:`repro.faults.masks`:

    * ``zero`` cells read exactly 0 (crash);
    * ``set`` cells are pulled toward the requested value but stay
      within ``[y - C, y + C]`` of the nominal activation (deviation
      bound);
    * ``add`` cells gain the offset, clipped to ``+-C`` — which also
      resolves ``+-inf`` capacity sentinels; under unbounded capacity
      sentinels are rejected (Lemma 1's regime);
    * ``scale`` cells are pulled toward ``scale * y`` under the
      deviation bound (sign flip is ``scale = -1``);
    * ``noise`` cells gain elementwise Gaussian noise
      ``clip(N(0, sigma), -C, +C)``, drawn per ``(scenario, input,
      neuron)`` from ``rng`` — exactly the scalar injector's draw
      distribution;
    * ``gate_p`` (1.0 = permanent) Bernoulli-gates whichever channel a
      cell carries, per ``(scenario, input, neuron)`` — the
      intermittent-fault semantics.

    Per scenario each neuron carries at most one fault, so the
    channels touch disjoint ``(s, i)`` cells and in-place order is
    immaterial.  Stochastic channels (noise, gates below 1) require a
    seeded ``rng`` and raise without one — unseeded campaigns are not
    reproducible.

    Gated (intermittent) and noisy cells are processed sparsely: per
    channel, the ``K`` affected cells are gathered through a transposed
    ``(S, N, B)`` view, draws cost ``(K, B)`` rather than ``(S, B, N)``,
    and the dense vectorised writes below only serve the permanent
    cells.  Draw order is fixed (gates per channel in zero / set /
    scale / add order, then noise), each in row-major cell order, so
    the stream is deterministic for a given batch.  A ``workspace``
    lets the gate draws reuse one growable buffer across chunks (same
    stream, fewer allocations).  Permanent ``set``/``scale``/``add``
    cells below the :data:`_SPARSE_ROWS_LIMIT` density additionally go
    through a gather/compute/scatter kernel on the ``(K, B)`` cells
    instead of full ``(S, B, N)`` arithmetic — elementwise identical,
    so results are bitwise-equal either way.
    """
    B = Y.shape[1]
    gated_cells = gate_p is not None and np.any(gate_p < 1.0)
    if gated_cells and rng is None:
        raise ValueError(
            "gated (intermittent) mask channels need an rng; pass the "
            "campaign generator"
        )
    Yt = Y.transpose(0, 2, 1)  # (S, N, B) view for per-cell gather/scatter

    def draw_uniform(k: int) -> np.ndarray:
        if workspace is not None:
            return workspace.uniform(rng, k, B)
        return rng.random((k, B))

    def split(mask: np.ndarray):
        """Partition a channel mask into (permanent part, gated cells).

        The gated part comes back as ``(rows, cols, hit)`` with ``hit``
        the freshly drawn ``(K, B)`` Bernoulli pattern.
        """
        if not gated_cells:
            return mask, None
        g = mask & (gate_p < 1.0)
        if not g.any():
            return mask, None
        rows, cols = np.nonzero(g)
        hit = draw_uniform(rows.size) < gate_p[rows, cols][:, None]
        return mask & ~g, (rows, cols, hit)

    def sparse_rows(dense: np.ndarray):
        """Cell coordinates when the mask is sparse enough, else None."""
        k = np.count_nonzero(dense)
        if k == 0 or k * _SPARSE_ROWS_LIMIT > dense.size:
            return None
        return np.nonzero(dense)

    if zero.any():
        dense, gated = split(zero)
        if dense.any():
            np.copyto(Y, 0.0, where=dense[:, None, :])
        if gated is not None:
            rows, cols, hit = gated
            cells = Yt[rows, cols]
            cells[hit] = 0.0
            Yt[rows, cols] = cells
    if set_mask.any():
        dense, gated = split(set_mask)
        if dense.any():
            sparse = sparse_rows(dense)
            if sparse is not None:
                rows, cols = sparse
                cells = Yt[rows, cols]
                vals = np.broadcast_to(
                    set_values[rows, cols][:, None], cells.shape
                )
                if capacity is not None:
                    vals = np.clip(vals, cells - capacity, cells + capacity)
                Yt[rows, cols] = vals
            else:
                vals = np.broadcast_to(set_values[:, None, :], Y.shape)
                if capacity is not None:
                    vals = np.clip(vals, Y - capacity, Y + capacity)
                np.copyto(Y, vals, where=dense[:, None, :], casting="unsafe")
        if gated is not None:
            rows, cols, hit = gated
            cells = Yt[rows, cols]
            vals = np.broadcast_to(
                set_values[rows, cols][:, None], cells.shape
            )
            if capacity is not None:
                vals = np.clip(vals, cells - capacity, cells + capacity)
            Yt[rows, cols] = np.where(hit, vals, cells)
    if scale_mask is not None and scale_mask.any():
        dense, gated = split(scale_mask)
        if dense.any():
            sparse = sparse_rows(dense)
            if sparse is not None:
                rows, cols = sparse
                cells = Yt[rows, cols]
                vals = scale_values[rows, cols][:, None] * cells
                if capacity is not None:
                    vals = np.clip(vals, cells - capacity, cells + capacity)
                Yt[rows, cols] = vals
            else:
                vals = scale_values[:, None, :] * Y
                if capacity is not None:
                    vals = np.clip(vals, Y - capacity, Y + capacity)
                np.copyto(Y, vals, where=dense[:, None, :], casting="unsafe")
        if gated is not None:
            rows, cols, hit = gated
            cells = Yt[rows, cols]
            vals = scale_values[rows, cols][:, None] * cells
            if capacity is not None:
                vals = np.clip(vals, cells - capacity, cells + capacity)
            Yt[rows, cols] = np.where(hit, vals, cells)
    if add_mask.any():
        if capacity is None and not np.all(np.isfinite(add_values[add_mask])):
            raise ValueError(
                "capacity-saturating fault under unbounded transmission"
            )
        dense, gated = split(add_mask)
        if dense.any():
            sparse = sparse_rows(dense)
            if sparse is not None:
                rows, cols = sparse
                add = add_values[rows, cols]
                if capacity is not None:
                    add = np.clip(add, -capacity, capacity)
                cells = Yt[rows, cols]
                cells += add[:, None]
                Yt[rows, cols] = cells
            else:
                add = add_values
                if capacity is not None:
                    add = np.clip(add, -capacity, capacity)
                np.add(Y, add[:, None, :], out=Y, where=dense[:, None, :],
                       casting="unsafe")
        if gated is not None:
            rows, cols, hit = gated
            add = add_values[rows, cols]
            if capacity is not None:
                add = np.clip(add, -capacity, capacity)
            cells = Yt[rows, cols]
            cells += np.where(hit, add[:, None], 0.0)
            Yt[rows, cols] = cells
    if noise_mask is not None and noise_mask.any():
        if rng is None:
            raise ValueError(
                "noise mask channels need an rng; pass the campaign generator"
            )
        rows, cols = np.nonzero(noise_mask)
        delta = (
            rng.standard_normal((rows.size, B))
            * noise_sigma[rows, cols][:, None]
        )
        if capacity is not None:
            np.clip(delta, -capacity, capacity, out=delta)
        if gated_cells:
            gp = gate_p[rows, cols]
            gated_idx = gp < 1.0
            if gated_idx.any():
                delta[gated_idx] *= (
                    draw_uniform(int(gated_idx.sum()))
                    < gp[gated_idx][:, None]
                )
        Yt[rows, cols] += delta
    return Y


def _synapse_emissions(
    source: np.ndarray, s_idx: np.ndarray, i_idx: np.ndarray
) -> np.ndarray:
    """The ``(K, B)`` emissions carried by a stage's faulty synapses.

    Always a fresh gather copy (fancy indexing), so callers may mutate
    the result in place.
    """
    if source.ndim == 2:  # stage 1: inputs, shared across scenarios
        return source.T[i_idx]
    return source[s_idx, :, i_idx]


def _bound_deviation(
    dev: np.ndarray, capacity: Optional[float]
) -> np.ndarray:
    """Clip a deviation to ``+-C``; reject non-finite under ``C=None``."""
    if capacity is None:
        if not np.all(np.isfinite(dev)):
            raise ValueError(
                "capacity-saturating synapse fault under unbounded "
                "transmission: specify an explicit offset"
            )
        return dev
    return np.clip(dev, -capacity, capacity)


class _SynapseStagePlan:
    """Precompiled scatter plan for one stage's COO fault entries.

    Built once per ``(stage, N_out)`` and cached on the stage: the
    entries are concatenated in channel order (zero, add, noise) —
    exactly the application order of the plain ``np.add.at`` reference
    kernel (kept as a test oracle in ``tests/oracles.py``) — and
    stable-sorted by the key ``scenario * N_out + receiving neuron``
    into CSR-style segments.  Each target's *first* occurrence lands in
    one buffered fancy-index ``+=`` over the unique ``(u_s, u_j)``
    cells; the duplicate tail (``rest``, a few percent of entries at
    most) is finished by ``np.add.at``, whose per-entry sequential
    accumulation — first occurrence already applied, later occurrences
    in stable-sorted (= entry) order — reproduces the reference
    ``np.add.at`` bit for bit on every cell (batched segment reductions
    like ``np.add.reduceat`` use pairwise summation and do *not*).
    Sampler-lowered single-kind stages arrive already key-sorted, so
    the argsort is usually skipped outright (``first is None`` encodes
    the identity), and the ``w_ji`` gather is cached per weight matrix
    identity, so steady-state chunks pay no index arithmetic at all.
    """

    __slots__ = (
        "cat_s", "cat_j", "u_s", "u_j",
        "first", "rest", "rest_s", "rest_j", "rest_rows", "_w_cache"
    )

    def __init__(self, stage: "SynapseStageChannels", n_out: int):
        s = np.concatenate((stage.zero_s, stage.add_s, stage.noise_s))
        j = np.concatenate((stage.zero_j, stage.add_j, stage.noise_j))
        self.cat_s = s
        self.cat_j = j
        self._w_cache = None
        self.first = self.rest = None
        self.rest_s = self.rest_j = self.rest_rows = None
        key = s * n_out + j
        k = key.size
        nxt, prv = key[1:], key[:-1]
        if bool(np.all(nxt > prv)):
            # Strictly increasing: already sorted, every target unique —
            # the identity plan, no index arithmetic at all.
            self.u_s = s
            self.u_j = j
            return
        if bool(np.all(nxt >= prv)):
            order = None  # sorted with duplicates: skip the argsort
            key_sorted = key
        else:
            order = np.argsort(key, kind="stable")
            key_sorted = key[order]
        head = np.empty(k, dtype=bool)  # True at each segment head
        head[0] = True
        np.not_equal(key_sorted[1:], key_sorted[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        first = heads if order is None else order[heads]
        self.u_s = s[first]  # unique (scenario, neuron) targets,
        self.u_j = j[first]  # in sorted-key order
        if heads.size == k:
            # Unique targets that merely arrived unsorted: ``first``
            # permutes contributions into target order for the stage-1
            # gather kernel; the dense apply stays single-pass.
            self.first = order
            return
        self.first = first
        tail = np.flatnonzero(~head)  # non-head sorted slots, in order
        rest = tail if order is None else order[tail]
        self.rest = rest
        self.rest_s = s[rest]
        self.rest_j = j[rest]
        seg_id = np.cumsum(head) - 1  # segment index per sorted slot
        self.rest_rows = seg_id[tail]

    def gathered_weights(self, stage, weights):
        """Per-channel ``w_ji`` gathers, cached by weight-matrix identity."""
        cached = self._w_cache
        if cached is not None and cached[0] is weights:
            return cached[1]
        gathered = (
            weights[stage.zero_j, stage.zero_i],
            weights[stage.add_j, stage.add_i],
            weights[stage.noise_j, stage.noise_i],
        )
        self._w_cache = (weights, gathered)
        return gathered


def _stage_plan(stage: "SynapseStageChannels", n_out: int) -> _SynapseStagePlan:
    """The (cached) segment plan of a stage for a given fan-in width."""
    plan = stage._plans.get(n_out)
    if plan is None:
        plan = stage._plans[n_out] = _SynapseStagePlan(stage, n_out)
    return plan


def _stage_contributions(
    stage: "SynapseStageChannels",
    plan: _SynapseStagePlan,
    source: np.ndarray,
    weights: np.ndarray,
    capacity: Optional[float],
    rng: Optional[np.random.Generator],
    B: int,
) -> np.ndarray:
    """The correction rows ``w_ji * clip(delivered - y_i, -C, +C)``.

    Returned in the plan's channel concatenation order (zero, add,
    noise); elementwise identical to the reference kernel's values —
    only the scatter strategy differs.  Shape is ``(K, B)``, except an
    add-only stage returns ``(K, 1)`` (the reference broadcasts the
    same column too).
    """
    w_zero, w_add, w_noise = plan.gathered_weights(stage, weights)

    def bound_inplace(dev: np.ndarray) -> np.ndarray:
        # In-place twin of _bound_deviation for freshly-gathered/drawn
        # buffers; elementwise identical (clip is not order-sensitive).
        if capacity is None:
            if not np.all(np.isfinite(dev)):
                raise ValueError(
                    "capacity-saturating synapse fault under unbounded "
                    "transmission: specify an explicit offset"
                )
            return dev
        return np.clip(dev, -capacity, capacity, out=dev)

    parts = []
    if stage.zero_s.size:
        dev = _synapse_emissions(source, stage.zero_s, stage.zero_i)
        np.negative(dev, out=dev)
        bound_inplace(dev)
        np.multiply(dev, w_zero[:, None], out=dev)
        parts.append(dev)
    if stage.add_s.size:
        dev = _bound_deviation(stage.add_values, capacity)
        parts.append((w_add * dev)[:, None])
    if stage.noise_s.size:
        if rng is None:
            raise ValueError(
                "synapse noise channels need an rng; pass the campaign "
                "generator"
            )
        dev = rng.standard_normal((stage.noise_s.size, B))
        np.multiply(dev, stage.noise_sigma[:, None], out=dev)
        bound_inplace(dev)
        np.multiply(dev, w_noise[:, None], out=dev)
        parts.append(dev)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(
        [np.broadcast_to(p, (p.shape[0], B)) for p in parts], axis=0
    )


def _apply_plan_to_view(
    view: np.ndarray, plan: _SynapseStagePlan, contrib: np.ndarray
) -> None:
    """Scatter-add the contributions onto the ``(S, N_out, B)`` view."""
    if plan.rest is None:
        # Unique targets: one buffered fancy ``+=`` (any entry order —
        # disjoint cells — so no permutation needed).
        view[plan.cat_s, plan.cat_j] += contrib
    else:
        view[plan.u_s, plan.u_j] += contrib[plan.first]
        np.add.at(view, (plan.rest_s, plan.rest_j), contrib[plan.rest])


def apply_synapse_corrections(
    pre: np.ndarray,
    stage: "SynapseStageChannels | None",
    source: np.ndarray,
    weights: np.ndarray,
    capacity: Optional[float],
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Apply one stage's synapse-fault corrections in place.

    ``pre`` is the ``(S, B, N_out)`` received-sum tensor (Equation 3's
    ``s_j`` before squashing, or the output node's weighted sum);
    ``source`` holds the emissions the stage's synapses carry —
    ``(S, B, N_in)`` faulty upstream activations, or ``(B, N_in)``
    scenario-independent inputs for stage 1.  Each faulty synapse
    ``(s, j, i)`` adds ``w_ji * clip(delivered - y_i, -C, +C)`` to
    ``pre[s, :, j]`` — Lemma 2 / Theorem 4's per-synapse error term.
    Duplicate ``(s, j)`` targets accumulate (several faulty synapses
    into one neuron).

    Goes through the precompiled :class:`_SynapseStagePlan` (buffered
    fancy-index scatter, cached gathers), bitwise-identical to a plain
    per-entry ``np.add.at`` scatter (same RNG draw order, same
    per-target accumulation order; the test suite keeps that scatter
    as its oracle).
    """
    if stage is None or stage.is_empty:
        return pre
    plan = _stage_plan(stage, pre.shape[2])
    contrib = _stage_contributions(
        stage, plan, source, weights, capacity, rng, pre.shape[1]
    )
    _apply_plan_to_view(pre.transpose(0, 2, 1), plan, contrib)
    return pre


@dataclass
class SynapseStageChannels:
    """COO fault entries for one synapse stage (weights into one layer).

    Entries are triples ``(s, j, i)`` — scenario ``s``, receiving
    neuron ``j``, emitting neuron ``i`` — grouped by action:

    * ``zero_*`` — crashed synapses (deliver 0);
    * ``add_*`` / ``add_values`` — Byzantine synapses (additive error;
      ``+-inf`` is the capacity sentinel, resolved at evaluation);
    * ``noise_*`` / ``noise_sigma`` — Gaussian noise on the carried
      emission, drawn per ``(entry, input)`` at evaluation time.

    Kept sparse (a campaign rarely touches more than a handful of the
    ``N_l x N_{l+1}`` synapses per scenario); the dense twin would cost
    a full weight-matrix mask per scenario.
    """

    zero_s: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    zero_j: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    zero_i: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    add_s: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    add_j: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    add_i: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    add_values: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.float64)
    )
    noise_s: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    noise_j: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    noise_i: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    noise_sigma: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.float64)
    )
    #: Lazily-built :class:`_SynapseStagePlan` per fan-in width; plans
    #: are pure functions of the (immutable) entries, so a benign
    #: last-writer-wins race under concurrent builders is acceptable.
    _plans: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def is_empty(self) -> bool:
        return not (self.zero_s.size or self.add_s.size or self.noise_s.size)

    @property
    def is_stochastic(self) -> bool:
        return bool(self.noise_s.size)

    def sliced(self, lo: int, hi: int) -> "SynapseStageChannels":
        """Entries of scenarios ``lo..hi`` with rows shifted to 0-base."""
        def pick(s, *cols):
            keep = (s >= lo) & (s < hi)
            return (s[keep] - lo, *(c[keep] for c in cols))

        z_s, z_j, z_i = pick(self.zero_s, self.zero_j, self.zero_i)
        a_s, a_j, a_i, a_v = pick(
            self.add_s, self.add_j, self.add_i, self.add_values
        )
        n_s, n_j, n_i, n_v = pick(
            self.noise_s, self.noise_j, self.noise_i, self.noise_sigma
        )
        return SynapseStageChannels(
            z_s, z_j, z_i, a_s, a_j, a_i, a_v, n_s, n_j, n_i, n_v
        )


@dataclass
class CompiledScenarioBatch:
    """Per-layer fault masks for a batch of scenarios.

    The neuron channels are arrays of shape ``(S, N_{l+1})`` (0-based
    layer index ``l``):

    * ``zero_masks`` — crashed neurons (emission exactly 0);
    * ``set_masks`` / ``set_values`` — value-pulling faults (Byzantine
      with explicit value, stuck-at), applied under the deviation
      bound at run time;
    * ``add_masks`` / ``add_values`` — additive faults.  Values may
      carry capacity sentinels (``+-inf`` meaning "deviate as much as
      allowed"); every consumer resolves them against its capacity at
      evaluation time (``compile_batch`` additionally resolves eagerly
      when it can);
    * ``scale_masks`` / ``scale_values`` — multiplicative faults (sign
      flip), optional (``None`` = channel absent);
    * ``noise_masks`` / ``noise_sigma`` — Gaussian-noise faults,
      realised at evaluation time, optional;
    * ``gate_p`` — per-cell Bernoulli activation probability
      (intermittent faults), optional; 1.0 means permanent;
    * ``synapse_stages`` — per-stage sparse synapse-fault channels
      (``depth + 1`` stages, stage ``L+1`` feeding the output node),
      optional.

    A batch whose optional channels are all ``None`` is exactly the
    static representation of earlier revisions; stochastic channels
    make :attr:`is_stochastic` true, and every evaluator then requires
    a seeded RNG.
    """

    zero_masks: List[np.ndarray]
    set_masks: List[np.ndarray]
    set_values: List[np.ndarray]
    add_masks: List[np.ndarray]
    add_values: List[np.ndarray]
    names: List[str]
    scale_masks: Optional[List[np.ndarray]] = None
    scale_values: Optional[List[np.ndarray]] = None
    noise_masks: Optional[List[np.ndarray]] = None
    noise_sigma: Optional[List[np.ndarray]] = None
    gate_p: Optional[List[np.ndarray]] = None
    synapse_stages: Optional[List[SynapseStageChannels]] = None
    # Cached answer to :attr:`neuron_channels_clear`; synapse samplers
    # stamp it True at construction (their neuron arrays are untouched
    # ``empty_mask_batch`` zeros), everyone else pays one scan.
    _neuron_clear: Optional[bool] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_scenarios(self) -> int:
        return self.zero_masks[0].shape[0] if self.zero_masks else 0

    @property
    def neuron_channels_clear(self) -> bool:
        """True when no neuron mask channel can touch any activation.

        Every channel of :func:`apply_mask_channels` is ``.any()``
        guarded and draws randomness only inside those guards, so a
        clear batch makes the whole mask pass a scan-only no-op that
        consumes zero RNG draws — evaluators may skip it per layer and
        stay bitwise-identical.  The scan runs once per batch (cached),
        replacing per-chunk-per-layer channel scans on the hot
        synapse-only path.
        """
        if self._neuron_clear is None:
            clear = not (
                any(m.any() for m in self.zero_masks)
                or any(m.any() for m in self.set_masks)
                or any(m.any() for m in self.add_masks)
            )
            if clear and self.scale_masks is not None:
                clear = not any(m.any() for m in self.scale_masks)
            if clear and self.noise_masks is not None:
                clear = not any(m.any() for m in self.noise_masks)
            if clear and self.gate_p is not None:
                clear = not any(np.any(g < 1.0) for g in self.gate_p)
            self._neuron_clear = clear
        return self._neuron_clear

    @property
    def has_synapse_faults(self) -> bool:
        return self.synapse_stages is not None and any(
            not stage.is_empty for stage in self.synapse_stages
        )

    @property
    def is_stochastic(self) -> bool:
        """Whether evaluating this batch consumes random draws."""
        if self.noise_masks is not None and any(
            m.any() for m in self.noise_masks
        ):
            return True
        if self.gate_p is not None and any(
            np.any(g < 1.0) for g in self.gate_p
        ):
            return True
        return self.synapse_stages is not None and any(
            stage.is_stochastic for stage in self.synapse_stages
        )


class FaultInjector:
    """Runs a :class:`FeedForwardNetwork` under failure scenarios.

    Parameters
    ----------
    network:
        The (trained) network under test.
    capacity:
        The synaptic transmission capacity ``C`` of Assumption 1.
        ``None`` models *unbounded* transmission (Lemma 1): Byzantine
        values pass through unclipped, and capacity-saturating sentinel
        faults are rejected (they have no well-defined value).
    """

    def __init__(
        self,
        network: FeedForwardNetwork,
        capacity: Optional[float] = 1.0,
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.network = network
        self.capacity = None if capacity is None else float(capacity)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _clip_synapse_error(self, deviation: np.ndarray) -> np.ndarray:
        """Bound a synapse's emission deviation by the capacity (Lemma 2)."""
        if self.capacity is None:
            if not np.all(np.isfinite(deviation)):
                raise ValueError(
                    "capacity-saturating synapse fault under unbounded "
                    "transmission: specify an explicit offset"
                )
            return deviation
        return np.clip(deviation, -self.capacity, self.capacity)

    def _neuron_faults_by_layer(
        self, scenario: FailureScenario
    ) -> List[list[tuple[int, FaultModel]]]:
        per_layer: List[list[tuple[int, FaultModel]]] = [
            [] for _ in range(self.network.depth)
        ]
        for addr, fault in scenario.neuron_faults.items():
            self.network.check_address(addr)
            per_layer[addr.layer - 1].append((addr.index, fault))
        return per_layer

    def _synapse_faults_by_stage(
        self, scenario: FailureScenario
    ) -> List[list[tuple[int, int, FaultModel]]]:
        per_stage: List[list[tuple[int, int, FaultModel]]] = [
            [] for _ in range(self.network.depth + 1)
        ]
        for (l, j, i), fault in scenario.synapse_faults.items():
            per_stage[l - 1].append((j, i, fault))
        return per_stage

    # ------------------------------------------------------------------
    # Scalar path (one scenario, any fault model)
    # ------------------------------------------------------------------

    def run(
        self,
        x: np.ndarray,
        scenario: FailureScenario,
        *,
        rng: Optional[np.random.Generator] = None,
        return_taps: bool = False,
    ):
        """Faulty forward pass ``Ffail(X)`` for a batch of inputs.

        Returns ``(B, n_outputs)`` outputs (or ``(outputs, taps)`` with
        per-layer faulty activations when ``return_taps`` is set).
        """
        scenario.validate(self.network)
        net = self.network
        xb, squeeze = net._as_batch(x)
        if rng is None:
            # Stochastic scenarios on a fresh generator silently break
            # campaign reproducibility — warn once (the campaign layers
            # always thread a seeded generator down to this point).
            stochastic = any(
                fault_is_stochastic(f)
                for faults in (scenario.neuron_faults, scenario.synapse_faults)
                for f in faults.values()
            )
            rng = (
                unseeded_rng("FaultInjector.run")
                if stochastic
                else np.random.default_rng()
            )

        neuron_faults = self._neuron_faults_by_layer(scenario)
        synapse_faults = self._synapse_faults_by_stage(scenario)

        y = xb
        taps: List[np.ndarray] = []
        for l0, layer in enumerate(net.layers):
            s = layer.pre_activation(y)
            if synapse_faults[l0]:
                weights = layer.dense_weights()
                s = s.copy()
                for j, i, fault in synapse_faults[l0]:
                    nominal_emission = y[:, i]
                    faulty_emission = fault.apply(
                        nominal_emission, rng=rng, capacity=self.capacity
                    )
                    deviation = self._clip_synapse_error(
                        faulty_emission - nominal_emission
                    )
                    s[:, j] += weights[j, i] * deviation
            y = layer.activation(s)
            if neuron_faults[l0]:
                y = y.copy()
                for i, fault in neuron_faults[l0]:
                    y[:, i] = apply_neuron_fault(fault, y[:, i], self.capacity, rng)
            if return_taps:
                taps.append(y)

        out = net.readout(y)
        stage = net.depth  # 0-based index of stage L+1 in synapse_faults
        if synapse_faults[stage]:
            out = out.copy()
            for j, i, fault in synapse_faults[stage]:
                nominal_emission = y[:, i]
                faulty_emission = fault.apply(
                    nominal_emission, rng=rng, capacity=self.capacity
                )
                deviation = self._clip_synapse_error(
                    faulty_emission - nominal_emission
                )
                out[:, j] += net.output_weights[j, i] * deviation

        if squeeze:
            out = out[0]
        return (out, taps) if return_taps else out

    def output_error(
        self,
        x: np.ndarray,
        scenario: FailureScenario,
        *,
        rng: Optional[np.random.Generator] = None,
        reduction: str = "max",
    ) -> float:
        """``sup_X |Fneu(X) - Ffail(X)|`` over the supplied batch.

        ``reduction`` is ``"max"`` (the paper's worst-case metric) or
        ``"mean"``.
        """
        xb, _ = self.network._as_batch(x)
        nominal = self.network.forward(xb)
        faulty = self.run(xb, scenario, rng=rng)
        err = np.abs(nominal - faulty).max(axis=1)
        if reduction == "max":
            return float(err.max())
        if reduction == "mean":
            return float(err.mean())
        raise ValueError(f"unknown reduction {reduction!r}")

    # ------------------------------------------------------------------
    # Lowering to mask channels (evaluated by MaskCampaignEngine)
    # ------------------------------------------------------------------

    def compile_batch(
        self, scenarios: Sequence[FailureScenario]
    ) -> CompiledScenarioBatch:
        """Lower scenarios — the whole fault taxonomy — to mask channels.

        This is the adapter between the expressive object API and the
        mask representation shared with :mod:`repro.faults.masks`
        (whose samplers produce the same batches without ever building
        scenario objects).  Static neuron faults land in the
        zero/set/add channels exactly as before; stochastic neuron
        faults (noise, intermittent, sign flip) fill the optional
        scale/noise/gate channels; synapse faults compile to sparse
        per-stage weight-level channels.  Only fault models outside
        the taxonomy in :mod:`repro.faults.types` are rejected.
        """
        net = self.network
        S = len(scenarios)
        zero_masks = [np.zeros((S, n), dtype=bool) for n in net.layer_sizes]
        set_masks = [np.zeros((S, n), dtype=bool) for n in net.layer_sizes]
        set_values = [np.zeros((S, n), dtype=np.float64) for n in net.layer_sizes]
        add_masks = [np.zeros((S, n), dtype=bool) for n in net.layer_sizes]
        add_values = [np.zeros((S, n), dtype=np.float64) for n in net.layer_sizes]
        scale_masks = scale_values = None
        noise_masks = noise_sigma = None
        gate_p = None
        # Per-stage per-kind entry lists: (s, j, i[, value]).
        syn_entries: Optional[List[dict]] = None
        names = []
        for s_idx, scenario in enumerate(scenarios):
            scenario.validate(net)
            names.append(scenario.name)
            for addr, fault in scenario.neuron_faults.items():
                action = fault_channel_action(fault)
                if action is None:
                    raise ValueError(
                        f"fault {fault!r} has no mask-channel lowering; "
                        "extend fault_channel_action or use FaultInjector.run"
                    )
                kind, value, gate = action
                l0, i = addr.layer - 1, addr.index
                if kind == "zero":
                    zero_masks[l0][s_idx, i] = True
                elif kind == "set":
                    set_masks[l0][s_idx, i] = True
                    set_values[l0][s_idx, i] = value
                elif kind == "add":
                    add_masks[l0][s_idx, i] = True
                    add_values[l0][s_idx, i] = value
                elif kind == "scale":
                    if scale_masks is None:
                        scale_masks = [
                            np.zeros((S, n), dtype=bool) for n in net.layer_sizes
                        ]
                        scale_values = [
                            np.zeros((S, n)) for n in net.layer_sizes
                        ]
                    scale_masks[l0][s_idx, i] = True
                    scale_values[l0][s_idx, i] = value
                else:  # "noise"
                    if noise_masks is None:
                        noise_masks = [
                            np.zeros((S, n), dtype=bool) for n in net.layer_sizes
                        ]
                        noise_sigma = [
                            np.zeros((S, n)) for n in net.layer_sizes
                        ]
                    noise_masks[l0][s_idx, i] = True
                    noise_sigma[l0][s_idx, i] = value
                if gate < 1.0:
                    if gate_p is None:
                        gate_p = [np.ones((S, n)) for n in net.layer_sizes]
                    gate_p[l0][s_idx, i] = gate
            for (l, j, i), fault in scenario.synapse_faults.items():
                action = synapse_fault_action(fault)
                if action is None:
                    raise ValueError(
                        f"synapse fault {fault!r} has no weight-level "
                        "lowering; extend synapse_fault_action or use "
                        "FaultInjector.run"
                    )
                if syn_entries is None:
                    syn_entries = [
                        {"zero": [], "add": [], "noise": []}
                        for _ in range(net.depth + 1)
                    ]
                kind, value = action
                syn_entries[l - 1][kind].append((s_idx, j, i, value))
        # Resolve capacity sentinels (additive +-inf -> +-C) at compile time.
        for arr in add_values:
            if self.capacity is None:
                if not np.all(np.isfinite(arr)):
                    raise ValueError(
                        "capacity-saturating fault under unbounded transmission"
                    )
            else:
                np.clip(arr, -self.capacity, self.capacity, out=arr)
        synapse_stages = None
        if syn_entries is not None:
            synapse_stages = [
                self._compile_synapse_stage(entries) for entries in syn_entries
            ]
        return CompiledScenarioBatch(
            zero_masks, set_masks, set_values, add_masks, add_values, names,
            scale_masks=scale_masks, scale_values=scale_values,
            noise_masks=noise_masks, noise_sigma=noise_sigma,
            gate_p=gate_p, synapse_stages=synapse_stages,
        )

    def _compile_synapse_stage(self, entries: dict) -> SynapseStageChannels:
        """COO arrays (with sentinel resolution) for one stage's entries."""
        def cols(kind: str, with_value: bool):
            rows = entries[kind]
            s = np.array([e[0] for e in rows], dtype=np.intp)
            j = np.array([e[1] for e in rows], dtype=np.intp)
            i = np.array([e[2] for e in rows], dtype=np.intp)
            if not with_value:
                return s, j, i
            return s, j, i, np.array([e[3] for e in rows], dtype=np.float64)

        z_s, z_j, z_i = cols("zero", with_value=False)
        a_s, a_j, a_i, a_v = cols("add", with_value=True)
        n_s, n_j, n_i, n_v = cols("noise", with_value=True)
        if self.capacity is None:
            if not np.all(np.isfinite(a_v)):
                raise ValueError(
                    "capacity-saturating synapse fault under unbounded "
                    "transmission: specify an explicit offset"
                )
        else:
            np.clip(a_v, -self.capacity, self.capacity, out=a_v)
        return SynapseStageChannels(
            z_s, z_j, z_i, a_s, a_j, a_i, a_v, n_s, n_j, n_i, n_v
        )
