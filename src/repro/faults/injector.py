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

This module holds the mask kernels and the object API around them:

* :func:`apply_mask_channels` / :func:`apply_synapse_corrections` —
  the per-layer mask kernels of the one evaluator,
  :class:`repro.faults.masks.MaskCampaignEngine`, which runs a *batch
  of scenarios* with one GEMM per layer for all S x B (scenario,
  input) pairs.  The whole fault taxonomy lowers: static faults as
  value channels, stochastic faults (noise, intermittent gates) as
  evaluation-time draws from a threaded RNG, synapse faults as sparse
  per-stage received-sum corrections.
* :meth:`FaultInjector.run` / :meth:`FaultInjector.output_error` —
  one scenario on a batch of inputs, through that same engine.  Its
  scalar twin, neuron by neuron and synapse by synapse, is the test
  suite's oracle (``tests/oracles.py::run_reference``).

:meth:`FaultInjector.compile_batch` is the thin adapter that lowers
object scenarios into the :class:`CompiledScenarioBatch` mask
representation the engine consumes; the engine's samplers draw the
same batches directly as arrays.
"""

from __future__ import annotations

import itertools
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
)

__all__ = [
    "FaultInjector",
    "CompiledScenarioBatch",
    "MaskWorkspace",
    "ReplicaStreams",
    "SynapseStageChannels",
    "NEURON_CHANNELS",
    "empty_mask_batch",
    "fault_channel_action",
    "synapse_fault_action",
    "apply_mask_channels",
    "apply_synapse_corrections",
]

class MaskWorkspace:
    """Reusable scratch buffers for the per-chunk mask kernels.

    The gate (intermittent) kernels draw ``(K, B)`` uniforms per
    channel; drawing them into one growable buffer via
    ``Generator.random(out=...)`` produces the same stream as a fresh
    allocation while skipping the per-channel allocations.  One
    workspace per engine — it is not thread-safe.
    """

    __slots__ = ("_uniform",)

    def __init__(self) -> None:
        self._uniform: Optional[np.ndarray] = None

    def buffer(self, k: int, b: int) -> np.ndarray:
        """A ``(k, b)`` float64 view of the shared buffer, invalidated
        by the next call; callers consume it immediately (comparisons
        materialise fresh bools)."""
        buf = self._uniform
        if buf is None or buf.shape[0] < k or buf.shape[1] != b:
            rows = k if buf is None or buf.shape[1] != b else max(
                k, 2 * buf.shape[0]
            )
            buf = self._uniform = np.empty((rows, b))
        return buf[:k]


def block_slices(sizes: Sequence[int]) -> List[slice]:
    """The ranges of consecutive blocks of ``sizes`` rows."""
    bounds = [0, *itertools.accumulate(int(n) for n in sizes)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


class ReplicaStreams:
    """One generator per block of consecutive rows.

    Block ``b`` owns the rows ``slices[b]`` and draws from
    ``generators[b]``: every draw made for those rows goes to that
    generator, with the calls, shapes and order a run of that block
    alone would make.  The rows are a chaos fleet's replicas (so a
    fleet that steps several replica blocks in lockstep leaves every
    block's stream where simulating the block on its own would) or a
    mask batch's scenario rows (so one
    :class:`~repro.faults.masks.MaskCampaignEngine` call over several
    blocks' rows routes each gate draw to the block owning its cell).

    Uniform and integer draws go through :meth:`random`,
    :meth:`random_flat` and :meth:`integers` (one call per block, rows
    stacked in block order; ``rows=...`` draws for a subset of rows,
    so a block with none of them draws nothing); other draws that
    depend on a block's own state (whether any arrival landed) loop
    over :meth:`blocks`.  Draws that cannot be split by rows (Gaussian
    noise) need a one-block stream (:meth:`generator`).
    """

    def __init__(
        self, generators: Sequence[np.random.Generator], sizes: Sequence[int]
    ):
        self.generators = tuple(generators)
        self.slices = block_slices(sizes)
        #: Block ``b`` covers rows ``bounds[b]:bounds[b + 1]``.
        self.bounds = np.array([0] + [rows.stop for rows in self.slices])
        self.n_replicas = self.slices[-1].stop if self.slices else 0

    @classmethod
    def of(cls, rng, n_replicas: int) -> "ReplicaStreams":
        """``rng`` itself, or a plain generator as one block of
        ``n_replicas`` rows."""
        return rng if isinstance(rng, cls) else cls((rng,), (n_replicas,))

    def blocks(self):
        """``(generator, row slice)`` per block, in block order."""
        return zip(self.generators, self.slices)

    def at(self, rows: np.ndarray) -> "ReplicaStreams":
        """The same generators over positions whose rows are the
        ascending ``rows``: position ``p`` belongs to the block owning
        row ``rows[p]``."""
        return ReplicaStreams(
            self.generators, np.diff(np.searchsorted(rows, self.bounds))
        )

    def generator(self, what: str) -> np.random.Generator:
        """The only generator of a one-block stream; ``what`` names the
        draw in the ``TypeError`` a multi-block stream raises."""
        if len(self.generators) != 1:
            raise TypeError(
                f"{what} draws cannot be routed across "
                f"{len(self.generators)} row blocks; pass a generator"
            )
        return self.generators[0]

    def _cuts(self, rows: Optional[np.ndarray]) -> np.ndarray:
        return (
            self.bounds if rows is None
            else np.searchsorted(rows, self.bounds)
        )

    def random(
        self,
        *tail: int,
        rows: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``(R, *tail)`` uniforms, or ``(len(rows), *tail)`` for the
        ascending row indices ``rows`` (repeats allowed): block ``b``'s
        rows are one ``random((R_b, *tail))`` draw of its generator (no
        draw for a block without rows).  ``out`` receives the draw."""
        cuts = self._cuts(rows)
        if out is None:
            out = np.empty((int(cuts[-1]),) + tail)
        for g, lo, hi in zip(self.generators, cuts[:-1], cuts[1:]):
            if hi > lo:
                g.random(out=out[lo:hi])
        return out

    def random_flat(
        self, layer_sizes: Sequence[int], rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(R, ΣN_l)`` uniforms (or ``len(rows)`` rows, as in
        :meth:`random`) in the flat layout, layers side by side: block
        ``b``'s generator makes per-layer ``random((R_b, N_l))`` draws
        in layer order (the stream of one ``random(R_b * ΣN_l)``
        draw), each straight into its layer's rows; the layers are
        then joined column-wise."""
        cuts = self._cuts(rows).tolist()
        layers = [np.empty((cuts[-1], int(n))) for n in layer_sizes]
        for g, lo, hi in zip(self.generators, cuts[:-1], cuts[1:]):
            if hi > lo:
                for part in layers:
                    g.random(out=part[lo:hi])
        return np.concatenate(layers, axis=1)

    def integers(self, high: int) -> np.ndarray:
        """``(R,)`` integers in ``[0, high)``, one call per block."""
        return np.concatenate([
            g.integers(0, high, size=rows.stop - rows.start)
            for g, rows in self.blocks()
        ])


def _one_generator(rng, what: str) -> np.random.Generator:
    """``rng``, or the generator of a one-block :class:`ReplicaStreams`."""
    return rng.generator(what) if isinstance(rng, ReplicaStreams) else rng


def fault_channel_action(
    fault: FaultModel,
) -> Optional[tuple[str, float, float]]:
    """The mask-channel lowering ``(kind, value, gate_p)`` of a neuron fault.

    * ``("zero", 0.0, p)`` — crash: emission is exactly 0;
    * ``("set", v, p)`` — Byzantine with explicit value / stuck-at: the
      emission is pulled to ``v`` subject to the deviation bound;
    * ``("add", delta, p)`` — Byzantine capacity sentinel (``+-inf``,
      to be resolved to ``+-C``) or a fixed offset: emission is
      ``y + delta``;
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
    if isinstance(fault, CrashFault):
        return ("zero", 0.0, 1.0)
    if isinstance(fault, ByzantineFault):
        if fault.value is None:
            return ("add", fault.sign * np.inf, 1.0)
        return ("set", float(fault.value), 1.0)
    if isinstance(fault, StuckAtFault):
        return ("set", float(fault.value), 1.0)
    if isinstance(fault, OffsetFault):
        return ("add", float(fault.offset), 1.0)
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
    rng: "np.random.Generator | ReplicaStreams | None" = None,
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
      neuron)`` from ``rng`` — the distribution of
      :meth:`NoiseFault.apply <repro.faults.types.NoiseFault.apply>`;
    * ``gate_p`` (1.0 = permanent) Bernoulli-gates whichever channel a
      cell carries, per ``(scenario, input, neuron)`` — the
      intermittent-fault semantics.

    Per scenario each neuron carries at most one fault, so the
    channels touch disjoint ``(s, i)`` cells and in-place order is
    immaterial.  Stochastic channels (noise, gates below 1) require a
    seeded ``rng`` and raise without one — unseeded campaigns are not
    reproducible.

    Every channel is a gather → compute → scatter over its ``K``
    affected cells, by their row-major coordinates through the
    transposed ``(S, N, B)`` view, whatever the mask density, so the
    work and the draws cost ``(K, B)`` rather than ``(S, B, N)``; its
    permanent cells and its gated cells (with their Bernoulli draw)
    run through the same code as two parts.  Zero, set and scale
    *replace* an emission and share one loop (a missed gate keeps the
    arriving value); add is an offset (a missed gate adds ``+0.0``)
    and noise a clipped Gaussian offset.  The
    result is elementwise identical to a masked write over the whole
    tensor (``tests/oracles.py`` keeps that form).  Draw order is
    fixed (gates per channel in zero / set / scale / add order, then
    noise), each in row-major cell order, so the stream is
    deterministic for a given batch.  A ``workspace`` lets the gate
    draws reuse one growable buffer across chunks (same stream, fewer
    allocations).

    ``rng`` may be a :class:`ReplicaStreams` whose blocks are row
    ranges of ``Y``: each gate draw then splits at the block bounds,
    block ``b``'s ``K_b`` cells drawing ``(K_b, B)`` from generator
    ``b`` — the draw a call on block ``b``'s rows alone makes.  Noise
    draws cannot be split so; they raise ``TypeError`` on a
    multi-block stream.
    """
    B = Y.shape[1]
    gated_cells = gate_p is not None and np.any(gate_p < 1.0)
    if gated_cells and rng is None:
        raise ValueError(
            "gated (intermittent) mask channels need an rng; pass the "
            "campaign generator"
        )
    Yt = Y.transpose(0, 2, 1)  # (S, N, B) view for per-cell gather/scatter

    def draw_uniform(rows: np.ndarray) -> np.ndarray:
        """``(K, B)`` uniforms for cells in the ascending ``rows``."""
        out = workspace.buffer(rows.size, B) if workspace else None
        if isinstance(rng, ReplicaStreams):
            return rng.random(B, rows=rows, out=out)
        return rng.random((rows.size, B), out=out)

    def cells_of(mask: np.ndarray) -> tuple:
        """``mask``'s cells in row-major order (``np.nonzero``'s, ~5x
        faster on a sparse ``(S, N)`` mask)."""
        return np.divmod(np.flatnonzero(mask), mask.shape[1])

    def parts(rows: np.ndarray, cols: np.ndarray):
        """Split the cells ``(rows, cols)`` into ``(idx, hit)`` parts:
        the permanent cells (``hit=None``), then the gated ones with
        their freshly drawn ``(K_g, B)`` Bernoulli pattern; ``idx``
        picks a part's cells out of ``rows``/``cols``."""
        if gated_cells:
            gp = gate_p[rows, cols]
            flaky = gp < 1.0
            if flaky.any():
                hit = draw_uniform(rows[flaky]) < gp[flaky][:, None]
                return ((~flaky, None), (flaky, hit))
        return ((slice(None), None),)

    def bounded(vals: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Requested emissions held within ``+-C`` of the arriving
        ``cells`` (the deviation bound of Assumption 1)."""
        if capacity is None:
            return vals
        return np.clip(vals, cells - capacity, cells + capacity)

    # The channels that replace an emission, in kernel order.
    replacing = (
        (zero, None, lambda c, v: 0.0),
        (set_mask, set_values, lambda c, v: bounded(v, c)),
        (scale_mask, scale_values, lambda c, v: bounded(v * c, c)),
    )
    for mask, values, emit in replacing:
        if mask is None or not mask.any():
            continue
        all_rows, all_cols = cells_of(mask)
        for idx, hit in parts(all_rows, all_cols):
            rows, cols = all_rows[idx], all_cols[idx]
            if values is None and hit is None:
                Yt[rows, cols] = 0.0  # a permanent crash reads no arrival
                continue
            cells = Yt[rows, cols]
            v = None if values is None else values[rows, cols][:, None]
            vals = emit(cells, v)
            if hit is not None:
                vals = np.where(hit, vals, cells)
            Yt[rows, cols] = vals
    if add_mask.any():
        all_rows, all_cols = cells_of(add_mask)
        add = add_values[all_rows, all_cols][:, None]
        if capacity is None:
            if not np.all(np.isfinite(add)):
                raise ValueError(
                    "capacity-saturating fault under unbounded transmission"
                )
        else:
            add = np.clip(add, -capacity, capacity)
        for idx, hit in parts(all_rows, all_cols):
            a = add[idx] if hit is None else np.where(hit, add[idx], 0.0)
            Yt[all_rows[idx], all_cols[idx]] += a
    if noise_mask is not None and noise_mask.any():
        if rng is None:
            raise ValueError(
                "noise mask channels need an rng; pass the campaign generator"
            )
        gen = _one_generator(rng, "noise")
        rows, cols = cells_of(noise_mask)
        delta = (
            gen.standard_normal((rows.size, B))
            * noise_sigma[rows, cols][:, None]
        )
        if capacity is not None:
            np.clip(delta, -capacity, capacity, out=delta)
        for idx, hit in parts(rows, cols):
            if hit is not None:
                delta[idx] *= hit
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
        gen = _one_generator(rng, "synapse noise")
        dev = gen.standard_normal((stage.noise_s.size, B))
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


#: The neuron fault channels of a :class:`CompiledScenarioBatch`, in
#: kernel order: kind -> ``(masks attribute, values attribute)``.  A
#: crash carries no value; scale and noise are optional (``None``
#: until a fault is marked on them).
NEURON_CHANNELS = {
    "zero": ("zero_masks", None),
    "set": ("set_masks", "set_values"),
    "scale": ("scale_masks", "scale_values"),
    "add": ("add_masks", "add_values"),
    "noise": ("noise_masks", "noise_sigma"),
}


@dataclass
class CompiledScenarioBatch:
    """Per-layer fault masks for a batch of scenarios.

    The neuron channels are arrays of shape ``(S, N_{l+1})`` (0-based
    layer index ``l``):

    * ``zero_masks`` — crashed neurons (emission exactly 0);
    * ``set_masks`` / ``set_values`` — value-pulling faults (Byzantine
      with explicit value, stuck-at), applied under the deviation
      bound at run time; the values are ``None`` until a fault is
      marked on the channel;
    * ``add_masks`` / ``add_values`` — additive faults (values ``None``
      likewise until first marked).  Values may
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
    set_values: Optional[List[np.ndarray]]
    add_masks: List[np.ndarray]
    add_values: Optional[List[np.ndarray]]
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

    def mark(self, kind: str, l0: int, where, value=0.0, gate=1.0) -> None:
        """Fault cells of layer ``l0`` on the channel ``kind``.

        ``where`` is a boolean ``(S, N_l)`` mask (OR-ed into the
        channel) or an index tuple (set).  ``value`` (the channel's
        value, ignored for crashes) and ``gate`` (the ``gate_p`` of the
        cells) are scalars or ``(S, N_l)`` arrays read at ``where``.
        The first use of a channel's values (or of an optional
        channel's masks, or of a gate below 1) allocates them for every
        layer.
        """
        masks_attr, values_attr = NEURON_CHANNELS[kind]
        shapes = [m.shape for m in self.zero_masks]
        if getattr(self, masks_attr) is None:
            setattr(self, masks_attr, [np.zeros(n, bool) for n in shapes])
        if values_attr is not None and getattr(self, values_attr) is None:
            setattr(self, values_attr, [np.zeros(n) for n in shapes])
        dense = isinstance(where, np.ndarray)

        def write(arrays, v):
            if dense:
                np.copyto(arrays[l0], v, where=where)
            else:
                arrays[l0][where] = v

        masks = getattr(self, masks_attr)[l0]
        if dense:
            masks |= where
        else:
            masks[where] = True
        if values_attr is not None:
            write(getattr(self, values_attr), value)
        if self.gate_p is None and np.any(np.less(gate, 1.0)):
            self.gate_p = [np.ones(n) for n in shapes]
        if self.gate_p is not None:
            write(self.gate_p, gate)
        self._neuron_clear = None

    def _channels(self):
        """The mask lists of the channels present, in kernel order."""
        for masks_attr, _ in NEURON_CHANNELS.values():
            masks = getattr(self, masks_attr)
            if masks is not None:
                yield masks

    def touched(self, l0: int, lo: int = 0, hi: Optional[int] = None):
        """A fresh ``(hi - lo, N_l)`` mask of the layer-``l0`` cells of
        scenarios ``lo..hi`` that some neuron channel faults."""
        masks = [m[l0][lo:hi] for m in self._channels()]
        out = masks[0].copy()
        for m in masks[1:]:
            out |= m
        return out

    @property
    def neuron_channels_clear(self) -> bool:
        """True when no neuron mask channel can touch any activation.

        Every channel of :func:`apply_mask_channels` is ``.any()``
        guarded and draws randomness only inside those guards, so a
        clear batch makes the whole mask pass a scan-only no-op that
        consumes zero RNG draws — evaluators may skip it per layer and
        stay bitwise-identical.  The scan runs once per batch (cached),
        replacing per-chunk-per-layer channel scans on the hot
        synapse-only path; it stops at the first faulted cell.
        """
        if self._neuron_clear is None:
            self._neuron_clear = not (
                any(m.any() for masks in self._channels() for m in masks)
                or self.gate_p is not None
                and any(np.any(g < 1.0) for g in self.gate_p)
            )
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


def empty_mask_batch(
    layer_sizes: Sequence[int], n_scenarios: int
) -> CompiledScenarioBatch:
    """An all-healthy mask batch for ``n_scenarios`` scenarios.

    The canonical way to build a :class:`CompiledScenarioBatch` by
    hand: start empty, then :meth:`~CompiledScenarioBatch.mark` the
    faulty cells.
    """
    S = int(n_scenarios)
    return CompiledScenarioBatch(
        zero_masks=[np.zeros((S, n), dtype=bool) for n in layer_sizes],
        set_masks=[np.zeros((S, n), dtype=bool) for n in layer_sizes],
        set_values=None,
        add_masks=[np.zeros((S, n), dtype=bool) for n in layer_sizes],
        add_values=None,
        names=[],
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

    def run(
        self,
        x: np.ndarray,
        scenario: FailureScenario,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Faulty forward pass ``Ffail(X)`` for a batch of inputs.

        Returns ``(B, n_outputs)`` outputs (``(n_outputs,)`` for one
        input vector): ``scenario`` lowered by :meth:`compile_batch`
        and evaluated by the mask engine on ``x``.
        """
        from .masks import MaskCampaignEngine

        engine = MaskCampaignEngine(self, x)
        out = engine.outputs(self.compile_batch([scenario]), rng=rng)[0]
        return out[0] if np.ndim(x) == 1 else out

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
        ``"mean"``; the nominal is the engine's own fault-free pass.
        """
        from .masks import MaskCampaignEngine

        engine = MaskCampaignEngine(self, x, reduction=reduction)
        return float(engine.evaluate(self.compile_batch([scenario]), rng=rng)[0])

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
        batch = empty_mask_batch(net.layer_sizes, len(scenarios))
        # Per-stage per-kind entry lists: (s, j, i[, value]).
        syn_entries: Optional[List[dict]] = None
        for s_idx, scenario in enumerate(scenarios):
            scenario.validate(net)
            batch.names.append(scenario.name)
            for addr, fault in scenario.neuron_faults.items():
                action = fault_channel_action(fault)
                if action is None:
                    raise ValueError(
                        f"fault {fault!r} has no mask-channel lowering; "
                        "extend fault_channel_action"
                    )
                kind, value, gate = action
                batch.mark(
                    kind, addr.layer - 1, (s_idx, addr.index), value, gate
                )
            for (l, j, i), fault in scenario.synapse_faults.items():
                action = synapse_fault_action(fault)
                if action is None:
                    raise ValueError(
                        f"synapse fault {fault!r} has no weight-level "
                        "lowering; extend synapse_fault_action"
                    )
                if syn_entries is None:
                    syn_entries = [
                        {"zero": [], "add": [], "noise": []}
                        for _ in range(net.depth + 1)
                    ]
                kind, value = action
                syn_entries[l - 1][kind].append((s_idx, j, i, value))
        # Resolve capacity sentinels (additive +-inf -> +-C) at compile time.
        for arr in batch.add_values or ():
            if self.capacity is None:
                if not np.all(np.isfinite(arr)):
                    raise ValueError(
                        "capacity-saturating fault under unbounded transmission"
                    )
            else:
                np.clip(arr, -self.capacity, self.capacity, out=arr)
        if syn_entries is not None:
            batch.synapse_stages = [
                self._compile_synapse_stage(entries) for entries in syn_entries
            ]
        return batch

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
