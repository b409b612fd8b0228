"""The mask-native campaign engine: array-level scenario machinery.

The paper's empirical validation faces a "discouraging combinatorial
explosion"; this repo answers it with throughput.  The seed engine was
vectorised only at the *evaluation* GEMM — scenario generation still
built one Python ``FailureScenario`` object per sample and
``compile_batch`` unpacked each with a Python double loop.  This module
makes the whole pipeline live at the array level (see DESIGN.md):

* **sampling** — :class:`MaskSampler` subclasses draw whole batches of
  fault masks directly as ``(S, N_l)`` arrays.  Fixed per-layer counts
  ``f_l`` use batched ``argpartition`` over i.i.d. uniform keys: the
  ``f_l`` smallest keys of a row are a uniform random ``f_l``-subset,
  so one vectorised call replaces ``S`` calls to ``rng.choice``;
* **exhaustive sweeps** — :func:`combination_index_array` fills the
  ``C(n, k)`` lexicographic combination table block-wise (one bulk
  write per prefix) and :func:`masks_from_flat_indices` scatters flat
  neuron indices into per-layer crash masks without touching Python
  scenario objects;
* **evaluation** — :class:`MaskCampaignEngine` streams mask batches
  through preallocated ``(chunk, B, N_l)`` buffers with a ``dtype``
  option (float32 fast path, float64 default) and per-campaign cached
  weights, producing per-scenario output errors;
* **distribution** — the fork-once worker pool ships the network to
  each worker exactly once (pool initializer); jobs afterwards carry
  only chunk sizes + spawned ``SeedSequence`` children (Monte-Carlo)
  or combination index blocks (exhaustive), so results are
  deterministic and identical to the serial path.

``FailureScenario`` remains the expressive scalar-path API;
``FaultInjector.compile_batch`` lowers object scenarios into the same
:class:`~repro.faults.injector.CompiledScenarioBatch` mask
representation this engine consumes.
"""

from __future__ import annotations

import math
from time import perf_counter as _perf_counter
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..network.model import FeedForwardNetwork
from ..obs.recorder import RunObserver, block_span_if, fold_worker_payload
from ..parallel import bounded_map, fork_once_pool, worker_state
from .injector import (
    CompiledScenarioBatch,
    FaultInjector,
    MaskWorkspace,
    SynapseStageChannels,
    _stage_contributions,
    _stage_plan,
    apply_mask_channels,
    apply_synapse_corrections,
    fault_channel_action,
    synapse_fault_action,
)
from .types import (
    CrashFault,
    FaultModel,
    SynapseByzantineFault,
    SynapseFault,
    unseeded_rng,
)

__all__ = [
    "MaskSampler",
    "NeuronFaultSampler",
    "FixedDistributionSampler",
    "BernoulliSampler",
    "TotalCountShellSampler",
    "SynapseFaultSampler",
    "FixedSynapseDistributionSampler",
    "SynapseBernoulliSampler",
    "MixedFaultSampler",
    "merge_mask_batches",
    "empty_mask_batch",
    "combination_index_array",
    "masks_from_flat_indices",
    "MaskCampaignEngine",
    "sampled_campaign_errors",
    "exhaustive_crash_errors",
]


# ---------------------------------------------------------------------------
# Mask batches
# ---------------------------------------------------------------------------


def empty_mask_batch(
    layer_sizes: Sequence[int], n_scenarios: int
) -> CompiledScenarioBatch:
    """An all-healthy mask batch for ``n_scenarios`` scenarios.

    The canonical way to build a :class:`CompiledScenarioBatch` by
    hand: start empty, then fill the relevant channel masks in place.
    """
    S = int(n_scenarios)
    return CompiledScenarioBatch(
        zero_masks=[np.zeros((S, n), dtype=bool) for n in layer_sizes],
        set_masks=[np.zeros((S, n), dtype=bool) for n in layer_sizes],
        set_values=[np.zeros((S, n), dtype=np.float64) for n in layer_sizes],
        add_masks=[np.zeros((S, n), dtype=bool) for n in layer_sizes],
        add_values=[np.zeros((S, n), dtype=np.float64) for n in layer_sizes],
        names=[],
    )


def _slice_masks(arrays: List[np.ndarray], lo: int, hi: int) -> List[np.ndarray]:
    return [a[lo:hi] for a in arrays]


def _sample_fixed_count_masks(
    rng: np.random.Generator,
    n_scenarios: int,
    width: int,
    count: int,
    keys: "np.ndarray | None" = None,
) -> np.ndarray:
    """``(S, width)`` boolean masks with exactly ``count`` True per row,
    each row a uniform random ``count``-subset.

    Batched partition over i.i.d. uniform keys: the positions of the
    ``count`` smallest keys in a row are exchangeable, hence a uniform
    subset — the array-level equivalent of ``rng.choice(width, count,
    replace=False)`` per scenario.  The selection is realised by
    thresholding each row at its ``count``-th order statistic
    (``np.partition`` + one comparison), which is ~2x faster than the
    ``argpartition`` index scatter and picks the identical subset
    whenever the row's keys are distinct (almost surely).  Rows with a
    tie at the threshold — measure-zero, but guarded — fall back to
    ``argpartition``.

    ``keys`` optionally supplies the uniform key block (one ``(S,
    width)`` draw) — samplers with several fixed-count stages fuse the
    per-stage draws into a single generator call, which consumes the
    stream identically to sequential ``rng.random((S, width))`` calls
    and therefore picks bitwise-identical subsets.  Degenerate stages
    (``count`` of 0 or ``width``) never draw, with or without fusion.
    """
    if count > width:
        raise ValueError(f"cannot fail {count} neurons in a layer of width {width}")
    masks = np.zeros((n_scenarios, width), dtype=bool)
    if count == 0 or n_scenarios == 0:
        return masks
    if count == width:
        masks[:] = True
        return masks
    if keys is None:
        keys = rng.random((n_scenarios, width))
    # The count-th order statistic per row.  For tiny counts, iterative
    # extraction (argmin the running minimum away, then one final min)
    # beats introselect by ~2x on wide rows; all branches produce the
    # exact same value, ties included.
    if count == 1:
        kth = keys.min(axis=1)
    elif count == 2:
        scratch = keys.copy()
        scratch[np.arange(n_scenarios), scratch.argmin(axis=1)] = np.inf
        kth = scratch.min(axis=1)
    else:
        kth = np.partition(keys, count - 1, axis=1)[:, count - 1]
    np.less_equal(keys, kth[:, None], out=masks)
    # Threshold ties (duplicate keys): each row selects >= count cells
    # by construction, so the flat total equals S*count iff every row
    # is exact — one full reduction instead of a per-row axis sum.
    if np.count_nonzero(masks) != n_scenarios * count:
        bad = masks.sum(axis=1) != count
        rows = np.nonzero(bad)[0]
        masks[rows] = False
        picks = np.argpartition(keys[rows], count - 1, axis=1)[:, :count]
        masks[rows[:, None], picks] = True
    return masks


class MaskSampler:
    """Draws batches of fault masks directly as arrays.

    Subclasses implement :meth:`sample`; instances must be picklable so
    the fork-once worker pool can ship them to workers at initialisation
    (after which jobs carry only sizes and seeds).
    """

    layer_sizes: tuple

    def __init__(self, layer_sizes: Sequence[int]):
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        if any(n <= 0 for n in self.layer_sizes):
            raise ValueError(f"layer sizes must be positive, got {self.layer_sizes}")

    def check_network(self, network: FeedForwardNetwork) -> None:
        """Raise when this sampler's batches don't fit ``network``.

        Neuron samplers only carry layer-shaped masks, so matching
        layer sizes suffice; synapse samplers override this with a
        stronger identity check (their COO coordinates are tabulated
        from a specific network's synapse tables).
        """
        if tuple(self.layer_sizes) != network.layer_sizes:
            raise ValueError(
                f"sampler layer sizes {self.layer_sizes} != network "
                f"{network.layer_sizes}"
            )

    def sample(
        self, n_scenarios: int, rng: np.random.Generator
    ) -> CompiledScenarioBatch:
        """Draw ``n_scenarios`` scenarios as a mask batch."""
        raise NotImplementedError

    def _fused_fixed_count_masks(
        self,
        rng: np.random.Generator,
        n_scenarios: int,
        widths: Sequence[int],
        counts: Sequence[int],
    ) -> List[np.ndarray]:
        """Per-stage exact-``count`` masks off one fused key draw.

        The uniform keys of every non-degenerate stage come from a
        single ``rng.random(out=...)`` call into a buffer reused across
        chunks — the generator stream (hence every selected subset) is
        bitwise-identical to sequential per-stage draws, but a campaign
        pays one draw call and no fresh key allocations per chunk.
        """
        active = [
            (idx, w)
            for idx, (w, c) in enumerate(zip(widths, counts))
            if 0 < c < w
        ]
        keymap = {}
        if active and n_scenarios:
            total = n_scenarios * sum(w for _, w in active)
            buf = getattr(self, "_key_buf", None)
            if buf is None or buf.size < total:
                buf = self._key_buf = np.empty(total, dtype=np.float64)
            flat = buf[:total]
            rng.random(out=flat)
            off = 0
            for idx, w in active:
                block = n_scenarios * w
                keymap[idx] = flat[off:off + block].reshape(n_scenarios, w)
                off += block
        return [
            _sample_fixed_count_masks(
                rng, n_scenarios, w, c, keys=keymap.get(idx)
            )
            for idx, (w, c) in enumerate(zip(widths, counts))
        ]

    def __getstate__(self):
        # The fused-draw key buffer is a per-process scratch: drop it
        # when the fork pool pickles samplers out to workers.
        state = self.__dict__.copy()
        state.pop("_key_buf", None)
        return state


class NeuronFaultSampler(MaskSampler):
    """Base for samplers that attach one neuron-fault model to random
    neuron populations.

    Accepts the *entire* neuron-fault taxonomy: static faults route to
    the zero/set/add channels, sign flip to the scale channel, noise to
    the noise channel, and intermittent faults gate their wrapped
    fault's channel with ``gate_p``.
    """

    def __init__(self, layer_sizes: Sequence[int], fault: Optional[FaultModel] = None):
        super().__init__(layer_sizes)
        fault = fault if fault is not None else CrashFault()
        if isinstance(fault, SynapseFault):
            raise ValueError(
                f"{fault!r} is a synapse fault; use a SynapseFaultSampler"
            )
        action = fault_channel_action(fault)
        if action is None:
            raise ValueError(
                f"fault {fault!r} has no mask-channel lowering; extend "
                "fault_channel_action to cover it"
            )
        self.fault = fault
        self._action_kind, self._action_value, self._action_gate = action

    def _batch_from_layer_masks(
        self, layer_masks: List[np.ndarray]
    ) -> CompiledScenarioBatch:
        """Route per-layer boolean masks into the fault's action channel."""
        S = layer_masks[0].shape[0] if layer_masks else 0
        batch = empty_mask_batch(self.layer_sizes, S)
        kind, value = self._action_kind, self._action_value
        if kind == "scale":
            batch.scale_masks = [
                np.zeros((S, n), dtype=bool) for n in self.layer_sizes
            ]
            batch.scale_values = [np.zeros((S, n)) for n in self.layer_sizes]
        elif kind == "noise":
            batch.noise_masks = [
                np.zeros((S, n), dtype=bool) for n in self.layer_sizes
            ]
            batch.noise_sigma = [np.zeros((S, n)) for n in self.layer_sizes]
        if self._action_gate < 1.0:
            batch.gate_p = [np.ones((S, n)) for n in self.layer_sizes]
        for l0, mask in enumerate(layer_masks):
            if kind == "zero":
                batch.zero_masks[l0] = mask
            elif kind == "set":
                batch.set_masks[l0] = mask
                batch.set_values[l0][mask] = value
            elif kind == "scale":
                batch.scale_masks[l0] = mask
                batch.scale_values[l0][mask] = value
            elif kind == "noise":
                batch.noise_masks[l0] = mask
                batch.noise_sigma[l0][mask] = value
            else:  # "add" (capacity sentinels resolved by the engine)
                batch.add_masks[l0] = mask
                batch.add_values[l0][mask] = value
            if self._action_gate < 1.0:
                batch.gate_p[l0][mask] = self._action_gate
        return batch


class FixedDistributionSampler(NeuronFaultSampler):
    """Uniform scenarios with exactly ``f_l`` failed neurons per layer.

    The array-level twin of
    :func:`repro.faults.scenarios.random_failure_scenario`: identical
    per-layer distribution (every ``f_l``-subset of layer ``l`` equally
    likely, layers independent), drawn ``S`` scenarios at a time.
    """

    def __init__(
        self,
        network_or_sizes: "FeedForwardNetwork | Sequence[int]",
        distribution: Sequence[int],
        *,
        fault: Optional[FaultModel] = None,
    ):
        sizes = (
            network_or_sizes.layer_sizes
            if isinstance(network_or_sizes, FeedForwardNetwork)
            else network_or_sizes
        )
        super().__init__(sizes, fault)
        self.distribution = tuple(int(f) for f in distribution)
        if len(self.distribution) != len(self.layer_sizes):
            raise ValueError(
                f"distribution length {len(self.distribution)} != depth "
                f"{len(self.layer_sizes)}"
            )
        for f, n in zip(self.distribution, self.layer_sizes):
            if not 0 <= f <= n:
                raise ValueError(
                    f"failure counts {self.distribution} outside layer sizes "
                    f"{self.layer_sizes}"
                )

    def sample(self, n_scenarios, rng):
        layer_masks = self._fused_fixed_count_masks(
            rng, n_scenarios, self.layer_sizes, self.distribution
        )
        return self._batch_from_layer_masks(layer_masks)


class BernoulliSampler(NeuronFaultSampler):
    """Scenarios failing every neuron independently with probability ``p``.

    The array-level twin of the reliability module's i.i.d. trial loop
    (Section V-A's survival-probability experiments).
    """

    def __init__(
        self,
        network_or_sizes: "FeedForwardNetwork | Sequence[int]",
        p_fail: float,
        *,
        fault: Optional[FaultModel] = None,
    ):
        sizes = (
            network_or_sizes.layer_sizes
            if isinstance(network_or_sizes, FeedForwardNetwork)
            else network_or_sizes
        )
        super().__init__(sizes, fault)
        if not 0 <= p_fail <= 1:
            raise ValueError(f"p_fail must be in [0,1], got {p_fail}")
        self.p_fail = float(p_fail)

    def sample(self, n_scenarios, rng):
        layer_masks = [
            rng.random((n_scenarios, n)) < self.p_fail for n in self.layer_sizes
        ]
        return self._batch_from_layer_masks(layer_masks)


class TotalCountShellSampler(NeuronFaultSampler):
    """Uniform scenarios with exactly ``count`` failures network-wide.

    The conditional law of i.i.d. Bernoulli failures given their total:
    conditioning ``F_j ~ Bernoulli(p)`` on ``sum F_j = count`` makes the
    failed set a uniform ``count``-subset of all ``N`` neurons (every
    layer split then follows the multivariate hypergeometric).  This is
    the stratum sampler of the stratified/importance rare-event
    estimator (:mod:`repro.faults.adaptive`): stratum ``k`` of the
    total-fault-count lattice is sampled by drawing exact-``count``
    masks over the flattened width and splitting them per layer —
    one fixed-count draw, any neuron fault kind via the action-channel
    routing.
    """

    def __init__(
        self,
        network_or_sizes: "FeedForwardNetwork | Sequence[int]",
        count: int,
        *,
        fault: Optional[FaultModel] = None,
    ):
        sizes = (
            network_or_sizes.layer_sizes
            if isinstance(network_or_sizes, FeedForwardNetwork)
            else network_or_sizes
        )
        super().__init__(sizes, fault)
        self.count = int(count)
        total = sum(self.layer_sizes)
        if not 0 <= self.count <= total:
            raise ValueError(
                f"shell count {count} outside [0, {total}] for layer "
                f"sizes {self.layer_sizes}"
            )
        self._offsets = np.concatenate(
            [[0], np.cumsum(self.layer_sizes)]
        ).astype(np.intp)

    def sample(self, n_scenarios, rng):
        flat = _sample_fixed_count_masks(
            rng, n_scenarios, int(self._offsets[-1]), self.count
        )
        layer_masks = [
            np.ascontiguousarray(flat[:, self._offsets[l0]:self._offsets[l0 + 1]])
            for l0 in range(len(self.layer_sizes))
        ]
        return self._batch_from_layer_masks(layer_masks)


class SynapseFaultSampler(MaskSampler):
    """Base for samplers that fail random *synapses* (Theorem 4 / Lemma 2).

    The network's physical synapses are tabulated once per stage
    (``depth + 1`` stages; the last feeds the output node): stage ``l``
    keeps the ``(j, i)`` coordinates of its existing synapses, so a
    draw over "which synapses fail" is a draw over flat physical
    indices — the same batched machinery as the neuron samplers — then
    a cheap gather into sparse :class:`SynapseStageChannels`.
    """

    def __init__(
        self,
        network: FeedForwardNetwork,
        fault: Optional[FaultModel] = None,
    ):
        super().__init__(network.layer_sizes)
        fault = fault if fault is not None else SynapseByzantineFault()
        action = synapse_fault_action(fault)
        if action is None:
            raise ValueError(
                f"fault {fault!r} has no weight-level lowering; synapse "
                "samplers support crash / Byzantine / noise synapse faults"
            )
        self.fault = fault
        self._action_kind, self._action_value = action
        self.depth = network.depth
        self.input_dim = network.input_dim
        self.n_outputs = network.n_outputs
        self._stage_j: List[np.ndarray] = []
        self._stage_i: List[np.ndarray] = []
        for layer in network.layers:
            js, is_ = np.nonzero(layer.synapse_mask())
            self._stage_j.append(js.astype(np.intp))
            self._stage_i.append(is_.astype(np.intp))
        js, is_ = np.nonzero(
            np.ones((network.n_outputs, network.layer_sizes[-1]), dtype=bool)
        )
        self._stage_j.append(js.astype(np.intp))
        self._stage_i.append(is_.astype(np.intp))

    def check_network(self, network: FeedForwardNetwork) -> None:
        """The COO ``(j, i)`` tables address one concrete network: two
        networks with identical layer sizes can still differ in
        input dimension, output count or (conv) synapse topology, and a
        mismatched scatter would silently corrupt the wrong weights."""
        super().check_network(network)
        if (network.input_dim, network.n_outputs) != (
            self.input_dim, self.n_outputs
        ):
            raise ValueError(
                f"sampler synapse tables were built for input_dim="
                f"{self.input_dim}, n_outputs={self.n_outputs}; network has "
                f"input_dim={network.input_dim}, n_outputs={network.n_outputs}"
            )
        for l0, layer in enumerate(network.layers):
            js, is_ = np.nonzero(layer.synapse_mask())
            if not (
                np.array_equal(js, self._stage_j[l0])
                and np.array_equal(is_, self._stage_i[l0])
            ):
                raise ValueError(
                    f"sampler synapse table for stage {l0 + 1} does not "
                    "match the network's physical synapses"
                )

    @property
    def stage_synapse_counts(self) -> tuple:
        """Number of physical synapses per stage ``1..L+1``."""
        return tuple(j.size for j in self._stage_j)

    def _stage_from_hits(self, hits: np.ndarray, stage: int) -> SynapseStageChannels:
        """Lower an ``(S, n_physical)`` hit mask into one stage's channels."""
        # flatnonzero + divmod walks the raveled mask once — ~7x faster
        # than np.nonzero's coordinate-tuple path, with identical
        # (row-major) ordering of the recovered (s, k) pairs.
        flat = np.flatnonzero(hits)
        s, k = np.divmod(flat, hits.shape[1])
        j, i = self._stage_j[stage][k], self._stage_i[stage][k]
        kind, value = self._action_kind, self._action_value
        if kind == "zero":
            return SynapseStageChannels(zero_s=s, zero_j=j, zero_i=i)
        if kind == "add":
            return SynapseStageChannels(
                add_s=s, add_j=j, add_i=i,
                add_values=np.full(s.size, value, dtype=np.float64),
            )
        return SynapseStageChannels(
            noise_s=s, noise_j=j, noise_i=i,
            noise_sigma=np.full(s.size, value, dtype=np.float64),
        )

    def _batch_from_hits(self, hit_masks: List[np.ndarray]) -> CompiledScenarioBatch:
        S = hit_masks[0].shape[0] if hit_masks else 0
        batch = empty_mask_batch(self.layer_sizes, S)
        batch.synapse_stages = [
            self._stage_from_hits(hits, stage)
            for stage, hits in enumerate(hit_masks)
        ]
        batch._neuron_clear = True  # only synapse channels were populated
        return batch


class FixedSynapseDistributionSampler(SynapseFaultSampler):
    """Uniform scenarios failing exactly ``f_l`` synapses per stage.

    The array-level twin of
    :func:`repro.faults.scenarios.random_synapse_scenario`:
    ``distribution`` has length ``L + 1`` (the ``Nfail`` of Theorem 4),
    every ``f_l``-subset of a stage's physical synapses equally
    likely, stages independent.
    """

    def __init__(
        self,
        network: FeedForwardNetwork,
        distribution: Sequence[int],
        *,
        fault: Optional[FaultModel] = None,
    ):
        super().__init__(network, fault)
        self.distribution = tuple(int(f) for f in distribution)
        counts = self.stage_synapse_counts
        if len(self.distribution) != len(counts):
            raise ValueError(
                f"distribution length {len(self.distribution)} != L+1 = "
                f"{len(counts)}"
            )
        for f, n in zip(self.distribution, counts):
            if not 0 <= f <= n:
                raise ValueError(
                    f"synapse failure counts {self.distribution} outside "
                    f"stage synapse counts {counts}"
                )

    def sample(self, n_scenarios, rng):
        hits = self._fused_fixed_count_masks(
            rng, n_scenarios, self.stage_synapse_counts, self.distribution
        )
        return self._batch_from_hits(hits)


class SynapseBernoulliSampler(SynapseFaultSampler):
    """Scenarios failing every physical synapse independently with ``p``."""

    def __init__(
        self,
        network: FeedForwardNetwork,
        p_fail: float,
        *,
        fault: Optional[FaultModel] = None,
    ):
        super().__init__(network, fault)
        if not 0 <= p_fail <= 1:
            raise ValueError(f"p_fail must be in [0,1], got {p_fail}")
        self.p_fail = float(p_fail)

    def sample(self, n_scenarios, rng):
        hits = [
            rng.random((n_scenarios, n)) < self.p_fail
            for n in self.stage_synapse_counts
        ]
        return self._batch_from_hits(hits)


def _ensure_channel(batch: CompiledScenarioBatch, masks_attr: str,
                    values_attr: str, layer_sizes, S: int) -> None:
    if getattr(batch, masks_attr) is None:
        setattr(
            batch, masks_attr,
            [np.zeros((S, n), dtype=bool) for n in layer_sizes],
        )
        setattr(batch, values_attr, [np.zeros((S, n)) for n in layer_sizes])


def _merged_stage(stages: List[SynapseStageChannels]) -> SynapseStageChannels:
    """Concatenate stage entries; on duplicate ``(s, j, i)`` the entry
    from the *latest* contributing batch wins (scenario-dict semantics)."""
    s_parts, j_parts, i_parts, kind_parts, val_parts = [], [], [], [], []
    for st in stages:
        for kind_code, (s, j, i, v) in enumerate(
            (
                (st.zero_s, st.zero_j, st.zero_i, None),
                (st.add_s, st.add_j, st.add_i, st.add_values),
                (st.noise_s, st.noise_j, st.noise_i, st.noise_sigma),
            )
        ):
            if s.size:
                s_parts.append(s)
                j_parts.append(j)
                i_parts.append(i)
                kind_parts.append(np.full(s.size, kind_code, dtype=np.intp))
                val_parts.append(
                    np.zeros(s.size) if v is None else np.asarray(v, np.float64)
                )
    if not s_parts:
        return SynapseStageChannels()
    s = np.concatenate(s_parts)
    j = np.concatenate(j_parts)
    i = np.concatenate(i_parts)
    kind = np.concatenate(kind_parts)
    val = np.concatenate(val_parts)
    # Keep-last dedupe on (s, j, i): reverse, take first occurrences.
    key = np.stack([s[::-1], j[::-1], i[::-1]], axis=1)
    _, first = np.unique(key, axis=0, return_index=True)
    keep = (s.size - 1) - first
    s, j, i, kind, val = s[keep], j[keep], i[keep], kind[keep], val[keep]
    z, a, n = kind == 0, kind == 1, kind == 2
    return SynapseStageChannels(
        s[z], j[z], i[z], s[a], j[a], i[a], val[a], s[n], j[n], i[n], val[n]
    )


def merge_mask_batches(
    layer_sizes: Sequence[int], batches: Sequence[CompiledScenarioBatch]
) -> CompiledScenarioBatch:
    """Per-scenario union of several mask batches.

    Scenario ``s`` of the result carries scenario ``s``'s faults from
    *every* input batch; where two batches target the same neuron cell
    or synapse, the later batch wins (the array-level analogue of
    ``FailureScenario.merged_with``).
    """
    sizes = tuple(int(n) for n in layer_sizes)
    if not batches:
        return empty_mask_batch(sizes, 0)
    S = batches[0].num_scenarios
    out = empty_mask_batch(sizes, S)
    for b in batches:
        if b.num_scenarios != S:
            raise ValueError(
                f"cannot merge batches of {b.num_scenarios} and {S} scenarios"
            )
        for l0 in range(len(sizes)):
            occupied = b.zero_masks[l0] | b.set_masks[l0] | b.add_masks[l0]
            if b.scale_masks is not None:
                occupied |= b.scale_masks[l0]
            if b.noise_masks is not None:
                occupied |= b.noise_masks[l0]
            if occupied.any():
                out.zero_masks[l0] &= ~occupied
                out.set_masks[l0] &= ~occupied
                out.add_masks[l0] &= ~occupied
                if out.scale_masks is not None:
                    out.scale_masks[l0] &= ~occupied
                if out.noise_masks is not None:
                    out.noise_masks[l0] &= ~occupied
                if out.gate_p is not None:
                    out.gate_p[l0][occupied] = 1.0
            out.zero_masks[l0] |= b.zero_masks[l0]
            out.set_masks[l0] |= b.set_masks[l0]
            np.copyto(out.set_values[l0], b.set_values[l0],
                      where=b.set_masks[l0])
            out.add_masks[l0] |= b.add_masks[l0]
            np.copyto(out.add_values[l0], b.add_values[l0],
                      where=b.add_masks[l0])
            if b.scale_masks is not None and b.scale_masks[l0].any():
                _ensure_channel(out, "scale_masks", "scale_values", sizes, S)
                out.scale_masks[l0] |= b.scale_masks[l0]
                np.copyto(out.scale_values[l0], b.scale_values[l0],
                          where=b.scale_masks[l0])
            if b.noise_masks is not None and b.noise_masks[l0].any():
                _ensure_channel(out, "noise_masks", "noise_sigma", sizes, S)
                out.noise_masks[l0] |= b.noise_masks[l0]
                np.copyto(out.noise_sigma[l0], b.noise_sigma[l0],
                          where=b.noise_masks[l0])
            if b.gate_p is not None and np.any(b.gate_p[l0] < 1.0):
                if out.gate_p is None:
                    out.gate_p = [np.ones((S, n)) for n in sizes]
                np.copyto(out.gate_p[l0], b.gate_p[l0],
                          where=b.gate_p[l0] < 1.0)
    if any(b.synapse_stages is not None for b in batches):
        n_stages = max(
            len(b.synapse_stages)
            for b in batches
            if b.synapse_stages is not None
        )
        out.synapse_stages = [
            _merged_stage(
                [
                    b.synapse_stages[stage]
                    for b in batches
                    if b.synapse_stages is not None
                ]
            )
            for stage in range(n_stages)
        ]
    return out


class MixedFaultSampler(MaskSampler):
    """Heterogeneous fault populations per scenario.

    Each component sampler draws its own population for every scenario
    and the per-scenario union is one deployment — e.g. two crashed
    neurons + one Byzantine neuron + Bernoulli synapse noise, the
    "realistic mixed deployment" the reliability and boosting
    experiments model.  Components draw sequentially from the shared
    generator, so a mixed campaign is exactly as reproducible as its
    parts; on the rare cell targeted by two components, the later
    component wins (scenario-dict merge semantics).
    """

    def __init__(self, components: Sequence[MaskSampler]):
        components = list(components)
        if not components:
            raise ValueError("MixedFaultSampler needs at least one component")
        super().__init__(components[0].layer_sizes)
        for c in components[1:]:
            if tuple(c.layer_sizes) != self.layer_sizes:
                raise ValueError(
                    f"component layer sizes {c.layer_sizes} != "
                    f"{self.layer_sizes}"
                )
        self.components = components

    def check_network(self, network: FeedForwardNetwork) -> None:
        for c in self.components:
            c.check_network(network)

    def sample(self, n_scenarios, rng):
        return merge_mask_batches(
            self.layer_sizes,
            [c.sample(n_scenarios, rng) for c in self.components],
        )


# ---------------------------------------------------------------------------
# Exhaustive sweeps, compiled to index arrays
# ---------------------------------------------------------------------------


def combination_index_array(n: int, k: int) -> np.ndarray:
    """All ``C(n, k)`` lexicographic combinations as an ``(M, k)`` array.

    Replaces ``itertools.combinations`` in the exhaustive campaigns:
    blocks sharing a prefix are filled in bulk (the innermost column is
    a single ``arange`` write per prefix), so the Python-level work is
    proportional to the number of *prefixes*, not the number of
    combinations.
    """
    if k < 0 or n < 0:
        raise ValueError(f"need n, k >= 0, got n={n}, k={k}")
    if k > n:
        return np.empty((0, k), dtype=np.intp)
    m = math.comb(n, k)
    out = np.empty((m, k), dtype=np.intp)

    # Explicit stack instead of recursion: block regions are disjoint,
    # so fill order is immaterial, and depth never hits a Python
    # recursion limit even for k ~ n.
    stack: List[tuple] = [(out, 0, k)]
    while stack:
        block, start, k_left = stack.pop()
        if k_left == 0:
            continue
        if k_left == 1:
            block[:, 0] = np.arange(start, n, dtype=np.intp)
            continue
        row = 0
        for first in range(start, n - k_left + 1):
            c = math.comb(n - first - 1, k_left - 1)
            block[row : row + c, 0] = first
            stack.append((block[row : row + c, 1:], first + 1, k_left - 1))
            row += c
    return out


def masks_from_flat_indices(
    layer_sizes: Sequence[int], flat_indices: np.ndarray
) -> CompiledScenarioBatch:
    """Crash-mask batch from ``(S, k)`` flat neuron indices.

    Flat indices follow layer-major order (the
    :meth:`FeedForwardNetwork.flat_index` convention).  The scatter is
    fully vectorised: one boolean partition + fancy-index write per
    layer, regardless of ``S``.
    """
    sizes = tuple(int(v) for v in layer_sizes)
    flat = np.asarray(flat_indices, dtype=np.intp)
    if flat.ndim != 2:
        raise ValueError(f"flat_indices must be 2-D (S, k), got shape {flat.shape}")
    total = sum(sizes)
    if flat.size and (flat.min() < 0 or flat.max() >= total):
        raise ValueError(f"flat indices outside 0..{total - 1}")
    batch = empty_mask_batch(sizes, flat.shape[0])
    if flat.size == 0:
        return batch
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    layer_of = np.searchsorted(offsets, flat, side="right") - 1  # (S, k)
    within = flat - offsets[layer_of]
    rows = np.broadcast_to(np.arange(flat.shape[0])[:, None], flat.shape)
    for l0 in range(len(sizes)):
        pick = layer_of == l0
        if pick.any():
            batch.zero_masks[l0][rows[pick], within[pick]] = True
    return batch


# ---------------------------------------------------------------------------
# Streaming evaluation
# ---------------------------------------------------------------------------


class MaskCampaignEngine:
    """Streams mask batches through preallocated activation buffers.

    Built once per campaign (or once per worker): caches the probe
    inputs, the nominal outputs, and dtype-cast transposed weights; then
    :meth:`evaluate` processes any number of scenarios in slices of at
    most ``chunk_size``, reusing one ``(chunk, B, N_l)`` buffer per
    layer.  Peak memory is therefore bounded by the chunk, not the
    campaign.

    ``dtype=float64`` (default) matches the scalar injector bit-for-bit
    up to float associativity; ``dtype=float32`` halves memory traffic
    and roughly doubles GEMM throughput at ~1e-6 relative error —
    plenty for Monte-Carlo campaign statistics (see DESIGN.md).
    """

    def __init__(
        self,
        injector: FaultInjector,
        x: np.ndarray,
        *,
        chunk_size: int = 1024,
        reduction: str = "max",
        dtype: "str | np.dtype" = np.float64,
    ):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if reduction not in ("max", "mean"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype}")
        self.injector = injector
        self.network = injector.network
        self.capacity = injector.capacity
        self.chunk_size = int(chunk_size)
        self.reduction = reduction

        xb, _ = self.network._as_batch(x)
        # The float64 original is kept alongside the engine-dtype cast:
        # the engine-reuse guard in sampled_campaign_errors compares
        # probe batches in float64, so two distinct float64 batches
        # that collide at float32 cannot silently pass on a float32
        # engine.
        self.xb64 = np.array(xb, dtype=np.float64)
        self.xb = np.ascontiguousarray(xb, dtype=self.dtype)
        self.batch_size = self.xb.shape[0]

        # Per-campaign weight cache: transposed dense weights and bias
        # vectors in the engine dtype (one cast, reused every chunk).
        self._weights_t: List[np.ndarray] = []
        self._biases: List[Optional[np.ndarray]] = []
        for layer in self.network.layers:
            self._weights_t.append(
                np.ascontiguousarray(layer.dense_weights().T, dtype=self.dtype)
            )
            if getattr(layer, "use_bias", False):
                bias = np.asarray(layer.parameters()["bias"], dtype=self.dtype)
                # Conv1D carries a single shared bias; broadcast is fine.
                self._biases.append(bias)
            else:
                self._biases.append(None)
        self._out_weights_t = np.ascontiguousarray(
            self.network.output_weights.T, dtype=self.dtype
        )
        self._out_bias = np.asarray(self.network.output_bias, dtype=self.dtype)

        # First-layer activations are scenario-independent: compute once.
        self._base_first = self._layer_forward(0, self.xb)
        # Nominal outputs through the same cached path (so float32
        # campaigns compare faulty vs nominal in the same precision).
        y = self._base_first
        for l0 in range(1, self.network.depth):
            y = self._layer_forward(l0, y)
        self._nominal = y @ self._out_weights_t + self._out_bias  # (B, n_out)

        self._buffers: Optional[List[np.ndarray]] = None
        self._out_buffer: Optional[np.ndarray] = None
        self._base_pre1: Optional[np.ndarray] = None
        self._base_pre1_t: Optional[np.ndarray] = None
        self._workspace = MaskWorkspace()
        #: Optional :class:`~repro.profiling.PhaseProfile`; when set,
        #: :meth:`_evaluate_slice` charges wall time to its buckets.
        self.profile = None

    # -- internals ---------------------------------------------------------

    def _layer_forward(self, l0: int, y: np.ndarray) -> np.ndarray:
        s = y @ self._weights_t[l0]
        if self._biases[l0] is not None:
            s += self._biases[l0]
        out = self.network.layers[l0].activation.evaluate_into(s, s)
        self._post_activation(l0, out)
        return out

    def _post_activation(self, l0: int, arr: np.ndarray) -> None:
        """Hook on every layer's post-activation values (in place).

        A no-op here; quantized backends override it to round emissions
        to their wire precision before faults corrupt them — see
        :class:`repro.backends.quantized.QuantizedMaskEngine`.
        """

    def _stage_weights(self, stage: int) -> np.ndarray:
        """Dense ``(N_out, N_in)`` weights of synapse stage ``stage``
        (0-based; ``depth`` is the output stage), in the engine dtype."""
        if stage == self.network.depth:
            return self._out_weights_t.T
        return self._weights_t[stage].T

    def _ensure_base_pre1(self) -> np.ndarray:
        """Cached layer-1 *pre-activation* sums ``(B, N_1)``; needed only
        by scenarios with stage-1 synapse faults, where the received
        sums must be corrected before squashing."""
        if self._base_pre1 is None:
            s = self.xb @ self._weights_t[0]
            if self._biases[0] is not None:
                s += self._biases[0]
            self._base_pre1 = s
            # Contiguous (N_1, B) twin: the sparse stage-1 kernel
            # gathers per-neuron rows, which is fastest off this layout.
            self._base_pre1_t = np.ascontiguousarray(s.T)
        return self._base_pre1

    def _ensure_buffers(self) -> None:
        if self._buffers is not None:
            return
        chunk, B = self.chunk_size, self.batch_size
        self._buffers = [
            np.empty((chunk, B, n), dtype=self.dtype)
            for n in self.network.layer_sizes
        ]
        self._out_buffer = np.empty(
            (chunk, B, self.network.n_outputs), dtype=self.dtype
        )

    def _apply_masks(
        self,
        Y: np.ndarray,
        batch: CompiledScenarioBatch,
        l0: int,
        lo: int,
        hi: int,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        """In-place fault application on ``(S, B, N_l)`` activations
        through :func:`~repro.faults.injector.apply_mask_channels`."""
        if batch.neuron_channels_clear:
            return  # scan-free, draw-free skip (see CompiledScenarioBatch)

        def chan(lst):
            return lst[l0][lo:hi] if lst is not None else None

        apply_mask_channels(
            Y,
            batch.zero_masks[l0][lo:hi],
            batch.set_masks[l0][lo:hi],
            batch.set_values[l0][lo:hi],
            batch.add_masks[l0][lo:hi],
            batch.add_values[l0][lo:hi],
            self.capacity,
            scale_mask=chan(batch.scale_masks),
            scale_values=chan(batch.scale_values),
            noise_mask=chan(batch.noise_masks),
            noise_sigma=chan(batch.noise_sigma),
            gate_p=chan(batch.gate_p),
            rng=rng,
            workspace=self._workspace,
        )

    def _corrected_first_layer(
        self,
        Y: np.ndarray,
        st0: SynapseStageChannels,
        rng: "np.random.Generator | None",
    ) -> None:
        """Stage-1 synapse corrections via the sparse segment plan.

        Only the ``T`` distinct ``(scenario, neuron)`` targets differ
        from the nominal first layer, so instead of broadcasting and
        re-squashing all ``S x B x N_1`` received sums, gather the
        cached base pre-activations of the targets, accumulate the
        corrections there (same per-target order as the dense
        reference), squash the ``(T, B)`` cells, and scatter them over
        the broadcast nominal activations.  Elementwise identical to
        correcting and squashing the full broadcast tensor — untouched
        cells squash the identical base sums — hence bitwise-equal
        results (``tests/oracles.py`` keeps that dense form).
        """
        plan = _stage_plan(st0, Y.shape[2])
        contrib = _stage_contributions(
            st0, plan, self.xb, self._stage_weights(0), self.capacity, rng,
            self.batch_size,
        )
        self._ensure_base_pre1()
        tgt = self._base_pre1_t[plan.u_j]  # (T, B) gather-copy
        if plan.first is None:
            tgt += contrib  # identity plan: entries already in target order
        else:
            tgt += contrib[plan.first]
        if plan.rest is not None:
            np.add.at(tgt, plan.rest_rows, contrib[plan.rest])
        self.network.layers[0].activation.evaluate_into(tgt, tgt)
        self._post_activation(0, tgt)
        Y[...] = self._base_first  # broadcast (B, N_1) over S scenarios
        Y.transpose(0, 2, 1)[plan.u_s, plan.u_j] = tgt

    def _evaluate_slice(
        self,
        batch: CompiledScenarioBatch,
        lo: int,
        hi: int,
        want_outputs: bool,
        rng: "np.random.Generator | None" = None,
    ) -> np.ndarray:
        self._ensure_buffers()
        S, B = hi - lo, self.batch_size
        net = self.network
        stages = batch.synapse_stages
        prof = self.profile
        tick = prof.timer() if prof is not None else None

        def stage(l0: int):
            if stages is None or stages[l0].is_empty:
                return None
            if lo == 0 and hi >= batch.num_scenarios:
                return stages[l0]  # full cover: keep the cached plan
            st = stages[l0].sliced(lo, hi)
            return None if st.is_empty else st

        Y = self._buffers[0][:S]
        st0 = stage(0)
        if tick is not None:
            tick("compile")
        if st0 is not None:
            # Stage-1 synapse faults corrupt the received sums of layer 1.
            self._corrected_first_layer(Y, st0, rng)
            if tick is not None:
                tick("corrections")
        else:
            Y[...] = self._base_first  # broadcast (B, N_1) over S scenarios
            if tick is not None:
                tick("gemm")
        self._apply_masks(Y, batch, 0, lo, hi, rng)
        if tick is not None:
            tick("corrections")
        for l0 in range(1, net.depth):
            src = self._buffers[l0 - 1][:S].reshape(S * B, -1)
            dst = self._buffers[l0][:S].reshape(S * B, -1)
            np.matmul(src, self._weights_t[l0], out=dst)
            if self._biases[l0] is not None:
                dst += self._biases[l0]
            if tick is not None:
                tick("gemm")
            st = stage(l0)
            if st is not None:
                apply_synapse_corrections(
                    self._buffers[l0][:S], st, self._buffers[l0 - 1][:S],
                    self._stage_weights(l0), self.capacity, rng,
                )
                if tick is not None:
                    tick("corrections")
            net.layers[l0].activation.evaluate_into(dst, dst)
            self._post_activation(l0, dst)
            if tick is not None:
                tick("gemm")
            self._apply_masks(self._buffers[l0][:S], batch, l0, lo, hi, rng)
            if tick is not None:
                tick("corrections")
        out2d = self._out_buffer[:S].reshape(S * B, -1)
        np.matmul(
            self._buffers[net.depth - 1][:S].reshape(S * B, -1),
            self._out_weights_t,
            out=out2d,
        )
        out2d += self._out_bias
        if tick is not None:
            tick("gemm")
        out = self._out_buffer[:S]
        st = stage(net.depth)
        if st is not None:
            apply_synapse_corrections(
                out, st, self._buffers[net.depth - 1][:S],
                self._stage_weights(net.depth), self.capacity, rng,
            )
            if tick is not None:
                tick("corrections")
        if want_outputs:
            return out.copy()
        err = np.abs(out - self._nominal[None]).max(axis=2)  # (S, B)
        result = err.max(axis=1) if self.reduction == "max" else err.mean(axis=1)
        if tick is not None:
            tick("reduction")
            prof.scenarios += S
        return result

    def _resolve_rng(
        self, batch: CompiledScenarioBatch, rng: "np.random.Generator | None"
    ) -> "np.random.Generator | None":
        if rng is None and batch.is_stochastic:
            rng = unseeded_rng("MaskCampaignEngine.evaluate")
        return rng

    # -- public API --------------------------------------------------------

    def evaluate(
        self,
        batch: CompiledScenarioBatch,
        *,
        rng: "np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Per-scenario output errors, shape ``(S,)``, streamed in chunks.

        Stochastic batches (noise channels, intermittent gates, synapse
        noise) realise their draws from ``rng``, slice by slice;
        omitting it on such a batch warns once and falls back to fresh
        entropy (irreproducible).
        """
        S = batch.num_scenarios
        if S == 0:
            return np.empty(0, dtype=np.float64)
        rng = self._resolve_rng(batch, rng)
        pieces = [
            self._evaluate_slice(
                batch, lo, min(lo + self.chunk_size, S), False, rng
            )
            for lo in range(0, S, self.chunk_size)
        ]
        return np.concatenate(pieces).astype(np.float64, copy=False)

    def outputs(
        self,
        batch: CompiledScenarioBatch,
        *,
        rng: "np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Faulty outputs ``(S, B, n_outputs)`` (materialised; prefer
        :meth:`evaluate` for large campaigns)."""
        S = batch.num_scenarios
        if S == 0:
            return np.empty((0, self.batch_size, self.network.n_outputs))
        rng = self._resolve_rng(batch, rng)
        pieces = [
            self._evaluate_slice(
                batch, lo, min(lo + self.chunk_size, S), True, rng
            )
            for lo in range(0, S, self.chunk_size)
        ]
        return np.concatenate(pieces)

    @property
    def nominal(self) -> np.ndarray:
        """Nominal outputs ``(B, n_outputs)`` in the engine dtype."""
        return self._nominal


# ---------------------------------------------------------------------------
# Fork-once worker pool plumbing
# ---------------------------------------------------------------------------

def _build_campaign_state(  # pragma: no cover - subprocess body
    network, capacity, xb, chunk_size, reduction, dtype, sampler,
    instrument=False,
):
    """fork_once_pool builder: this worker's engine, built exactly once."""
    injector = FaultInjector(network, capacity=capacity)
    engine = MaskCampaignEngine(
        injector, xb, chunk_size=chunk_size, reduction=reduction, dtype=dtype
    )
    return {"engine": engine, "sampler": sampler, "instrument": instrument}


def _worker_sample_and_evaluate(job):  # pragma: no cover - subprocess body
    """Job payload: ``(block_index, n_scenarios, SeedSequence)``.

    The block's generator first drives the sampler, then (for
    stochastic fault models) the evaluation-time draws — the same
    stream discipline as the serial path, so serial == parallel.
    Returns ``(errors, payload)`` where ``payload`` is the block's
    observation payload (spans + metrics + per-phase seconds) when the
    pool was built with ``instrument=True``, else None — recording
    draws no randomness, so the errors are bitwise identical either
    way.
    """
    index, size, seed_seq = job
    state = worker_state()
    engine = state["engine"]
    rng = np.random.default_rng(seed_seq)
    if not state.get("instrument"):
        batch = state["sampler"].sample(size, rng)
        return engine.evaluate(batch, rng=rng), None
    ob = RunObserver()
    engine.profile = ob.profile
    try:
        with ob.block_span(index, size):
            t0 = _perf_counter()
            batch = state["sampler"].sample(size, rng)
            ob.profile.add("sampling", _perf_counter() - t0)
            errors = engine.evaluate(batch, rng=rng)
    finally:
        engine.profile = None
    return errors, ob.worker_payload()


def _worker_evaluate_flat(job):  # pragma: no cover - subprocess body
    """Job payload: ``(block_index, flat)`` with ``flat`` an ``(S, k)``
    flat combination index block.  Returns ``(errors, payload)`` like
    :func:`_worker_sample_and_evaluate`."""
    index, flat = job
    state = worker_state()
    engine = state["engine"]
    if not state.get("instrument"):
        batch = masks_from_flat_indices(engine.network.layer_sizes, flat)
        return engine.evaluate(batch), None
    ob = RunObserver()
    engine.profile = ob.profile
    try:
        with ob.block_span(index, int(flat.shape[0])):
            t0 = _perf_counter()
            batch = masks_from_flat_indices(engine.network.layer_sizes, flat)
            ob.profile.add("compile", _perf_counter() - t0)
            errors = engine.evaluate(batch)
    finally:
        engine.profile = None
    return errors, ob.worker_payload()


def _chunk_sizes(total: int, chunk: int) -> List[int]:
    full, rem = divmod(total, chunk)
    return [chunk] * full + ([rem] if rem else [])


#: Fixed sampling quantum: scenario block ``c`` always covers scenarios
#: ``[c * SAMPLE_BLOCK, (c+1) * SAMPLE_BLOCK)`` and always draws from the
#: ``c``-th spawned seed, regardless of the *evaluation* chunk size or
#: the worker count — so campaign results depend only on the seed.
SAMPLE_BLOCK = 1024


def sampled_campaign_errors(
    injector: FaultInjector,
    x: np.ndarray,
    sampler: MaskSampler,
    n_scenarios: int,
    *,
    seed: "int | np.random.SeedSequence | None" = None,
    chunk_size: int = 1024,
    reduction: str = "max",
    dtype: "str | np.dtype" = np.float64,
    n_workers: int = 0,
    engine: "MaskCampaignEngine | None" = None,
    profile=None,
    obs=None,
) -> np.ndarray:
    """Sample-and-evaluate ``n_scenarios`` scenarios; returns ``(S,)`` errors.

    Sampling happens in fixed blocks of :data:`SAMPLE_BLOCK` scenarios;
    block ``c`` always draws from the ``c``-th spawned child of
    ``SeedSequence(seed)``.  Results are therefore reproducible and
    identical between the serial and parallel paths (workers receive
    only block sizes and spawned seeds — the fork-once pool shipped the
    network at initialisation).  For *deterministic* fault models they
    are additionally identical across chunk sizes, which only bound the
    evaluation buffers; *stochastic* models (noise channels,
    intermittent gates) realise their draws slice by slice, so their
    per-scenario values are reproducible for a fixed ``(seed,
    chunk_size)`` — and a reused ``engine`` carries its own chunk size
    — while only the stream alignment, never the error distribution,
    depends on the chunking.

    ``engine`` lets a caller running *several* campaigns against the
    same network and probe batch (e.g. a survival curve over a grid of
    failure probabilities) reuse one :class:`MaskCampaignEngine` —
    skipping the per-campaign weight casts, nominal forward pass and
    buffer allocation.  The engine's injector, probe batch, chunk size,
    reduction and dtype take precedence over the corresponding
    arguments; engine reuse is in-process only (``n_workers`` must stay
    0/1 — workers build their own engines from the shipped network).

    ``profile`` (a :class:`~repro.profiling.PhaseProfile`) accumulates
    per-phase wall time — sampling here, the evaluation phases inside
    the engine.  With ``n_workers > 1`` each worker charges a private
    per-block profile that the parent folds home in block submission
    order.  ``obs`` (a :class:`~repro.obs.RunObserver`) additionally
    records one ``block`` span per scenario block — workers buffer
    theirs and the parent grafts them in the same order, so the trace
    structure matches the serial run and the errors stay bitwise
    identical with observation on or off.
    """
    if n_scenarios < 0:
        raise ValueError(f"n_scenarios must be >= 0, got {n_scenarios}")
    sampler.check_network(injector.network)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if obs is not None and profile is None:
        profile = obs.profile
    if engine is not None:
        if engine.network is not injector.network:
            raise ValueError(
                "engine was built for a different network than the injector"
            )
        xb_arg, _ = injector.network._as_batch(x)
        # Compare probe batches in float64: casting to the engine dtype
        # first would let two distinct float64 batches that collide at
        # float32 slip past the guard on a float32 engine.
        if not np.array_equal(np.asarray(xb_arg, dtype=np.float64),
                              engine.xb64):
            raise ValueError(
                "engine was built for a different probe batch than x"
            )
        if n_workers and n_workers > 1:
            raise ValueError(
                "engine reuse is in-process only; drop the engine argument "
                "to fan out over workers"
            )
    if n_scenarios == 0:
        return np.empty(0, dtype=np.float64)
    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    chunk_size = min(int(chunk_size), SAMPLE_BLOCK, int(n_scenarios))
    sizes = _chunk_sizes(n_scenarios, SAMPLE_BLOCK)
    children = ss.spawn(len(sizes))

    if n_workers and n_workers > 1:
        xb, _ = injector.network._as_batch(x)
        with fork_once_pool(
            n_workers,
            _build_campaign_state,
            (
                injector.network,
                injector.capacity,
                xb,
                chunk_size,
                reduction,
                np.dtype(dtype).name,
                sampler,
                profile is not None,
            ),
        ) as pool:
            pieces = []
            for errors, payload in bounded_map(
                pool,
                _worker_sample_and_evaluate,
                (
                    (c, size, child)
                    for c, (size, child) in enumerate(zip(sizes, children))
                ),
            ):
                pieces.append(errors)
                fold_worker_payload(payload, profile, obs)
        return np.concatenate(pieces)

    if engine is None:
        engine = MaskCampaignEngine(
            injector, x, chunk_size=chunk_size, reduction=reduction, dtype=dtype
        )
    prev_profile = getattr(engine, "profile", None)
    if profile is not None:
        engine.profile = profile
    try:
        pieces = []
        for c, (size, child) in enumerate(zip(sizes, children)):
            rng = np.random.default_rng(child)
            # One generator per block: sampling consumes it first, then
            # any stochastic evaluation draws — same as the worker path.
            with block_span_if(obs, c, size):
                if profile is not None:
                    t0 = _perf_counter()
                    mask_batch = sampler.sample(size, rng)
                    profile.add("sampling", _perf_counter() - t0)
                else:
                    mask_batch = sampler.sample(size, rng)
                pieces.append(engine.evaluate(mask_batch, rng=rng))
        return np.concatenate(pieces)
    finally:
        engine.profile = prev_profile


def exhaustive_crash_errors(
    injector: FaultInjector,
    x: np.ndarray,
    n_fail: int,
    *,
    chunk_size: int = 2048,
    reduction: str = "max",
    dtype: "str | np.dtype" = np.float64,
    n_workers: int = 0,
    max_configurations: int = 2_000_000,
    engine: "MaskCampaignEngine | None" = None,
    profile=None,
    obs=None,
) -> np.ndarray:
    """Errors for every configuration of exactly ``n_fail`` crashes.

    The ``C(num_neurons, n_fail)`` combination table is compiled to an
    index array in bulk; chunks of rows are scattered into crash masks
    and streamed through the engine.  Parallel workers receive only
    index blocks (the network went out once, via the pool initializer).

    ``engine`` reuses a prebuilt evaluation engine (any backend built
    for this injector), in-process only — mirroring
    :func:`sampled_campaign_errors`; its chunk size then bounds the
    mask blocks.  ``profile`` accumulates per-phase wall time (the
    combination-table scatter counts as ``compile``) and ``obs``
    records per-block spans — both work across workers, merged in
    block submission order like :func:`sampled_campaign_errors`.

    Refuses beyond ``max_configurations`` — the table is materialised
    up front, so an unguarded call on a large network would try to
    allocate the whole combinatorial explosion at once.  The bound
    applies to table *cells* (``C(n, k) * k``), not just rows: for
    ``k`` near ``n`` the row count stays small while the table does
    not.
    """
    net = injector.network
    if engine is not None:
        if engine.network is not net:
            raise ValueError(
                "engine was built for a different network than the injector"
            )
        xb_arg, _ = net._as_batch(x)
        if not np.array_equal(
            np.asarray(xb_arg, dtype=np.float64), engine.xb64
        ):
            raise ValueError(
                "engine was built for a different probe batch than x"
            )
        if n_workers and n_workers > 1:
            raise ValueError(
                "engine reuse is in-process only; drop the engine argument "
                "to fan out over workers"
            )
        chunk_size = int(engine.chunk_size)
    if obs is not None and profile is None:
        profile = obs.profile
    total = math.comb(net.num_neurons, int(n_fail))
    cells = total * max(1, int(n_fail))
    if total > max_configurations or cells > 8 * max_configurations:
        raise ValueError(
            f"exhaustive sweep would compile {total} configurations "
            f"({cells} index cells; limit {max_configurations} "
            "configurations); raise max_configurations only if the "
            "index table fits in memory"
        )
    combos = combination_index_array(net.num_neurons, int(n_fail))
    blocks: Iterator[np.ndarray] = (
        combos[lo : lo + chunk_size] for lo in range(0, combos.shape[0], chunk_size)
    )
    if combos.shape[0] == 0:
        return np.empty(0, dtype=np.float64)

    if n_workers and n_workers > 1:
        xb, _ = net._as_batch(x)
        with fork_once_pool(
            n_workers,
            _build_campaign_state,
            (
                net,
                injector.capacity,
                xb,
                chunk_size,
                reduction,
                np.dtype(dtype).name,
                None,
                profile is not None,
            ),
        ) as pool:
            pieces = []
            for errors, payload in bounded_map(
                pool, _worker_evaluate_flat, enumerate(blocks)
            ):
                pieces.append(errors)
                fold_worker_payload(payload, profile, obs)
        return np.concatenate(pieces)

    if engine is None:
        engine = MaskCampaignEngine(
            injector, x, chunk_size=chunk_size, reduction=reduction, dtype=dtype
        )
    prev_profile = getattr(engine, "profile", None)
    if profile is not None:
        engine.profile = profile
    try:
        pieces = []
        for c, block in enumerate(blocks):
            with block_span_if(obs, c, int(block.shape[0])):
                if profile is not None:
                    t0 = _perf_counter()
                    mask_batch = masks_from_flat_indices(
                        net.layer_sizes, block
                    )
                    profile.add("compile", _perf_counter() - t0)
                else:
                    mask_batch = masks_from_flat_indices(
                        net.layer_sizes, block
                    )
                pieces.append(engine.evaluate(mask_batch))
        return np.concatenate(pieces)
    finally:
        engine.profile = prev_profile
