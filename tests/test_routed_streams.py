"""Row-routed draws: one engine call over several blocks' rows.

A :class:`~repro.faults.injector.ReplicaStreams` whose blocks are a mask
batch's rows routes each gate draw to the generator of its cell's
block.  One call over several blocks must then equal one call per
block — errors, outputs and every generator's final state — on the
dense first-layer route and on the rank-k route alike.  Draws that
cannot be split by rows (neuron and synapse noise) raise ``TypeError``
on a multi-block stream, and a one-block stream is the plain generator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, ReplicaStreams
from repro.faults.masks import (
    BernoulliSampler,
    MaskCampaignEngine,
    SynapseBernoulliSampler,
    empty_mask_batch,
)
from repro.faults.types import NoiseFault, SynapseNoiseFault

SIZES = (5, 9, 1, 7)  # rows per block


def _gated_batch(layer_sizes, sizes, seed, sparse_first=False):
    """Crash masks with some cells gated at ``0.4``; with
    ``sparse_first`` most rows keep at most one faulty first-layer
    cell (the rank-k route's sparse rows)."""
    rng = np.random.default_rng(seed)
    S = sum(sizes)
    batch = empty_mask_batch(layer_sizes, S)
    batch.gate_p = []
    for l0, n in enumerate(layer_sizes):
        zero = rng.random((S, n)) < 0.2
        if l0 == 0 and sparse_first:
            zero[:] = False
            zero[np.arange(S), rng.integers(0, n, S)] = rng.random(S) < 0.8
            zero[::4] |= rng.random((zero[::4].shape)) < 0.5  # dense rows
        batch.zero_masks[l0][...] = zero
        batch.gate_p.append(
            np.where(zero & (rng.random((S, n)) < 0.6), 0.4, 1.0)
        )
    return batch


def _rows(batch, lo, hi):
    """The rows ``lo:hi`` of a neuron-channel batch."""
    part = empty_mask_batch([m.shape[1] for m in batch.zero_masks], hi - lo)
    part.zero_masks = [m[lo:hi] for m in batch.zero_masks]
    part.gate_p = [g[lo:hi] for g in batch.gate_p]
    return part


def _engine(net, chunk=1024):
    x = np.random.default_rng(4).uniform(-1, 1, (6, net.input_dim))
    return MaskCampaignEngine(
        FaultInjector(net, capacity=net.output_bound), x, chunk_size=chunk
    )


@pytest.mark.parametrize("net_name", ["small_net", "wide_net"])
@pytest.mark.parametrize("method", ["evaluate", "outputs"])
def test_routed_call_equals_one_call_per_block(request, net_name, method):
    net = request.getfixturevalue(net_name)
    engine = _engine(net)
    batch = _gated_batch(
        net.layer_sizes, SIZES, 7, sparse_first=net_name == "wide_net"
    )
    seeds = np.random.SeedSequence(3).spawn(len(SIZES))
    mine = [np.random.default_rng(s) for s in seeds]
    ref = [np.random.default_rng(s) for s in seeds]
    got = getattr(engine, method)(batch, rng=ReplicaStreams(mine, SIZES))
    bounds = np.cumsum((0,) + SIZES)
    want = np.concatenate([
        getattr(engine, method)(_rows(batch, lo, hi), rng=g)
        for g, lo, hi in zip(ref, bounds[:-1], bounds[1:])
    ])
    assert np.array_equal(got, want)
    for a, b in zip(mine, ref):
        assert a.bit_generator.state == b.bit_generator.state
    if net_name == "wide_net":
        # Both first-layer routes ran: sparse rows and dense rows.
        assert engine._rank_k_route(batch, 0, sum(SIZES), None) is not None


def test_blocks_without_rows_draw_nothing(small_net):
    engine = _engine(small_net)
    sizes = (0, 6, 0, 4)
    batch = _gated_batch(small_net.layer_sizes, sizes, 2)
    gens = [np.random.default_rng(i) for i in range(len(sizes))]
    fresh = [np.random.default_rng(i).bit_generator.state for i in range(4)]
    engine.evaluate(batch, rng=ReplicaStreams(gens, sizes))
    assert gens[0].bit_generator.state == fresh[0]
    assert gens[2].bit_generator.state == fresh[2]
    assert gens[1].bit_generator.state != fresh[1]


def test_routed_streams_must_cover_the_batch(small_net):
    engine = _engine(small_net)
    batch = _gated_batch(small_net.layer_sizes, (3, 3), 1)
    streams = ReplicaStreams(
        [np.random.default_rng(0), np.random.default_rng(1)], (3, 4)
    )
    with pytest.raises(ValueError, match="cover 7 rows"):
        engine.evaluate(batch, rng=streams)


def _noise_batches(net):
    rng = np.random.default_rng(0)
    neuron = BernoulliSampler(net, 0.3, fault=NoiseFault(sigma=0.2))
    synapse = SynapseBernoulliSampler(
        net, 0.1, fault=SynapseNoiseFault(sigma=0.2)
    )
    return {
        "noise": neuron.sample(8, rng),
        "synapse noise": synapse.sample(8, rng),
    }


@pytest.mark.parametrize("kind", ["noise", "synapse noise"])
def test_noise_on_a_multi_block_stream_raises(small_net, kind):
    engine = _engine(small_net)
    batch = _noise_batches(small_net)[kind]
    streams = ReplicaStreams(
        [np.random.default_rng(0), np.random.default_rng(1)], (3, 5)
    )
    with pytest.raises(TypeError, match=kind):
        engine.evaluate(batch, rng=streams)


@pytest.mark.parametrize("kind", ["noise", "synapse noise", "gates"])
@pytest.mark.parametrize("chunk", [3, 1024])
def test_one_block_stream_is_the_plain_generator(small_net, kind, chunk):
    engine = _engine(small_net, chunk)
    batch = (
        _gated_batch(small_net.layer_sizes, (8,), 5) if kind == "gates"
        else _noise_batches(small_net)[kind]
    )
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    got = engine.outputs(batch, rng=ReplicaStreams((a,), (8,)))
    want = engine.outputs(batch, rng=b)
    assert np.array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("rows", [None, np.array([0, 2, 3, 7, 8])])
def test_random_flat_is_the_per_layer_stream(rows):
    """One ``random(R_b * ΣN_l)`` draw per block, scattered flat, is
    the stream of per-layer ``random((R_b, N_l))`` draws."""
    layer_sizes, sizes = (4, 3, 2), (3, 0, 6)
    seeds = np.random.SeedSequence(5).spawn(3)
    flat = ReplicaStreams([np.random.default_rng(s) for s in seeds], sizes)
    per_layer = ReplicaStreams(
        [np.random.default_rng(s) for s in seeds], sizes
    )
    got = flat.random_flat(layer_sizes, rows=rows)
    want = np.concatenate(
        [per_layer.random(n, rows=rows) for n in layer_sizes], axis=1
    )
    assert np.array_equal(got, want)
    for a, b in zip(flat.generators, per_layer.generators):
        assert a.bit_generator.state == b.bit_generator.state
