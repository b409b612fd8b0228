"""Property-based tests (hypothesis) for the core invariants.

These are the load-bearing guarantees of the reproduction:

1. Fep dominates every injected error, for arbitrary networks,
   distributions and fault mixes (Theorem 2/3 soundness);
2. the message-passing simulator and the vectorised injector agree
   exactly (the two realisations of the failure model are the same
   model);
3. Fep is monotone in capacity and in per-layer weight maxima;
4. quantisers respect their declared worst-case error;
5. serialization round-trips bit-exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fep import forward_error_propagation, network_fep
from repro.distributed.simulator import DistributedNetwork
from repro.faults.injector import FaultInjector
from repro.faults.masks import MaskCampaignEngine
from repro.faults.scenarios import random_failure_scenario, random_synapse_scenario
from repro.faults.types import ByzantineFault, CrashFault, StuckAtFault
from repro.network import build_mlp
from repro.quantization.quantizers import FixedPointQuantizer, UniformQuantizer

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _network_from(data):
    depth = data.draw(st.integers(1, 3), label="depth")
    widths = [data.draw(st.integers(2, 7), label=f"N{l}") for l in range(depth)]
    k = data.draw(
        st.floats(0.25, 2.0, allow_nan=False, allow_infinity=False), label="K"
    )
    scale = data.draw(st.floats(0.05, 0.9), label="w_scale")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    return build_mlp(
        data.draw(st.integers(1, 3), label="d"),
        widths,
        activation={"name": "sigmoid", "k": k},
        init={"name": "uniform", "scale": scale},
        output_scale=scale,
        seed=seed,
    )


def _distribution_from(data, net):
    return tuple(
        data.draw(st.integers(0, n - 1), label=f"f{l}")
        for l, n in enumerate(net.layer_sizes)
    )


class TestFepSoundness:
    @settings(max_examples=40, **COMMON)
    @given(data=st.data())
    def test_crash_errors_never_exceed_fep(self, data):
        net = _network_from(data)
        dist = _distribution_from(data, net)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        scenario = random_failure_scenario(net, dist, rng=rng)
        injector = FaultInjector(net, capacity=net.output_bound)
        x = rng.random((16, net.input_dim))
        err = injector.output_error(x, scenario)
        assert err <= network_fep(net, dist, mode="crash") + 1e-9

    @settings(max_examples=40, **COMMON)
    @given(data=st.data())
    def test_byzantine_errors_never_exceed_fep(self, data):
        net = _network_from(data)
        dist = _distribution_from(data, net)
        capacity = data.draw(st.floats(0.2, 3.0))
        sign = data.draw(st.sampled_from([-1, 1]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        scenario = random_failure_scenario(
            net, dist, fault=ByzantineFault(sign=sign), rng=rng
        )
        injector = FaultInjector(net, capacity=capacity)
        x = rng.random((16, net.input_dim))
        err = injector.output_error(x, scenario)
        assert err <= network_fep(
            net, dist, capacity=capacity, mode="byzantine"
        ) + 1e-9

    @settings(max_examples=25, **COMMON)
    @given(data=st.data())
    def test_synapse_errors_never_exceed_theorem4(self, data):
        from repro.core.fep import network_synapse_fep

        net = _network_from(data)
        capacity = data.draw(st.floats(0.2, 2.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        stage_caps = [l.num_synapses for l in net.layers] + [net.layer_sizes[-1]]
        dist = tuple(
            data.draw(st.integers(0, min(2, c)), label=f"s{l}")
            for l, c in enumerate(stage_caps)
        )
        scenario = random_synapse_scenario(net, dist, rng=rng)
        injector = FaultInjector(net, capacity=capacity)
        x = rng.random((8, net.input_dim))
        err = injector.output_error(x, scenario)
        assert err <= network_synapse_fep(net, dist, capacity=capacity) + 1e-9


class TestSimulatorEquivalence:
    @settings(max_examples=25, **COMMON)
    @given(data=st.data())
    def test_simulator_matches_injector(self, data):
        net = _network_from(data)
        dist = _distribution_from(data, net)
        capacity = data.draw(st.floats(0.3, 2.0))
        fault = data.draw(
            st.sampled_from(
                [CrashFault(), ByzantineFault(sign=-1), StuckAtFault(0.8)]
            )
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        scenario = random_failure_scenario(net, dist, fault=fault, rng=rng)
        sim = DistributedNetwork(net, capacity=capacity)
        sim.apply_scenario(scenario)
        injector = FaultInjector(net, capacity=capacity)
        x = rng.random((4, net.input_dim))
        np.testing.assert_allclose(
            sim.run_batch(x), injector.run(x, scenario), atol=1e-10
        )


class TestFepAlgebra:
    @settings(max_examples=60, **COMMON)
    @given(
        f=st.integers(0, 4),
        n=st.integers(5, 12),
        w=st.floats(0.01, 2.0),
        k=st.floats(0.1, 4.0),
        c1=st.floats(0.1, 4.0),
        factor=st.floats(1.01, 5.0),
    )
    def test_monotone_in_capacity(self, f, n, w, k, c1, factor):
        lo = forward_error_propagation([f], [n], [1.0, w], k, c1)
        hi = forward_error_propagation([f], [n], [1.0, w], k, c1 * factor)
        assert hi == pytest.approx(lo * factor) or (f == 0 and hi == lo == 0)

    @settings(max_examples=60, **COMMON)
    @given(
        f1=st.integers(1, 3),
        n=st.integers(4, 8),
        w=st.floats(0.05, 1.0),
        k1=st.floats(0.1, 2.0),
        factor=st.floats(1.01, 3.0),
    )
    def test_monotone_in_k_for_first_layer_failures(self, f1, n, w, k1, factor):
        sizes = [n, n]
        ws = [1.0, w, w]
        lo = forward_error_propagation([f1, 0], sizes, ws, k1, 1.0)
        hi = forward_error_propagation([f1, 0], sizes, ws, k1 * factor, 1.0)
        assert hi >= lo

    @settings(max_examples=60, **COMMON)
    @given(data=st.data())
    def test_nonnegative_and_zero_iff_no_failures(self, data):
        net = _network_from(data)
        dist = _distribution_from(data, net)
        fep = network_fep(net, dist, mode="crash")
        assert fep >= 0
        if sum(dist) == 0:
            assert fep == 0
        elif all(w > 0 for w in net.weight_maxes()[1:]):
            assert fep > 0


class TestHeterogeneousFepProperty:
    @settings(max_examples=40, **COMMON)
    @given(data=st.data())
    def test_never_exceeds_homogeneous_bound(self, data):
        from repro.core.fep import heterogeneous_fep

        L = data.draw(st.integers(1, 4), label="L")
        sizes = [data.draw(st.integers(1, 8), label=f"N{l}") for l in range(L)]
        w = [
            data.draw(st.floats(0.01, 1.0), label=f"w{l}") for l in range(L + 1)
        ]
        ks = [data.draw(st.floats(0.1, 3.0), label=f"K{l}") for l in range(L)]
        f = [
            data.draw(st.integers(0, n - 1), label=f"f{l}")
            for l, n in enumerate(sizes)
        ]
        het = heterogeneous_fep(f, sizes, w, ks, 1.0)
        hom = forward_error_propagation(f, sizes, w, max(ks), 1.0)
        assert het <= hom + 1e-9 * max(1.0, hom)

    @settings(max_examples=30, **COMMON)
    @given(data=st.data())
    def test_equals_homogeneous_for_uniform_k(self, data):
        from repro.core.fep import heterogeneous_fep

        L = data.draw(st.integers(1, 3), label="L")
        sizes = [data.draw(st.integers(1, 6), label=f"N{l}") for l in range(L)]
        w = [data.draw(st.floats(0.01, 1.0), label=f"w{l}") for l in range(L + 1)]
        k = data.draw(st.floats(0.1, 3.0), label="K")
        f = [
            data.draw(st.integers(0, n - 1), label=f"f{l}")
            for l, n in enumerate(sizes)
        ]
        het = heterogeneous_fep(f, sizes, w, [k] * L, 1.0)
        hom = forward_error_propagation(f, sizes, w, k, 1.0)
        assert het == pytest.approx(hom, rel=1e-12, abs=1e-15)


class TestQuantizerProperties:
    @settings(max_examples=50, **COMMON)
    @given(
        bits=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_fixed_point_error_bound(self, bits, seed):
        q = FixedPointQuantizer(bits)
        x = np.random.default_rng(seed).random(256)
        assert np.abs(q(x) - x).max() <= q.max_error + 1e-15

    @settings(max_examples=50, **COMMON)
    @given(
        levels=st.integers(2, 64),
        lo=st.floats(-3.0, 0.0),
        width=st.floats(0.5, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_uniform_quantizer_error_bound(self, levels, lo, width, seed):
        q = UniformQuantizer(levels, lo, lo + width)
        x = np.random.default_rng(seed).uniform(lo, lo + width, 256)
        assert np.abs(q(x) - x).max() <= q.max_error + 1e-12


class TestSerializationProperty:
    @settings(max_examples=15, **COMMON)
    @given(data=st.data())
    def test_roundtrip_preserves_forward(self, data, tmp_path_factory):
        from repro.network import load_network, save_network

        net = _network_from(data)
        tmp = tmp_path_factory.mktemp("nets")
        seed = data.draw(st.integers(0, 2**16))
        path = save_network(net, tmp / f"net{seed}.npz")
        again = load_network(path)
        x = np.random.default_rng(seed).random((8, net.input_dim))
        np.testing.assert_array_equal(net.forward(x), again.forward(x))


class TestBatchedPathProperty:
    @settings(max_examples=25, **COMMON)
    @given(data=st.data())
    def test_run_many_equals_scalar_run(self, data):
        """``MaskCampaignEngine.outputs`` == ``FaultInjector.run`` on
        generated networks and scenarios."""
        net = _network_from(data)
        dist = _distribution_from(data, net)
        fault = data.draw(
            st.sampled_from(
                [CrashFault(), ByzantineFault(), StuckAtFault(0.3)]
            )
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        scenarios = [
            random_failure_scenario(net, dist, fault=fault, rng=rng)
            for _ in range(4)
        ]
        injector = FaultInjector(net, capacity=1.0)
        x = rng.random((6, net.input_dim))
        engine = MaskCampaignEngine(injector, x)
        batched = engine.outputs(injector.compile_batch(scenarios))
        for i, sc in enumerate(scenarios):
            np.testing.assert_allclose(
                batched[i], injector.run(x, sc), atol=1e-12
            )


class TestCombinedBoundProperty:
    @settings(max_examples=20, **COMMON)
    @given(data=st.data())
    def test_combined_dominates_mixed_faults(self, data):
        from repro.core.fep import network_combined_fep

        net = _network_from(data)
        neuron_dist = _distribution_from(data, net)
        stage_caps = [l.num_synapses for l in net.layers] + [net.layer_sizes[-1]]
        synapse_dist = tuple(
            data.draw(st.integers(0, min(2, c)), label=f"syn{l}")
            for l, c in enumerate(stage_caps)
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        scenario = random_failure_scenario(
            net, neuron_dist, fault=ByzantineFault(), rng=rng
        ).merged_with(random_synapse_scenario(net, synapse_dist, rng=rng))
        injector = FaultInjector(net, capacity=1.0)
        x = rng.random((8, net.input_dim))
        err = injector.output_error(x, scenario)
        bound = network_combined_fep(
            net, neuron_dist, synapse_dist, capacity=1.0
        )
        assert err <= bound + 1e-9


class TestPruningProperty:
    @settings(max_examples=15, **COMMON)
    @given(data=st.data())
    def test_pruning_equals_crashing(self, data):
        from repro.analysis.pruning import prune_neurons
        from repro.faults.scenarios import crash_scenario

        net = _network_from(data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        dist = _distribution_from(data, net)
        scenario = random_failure_scenario(net, dist, rng=rng)
        victims = list(scenario.neuron_faults)
        pruned = prune_neurons(net, victims)
        injector = FaultInjector(net, capacity=1.0)
        x = rng.random((6, net.input_dim))
        np.testing.assert_allclose(
            pruned.forward(x),
            injector.run(x, crash_scenario(victims)),
            atol=1e-12,
        )


class TestReplicationProperty:
    @settings(max_examples=15, **COMMON)
    @given(data=st.data(), r=st.integers(2, 5))
    def test_replication_preserves_function(self, data, r):
        from repro.core.overprovision import replicate_network

        net = _network_from(data)
        rep = replicate_network(net, r)
        x = np.random.default_rng(0).random((8, net.input_dim))
        np.testing.assert_allclose(rep.forward(x), net.forward(x), atol=1e-10)
