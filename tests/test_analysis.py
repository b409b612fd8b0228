"""Unit tests for the analysis utilities (lipschitz, topology,
stats)."""

import numpy as np
import pytest

from repro.analysis.lipschitz import (
    estimate_lipschitz,
    estimate_network_lipschitz,
    sigmoid_profile,
    slope_at_origin,
)
from repro.analysis.stats import (
    bootstrap_ci,
    dominance_ratio,
    is_monotone,
    loglog_slope,
    summarize,
)
from repro.analysis.topology import figure1_network_stats, to_graph, topology_stats
from repro.network import Sigmoid, build_conv_net, build_mlp


class TestLipschitz:
    @pytest.mark.parametrize("k", [0.25, 1.0, 3.0])
    def test_estimate_matches_declared(self, k):
        assert estimate_lipschitz(Sigmoid(k)) == pytest.approx(k, rel=1e-3)

    def test_slope_at_origin(self):
        assert slope_at_origin(Sigmoid(2.0)) == pytest.approx(2.0, rel=1e-5)

    def test_profile_keys_and_shapes(self):
        prof = sigmoid_profile([0.5, 1.0], n_points=11)
        assert set(prof) == {0.5, 1.0}
        xs, ys = prof[0.5]
        assert xs.shape == ys.shape == (11,)

    def test_network_lipschitz_grows_with_k(self):
        lows, highs = [], []
        for k, store in ((0.25, lows), (2.0, highs)):
            net = build_mlp(
                2, [8, 8], activation={"name": "sigmoid", "k": k},
                init={"name": "uniform", "scale": 0.5}, output_scale=0.5, seed=0,
            )
            store.append(estimate_network_lipschitz(net))
        assert highs[0] > lows[0]

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(Sigmoid(1.0), n_points=2)


class TestTopology:
    def test_node_and_edge_counts(self, small_net):
        g = to_graph(small_net)
        assert g.number_of_nodes() == 3 + 8 + 6 + 1
        assert g.number_of_edges() == small_net.num_synapses

    def test_edge_weights_match_model(self, small_net):
        g = to_graph(small_net)
        assert g.edges[("in", 0), (1, 0)]["weight"] == pytest.approx(
            float(small_net.layers[0].weights[0, 0])
        )

    def test_conv_graph_is_sparse(self):
        net = build_conv_net(10, [3], seed=0)
        g = to_graph(net)
        assert g.number_of_edges() == net.num_synapses == 8 * 3 + 8

    def test_stats_fields(self, small_net):
        stats = topology_stats(small_net)
        assert stats["is_dag"]
        assert stats["longest_path_len"] == 3
        assert stats["n_neurons"] == 14
        assert stats["weight_maxes"] == small_net.weight_maxes()

    def test_figure1_stats(self):
        net = build_mlp(3, [4, 3, 4], seed=0)
        stats = figure1_network_stats(net)
        assert stats["n_clients"] == 4
        assert stats["path_length_input_to_output"] == 4


class TestStats:
    def test_summary(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4 and s.mean == 2.5 and s.maximum == 4.0

    def test_summary_empty(self):
        assert summarize([]).n == 0

    def test_bootstrap_ci_contains_mean(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5.0, 1.0, size=200)
        lo, hi = bootstrap_ci(data, seed=1)
        assert lo < 5.0 < hi and hi - lo < 0.6

    def test_loglog_slope_recovers_power(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        slope, r = loglog_slope(x, x**3)
        assert slope == pytest.approx(3.0)
        assert r == pytest.approx(1.0)

    def test_loglog_drops_nonpositive(self):
        slope, _ = loglog_slope([1, 2, 4, 0], [1, 4, 16, -1])
        assert slope == pytest.approx(2.0)
        with pytest.raises(ValueError):
            loglog_slope([0, 0], [1, 1])

    def test_is_monotone(self):
        assert is_monotone([1, 2, 3])
        assert not is_monotone([1, 3, 2])
        assert is_monotone([1, 3, 2.95], tolerance=0.1)
        assert is_monotone([3, 2, 1], increasing=False)

    def test_dominance_ratio(self):
        assert dominance_ratio([1.0, 2.0], [0.5, 1.0]) == 0.5
        assert dominance_ratio([1.0], [2.0]) == 2.0
        assert dominance_ratio([0.0], [0.0]) == 0.0
        assert dominance_ratio([0.0], [1.0]) == np.inf
        with pytest.raises(ValueError):
            dominance_ratio([1.0], [1.0, 2.0])
