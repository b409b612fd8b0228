"""Cross-cutting edge cases and behavioural contracts.

These pin down corner behaviours that individual module tests skip:
degenerate sizes, extreme parameters, identity relations across
modules, and failure-path error messages.
"""

import numpy as np
import pytest

from repro.core.fep import forward_error_propagation, network_fep
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import (
    FailureScenario,
    byzantine_scenario,
    crash_scenario,
)
from repro.faults.types import ByzantineFault, CrashFault
from repro.network import build_mlp
from repro.network.layers import DenseLayer
from repro.network.model import FeedForwardNetwork


class TestDegenerateSizes:
    def test_one_neuron_network(self, rng):
        net = build_mlp(1, [1], seed=0)
        x = rng.random((4, 1))
        assert net.forward(x).shape == (4, 1)
        # Its single neuron may never "fail tolerably" (f < N requires 0).
        from repro.core.bounds import check_theorem3

        assert not check_theorem3(net, (1,), 0.5, 0.1, mode="crash").tolerated

    def test_wide_shallow_vs_narrow_deep_same_neuron_count(self):
        wide = build_mlp(2, [16], init={"name": "uniform", "scale": 0.1},
                         output_scale=0.1, seed=0)
        deep = build_mlp(2, [4, 4, 4, 4], init={"name": "uniform", "scale": 0.1},
                         output_scale=0.1, seed=0)
        assert wide.num_neurons == deep.num_neurons == 16
        # With K=0.25 << 1, deep nets attenuate early errors.
        f_wide = network_fep(wide, (1,), mode="crash")
        f_deep = network_fep(deep, (1, 0, 0, 0), mode="crash")
        assert f_deep < f_wide

    def test_single_input_single_output(self, rng):
        net = build_mlp(1, [3, 2], seed=1)
        out = net.forward(np.array([0.5]))
        assert out.shape == (1,)


class TestExtremeParameters:
    def test_tiny_capacity_byzantine_nearly_harmless(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1e-9)
        sc = byzantine_scenario([(2, 0)])
        assert inj.output_error(batch, sc) < 1e-8

    def test_huge_k_fep_explodes_geometrically(self):
        sizes, w = [4, 4, 4], [1, 0.5, 0.5, 0.5]
        small = forward_error_propagation([1, 0, 0], sizes, w, 1.0, 1.0)
        big = forward_error_propagation([1, 0, 0], sizes, w, 10.0, 1.0)
        assert big == pytest.approx(small * 100)  # K^(L-1) = K^2

    def test_zero_weight_network_tolerates_everything(self, rng):
        net = build_mlp(2, [5, 4], seed=2)
        net.scale_weights(0.0)
        # All w_m = 0 except stage 1... stage 1 scaled too; Fep = 0.
        assert network_fep(net, (4, 3), mode="crash") == 0.0
        inj = FaultInjector(net, capacity=1.0)
        sc = crash_scenario([(1, 0), (2, 0)])
        assert inj.output_error(rng.random((4, 2)), sc) == 0.0


class TestCrossModuleIdentities:
    def test_crash_equals_byzantine_emitting_zero_when_within_band(
        self, small_net, batch
    ):
        """With capacity >= sup phi, a Byzantine neuron requesting 0 is
        exactly a crash (deviation |0 - y| <= 1 <= C never clips)."""
        inj = FaultInjector(small_net, capacity=1.0)
        a = inj.run(batch, crash_scenario([(1, 3), (2, 2)]))
        b = inj.run(
            batch,
            FailureScenario(
                {
                    addr: ByzantineFault(value=0.0)
                    for addr in crash_scenario([(1, 3), (2, 2)]).neuron_faults
                }
            ),
        )
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_fep_invariant_under_neuron_permutation(self, rng):
        """Fep reads only (N_l, w_m, K): permuting neurons inside a
        layer leaves it unchanged."""
        net = build_mlp(2, [6, 5], seed=3)
        fep_before = network_fep(net, (2, 1), mode="crash")
        perm = rng.permutation(6)
        l1, l2 = net.layers
        permuted = FeedForwardNetwork(
            [
                DenseLayer(2, 6, l1.activation, weights=l1.weights[perm],
                           bias=l1.bias[perm]),
                DenseLayer(6, 5, l2.activation, weights=l2.weights[:, perm],
                           bias=l2.bias),
            ],
            net.output_weights,
        )
        assert network_fep(permuted, (2, 1), mode="crash") == (
            pytest.approx(fep_before)
        )

    def test_scaling_weights_scales_single_layer_fep_linearly(self):
        net = build_mlp(2, [8], init={"name": "uniform", "scale": 0.3},
                        output_scale=0.3, seed=4)
        base = network_fep(net, (2,), mode="crash")
        net.scale_weights(2.0)
        assert network_fep(net, (2,), mode="crash") == pytest.approx(2 * base)

    def test_certificate_survives_serialization(self, tmp_path, rng):
        from repro.core.certification import certify
        from repro.network import load_network, save_network

        net = build_mlp(2, [8, 6], init={"name": "uniform", "scale": 0.08},
                        output_scale=0.05, seed=5)
        cert_a = certify(net, 0.5, 0.1, mode="crash")
        reloaded = load_network(save_network(net, tmp_path / "n.npz"))
        cert_b = certify(reloaded, 0.5, 0.1, mode="crash")
        assert cert_a.maximal_distribution == cert_b.maximal_distribution
        assert cert_a.per_layer_max == cert_b.per_layer_max


class TestErrorMessages:
    def test_injector_reports_bad_scenario_address(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        with pytest.raises(ValueError):
            inj.run(batch, crash_scenario([(1, 50)]))

    def test_fep_reports_lemma1_on_infinite_capacity(self, small_net):
        with pytest.raises(ValueError, match="Lemma 1"):
            network_fep(small_net, (1, 1), capacity=np.inf, mode="byzantine")

    def test_scenario_reports_nonexistent_conv_synapse(self):
        from repro.faults.types import SynapseCrashFault
        from repro.network import build_conv_net

        net = build_conv_net(8, [3], seed=0)
        with pytest.raises(ValueError, match="receptive field"):
            FailureScenario(
                synapse_faults={(1, 0, 6): SynapseCrashFault()}
            ).validate(net)


class TestDeterminism:
    def test_campaign_deterministic_across_chunk_sizes_and_workers(
        self, small_net, batch
    ):
        from repro.faults.campaign import _monte_carlo_campaign

        inj = FaultInjector(small_net, capacity=1.0)
        a = _monte_carlo_campaign(inj, batch, (2, 1), n_scenarios=30, seed=9,
                                  chunk_size=7)
        b = _monte_carlo_campaign(inj, batch, (2, 1), n_scenarios=30, seed=9,
                                  chunk_size=30)
        np.testing.assert_array_equal(a.errors, b.errors)

    def test_experiments_are_deterministic(self):
        from repro.experiments import run_figure2

        a = run_figure2()
        b = run_figure2()
        assert a.rows == b.rows
