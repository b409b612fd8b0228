"""Unit tests for pruning (the crash <-> elimination duality)."""

import numpy as np
import pytest

from repro.analysis.pruning import (
    certified_prune,
    lowest_influence_neurons,
    prune_neurons,
)
from repro.core.fep import network_fep
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import crash_scenario
from repro.network import build_conv_net, build_mlp


class TestPruneNeurons:
    def test_equivalent_to_permanent_crash(self, small_net, batch):
        victims = [(1, 2), (1, 5), (2, 0)]
        pruned = prune_neurons(small_net, victims)
        injector = FaultInjector(small_net, capacity=1.0)
        crashed = injector.run(batch, crash_scenario(victims))
        np.testing.assert_allclose(pruned.forward(batch), crashed, atol=1e-12)

    def test_sizes_shrink(self, small_net):
        pruned = prune_neurons(small_net, [(1, 0), (1, 1), (2, 3)])
        assert pruned.layer_sizes == (6, 5)
        assert pruned.input_dim == small_net.input_dim

    def test_cannot_remove_whole_layer(self, small_net):
        with pytest.raises(ValueError, match="all"):
            prune_neurons(small_net, [(2, i) for i in range(6)])

    def test_invalid_address(self, small_net):
        with pytest.raises(ValueError):
            prune_neurons(small_net, [(1, 99)])

    def test_conv_rejected(self):
        net = build_conv_net(8, [3], seed=0)
        with pytest.raises(TypeError, match="dense"):
            prune_neurons(net, [(1, 0)])

    def test_empty_prune_is_identity(self, small_net, batch):
        pruned = prune_neurons(small_net, [])
        np.testing.assert_allclose(pruned.forward(batch), small_net.forward(batch))


class TestLowestInfluence:
    def test_count_respected(self, small_net, batch):
        picks = lowest_influence_neurons(small_net, (2, 1), batch)
        assert len(picks) == 3
        assert sum(1 for a in picks if a.layer == 1) == 2

    def test_cheaper_than_adversarial_victims(self, small_net, batch):
        from repro.faults.adversary import adversarial_crash_scenario

        injector = FaultInjector(small_net, capacity=1.0)
        low = lowest_influence_neurons(small_net, (2, 1), batch)
        low_err = injector.output_error(batch, crash_scenario(low))
        adv = adversarial_crash_scenario(small_net, (2, 1), batch)
        adv_err = injector.output_error(batch, adv)
        assert low_err <= adv_err + 1e-12

    def test_validation(self, small_net, batch):
        with pytest.raises(ValueError):
            lowest_influence_neurons(small_net, (1,), batch)
        with pytest.raises(ValueError, match="all of layer"):
            lowest_influence_neurons(small_net, (8, 0), batch)


class TestCertifiedPrune:
    def _tolerant_net(self):
        return build_mlp(
            2, [10, 8], activation={"name": "sigmoid", "k": 0.5},
            init={"name": "uniform", "scale": 0.08}, output_scale=0.04, seed=31,
        )

    def test_prunes_within_budget(self, rng):
        net = self._tolerant_net()
        x = rng.random((32, 2))
        nominal = net.forward(x)
        pruned, fep = certified_prune(net, 0.5, 0.1, x)
        assert fep <= 0.4 + 1e-12
        assert pruned.num_neurons < net.num_neurons
        # Realised loss within the certified bound.
        assert np.max(np.abs(pruned.forward(x) - nominal)) <= fep + 1e-9

    def test_explicit_distribution(self, rng):
        net = self._tolerant_net()
        x = rng.random((16, 2))
        pruned, fep = certified_prune(net, 0.5, 0.1, x, distribution=(1, 1))
        assert pruned.layer_sizes == (9, 7)
        assert fep == pytest.approx(network_fep(net, (1, 1), mode="crash"))

    def test_untolerated_distribution_rejected(self, rng):
        net = build_mlp(
            2, [6, 5], init={"name": "uniform", "scale": 1.0},
            output_scale=1.0, seed=0,
        )
        with pytest.raises(ValueError, match="not tolerated"):
            certified_prune(net, 0.2, 0.1, rng.random((8, 2)), distribution=(3, 2))

    @pytest.mark.parametrize("eps, eps_prime", [(0.1, 0.5), (0.5, 0.0)])
    def test_bad_epsilon_pair_rejected(self, eps, eps_prime, rng):
        """An explicit distribution skips the greedy solver; the pair is
        still refused as Theorem 3 refuses it, not read as a budget."""
        net = self._tolerant_net()
        with pytest.raises(ValueError, match="epsilon_prime <= epsilon"):
            certified_prune(
                net, eps, eps_prime, rng.random((8, 2)), distribution=(0, 0)
            )

    def test_zero_distribution_returns_copy(self, rng):
        net = self._tolerant_net()
        x = rng.random((8, 2))
        pruned, fep = certified_prune(net, 0.5, 0.1, x, distribution=(0, 0))
        assert fep == 0.0
        np.testing.assert_allclose(pruned.forward(x), net.forward(x))
