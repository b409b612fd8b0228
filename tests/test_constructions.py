"""Unit tests for the worst-case tightness constructions."""

import numpy as np
import pytest

from repro.core.fep import network_fep
from repro.experiments.constructions import (
    linear_regime_network,
    linear_regime_probe,
    linear_regime_safety_margin,
    saturated_single_layer,
)
from repro.faults.adversary import adversarial_byzantine_scenario
from repro.faults.injector import FaultInjector
from repro.faults.masks import MaskCampaignEngine


class TestSaturatedSingleLayer:
    def test_neurons_saturate_on_probe(self):
        net = saturated_single_layer(8, w_max=0.1)
        taps = net.hidden_outputs(np.ones((1, 1)))
        assert np.all(taps[0] > 0.999)

    def test_output_weights_all_equal_wmax(self):
        net = saturated_single_layer(8, w_max=0.07)
        np.testing.assert_allclose(net.output_weights, 0.07)
        assert net.weight_max(2) == pytest.approx(0.07)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            saturated_single_layer(1)


class TestLinearRegimeNetwork:
    def test_margin_positive_on_probe(self):
        net = linear_regime_network((5, 4), k=1.0)
        probe = linear_regime_probe(net)
        assert linear_regime_safety_margin(net, probe) > 0

    def test_network_is_affine_in_the_regime(self):
        """In the linear window the whole map is affine: finite
        differences are constant."""
        net = linear_regime_network((4, 3), k=2.0)
        x0 = linear_regime_probe(net, 0.4)
        x1 = linear_regime_probe(net, 0.5)
        x2 = linear_regime_probe(net, 0.6)
        f0, f1, f2 = (float(net.forward(x)[0, 0]) for x in (x0, x1, x2))
        assert (f1 - f0) == pytest.approx(f2 - f1, abs=1e-12)

    def test_all_weights_positive_and_equal_per_stage(self):
        net = linear_regime_network((4, 3), k=1.0)
        for layer in net.layers:
            w = layer.dense_weights()
            assert np.all(w > 0)
            assert np.allclose(w, w.flat[0])

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            linear_regime_network((4,), margin=1.5)
        with pytest.raises(ValueError):
            linear_regime_network(())

    def test_deeper_networks_stay_linear(self):
        net = linear_regime_network((6, 5, 4, 3), k=0.5)
        probe = linear_regime_probe(net)
        assert linear_regime_safety_margin(net, probe) > 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize(
    "sizes, distribution",
    [((8, 8), (1, 1)), ((8, 8), (3, 2)), ((16, 16, 16), (1, 1, 1))],
)
def test_multilayer_byzantine_error_within_fep(sizes, distribution):
    """Theorem 2 on its equality-case net: the sign-aligned Byzantine
    faults in two or more layers must stay within Fep, through the
    scalar oracle and the engine alike.  Both exceed it today (+1.41%,
    +4.11% and +0.86%): a failed neuron's ``+-C`` is clipped around
    the propagated, not the fault-free, activation."""
    C = 0.1
    net = linear_regime_network(sizes)
    x = np.random.default_rng(0).uniform(0.0, 1.0, (16, net.input_dim))
    scenario = adversarial_byzantine_scenario(
        net, distribution, x, capacity=C
    )
    injector = FaultInjector(net, capacity=C)
    bound = network_fep(net, distribution, capacity=C) * (1 + 1e-12)
    engine = MaskCampaignEngine(injector, x)
    assert injector.output_error(x, scenario) <= bound
    assert engine.evaluate(injector.compile_batch([scenario]))[0] <= bound
