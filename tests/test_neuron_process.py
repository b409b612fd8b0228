"""Unit tests for the neuron process state machine."""

import numpy as np
import pytest

from repro.faults.types import ByzantineFault, OffsetFault
from repro.network.activations import Identity, Sigmoid

from message_passing import ComponentState, NeuronProcess, Signal


def make_neuron(weights=(0.5, -0.5), bias=0.0, activation=None):
    return NeuronProcess(
        2, 0, np.array(weights), bias, activation or Identity()
    )


class TestMessageHandling:
    def test_receive_and_sum(self):
        n = make_neuron()
        n.receive(Signal(layer=1, src=0, value=1.0, round=0))
        n.receive(Signal(layer=1, src=1, value=0.5, round=0))
        assert n.compute_sum() == pytest.approx(0.5 - 0.25)
        assert n.inbox_size == 2 and n.missing_sources() == []

    def test_missing_signals_read_zero(self):
        n = make_neuron()
        n.receive(Signal(layer=1, src=0, value=1.0, round=0))
        assert n.compute_sum() == pytest.approx(0.5)
        assert n.missing_sources() == [1]

    def test_wrong_layer_rejected(self):
        n = make_neuron()
        with pytest.raises(ValueError, match="expected 1"):
            n.receive(Signal(layer=0, src=0, value=1.0, round=0))

    def test_out_of_range_source_rejected(self):
        n = make_neuron()
        with pytest.raises(ValueError):
            n.receive(Signal(layer=1, src=5, value=1.0, round=0))

    def test_reset_round_clears_state(self):
        n = make_neuron()
        n.receive(Signal(layer=1, src=0, value=1.0, round=0))
        n.fire()
        n.reset_round()
        assert n.inbox_size == 0 and n.fired_value is None

    def test_bias_enters_sum(self):
        n = make_neuron(bias=0.3)
        assert n.compute_sum() == pytest.approx(0.3)


class TestFiring:
    def test_correct_neuron_applies_activation(self):
        n = make_neuron(activation=Sigmoid(1.0))
        assert n.fire() == pytest.approx(0.5)  # sigmoid(0)

    def test_crashed_neuron_emits_none(self):
        n = make_neuron()
        n.crash()
        assert n.fire() is None
        assert n.state is ComponentState.CRASHED

    def test_byzantine_deviation_bounded(self):
        n = make_neuron(activation=Sigmoid(1.0))
        n.set_fault(ByzantineFault(value=100.0), capacity=0.5)
        assert n.fire() == pytest.approx(0.5 + 0.5)

    def test_byzantine_sentinel_uses_capacity(self):
        n = make_neuron(activation=Sigmoid(1.0))
        n.set_fault(ByzantineFault(sign=-1), capacity=0.25)
        assert n.fire() == pytest.approx(0.25)

    def test_offset_fault(self):
        n = make_neuron(activation=Sigmoid(1.0))
        n.set_fault(OffsetFault(offset=0.01), capacity=1.0)
        assert n.fire() == pytest.approx(0.51)

    def test_make_byzantine_sugar(self):
        n = make_neuron(activation=Sigmoid(1.0))
        n.make_byzantine(0.9, capacity=10.0)
        assert n.fire() == pytest.approx(0.9)

    def test_repair(self):
        n = make_neuron(activation=Sigmoid(1.0))
        n.crash()
        n.repair()
        assert n.is_correct and n.fire() == pytest.approx(0.5)

    def test_signals_used_recorded(self):
        n = make_neuron()
        n.receive(Signal(layer=1, src=0, value=1.0, round=0))
        n.fire()
        assert n.signals_used == 1


class TestValidation:
    def test_bad_address(self):
        with pytest.raises(ValueError):
            NeuronProcess(0, 0, np.zeros(2), 0.0, Identity())
