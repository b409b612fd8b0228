"""Unit tests for synapse channels."""

import numpy as np
import pytest

from message_passing import ComponentState, SynapseChannel



class TestCorrectChannel:
    def test_passthrough(self):
        ch = SynapseChannel(0.5, capacity=1.0)
        assert ch.transmit(0.8) == 0.8

    def test_received_term_applies_weight(self):
        ch = SynapseChannel(-0.5, capacity=1.0)
        assert ch.received_term(0.8) == pytest.approx(-0.4)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SynapseChannel(1.0, capacity=-1.0)


class TestCrashedChannel:
    def test_delivers_zero(self):
        ch = SynapseChannel(0.5, capacity=1.0)
        ch.crash()
        assert ch.transmit(0.8) == 0.0
        assert ch.state is ComponentState.CRASHED

    def test_crash_deviation_clipped_under_tiny_capacity(self):
        ch = SynapseChannel(0.5, capacity=0.3)
        ch.crash()
        # Deviation -0.8 clipped to -0.3 -> delivers 0.5.
        assert ch.transmit(0.8) == pytest.approx(0.5)


class TestByzantineChannel:
    def test_offset_applied(self):
        ch = SynapseChannel(1.0, capacity=1.0)
        ch.make_byzantine(offset=0.25)
        assert ch.transmit(0.5) == pytest.approx(0.75)

    def test_offset_clipped_to_capacity(self):
        ch = SynapseChannel(1.0, capacity=0.2)
        ch.make_byzantine(offset=5.0)
        assert ch.transmit(0.5) == pytest.approx(0.7)

    def test_saturating_default(self):
        ch = SynapseChannel(1.0, capacity=0.4)
        ch.make_byzantine(sign=-1)
        assert ch.transmit(0.5) == pytest.approx(0.1)

    def test_saturating_needs_finite_capacity(self):
        ch = SynapseChannel(1.0, capacity=None)
        with pytest.raises(ValueError):
            ch.make_byzantine()

    def test_noise_mode(self):
        ch = SynapseChannel(1.0, capacity=1.0)
        ch.make_byzantine(sigma=0.1, rng=np.random.default_rng(0))
        vals = [ch.transmit(0.5) for _ in range(100)]
        assert np.std(vals) > 0
        assert all(abs(v - 0.5) <= 1.0 + 1e-12 for v in vals)

    def test_sign_validation(self):
        ch = SynapseChannel(1.0)
        with pytest.raises(ValueError):
            ch.make_byzantine(sign=0)


class TestRepair:
    def test_repair_restores_passthrough(self):
        ch = SynapseChannel(1.0, capacity=1.0)
        ch.make_byzantine(offset=0.5)
        ch.repair()
        assert ch.state is ComponentState.CORRECT
        assert ch.transmit(0.3) == 0.3
