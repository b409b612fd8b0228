"""Unit tests for the distributed-system event records."""

import pytest

from message_passing import ComponentState, Reset, RoundTrace, Signal



class TestSignal:
    def test_fields(self):
        s = Signal(layer=1, src=3, value=0.5, round=2)
        assert s.layer == 1 and s.src == 3 and s.value == 0.5 and s.round == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Signal(layer=-1, src=0, value=0.0, round=0)
        with pytest.raises(ValueError):
            Signal(layer=0, src=-1, value=0.0, round=0)

    def test_immutable(self):
        s = Signal(layer=0, src=0, value=1.0, round=0)
        with pytest.raises(AttributeError):
            s.value = 2.0


class TestReset:
    def test_is_zero_valued_signal(self):
        r = Reset(layer=1, src=2, round=0)
        assert isinstance(r, Signal)
        assert r.value == 0.0


class TestComponentState:
    def test_values(self):
        assert ComponentState.CORRECT.value == "correct"
        assert ComponentState.CRASHED.value == "crashed"
        assert ComponentState.BYZANTINE.value == "byzantine"


class TestRoundTrace:
    def test_str(self):
        t = RoundTrace(0, 0, 10, 2, 1)
        text = str(t)
        assert "10 delivered" in text and "2 dropped" in text
