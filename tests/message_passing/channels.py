"""Synapse channels: weighted point-to-point links with bounded capacity.

A channel carries the producer's *emission*; the consumer applies the
synaptic weight on receipt (the weight "models the importance a neuron
j gives to the signals emitted by neuron i").  Faulty channels corrupt
the emission in transit, with the deviation bounded by the capacity
``C`` (Assumption 1 / Lemma 2) — matching the mask engine's
semantics exactly, which the test suite verifies by equivalence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .events import ComponentState

__all__ = ["SynapseChannel"]


class SynapseChannel:
    """One synapse from neuron ``src`` of layer ``l-1`` to ``dst`` of ``l``.

    Parameters
    ----------
    weight:
        The synaptic weight applied by the consumer.
    capacity:
        Transmission capacity ``C`` (``None`` = unbounded, Lemma 1
        regime).
    """

    __slots__ = ("weight", "capacity", "state", "_offset", "_rng", "_sigma")

    def __init__(
        self,
        weight: float,
        capacity: Optional[float] = 1.0,
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.weight = float(weight)
        self.capacity = None if capacity is None else float(capacity)
        self.state = ComponentState.CORRECT
        self._offset: Optional[float] = None
        self._sigma: Optional[float] = None
        self._rng: Optional[np.random.Generator] = None

    # -- fault control -------------------------------------------------------

    def crash(self) -> None:
        """The channel stops transmitting (delivers 0)."""
        self.state = ComponentState.CRASHED

    def make_byzantine(
        self,
        offset: Optional[float] = None,
        *,
        sign: int = 1,
        sigma: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """The channel corrupts emissions.

        ``offset`` adds a fixed error; ``offset=None`` saturates the
        capacity with ``sign``; ``sigma`` adds Gaussian noise instead.
        """
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {sign}")
        self.state = ComponentState.BYZANTINE
        if sigma is not None:
            self._sigma = float(sigma)
            self._rng = rng if rng is not None else np.random.default_rng()
            self._offset = None
        else:
            self._offset = (
                float(offset)
                if offset is not None
                else (sign * self.capacity if self.capacity is not None else None)
            )
            if self._offset is None:
                raise ValueError(
                    "capacity-saturating byzantine channel needs a finite capacity"
                )
            self._sigma = None

    def repair(self) -> None:
        """Restore correct operation."""
        self.state = ComponentState.CORRECT
        self._offset = self._sigma = self._rng = None

    # -- transmission --------------------------------------------------------

    def _bound_deviation(self, deviation: float) -> float:
        if self.capacity is None:
            return deviation
        return float(np.clip(deviation, -self.capacity, self.capacity))

    def transmit(self, emission: float) -> float:
        """Deliver an emission; the consumer multiplies by ``weight``."""
        if self.state is ComponentState.CORRECT:
            return float(emission)
        if self.state is ComponentState.CRASHED:
            return float(emission + self._bound_deviation(-emission))
        # Byzantine: additive corruption, bounded by the capacity.
        if self._sigma is not None:
            noise = float(self._rng.normal(0.0, self._sigma))
            return float(emission + self._bound_deviation(noise))
        return float(emission + self._bound_deviation(self._offset))

    def received_term(self, emission: float) -> float:
        """The weighted contribution the consumer adds to its sum."""
        return self.weight * self.transmit(emission)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SynapseChannel(w={self.weight:g}, C={self.capacity}, "
            f"state={self.state.value})"
        )
