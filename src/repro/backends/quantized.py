"""Reduced-precision probe tiers: the ``quantized-int8`` / ``float16``
backends.

Theorem 5 models a network whose layer-``l`` emissions are rounded
with worst-case error ``lambda_l`` before transmission.
:class:`QuantizedMaskEngine` realises exactly that inside the mask
campaign engine: it hooks
:meth:`~repro.faults.masks.MaskCampaignEngine._post_activation` and
rounds every layer's post-activation values — nominal forward pass
included — to the tier's wire precision *before* fault channels
corrupt them.  Campaign errors therefore measure fault deviation at
the quantized precision (faulty-quantized vs nominal-quantized), the
quantity the paper's combined fault+quantisation bound
(:func:`~repro.core.fep.precision_error_bound`) speaks about.

Two tiers, one row each of :data:`QUANTIZED_TIERS`:

* ``quantized-int8`` — 8 fractional bits on ``[0, 1]``
  (:class:`~repro.quantization.quantizers.FixedPointQuantizer`,
  ``lambda_l = 2**-9``); assumes the paper's bounded-activation model
  (sigmoid-style emissions in ``[0, 1]`` — values outside clip).
* ``float16`` — IEEE binary16 round-trip
  (:class:`~repro.quantization.quantizers.HalfPrecisionQuantizer`,
  ``lambda_l = 2**-12`` on ``[0, 1]``).

The matching fault-free reference is
:class:`~repro.quantization.quantizers.QuantizedNetwork` with the same
per-layer quantisers — the quantized-probes experiment audits one
against the other.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..faults.masks import DEFAULT_CHUNK, MaskCampaignEngine
from ..quantization.quantizers import (
    FixedPointQuantizer,
    HalfPrecisionQuantizer,
    Quantizer,
)

__all__ = ["QUANTIZED_TIERS", "QuantizedMaskEngine", "tier_quantizers"]

#: Tier name -> the quantizer it puts on every hidden layer.
QUANTIZED_TIERS: Dict[str, Callable[[], Quantizer]] = {
    "quantized-int8": lambda: FixedPointQuantizer(8),
    "float16": HalfPrecisionQuantizer,
}


def tier_quantizers(name: str, depth: int) -> List[Quantizer]:
    """One fresh quantizer per hidden layer for tier ``name``."""
    make = QUANTIZED_TIERS[name]
    return [make() for _ in range(depth)]


class QuantizedMaskEngine(MaskCampaignEngine):
    """A mask campaign engine whose emissions pass through per-layer
    quantisers.

    ``quantizers`` holds one :class:`Quantizer` (or ``None`` for
    full precision) per hidden layer.  The hook fires on every
    post-activation buffer — the cached first layer, the streamed
    hidden layers, the sparse stage-1 correction cells, and the
    nominal forward pass at construction — so quantized and
    full-precision cells never mix within one campaign.
    """

    def __init__(
        self,
        injector,
        x: np.ndarray,
        *,
        quantizers: Sequence["Quantizer | None"],
        chunk_size: int = DEFAULT_CHUNK,
        reduction: str = "max",
        dtype: "str | np.dtype" = np.float64,
    ):
        qs = tuple(quantizers)
        depth = injector.network.depth
        if len(qs) != depth:
            raise ValueError(
                f"need one quantizer per hidden layer ({depth}), got {len(qs)}"
            )
        # Set before super().__init__: the base constructor runs the
        # nominal forward pass, which already calls the hook.
        self._quantizers = qs
        super().__init__(
            injector, x, chunk_size=chunk_size, reduction=reduction,
            dtype=dtype,
        )

    @property
    def quantizers(self) -> tuple:
        return self._quantizers

    @property
    def lambdas(self) -> tuple:
        """Per-layer worst-case rounding errors — Theorem 5's
        ``lambda_l`` vector for this tier."""
        return tuple(
            0.0 if q is None else float(q.max_error)
            for q in self._quantizers
        )

    def _post_activation(self, l0: int, arr: np.ndarray) -> None:
        q = self._quantizers[l0]
        if q is not None:
            arr[...] = q(arr)

