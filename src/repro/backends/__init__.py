"""Engine tiers beyond the reference numpy engine.

:class:`~repro.specs.model.EngineSpec` names a campaign's evaluation
tier (``backend=`` field, validated against
:data:`~repro.specs.model.ENGINE_BACKENDS`).  ``numpy`` is the plain
:class:`~repro.faults.masks.MaskCampaignEngine`; the other tiers are
the reduced-precision probes of :mod:`repro.backends.quantized`,
which :mod:`repro.specs.dispatch` builds directly from
:data:`~repro.backends.quantized.QUANTIZED_TIERS`.
"""
