"""Extension — quantized probe tiers vs the Theorem 5 precision bound.

Section V-A bounds the output error a network accrues when every
layer-``l`` emission carries an implementation error of at most
``lambda_l`` (Theorem 5); the engine backend seam turns that model
into runnable campaign tiers (``quantized-int8`` rounds emissions to 8
fractional bits, ``float16`` to IEEE binary16 — see
:mod:`repro.backends.quantized`).  This experiment relates those probe
tiers to the paper's Byzantine tolerance story:

* **Does certified tolerance survive reduced-precision inference?**
  The campaign injects worst-case Byzantine neurons (capacity ``C =
  sup phi``); the Theorem 2 Fep bound certifies the fault error at
  full precision, and Theorem 5 adds at most ``network_precision_bound
  (net, lambdas)`` on top — so every tier's empirical max error must
  stay under ``fep_bound + t5_bound``.  Observed per-tier deviations
  from the float64 reference are reported alongside their analytic
  envelope ``2 * t5_bound`` (quantisation moves the faulty and the
  nominal output by at most ``t5_bound`` each).

* **At what bit-width does the empirical error cross the bound's
  certification margin?**  Sweeping fixed-point probes over ``bits =
  2..12`` (fault-free, via :class:`~repro.quantization.quantizers.
  QuantizedNetwork`), the Theorem 5 bound halves per bit while the
  empirical max error tracks it from below; against an epsilon budget
  ``eps = fep_bound + margin`` the crossing bit-width is the smallest
  width whose precision penalty fits the margin.  The analytic
  crossing can only be later (more bits) than the empirical one —
  the audit that the bound is an over-approximation, never an under-
  approximation.

The campaign workload is *declared* as a :class:`~repro.specs.
CampaignSpec` with ``engine.backend = "quantized-int8"`` — the
registry stores it, the artifact store keys caching on its content
hash, and replaying the stored spec through ``repro.run`` reproduces
the identical errors (the other tiers are ``spec.replace`` variations
of the same workload).

Validation protocol:

* the Theorem 5 bound dominates the fault-free empirical max error at
  every swept bit-width (and the bound is monotone in bits);
* the quantized campaign engines match :class:`QuantizedNetwork`
  bit-for-bit on the nominal (fault-free) forward pass — the backend
  tier *is* the quantization model;
* every tier's campaign max error stays within the combined
  fault + precision bound (certified tolerance survives int8/float16);
* the empirical crossing bit-width is no later than the analytic one,
  and both lie inside the swept range;
* deterministic replay: re-running the stored spec reproduces the
  identical error distribution.
"""

from __future__ import annotations

import numpy as np

from ..backends.quantized import (
    QUANTIZED_TIERS,
    QuantizedMaskEngine,
    tier_quantizers,
)
from ..core.fep import network_fep, network_precision_bound
from ..quantization import FixedPointQuantizer, QuantizedNetwork
from ..specs import (
    CampaignSpec,
    EngineSpec,
    FaultSpec,
    NetworkRef,
    SamplerSpec,
    run as run_spec,
)
from .registry import experiment
from .runner import ExperimentResult

__all__ = ["run_quantized_probes", "quantized_probes_spec"]

#: The probe topology: a builder ref hashes stably, so the declared
#: spec is replayable with no file on disk.
_NETWORK = NetworkRef(
    builder="mlp",
    params={
        "input_dim": 3,
        "hidden": [14, 10],
        "activation": {"name": "sigmoid", "k": 1.0},
        "init": {"name": "uniform", "scale": 0.4},
        "output_scale": 0.3,
        "seed": 13,
    },
)

#: Byzantine neuron failures per hidden layer (Theorem 2's f_l).
_DISTRIBUTION = (2, 1)


def quantized_probes_spec(
    *,
    n_scenarios: int = 3000,
    seed: int = 17,
    backend: str = "quantized-int8",
) -> CampaignSpec:
    """The Byzantine campaign on a quantized probe tier, as data."""
    return CampaignSpec(
        network=_NETWORK,
        sampler=SamplerSpec(kind="fixed", distribution=_DISTRIBUTION),
        fault=FaultSpec(kind="byzantine"),
        n_scenarios=n_scenarios,
        batch=16,
        seed=seed,
        engine=EngineSpec(backend=backend),
    )


def _tier_lambdas(net, backend: str):
    """Per-layer ``lambda_l`` of a backend tier (0.0 = full precision)."""
    if backend == "numpy":
        return tuple(0.0 for _ in range(net.depth))
    return tuple(q.max_error for q in tier_quantizers(backend, net.depth))


@experiment(
    "quantized_probes",
    title="Quantized probe tiers stay inside the Theorem 5 envelope",
    anchor="Extension (Theorem 5 x Theorem 2, quantized inference)",
    tags=("extension", "quantization", "campaign", "backend"),
    runtime="medium",
    order=165,
    spec=quantized_probes_spec(),
)
def run_quantized_probes(
    *,
    n_scenarios: int = 3000,
    seed: int = 17,
    bits_grid=tuple(range(2, 13)),
    margin_bits: int = 7,
) -> ExperimentResult:
    """Certified tolerance survives int8/float16 probe inference."""
    spec = quantized_probes_spec(n_scenarios=n_scenarios, seed=seed)
    net = spec.network.resolve()
    capacity = net.output_bound
    probes = np.random.default_rng(seed).random((spec.batch, net.input_dim))

    # Theorem 2: the certified fault bound at full precision.
    fep_bound = network_fep(
        net, _DISTRIBUTION, capacity=capacity, mode="byzantine"
    )

    # -- campaign tiers ---------------------------------------------------
    tiers = []
    ref_max = None
    for backend in ("numpy", "quantized-int8", "float16"):
        tier_spec = spec.replace(engine=spec.engine.replace(backend=backend))
        result = run_spec(tier_spec)
        lam = _tier_lambdas(net, backend)
        t5 = network_precision_bound(net, lam) if any(lam) else 0.0
        tier_max = float(np.max(result.errors))
        if backend == "numpy":
            ref_max = tier_max
        tiers.append(
            {
                "backend": backend,
                "lambda": max(lam),
                "max_error": tier_max,
                "theorem5_bound": t5,
                "combined_bound": fep_bound + t5,
                "deviation_from_reference": abs(tier_max - ref_max),
                "deviation_envelope": 2.0 * t5,
                "tolerance_survives": bool(tier_max <= fep_bound + t5 + 1e-12),
            }
        )

    # The quantized engines ARE the quantization model: their nominal
    # forward pass must match QuantizedNetwork on the same quantisers.
    from ..faults.injector import FaultInjector

    nominal_gap = 0.0
    for backend in QUANTIZED_TIERS:
        quantizers = tier_quantizers(backend, net.depth)
        eng = QuantizedMaskEngine(
            FaultInjector(net, capacity=capacity), probes,
            quantizers=quantizers,
        )
        qnet = QuantizedNetwork(net, quantizers)
        nominal_gap = max(
            nominal_gap,
            float(np.max(np.abs(eng.nominal - qnet.forward(probes)))),
        )

    # -- fault-free bit sweep vs the analytic bound -----------------------
    margin = network_precision_bound(
        net, [FixedPointQuantizer(margin_bits).max_error] * net.depth
    )
    rows = []
    for bits in bits_grid:
        qnet = QuantizedNetwork(
            net, [FixedPointQuantizer(int(bits)) for _ in range(net.depth)]
        )
        bound = network_precision_bound(net, qnet.lambdas)
        empirical = qnet.output_error(probes)
        rows.append(
            {
                "bits": int(bits),
                "lambda": float(qnet.lambdas[0]),
                "empirical_max_error": empirical,
                "theorem5_bound": bound,
                "within_margin_analytic": bool(bound <= margin + 1e-15),
                "within_margin_empirical": bool(empirical <= margin + 1e-15),
            }
        )
    analytic_cross = min(
        (r["bits"] for r in rows if r["within_margin_analytic"]), default=None
    )
    empirical_cross = min(
        (r["bits"] for r in rows if r["within_margin_empirical"]), default=None
    )

    # Replay-for-free: the stored spec reproduces the identical errors.
    replay = run_spec(CampaignSpec.from_dict(spec.to_dict()))
    declared = run_spec(spec)

    bounds = np.array([r["theorem5_bound"] for r in rows])
    checks = {
        "theorem5_dominates_empirical": all(
            r["empirical_max_error"] <= r["theorem5_bound"] + 1e-15
            for r in rows
        ),
        "bound_monotone_in_bits": bool(np.all(np.diff(bounds) < 0)),
        "backend_matches_quantized_network": nominal_gap == 0.0,
        "int8_tolerance_survives": tiers[1]["tolerance_survives"],
        "float16_tolerance_survives": tiers[2]["tolerance_survives"],
        "tiers_within_deviation_envelope": all(
            t["deviation_from_reference"] <= t["deviation_envelope"] + 1e-12
            for t in tiers
        ),
        "crossing_bitwidths_in_range": analytic_cross is not None
        and empirical_cross is not None,
        "empirical_crosses_no_later_than_analytic": (
            empirical_cross is not None
            and analytic_cross is not None
            and empirical_cross <= analytic_cross
        ),
        "deterministic_replay": bool(
            np.array_equal(declared.errors, replay.errors)
        ),
    }
    return ExperimentResult(
        experiment_id="quantized_probes",
        description="Quantized probe tiers (int8 / float16 backends) keep "
        "the Byzantine campaign inside the combined Theorem 2 + Theorem 5 "
        "envelope; the bit sweep locates the precision needed to preserve "
        "the certification margin",
        rows=rows,
        shape_checks=checks,
        metrics={
            "fep_bound": fep_bound,
            "reference_max_error": tiers[0]["max_error"],
            "int8_max_error": tiers[1]["max_error"],
            "float16_max_error": tiers[2]["max_error"],
            "int8_theorem5_bound": tiers[1]["theorem5_bound"],
            "float16_theorem5_bound": tiers[2]["theorem5_bound"],
            "analytic_crossing_bits": float(analytic_cross or -1),
            "empirical_crossing_bits": float(empirical_cross or -1),
            "nominal_gap_vs_quantized_network": nominal_gap,
            "spec_hash": quantized_probes_spec().content_hash(),
        },
        notes=[
            "extension: the engine backend seam realises Theorem 5's "
            "implementation-error model as runnable campaign tiers; the "
            "bound is audited against empirical max error at every "
            "swept bit-width",
            "workload declared as a CampaignSpec (backend="
            "quantized-int8): the artifact is keyed on the spec's "
            "content hash and replayable via `repro campaign --spec`",
            "tier deviations from the float64 reference sit inside the "
            "2*t5 envelope (quantisation moves faulty and nominal "
            "outputs by at most t5 each)",
        ],
    )
