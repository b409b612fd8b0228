"""Engine backends: the quantized tiers and the segment-kernel bitwise
contract.

Three contracts under test:

* every non-numpy ``EngineSpec.backend`` name is a row of
  ``QUANTIZED_TIERS``, and ``repro.run`` builds that tier's engine;
* the precompiled segment-sum synapse kernels are bitwise-identical to
  the ``np.add.at`` reference in ``tests/oracles.py`` across every
  golden campaign spec fixture (same RNG draw order, same accumulation
  order);
* ``quantized-*`` nominals match ``QuantizedNetwork`` bitwise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends.quantized import (
    QUANTIZED_TIERS,
    QuantizedMaskEngine,
    tier_quantizers,
)
from repro.faults.injector import FaultInjector
from repro.faults.masks import (
    BernoulliSampler,
    FixedSynapseDistributionSampler,
    sampled_campaign_errors,
)
from repro.faults.types import SynapseByzantineFault
from repro.network import build_mlp
from repro.quantization import (
    FixedPointQuantizer,
    HalfPrecisionQuantizer,
    QuantizedNetwork,
)
from repro.specs import (
    ENGINE_BACKENDS,
    CampaignSpec,
    EngineSpec,
    FaultSpec,
    NetworkRef,
    SamplerSpec,
    SpecError,
    load_spec,
    run as run_spec,
)

from oracles import use_scatter_reference

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "specs"


@pytest.fixture(scope="module")
def net():
    return build_mlp(
        3, [10, 8], activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.3}, output_scale=0.2, seed=7,
    )


@pytest.fixture(scope="module")
def injector(net):
    return FaultInjector(net, capacity=net.output_bound)


@pytest.fixture(scope="module")
def probes(net):
    return np.random.default_rng(5).random((6, net.input_dim))


def _campaign_fixtures():
    """Golden campaign fixtures with a resolvable builder network."""
    out = []
    for path in sorted(FIXTURE_DIR.glob("campaign_*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("network", {}).get("builder"):
            out.append(path)
    return out


class TestSegmentKernelBitwise:
    """The segment-sum synapse kernels vs the ``np.add.at`` reference —
    bitwise float64 equality on every golden campaign workload."""

    @pytest.mark.parametrize(
        "path", _campaign_fixtures(), ids=lambda p: p.stem
    )
    def test_segment_matches_scatter_reference(self, path, monkeypatch):
        spec = load_spec(path)
        assert isinstance(spec, CampaignSpec)
        spec = spec.replace(n_scenarios=min(spec.n_scenarios, 1500))

        segment = run_spec(spec)
        use_scatter_reference(monkeypatch)
        scatter = run_spec(spec)

        assert segment.errors.dtype == np.float64
        assert np.array_equal(segment.errors, scatter.errors), (
            f"{path.name}: segment kernel drifted from the np.add.at "
            "reference"
        )


def _quantized_campaign(backend="quantized-int8", **engine):
    return CampaignSpec(
        network=NetworkRef(builder="mlp", params={
            "input_dim": 3, "hidden": [10, 8],
            "activation": {"name": "sigmoid", "k": 1.0},
            "init": {"name": "uniform", "scale": 0.3},
            "output_scale": 0.2, "seed": 7,
        }),
        sampler=SamplerSpec(kind="fixed", distribution=(2, 1)),
        fault=FaultSpec(kind="byzantine"),
        n_scenarios=300,
        batch=6,
        seed=3,
        engine=EngineSpec(backend=backend, **engine),
    )


class TestQuantizedTiers:
    def test_every_non_numpy_backend_is_a_tier(self):
        assert ENGINE_BACKENDS == ("numpy", *QUANTIZED_TIERS)
        int8 = tier_quantizers("quantized-int8", 3)
        assert len(int8) == 3
        assert all(isinstance(q, FixedPointQuantizer) for q in int8)
        assert int8[0].max_error == 2.0 ** -9
        assert all(
            isinstance(q, HalfPrecisionQuantizer)
            for q in tier_quantizers("float16", 2)
        )

    def test_nominal_matches_quantized_network(self, net, injector, probes):
        for name, quantizers in (
            (
                "quantized-int8",
                [FixedPointQuantizer(8) for _ in range(net.depth)],
            ),
            ("float16", [HalfPrecisionQuantizer() for _ in range(net.depth)]),
        ):
            eng = QuantizedMaskEngine(
                injector, probes, quantizers=tier_quantizers(name, net.depth)
            )
            qnet = QuantizedNetwork(net, quantizers)
            np.testing.assert_array_equal(
                eng.nominal, qnet.forward(probes)
            )

    def test_wide_nominal_matches_quantized_network(self, wide_net):
        inj = FaultInjector(wide_net, capacity=1.0)
        x = np.random.default_rng(6).random((8, wide_net.input_dim))
        eng = QuantizedMaskEngine(
            inj, x, quantizers=tier_quantizers("quantized-int8", wide_net.depth)
        )
        qnet = QuantizedNetwork(
            wide_net, [FixedPointQuantizer(8) for _ in range(wide_net.depth)]
        )
        np.testing.assert_array_equal(eng.nominal, qnet.forward(x))
        # Zero-fault scenarios take the rank-0 update: exactly nominal.
        compiled = BernoulliSampler(wide_net, 0.0).sample(
            5, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(eng.evaluate(compiled), 0.0)

    def test_quantized_tier_shifts_campaign_errors(self, net, injector, probes):
        """The tier actually quantizes: campaign errors differ from the
        full-precision engine but stay finite and well-formed."""
        sampler = self._byz_sampler(net)
        full = sampled_campaign_errors(
            injector, probes, sampler, 400, seed=9
        )
        tier = sampled_campaign_errors(
            injector, probes, sampler, 400, seed=9,
            engine=QuantizedMaskEngine(
                injector, probes,
                quantizers=tier_quantizers("quantized-int8", net.depth),
            ),
        )
        assert full.shape == tier.shape
        assert np.all(np.isfinite(tier))
        assert not np.array_equal(full, tier)

    @staticmethod
    def _byz_sampler(net):
        return FixedSynapseDistributionSampler(
            net, (0, 1, 1), fault=SynapseByzantineFault()
        )

    def test_depth_mismatch_rejected(self, net, injector, probes):
        with pytest.raises(ValueError, match="quantizer per hidden layer"):
            QuantizedMaskEngine(
                injector, probes, quantizers=[FixedPointQuantizer(8)]
            )

    @pytest.mark.parametrize("name", sorted(QUANTIZED_TIERS))
    def test_run_builds_the_tier_engine(self, name):
        spec = _quantized_campaign(name)
        net = spec.network.resolve()
        injector = FaultInjector(net, capacity=net.output_bound)
        x = np.random.default_rng(spec.seed).random((spec.batch, 3))
        engine = QuantizedMaskEngine(
            injector, x, quantizers=tier_quantizers(name, net.depth)
        )
        direct = run_spec(spec, engine=engine)
        assert np.array_equal(run_spec(spec).errors, direct.errors)
        # In-process worker counts (0 and 1) run the same tier.
        assert np.array_equal(run_spec(spec, workers=1).errors, direct.errors)

    @pytest.mark.parametrize("name", sorted(QUANTIZED_TIERS))
    def test_tiers_refuse_a_worker_fan_out(self, name):
        """A tier runs in-process; a fan-out it cannot honour is a
        SpecError, whether the spec or the caller asks for it."""
        with pytest.raises(SpecError, match="runs in-process"):
            run_spec(_quantized_campaign(name, workers=2))
        with pytest.raises(SpecError, match="runs in-process"):
            run_spec(_quantized_campaign(name), workers=4)
        with pytest.raises(SpecError, match="runs in-process"):
            run_spec(_quantized_campaign(name, workers=1), workers=2)
