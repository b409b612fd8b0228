"""The engine backend seam: registry, threaded determinism, quantized
tiers, and the segment-kernel bitwise contract.

Three contracts under test:

* the ``repro.backends`` registry routes ``EngineSpec.backend`` names
  to engine factories and rejects unknown names loudly;
* the precompiled segment-sum synapse kernels are bitwise-identical to
  the ``np.add.at`` reference in ``tests/oracles.py`` across every
  golden campaign spec fixture (same RNG draw order, same accumulation
  order);
* ``threaded`` results are worker-count invariant, and match the
  ``numpy`` engine bitwise for deterministic batches at matched slice
  layout; ``quantized-*`` nominals match ``QuantizedNetwork`` bitwise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    available_backends,
    build_engine,
    get_backend,
    register_backend,
)
from repro.backends.quantized import QuantizedMaskEngine
from repro.backends.threaded import ThreadedMaskEngine
from repro.faults.injector import FaultInjector
from repro.faults.masks import (
    FixedSynapseDistributionSampler,
    MaskCampaignEngine,
    sampled_campaign_errors,
)
from repro.faults.types import SynapseByzantineFault, SynapseNoiseFault
from repro.network import build_mlp
from repro.quantization import (
    FixedPointQuantizer,
    HalfPrecisionQuantizer,
    QuantizedNetwork,
)
from repro.specs import CampaignSpec, load_spec, run as run_spec

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


class TestRegistry:
    def test_all_tiers_registered(self):
        assert available_backends() == (
            "float16", "numpy", "quantized-int8", "threaded"
        )

    def test_unknown_backend_fails_loud(self):
        with pytest.raises(KeyError, match="numpy"):
            get_backend("cuda")

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_backend("", lambda *a, **k: None)

    def test_build_engine_types(self, injector, probes):
        assert isinstance(
            build_engine("numpy", injector, probes), MaskCampaignEngine
        )
        with build_engine("threaded", injector, probes, workers=2) as eng:
            assert isinstance(eng, ThreadedMaskEngine)
        for name in ("quantized-int8", "float16"):
            eng = build_engine(name, injector, probes)
            assert isinstance(eng, QuantizedMaskEngine)


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


class TestThreadedDeterminism:
    def _sampler(self, net, fault):
        return FixedSynapseDistributionSampler(net, (0, 1, 1), fault=fault)

    def test_worker_count_invariant_stochastic(self, net, injector, probes):
        sampler = self._sampler(net, SynapseNoiseFault(sigma=0.1))
        runs = []
        for workers in (1, 4):
            with build_engine(
                "threaded", injector, probes, workers=workers
            ) as eng:
                runs.append(
                    sampled_campaign_errors(
                        injector, probes, sampler, 800, seed=11, engine=eng
                    )
                )
        assert np.array_equal(runs[0], runs[1])

    def test_matches_numpy_for_deterministic_batches(
        self, net, injector, probes
    ):
        """At matched slice layout (chunk == tile) the threaded pool is
        a pure re-ordering of the same slice evaluations."""
        sampler = self._sampler(net, SynapseByzantineFault())
        serial = build_engine("numpy", injector, probes, chunk_size=256)
        ref = sampled_campaign_errors(
            injector, probes, sampler, 900, seed=3, engine=serial
        )
        with build_engine(
            "threaded", injector, probes, chunk_size=256, workers=3
        ) as eng:
            assert eng.tile == 256
            got = sampled_campaign_errors(
                injector, probes, sampler, 900, seed=3, engine=eng
            )
        assert np.array_equal(ref, got)


class TestQuantizedTiers:
    def test_nominal_matches_quantized_network(self, net, injector, probes):
        for name, quantizers in (
            (
                "quantized-int8",
                [FixedPointQuantizer(8) for _ in range(net.depth)],
            ),
            ("float16", [HalfPrecisionQuantizer() for _ in range(net.depth)]),
        ):
            eng = build_engine(name, injector, probes)
            qnet = QuantizedNetwork(net, quantizers)
            np.testing.assert_array_equal(
                eng.nominal, qnet.forward(probes)
            )

    def test_quantized_tier_shifts_campaign_errors(self, net, injector, probes):
        """The tier actually quantizes: campaign errors differ from the
        full-precision engine but stay finite and well-formed."""
        sampler = self._byz_sampler(net)
        full = sampled_campaign_errors(
            injector, probes, sampler, 400, seed=9,
            engine=build_engine("numpy", injector, probes),
        )
        tier = sampled_campaign_errors(
            injector, probes, sampler, 400, seed=9,
            engine=build_engine("quantized-int8", injector, probes),
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
