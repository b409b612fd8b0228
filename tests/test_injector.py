"""Unit tests for the vectorised fault injector."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector, apply_mask_channels
from repro.faults.masks import MaskCampaignEngine
from repro.faults.scenarios import (
    NOMINAL,
    FailureScenario,
    byzantine_scenario,
    crash_scenario,
    random_failure_scenario,
)
from repro.faults.types import (
    ByzantineFault,
    CrashFault,
    NoiseFault,
    OffsetFault,
    SignFlipFault,
    StuckAtFault,
    SynapseByzantineFault,
    SynapseCrashFault,
)
from repro.network.model import NeuronAddress

from oracles import apply_mask_channels_reference, reference_error, run_reference


class TestNominal:
    def test_empty_scenario_equals_forward(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        np.testing.assert_allclose(
            inj.run(batch, NOMINAL), small_net.forward(batch)
        )

    def test_one_input_vector_gives_one_output_row(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = crash_scenario([(1, 3)])
        out = inj.run(batch[0], sc)
        assert out.shape == (small_net.n_outputs,)
        np.testing.assert_allclose(out, inj.run(batch, sc)[0], rtol=1e-12)

    def test_empty_probe_batch_runs(self, small_net):
        inj = FaultInjector(small_net, capacity=1.0)
        out = inj.run(np.empty((0, small_net.input_dim)), crash_scenario([(1, 3)]))
        assert out.shape == (0, small_net.n_outputs)

    def test_capacity_validation(self, small_net):
        with pytest.raises(ValueError):
            FaultInjector(small_net, capacity=0.0)
        FaultInjector(small_net, capacity=None)  # unbounded is allowed


class TestCrashSemantics:
    def test_crashed_neuron_reads_zero_downstream(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = crash_scenario([(1, 3)])
        _, taps = run_reference(inj, batch, sc, return_taps=True)
        assert np.all(taps[0][:, 3] == 0.0)

    def test_crash_in_last_layer_removes_contribution(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = crash_scenario([(2, 0)])
        faulty = inj.run(batch, sc)
        taps = small_net.hidden_outputs(batch)
        expected = small_net.forward(batch) - (
            small_net.output_weights[:, 0] * taps[1][:, [0]]
        )
        np.testing.assert_allclose(faulty, expected)

    def test_crash_all_but_one_still_runs(self, single_layer_net, rng):
        inj = FaultInjector(single_layer_net, capacity=1.0)
        sc = crash_scenario([(1, i) for i in range(9)])
        out = inj.run(rng.random((4, 2)), sc)
        assert np.isfinite(out).all()


class TestByzantineSemantics:
    def test_sentinel_deviates_by_capacity(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=0.7)
        sc = byzantine_scenario([(1, 2)], sign=1)
        _, taps = run_reference(inj, batch, sc, return_taps=True)
        nominal_taps = small_net.hidden_outputs(batch)
        np.testing.assert_allclose(taps[0][:, 2], nominal_taps[0][:, 2] + 0.7)

    def test_explicit_value_within_band(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=5.0)
        sc = byzantine_scenario([(1, 0)], value=2.0)
        _, taps = run_reference(inj, batch, sc, return_taps=True)
        np.testing.assert_allclose(taps[0][:, 0], 2.0)

    def test_unbounded_rejects_sentinel(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=None)
        with pytest.raises(ValueError, match="unbounded"):
            inj.run(batch, byzantine_scenario([(1, 0)]))

    def test_unbounded_passes_huge_value(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=None)
        sc = byzantine_scenario([(2, 0)], value=1e6)
        err = inj.output_error(batch, sc)
        assert err > 1e3  # the last layer feeds the linear output node


class TestSynapseSemantics:
    def test_crash_synapse_removes_one_term(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario(synapse_faults={(3, 0, 2): SynapseCrashFault()})
        faulty = inj.run(batch, sc)
        taps = small_net.hidden_outputs(batch)
        expected = small_net.forward(batch).copy()
        expected[:, 0] -= small_net.output_weights[0, 2] * taps[1][:, 2]
        np.testing.assert_allclose(faulty, expected)

    def test_byzantine_synapse_offset_weighted(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario(
            synapse_faults={(3, 0, 1): SynapseByzantineFault(offset=0.5)}
        )
        faulty = inj.run(batch, sc)
        expected = small_net.forward(batch).copy()
        expected[:, 0] += small_net.output_weights[0, 1] * 0.5
        np.testing.assert_allclose(faulty, expected)

    def test_synapse_deviation_clipped_to_capacity(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=0.2)
        sc = FailureScenario(
            synapse_faults={(3, 0, 1): SynapseByzantineFault(offset=100.0)}
        )
        faulty = inj.run(batch, sc)
        expected = small_net.forward(batch).copy()
        expected[:, 0] += small_net.output_weights[0, 1] * 0.2
        np.testing.assert_allclose(faulty, expected)

    def test_hidden_stage_synapse_fault(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario(
            synapse_faults={(2, 1, 0): SynapseByzantineFault(offset=0.3)}
        )
        faulty = inj.run(batch, sc)
        assert np.abs(faulty - small_net.forward(batch)).max() > 0


class TestDynamicFaults:
    def test_noise_fault_reproducible_with_rng(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario({NeuronAddress(1, 0): NoiseFault(sigma=0.1)})
        a = inj.run(batch, sc, rng=np.random.default_rng(5))
        b = inj.run(batch, sc, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_sign_flip(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=10.0)
        sc = FailureScenario({NeuronAddress(1, 4): SignFlipFault()})
        _, taps = run_reference(inj, batch, sc, return_taps=True)
        nominal = small_net.hidden_outputs(batch)
        np.testing.assert_allclose(taps[0][:, 4], -nominal[0][:, 4])


class TestBatchedPath:
    """Lowered scenarios on the mask engine vs the scalar reference loop.

    The ``run_many`` test names predate the engine becoming the one
    dense evaluator; they keep their ids so the history stays readable.
    """

    def _scenarios(self, net, rng, n=20):
        return [
            random_failure_scenario(net, (2, 1), rng=rng, name=f"s{i}")
            for i in range(n)
        ]

    @staticmethod
    def _outputs(inj, x, scenarios):
        return MaskCampaignEngine(inj, x).outputs(inj.compile_batch(scenarios))

    @staticmethod
    def _errors(inj, x, scenarios, reduction="max"):
        engine = MaskCampaignEngine(inj, x, reduction=reduction)
        return engine.evaluate(inj.compile_batch(scenarios))

    def test_run_many_agrees_with_scalar(self, small_net, batch, rng):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = self._scenarios(small_net, rng)
        outs = self._outputs(inj, batch, scenarios)
        for i, sc in enumerate(scenarios):
            np.testing.assert_allclose(
                outs[i], run_reference(inj, batch, sc), atol=1e-12
            )

    def test_run_many_mixed_fault_kinds(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = [
            FailureScenario(
                {
                    NeuronAddress(1, 0): CrashFault(),
                    NeuronAddress(1, 1): ByzantineFault(sign=-1),
                    NeuronAddress(2, 0): StuckAtFault(0.9),
                    NeuronAddress(2, 1): OffsetFault(offset=0.05),
                }
            )
        ]
        outs = self._outputs(inj, batch, scenarios)
        np.testing.assert_allclose(
            outs[0], run_reference(inj, batch, scenarios[0]), atol=1e-12
        )

    def test_errors_many_matches_output_error(self, small_net, batch, rng):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = self._scenarios(small_net, rng, n=8)
        errs = self._errors(inj, batch, scenarios)
        for e, sc in zip(errs, scenarios):
            assert e == pytest.approx(reference_error(inj, batch, sc))

    def test_compile_lowers_synapse_faults(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario(synapse_faults={(1, 0, 0): SynapseCrashFault()})
        compiled = inj.compile_batch([sc])
        assert compiled.has_synapse_faults
        err = MaskCampaignEngine(inj, batch).evaluate(compiled)
        assert err[0] == pytest.approx(reference_error(inj, batch, sc))

    def test_compile_lowers_dynamic_faults(self, small_net):
        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario({NeuronAddress(1, 0): NoiseFault()})
        compiled = inj.compile_batch([sc])
        assert compiled.is_stochastic
        assert compiled.noise_masks[0][0, 0]

    def test_compile_rejects_unknown_fault_models(self, small_net):
        from repro.faults.types import NeuronFault

        class WeirdFault(NeuronFault):
            def apply(self, nominal, *, rng=None, capacity=None):
                return nominal * 0.5  # pragma: no cover

        inj = FaultInjector(small_net, capacity=1.0)
        sc = FailureScenario({NeuronAddress(1, 0): WeirdFault()})
        with pytest.raises(ValueError, match="lowering"):
            inj.compile_batch([sc])

    def test_empty_batch(self, small_net, batch):
        inj = FaultInjector(small_net, capacity=1.0)
        out = self._outputs(inj, batch, [])
        assert out.shape == (0, 32, 1)

    def test_run_many_on_conv_network(self, rng):
        from repro.network import build_conv_net

        net = build_conv_net(12, [3, 2], seed=5)
        inj = FaultInjector(net, capacity=1.0)
        x = rng.random((6, 12))
        scenarios = [
            random_failure_scenario(net, (1, 1), rng=rng, name=f"c{i}")
            for i in range(6)
        ]
        outs = self._outputs(inj, x, scenarios)
        for i, sc in enumerate(scenarios):
            np.testing.assert_allclose(
                outs[i], run_reference(inj, x, sc), atol=1e-12
            )

    def test_reduction_modes(self, small_net, batch, rng):
        inj = FaultInjector(small_net, capacity=1.0)
        scenarios = self._scenarios(small_net, rng, n=4)
        mx = self._errors(inj, batch, scenarios, reduction="max")
        mean = self._errors(inj, batch, scenarios, reduction="mean")
        assert np.all(mean <= mx + 1e-12)
        with pytest.raises(ValueError):
            self._errors(inj, batch, scenarios, reduction="median")


class TestChannelScatter:
    """Every channel is one gather/compute/scatter over its cells.

    The kernel must write the whole-tensor masked write's bits
    (``+0.0`` over ``-0.0``, NaN and huge activations alike) and draw
    exactly the same stream, at every density.
    """

    S, B, N = 32, 5, 16
    SPECIAL = np.array([-0.0, np.nan, 1e308, -1e308, np.inf])

    def _activations(self, rng):
        Y = rng.standard_normal((self.S, self.B, self.N)) * 1e3
        spots = rng.choice(Y.size, Y.size // 4, replace=False)
        Y.flat[spots] = rng.choice(self.SPECIAL, spots.size)
        return Y

    def _cells(self, rng, density, taken=None):
        """A ``(S, N)`` mask of ``density * S * N`` cells, avoiding
        ``taken`` (channels are disjoint per cell)."""
        free = np.flatnonzero(~taken) if taken is not None else np.arange(
            self.S * self.N
        )
        k = min(int(round(density * self.S * self.N)), free.size)
        mask = np.zeros((self.S, self.N), dtype=bool)
        mask.flat[rng.choice(free, k, replace=False)] = True
        return mask

    def _gates(self, rng, mask, gated):
        gate_p = np.ones((self.S, self.N))
        if gated:
            rows, cols = np.nonzero(mask)
            pick = rng.random(rows.size) < 0.3
            gate_p[rows[pick], cols[pick]] = 0.5
        return gate_p

    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("density", [1 / 64, 1 / 8, 1 / 4, 1 / 2, 1.0])
    def test_crash_matches_masked_write(self, density, gated):
        rng = np.random.default_rng(17)
        Y = self._activations(rng)
        zero = self._cells(rng, density)
        gate_p = self._gates(rng, zero, gated)
        none = np.zeros_like(zero)
        values = np.zeros((self.S, self.N))
        rng_kernel = np.random.default_rng(5)
        rng_oracle = np.random.default_rng(5)
        got = apply_mask_channels(
            Y.copy(), zero, none, values, none, values, 1.0,
            gate_p=gate_p, rng=rng_kernel,
        )
        want = apply_mask_channels_reference(
            Y.copy(), zero, none, values, none, values, 1.0,
            gate_p=gate_p, rng=rng_oracle,
        )
        assert got.tobytes() == want.tobytes()
        assert rng_kernel.bit_generator.state == rng_oracle.bit_generator.state

    @pytest.mark.parametrize("capacity", [0.5, None])
    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("density", [1 / 32, 1 / 4, 1 / 2])
    def test_every_channel_matches_masked_write(
        self, density, gated, capacity
    ):
        """Crash cells beside set/scale/add/noise cells: the kernel and
        the masked writes give the same bits and leave the generator
        in the same state."""
        rng = np.random.default_rng(23)
        Y = self._activations(rng)
        zero = self._cells(rng, density)
        set_mask = self._cells(rng, density / 2, zero)
        scale_mask = self._cells(rng, density / 4, zero | set_mask)
        add_mask = self._cells(rng, density / 2, zero | set_mask | scale_mask)
        noise_mask = self._cells(
            rng, 1 / 32, zero | set_mask | scale_mask | add_mask
        )
        gate_p = self._gates(
            rng, zero | set_mask | scale_mask | add_mask, gated
        )
        set_values = rng.standard_normal((self.S, self.N))
        scale_values = rng.standard_normal((self.S, self.N))
        add_values = rng.standard_normal((self.S, self.N))
        sigma = np.full((self.S, self.N), 0.1)

        def kernel(fn):
            gen = np.random.default_rng(9)
            out = fn(
                Y.copy(), zero, set_mask, set_values, add_mask, add_values,
                capacity, scale_mask=scale_mask, scale_values=scale_values,
                noise_mask=noise_mask, noise_sigma=sigma, gate_p=gate_p,
                rng=gen,
            )
            return out.tobytes(), gen.bit_generator.state

        assert kernel(apply_mask_channels) == kernel(
            apply_mask_channels_reference
        )


@st.composite
def kernel_cases(draw):
    """One layer's channels for :func:`apply_mask_channels`.

    S, B and N are drawn; every cell carries at most one channel, each
    channel's density is drawn (0 leaves it empty) and scale and noise
    may be absent.  Gates are absent, all 1 or mixed below 1 (0 to
    0.99, healthy cells included); the capacity is ``None`` or finite.
    Activations and set/scale/add values mix in
    :attr:`TestChannelScatter.SPECIAL`, except that add values stay
    finite when the capacity is ``None`` (the kernel rejects them
    there).
    """
    S = draw(st.integers(1, 24))
    B = draw(st.integers(1, 6))
    N = draw(st.integers(1, 12))
    capacity = draw(st.sampled_from([None, 1e-3, 0.5, 2.0]))
    gates = draw(st.sampled_from(["absent", "ones", "mixed"]))
    has_scale, has_noise = draw(st.booleans()), draw(st.booleans())
    density = {
        kind: draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]))
        for kind in ("zero", "set", "scale", "add", "noise")
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def specials(a):
        spots = rng.random(a.shape) < 0.2
        a[spots] = rng.choice(TestChannelScatter.SPECIAL, spots.sum())
        return a

    free = np.ones((S, N), dtype=bool)
    masks = {}
    for kind, d in density.items():
        masks[kind] = free & (rng.random((S, N)) < d)
        free &= ~masks[kind]
    add_values = rng.standard_normal((S, N))
    if capacity is not None:
        specials(add_values)
    gate_p = None
    if gates != "absent":
        gate_p = np.ones((S, N))
        if gates == "mixed":
            flaky = rng.random((S, N)) < 0.5
            gate_p[flaky] = rng.choice([0.0, 0.3, 0.5, 0.99], flaky.sum())
    args = (
        specials(rng.standard_normal((S, B, N)) * 1e3),
        masks["zero"],
        masks["set"],
        specials(rng.standard_normal((S, N))),
        masks["add"],
        add_values,
        capacity,
    )
    kwargs = dict(
        scale_mask=masks["scale"] if has_scale else None,
        scale_values=specials(rng.standard_normal((S, N)))
        if has_scale else None,
        noise_mask=masks["noise"] if has_noise else None,
        noise_sigma=rng.uniform(0.0, 2.0, (S, N)) if has_noise else None,
        gate_p=gate_p,
    )
    return args, kwargs


def check_kernel_matches_reference(case):
    """Same bytes and same generator state as the whole-tensor masked
    writes of ``tests/oracles.py``."""
    args, kwargs = case

    def run(kernel):
        gen = np.random.default_rng(31)
        with np.errstate(all="ignore"):
            out = kernel(args[0].copy(), *args[1:], rng=gen, **kwargs)
        return out.tobytes(), gen.bit_generator.state

    assert run(apply_mask_channels) == run(apply_mask_channels_reference)


_KERNEL_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)


@settings(max_examples=150, **_KERNEL_SETTINGS)
@given(case=kernel_cases())
def test_generated_channels_match_reference(case):
    check_kernel_matches_reference(case)


@pytest.mark.slow_stats
@settings(max_examples=3000, **_KERNEL_SETTINGS)
@given(case=kernel_cases())
def test_generated_channels_match_reference_deep(case):
    check_kernel_matches_reference(case)
