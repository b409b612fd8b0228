"""Every bound of :mod:`repro.core.fep` against the paper's formulas.

The bounds share one propagation kernel; ``tests/oracles.py`` writes
each formula out on its own.  Over generated topologies (depth 1–6,
layer sizes 1–39, weight maxima in ``[0, 2)``, one ``K`` or one per
layer, capacities, neuron and synapse failure counts, precision
errors) Theorem 2's Fep, its per-layer terms and ``fep_many`` must be
bitwise equal to the reference cumprod (the tolerance, reliability and
certification decisions compare them with ``budget + 1e-12``), and the
synapse, per-layer-K, combined and precision bounds equal to their
loops within ``rtol=1e-12``.

The fast profile runs in tier-1; the deep one is marked ``slow_stats``
(``make test-stats``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    combined_fep_loops,
    fep_terms_reference,
    heterogeneous_fep_loops,
    precision_error_bound_loops,
    synapse_fep_loops,
)
from repro.core.fep import (
    combined_fep,
    fep_many,
    fep_terms,
    forward_error_propagation,
    heterogeneous_fep,
    precision_error_bound,
    synapse_fep,
)

#: Positive magnitudes stay clear of subnormals, where two sound
#: association orders may differ by more than a relative 1e-12.
WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 2.0, exclude_max=True))
LIPSCHITZ = st.floats(0.05, 3.0)


@st.composite
def topologies(draw):
    L = draw(st.integers(1, 6))
    n = draw(st.lists(st.integers(1, 39), min_size=L, max_size=L))
    return {
        "n": n,
        "w": draw(st.lists(WEIGHT, min_size=L + 1, max_size=L + 1)),
        "f": [draw(st.integers(0, N)) for N in n],
        "g": [draw(st.integers(0, N)) for N in n],
        "s": draw(st.lists(st.integers(0, 6), min_size=L + 1, max_size=L + 1)),
        "lam": draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                min_size=L,
                max_size=L,
            )
        ),
        "K": draw(LIPSCHITZ),
        "ks": draw(st.lists(LIPSCHITZ, min_size=L, max_size=L)),
        "C": draw(st.floats(0.01, 3.0)),
    }


def check_bounds_match_oracles(t) -> None:
    n, w, f, K, C = t["n"], t["w"], t["f"], t["K"], t["C"]
    terms = fep_terms_reference(f, n, w, K, C)
    got = fep_terms(f, n, w, K, C)
    assert got.dtype == terms.dtype and got.tobytes() == terms.tobytes()
    assert forward_error_propagation(f, n, w, K, C) == float(terms.sum())
    rows = [f, t["g"]]
    want = [float(fep_terms_reference(r, n, w, K, C).sum()) for r in rows]
    assert fep_many(np.array(rows), n, w, K, C).tolist() == want

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    close(synapse_fep(t["s"], n, w, K, C), synapse_fep_loops(t["s"], n, w, K, C))
    close(
        heterogeneous_fep(f, n, w, t["ks"], C),
        heterogeneous_fep_loops(f, n, w, t["ks"], C),
    )
    close(
        combined_fep(f, t["s"], n, w, K, C),
        combined_fep_loops(f, t["s"], n, w, K, C),
    )
    close(
        precision_error_bound(t["lam"], n, w, K),
        precision_error_bound_loops(t["lam"], n, w, K),
    )


_SETTINGS = dict(deadline=None, derandomize=True)


@settings(max_examples=300, **_SETTINGS)
@given(t=topologies())
def test_bounds_match_oracles(t):
    check_bounds_match_oracles(t)


@pytest.mark.slow_stats
@settings(max_examples=2000, **_SETTINGS)
@given(t=topologies())
def test_bounds_match_oracles_deep(t):
    check_bounds_match_oracles(t)

