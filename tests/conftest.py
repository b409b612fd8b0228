"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import build_mlp


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_net():
    """A 2-layer dense net with bounded uniform weights (w_m <= 0.5)."""
    return build_mlp(
        3,
        [8, 6],
        activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.5},
        output_scale=0.5,
        seed=0,
    )


@pytest.fixture
def deep_net():
    """A 3-layer net for depth-dependent checks."""
    return build_mlp(
        2,
        [6, 5, 4],
        activation={"name": "sigmoid", "k": 0.5},
        init={"name": "uniform", "scale": 0.4},
        output_scale=0.4,
        seed=1,
    )


@pytest.fixture
def wide_net():
    """A 3-layer net whose first layer (48) is wider than
    ``RANK_K_RATIO``: scenarios with at most two faulty first-layer
    cells take the rank-k route, the rest the dense GEMM.  Its biases
    are nonzero, so both routes' bias handling is observable."""
    net = build_mlp(
        4,
        [48, 32, 16],
        activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.3},
        output_scale=0.3,
        seed=3,
    )
    rng = np.random.default_rng(3)
    for layer in net.layers:
        layer.bias = rng.uniform(-0.3, 0.3, layer.n_out)
    return net


@pytest.fixture
def single_layer_net():
    """A 1-layer net for Theorem-1 level tests."""
    return build_mlp(
        2,
        [10],
        activation={"name": "sigmoid", "k": 1.0},
        init={"name": "uniform", "scale": 0.6},
        output_scale=0.4,
        seed=2,
    )


@pytest.fixture
def batch(rng, small_net):
    return rng.random((32, small_net.input_dim))
