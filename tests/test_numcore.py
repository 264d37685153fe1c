"""Numeric primitives: RNG construction and activations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kanbench.numcore import make_rng, sigmoid, silu, silu_grad

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(16)
        b = make_rng(123).standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(16)
        b = make_rng(2).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_is_pcg64_generator(self):
        rng = make_rng(0)
        assert isinstance(rng, np.random.Generator)
        assert type(rng.bit_generator).__name__ == "PCG64"


class TestSigmoid:
    def test_known_values(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-15)
        assert sigmoid(np.array([np.log(3.0)]))[0] == pytest.approx(0.75, rel=1e-12)

    def test_extreme_inputs_do_not_overflow(self):
        out = sigmoid(np.array([-1000.0, -50.0, 50.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_matches_exp_reference(self):
        x = np.linspace(-800.0, 800.0, 1_600_001)
        ex = np.exp(-np.abs(x))
        ref = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        assert np.max(np.abs(sigmoid(x) - ref)) <= 3e-16

    def test_monotone(self):
        # non-decreasing on a 0.001 grid; between float neighbours, numpy's
        # tanh can step back by one ulp (tanh(-8) > tanh(next float above -8))
        assert np.all(np.diff(sigmoid(np.linspace(-800.0, 800.0, 1_600_001))) >= 0.0)
        x = np.nextafter(-16.0, 0.0)
        assert sigmoid(np.array([x]))[0] >= sigmoid(np.array([-16.0]))[0] - np.spacing(0.5)

    def test_saturates_exactly(self):
        assert np.array_equal(sigmoid(np.array([-1000.0, 1000.0])), [0.0, 1.0])

    def test_out_is_written_in_place_bit_for_bit(self):
        # the LSTM activates a strided view of its gate block in place
        z = make_rng(5).normal(scale=4.0, size=(4, 6, 3))
        want = sigmoid(z[:3, 1:4].copy())
        view = z[:3, 1:4]
        assert sigmoid(view, out=view) is view
        assert np.array_equal(z[:3, 1:4], want)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    def test_symmetry(self, xs):
        x = np.array(xs)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


class TestSilu:
    def test_matches_definition(self):
        x = np.linspace(-5, 5, 41)
        assert np.allclose(silu(x), x * sigmoid(x), atol=1e-15)

    @given(st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=10))
    def test_grad_matches_finite_difference(self, xs):
        x = np.array(xs)
        h = 1e-6
        num = (silu(x + h) - silu(x - h)) / (2 * h)
        assert np.allclose(silu_grad(x, sigmoid(x)), num, atol=1e-7)

