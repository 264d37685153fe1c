"""Numeric primitives: RNG construction, activations and the real-number rule."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kanbench.numcore import check_real, checkpoint_numbers, make_rng, sigmoid, silu, silu_grad

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

    def test_product_in_the_sigmoid_buffer_keeps_the_bits(self):
        x = make_rng(9).normal(scale=6.0, size=(5, 7))
        x[0, :3] = [0.0, -0.0, -1e-300]
        before = x.copy()
        got = silu(x)
        assert np.array_equal(got, x * sigmoid(x))
        assert np.array_equal(np.signbit(got), np.signbit(x * sigmoid(x)))
        assert np.array_equal(x, before)

    @given(st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=10))
    def test_grad_matches_finite_difference(self, xs):
        x = np.array(xs)
        h = 1e-6
        num = (silu(x + h) - silu(x - h)) / (2 * h)
        assert np.allclose(silu_grad(x, sigmoid(x)), num, atol=1e-7)



class TestCheckReal:
    def test_in_range_values_returned_as_given(self):
        assert check_real(0.5, "x", above=0, below=1) == 0.5
        one = check_real(1, "x", at_least=0)
        assert one == 1 and type(one) is int
        assert check_real(0.0, "x", at_least=0, below=1) == 0.0
        assert check_real(-3.5, "x") == -3.5
        assert check_real(np.float64(0.25), "x", above=0) == 0.25

    @pytest.mark.parametrize("value,bounds", [
        (True, {}),  # a bool is not a number here
        ("0.5", {}),  # nor is a numeric string
        (None, {}),
        ([0.5], {}),
        (float("nan"), {}),
        (float("inf"), {}),
        (-float("inf"), {"below": 1}),
        (0.0, {"above": 0}),
        (-1e-300, {"at_least": 0}),
        (1.0, {"at_least": 0, "below": 1}),
        (1.5, {"above": 0, "below": 1}),
    ])
    def test_rejected_with_the_field_named(self, value, bounds):
        with pytest.raises(ValueError, match=r"^beta1 must be a finite number"):
            check_real(value, "beta1", **bounds)

    def test_message_states_the_range(self):
        with pytest.raises(ValueError, match=r">= 0 and < 1, got 1\.5"):
            check_real(1.5, "beta2", at_least=0, below=1)


class TestCheckpointNumbers:
    def test_nested_ints_and_floats_become_float64(self):
        arr = checkpoint_numbers([[1, 0.5], [-2, 3e-5]], "bad")
        assert arr.dtype == np.float64 and arr.shape == (2, 2)
        assert np.array_equal(arr, [[1.0, 0.5], [-2.0, 3e-5]])
        assert checkpoint_numbers([], "bad").shape == (0,)

    @pytest.mark.parametrize("value", [
        ["0.12"],  # np.array reads a numeric string as a number
        [[0.5, "1"]],
        [True, 0.5],  # and a bool as 1.0
        [[False]],
        [None],
        [{"x": 1}],
        "0.12",
        0.5,  # a scalar is not a list
        [[0.1, 0.2], [0.3]],  # ragged rows
        [0.1, [0.2]],
        [10**400],  # an int beyond float64
    ])
    def test_anything_else_raises_the_message(self, value):
        with pytest.raises(ValueError, match=r"^field 'x' must be numbers$"):
            checkpoint_numbers(value, "field 'x' must be numbers")
