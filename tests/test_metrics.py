"""Error metrics: hand values, algebraic identities, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kanbench.metrics import mse, rmse

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestMseRmse:
    def test_identical_is_zero(self):
        x = np.array([1.0, -2.0, 3.5])
        assert mse(x, x) == 0.0
        assert rmse(x, x) == 0.0

    def test_hand_value(self):
        # errors 1 and 2: mse = (1 + 4)/2 = 2.5, rmse = sqrt(5/2)
        pred = np.array([1.0, 2.0])
        actual = np.array([0.0, 0.0])
        assert mse(pred, actual) == pytest.approx(2.5, rel=1e-15)
        assert rmse(pred, actual) == pytest.approx(1.5811388300841898, rel=1e-15)

    def test_single_element(self):
        assert rmse([3.0], [1.0]) == pytest.approx(2.0, rel=1e-15)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(finite_floats, finite_floats), min_size=1, max_size=30
        )
    )
    def test_rmse_squared_equals_mse(self, pairs):
        pred = np.array([p for p, _ in pairs])
        actual = np.array([a for _, a in pairs])
        m = mse(pred, actual)
        r = rmse(pred, actual)
        assert r * r == pytest.approx(m, rel=1e-12, abs=1e-300)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, pairs, rand):
        pred = np.array([p for p, _ in pairs])
        actual = np.array([a for _, a in pairs])
        order = list(range(len(pairs)))
        rand.shuffle(order)
        assert mse(pred[order], actual[order]) == pytest.approx(
            mse(pred, actual), rel=1e-12, abs=1e-300
        )

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=20),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_shift_invariance(self, pairs, shift):
        pred = np.array([p for p, _ in pairs])
        actual = np.array([a for _, a in pairs])
        assert mse(pred + shift, actual + shift) == pytest.approx(
            mse(pred, actual), rel=1e-7, abs=1e-9
        )

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e3, max_value=1e3),
                st.floats(min_value=-1e3, max_value=1e3),
            ),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
    )
    def test_rmse_scale_equivariance(self, pairs, scale):
        pred = np.array([p for p, _ in pairs])
        actual = np.array([a for _, a in pairs])
        # Forming s*p - s*a rounds each product, so when p ~ a the scaled
        # differences carry an absolute error of a few eps * s * |p|.
        magnitude = max(np.abs(pred).max(), np.abs(actual).max())
        assert rmse(pred * scale, actual * scale) == pytest.approx(
            scale * rmse(pred, actual),
            rel=1e-10,
            abs=4 * np.finfo(np.float64).eps * scale * magnitude,
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mse([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            mse([1.0, 2.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mse([np.nan], [0.0])
        with pytest.raises(ValueError, match="finite"):
            rmse([0.0], [np.inf])

