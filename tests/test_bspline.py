"""B-spline basis: oracle checks against a naive recursive evaluator and
the vectorised Cox-de Boor recursion, the earlier uniform-grid kernel as a
bit-exact oracle, partition of unity, local support, boundary clamping, and
derivatives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kanbench import bspline
from kanbench.bspline import SplineSpec, basis_grad_matrix, basis_matrix
from kanbench.numcore import make_rng


def naive_basis(knots, j, k, x):
    """Textbook recursive Cox-de Boor, half-open intervals. Independent oracle."""
    if k == 0:
        return 1.0 if knots[j] <= x < knots[j + 1] else 0.0
    left = 0.0
    if knots[j + k] != knots[j]:
        left = (x - knots[j]) / (knots[j + k] - knots[j]) * naive_basis(knots, j, k - 1, x)
    right = 0.0
    if knots[j + k + 1] != knots[j + 1]:
        right = (
            (knots[j + k + 1] - x)
            / (knots[j + k + 1] - knots[j + 1])
            * naive_basis(knots, j + 1, k - 1, x)
        )
    return left + right


def cox_de_boor(spec, x, degree):
    """All basis functions of the given degree on spec's knots, by the general
    Cox-de Boor recursion over the whole knot line. Vectorised oracle.

    Points are clamped to the domain, and degree zero puts unit mass on the
    containing interval, snapped into the G in-domain intervals so that the
    right boundary evaluates as its left limit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    xc = np.clip(x, spec.domain_lo, spec.domain_hi)
    t = spec.knots()
    n_int = t.size - 1
    idx = np.searchsorted(t, xc, side="right") - 1
    idx = np.clip(idx, spec.degree, spec.degree + spec.grid_size - 1)
    b = np.zeros((xc.size, n_int))
    b[np.arange(xc.size), idx] = 1.0
    for d in range(1, degree + 1):
        cols = n_int - d
        left = (xc[:, None] - t[:cols]) / (t[d : d + cols] - t[:cols])
        right = (t[d + 1 : d + 1 + cols] - xc[:, None]) / (t[d + 1 : d + 1 + cols] - t[1 : 1 + cols])
        b = left * b[:, :cols] + right * b[:, 1 : cols + 1]
    return b


def cox_de_boor_grad(spec, x):
    """Derivatives by degree reduction,
    B'_{j,k} = k * (B_{j,k-1}/(t_{j+k}-t_j) - B_{j+1,k-1}/(t_{j+k+1}-t_{j+1})),
    with zero rows strictly outside the domain."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    t = spec.knots()
    k, nb = spec.degree, spec.n_basis
    lower = cox_de_boor(spec, x, k - 1)
    denom_l = t[k : k + nb] - t[:nb]
    denom_r = t[k + 1 : k + 1 + nb] - t[1 : 1 + nb]
    grad = k * (lower[:, :nb] / denom_l - lower[:, 1 : nb + 1] / denom_r)
    grad[(x < spec.domain_lo) | (x > spec.domain_hi)] = 0.0
    return grad


def kernel_locate(spec, x):
    """The uniform-grid kernel as first written, which rebuilt the knot line
    and clipped on every call: it must agree with the package bit for bit."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    xc = np.clip(x, spec.domain_lo, spec.domain_hi)
    g, k = spec.grid_size, spec.degree
    t = spec.domain_lo + (np.arange(g + 2 * k + 1) - k) * spec.step
    j = np.searchsorted(t[k + 1 : k + g], xc, side="right")
    return x, j, (xc - t[k + j]) / spec.step


def kernel_local_weights(u, degree):
    w = [np.ones_like(u)]
    for d in range(1, degree + 1):
        nxt = [(1 - u) * w[0] / d]
        for r in range(1, d):
            nxt.append(((u + (d - r)) * w[r - 1] + ((r + 1) - u) * w[r]) / d)
        nxt.append(u * w[d - 1] / d)
        w = nxt
    return w


def kernel_scatter(spec, j, cols):
    out = np.zeros((j.size, spec.n_basis))
    flat = out.reshape(-1)
    start = np.arange(j.size) * spec.n_basis + j
    for r, col in enumerate(cols):
        flat[start + r] = col
    return out


def kernel_basis(spec, x):
    _, j, u = kernel_locate(spec, x)
    return kernel_scatter(spec, j, kernel_local_weights(u, spec.degree))


def kernel_basis_grad(spec, x):
    x, j, u = kernel_locate(spec, x)
    k = spec.degree
    lower = kernel_local_weights(u, k - 1)
    outside = (x < spec.domain_lo) | (x > spec.domain_hi)
    scale = np.where(outside, 0.0, 1.0 / spec.step)
    cols = [-lower[0] * scale]
    cols += [(lower[r - 1] - lower[r]) * scale for r in range(1, k)]
    cols.append(lower[k - 1] * scale)
    return kernel_scatter(spec, j, cols)


def oracle_points(spec, rng):
    """Interior points, every knot (the extension knots lie outside), both
    ends, and points outside the domain."""
    lo, hi = spec.domain_lo, spec.domain_hi
    width = hi - lo
    return np.concatenate([
        rng.uniform(lo, hi, size=60),
        spec.knots(),
        [lo, hi, lo - 0.3 * width, hi + 0.3 * width, lo - 5.0, hi + 5.0],
    ])


DOMAINS = [(0.0, 1.0), (-0.7, 1.9), (-3.0, -1.0)]


def block_edge_points(spec, n, block, rng):
    """n points in and around the domain, with every knot, both domain ends
    and points outside the domain (a -0.0 among them) as the first and the
    last points of every block."""
    lo, hi = spec.domain_lo, spec.domain_hi
    width = hi - lo
    x = rng.uniform(lo - 0.2 * width, hi + 0.2 * width, size=n)
    special = np.concatenate([spec.knots(), [lo, hi, lo - 0.3 * width, hi + 0.3 * width, -0.0]])
    m = special.size
    for start in range(0, n, block):
        stop = min(start + block, n)
        x[start : start + m] = special[: stop - start]
        x[max(stop - m, start) : stop] = special[-(stop - max(stop - m, start)) :]
    return x


class TestSplineSpec:
    def test_knot_layout(self):
        spec = SplineSpec(grid_size=4, degree=2)
        t = spec.knots()
        assert t.shape == (4 + 2 * 2 + 1,)
        assert np.allclose(np.diff(t), spec.step)
        assert t[spec.degree] == pytest.approx(0.0)
        assert t[spec.degree + spec.grid_size] == pytest.approx(1.0)

    def test_n_basis(self):
        assert SplineSpec(5, 3).n_basis == 8
        assert SplineSpec(1, 1).n_basis == 2

    def test_custom_domain(self):
        spec = SplineSpec(2, 1, domain_lo=-1.0, domain_hi=3.0)
        t = spec.knots()
        assert t[1] == pytest.approx(-1.0) and t[3] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_size": 0, "degree": 2},
            {"grid_size": 3, "degree": -1},
            {"grid_size": 3, "degree": 2, "domain_lo": 1.0, "domain_hi": 0.0},
            # the kernel indexes with both sizes: only a true int is a size
            {"grid_size": 2.5, "degree": 2},
            {"grid_size": 3.0, "degree": 2},
            {"grid_size": True, "degree": 2},
            {"grid_size": 3, "degree": 2.0},
            {"grid_size": 3, "degree": True},
            {"grid_size": "3", "degree": 2},
            # a domain end must be a number, not a string or a bool
            {"grid_size": 3, "degree": 2, "domain_hi": "1"},
            {"grid_size": 3, "degree": 2, "domain_lo": False},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SplineSpec(**kwargs)

    def test_knot_line_is_built_once_and_read_only(self):
        spec = SplineSpec(4, 2, -1.0, 3.0)
        assert spec.knots() is spec.knots()
        with pytest.raises(ValueError):
            spec.knots()[0] = 5.0

    def test_cached_grid_is_not_part_of_the_identity(self):
        a, b = SplineSpec(4, 2, -1.0, 3.0), SplineSpec(4, 2, -1.0, 3.0)
        assert a == b and hash(a) == hash(b) and a.knots() is not b.knots()
        assert repr(a) == "SplineSpec(grid_size=4, degree=2, domain_lo=-1.0, domain_hi=3.0)"
        assert SplineSpec(4, 2) != SplineSpec(5, 2)
        assert len({a, b, SplineSpec(5, 2)}) == 2
        # replace builds a new spec, so its grid follows the new fields
        wider = dataclasses.replace(a, grid_size=8, domain_hi=7.0)
        assert wider == SplineSpec(8, 2, -1.0, 7.0)
        assert np.array_equal(wider.knots(), -1.0 + (np.arange(13) - 2) * 1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(a, _knots=np.zeros(9))


class TestBasisAgainstNaiveOracle:
    @pytest.mark.parametrize("grid_size,degree", [(1, 1), (3, 2), (5, 3), (8, 4), (10, 5)])
    def test_matches_recursive_reference(self, grid_size, degree):
        spec = SplineSpec(grid_size, degree)
        knots = spec.knots()
        rng = make_rng(grid_size * 100 + degree)
        # strictly interior points (the right endpoint uses a snap convention
        # the half-open naive oracle does not share)
        x = rng.uniform(0.0, 1.0 - 1e-9, size=40)
        ours = basis_matrix(spec, x)
        for row, xi in enumerate(x):
            for j in range(spec.n_basis):
                assert ours[row, j] == pytest.approx(
                    naive_basis(knots, j, degree, xi), abs=1e-12
                )

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            SplineSpec(4, 0)

    def test_degree_one_hat_hand_values(self):
        # G=2, k=1 on [0,1]: knots (-0.5, 0, 0.5, 1, 1.5), three hat functions
        spec = SplineSpec(2, 1)
        b = basis_matrix(spec, [0.25, 0.0])
        assert np.allclose(b[0], [0.5, 0.5, 0.0], atol=1e-15)
        assert np.allclose(b[1], [1.0, 0.0, 0.0], atol=1e-15)


class TestBasisAgainstCoxDeBoor:
    """The uniform-grid kernel against the general recursion on the same knots."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_values_and_gradients_match(self, domain, degree):
        # to rounding against the recursion, and bit for bit against the
        # first uniform-grid kernel
        rng = make_rng(31 * degree)
        for grid_size in range(1, 11):
            spec = SplineSpec(grid_size, degree, *domain)
            x = oracle_points(spec, rng)
            values, grads = basis_matrix(spec, x), basis_grad_matrix(spec, x)
            np.testing.assert_allclose(values, cox_de_boor(spec, x, degree), rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                grads, cox_de_boor_grad(spec, x), rtol=0, atol=1e-13 / spec.step)
            assert np.array_equal(values, kernel_basis(spec, x))
            assert np.array_equal(grads, kernel_basis_grad(spec, x))

    def test_interior_knot_takes_the_interval_it_starts(self):
        # The knot lo + 7 * step, about 1.575, is 1.5749999999999995 in floats.
        # Locating it by floor((x - lo) / step) rounds into the interval that
        # ends there, where the k=1 derivative differs by 2 / step.
        spec = SplineSpec(8, 1, -0.7, 1.9)
        x = spec.knots()[spec.degree + 7 : spec.degree + 8]
        assert x[0] == pytest.approx(1.575, abs=1e-12)
        np.testing.assert_allclose(
            basis_grad_matrix(spec, x), cox_de_boor_grad(spec, x), rtol=0, atol=1e-13 / spec.step
        )
        np.testing.assert_allclose(basis_matrix(spec, x), cox_de_boor(spec, x, 1), rtol=0, atol=1e-13)

    def test_empty_input(self):
        spec = SplineSpec(4, 3)
        assert basis_matrix(spec, []).shape == (0, spec.n_basis)
        assert basis_grad_matrix(spec, np.empty(0)).shape == (0, spec.n_basis)

    def test_non_finite_input_rejected(self, monkeypatch):
        # the one finiteness rule, before the clamp could hide a NaN or an inf
        seen = []
        scan = bspline.check_finite
        monkeypatch.setattr(bspline, "check_finite",
                            lambda what, *arrays: seen.append(what) or scan(what, *arrays))
        spec = SplineSpec(4, 3)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^spline input must be finite$"):
                basis_matrix(spec, [0.5, bad])
            with pytest.raises(ValueError, match="^spline input must be finite$"):
                basis_grad_matrix(spec, [bad])
        assert seen == ["spline input"] * 6


class TestBasisProperties:
    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_partition_of_unity(self, grid_size, degree, x):
        total = basis_matrix(SplineSpec(grid_size, degree), [x]).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_and_local_support(self):
        spec = SplineSpec(6, 3)
        knots = spec.knots()
        x = np.linspace(0, 1, 101)
        b = basis_matrix(spec, x)
        assert np.all(b >= -1e-15)
        for j in range(spec.n_basis):
            lo, hi = knots[j], knots[j + spec.degree + 1]
            outside = (x < lo - 1e-12) | (x > hi + 1e-12)
            assert np.all(np.abs(b[outside, j]) < 1e-12)

    def test_out_of_domain_clamps_to_boundary(self):
        spec = SplineSpec(4, 3)
        lo_val, hi_val, below, above = basis_matrix(spec, [0.0, 1.0, -7.5, 9.0])
        assert np.allclose(below, lo_val, atol=1e-15)
        assert np.allclose(above, hi_val, atol=1e-15)
        assert hi_val.sum() == pytest.approx(1.0, abs=1e-12)

    def test_right_endpoint_continuous_from_left(self):
        spec = SplineSpec(5, 2)
        eps = 1e-10
        at_end, before = basis_matrix(spec, [1.0, 1.0 - eps])
        assert np.allclose(at_end, before, atol=1e-8)


class TestBasisGradient:
    @pytest.mark.parametrize("grid_size,degree", [(3, 1), (5, 2), (5, 3), (8, 4)])
    def test_matches_central_difference(self, grid_size, degree):
        spec = SplineSpec(grid_size, degree)
        rng = make_rng(7)
        h = 1e-6
        # keep x away from knots so the FD stencil stays on one polynomial piece
        x = rng.uniform(0.02, 0.98, size=30)
        knots = spec.knots()
        x = x[np.min(np.abs(x[:, None] - knots[None, :]), axis=1) > 5 * h]
        num = (basis_matrix(spec, x + h) - basis_matrix(spec, x - h)) / (2 * h)
        assert np.allclose(basis_grad_matrix(spec, x), num, atol=1e-5)

    def test_zero_outside_domain(self):
        spec = SplineSpec(4, 3)
        g = basis_grad_matrix(spec, np.array([-1.0, 2.0]))
        assert np.all(g == 0.0)

    def test_grad_rows_sum_to_zero(self):
        # derivative of the constant partition-of-unity sum
        spec = SplineSpec(7, 3)
        g = basis_grad_matrix(spec, np.linspace(0.05, 0.95, 19))
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_basis_grad_single_point(self):
        # rows are independent: one point alone equals its row among many
        spec = SplineSpec(3, 2)
        x = np.array([0.1, 0.37, 0.8])
        assert np.array_equal(basis_grad_matrix(spec, x[1:2])[0], basis_grad_matrix(spec, x)[1])


class TestSplineFunction:
    """A spline is its coefficients contracted with the basis, as on a KAN edge."""

    def test_eval_many_matches_scalar(self):
        spec = SplineSpec(4, 2)
        coef = np.arange(spec.n_basis, dtype=float)
        x = np.linspace(-0.2, 1.2, 15)
        many = basis_matrix(spec, x) @ coef
        singles = [basis_matrix(spec, [xi])[0] @ coef for xi in x]
        assert np.allclose(many, singles, rtol=0, atol=1e-12)

    def test_grad_matches_finite_difference(self):
        spec = SplineSpec(6, 3)
        coef = make_rng(11).normal(size=spec.n_basis)
        h = 1e-6
        x = np.array([0.13, 0.42, 0.77])
        num = (basis_matrix(spec, x + h) @ coef - basis_matrix(spec, x - h) @ coef) / (2 * h)
        assert np.allclose(basis_grad_matrix(spec, x) @ coef, num, rtol=0, atol=1e-6)

    def test_constant_spline_reproduces_constant(self):
        # partition of unity makes equal coefficients an exact constant
        spec = SplineSpec(8, 3)
        x = np.linspace(0, 1, 33)
        assert np.allclose(basis_matrix(spec, x) @ np.full(spec.n_basis, 2.5), 2.5, atol=1e-12)


class TestBlocks:
    """Points are evaluated in blocks of ``bspline.BLOCK``, each written
    straight into its rows of the result: the bits must not depend on where
    the block edges fall."""

    @pytest.mark.parametrize("grid_size,degree", [(1, 1), (3, 2), (5, 3), (10, 3)])
    @pytest.mark.parametrize("kernel", [basis_matrix, basis_grad_matrix])
    def test_blocks_equal_one_block(self, monkeypatch, kernel, grid_size, degree):
        spec = SplineSpec(grid_size, degree, -0.7, 1.9)
        block = bspline.BLOCK
        rng = make_rng(grid_size * 10 + degree)
        for n in (block - 1, block, block + 1, 2 * block + 3):
            x = block_edge_points(spec, n, block, rng)
            blocked = kernel(spec, x)
            with monkeypatch.context() as m:
                m.setattr(bspline, "BLOCK", n)
                whole = kernel(spec, x)
            assert blocked.shape == (n, spec.n_basis)
            assert np.array_equal(blocked, whole)
            assert np.array_equal(np.signbit(blocked), np.signbit(whole))

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, block):
        spec = SplineSpec(5, 3, -0.7, 1.9)
        x = oracle_points(spec, make_rng(block))
        want = basis_matrix(spec, x), basis_grad_matrix(spec, x)
        monkeypatch.setattr(bspline, "BLOCK", block)
        for got, ref in zip((basis_matrix(spec, x), basis_grad_matrix(spec, x)), want):
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("kernel", [basis_matrix, basis_grad_matrix])
    def test_nan_in_the_last_block_raises_before_any_block_is_scattered(
            self, monkeypatch, kernel):
        scattered = []
        monkeypatch.setattr(bspline, "_scatter", lambda *args: scattered.append(args))
        x = np.linspace(0.0, 1.0, 2 * bspline.BLOCK + 3)
        x[-1] = np.nan
        with pytest.raises(ValueError, match="^spline input must be finite$"):
            kernel(SplineSpec(3, 2), x)
        assert scattered == []
