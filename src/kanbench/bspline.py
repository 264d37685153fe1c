"""Uniform B-spline bases on an extended knot grid.

A spec with grid size G and degree k places G equal intervals on
[domain_lo, domain_hi] and extends the knot line k steps past each end,
giving G + 2k + 1 knots and G + k basis functions. At any point only the
k + 1 functions over its grid interval are nonzero. On a uniform grid they
have a closed form in the offset u of the point within its interval, so
evaluation computes those k + 1 local weights (and, for derivatives, the
degree-reduction identity over the degree k - 1 weights) and scatters them
into the dense (points, G + k) result. The general Cox-de Boor recursion
serves as the test oracle.

Inputs are clamped to the domain before evaluation, so every spline is
constant (with zero derivative) beyond its boundaries. This keeps iterative
forecasting well-behaved when predictions drift slightly out of range.
"""

from dataclasses import dataclass

import numpy as np

from .numcore import check_finite, check_int, check_real


@dataclass(frozen=True)
class SplineSpec:
    """Grid size, degree and domain of one family of basis functions."""

    grid_size: int
    degree: int
    domain_lo: float = 0.0
    domain_hi: float = 1.0

    def __post_init__(self):
        # both sizes index knots and basis columns, so only a true int will do
        check_int(self.grid_size, "grid_size")
        check_int(self.degree, "degree")
        check_real(self.domain_lo, "domain_lo")
        check_real(self.domain_hi, "domain_hi")
        if not self.domain_lo < self.domain_hi:
            raise ValueError(
                f"domain must satisfy lo < hi, got [{self.domain_lo}, {self.domain_hi}]"
            )

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.degree

    @property
    def step(self) -> float:
        return (self.domain_hi - self.domain_lo) / self.grid_size

    def knots(self) -> np.ndarray:
        """Uniform knot vector with k-fold extension past each boundary."""
        g, k = self.grid_size, self.degree
        return self.domain_lo + (np.arange(g + 2 * k + 1) - k) * self.step


def _locate(spec: SplineSpec, x):
    """Clamp the points and find each one's grid interval and offset in it.

    Returns the unclamped points, the interval index j in 0..G-1 and the
    offset u = (xc - t[k+j]) / step of the clamped point xc. The search runs
    over the interior knots, so a point on an interior knot belongs to the
    interval that starts there and the right boundary belongs to the last
    interval (its left limit). Rounding floor((xc - lo) / step) instead can
    put a knot in the interval that ends there.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    check_finite("spline input", x)
    xc = np.clip(x, spec.domain_lo, spec.domain_hi)
    t = spec.knots()
    g, k = spec.grid_size, spec.degree
    j = np.searchsorted(t[k + 1 : k + g], xc, side="right")
    return x, j, (xc - t[k + j]) / spec.step


def _local_weights(u: np.ndarray, degree: int) -> list[np.ndarray]:
    """The degree + 1 nonzero basis values at offset u, left to right.

    Entry r is the value of basis function j + r. On a uniform grid the
    Cox-de Boor step reduces to
    w_d[r] = ((u + d - r) * w_{d-1}[r-1] + (r + 1 - u) * w_{d-1}[r]) / d.
    """
    w = [np.ones_like(u)]
    for d in range(1, degree + 1):
        nxt = [(1 - u) * w[0] / d]
        for r in range(1, d):
            nxt.append(((u + (d - r)) * w[r - 1] + ((r + 1) - u) * w[r]) / d)
        nxt.append(u * w[d - 1] / d)
        w = nxt
    return w


def _scatter(spec: SplineSpec, j: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """(N, G + k) matrix holding cols[r] in column j + r of each row."""
    out = np.zeros((j.size, spec.n_basis))
    flat = out.reshape(-1)
    start = np.arange(j.size) * spec.n_basis + j
    for r, col in enumerate(cols):
        flat[start + r] = col
    return out


def basis_matrix(spec: SplineSpec, x) -> np.ndarray:
    """Values of all G + k basis functions at each of len(x) points."""
    _, j, u = _locate(spec, x)
    return _scatter(spec, j, _local_weights(u, spec.degree))


def basis_grad_matrix(spec: SplineSpec, x) -> np.ndarray:
    """First derivative of every basis function at each point.

    On a uniform grid the degree-reduction identity becomes
    B'_{j+r,k} = (w_{k-1}[r-1] - w_{k-1}[r]) / step over the degree k - 1
    local weights. Points strictly outside the domain return zero rows
    (clamped region).
    """
    x, j, u = _locate(spec, x)
    k = spec.degree
    lower = _local_weights(u, k - 1)
    outside = (x < spec.domain_lo) | (x > spec.domain_hi)
    scale = np.where(outside, 0.0, 1.0 / spec.step)
    cols = [-lower[0] * scale]
    cols += [(lower[r - 1] - lower[r]) * scale for r in range(1, k)]
    cols.append(lower[k - 1] * scale)
    return _scatter(spec, j, cols)
