"""Uniform B-spline bases on an extended knot grid.

A spec with grid size G and degree k places G equal intervals on
[domain_lo, domain_hi] and extends the knot line k steps past each end,
giving G + 2k + 1 knots and G + k basis functions. Evaluation runs the
Cox-de Boor recursion iteratively over the whole basis at once; derivatives
come from the standard degree-reduction identity.

Inputs are clamped to the domain before evaluation, so every spline is
constant (with zero derivative) beyond its boundaries. This keeps iterative
forecasting well-behaved when predictions drift slightly out of range.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SplineSpec:
    """Grid size, degree and domain of one family of basis functions."""

    grid_size: int
    degree: int
    domain_lo: float = 0.0
    domain_hi: float = 1.0

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        ok = np.isfinite(self.domain_lo) and np.isfinite(self.domain_hi)
        if not ok or not self.domain_lo < self.domain_hi:
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


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("spline input must be finite")


def _degree_zero(spec: SplineSpec, xc: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Unit mass on the containing interval, snapped into the G in-domain
    # intervals so the right boundary evaluates as its left limit.
    idx = np.searchsorted(t, xc, side="right") - 1
    idx = np.clip(idx, spec.degree, spec.degree + spec.grid_size - 1)
    b = np.zeros((xc.size, t.size - 1))
    b[np.arange(xc.size), idx] = 1.0
    return b


def _raise_degree(b: np.ndarray, t: np.ndarray, xc: np.ndarray, upto: int) -> np.ndarray:
    n_int = t.size - 1
    for d in range(1, upto + 1):
        cols = n_int - d
        left = (xc[:, None] - t[:cols]) / (t[d : d + cols] - t[:cols])
        right = (t[d + 1 : d + 1 + cols] - xc[:, None]) / (t[d + 1 : d + 1 + cols] - t[1 : 1 + cols])
        b = left * b[:, :cols] + right * b[:, 1 : cols + 1]
    return b


def basis_matrix(spec: SplineSpec, x) -> np.ndarray:
    """Values of all G + k basis functions at each of len(x) points."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_finite(x)
    xc = np.clip(x, spec.domain_lo, spec.domain_hi)
    t = spec.knots()
    return _raise_degree(_degree_zero(spec, xc, t), t, xc, spec.degree)


def basis_grad_matrix(spec: SplineSpec, x) -> np.ndarray:
    """First derivative of every basis function at each point.

    Uses the degree-reduction identity
    B'_{j,k} = k * (B_{j,k-1}/(t_{j+k}-t_j) - B_{j+1,k-1}/(t_{j+k+1}-t_{j+1})).
    Points strictly outside the domain return zero rows (clamped region).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _check_finite(x)
    xc = np.clip(x, spec.domain_lo, spec.domain_hi)
    t = spec.knots()
    k = spec.degree
    lower = _raise_degree(_degree_zero(spec, xc, t), t, xc, k - 1)
    nb = spec.n_basis
    denom_l = t[k : k + nb] - t[:nb]
    denom_r = t[k + 1 : k + 1 + nb] - t[1 : 1 + nb]
    grad = k * (lower[:, :nb] / denom_l - lower[:, 1 : nb + 1] / denom_r)
    grad[(x < spec.domain_lo) | (x > spec.domain_hi)] = 0.0
    return grad
