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

A spec builds its knot line once, when it is made, so a call on a handful
of points (one pseudo-row of a batch-1 rollout) costs little more than the
arithmetic on them.

A call scans all its points for finiteness once, allocates the dense
result, and then evaluates the points in blocks of ``BLOCK``, scattering
each block's weights straight into its rows of the result. Beyond the
result, a call holds only one block's clamped points, interval indices and
k + 1 weight columns, so its peak memory is the result plus a constant
(under 1 MB at k <= 5), not k + 3 arrays as long as the input. A KAN
encodes every training window at once (``kan.KanNetwork.encode``), so
without blocks those temporaries, not the features, set a fit's peak.
Every point meets the same operations on the same operands whatever block
it falls in, so the result's bits do not depend on the block size.

Inputs are clamped to the domain before evaluation, so every spline is
constant (with zero derivative) beyond its boundaries. This keeps iterative
forecasting well-behaved when predictions drift slightly out of range.
"""

from dataclasses import dataclass, field

import numpy as np

from .numcore import check_finite, check_int, check_real

# Points evaluated per block. Encoding 984 training windows of 20 rows by 6
# features (118,080 points, G=3, k=2, 5.67 MB of features) on one core of a
# shared 2-vCPU x86-64 host took 4.4-4.7 ms at 4096 points, against 8.8 ms
# in one block, since a block's temporaries stay in cache; 2048 took 4.9 ms,
# 8192 4.0-4.1 ms. Its traced peak was 5.67 MB at any block size up to
# 16384, against 10.39 MB in one block. 4096 keeps a block's temporaries
# near 0.25 MB at k = 2, half of what 8192 holds, for most of the speed.
BLOCK = 4096


@dataclass(frozen=True)
class SplineSpec:
    """Grid size, degree and domain of one family of basis functions."""

    grid_size: int
    degree: int
    domain_lo: float = 0.0
    domain_hi: float = 1.0
    # the knot line, built once; not part of the spec's identity
    _knots: np.ndarray = field(init=False, repr=False, compare=False)

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
        g, k = self.grid_size, self.degree
        knots = self.domain_lo + (np.arange(g + 2 * k + 1) - k) * self.step
        knots.flags.writeable = False
        object.__setattr__(self, "_knots", knots)

    @property
    def n_basis(self) -> int:
        return self.grid_size + self.degree

    @property
    def step(self) -> float:
        return (self.domain_hi - self.domain_lo) / self.grid_size

    def knots(self) -> np.ndarray:
        """Uniform knot vector with k-fold extension past each boundary
        (read-only)."""
        return self._knots


def _points(x) -> np.ndarray:
    """The points as a flat float64 array, all finite.

    The one scan runs before anything is allocated or clamped, so a NaN or
    an inf anywhere raises before any block is evaluated."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    check_finite("spline input", x)
    return x


def _locate(spec: SplineSpec, x: np.ndarray):
    """Clamp a block of finite points and find each one's grid interval and
    offset in it.

    Returns the interval index j in 0..G-1 and the offset
    u = (xc - t[k+j]) / step of the clamped point xc. The search runs over
    the interior knots, so a point on an interior knot belongs to the
    interval that starts there and the right boundary belongs to the last
    interval (its left limit). Rounding floor((xc - lo) / step) instead can
    put a knot in the interval that ends there.
    """
    # on finite input this is np.clip, without its per-call overhead
    xc = np.maximum(x, spec.domain_lo)
    np.minimum(xc, spec.domain_hi, out=xc)
    g, k = spec.grid_size, spec.degree
    left = spec.knots()[k : k + g]  # each interval's left knot
    j = np.searchsorted(left[1:], xc, side="right")
    xc -= left[j]
    xc /= spec.step
    return j, xc


def _local_weights(u: np.ndarray, degree: int) -> list[np.ndarray]:
    """The degree + 1 nonzero basis values at offset u, left to right.

    Entry r is the value of basis function j + r. On a uniform grid the
    Cox-de Boor step reduces to
    w_d[r] = ((u + d - r) * w_{d-1}[r-1] + (r + 1 - u) * w_{d-1}[r]) / d,
    which at d = 1 is [1 - u, u] exactly.
    """
    if degree == 0:
        return [np.ones_like(u)]
    v = 1 - u
    w = [v, u]
    for d in range(2, degree + 1):
        nxt = [v * w[0] / d]
        for r in range(1, d):
            nxt.append(((u + (d - r)) * w[r - 1] + ((r + 1) - u) * w[r]) / d)
        nxt.append(u * w[d - 1] / d)
        w = nxt
    return w


def _scatter(out: np.ndarray, j: np.ndarray, cols: list[np.ndarray]) -> None:
    """Write cols[r] into column j + r of each row of the zeroed block ``out``."""
    n_basis = out.shape[1]
    flat = out.reshape(-1)  # a view: the block's rows are contiguous
    at = np.arange(0, flat.size, n_basis)
    at += j
    for col in cols:
        flat[at] = col
        at += 1


def basis_matrix(spec: SplineSpec, x) -> np.ndarray:
    """Values of all G + k basis functions at each of len(x) points."""
    x = _points(x)
    out = np.zeros((x.size, spec.n_basis))
    for at in range(0, x.size, BLOCK):
        j, u = _locate(spec, x[at : at + BLOCK])
        _scatter(out[at : at + BLOCK], j, _local_weights(u, spec.degree))
    return out


def basis_grad_matrix(spec: SplineSpec, x) -> np.ndarray:
    """First derivative of every basis function at each point.

    On a uniform grid the degree-reduction identity becomes
    B'_{j+r,k} = (w_{k-1}[r-1] - w_{k-1}[r]) / step over the degree k - 1
    local weights. Points strictly outside the domain return zero rows
    (clamped region).
    """
    k = spec.degree
    x = _points(x)
    out = np.zeros((x.size, spec.n_basis))
    for at in range(0, x.size, BLOCK):
        xb = x[at : at + BLOCK]
        j, u = _locate(spec, xb)
        lower = _local_weights(u, k - 1)
        outside = (xb < spec.domain_lo) | (xb > spec.domain_hi)
        scale = np.where(outside, 0.0, 1.0 / spec.step)
        cols = [-lower[0] * scale]
        cols += [(lower[r - 1] - lower[r]) * scale for r in range(1, k)]
        cols.append(lower[k - 1] * scale)
        _scatter(out[at : at + BLOCK], j, cols)
    return out
