"""Networks of learnable univariate edge functions.

Every edge applies ``base_weight * silu(x) + spline(x)`` to its input and a
node output is the plain sum over its incoming edges, so a layer carries an
(out_dim, in_dim, n_basis) coefficient tensor plus an (out_dim, in_dim)
residual weight matrix. The silu residual keeps gradients alive where the
splines are flat or clamped. All gradients are exact analytic derivatives.

Every edge acts on one input scalar, so the first layer reads its input only
through two per-scalar features: silu(x) and the B-spline basis row of x.
``KanNetwork.encode`` computes them for a (B, L, F) batch of windows, row by
row, as a (B, L, F) silu array and a (B, L, F·n_basis) basis array. They
depend on the data and on the first layer's ``SplineSpec`` alone, never on
the trained parameters, so training encodes its windows once and a rollout
encodes only each new pseudo-row (see ``forecast``). A change to that spec,
such as a domain fitted to the data, invalidates every encoding made
before it. ``kan_forward_batch`` and ``kan_backward`` take the two encoded
arrays; ``predict_window_batch`` and ``batch_loss_and_grad`` also take raw
windows or (B, L·F) rows and encode them first.

``encode`` rejects non-finite input, so it returns its pair as an
``Encoded`` tuple, a trusted encoding: that pair, and any row selection or
slice of it rebuilt as ``type(features)(...)`` (an Adam minibatch, a rollout
tape view), is finite by construction and is not scanned again. Its shapes
are still checked. A plain tuple built by hand is scanned for finiteness
before any computation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bspline import SplineSpec, basis_grad_matrix, basis_matrix
from .numcore import (
    Encoded,
    Rng,
    check_finite,
    check_int,
    checkpoint_array,
    checkpoint_field,
    sigmoid,
    silu,
    silu_grad,
)


@dataclass
class KanLayer:
    in_dim: int
    out_dim: int
    spec: SplineSpec
    coef: np.ndarray  # (out_dim, in_dim, n_basis)
    base: np.ndarray  # (out_dim, in_dim)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=np.float64)
        self.base = np.asarray(self.base, dtype=np.float64)
        want = (self.out_dim, self.in_dim, self.spec.n_basis)
        if self.coef.shape != want:
            raise ValueError(f"coef shape {self.coef.shape} != {want}")
        if self.base.shape != (self.out_dim, self.in_dim):
            raise ValueError(f"base shape {self.base.shape} != {(self.out_dim, self.in_dim)}")
        if not (np.all(np.isfinite(self.coef)) and np.all(np.isfinite(self.base))):
            raise ValueError("layer parameters must be finite")


@dataclass
class KanNetwork:
    layers: list[KanLayer] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        if self.layers[-1].out_dim != 1:
            raise ValueError("final layer must have a single output")

    @property
    def dims(self) -> list[int]:
        return [self.layers[0].in_dim] + [l.out_dim for l in self.layers]

    @property
    def n_params(self) -> int:
        return sum(l.coef.size + l.base.size for l in self.layers)

    def pack(self) -> np.ndarray:
        """All trainables as one flat array (per layer: coef then base)."""
        return np.concatenate([a.ravel() for l in self.layers for a in (l.coef, l.base)])

    def unpack(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {flat.shape}")
        pos = 0
        for l in self.layers:
            for a in (l.coef, l.base):
                a[...] = flat[pos : pos + a.size].reshape(a.shape)
                pos += a.size

    def encode(self, windows):
        """First-layer features of (B, L, F) windows: silu(x) as (B, L, F)
        and the basis as (B, L, F·n_basis).

        Each scalar is encoded on its own, so any (B, ..., F) array works,
        a single (B, 1, F) row included; the input width is checked where
        the features are read.
        """
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim < 2:
            raise ValueError(f"inputs must be at least 2-D (batch, ...), got shape {x.shape}")
        spec = self.layers[0].spec
        phi = basis_matrix(spec, x.reshape(-1))  # rejects non-finite input first
        return Encoded((silu(x), phi.reshape(x.shape[:-1] + (x.shape[-1] * spec.n_basis,))))

    def batch_loss_and_grad(self, inputs, targets):
        features = _features(self, inputs)
        return kan_backward(self, *features, targets, trusted=isinstance(features, Encoded))

    def predict_window_batch(self, windows) -> np.ndarray:
        features = _features(self, windows)
        return kan_forward_batch(self, *features, trusted=isinstance(features, Encoded))


def _features(net: KanNetwork, inputs):
    """Encoded input as given (a tuple, trusted if ``Encoded``), or raw
    (B, L, F) windows or (B, L·F) rows checked for width and encoded."""
    if isinstance(inputs, tuple):
        if len(inputs) != 2:
            raise ValueError(f"encoded inputs must be a (silu, basis) pair, "
                             f"got {len(inputs)} arrays")
        return inputs
    x = np.asarray(inputs, dtype=np.float64)
    in_dim = net.layers[0].in_dim
    if x.ndim not in (2, 3) or math.prod(x.shape[1:]) != in_dim:
        raise ValueError(
            f"inputs must be (batch, {in_dim}) rows or (batch, L, F) windows "
            f"with L·F = {in_dim}, got shape {x.shape}"
        )
    return net.encode(x)


def kan_init(dims: list[int], spec: SplineSpec, rng: Rng) -> KanNetwork:
    """Fresh network: spline coefficients ~ N(0, 0.1), base ~ N(0, 1/sqrt(in))."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"dims must be >= 2 positive entries, got {dims}")
    layers = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        coef = rng.normal(0.0, 0.1, size=(n_out, n_in, spec.n_basis))
        base = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
        layers.append(KanLayer(n_in, n_out, spec, coef, base))
    return KanNetwork(layers)


def _check_features(net: KanNetwork, silu_x, basis, trusted: bool):
    """The encoded pair as (B, in_dim) and (B, in_dim·n_basis) views.

    A shape that does not match the first layer, or a non-finite value in
    an untrusted pair, raises ValueError before any computation.
    """
    layer = net.layers[0]
    silu_x = np.asarray(silu_x, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    n_basis = layer.spec.n_basis
    if silu_x.ndim < 2 or math.prod(silu_x.shape[1:]) != layer.in_dim:
        raise ValueError(
            f"silu features must hold {layer.in_dim} values per row, got shape {silu_x.shape}"
        )
    want = silu_x.shape[:-1] + (silu_x.shape[-1] * n_basis,)
    if basis.shape != want:
        raise ValueError(f"basis features must have shape {want}, got {basis.shape}")
    if not trusted:
        check_finite("encoded inputs", silu_x, basis)
    rows = silu_x.shape[0]
    return silu_x.reshape(rows, layer.in_dim), basis.reshape(rows, layer.in_dim * n_basis)


def _contract(layer: KanLayer, silu_x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Layer outputs (B, out_dim) from silu of its input (B, in_dim) and the
    basis rows (B, in_dim·n_basis).

    The spline term contracts (i, p) jointly as one matmul against the
    coefficients flattened to (out_dim, in_dim·n_basis) in (o, i, p) order.
    """
    return silu_x @ layer.base.T + phi @ layer.coef.reshape(layer.out_dim, -1).T


def _forward(net: KanNetwork, silu_x: np.ndarray, basis: np.ndarray):
    """Network output (B, out_dim) and what each layer read from its input
    x: (x, silu(x), basis rows, sigmoid(x)). Layer 0 reads only the encoded
    pair, so its x and sigmoid are None."""
    reads = [(None, silu_x, basis, None)]
    out = _contract(net.layers[0], silu_x, basis)
    for layer in net.layers[1:]:
        s = sigmoid(out)  # serves both silu(x) = x·s and its derivative
        phi = basis_matrix(layer.spec, out.reshape(-1)).reshape(out.shape[0], -1)
        silu_out = out * s
        reads.append((out, silu_out, phi, s))
        out = _contract(layer, silu_out, phi)
    return out, reads


def kan_forward_batch(net: KanNetwork, silu_x, basis, *, trusted: bool = False) -> np.ndarray:
    """Prediction per row of an encoded batch (see ``KanNetwork.encode``);
    ``trusted`` arrays come from ``encode`` and skip the finiteness scan."""
    out, _ = _forward(net, *_check_features(net, silu_x, basis, trusted))
    return out[:, 0]


def kan_backward(net: KanNetwork, silu_x, basis, targets, *, trusted: bool = False):
    """MSE loss over an encoded batch plus exact gradients, packed flat like
    pack(); ``trusted`` as for ``kan_forward_batch``."""
    silu_x, basis = _check_features(net, silu_x, basis, trusted)
    y = np.asarray(targets, dtype=np.float64)
    if silu_x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if y.shape != (silu_x.shape[0],):
        raise ValueError(f"targets must have shape ({silu_x.shape[0]},), got {y.shape}")

    out, reads = _forward(net, silu_x, basis)
    resid = out[:, 0] - y
    loss = float(np.mean(resid**2))
    delta = (2.0 / y.shape[0]) * resid[:, None]

    n = len(net.layers)
    coef_grads: list[np.ndarray] = [np.empty(0)] * n
    base_grads: list[np.ndarray] = [np.empty(0)] * n
    for li in reversed(range(n)):
        layer = net.layers[li]
        xin, silu_in, phi, s = reads[li]
        coef_grads[li] = (delta.T @ phi).reshape(layer.coef.shape)
        base_grads[li] = delta.T @ silu_in
        if li > 0:
            shape = (xin.shape[0], layer.in_dim, layer.spec.n_basis)
            dphi = basis_grad_matrix(layer.spec, xin.reshape(-1)).reshape(shape)
            w = (delta @ layer.coef.reshape(layer.out_dim, -1)).reshape(shape)
            delta = (delta @ layer.base) * silu_grad(xin, s) + np.sum(w * dphi, axis=2)
    return loss, np.concatenate([a.ravel() for pair in zip(coef_grads, base_grads) for a in pair])


def to_json_dict(net: KanNetwork) -> dict:
    spec = net.layers[0].spec
    return {
        "kind": "kan",
        "dims": net.dims,
        "spec": {
            "grid_size": spec.grid_size,
            "degree": spec.degree,
            "domain_lo": spec.domain_lo,
            "domain_hi": spec.domain_hi,
        },
        "layers": [
            {"coef": l.coef.ravel().tolist(), "base": l.base.ravel().tolist()}
            for l in net.layers
        ],
    }


def from_json_dict(d: dict) -> KanNetwork:
    """Rebuild a network; a malformed checkpoint raises ValueError naming the field."""
    where = "kan checkpoint"
    if checkpoint_field(d, "kind", where) != "kan":
        raise ValueError(f"not a spline-network checkpoint: kind={d.get('kind')!r}")
    spec_d = checkpoint_field(d, "spec", where)
    spec = SplineSpec(*(checkpoint_field(spec_d, key, f"{where} spec")
                        for key in ("grid_size", "degree", "domain_lo", "domain_hi")))
    dims = checkpoint_field(d, "dims", where)
    if not isinstance(dims, list) or len(dims) < 2:
        raise ValueError(f"{where} field 'dims' must list >= 2 positive ints, got {dims!r}")
    for n in dims:
        check_int(n, f"{where} field 'dims' entry")
    entries = checkpoint_field(d, "layers", where)
    if not isinstance(entries, list) or len(entries) != len(dims) - 1:
        raise ValueError(f"{where} field 'layers' must list {len(dims) - 1} layers for dims {dims}")
    layers = []
    for li, ((n_in, n_out), ld) in enumerate(zip(zip(dims[:-1], dims[1:]), entries)):
        at = f"{where} layers[{li}]"
        coef = checkpoint_array(ld, "coef", n_out * n_in * spec.n_basis, at)
        base = checkpoint_array(ld, "base", n_out * n_in, at)
        layers.append(KanLayer(n_in, n_out, spec, coef.reshape(n_out, n_in, -1),
                               base.reshape(n_out, n_in)))
    return KanNetwork(layers)
