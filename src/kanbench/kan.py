"""Networks of learnable univariate edge functions.

Every edge applies ``base_weight * silu(x) + spline(x)`` to its input and a
node output is the plain sum over its incoming edges, so a layer carries an
(out_dim, in_dim, n_basis) coefficient tensor plus an (out_dim, in_dim)
residual weight matrix. The silu residual keeps gradients alive where the
splines are flat or clamped. All gradients are exact analytic derivatives.
"""

from dataclasses import dataclass, field

import numpy as np

from .bspline import SplineSpec, basis_grad_matrix, basis_matrix
from .numcore import Rng, checkpoint_array, checkpoint_field, sigmoid, silu, silu_grad


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

    def batch_loss_and_grad(self, inputs, targets):
        return kan_backward(self, _flatten_windows(inputs), targets)

    def predict_window_batch(self, windows) -> np.ndarray:
        return kan_forward_batch(self, _flatten_windows(windows))


def _flatten_windows(windows) -> np.ndarray:
    """(B, L, F) windows as (B, L·F) rows, row-major; 2-D rows pass through.

    The reshape is a view for contiguous windows, which is what make_windows
    returns.
    """
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 3:
        return w
    return w.reshape(w.shape[0], w.shape[1] * w.shape[2])


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


def _layer_forward(layer: KanLayer, x: np.ndarray):
    """Layer outputs (B, out_dim) and the basis rows (B, in_dim·n_basis).

    The spline term contracts (i, p) jointly as one matmul against the
    coefficients flattened to (out_dim, in_dim·n_basis) in (o, i, p) order.
    """
    phi = basis_matrix(layer.spec, x.reshape(-1)).reshape(x.shape[0], -1)
    out = silu(x) @ layer.base.T + phi @ layer.coef.reshape(layer.out_dim, -1).T
    return out, phi


def kan_forward_batch(net: KanNetwork, inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.layers[0].in_dim:
        raise ValueError(
            f"inputs must be (batch, {net.layers[0].in_dim}), got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    for layer in net.layers:
        x, _ = _layer_forward(layer, x)
    return x[:, 0]


def kan_backward(net: KanNetwork, inputs, targets):
    """MSE loss over the batch plus exact gradients, packed flat like pack()."""
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a nonempty 2-D array")
    if x.shape[1] != net.layers[0].in_dim:
        raise ValueError(f"inputs must be (batch, {net.layers[0].in_dim}), got {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"targets must have shape ({x.shape[0]},), got {y.shape}")

    acts = [x]
    phis = []
    for layer in net.layers:
        out, phi = _layer_forward(layer, acts[-1])
        acts.append(out)
        phis.append(phi)

    resid = acts[-1][:, 0] - y
    loss = float(np.mean(resid**2))
    delta = (2.0 / x.shape[0]) * resid[:, None]

    n = len(net.layers)
    coef_grads: list[np.ndarray] = [np.empty(0)] * n
    base_grads: list[np.ndarray] = [np.empty(0)] * n
    for li in reversed(range(n)):
        layer = net.layers[li]
        xin = acts[li]
        s = sigmoid(xin)  # serves both silu(x) = x·s and its derivative
        coef_grads[li] = (delta.T @ phis[li]).reshape(layer.coef.shape)
        base_grads[li] = delta.T @ (xin * s)
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
    if not isinstance(dims, list) or len(dims) < 2 or any(
        isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in dims
    ):
        raise ValueError(f"{where} field 'dims' must list >= 2 positive ints, got {dims!r}")
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
