"""Stacked LSTM sequence regressor with exact backpropagation through time.

Each layer keeps one fused gate matrix ``w`` of shape (4·hidden, hidden +
input) and one bias ``b`` of shape (4·hidden,), in i, f, o, g row blocks,
applied to the concatenation [h, x]. One step is one matmul, a sigmoid over
the i, f, o block and a tanh over the candidate g: ``c' = f*c + i*g`` and
``h' = o*tanh(c')``. The row-major ravel of ``w`` is the four gate matrices
one after another, so the flat parameter order is w_i, w_f, w_o, w_g then
b_i..b_g, as in checkpoints of the per-gate layout. Layers are stacked by
feeding the full hidden-state stream upward; a bias-free linear or tanh head
reads the top layer's final hidden state.

Inside, streams are time-major with the batch last, (steps, features,
batch), so every gate block is a contiguous run of rows. Gradients come
from full BPTT, not truncation: the training pass stacks [h; x], c_prev,
the gate activations and tanh(c) over all steps; the backward loop fills one
(steps, 4·hidden, batch) array of gate deltas, and each layer's weight, bias
and input gradients are then one array op each. The forward-only pass keeps
no cache and reuses one (hidden + input, batch) column buffer.
"""

from dataclasses import dataclass

import numpy as np

from .numcore import Rng, checkpoint_array, checkpoint_field, checkpoint_int, sigmoid

HEAD_ACTIVATIONS = ("linear", "tanh")


@dataclass
class LstmLayer:
    in_dim: int
    hidden: int
    w: np.ndarray  # (4·hidden, hidden + in_dim): i, f, o, g rows applied to [h, x]
    b: np.ndarray  # (4·hidden,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        wshape = (4 * self.hidden, self.hidden + self.in_dim)
        if self.w.shape != wshape:
            raise ValueError(f"w shape {self.w.shape} != {wshape}")
        if self.b.shape != (4 * self.hidden,):
            raise ValueError(f"b shape {self.b.shape} != {(4 * self.hidden,)}")

    def arrays(self):
        yield self.w
        yield self.b


@dataclass
class LstmNetwork:
    layers: list[LstmLayer]
    head: np.ndarray  # (hidden,), no bias
    head_activation: str = "linear"

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.hidden != b.in_dim:
                raise ValueError(f"layer dims do not chain: {a.hidden} -> {b.in_dim}")
        self.head = np.asarray(self.head, dtype=np.float64)
        if self.head.shape != (self.layers[-1].hidden,):
            raise ValueError(
                f"head shape {self.head.shape} != {(self.layers[-1].hidden,)}"
            )
        if self.head_activation not in HEAD_ACTIVATIONS:
            raise ValueError(f"unknown head_activation {self.head_activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def n_params(self) -> int:
        return sum(a.size for l in self.layers for a in l.arrays()) + self.head.size

    def pack(self) -> np.ndarray:
        parts = [a.ravel() for l in self.layers for a in l.arrays()]
        parts.append(self.head.ravel())
        return np.concatenate(parts)

    def unpack(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {flat.shape}")
        pos = 0
        for l in self.layers:
            for a in l.arrays():
                a[...] = flat[pos : pos + a.size].reshape(a.shape)
                pos += a.size
        self.head[...] = flat[pos:]

    def encode(self, windows):
        """The windows themselves, as a 1-tuple: every layer reads its input
        through the trained gates, so nothing is worth precomputing."""
        return (np.asarray(windows, dtype=np.float64),)

    def batch_loss_and_grad(self, inputs, targets):
        return lstm_loss_and_grad(self, _windows(inputs), targets)

    def predict_window_batch(self, windows) -> np.ndarray:
        return lstm_forward_batch(self, _windows(windows))


def _windows(inputs):
    """Raw (B, L, F) windows, unwrapped from encoded input (a 1-tuple)."""
    if isinstance(inputs, tuple):
        if len(inputs) != 1:
            raise ValueError(f"encoded inputs must be a 1-tuple of windows, "
                             f"got {len(inputs)} arrays")
        return inputs[0]
    return inputs


def lstm_init(
    input_dim: int,
    hidden: int,
    n_layers: int,
    rng: Rng,
    head_activation: str = "linear",
) -> LstmNetwork:
    """Glorot-uniform gate weights, forget bias 1, other biases 0."""
    if input_dim < 1 or hidden < 1 or n_layers < 1:
        raise ValueError("input_dim, hidden and n_layers must all be positive")
    layers = []
    for li in range(n_layers):
        in_dim = input_dim if li == 0 else hidden
        limit = np.sqrt(6.0 / (hidden + in_dim + hidden))
        w = rng.uniform(-limit, limit, size=(4 * hidden, hidden + in_dim))
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0
        layers.append(LstmLayer(in_dim, hidden, w, b))
    head_limit = np.sqrt(6.0 / (hidden + 1))
    head = rng.uniform(-head_limit, head_limit, size=hidden)
    return LstmNetwork(layers, head, head_activation)


def _run_layer(layer: LstmLayer, seq: np.ndarray, keep_cache: bool):
    """Run a (steps, in_dim, batch) stream through one layer.

    Returns the (steps, hidden, batch) hidden stream and, with keep_cache, the
    stacked BPTT cache (hx, c_prev, gates, tanh_c); without it every step
    reuses slot 0 of one-step buffers.
    """
    steps, _, batch = seq.shape
    hid = layer.hidden
    slots = steps if keep_cache else 1
    hx = np.empty((slots, hid + layer.in_dim, batch))
    c_prev = np.empty((slots, hid, batch))
    gates = np.empty((slots, 4 * hid, batch))
    tanh_c = np.empty((slots, hid, batch))
    hs = np.empty((steps, hid, batch))
    bias = layer.b[:, None]
    h = np.zeros((hid, batch))
    c = np.zeros((hid, batch))
    for t in range(steps):
        k = t if keep_cache else 0
        col, z = hx[k], gates[k]
        col[:hid] = h
        col[hid:] = seq[t]
        c_prev[k] = c
        np.matmul(layer.w, col, out=z)
        z += bias
        z[: 3 * hid] = sigmoid(z[: 3 * hid])
        np.tanh(z[3 * hid :], out=z[3 * hid :])
        i, f, o, g = z[:hid], z[hid : 2 * hid], z[2 * hid : 3 * hid], z[3 * hid :]
        c *= f  # c_prev[k] holds the old value
        c += i * g
        np.tanh(c, out=tanh_c[k])
        h = np.multiply(o, tanh_c[k], out=hs[t])
    return hs, ((hx, c_prev, gates, tanh_c) if keep_cache else None)


def _run_layers(net: LstmNetwork, x: np.ndarray, keep_cache: bool):
    """Push a (B, L, in_dim) batch through the stack; return the top stream
    (L, hidden, B) and the per-layer caches."""
    seq = x.transpose(1, 2, 0)
    caches = []
    for layer in net.layers:
        seq, cache = _run_layer(layer, seq, keep_cache)
        caches.append(cache)
    return seq, caches


def _check_batch(net: LstmNetwork, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != net.input_dim:
        raise ValueError(
            f"inputs must be (batch, steps, {net.input_dim}), got shape {x.shape}"
        )
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError("batch and sequence length must be nonzero")
    if not np.all(np.isfinite(x)):
        raise ValueError("inputs must be finite")
    return x


def lstm_forward_batch(net: LstmNetwork, inputs) -> np.ndarray:
    """Scalar prediction per sequence in a (B, L, F) batch."""
    x = _check_batch(net, np.asarray(inputs, dtype=np.float64))
    top, _ = _run_layers(net, x, keep_cache=False)
    pre = net.head @ top[-1]
    return np.tanh(pre) if net.head_activation == "tanh" else pre


def _layer_backward(layer: LstmLayer, cache, dh_seq: np.ndarray):
    """BPTT through one layer given the gradient of its (L, hidden, B) output
    stream; returns (dW, db, gradient of its (L, in_dim, B) input stream)."""
    hx, c_prev, gates, tanh_c = cache
    steps, _, batch = hx.shape
    hid = layer.hidden
    w_h = np.ascontiguousarray(layer.w[:, :hid].T)
    dz = np.empty_like(gates)
    dh = np.zeros((hid, batch))
    dc = np.zeros((hid, batch))
    for t in reversed(range(steps)):
        z, tc, d = gates[t], tanh_c[t], dz[t]
        i, f, o, g = z[:hid], z[hid : 2 * hid], z[2 * hid : 3 * hid], z[3 * hid :]
        dh += dh_seq[t]
        dc += dh * o * (1.0 - tc**2)
        d[:hid] = dc * g * i * (1.0 - i)
        d[hid : 2 * hid] = dc * c_prev[t] * f * (1.0 - f)
        d[2 * hid : 3 * hid] = dh * tc * o * (1.0 - o)
        d[3 * hid :] = dc * i * (1.0 - g**2)
        dh = w_h @ d
        dc *= f
    d_w = np.tensordot(dz, hx, axes=([0, 2], [0, 2]))
    d_b = dz.sum(axis=(0, 2))
    return d_w, d_b, np.matmul(layer.w[:, hid:].T, dz)


def lstm_loss_and_grad(net: LstmNetwork, inputs, targets):
    """MSE over the batch plus exact BPTT gradients, packed flat."""
    x = _check_batch(net, np.asarray(inputs, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError(f"targets must have shape ({x.shape[0]},), got {y.shape}")

    top, caches = _run_layers(net, x, keep_cache=True)
    h_last = top[-1]
    pre = net.head @ h_last
    pred = np.tanh(pre) if net.head_activation == "tanh" else pre

    resid = pred - y
    loss = float(np.mean(resid**2))
    dpre = (2.0 / x.shape[0]) * resid
    if net.head_activation == "tanh":
        dpre = dpre * (1.0 - pred**2)

    # Gradient w.r.t. the current layer's hidden-state stream; for the top
    # layer only the final step is read (by the head).
    dh_seq = np.zeros_like(top)
    dh_seq[-1] = net.head[:, None] * dpre[None, :]
    flat = [h_last @ dpre]
    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        d_w, d_b, dh_seq = _layer_backward(layer, cache, dh_seq)
        flat[:0] = [d_w.ravel(), d_b]
    return loss, np.concatenate(flat)


def to_json_dict(net: LstmNetwork) -> dict:
    return {
        "kind": "lstm",
        "input_dim": net.input_dim,
        "hidden": net.layers[0].hidden,
        "n_layers": len(net.layers),
        "head_activation": net.head_activation,
        "params": net.pack().tolist(),
    }


def from_json_dict(d: dict) -> LstmNetwork:
    """Rebuild a network; a malformed checkpoint raises ValueError naming the field."""
    where = "lstm checkpoint"
    if checkpoint_field(d, "kind", where) != "lstm":
        raise ValueError(f"not an lstm checkpoint: kind={d.get('kind')!r}")
    net = lstm_init(
        checkpoint_int(d, "input_dim", where),
        checkpoint_int(d, "hidden", where),
        checkpoint_int(d, "n_layers", where),
        np.random.default_rng(0),
        checkpoint_field(d, "head_activation", where),
    )
    net.unpack(checkpoint_array(d, "params", net.n_params, where))
    return net
