"""Stacked LSTM sequence regressor with exact backpropagation through time.

Each layer keeps four gate matrices of shape (hidden, hidden + input) applied
to the concatenation [h, x], with sigmoid input/forget/output gates and a tanh
candidate: ``c' = f*c + i*g`` and ``h' = o*tanh(c')``. Layers are stacked by
feeding the full hidden-state stream upward; a bias-free linear or tanh head
reads the top layer's final hidden state. Gradients come from full BPTT, not
truncation.
"""

from dataclasses import dataclass

import numpy as np

from .numcore import Rng, sigmoid

GATES = ("i", "f", "o", "g")
HEAD_ACTIVATIONS = ("linear", "tanh")


@dataclass
class LstmLayer:
    in_dim: int
    hidden: int
    w_i: np.ndarray  # (hidden, hidden + in_dim), applied to [h, x]
    w_f: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray
    b_i: np.ndarray  # (hidden,)
    b_f: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray

    def __post_init__(self):
        wshape = (self.hidden, self.hidden + self.in_dim)
        for name in GATES:
            w = np.asarray(getattr(self, f"w_{name}"), dtype=np.float64)
            b = np.asarray(getattr(self, f"b_{name}"), dtype=np.float64)
            if w.shape != wshape:
                raise ValueError(f"w_{name} shape {w.shape} != {wshape}")
            if b.shape != (self.hidden,):
                raise ValueError(f"b_{name} shape {b.shape} != {(self.hidden,)}")
            setattr(self, f"w_{name}", w)
            setattr(self, f"b_{name}", b)

    def arrays(self):
        for name in GATES:
            yield getattr(self, f"w_{name}")
        for name in GATES:
            yield getattr(self, f"b_{name}")


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
            raise ValueError(f"unknown head activation {self.head_activation!r}")

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

    def batch_loss_and_grad(self, inputs, targets):
        return lstm_loss_and_grad(self, inputs, targets)

    def predict_window_batch(self, windows) -> np.ndarray:
        return lstm_forward_batch(self, np.asarray(windows, dtype=np.float64))


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
        ws = {
            f"w_{g}": rng.uniform(-limit, limit, size=(hidden, hidden + in_dim))
            for g in GATES
        }
        bs = {f"b_{g}": np.zeros(hidden) for g in GATES}
        bs["b_f"] = np.ones(hidden)
        layers.append(LstmLayer(in_dim, hidden, **ws, **bs))
    head_limit = np.sqrt(6.0 / (hidden + 1))
    head = rng.uniform(-head_limit, head_limit, size=hidden)
    return LstmNetwork(layers, head, head_activation)


def _run_layers(net: LstmNetwork, x: np.ndarray, keep_cache: bool):
    """Push a (B, L, in_dim) batch through the stack; return h-stream + caches."""
    batch, steps, _ = x.shape
    caches = []
    seq = x
    for layer in net.layers:
        h = np.zeros((batch, layer.hidden))
        c = np.zeros((batch, layer.hidden))
        hs = np.empty((batch, steps, layer.hidden))
        cache = []
        for t in range(steps):
            hx = np.concatenate([h, seq[:, t, :]], axis=1)
            i = sigmoid(hx @ layer.w_i.T + layer.b_i)
            f = sigmoid(hx @ layer.w_f.T + layer.b_f)
            o = sigmoid(hx @ layer.w_o.T + layer.b_o)
            g = np.tanh(hx @ layer.w_g.T + layer.b_g)
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h = o * tc
            hs[:, t, :] = h
            if keep_cache:
                cache.append({"hx": hx, "i": i, "f": f, "o": o, "g": g,
                              "c_prev": c, "tc": tc})
            c = c_new
        caches.append(cache)
        seq = hs
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
    pre = top[:, -1, :] @ net.head
    return np.tanh(pre) if net.head_activation == "tanh" else pre


def lstm_loss_and_grad(net: LstmNetwork, inputs, targets):
    """MSE over the batch plus exact BPTT gradients, packed flat."""
    x = _check_batch(net, np.asarray(inputs, dtype=np.float64))
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError(f"targets must have shape ({x.shape[0]},), got {y.shape}")
    batch, steps, _ = x.shape

    top, caches = _run_layers(net, x, keep_cache=True)
    h_last = top[:, -1, :]
    pre = h_last @ net.head
    pred = np.tanh(pre) if net.head_activation == "tanh" else pre

    resid = pred - y
    loss = float(np.mean(resid**2))
    dpre = (2.0 / batch) * resid
    if net.head_activation == "tanh":
        dpre = dpre * (1.0 - pred**2)

    d_head = h_last.T @ dpre
    grads = {id(l): [np.zeros_like(a) for a in l.arrays()] for l in net.layers}

    # Gradient w.r.t. the current layer's hidden-state stream; for the top
    # layer only the final step is read (by the head).
    dh_seq = np.zeros_like(top)
    dh_seq[:, -1, :] = dpre[:, None] * net.head[None, :]

    for layer, cache in zip(reversed(net.layers), reversed(caches)):
        g_wi, g_wf, g_wo, g_wg, g_bi, g_bf, g_bo, g_bg = grads[id(layer)]
        dx_seq = np.zeros((batch, steps, layer.in_dim))
        dh = np.zeros((batch, layer.hidden))
        dc = np.zeros((batch, layer.hidden))
        for t in reversed(range(steps)):
            st = cache[t]
            dh = dh + dh_seq[:, t, :]
            dc = dc + dh * st["o"] * (1.0 - st["tc"] ** 2)
            dzo = dh * st["tc"] * st["o"] * (1.0 - st["o"])
            dzi = dc * st["g"] * st["i"] * (1.0 - st["i"])
            dzf = dc * st["c_prev"] * st["f"] * (1.0 - st["f"])
            dzg = dc * st["i"] * (1.0 - st["g"] ** 2)
            hx = st["hx"]
            g_wi += dzi.T @ hx
            g_wf += dzf.T @ hx
            g_wo += dzo.T @ hx
            g_wg += dzg.T @ hx
            g_bi += dzi.sum(axis=0)
            g_bf += dzf.sum(axis=0)
            g_bo += dzo.sum(axis=0)
            g_bg += dzg.sum(axis=0)
            dhx = dzi @ layer.w_i + dzf @ layer.w_f + dzo @ layer.w_o + dzg @ layer.w_g
            dh = dhx[:, : layer.hidden]
            dx_seq[:, t, :] = dhx[:, layer.hidden :]
            dc = dc * st["f"]
        dh_seq = dx_seq  # becomes the h-stream gradient for the layer below

    flat = [a.ravel() for l in net.layers for a in grads[id(l)]]
    flat.append(d_head.ravel())
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
    if d.get("kind") != "lstm":
        raise ValueError(f"not an lstm checkpoint: kind={d.get('kind')!r}")
    net = lstm_init(
        d["input_dim"],
        d["hidden"],
        d["n_layers"],
        np.random.default_rng(0),
        d["head_activation"],
    )
    net.unpack(np.array(d["params"], dtype=np.float64))
    return net
