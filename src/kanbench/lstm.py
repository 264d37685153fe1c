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

The stack runs as a wavefront (Appleyard et al., arXiv:1604.01946): at wave
w, layer l runs step w - l, so n layers over L steps take L + n - 1 waves
instead of n·L layer-steps. Each wave is one matmul of a block gate matrix,
built from every layer's ``w`` and ``b`` on each call, by the column [h of
every layer; x; 1], then one sigmoid over the i, f, o rows and one tanh over
the g rows of the layers live at that wave, and the c and h updates on
those rows. Streams are time-major with the batch last, so every gate block
is a contiguous run of rows. Gradients come from full BPTT, not truncation:
the training pass stacks the columns, c, the gate activations and tanh(c)
per wave; the reverse loop forms every layer's gate deltas at once, and one
matmul by the block's transposed h columns gives every layer's dh. Each
layer's weight and bias gradients are then one contraction over its own
live waves. The forward-only pass keeps no cache and updates one column
buffer in place.

``encode`` scans its windows for finiteness once and returns them as an
``Encoded`` 1-tuple; as on the spline side, such a tuple, and row selections
or slices of it, are not scanned again.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numcore import (
    Encoded,
    Rng,
    check_finite,
    check_int,
    checkpoint_array,
    checkpoint_field,
    sigmoid,
)

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
        """The windows themselves, checked finite, as a 1-tuple: every layer
        reads its input through the trained gates, so nothing is worth
        precomputing."""
        x = np.asarray(windows, dtype=np.float64)
        check_finite("inputs", x)
        return Encoded((x,))

    def batch_loss_and_grad(self, inputs, targets):
        trusted = isinstance(inputs, Encoded)
        return lstm_loss_and_grad(self, _windows(inputs), targets, trusted=trusted)

    def predict_window_batch(self, windows) -> np.ndarray:
        trusted = isinstance(windows, Encoded)
        return lstm_forward_batch(self, _windows(windows), trusted=trusted)


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


class _Waves(NamedTuple):
    """The stack's gates as one block, laid out for a wavefront run.

    The column at each wave is [h_{n-1}; ...; h_1; h_0; x; 1], so layer l
    reads one contiguous span [h_l; h_{l-1}] (or [h_0; x]) in the column
    order of its own ``w``, and the last column of ``block`` is the bias.
    ``block`` is gate-major: four runs of S rows (S the summed hidden sizes),
    i, f, o then g, each ordered like the h part of the column. Layer l owns
    rows pos[l]:pos[l] + hidden of every run, and its ``w`` fills those rows
    from column pos[l] on; every other entry is zero. At wave w layer l runs
    step w - l, and the layers live at that wave own one contiguous row
    range, ``live[w]``, of every run.
    """

    block: np.ndarray  # (4S, S + in_dim + 1)
    pos: list[int]  # first row of each layer in a run; layer 0 is last
    live: list[tuple[int, int]]  # (first, stop) row of the live layers, per wave


def _waves(layers: list[LstmLayer], steps: int) -> _Waves:
    """Build the block from each layer's ``w`` and ``b`` as they are now."""
    total = sum(l.hidden for l in layers)
    block = np.zeros((4, total, total + layers[0].in_dim + 1))
    pos, r = [], total
    for layer in layers:
        r -= layer.hidden
        pos.append(r)
        block[:, r : r + layer.hidden, r : r + layer.hidden + layer.in_dim] = (
            layer.w.reshape(4, layer.hidden, -1))
        block[:, r : r + layer.hidden, -1] = layer.b.reshape(4, -1)
    top = len(layers) - 1
    live = []
    for w in range(steps + top):
        lo = max(0, w - steps + 1)
        live.append((pos[min(w, top)], pos[lo] + layers[lo].hidden))
    return _Waves(block.reshape(4 * total, -1), pos, live)


def _run_waves(net: LstmNetwork, x: np.ndarray, keep_cache: bool):
    """Push a (B, L, in_dim) batch through the stack, every layer per wave.

    Returns the top layer's final (hidden, B) state and, with keep_cache, the
    waves and their stacked BPTT cache (columns, c, gates, tanh_c): slot w
    holds wave w's input column and c, and its new h and c go to slot w + 1.
    Without the cache one slot is updated in place. Only a wave's live rows
    are activated and written: layers not yet started keep h = c = 0, and a
    finished layer's last h is read once more, by the layer above.
    """
    batch, steps, _ = x.shape
    waves = _waves(net.layers, steps)
    total = len(waves.block) // 4
    slots = len(waves.live) if keep_cache else 1
    nxt = 1 if keep_cache else 0
    cols = np.zeros((slots + nxt, waves.block.shape[1], batch))
    cols[:, -1] = 1.0
    cs = np.zeros((slots + nxt, total, batch))
    gates = np.empty((slots, 4, total, batch))
    tanh_c = np.empty((slots, total, batch))
    xs = x.transpose(1, 2, 0)
    for w, (a, b) in enumerate(waves.live):
        k = w if keep_cache else 0
        if w < steps:
            cols[k, total:-1] = xs[w]
        z = gates[k]
        np.matmul(waves.block, cols[k], out=z.reshape(4 * total, batch))
        ifo, g = z[:3, a:b], z[3, a:b]
        sigmoid(ifo, out=ifo)
        np.tanh(g, out=g)
        i, f, o = ifo
        c = np.multiply(f, cs[k, a:b], out=cs[k + nxt, a:b])
        c += i * g
        tc = np.tanh(c, out=tanh_c[k, a:b])
        np.multiply(o, tc, out=cols[k + nxt, a:b])
    top = cols[-1, : net.layers[-1].hidden]
    return top, ((waves, cols, cs, gates, tanh_c) if keep_cache else None)


def _check_batch(net: LstmNetwork, x: np.ndarray, trusted: bool) -> np.ndarray:
    """The batch as float64, its shape checked and, unless ``trusted``, its values."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != net.input_dim:
        raise ValueError(
            f"inputs must be (batch, steps, {net.input_dim}), got shape {x.shape}"
        )
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError("batch and sequence length must be nonzero")
    if not trusted:
        check_finite("inputs", x)
    return x


def lstm_forward_batch(net: LstmNetwork, inputs, *, trusted: bool = False) -> np.ndarray:
    """Scalar prediction per sequence in a (B, L, F) batch; ``trusted``
    windows come from ``encode`` and skip the finiteness scan."""
    x = _check_batch(net, inputs, trusted)
    top, _ = _run_waves(net, x, keep_cache=False)
    pre = net.head @ top
    return np.tanh(pre) if net.head_activation == "tanh" else pre


def _backward_waves(layers: list[LstmLayer], cache, dh_top: np.ndarray):
    """BPTT through every layer at once, wave by wave in reverse, given the
    gradient of the top layer's final state; returns each layer's (dW, db).

    Dead rows of the gate deltas stay zero, so one matmul by the block's
    transposed h columns gives every layer's dh: its own recurrent term plus
    the input term from the layer above. The bottom layer's input gradient
    is never formed.
    """
    waves, cols, cs, gates, tanh_c = cache
    slots, _, total, batch = gates.shape
    steps = slots - len(layers) + 1
    w_h = np.ascontiguousarray(waves.block[:, :total].T)
    dz = np.zeros_like(gates)
    dh = np.zeros((total, batch))
    dc = np.zeros((total, batch))
    dh[: len(dh_top)] = dh_top
    for w in reversed(range(slots)):
        a, b = waves.live[w]
        ifo, g = gates[w, :3, a:b], gates[w, 3, a:b]
        i, f, o = ifo
        tc, d = tanh_c[w, a:b], dz[w, :, a:b]
        dhl, dcl = dh[a:b], dc[a:b]
        dcl += dhl * o * (1.0 - tc**2)
        np.multiply(ifo, 1.0 - ifo, out=d[:3])  # sigmoid' of i, f, o
        d[0] *= dcl * g
        d[1] *= dcl * cs[w, a:b]
        d[2] *= dhl * tc
        np.multiply(dcl * i, 1.0 - g**2, out=d[3])
        np.matmul(w_h, dz[w].reshape(4 * total, batch), out=dh)
        dcl *= f
    grads = []
    for l, (layer, r) in enumerate(zip(layers, waves.pos)):
        # layer l's live waves l .. l + steps - 1: rows i, f, o, g; columns (wave, batch)
        d = dz[l : l + steps, :, r : r + layer.hidden].transpose(1, 2, 0, 3)
        d = d.reshape(4 * layer.hidden, -1)
        col = cols[l : l + steps, r : r + layer.hidden + layer.in_dim].transpose(1, 0, 2)
        grads.append((d @ col.reshape(len(col), -1).T, d.sum(axis=1)))
    return grads


def lstm_loss_and_grad(net: LstmNetwork, inputs, targets, *, trusted: bool = False):
    """MSE over the batch plus exact BPTT gradients, packed flat; ``trusted``
    as for ``lstm_forward_batch``."""
    x = _check_batch(net, inputs, trusted)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError(f"targets must have shape ({x.shape[0]},), got {y.shape}")

    h_last, cache = _run_waves(net, x, keep_cache=True)
    pre = net.head @ h_last
    pred = np.tanh(pre) if net.head_activation == "tanh" else pre

    resid = pred - y
    loss = float(np.mean(resid**2))
    dpre = (2.0 / x.shape[0]) * resid
    if net.head_activation == "tanh":
        dpre = dpre * (1.0 - pred**2)

    grads = _backward_waves(net.layers, cache, net.head[:, None] * dpre[None, :])
    flat = [a.ravel() for pair in grads for a in pair]
    flat.append(h_last @ dpre)
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
    input_dim, hidden, n_layers = (
        check_int(checkpoint_field(d, key, where), f"{where} field {key!r}")
        for key in ("input_dim", "hidden", "n_layers")
    )
    net = lstm_init(input_dim, hidden, n_layers, np.random.default_rng(0),
                    checkpoint_field(d, "head_activation", where))
    net.unpack(checkpoint_array(d, "params", net.n_params, where))
    return net
