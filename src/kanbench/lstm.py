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
filled from every layer's ``w`` and ``b`` on each call, by the column [h of
every layer; x; 1], then one sigmoid over the i, f, o rows and one tanh over
the g rows of the layers live at that wave, and the c and h updates on
those rows. Streams are time-major with the batch last, so every gate block
is a contiguous run of rows. Gradients come from full BPTT, not truncation:
the training pass stacks the columns, c, the gate activations and tanh(c)
per wave; the reverse loop forms every layer's gate deltas at once, over
the activations, and one matmul by the block's transposed h columns gives
every layer's dh. Each layer's weight and bias gradients are then one
contraction over its own live waves.

The training pass runs in a workspace that the network keeps for its last
batch shape (B, L) and stack: the block, its transposed h columns, the
stacked cache, dh, dc and every wave's views into them, built once. A new
batch shape (an epoch's shorter last minibatch) replaces it, inference drops
it (``train`` predicts after every epoch), and copies and pickles leave it
out. Networks trained in parallel threads each use their own.

Inference and rollouts share one forward-only pass, the rollout
(``_rollout_waves``); inference is its one-step case. It keeps no cache and
writes tanh(c) over the spent g block, so only training holds a tanh(c)
buffer, which BPTT reads. Rollout step s starts n waves after step s - 1,
whose prediction it reads at its own wave L - 1, so the steps in flight
share each wave's stacked matmul and H steps take n·(H - 1) + L + n - 1
waves instead of H·(L + n - 1). Per-window horizons split the steps into
segments of equal live count, run back to back.

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

    # (key, _Workspace) of the last training call: not a field, and left out
    # of copies and pickles, whose copied views would detach from its buffers
    _workspace = None

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

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_workspace", None)
        return state

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
        """Predictions for a batch of windows; drops the training workspace."""
        self._workspace = None
        trusted = isinstance(windows, Encoded)
        return lstm_forward_batch(self, _windows(windows), trusted=trusted)

    def rollout_steps(self, encoded, live):
        """``_rollout_waves`` over ``encode``d seed windows, for ``forecast``."""
        self._workspace = None
        x = _check_batch(self, _windows(encoded), trusted=isinstance(encoded, Encoded))
        return _rollout_waves(self, x, live)


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
    places: list  # each layer's (w, b) in ``block``, views shaped (4, hidden, ...)

    def fill(self, layers: list[LstmLayer]) -> None:
        """Write each layer's ``w`` and ``b``, as they are now, into the block."""
        for (w, b), layer in zip(self.places, layers):
            w[...] = layer.w.reshape(w.shape)
            b[...] = layer.b.reshape(b.shape)


def _waves(layers: list[LstmLayer], steps: int) -> _Waves:
    """Build the block from each layer's ``w`` and ``b`` as they are now."""
    total = sum(l.hidden for l in layers)
    block = np.zeros((4, total, total + layers[0].in_dim + 1))
    pos, places, r = [], [], total
    for layer in layers:
        r -= layer.hidden
        pos.append(r)
        places.append((block[:, r : r + layer.hidden, r : r + layer.hidden + layer.in_dim],
                       block[:, r : r + layer.hidden, -1]))
    top = len(layers) - 1
    live = []
    for w in range(steps + top):
        lo = max(0, w - steps + 1)
        live.append((pos[min(w, top)], pos[lo] + layers[lo].hidden))
    waves = _Waves(block.reshape(4 * total, -1), pos, live, places)
    waves.fill(layers)
    return waves


def _gates(z):
    """The i, f, o block, the g block, then i, f and o, of gate values ``z``
    (i, f, o, g along its first axis)."""
    ifo = z[:3]
    return (ifo, z[3], *ifo)


def _cell(ifo, g, i, f, o, c, c_out, tc_out, h_out):
    """The cell update on gate pre-activations, as ``_gates`` splits them:
    one sigmoid over i, f, o and one tanh over g, in place, then
    c' = f*c + i*g into ``c_out`` (which may be ``c``), tanh(c') into
    ``tc_out`` (which holds i*g before that, and may be ``g``, for a pass
    that keeps no cache) and h' = o*tanh(c') into ``h_out``."""
    sigmoid(ifo, out=ifo)
    np.tanh(g, out=g)
    c = np.multiply(f, c, out=c_out)
    c += np.multiply(i, g, out=tc_out)
    np.multiply(o, np.tanh(c, out=tc_out), out=h_out)


def _head(net: LstmNetwork, top: np.ndarray) -> np.ndarray:
    """Predictions from the top layer's (hidden, B) final state."""
    pre = net.head @ top
    return np.tanh(pre) if net.head_activation == "tanh" else pre


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
    return next(_rollout_waves(net, x, [len(x)]))


def _rollout_waves(net: LstmNetwork, x: np.ndarray, live):
    """The forward-only wavefront, as a generator: it yields step s's
    predictions for the first live[s] of the checked (B, L, in_dim) windows
    ``x``, then takes the next step's encoded pseudo-rows by ``send``.
    Inference is the one-step case, ``live`` = [B].

    Step s runs the stack over rows s .. s + L - 1; row L + s - 1 (s > 0) is
    the pseudo-row from step s - 1's predictions. The runs of steps that roll
    equally many windows (live[s]) are segments, run one after another, each
    with its own buffers (columns, c and gates), one slot per step in flight.
    Within a segment step s starts n waves after step s - 1, so a segment of
    ``count`` steps takes n·(count - 1) + L + n - 1 waves, and a slot's matmul
    keeps the width live[s]: every prediction is the step loop's bit for bit.
    A segment with one slot (inference, one-step segments, 1-step windows)
    reads its row as a view and activates only its live layers, as training
    does. With more slots every row is activated (finished layers compute
    values no live layer reads), and the rows of layers the newest step has
    not started are reset to h = c = 0 after each wave. Rows live in a ring
    of L rows, row r at r mod L, which carries over from segment to segment.
    """
    steps = x.shape[1]
    n = len(net.layers)
    waves = _waves(net.layers, steps)
    total = len(waves.block) // 4
    top = net.layers[-1].hidden
    span = steps + n - 1  # waves of one rollout step
    # (L, in_dim, B): a view of x, as a one-step rollout writes no pseudo-row into it
    ring = x.transpose(1, 2, 0) if len(live) == 1 else x.transpose(1, 2, 0).copy()
    cuts = [0, *(np.flatnonzero(np.diff(live)) + 1), len(live)]
    for first, stop in zip(cuts, cuts[1:]):
        width, slots = live[first], min(-(-span // n), stop - first)
        owner = np.arange(first, first + slots)  # the step in each slot
        cols = np.zeros((slots, waves.block.shape[1], width))
        cols[:, -1] = 1.0
        cs = np.zeros((slots, total, width))
        z = np.empty((slots, 4, total, width))
        # step s runs its local wave ``wave`` - n·s in slot (s - first) mod
        # slots, reading row (local wave) + s
        for wave in range(n * first, n * (stop - 1) + span):
            newest, front = divmod(wave, n)  # the newest step runs its layer ``front``
            j = (newest - first) % slots
            if front == 0 and newest < stop:  # step ``newest`` starts from h = c = 0
                owner[j] = newest
                cols[j, :total] = 0.0
                cs[j] = 0.0
            if slots == 1:  # an int row (a view, not a gather) and the live rows only
                row = wave - (n - 1) * owner[0]
                a, b = waves.live[row - owner[0]]
                gates, c, h = z[0, :, a:b], cs[0, a:b], cols[0, a:b]
            else:
                row = wave - (n - 1) * owner
                gates, c, h = z.swapaxes(0, 1), cs, cols[:, :total]
            cols[:, total:-1] = ring[row % steps, :, :width]
            np.matmul(waves.block, cols, out=z.reshape(slots, 4 * total, width))
            _cell(*_gates(gates), c, c, gates[3], h)
            if front < n - 1 and newest < stop:  # layers above the front have not started
                cols[j, : waves.pos[front]] = 0.0
                cs[j, : waves.pos[front]] = 0.0
            done, off = divmod(wave - span + 1, n)
            if done >= first and not off:
                new = yield _head(net, cols[(done - first) % slots, :top])
                ring[done % steps, :, : live[done + 1]] = _windows(new)[:, 0].T
        del cols, cs, z, gates, c, h  # one segment's buffers, and views of them, at a time


class _Workspace:
    """A training pass's buffers for one batch shape and stack, and each
    wave's views into them. Slot w of the columns and c holds wave w's input;
    its new h and c go to slot w + 1. Every call writes the same live rows,
    so dead rows of the columns and c stay zero."""

    def __init__(self, layers: list[LstmLayer], batch: int, steps: int):
        self.waves = waves = _waves(layers, steps)
        total = len(waves.block) // 4
        slots = len(waves.live)
        self.w_h = np.empty((total, 4 * total))
        cols = np.zeros((slots + 1, waves.block.shape[1], batch))
        cols[:, -1] = 1.0
        cs = np.zeros((slots + 1, total, batch))
        gates = np.empty((slots, 4, total, batch))
        tanh_c = np.empty((slots, total, batch))
        self.dh = dh = np.zeros((total, batch))
        self.dc = dc = np.zeros((total, batch))
        self.xs = cols[:steps, total:-1]  # (L, in_dim, B)
        self.top = cols[-1, : layers[-1].hidden]
        self.forward_waves, self.backward_waves = [], []
        for w, (a, b) in enumerate(waves.live):
            gate, c, tc, z = _gates(gates[w, :, a:b]), cs[w, a:b], tanh_c[w, a:b], gates[w]
            flat = z.reshape(4 * total, batch)
            self.forward_waves.append((cols[w], flat, (*gate, c, cs[w + 1, a:b], tc, cols[w + 1, a:b])))
            dead = [v for v in (z[:, :a], z[:, b:]) if v.size]
            self.backward_waves.append((*gate, c, tc, dh[a:b], dc[a:b], dead, flat))
        self.backward_waves.reverse()
        # layer l's live waves l .. l + L - 1: its deltas as rows i, f, o, g by
        # columns (wave, batch), and its input columns
        self.contractions = [
            (gates[l : l + steps, :, r : r + layer.hidden].transpose(1, 2, 0, 3),
             cols[l : l + steps, r : r + layer.hidden + layer.in_dim].transpose(1, 0, 2))
            for l, (layer, r) in enumerate(zip(layers, waves.pos))]

    def forward(self, layers: list[LstmLayer], x: np.ndarray) -> np.ndarray:
        """Run a (B, L, in_dim) batch through the stack, keeping the cache;
        returns the top layer's final (hidden, B) state (workspace memory)."""
        block = self.waves.block
        self.waves.fill(layers)
        self.w_h[...] = block[:, : len(self.w_h)].T
        self.xs[...] = x.transpose(1, 2, 0)
        for col, z, cell in self.forward_waves:
            np.matmul(block, col, out=z)
            _cell(*cell)
        return self.top

    def backward(self, dh_top: np.ndarray):
        """BPTT through every layer at once, wave by wave in reverse, given
        the gradient of the top layer's final state; returns each layer's
        (dW, db).

        Each wave's gate deltas replace its gates, and its dead rows are
        zeroed, so one matmul by the block's transposed h columns gives every
        layer's dh: its own recurrent term plus the input term from the layer
        above. The bottom layer's input gradient is never formed.
        """
        w_h, dh = self.w_h, self.dh
        dh[...] = 0.0
        self.dc[...] = 0.0
        dh[: len(dh_top)] = dh_top
        for ifo, g, i, f, o, c, tc, dhl, dcl, dead, dz in self.backward_waves:
            dcl += dhl * o * (1.0 - tc**2)
            # the factors that need dc, i and g, before those are overwritten
            dc_i, dc_g, dc_c, dh_tc = dcl * i, dcl * g, dcl * c, dhl * tc
            dcl *= f
            np.multiply(ifo, 1.0 - ifo, out=ifo)  # sigmoid' of i, f, o
            i *= dc_g
            f *= dc_c
            o *= dh_tc
            np.multiply(dc_i, 1.0 - g**2, out=g)
            for v in dead:
                v[...] = 0.0
            np.matmul(w_h, dz, out=dh)
        grads = []
        for d, col in self.contractions:
            d = d.reshape(len(d) * d.shape[1], -1)
            col = col.reshape(len(col), -1)
            grads.append((d @ col.T, d.sum(axis=1)))
        return grads


def _training_workspace(net: LstmNetwork, batch: int, steps: int) -> _Workspace:
    """The network's workspace for this batch shape, built in place of the
    one it holds when the batch shape or the stack differs."""
    key = batch, steps, tuple((l.in_dim, l.hidden) for l in net.layers)
    if net._workspace is None or net._workspace[0] != key:
        net._workspace = None  # never hold two
        net._workspace = key, _Workspace(net.layers, batch, steps)
    return net._workspace[1]


def lstm_loss_and_grad(net: LstmNetwork, inputs, targets, *, trusted: bool = False):
    """MSE over the batch plus exact BPTT gradients, packed flat; ``trusted``
    as for ``lstm_forward_batch``."""
    x = _check_batch(net, inputs, trusted)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError(f"targets must have shape ({x.shape[0]},), got {y.shape}")

    ws = _training_workspace(net, *x.shape[:2])
    h_last = ws.forward(net.layers, x)
    pred = _head(net, h_last)

    resid = pred - y
    loss = float(np.mean(resid**2))
    dpre = (2.0 / x.shape[0]) * resid
    if net.head_activation == "tanh":
        dpre = dpre * (1.0 - pred**2)

    grads = ws.backward(net.head[:, None] * dpre[None, :])
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
