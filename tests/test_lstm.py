"""LSTM: gate-equation oracles, BPTT gradient checks, the wavefront
schedule, the training workspace, serialization.

The per-gate reference below is the LSTM as first written: four separate
(hidden, hidden + in) gate matrices, layer after layer, a list of per-step
caches and BPTT that accumulates each gate's gradient step by step. The
wavefront kernel in kanbench.lstm must agree with it.
"""

import copy
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from kanbench import lstm
from kanbench.forecast import iterative_forecast_batch
from kanbench.lstm import (
    LstmLayer,
    LstmNetwork,
    from_json_dict,
    lstm_forward_batch,
    lstm_init,
    lstm_loss_and_grad,
    to_json_dict,
)
from kanbench.numcore import make_rng, sigmoid
from kanbench.optim import TrainConfig, train


def small_net(input_dim=3, hidden=5, layers=2, seed=0, head="linear"):
    return lstm_init(input_dim, hidden, layers, make_rng(seed), head)


def scalar_sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


GATES = ("i", "f", "o", "g")


def ref_sigmoid(x):
    """Exp-based logistic, stable on both sides."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_gate(net):
    """Each layer's fused w/b split into the per-gate dict the reference reads."""
    layers = []
    for layer in net.layers:
        ws = np.split(layer.w, 4)
        bs = np.split(layer.b, 4)
        layers.append({**{f"w_{g}": w for g, w in zip(GATES, ws)},
                       **{f"b_{g}": b for g, b in zip(GATES, bs)}})
    return layers


def ref_run_layers(layers, x):
    """Per-gate forward over a (B, L, in) batch: the top h-stream and caches."""
    batch, steps, _ = x.shape
    caches = []
    seq = x
    for p in layers:
        hidden = p["b_i"].size
        h = np.zeros((batch, hidden))
        c = np.zeros((batch, hidden))
        hs = np.empty((batch, steps, hidden))
        cache = []
        for t in range(steps):
            hx = np.concatenate([h, seq[:, t, :]], axis=1)
            i = ref_sigmoid(hx @ p["w_i"].T + p["b_i"])
            f = ref_sigmoid(hx @ p["w_f"].T + p["b_f"])
            o = ref_sigmoid(hx @ p["w_o"].T + p["b_o"])
            g = np.tanh(hx @ p["w_g"].T + p["b_g"])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h = o * tc
            hs[:, t, :] = h
            cache.append({"hx": hx, "i": i, "f": f, "o": o, "g": g, "c_prev": c, "tc": tc})
            c = c_new
        caches.append(cache)
        seq = hs
    return seq, caches


def ref_forward(layers, head, head_activation, x):
    top, _ = ref_run_layers(layers, x)
    pre = top[:, -1, :] @ head
    return np.tanh(pre) if head_activation == "tanh" else pre


def ref_loss_and_grad(layers, head, head_activation, x, y):
    """Per-gate BPTT; the gradient is packed w_i..w_g, b_i..b_g per layer, then head."""
    batch, steps, _ = x.shape
    top, caches = ref_run_layers(layers, x)
    h_last = top[:, -1, :]
    pre = h_last @ head
    pred = np.tanh(pre) if head_activation == "tanh" else pre
    resid = pred - y
    loss = float(np.mean(resid**2))
    dpre = (2.0 / batch) * resid
    if head_activation == "tanh":
        dpre = dpre * (1.0 - pred**2)
    d_head = h_last.T @ dpre
    grads = [{k: np.zeros_like(v) for k, v in p.items()} for p in layers]
    dh_seq = np.zeros_like(top)
    dh_seq[:, -1, :] = dpre[:, None] * head[None, :]
    for p, gr, cache in zip(reversed(layers), reversed(grads), reversed(caches)):
        hidden = p["b_i"].size
        dx_seq = np.zeros((batch, steps, p["w_i"].shape[1] - hidden))
        dh = np.zeros((batch, hidden))
        dc = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            st = cache[t]
            dh = dh + dh_seq[:, t, :]
            dc = dc + dh * st["o"] * (1.0 - st["tc"] ** 2)
            dz = {
                "i": dc * st["g"] * st["i"] * (1.0 - st["i"]),
                "f": dc * st["c_prev"] * st["f"] * (1.0 - st["f"]),
                "o": dh * st["tc"] * st["o"] * (1.0 - st["o"]),
                "g": dc * st["i"] * (1.0 - st["g"] ** 2),
            }
            dhx = np.zeros_like(st["hx"])
            for name in GATES:
                gr[f"w_{name}"] += dz[name].T @ st["hx"]
                gr[f"b_{name}"] += dz[name].sum(axis=0)
                dhx += dz[name] @ p[f"w_{name}"]
            dh = dhx[:, :hidden]
            dx_seq[:, t, :] = dhx[:, hidden:]
            dc = dc * st["f"]
        dh_seq = dx_seq
    flat = [gr[f"{kind}_{name}"].ravel() for gr in grads for kind in "wb" for name in GATES]
    flat.append(d_head.ravel())
    return loss, np.concatenate(flat)


def old_order_params(layers, head):
    """The flat params vector as per-gate checkpoints store it."""
    parts = [p[f"{kind}_{name}"].ravel() for p in layers for kind in "wb" for name in GATES]
    return np.concatenate(parts + [head.ravel()])


def assert_close(got, want, tol=1e-12):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(np.asarray(got) - want))) <= tol * scale


class TestInit:
    def test_shapes_and_biases(self):
        # w holds the i, f, o, g gate rows; b the matching bias blocks
        net = small_net(input_dim=4, hidden=6, layers=2)
        l0, l1 = net.layers
        assert l0.w[:6].shape == (6, 6 + 4) and l0.w.shape == (24, 10)
        assert l1.w[:6].shape == (6, 6 + 6) and l1.w.shape == (24, 12)
        assert np.all(l0.b[6:12] == 1.0) and np.all(l1.b[6:12] == 1.0)
        assert np.all(l0.b[:6] == 0.0) and np.all(l0.b[12:18] == 0.0) and np.all(l0.b[18:] == 0.0)
        assert net.head.shape == (6,)

    def test_glorot_bounds(self):
        net = small_net(input_dim=4, hidden=6, layers=1, seed=3)
        limit = np.sqrt(6.0 / (6 + 10))
        for w in np.split(net.layers[0].w, 4):
            assert np.all(np.abs(w) <= limit)

    @pytest.mark.parametrize("input_dim,hidden,layers", [(3, 5, 2), (6, 10, 2), (1, 1, 3)])
    def test_init_equals_per_gate_draws(self, input_dim, hidden, layers):
        # the fused init draws the same stream as four per-gate draws per layer
        rng = make_rng(17)
        want = []
        for li in range(layers):
            in_dim = input_dim if li == 0 else hidden
            limit = np.sqrt(6.0 / (hidden + in_dim + hidden))
            want += [rng.uniform(-limit, limit, size=(hidden, hidden + in_dim)).ravel()
                     for _ in GATES]
            want += [np.zeros(hidden), np.ones(hidden), np.zeros(hidden), np.zeros(hidden)]
        want.append(rng.uniform(-np.sqrt(6.0 / (hidden + 1)), np.sqrt(6.0 / (hidden + 1)),
                                size=hidden))
        net = lstm_init(input_dim, hidden, layers, make_rng(17))
        assert np.array_equal(net.pack(), np.concatenate(want))

    def test_layer_shapes_validated(self):
        with pytest.raises(ValueError, match="w shape"):
            LstmLayer(2, 3, np.zeros((3, 5)), np.zeros(12))
        with pytest.raises(ValueError, match="b shape"):
            LstmLayer(2, 3, np.zeros((12, 5)), np.zeros(3))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            lstm_init(0, 4, 1, make_rng(0))
        with pytest.raises(ValueError):
            lstm_init(2, 4, 0, make_rng(0))

    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError):
            lstm_init(2, 4, 1, make_rng(0), "relu")


class TestForwardOracle:
    def test_two_step_hand_computation(self):
        """Single unit, hand-set weights: trace the gate equations by hand."""
        w = np.array([
            [0.5, 1.0],  # i
            [-0.3, 0.4],  # f
            [0.2, -0.6],  # o
            [0.8, 0.1],  # g
        ])
        b = np.array([0.1, 1.0, -0.2, 0.05])
        layer = LstmLayer(1, 1, w, b)
        net = LstmNetwork([layer], head=np.array([1.3]), head_activation="linear")

        h = c = 0.0
        for x in (0.3, -0.2):
            i = scalar_sigmoid(0.5 * h + 1.0 * x + 0.1)
            f = scalar_sigmoid(-0.3 * h + 0.4 * x + 1.0)
            o = scalar_sigmoid(0.2 * h - 0.6 * x - 0.2)
            g = math.tanh(0.8 * h + 0.1 * x + 0.05)
            c = f * c + i * g
            h = o * math.tanh(c)
        expected = 1.3 * h
        got = lstm_forward_batch(net, np.array([[[0.3], [-0.2]]]))[0]
        assert got == pytest.approx(expected, abs=1e-14)

    def test_tanh_head(self):
        net = small_net(head="tanh", seed=7)
        lin = small_net(head="linear", seed=7)
        x = make_rng(1).normal(size=(4, 6, 3))
        assert np.allclose(lstm_forward_batch(net, x), np.tanh(lstm_forward_batch(lin, x)))

    def test_all_zero_params_predict_zero(self):
        net = small_net()
        net.unpack(np.zeros(net.n_params))
        x = make_rng(2).normal(size=(3, 5, 3))
        assert np.array_equal(lstm_forward_batch(net, x), np.zeros(3))

    def test_batch_matches_single(self):
        # rows are independent: B windows at once equal each window with B=1
        net = small_net(seed=11)
        x = make_rng(4).normal(size=(6, 8, 3))
        batch = lstm_forward_batch(net, x)
        singles = [net.predict_window_batch(w[None])[0] for w in x]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_stacking_feeds_hidden_stream_up(self):
        # a 2-layer net differs from its own bottom layer alone
        net = small_net(layers=2, seed=5)
        bottom = LstmNetwork([net.layers[0]], head=np.ones(5), head_activation="linear")
        x = make_rng(6).normal(size=(2, 4, 3))
        assert not np.allclose(lstm_forward_batch(net, x), lstm_forward_batch(bottom, x))

    def test_input_shape_validated(self):
        net = small_net()
        with pytest.raises(ValueError):
            lstm_forward_batch(net, np.zeros((2, 4, 99)))
        with pytest.raises(ValueError):
            lstm_forward_batch(net, np.zeros((4, 3)))  # a window without its batch axis

    def test_encoded_input_is_the_windows(self):
        net = small_net(seed=12)
        x = make_rng(7).normal(size=(5, 6, 3))
        y = make_rng(8).normal(size=5)
        encoded = net.encode(x)
        assert len(encoded) == 1 and np.array_equal(encoded[0], x)
        assert np.array_equal(net.predict_window_batch(encoded), net.predict_window_batch(x))
        loss_e, grad_e = net.batch_loss_and_grad(encoded, y)
        loss_r, grad_r = net.batch_loss_and_grad(x, y)
        assert loss_e == loss_r and np.array_equal(grad_e, grad_r)

    def test_encoded_input_validated(self):
        net = small_net()
        x = np.zeros((2, 4, 3))
        for bad in [(x, x), (), (np.zeros((2, 4, 99)),), (np.full((2, 4, 3), np.nan),)]:
            with pytest.raises(ValueError):
                net.predict_window_batch(bad)
            with pytest.raises(ValueError):
                net.batch_loss_and_grad(bad, np.zeros(2))

    def test_encoded_windows_are_scanned_once(self, monkeypatch):
        # encode scans the windows once; training (both optimizers) and a
        # rollout never scan them again, but a hand-built 1-tuple, and rows
        # selected from one, are scanned before any computation
        net = small_net(seed=13)
        scans = []
        scan = lstm.check_finite
        monkeypatch.setattr(lstm, "check_finite",
                            lambda what, *arrays: scans.append(what) or scan(what, *arrays))
        x = make_rng(9).uniform(0.0, 1.0, size=(40, 4, 3))
        y = make_rng(10).uniform(0.0, 1.0, size=40)
        for optimizer in ("adam", "lbfgs"):
            train(net, x, y, TrainConfig(optimizer=optimizer, max_epochs=2, batch_size=16))
        assert scans == ["inputs"] * 2  # one encode per train call
        scans.clear()
        iterative_forecast_batch(net, x[:5], [6, 4, 4, 1, 1], close_col=0)
        assert scans == ["inputs"] * 6  # the seed windows, then one pseudo-row per step
        scans.clear()

        bad = x[:4].copy()
        bad[2, 1, 0] = np.nan

        def computed(*args, **kwargs):
            raise AssertionError("computation started on rejected input")

        monkeypatch.setattr(lstm, "_rollout_waves", computed)  # the forward pass
        monkeypatch.setattr(lstm, "_training_workspace", computed)  # the training pass
        for features in ((bad,), (bad[[2, 0]],), (bad[1:3],)):
            with pytest.raises(ValueError, match="finite"):
                net.predict_window_batch(features)
            with pytest.raises(ValueError, match="finite"):
                net.batch_loss_and_grad(features, np.zeros(len(features[0])))
        assert scans == ["inputs"] * 6


# (layers, head, batch, steps): windows of 1 and 2 steps are shorter than a
# 3-layer stack, so every wave is a ramp wave with some layer idle.
ORACLE_CASES = [
    *(pytest.param(layers, head, 7, 9, id=f"{head}-{layers}")
      for head in ("linear", "tanh") for layers in (1, 2, 3)),
    *(pytest.param(3, head, batch, steps, id=f"{head}-3-B{batch}-L{steps}")
      for head in ("linear", "tanh") for batch, steps in ((7, 1), (7, 2), (1, 9), (1, 2))),
]


class TestForwardOnlyPasses:
    # inference and rollouts write tanh(c) over the consumed g block, where
    # training keeps a tanh(c) buffer for BPTT: the two must agree bit for bit

    @pytest.mark.parametrize("layers,head,batch,steps", [
        (1, "linear", 5, 7), (2, "tanh", 4, 1), (2, "linear", 32, 20), (3, "tanh", 3, 2)])
    def test_predictions_equal_the_training_pass_bit_for_bit(
            self, monkeypatch, layers, head, batch, steps):
        net = small_net(input_dim=3, hidden=4, layers=layers, seed=60 + layers, head=head)
        rng = make_rng(61)
        x = rng.normal(size=(batch, steps, 3))
        y = rng.normal(size=batch)
        heads = []
        read = lstm._head

        def spy(net, top):  # the prediction that lstm_loss_and_grad's residual subtracts from
            heads.append(read(net, top))
            return heads[-1]

        monkeypatch.setattr(lstm, "_head", spy)
        lstm_loss_and_grad(net, x, y)
        (trained,) = heads
        assert np.array_equal(lstm_forward_batch(net, x), trained)
        assert np.array_equal(iterative_forecast_batch(net, x, 1, close_col=0)[:, 0], trained)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_one_step_rollout_does_the_forward_gate_work(self, monkeypatch, layers):
        # inference is a one-step rollout: both activate the live rows of
        # each wave only, 3·hidden·B gate elements per layer-step
        sizes = []

        def counted(x, **kwargs):
            sizes.append(np.size(x))
            return sigmoid(x, **kwargs)

        monkeypatch.setattr(lstm, "sigmoid", counted)
        net = small_net(input_dim=6, hidden=4, layers=layers, seed=64 + layers)
        windows = make_rng(65).uniform(0.1, 0.9, size=(5, 7, 6))
        iterative_forecast_batch(net, windows, 1)
        rolled = sum(sizes)
        sizes.clear()
        lstm_forward_batch(net, windows)
        assert rolled == sum(sizes) == 3 * 4 * 5 * layers * 7

    def test_forward_batch_holds_no_tanh_c_buffer(self):
        # a full-batch forward at the headline shape (B=984, L=20, 2x10):
        # columns 27, c 20 and gates 80 float64 per batch column, and the
        # prediction; a tanh(c) buffer would add 20
        net = lstm_init(6, 10, 2, make_rng(62))
        x = make_rng(63).normal(size=(984, 20, 6))
        lstm_forward_batch(net, x)
        tracemalloc.start()
        try:
            lstm_forward_batch(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * 984) <= 135


class TestPerGateOracle:
    @pytest.mark.parametrize("layers,head,batch,steps", ORACLE_CASES)
    def test_forward_and_gradient_match(self, layers, head, batch, steps):
        net = small_net(input_dim=3, hidden=6, layers=layers, seed=20 + layers, head=head)
        rng = make_rng(40 + layers)
        x = rng.normal(size=(batch, steps, 3))
        y = rng.normal(size=batch)
        ref = per_gate(net)
        assert_close(lstm_forward_batch(net, x), ref_forward(ref, net.head, head, x))
        loss, grad = lstm_loss_and_grad(net, x, y)
        ref_loss, ref_grad = ref_loss_and_grad(ref, net.head, head, x, y)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_close(grad, ref_grad)

    def test_unequal_layer_widths_match(self):
        # each layer owns its own rows of the block, whatever its width
        rng = make_rng(47)
        layers, in_dim = [], 3
        for hidden in (5, 2, 4):
            limit = np.sqrt(6.0 / (2 * hidden + in_dim))
            layers.append(LstmLayer(in_dim, hidden,
                                    rng.uniform(-limit, limit, size=(4 * hidden, hidden + in_dim)),
                                    rng.normal(scale=0.3, size=4 * hidden)))
            in_dim = hidden
        net = LstmNetwork(layers, head=rng.normal(size=in_dim), head_activation="tanh")
        x = rng.normal(size=(6, 5, 3))
        y = rng.normal(size=6)
        ref = per_gate(net)
        assert_close(lstm_forward_batch(net, x), ref_forward(ref, net.head, "tanh", x))
        loss, grad = lstm_loss_and_grad(net, x, y)
        ref_loss, ref_grad = ref_loss_and_grad(ref, net.head, "tanh", x, y)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_close(grad, ref_grad)


class TestWavefront:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_one_sigmoid_call_per_wave(self, monkeypatch, layers, steps):
        # a stack of n layers over L steps runs in L + n - 1 waves, each with
        # one sigmoid over the i, f, o rows of the layers live at that wave
        sizes = []

        def counted(x, **kwargs):
            sizes.append(np.size(x))
            return sigmoid(x, **kwargs)

        monkeypatch.setattr(lstm, "sigmoid", counted)
        hidden, batch = 4, 3
        net = small_net(input_dim=2, hidden=hidden, layers=layers, seed=layers)
        rng = make_rng(steps)
        x = rng.normal(size=(batch, steps, 2))
        lstm_forward_batch(net, x)
        assert len(sizes) == steps + layers - 1
        assert sum(sizes) == 3 * hidden * batch * layers * steps
        sizes.clear()
        lstm_loss_and_grad(net, x, rng.normal(size=batch))
        assert len(sizes) == steps + layers - 1
        assert sum(sizes) == 3 * hidden * batch * layers * steps


class TestWorkspace:
    """The training pass reuses one workspace per network; reuse must not
    show in any result."""

    def test_reuse_matches_a_fresh_network(self):
        # batch sizes and window lengths alternate, parameters change between
        # calls, and inference (which drops the workspace) comes in between;
        # every call must equal the same call on a fresh copy of the network
        net = small_net(input_dim=3, hidden=5, layers=2, seed=30)
        rng = make_rng(31)
        x = rng.normal(size=(32, 8, 3))
        y = rng.normal(size=32)
        shapes = [(32, 8), (32, 8), (24, 8), (32, 8), (32, 5), (32, 8), (24, 8), (24, 8)]
        for k, (batch, steps) in enumerate(shapes):
            net.unpack(net.pack() + rng.normal(scale=0.05, size=net.n_params))
            if k == 3:
                net.predict_window_batch(x[:5])
            if k == 6:
                iterative_forecast_batch(net, x[:4], [3, 2, 2, 1], close_col=0)
            fresh = from_json_dict(to_json_dict(net))
            loss, grad = lstm_loss_and_grad(net, x[:batch, :steps], y[:batch])
            want_loss, want_grad = lstm_loss_and_grad(fresh, x[:batch, :steps], y[:batch])
            assert loss == want_loss and np.array_equal(grad, want_grad), (batch, steps)

    def test_returned_gradient_is_not_workspace_memory(self):
        net = small_net(seed=32)
        rng = make_rng(33)
        x = rng.normal(size=(6, 7, 3))
        y = rng.normal(size=6)
        _, grad = lstm_loss_and_grad(net, x, y)
        kept = grad.copy()
        lstm_loss_and_grad(net, rng.normal(size=(6, 7, 3)), rng.normal(size=6))
        assert np.array_equal(grad, kept)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))],
                             ids=["deepcopy", "pickle"])
    def test_copies_train_and_predict_like_the_original(self, clone):
        rng = make_rng(34)
        x = rng.uniform(0.0, 1.0, size=(40, 6, 3))
        y = rng.uniform(0.0, 1.0, size=40)
        net = small_net(seed=35)
        lstm_loss_and_grad(net, x[16:32], y[16:32])  # the original holds a workspace
        twin = clone(net)
        arrays = lambda n: [a for l in n.layers for a in l.arrays()] + [n.head]
        assert not any(np.shares_memory(a, b) for a in arrays(net) for b in arrays(twin))
        # the twin's first call has the original's batch shape, other rows
        loss, grad = lstm_loss_and_grad(twin, x[:16], y[:16])
        want_loss, want_grad = lstm_loss_and_grad(net, x[:16], y[:16])
        assert loss == want_loss and np.array_equal(grad, want_grad)
        assert not np.shares_memory(grad, want_grad)
        config = TrainConfig(optimizer="adam", max_epochs=2, batch_size=16)
        for model in (twin, net):
            train(model, x, y, config)
        assert np.array_equal(twin.pack(), net.pack())
        assert np.array_equal(twin.predict_window_batch(x), net.predict_window_batch(x))

    def test_workspace_does_not_outlive_training(self):
        # full-batch Adam holds the largest workspace; the epoch-end RMSE
        # (an inference) drops it, so none is left once train returns
        rng = make_rng(36)
        x = rng.uniform(0.0, 1.0, size=(40, 6, 3))
        y = rng.uniform(0.0, 1.0, size=40)
        net = small_net(seed=37)
        train(net, x, y, TrainConfig(optimizer="adam", max_epochs=2, batch_size=0))
        assert net._workspace is None
        lstm_loss_and_grad(net, x, y)
        assert net._workspace is not None
        iterative_forecast_batch(net, x[:2], [2, 1], close_col=0)
        assert net._workspace is None

    def test_warmed_call_allocates_little(self):
        # a warmed B=32, L=20, 2x10 call allocates only small temporaries and
        # the gradient contraction's transposed copies, not its caches
        net = lstm_init(6, 10, 2, make_rng(38))
        rng = make_rng(39)
        x = rng.normal(size=(32, 20, 6))
        y = rng.normal(size=32)
        lstm_loss_and_grad(net, x, y)
        tracemalloc.start()
        try:
            lstm_loss_and_grad(net, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024


FD_CASES = [
    *(pytest.param(layers, head, 3, 6, id=f"{layers}-{head}")
      for layers in (1, 2) for head in ("linear", "tanh")),
    pytest.param(3, "linear", 3, 1, id="3-linear-B3-L1"),
    pytest.param(3, "tanh", 3, 2, id="3-tanh-B3-L2"),
    pytest.param(3, "linear", 1, 2, id="3-linear-B1-L2"),
    pytest.param(2, "tanh", 1, 6, id="2-tanh-B1-L6"),
]


class TestGradients:
    @pytest.mark.parametrize("layers,head,batch,steps", FD_CASES)
    def test_matches_central_difference(self, layers, head, batch, steps):
        net = small_net(input_dim=2, hidden=4, layers=layers, seed=layers, head=head)
        rng = make_rng(23)
        x = rng.normal(size=(batch, steps, 2))
        y = rng.normal(size=batch)
        _, g = lstm_loss_and_grad(net, x, y)
        flat = net.pack()
        h = 1e-5
        for i in range(0, flat.size, max(1, flat.size // 50)):
            fp = flat.copy(); fp[i] += h
            net.unpack(fp)
            lp, _ = lstm_loss_and_grad(net, x, y)
            fm = flat.copy(); fm[i] -= h
            net.unpack(fm)
            lm, _ = lstm_loss_and_grad(net, x, y)
            assert g[i] == pytest.approx((lp - lm) / (2 * h), rel=1e-4, abs=1e-8)
        net.unpack(flat)

    def test_loss_is_mse(self):
        net = small_net(seed=9)
        rng = make_rng(31)
        x = rng.normal(size=(5, 7, 3))
        y = rng.normal(size=5)
        loss, _ = lstm_loss_and_grad(net, x, y)
        preds = lstm_forward_batch(net, x)
        assert loss == pytest.approx(float(np.mean((preds - y) ** 2)), abs=1e-14)

    def test_zero_residual_zero_gradient(self):
        net = small_net(seed=13)
        x = make_rng(37).normal(size=(4, 5, 3))
        y = lstm_forward_batch(net, x)
        loss, g = lstm_loss_and_grad(net, x, y)
        assert loss == pytest.approx(0.0, abs=1e-28)
        assert np.allclose(g, 0.0, atol=1e-14)


class TestPackUnpack:
    def test_round_trip(self):
        net = small_net(seed=41)
        flat = net.pack()
        assert flat.shape == (net.n_params,)
        other = small_net(seed=77)
        other.unpack(flat)
        assert np.array_equal(other.pack(), flat)

    def test_wrong_length_rejected(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.unpack(np.zeros(3))


class TestSerialization:
    def test_json_round_trip_exact(self):
        net = small_net(seed=55, head="tanh")
        loaded = from_json_dict(json.loads(json.dumps(to_json_dict(net))))
        assert np.array_equal(loaded.pack(), net.pack())
        assert loaded.head_activation == "tanh"
        assert loaded.input_dim == net.input_dim

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            from_json_dict({"kind": "kan"})

    def test_stack_of_several_widths_refused_at_save(self):
        # the checkpoint holds one hidden width, so it could not rebuild this
        rng = make_rng(12)
        layers = [LstmLayer(in_dim, hidden, rng.normal(size=(4 * hidden, hidden + in_dim)),
                            np.zeros(4 * hidden))
                  for in_dim, hidden in ((3, 5), (5, 2), (2, 4))]
        net = LstmNetwork(layers, rng.normal(size=4))
        with pytest.raises(ValueError, match=r"one hidden width, the layers have \[5, 2, 4\]"):
            to_json_dict(net)

    def test_per_gate_params_load_into_fused_blocks(self):
        # a checkpoint's params list is w_i, w_f, w_o, w_g, b_i..b_g per layer
        rng = make_rng(71)
        hidden, input_dim = 3, 2
        ref = []
        for in_dim in (input_dim, hidden):
            p = {f"w_{g}": rng.normal(size=(hidden, hidden + in_dim)) for g in GATES}
            p.update({f"b_{g}": rng.normal(size=hidden) for g in GATES})
            ref.append(p)
        head = rng.normal(size=hidden)
        d = {"kind": "lstm", "input_dim": input_dim, "hidden": hidden, "n_layers": 2,
             "head_activation": "tanh", "params": old_order_params(ref, head).tolist()}
        net = from_json_dict(json.loads(json.dumps(d)))
        for layer, p in zip(net.layers, ref):
            for k, name in enumerate(GATES):
                rows = slice(k * hidden, (k + 1) * hidden)
                assert np.array_equal(layer.w[rows], p[f"w_{name}"])
                assert np.array_equal(layer.b[rows], p[f"b_{name}"])
        assert np.array_equal(net.head, head)
        x = rng.normal(size=(4, 6, input_dim))
        assert_close(lstm_forward_batch(net, x), ref_forward(ref, head, "tanh", x))

    def test_init_forget_bias_lands_in_second_block(self):
        net = from_json_dict(to_json_dict(small_net(input_dim=2, hidden=4, layers=1)))
        b = net.layers[0].b
        assert np.all(b[4:8] == 1.0) and np.all(np.delete(b, range(4, 8)) == 0.0)

    @pytest.mark.parametrize("field,change", [
        ("kind", lambda d: d.pop("kind")),
        ("input_dim", lambda d: d.pop("input_dim")),
        ("hidden", lambda d: d.pop("hidden")),
        ("n_layers", lambda d: d.pop("n_layers")),
        ("head_activation", lambda d: d.pop("head_activation")),
        ("params", lambda d: d.pop("params")),
        ("params", lambda d: d["params"].pop()),
        ("params", lambda d: d.update(params=["x"] * len(d["params"]))),
        ("params", lambda d: d["params"].__setitem__(0, "0.12")),
        ("params", lambda d: d["params"].__setitem__(-1, False)),
        ("hidden", lambda d: d.update(hidden=2.5)),
        ("n_layers", lambda d: d.update(n_layers=0)),
        ("head_activation", lambda d: d.update(head_activation="relu")),
    ], ids=[
        "no-kind", "no-input_dim", "no-hidden", "no-n_layers", "no-head_activation",
        "no-params", "short-params", "text-params", "quoted-params", "bool-params",
        "float-hidden", "zero-n_layers",
        "relu-head",
    ])
    def test_malformed_checkpoint_names_field(self, field, change):
        d = to_json_dict(small_net(seed=3))
        change(d)
        with pytest.raises(ValueError, match=field):
            from_json_dict(d)

    def test_dict_round_trip_predicts_identically(self):
        net = small_net(seed=61)
        clone = from_json_dict(to_json_dict(net))
        x = make_rng(8).normal(size=(3, 5, 3))
        assert np.array_equal(lstm_forward_batch(net, x), lstm_forward_batch(clone, x))
