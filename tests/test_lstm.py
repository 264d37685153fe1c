"""LSTM: gate-equation oracle, BPTT gradient checks, serialization."""

import json
import math

import numpy as np
import pytest

from kanbench.lstm import (
    LstmLayer,
    LstmNetwork,
    from_json_dict,
    lstm_forward_batch,
    lstm_init,
    lstm_loss_and_grad,
    to_json_dict,
)
from kanbench.numcore import make_rng


def small_net(input_dim=3, hidden=5, layers=2, seed=0, head="linear"):
    return lstm_init(input_dim, hidden, layers, make_rng(seed), head)


def scalar_sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestInit:
    def test_shapes_and_biases(self):
        net = small_net(input_dim=4, hidden=6, layers=2)
        l0, l1 = net.layers
        assert l0.w_i.shape == (6, 6 + 4)
        assert l1.w_i.shape == (6, 6 + 6)
        assert np.all(l0.b_f == 1.0) and np.all(l1.b_f == 1.0)
        assert np.all(l0.b_i == 0.0) and np.all(l0.b_o == 0.0) and np.all(l0.b_g == 0.0)
        assert net.head.shape == (6,)

    def test_glorot_bounds(self):
        net = small_net(input_dim=4, hidden=6, layers=1, seed=3)
        limit = np.sqrt(6.0 / (6 + 10))
        for name in ("w_i", "w_f", "w_o", "w_g"):
            w = getattr(net.layers[0], name)
            assert np.all(np.abs(w) <= limit)

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
        w = {
            "w_i": np.array([[0.5, 1.0]]),
            "w_f": np.array([[-0.3, 0.4]]),
            "w_o": np.array([[0.2, -0.6]]),
            "w_g": np.array([[0.8, 0.1]]),
        }
        b = {
            "b_i": np.array([0.1]),
            "b_f": np.array([1.0]),
            "b_o": np.array([-0.2]),
            "b_g": np.array([0.05]),
        }
        layer = LstmLayer(1, 1, **w, **b)
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


class TestGradients:
    @pytest.mark.parametrize("layers,head", [(1, "linear"), (1, "tanh"), (2, "linear"), (2, "tanh")])
    def test_matches_central_difference(self, layers, head):
        net = small_net(input_dim=2, hidden=4, layers=layers, seed=layers, head=head)
        rng = make_rng(23)
        x = rng.normal(size=(3, 6, 2))
        y = rng.normal(size=3)
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

    def test_dict_round_trip_predicts_identically(self):
        net = small_net(seed=61)
        clone = from_json_dict(to_json_dict(net))
        x = make_rng(8).normal(size=(3, 5, 3))
        assert np.array_equal(lstm_forward_batch(net, x), lstm_forward_batch(clone, x))
