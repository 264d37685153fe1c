"""Optimizers: Adam against a reference loop, L-BFGS against closed forms,
and the generic train() loop semantics."""

import numpy as np
import pytest

from kanbench.bspline import SplineSpec
from kanbench.kan import kan_init
from kanbench.lstm import lstm_init
from kanbench.numcore import make_rng
from kanbench.optim import (
    AdamState,
    LbfgsState,
    TrainConfig,
    TrainingDiverged,
    adam_init,
    adam_step,
    lbfgs_step,
    train,
    two_loop_direction,
)


def rosenbrock(p):
    x, y = p
    return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2


def rosenbrock_grad(p):
    x, y = p
    return np.array([-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)])


class TestAdam:
    def test_matches_reference_loop(self):
        """Independent re-derivation of bias-corrected Adam, step by step."""
        lr, b1, b2, eps = 3e-2, 0.9, 0.999, 1e-8
        ours = np.array([-1.2, 1.0])
        state = adam_init(2, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref = np.array([-1.2, 1.0])
        m = np.zeros(2)
        v = np.zeros(2)
        for t in range(1, 201):
            g = rosenbrock_grad(ref)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
            ours = adam_step(state, ours, rosenbrock_grad(ours))
            assert np.allclose(ours, ref, rtol=1e-13, atol=1e-13)

    def test_zero_gradient_leaves_params(self):
        state = adam_init(3)
        p = np.array([1.0, -2.0, 0.5])
        p2 = adam_step(state, p, np.zeros(3))
        assert np.array_equal(p2, p)
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        # bias correction at t=1 gives an update of exactly lr*sign(g) when |g| >> eps
        state = adam_init(2, lr=1e-3)
        p = adam_step(state, np.zeros(2), np.array([5.0, -80.0]))
        assert np.allclose(p, [-1e-3, 1e-3], rtol=1e-6)

    def test_direction_scale_equivariant_at_t1(self):
        g = np.array([3.0, -0.2, 7.0])
        p1 = adam_step(adam_init(3), np.zeros(3), g)
        p2 = adam_step(adam_init(3), np.zeros(3), 1000.0 * g)
        assert np.array_equal(np.sign(p1), np.sign(p2))

    def test_rosenbrock_convergence(self):
        p = np.array([-1.2, 1.0])
        state = adam_init(2, lr=3e-2)
        f500 = None
        for step in range(1, 5001):
            p = adam_step(state, p, rosenbrock_grad(p))
            if step == 500:
                f500 = rosenbrock(p)
        assert f500 < 1.0
        assert rosenbrock(p) < 1e-2

    def test_shape_mismatch_rejected(self):
        state = adam_init(3)
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, np.zeros(3), np.zeros(4))

    def test_defaults(self):
        s = adam_init(1)
        assert (s.lr, s.beta1, s.beta2, s.eps) == (1e-3, 0.9, 0.999, 1e-8)


class TestLbfgs:
    def quadratic(self, seed=42, dim=10):
        rng = make_rng(seed)
        m = rng.normal(size=(dim, dim))
        a = m @ m.T + 10.0 * np.eye(dim)
        b = rng.normal(size=dim)

        def loss_and_grad(x):
            return float(0.5 * x @ a @ x - b @ x), a @ x - b

        return a, b, loss_and_grad

    def test_empty_memory_direction_is_negative_gradient(self):
        state = LbfgsState()
        g = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(two_loop_direction(state, g), -g)

    def test_spd_quadratic_reaches_solver_solution(self):
        a, b, lg = self.quadratic()
        x_star = np.linalg.solve(a, b)  # closed-form oracle
        x = np.zeros(10)
        state = LbfgsState()
        for it in range(1, 31):
            x, _, stalled = lbfgs_step(state, lg, x)
            if np.linalg.norm(a @ x - b) < 1e-8:
                break
        assert np.linalg.norm(a @ x - b) < 1e-8
        assert it <= 30
        assert np.allclose(x, x_star, atol=1e-7)

    def test_zero_gradient_stalls(self):
        a, b, lg = self.quadratic(seed=3)
        x_star = np.linalg.solve(a, b)
        state = LbfgsState()
        x, alpha, stalled = lbfgs_step(state, lg, x_star.copy())
        # gradient at the exact minimum is ~1e-15, not exactly zero; force it
        def at_min(x):
            return 0.0, np.zeros(10)

        x2, alpha2, stalled2 = lbfgs_step(LbfgsState(), at_min, np.ones(10))
        assert stalled2 and alpha2 == 0.0
        assert np.array_equal(x2, np.ones(10))

    def test_curvature_condition_guards_memory(self):
        state = LbfgsState()
        _, _, lg = self.quadratic(seed=8)
        x = np.zeros(10)
        for _ in range(5):
            x, _, _ = lbfgs_step(state, lg, x)
        for s, y, rho in state.pairs:
            assert s @ y > 1e-10
            assert rho == pytest.approx(1.0 / (s @ y))

    def test_memory_bounded(self):
        state = LbfgsState(m_mem=3)
        _, _, lg = self.quadratic(seed=9, dim=20)
        x = np.zeros(20)
        for _ in range(10):
            x, _, stalled = lbfgs_step(state, lg, x)
            if stalled:
                break
        assert len(state.pairs) <= 3

    def test_nonfinite_start_rejected(self):
        def bad(x):
            return float("nan"), np.zeros(2)

        with pytest.raises(ValueError, match="finite"):
            lbfgs_step(LbfgsState(), bad, np.zeros(2))


class TestTrainLoop:
    def sine_kan(self, seed=0):
        rng = make_rng(seed)
        net = kan_init([1, 5, 1], SplineSpec(5, 3), rng)
        x = np.linspace(0, 1, 100)[:, None]
        y = np.sin(2 * np.pi * x[:, 0])
        return net, x, y

    def test_zero_epochs_reports_initial_rmse_only(self):
        net, x, y = self.sine_kan()
        report = train(net, x, y, TrainConfig(optimizer="lbfgs", max_epochs=0))
        assert report.epochs_run == 0
        assert len(report.rmse_history) == 1
        assert report.wall_seconds >= 0.0

    def test_kan_sine_converges_under_lbfgs(self):
        net, x, y = self.sine_kan()
        report = train(net, x, y, TrainConfig(optimizer="lbfgs", max_epochs=100, tol=0.0))
        assert report.final_rmse < 0.02

    def test_lbfgs_history_monotone_on_convex_problem(self):
        # single-layer network output is linear in its parameters, so the
        # MSE is convex and sufficient decrease forces monotone RMSE
        rng = make_rng(5)
        net = kan_init([2, 1], SplineSpec(4, 2), rng)
        x = rng.uniform(0, 1, size=(40, 2))
        y = rng.normal(size=40)
        report = train(net, x, y, TrainConfig(optimizer="lbfgs", max_epochs=30, tol=0.0))
        hist = np.array(report.rmse_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_adam_trains_lstm(self):
        rng = make_rng(2)
        net = lstm_init(1, 4, 1, rng)
        x = rng.normal(size=(30, 6, 1))
        y = 0.5 * x[:, -1, 0]
        report = train(
            net, x, y, TrainConfig(optimizer="adam", max_epochs=30, lr=1e-2, shuffle_seed=1)
        )
        assert report.final_rmse < report.rmse_history[0]
        assert report.epochs_run <= 30

    def test_early_stop_on_plateau(self):
        net, x, y = self.sine_kan()
        y = np.zeros_like(y)  # trivially fit; improvement dies instantly
        report = train(
            net, x, y, TrainConfig(optimizer="lbfgs", max_epochs=500, tol=1e-6, patience=10)
        )
        assert report.epochs_run < 500
        assert report.stopped_early or report.stalled

    def test_divergence_names_epoch(self):
        rng = make_rng(0)
        net = kan_init([2, 1], SplineSpec(3, 2), rng)
        x = rng.uniform(0, 1, size=(16, 2))
        y = rng.normal(size=16) * 5
        cfg = TrainConfig(optimizer="adam", max_epochs=20, lr=1e200, batch_size=0)
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(net, x, y, cfg)

    def test_lbfgs_zero_gradient_start_stalls_after_one_epoch(self):
        net = kan_init([2, 3, 1], SplineSpec(3, 2), make_rng(0))
        net.unpack(np.zeros(net.pack().size))  # zero output and zero gradient everywhere
        x = make_rng(1).uniform(0, 1, size=(16, 2))
        report = train(net, x, np.zeros(16), TrainConfig(optimizer="lbfgs", max_epochs=20))
        assert report.stalled and not report.stopped_early
        assert report.epochs_run == 1
        assert report.rmse_history == [0.0, 0.0]

    def test_lbfgs_nonfinite_start_names_epoch_1(self):
        # finite targets whose squared residuals overflow: the loss is inf
        rng = make_rng(2)
        net = kan_init([2, 1], SplineSpec(3, 2), rng)
        x = rng.uniform(0, 1, size=(16, 2))
        with pytest.raises(TrainingDiverged, match="diverged at epoch 1: loss/gradient not finite"):
            train(net, x, np.full(16, 1e200), TrainConfig(optimizer="lbfgs", max_epochs=20))

    def test_train_determinism(self):
        reports = []
        finals = []
        for _ in range(2):
            net, x, y = self.sine_kan(seed=3)
            r = train(net, x, y, TrainConfig(optimizer="lbfgs", max_epochs=15, tol=0.0))
            reports.append(r.rmse_history)
            finals.append(net.pack())
        assert reports[0] == reports[1]
        assert np.array_equal(finals[0], finals[1])

    @pytest.mark.parametrize("optimizer", ["adam", "lbfgs"])
    def test_encoded_training_equals_raw_loop(self, optimizer):
        # train() encodes the windows once; a loop feeding raw windows (Adam:
        # raw minibatches in the same shuffled order) must end bit-equal
        rng = make_rng(40)
        x = rng.uniform(0.0, 1.0, size=(100, 4, 3))
        y = rng.uniform(0.0, 1.0, size=100)
        config = TrainConfig(optimizer=optimizer, lr=1e-2, batch_size=32, max_epochs=2,
                             shuffle_seed=5)
        net = kan_init([12, 4, 1], SplineSpec(3, 2), make_rng(41))
        ref = kan_init([12, 4, 1], SplineSpec(3, 2), make_rng(41))
        report = train(net, x, y, config)
        assert report.epochs_run == 2

        params = ref.pack()
        if optimizer == "adam":
            state = adam_init(params.size, config.lr, config.beta1, config.beta2, config.eps)
            order_rng = make_rng(config.shuffle_seed)
            for _ in range(config.max_epochs):
                order = order_rng.permutation(len(y))
                for lo in range(0, len(y), config.batch_size):
                    idx = order[lo : lo + config.batch_size]
                    _, grads = ref.batch_loss_and_grad(x[idx], y[idx])
                    params = adam_step(state, params, grads)
                    ref.unpack(params)
        else:
            state = LbfgsState(m_mem=config.lbfgs_memory, max_ls_steps=config.max_ls_steps)

            def raw_loss_and_grad(flat):
                ref.unpack(flat)
                return ref.batch_loss_and_grad(x, y)

            for _ in range(config.max_epochs):
                params, _, _ = lbfgs_step(state, raw_loss_and_grad, params)
                ref.unpack(params)
        assert np.array_equal(net.pack(), ref.pack())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="sgd")
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=-2)
