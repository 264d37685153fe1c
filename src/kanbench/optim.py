"""Trainers: Adam for the sequence model, L-BFGS for the spline network.

Both optimizers see a model only through its flat parameter vector
(``pack``/``unpack``), its ``encode`` of the training windows and a
``batch_loss_and_grad`` callable, so they are model-agnostic. ``train``
encodes the training set once: an encoding depends on the data alone, so
every L-BFGS evaluation and every Adam minibatch (rows picked from the
encoded arrays, rebuilt as the encoding's own type so the model trusts
them as it trusts ``encode``'s output) reads the same features. L-BFGS is
full-batch by construction — the line search needs a deterministic loss —
and uses the standard two-loop recursion with initial Hessian scaling, a
strong-Wolfe line search (bracket + bisection zoom), and a backtracking
fallback along the negative gradient.
"""

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .numcore import check_int, check_real, make_rng


# --------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(
    n_params: int,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    if n_params < 1:
        raise ValueError("n_params must be positive")
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, lr, beta1, beta2, eps)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update; mutates the state, returns new params."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != state.m.shape or grads.shape != state.m.shape:
        raise ValueError(
            f"parameter/gradient shapes {params.shape}/{grads.shape} "
            f"do not match state {state.m.shape}"
        )
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads**2
    m_hat = state.m / (1.0 - state.beta1**state.step)
    v_hat = state.v / (1.0 - state.beta2**state.step)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# --------------------------------------------------------------------------
# L-BFGS


@dataclass
class LbfgsState:
    m_mem: int = 10
    c1: float = 1e-4
    c2: float = 0.9
    max_ls_steps: int = 25
    pairs: deque = field(default_factory=deque)  # (s, y, 1/s@y), newest last
    prev_params: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    prev_loss: float | None = None

    def __post_init__(self):
        if self.m_mem < 1:
            raise ValueError("m_mem must be positive")
        self.pairs = deque(self.pairs, maxlen=self.m_mem)


def two_loop_direction(state: LbfgsState, grad: np.ndarray) -> np.ndarray:
    """Search direction -H·g from the stored (s, y) pairs; -g when empty."""
    q = np.array(grad, dtype=np.float64)
    alphas = []
    for s, y, rho in reversed(state.pairs):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if state.pairs:
        s, y, _ = state.pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(state.pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return -q


def _zoom(loss_and_grad, x, d, f0, dg0, c1, c2, a_lo, a_hi, f_lo, g_lo, budget):
    """Bisection zoom between a_lo (sufficient decrease holds) and a_hi."""
    for _ in range(budget):
        a = 0.5 * (a_lo + a_hi)
        f, g = loss_and_grad(x + a * d)
        dphi = float(g @ d)
        if not np.isfinite(f) or f > f0 + c1 * a * dg0 or f >= f_lo:
            a_hi = a
        else:
            if abs(dphi) <= -c2 * dg0:
                return a, f, g
            if dphi * (a_hi - a_lo) >= 0.0:
                a_hi = a_lo
            a_lo, f_lo, g_lo = a, f, g
    if a_lo > 0.0:  # settle for sufficient decrease without the curvature bound
        return a_lo, f_lo, g_lo
    return None


def _strong_wolfe(loss_and_grad, x, f0, g0, d, dg0, a_init, c1, c2, max_steps):
    """Bracket phase of the strong-Wolfe search; returns (alpha, f, g) or None."""
    a_prev, f_prev, g_prev = 0.0, f0, g0
    a = a_init
    for it in range(max_steps):
        f, g = loss_and_grad(x + a * d)
        dphi = float(g @ d)
        if not np.isfinite(f) or f > f0 + c1 * a * dg0 or (it > 0 and f >= f_prev):
            return _zoom(loss_and_grad, x, d, f0, dg0, c1, c2,
                         a_prev, a, f_prev, g_prev, max_steps)
        if abs(dphi) <= -c2 * dg0:
            return a, f, g
        if dphi >= 0.0:
            return _zoom(loss_and_grad, x, d, f0, dg0, c1, c2,
                         a, a_prev, f, g, max_steps)
        a_prev, f_prev, g_prev = a, f, g
        a *= 2.0
    return None


def lbfgs_step(state: LbfgsState, loss_and_grad, params: np.ndarray):
    """One quasi-Newton step. Returns (new params, step length, stalled).

    A stall (zero gradient, or no acceptable step even along -g) leaves the
    parameters unchanged and tells the caller to stop iterating.
    """
    params = np.asarray(params, dtype=np.float64)
    if state.prev_params is not None and np.array_equal(state.prev_params, params):
        f0, g0 = state.prev_loss, state.prev_grad
    else:
        f0, g0 = loss_and_grad(params)
    if not (np.isfinite(f0) and np.all(np.isfinite(g0))):
        raise ValueError("loss/gradient not finite at the start of an L-BFGS step")

    gnorm = float(np.linalg.norm(g0))
    if gnorm == 0.0:
        state.prev_params, state.prev_grad, state.prev_loss = params, g0, f0
        return params, 0.0, True

    d = two_loop_direction(state, g0)
    dg0 = float(d @ g0)
    if not np.isfinite(dg0) or dg0 >= 0.0:  # not a descent direction: reset
        state.pairs.clear()
        d = -g0
        dg0 = -(gnorm**2)
    a_init = 1.0 if state.pairs else min(1.0, 1.0 / max(1.0, gnorm))

    hit = _strong_wolfe(loss_and_grad, params, f0, g0, d, dg0, a_init,
                        state.c1, state.c2, state.max_ls_steps)
    if hit is None:
        # Fall back to plain backtracking along the negative gradient.
        d = -g0
        a = 1.0 / max(1.0, gnorm)
        for _ in range(60):
            f, g = loss_and_grad(params + a * d)
            if np.isfinite(f) and f <= f0 - state.c1 * a * gnorm**2:
                hit = (a, f, g)
                break
            a *= 0.5
        if hit is None:
            state.prev_params, state.prev_grad, state.prev_loss = params, g0, f0
            return params, 0.0, True

    alpha, f_new, g_new = hit
    new_params = params + alpha * d
    s = alpha * d
    y = g_new - g0
    sy = float(s @ y)
    if sy > 1e-10:
        state.pairs.append((s, y, 1.0 / sy))
    state.prev_params, state.prev_grad, state.prev_loss = new_params, g_new, f_new
    return new_params, alpha, False


# --------------------------------------------------------------------------
# Generic training loop


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, epoch: int, detail: str = ""):
        self.epoch = epoch
        msg = f"training diverged at epoch {epoch}"
        super().__init__(msg + (f": {detail}" if detail else ""))


@dataclass
class TrainConfig:
    optimizer: str = "adam"  # "adam" | "lbfgs"
    max_epochs: int = 100
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32  # Adam minibatch size; 0 means full batch
    tol: float = 1e-6
    patience: int = 10
    shuffle_seed: int = 0
    lbfgs_memory: int = 10
    max_ls_steps: int = 25

    def __post_init__(self):
        if self.optimizer not in ("adam", "lbfgs"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name, least in (("max_epochs", 0), ("batch_size", 0), ("patience", 1),
                            ("shuffle_seed", 0), ("lbfgs_memory", 1), ("max_ls_steps", 1)):
            check_int(getattr(self, name), name, least)
        check_real(self.lr, "lr", above=0)
        check_real(self.eps, "eps", above=0)
        check_real(self.tol, "tol", at_least=0)
        for name in ("beta1", "beta2"):
            check_real(getattr(self, name), name, at_least=0, below=1)


@dataclass
class TrainReport:
    rmse_history: list[float]  # initial RMSE, then one entry per epoch
    wall_seconds: float
    epochs_run: int
    stopped_early: bool
    stalled: bool

    @property
    def final_rmse(self) -> float:
        return self.rmse_history[-1]


def _full_rmse(model, inputs, targets) -> float:
    preds = model.predict_window_batch(inputs)
    return float(np.sqrt(np.mean((preds - targets) ** 2)))


def train(model, inputs, targets, config: TrainConfig) -> TrainReport:
    """Fit the model in place; returns per-epoch train RMSE and wall time.

    Stops at max_epochs, or early once the RMSE improvement over the last
    `patience` epochs drops below `tol`, or when L-BFGS stalls.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError(f"inputs/targets batch mismatch: {x.shape[0]} vs {y.shape[0]}")
    # Overflow during a diverging run is expected and detected via isfinite
    # checks; keep numpy quiet about it.
    with np.errstate(over="ignore", invalid="ignore"):
        return _train_loop(model, x, y, config)


def _train_loop(model, x, y, config: TrainConfig) -> TrainReport:
    t0 = time.perf_counter()
    features = model.encode(x)
    history = [_full_rmse(model, features, y)]
    stopped_early = False
    stalled = False
    epochs_run = 0

    if config.optimizer == "adam":
        params = model.pack()
        state = adam_init(params.size, config.lr, config.beta1, config.beta2, config.eps)
        rng = make_rng(config.shuffle_seed)
        n = x.shape[0]
        bs = config.batch_size if config.batch_size > 0 else n
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(n)
            for lo in range(0, n, bs):
                idx = order[lo : lo + bs]
                batch = type(features)(a[idx] for a in features)
                loss, grads = model.batch_loss_and_grad(batch, y[idx])
                if not (np.isfinite(loss) and np.all(np.isfinite(grads))):
                    raise TrainingDiverged(epoch, f"loss={loss!r}")
                params = adam_step(state, params, grads)
                model.unpack(params)
            epochs_run = epoch
            rmse = _full_rmse(model, features, y)
            if not np.isfinite(rmse):
                raise TrainingDiverged(epoch, f"epoch RMSE={rmse!r}")
            history.append(rmse)
            if _converged(history, config):
                stopped_early = True
                break
    else:
        params = model.pack()
        state = LbfgsState(m_mem=config.lbfgs_memory, max_ls_steps=config.max_ls_steps)

        def full_loss_and_grad(flat):
            model.unpack(flat)
            return model.batch_loss_and_grad(features, y)

        for epoch in range(1, config.max_epochs + 1):
            try:
                params, _, step_stalled = lbfgs_step(state, full_loss_and_grad, params)
            except ValueError as err:
                raise TrainingDiverged(epoch, str(err)) from err
            model.unpack(params)
            epochs_run = epoch
            history.append(float(np.sqrt(state.prev_loss)))
            if step_stalled:
                stalled = True
                break
            if _converged(history, config):
                stopped_early = True
                break

    return TrainReport(
        rmse_history=history,
        wall_seconds=time.perf_counter() - t0,
        epochs_run=epochs_run,
        stopped_early=stopped_early,
        stalled=stalled,
    )


def _converged(history: list[float], config: TrainConfig) -> bool:
    if len(history) < config.patience + 1:
        return False
    window = history[-(config.patience + 1) :]
    return window[0] - min(window[1:]) < config.tol
