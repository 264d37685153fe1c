"""Iterative multi-horizon forecasting shared by both model families.

One-step models are rolled forward: each predicted scaled close is written
into a pseudo-row (a copy of the window's last row with close and adj_close
overwritten) appended to the window, and the window slides one step.
Predictions are never clamped — spline-domain clamping already handles
out-of-range inputs on the KAN side.

A model sees its windows through ``model.encode``, which maps every row on
its own, independent of the parameters. So a rollout encodes the seed
windows once and each step only its one new pseudo-row per window. This
module owns the rollout's rules once: the pseudo-row, the per-step
finiteness check and the NaN-padded result. The steps themselves come from
a generator that yields each step's predictions and takes the next encoded
pseudo-rows by ``send``:

- A model with a ``rollout_steps`` method supplies its own; the LSTM's
  rolls the steps as a wavefront (see ``lstm``).
- Any other model, the spline network among them, is rolled by the step
  loop here. It keeps a tape of encoded rows per encoded array and passes
  the model views of L consecutive tape rows without copying, rebuilt as
  the encoding's own type so the model trusts them as it trusts
  ``encode``'s output. The tape's first L rows are the seed encoding,
  which is dropped once copied, so the steps do not carry both. The tape
  holds at most L + min(H, L) - 1 rows, so its size does not grow with the
  horizon: when the next row would not fit, the window's last L - 1 rows
  slide to the front. The spline network's encoding is its first layer's
  silu and basis features, which hold only while that layer's
  ``SplineSpec`` stays as it was when they were made.

Each window may have its own horizon, given in non-increasing order, so
that one rollout serves several horizons: at step s only the prefix of
windows whose horizon exceeds s goes to the model, and the (B, max H)
result holds NaN past each window's horizon. A window's predictions do not
depend on the other windows in the batch, up to the rounding of a matmul
over a different number of rows. A rollout raises on the first non-finite
prediction, so every prediction it returns is finite.

``kanbench forecast`` rolls one window through ``iterative_forecast`` and
writes its ``ForecastTrace`` with ``write_trace_csv``.
"""

from dataclasses import dataclass

import numpy as np

from .data import ADJ_CLOSE, CLOSE, scaler_inverse


@dataclass
class ForecastTrace:
    horizon: int
    predictions: np.ndarray  # (H,) finite scaled closes


def _close_columns(n_features: int, close_col):
    """Resolve which columns the prediction overwrites in pseudo-rows."""
    if close_col is None:
        close_col = 0 if n_features == 1 else CLOSE
    if not 0 <= close_col < n_features:
        raise ValueError(f"close_col {close_col} out of range for {n_features} features")
    adj_close_col = ADJ_CLOSE if n_features > max(CLOSE, ADJ_CLOSE) else None
    return close_col, adj_close_col


def iterative_forecast(
    model,
    seed_window,
    horizon: int,
    close_col: int | None = None,
) -> ForecastTrace:
    """Chain one-step predictions H times from one (L, F) scaled window."""
    window = np.asarray(seed_window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError(f"seed window must be 2-D (L, F), got shape {window.shape}")
    preds = iterative_forecast_batch(model, window[None], horizon, close_col)
    return ForecastTrace(horizon, preds[0])


def _window_horizons(horizon, n_windows: int):
    """Per-window horizons and their maximum, from an int or a non-increasing
    sequence of one int per window."""
    h = np.asarray(horizon)
    if h.dtype.kind not in "iu" or h.ndim > 1 or (h.ndim == 1 and h.shape != (n_windows,)):
        raise ValueError(f"horizon must be an int or {n_windows} ints, one per window, "
                         f"got {horizon!r}")
    if h.min() < 1:
        raise ValueError("horizon must be >= 1")
    if h.ndim == 0:
        return np.full(n_windows, int(h)), int(h)
    if np.any(np.diff(h) > 0):
        raise ValueError("per-window horizons must be non-increasing")
    return h, int(h[0])


def iterative_forecast_batch(
    model,
    seed_windows,
    horizon,
    close_col: int | None = None,
) -> np.ndarray:
    """Roll many (L, F) windows forward at once; returns (B, max H) predictions.

    ``horizon`` is one int for every window, or one per window in
    non-increasing order; a window's row is NaN past its own horizon. A
    batch of no windows is refused, whatever the horizon.
    """
    windows = np.asarray(seed_windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"seed windows must be 3-D (B, L, F), got shape {windows.shape}")
    n = windows.shape[0]
    if n == 0:
        raise ValueError(f"seed windows must hold at least one window, got shape {windows.shape}")
    horizons, h_max = _window_horizons(horizon, n)
    close_col, adj_close_col = _close_columns(windows.shape[2], close_col)
    # windows still rolling at each step: a prefix, as horizons do not increase
    live = n - np.searchsorted(horizons[::-1], np.arange(h_max), side="right")

    encoded = model.encode(windows)
    rollout = getattr(model, "rollout_steps", None)
    steps = rollout(encoded, live) if rollout else _tape_steps(model, encoded, live)
    del encoded  # the steps keep what they need of it
    row = windows[:, -1, :].copy()  # the raw last row, carried into each pseudo-row
    preds = np.full((n, h_max), np.nan)
    new = None
    for step in range(h_max):
        p = steps.send(new)
        if not np.isfinite(p).all():
            raise RuntimeError(f"non-finite prediction at step {step + 1}")
        preds[: live[step], step] = p
        if step + 1 == h_max:
            break
        m = live[step + 1]
        row[:m, close_col] = p[:m]
        if adj_close_col is not None:
            row[:m, adj_close_col] = p[:m]
        new = model.encode(row[:m, None, :])
    return preds


def _tape_steps(model, encoded, live):
    """The step loop over an encoded tape, as a generator: it yields step
    s's predictions from the first live[s] windows, then takes the next
    step's encoded pseudo-rows by ``send``."""
    n, lookback = encoded[0].shape[:2]
    h_max = len(live)
    rows = lookback + min(h_max, lookback) - 1
    wrap = type(encoded)
    tape = []
    for seed in encoded:
        t = np.empty((n, rows) + seed.shape[2:])
        t[:, :lookback] = seed
        tape.append(t)
    del encoded, seed  # the tape holds the seed encoding now
    start = 0  # the current window is tape rows start .. start + L - 1
    for step in range(h_max):
        new = yield model.predict_window_batch(
            wrap(t[: live[step], start : start + lookback] for t in tape))
        m = live[step + 1]
        start += 1
        if start + lookback > rows:  # tape full: slide the window's L - 1 kept rows to the front
            for t in tape:
                t[:m, : lookback - 1] = t[:m, start : start + lookback - 1]
            start = 0
        for t, e in zip(tape, new):
            t[:m, start + lookback - 1] = e[:, 0]


def write_trace_csv(trace: ForecastTrace, path, scaler, price_feature: int) -> None:
    """Serialize a trace as step, predicted_scaled, predicted_price, the price
    read back through ``scaler``'s column ``price_feature``."""
    prices = scaler_inverse(scaler, trace.predictions, price_feature)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,predicted_scaled,predicted_price\n")
        for step, (pred, price) in enumerate(zip(trace.predictions, prices), start=1):
            fh.write(f"{step},{float(pred)!r},{float(price)!r}\n")
