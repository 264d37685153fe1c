"""Iterative multi-horizon forecasting shared by both model families.

One-step models are rolled forward: each predicted scaled close is written
into a pseudo-row (a copy of the window's last row with close and adj_close
overwritten) appended to the window, and the window slides one step.
Predictions are never clamped — spline-domain clamping already handles
out-of-range inputs on the KAN side.

A model sees its windows through ``model.encode``, which maps every row on
its own, independent of the parameters. So a rollout keeps a tape of
encoded rows per encoded array: the seed windows are encoded once, each
step encodes only its one new pseudo-row per window, and each step passes
the model views of L consecutive tape rows without copying, rebuilt as the
encoding's own type so the model trusts them as it trusts ``encode``'s
output. The tape holds at most L + min(H, L) - 1 rows, so its size does not
grow with the horizon: when the next row would not fit, the window's last
L - 1 rows slide to the front. The sequence model's encoding is the raw
window; the spline network's is its first layer's silu and basis features,
which hold only while that layer's ``SplineSpec`` stays as it was when they
were made.

Each window may have its own horizon, given in non-increasing order, so
that one rollout serves several horizons: at step s only the prefix of
windows whose horizon exceeds s goes to the model, and the (B, max H)
result holds NaN past each window's horizon. A window's predictions do not
depend on the other windows in the batch, up to the rounding of a matmul
over a different number of rows.
"""

from dataclasses import dataclass

import numpy as np

from .data import ADJ_CLOSE, CLOSE


@dataclass
class ForecastTrace:
    horizon: int
    predictions: np.ndarray  # (H,) scaled closes
    actual: np.ndarray | None  # (H,) scaled ground truth when known

    def __post_init__(self):
        self.predictions = np.asarray(self.predictions, dtype=np.float64)
        if self.predictions.shape != (self.horizon,):
            raise ValueError(
                f"predictions shape {self.predictions.shape} != ({self.horizon},)"
            )
        if not np.all(np.isfinite(self.predictions)):
            raise ValueError("predictions must be finite")
        if self.actual is not None:
            self.actual = np.asarray(self.actual, dtype=np.float64)
            if self.actual.shape != (self.horizon,):
                raise ValueError(f"actual shape {self.actual.shape} != ({self.horizon},)")


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
    actual=None,
    close_col: int | None = None,
) -> ForecastTrace:
    """Chain one-step predictions H times from one (L, F) scaled window."""
    window = np.asarray(seed_window, dtype=np.float64)
    if window.ndim != 2:
        raise ValueError(f"seed window must be 2-D (L, F), got shape {window.shape}")
    preds = iterative_forecast_batch(model, window[None], horizon, close_col)
    return ForecastTrace(horizon, preds[0], actual)


def _window_horizons(horizon, n_windows: int):
    """Per-window horizons and their maximum, from an int or a non-increasing
    sequence of one int per window."""
    h = np.asarray(horizon)
    if h.dtype.kind not in "iu" or h.ndim > 1 or (h.ndim == 1 and h.shape != (n_windows,)):
        raise ValueError(f"horizon must be an int or {n_windows} ints, one per window, "
                         f"got {horizon!r}")
    if h.size and h.min() < 1:
        raise ValueError("horizon must be >= 1")
    if h.ndim == 0:
        return np.full(n_windows, int(h)), int(h)
    if np.any(np.diff(h) > 0):
        raise ValueError("per-window horizons must be non-increasing")
    return h, int(h[0]) if n_windows else 0


def iterative_forecast_batch(
    model,
    seed_windows,
    horizon,
    close_col: int | None = None,
) -> np.ndarray:
    """Roll many (L, F) windows forward at once; returns (B, max H) predictions.

    ``horizon`` is one int for every window, or one per window in
    non-increasing order; a window's row is NaN past its own horizon.
    """
    windows = np.asarray(seed_windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"seed windows must be 3-D (B, L, F), got shape {windows.shape}")
    n, lookback, _ = windows.shape
    horizons, h_max = _window_horizons(horizon, n)
    close_col, adj_close_col = _close_columns(windows.shape[2], close_col)
    # windows still rolling at each step: a prefix, as horizons do not increase
    live = n - np.searchsorted(horizons[::-1], np.arange(h_max), side="right")

    encoded = model.encode(windows)
    rows = lookback + min(h_max, lookback) - 1
    tape = []
    for seed in encoded:
        t = np.empty((n, rows) + seed.shape[2:])
        t[:, :lookback] = seed
        tape.append(t)
    row = windows[:, -1, :].copy()  # the raw last row, carried into each pseudo-row
    preds = np.full((n, h_max), np.nan)
    start = 0  # the current window is tape rows start .. start + L - 1
    for step in range(h_max):
        m = live[step]
        p = model.predict_window_batch(
            type(encoded)(t[:m, start : start + lookback] for t in tape))
        if not np.isfinite(p).all():
            raise RuntimeError(f"non-finite prediction at step {step + 1}")
        preds[:m, step] = p
        if step + 1 == h_max:
            break
        m = live[step + 1]
        row[:m, close_col] = p[:m]
        if adj_close_col is not None:
            row[:m, adj_close_col] = p[:m]
        start += 1
        if start + lookback > rows:  # tape full: slide the window's L - 1 kept rows to the front
            for t in tape:
                t[:m, : lookback - 1] = t[:m, start : start + lookback - 1]
            start = 0
        for t, new in zip(tape, model.encode(row[:m, None, :])):
            t[:m, start + lookback - 1] = new[:, 0]
    return preds


def write_trace_csv(trace: ForecastTrace, path, scaler=None, price_feature="close") -> None:
    """Serialize a trace: step, predicted_scaled, predicted_price, actual_price."""
    from .data import scaler_inverse

    pred_price = (
        scaler_inverse(scaler, trace.predictions, price_feature) if scaler else None
    )
    actual_price = (
        scaler_inverse(scaler, trace.actual, price_feature)
        if scaler is not None and trace.actual is not None
        else None
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,predicted_scaled,predicted_price,actual_price\n")
        for i in range(trace.horizon):
            cells = [
                str(i + 1),
                repr(float(trace.predictions[i])),
                repr(float(pred_price[i])) if pred_price is not None else "",
                repr(float(actual_price[i])) if actual_price is not None else "",
            ]
            fh.write(",".join(cells) + "\n")
