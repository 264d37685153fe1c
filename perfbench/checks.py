"""Correctness checks the benchmark applies to the program's outputs.

Every check is a pure function of outputs and of values the benchmark
computes apart from the program (its own Min-Max scaling, its own windows,
its own finite differences, its own ratio table). None compares against a
stored copy of earlier output. Each returns ``(ok, detail)``.
"""

import csv
import hashlib
import json
import math

import numpy as np

PREFIX_TOL = 1e-12  # horizon traces share their first steps (seen: 0 or 1.1e-16)
SCALE_TOL = 1e-12
TRACE_TOL = 1e-12
# Central differences with step 1e-6 in float64 agree with an exact gradient
# to about 1e-9 absolute on these losses; a wrong coordinate is off by far more.
FD_STEP = 1e-6
FD_ABS_TOL = 1e-7
FD_REL_TOL = 1e-4
RATIO_TOL = 0.5e-4 + 1e-12  # results.csv prints the ratio at 4 decimals


# --------------------------------------------------------------------------
# The benchmark's own data preparation


def read_ohlcv_csv(path) -> np.ndarray:
    """The six numeric OHLCV columns of a schema CSV, in date order."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    body = sorted(rows[1:], key=lambda r: r[0])
    return np.array([[float(v) for v in r[1:]] for r in body], dtype=np.float64)


def minmax_scale(raw: np.ndarray, n_fit: int) -> np.ndarray:
    """Min-Max per column, fitted on the first n_fit rows; constant -> 0.5."""
    lo = raw[:n_fit].min(axis=0)
    hi = raw[:n_fit].max(axis=0)
    span = hi - lo
    out = (raw - lo) / np.where(span == 0.0, 1.0, span)
    out[:, span == 0.0] = 0.5
    return out


def split_point(n_rows: int, lookback: int, train_frac: float) -> int:
    """Number of one-step training windows of a chronological split."""
    return math.floor(train_frac * (n_rows - lookback))


def train_windows(scaled: np.ndarray, lookback: int, n_train: int, target_col: int):
    """(n_train, L, F) windows and their next-row targets."""
    x = np.stack([scaled[i : i + lookback] for i in range(n_train)])
    y = scaled[lookback : lookback + n_train, target_col].copy()
    return x, y


# --------------------------------------------------------------------------
# Checks on one experiment record (a results.json entry)


def check_finite(record: dict):
    if record.get("failure"):
        return False, f"failure: {record['failure']}"
    values = [record["train_rmse"], record["test_rmse"]] + [h["rmse"] for h in record["horizons"]]
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0)]
    if bad or not record["horizons"]:
        return False, f"non-finite or non-positive RMSE values {bad}"
    return True, ""


def check_h1_equals_test(record: dict):
    """Horizon 1 walks exactly the test windows with the trained model."""
    h1 = [h for h in record["horizons"] if h["horizon"] == 1]
    if len(h1) != 1:
        return False, "no unique horizon-1 summary"
    a, b = h1[0]["rmse"], record["test_rmse"]
    if abs(a - b) > 1e-12 * max(abs(a), abs(b)):
        return False, f"horizon-1 RMSE {a!r} != test RMSE {b!r}"
    return True, ""


def check_prefix(record: dict):
    """Each horizon's sample trace starts the next longer horizon's trace."""
    hs = sorted(record["horizons"], key=lambda h: h["horizon"])
    for h in hs:
        if len(h["sample_pred"]) != h["horizon"] or len(h["sample_actual"]) != h["horizon"]:
            return False, f"horizon {h['horizon']} trace has {len(h['sample_pred'])} steps"
    for short, long in zip(hs, hs[1:]):
        n = short["horizon"]
        for key in ("sample_pred", "sample_actual"):
            gap = np.max(np.abs(np.subtract(short[key], long[key][:n])))
            if not gap <= PREFIX_TOL:
                return False, f"{key} of H={n} differs from H={long['horizon']} by {gap:.3g}"
    return True, ""


def check_sample_actual(record: dict, scaled: np.ndarray, n_train: int, target_col: int):
    """sample_actual is the scaled close after the first test anchor."""
    lookback = record["config"]["lookback"]
    start = n_train + lookback
    for h in record["horizons"]:
        want = scaled[start : start + h["horizon"], target_col]
        got = np.asarray(h["sample_actual"])
        if got.shape != want.shape:
            return False, f"H={h['horizon']}: {got.shape[0]} actual values, want {want.shape[0]}"
        gap = np.max(np.abs(got - want))
        if not gap <= SCALE_TOL:
            return False, f"H={h['horizon']}: sample_actual off by {gap:.3g}"
    return True, ""


def check_trained_beats_untrained(trained_rmse: float, untrained_rmse: float):
    if not trained_rmse < untrained_rmse:
        return False, f"train RMSE {trained_rmse!r} not below untrained {untrained_rmse!r}"
    return True, ""


# --------------------------------------------------------------------------
# Gradient spot check


def check_gradient(loss_and_grad, params: np.ndarray, coords):
    """Central finite differences against the analytic gradient at `coords`.

    `loss_and_grad(flat) -> (loss, grad)`; it is called once at `params` for
    the analytic gradient and twice per coordinate.
    """
    params = np.array(params, dtype=np.float64)
    _, grad = loss_and_grad(params.copy())
    worst = 0.0
    for j in coords:
        up, down = params.copy(), params.copy()
        up[j] += FD_STEP
        down[j] -= FD_STEP
        fd = (loss_and_grad(up)[0] - loss_and_grad(down)[0]) / (2.0 * FD_STEP)
        err = abs(fd - grad[j])
        if not err <= FD_ABS_TOL + FD_REL_TOL * abs(fd):
            return False, f"coordinate {j}: analytic {grad[j]!r}, finite difference {fd!r}"
        worst = max(worst, err)
    return True, f"max abs error {worst:.2e} over {len(coords)} coordinates"


# --------------------------------------------------------------------------
# CLI outputs


def read_trace_csv(path):
    """(predicted_scaled, predicted_price) columns of a forecast trace CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    steps = [int(r["step"]) for r in rows]
    if steps != list(range(1, len(rows) + 1)):
        raise ValueError(f"{path}: steps are not 1..{len(rows)}")
    pred = np.array([float(r["predicted_scaled"]) for r in rows])
    price = np.array([float(r["predicted_price"]) for r in rows])
    return pred, price


def check_forecast_trace(pred, price, reference, lo: float, hi: float):
    """A batch-1 CLI trace equals the batched rollout and inverse-scales right."""
    reference = np.asarray(reference)
    if pred.shape != reference.shape:
        return False, f"trace has {pred.shape[0]} steps, reference {reference.shape[0]}"
    gap = np.max(np.abs(pred - reference))
    if not gap <= TRACE_TOL:
        return False, f"trace differs from the batched rollout by {gap:.3g}"
    want = pred * (hi - lo) + lo
    gap = np.max(np.abs(price - want) / np.maximum(1.0, np.abs(want)))
    if not gap <= 1e-12:
        return False, f"price column is off the inverse scaling by {gap:.3g} (relative)"
    return True, ""


def check_seed_window(bundle: dict, raw: np.ndarray, scaled: np.ndarray, n_fit: int):
    """A checkpoint's scaler and seed window match the benchmark's own scaling."""
    lo, hi = raw[:n_fit].min(axis=0), raw[:n_fit].max(axis=0)
    scaler = bundle["scaler"]
    if not (np.array_equal(scaler["mins"], lo) and np.array_equal(scaler["maxs"], hi)):
        return False, "checkpoint scaler is not the min/max of the training rows"
    window = np.asarray(bundle["seed_window"])
    want = scaled[-bundle["lookback"] :]
    gap = np.max(np.abs(window - want)) if window.shape == want.shape else math.inf
    if not gap <= SCALE_TOL:
        return False, f"seed window off the benchmark's scaling by {gap:.3g}"
    return True, ""


def best_ratios(records) -> dict:
    """(regime, horizon) -> best-KAN over best-LSTM test RMSE, from records."""
    best = {}
    for r in records:
        data = r["config"]["data"]
        regime = data["regime"] if data["source"] == "synthetic" else "csv"
        for h in r["horizons"]:
            if math.isfinite(h["rmse"]):
                key = (regime, h["horizon"], r["config"]["model"])
                best[key] = min(best.get(key, math.inf), h["rmse"])
    out = {}
    for (regime, horizon, model), value in best.items():
        if model == "kan" and (regime, horizon, "lstm") in best:
            out[(regime, horizon)] = value / best[(regime, horizon, "lstm")]
    return out


def check_report_ratio(records, csv_path):
    """Every results.csv row carries its cell's ratio, recomputed from JSON."""
    want = best_ratios(records)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != sum(len(r["horizons"]) for r in records):
        return False, f"{len(rows)} report rows for {len(records)} experiments"
    for row in rows:
        key = (row["regime"], int(row["horizon"]))
        if key not in want:
            return False, f"no KAN/LSTM pair for cell {key}"
        if not row["ratio"] or abs(float(row["ratio"]) - want[key]) > RATIO_TOL:
            return False, f"cell {key}: ratio {row['ratio']!r}, recomputed {want[key]:.6f}"
    return True, ""


# --------------------------------------------------------------------------
# Determinism


def results_digest(canonical_records, extra=()) -> str:
    """SHA-256 over sorted canonical experiment JSON plus extra text parts.

    Sorting makes the digest independent of the order the seed gives the
    matrix.
    """
    h = hashlib.sha256()
    for part in sorted(canonical_records):
        h.update(part.encode())
        h.update(b"\n")
    for part in extra:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def canonical(record: dict) -> str:
    """results.json entry without its wall-clock field, keys sorted."""
    return json.dumps({k: v for k, v in record.items() if k != "wall_seconds"}, sort_keys=True)
