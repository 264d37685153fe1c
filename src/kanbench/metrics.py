"""Evaluation metrics.

RMSE is the primary metric: sqrt((1/n)·sum((y_i − yhat_i)²)), computed on
scaled values.
"""

import numpy as np


def _check_pair(actual, predicted):
    a = np.asarray(actual, dtype=np.float64).reshape(-1)
    p = np.asarray(predicted, dtype=np.float64).reshape(-1)
    if a.size == 0:
        raise ValueError("empty arrays")
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {p.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise ValueError("entries must be finite")
    return a, p


def mse(actual, predicted) -> float:
    a, p = _check_pair(actual, predicted)
    return float(np.mean((a - p) ** 2))


def rmse(actual, predicted) -> float:
    return float(np.sqrt(mse(actual, predicted)))
