"""Seeded randomness and the float64 activations shared by every module.

All randomness flows through PCG64 generators built by :func:`make_rng`, so a
seed fully determines every stream on every platform numpy supports.
"""

import numpy as np

Rng = np.random.Generator


def make_rng(seed: int) -> Rng:
    """Deterministic PCG64 generator; equal seeds yield equal streams."""
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x):
    """Numerically stable logistic; finite input never produces NaN."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x):
    x = np.asarray(x, dtype=np.float64)
    return x * sigmoid(x)


def silu_grad(x):
    x = np.asarray(x, dtype=np.float64)
    s = sigmoid(x)
    return s * (1.0 + x * (1.0 - s))
