"""Seeded randomness, the float64 activations shared by every module, and
the int and field checks that configs and both model checkpoints load through.

All randomness flows through PCG64 generators built by :func:`make_rng`, so a
seed fully determines every stream on every platform numpy supports.
"""

import numpy as np

Rng = np.random.Generator


def make_rng(seed: int) -> Rng:
    """Deterministic PCG64 generator; equal seeds yield equal streams."""
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x, out=None):
    """Logistic 1 / (1 + exp(-x)), computed as 0.5 * (1 + tanh(x / 2)).

    tanh cannot overflow, so finite input never produces NaN, and the result
    saturates to exactly 0 and 1 for large |x|. With ``out`` (which may be
    ``x`` itself) the result is written there and returned.
    """
    s = np.tanh(np.multiply(0.5, np.asarray(x, dtype=np.float64), out=out), out=out)
    s += 1.0
    s *= 0.5
    return s


def silu(x):
    x = np.asarray(x, dtype=np.float64)
    return x * sigmoid(x)


def silu_grad(x, s):
    """d/dx silu(x), given ``s = sigmoid(x)`` already computed for the same x."""
    return s * (1.0 + x * (1.0 - s))


def check_int(value, name: str, least: int = 1) -> int:
    """``value`` if it is an int >= ``least``, else a ValueError naming ``name``.

    A bool or a float such as 3.0 is rejected: these values size arrays,
    count steps or seed generators."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return value


def checkpoint_field(d, key: str, where: str):
    """``d[key]``, or a ValueError naming the field when ``d`` lacks it."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{where} is missing field {key!r}")
    return d[key]


def checkpoint_array(d, key: str, size: int, where: str) -> np.ndarray:
    """A flat list of ``size`` finite numbers, as float64."""
    value = checkpoint_field(d, key, where)
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{where} field {key!r} must be a list of numbers") from None
    if arr.shape != (size,):
        raise ValueError(f"{where} field {key!r} has shape {arr.shape}, expected ({size},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{where} field {key!r} must be finite")
    return arr
