"""Seeded randomness, the float64 activations shared by every module, the
int, real, number-list and field checks that configs and both model
checkpoints load through, and the finiteness rule for model input.

All randomness flows through PCG64 generators built by :func:`make_rng`, so a
seed fully determines every stream on every platform numpy supports.
"""

import math

import numpy as np

Rng = np.random.Generator


class Encoded(tuple):
    """The arrays a model's ``encode`` returns, finite by construction.

    ``encode`` rejects non-finite input, so these arrays, and any row
    selection or slice of them rebuilt as ``type(features)(...)``, need no
    second finiteness scan: the models skip it for an ``Encoded`` tuple. A
    plain tuple built by hand is scanned before any computation.
    """

    __slots__ = ()


def check_finite(what: str, *arrays) -> None:
    """A ValueError naming ``what`` unless every value of every array is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} must be finite")


def make_rng(seed: int) -> Rng:
    """Deterministic PCG64 generator; equal seeds yield equal streams."""
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x, out=None):
    """Logistic 1 / (1 + exp(-x)), computed as 0.5 * (1 + tanh(x / 2)).

    tanh cannot overflow, so finite input never produces NaN, and the result
    saturates to exactly 0 and 1 for large |x|. With ``out`` (which may be
    ``x`` itself) the result is written there and returned; without it, the
    result is a new C-contiguous array whatever the layout of x.
    """
    x = np.asarray(x, dtype=np.float64)
    s = np.multiply(0.5, x, out=np.empty(x.shape) if out is None else out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def silu(x):
    """x·sigmoid(x), written into the sigmoid's own buffer: one
    C-contiguous array as large as x."""
    x = np.asarray(x, dtype=np.float64)
    s = sigmoid(x)
    s *= x
    return s


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


def check_real(value, name: str, above=None, at_least=None, below=None):
    """``value`` if it is a finite real number in range, else a ValueError
    naming ``name``.

    An int or a float will do; a bool or a numeric string will not. The range
    is any of ``value > above``, ``value >= at_least`` and ``value < below``.
    The value is returned as given, so a config keeps the type it was read with.
    """
    ok = (not isinstance(value, bool) and isinstance(value, (int, float))
          and math.isfinite(value)
          and (above is None or value > above)
          and (at_least is None or value >= at_least)
          and (below is None or value < below))
    if not ok:
        rules = [f" {op} {bound}" for op, bound in ((">", above), (">=", at_least), ("<", below))
                 if bound is not None]
        raise ValueError(f"{name} must be a finite number{' and'.join(rules)}, got {value!r}")
    return value


def checkpoint_field(d, key: str, where: str):
    """``d[key]``, or a ValueError naming the field when ``d`` lacks it."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"{where} is missing field {key!r}")
    return d[key]


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(
        _is_number_list(v) if isinstance(v, list)
        else isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in value)


def checkpoint_numbers(value, message: str) -> np.ndarray:
    """``value``, lists of ints and floats nested to equal depth and length,
    as a float64 array; else a ValueError with ``message``.

    np.array alone would also read the string "0.12" or the bool True as a
    number. A checkpoint kanbench writes holds neither, so either marks a
    corrupt file."""
    if not _is_number_list(value):
        raise ValueError(message)
    try:
        return np.array(value, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged rows, or an int beyond float64
        raise ValueError(message) from None


def checkpoint_array(d, key: str, size: int, where: str) -> np.ndarray:
    """A flat list of ``size`` finite numbers, as float64."""
    value = checkpoint_field(d, key, where)
    arr = checkpoint_numbers(value, f"{where} field {key!r} must be a list of numbers")
    if arr.shape != (size,):
        raise ValueError(f"{where} field {key!r} has shape {arr.shape}, expected ({size},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{where} field {key!r} must be finite")
    return arr
