"""Desk-scale forecasting benchmark comparing spline-edge networks and LSTMs.

Everything is float64 numpy, deterministic under explicit seeds, and runnable
offline: synthetic market data, two from-scratch model families, two
from-scratch trainers, iterative multi-horizon forecasting, and a
config-driven experiment runner that emits comparison tables.
"""

__version__ = "0.1.0"

# The command-line module is left out on purpose: importing it here would
# make `python -m kanbench.cli` warn that the module was already imported.
from . import bench, bspline, data, forecast, kan, lstm, metrics, numcore, optim

__all__ = [
    "bench",
    "bspline",
    "data",
    "forecast",
    "kan",
    "lstm",
    "metrics",
    "numcore",
    "optim",
    "__version__",
]
