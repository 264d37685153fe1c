"""Market-data pipeline: CSV ingestion, cleaning, scaling, windowing, splits,
plus a deterministic geometric-Brownian-motion generator for synthetic series.

The CSV schema is fixed: header ``date,open,high,low,close,adj_close,volume``,
UTF-8, ``.`` decimal separator, missing numerics as an empty field or ``NaN``.
Scaling is Min-Max to [0, 1] with parameters fit on training rows only, and
the scaled series is row-major (C order) whatever the layout of the rows it
scales; windowing pairs an L-row lookback block with the scaled close H
steps after the block ends, and the blocks are read-only views of the scaled
series, so each window is row-major too.
"""

import csv
import math
from dataclasses import dataclass
from datetime import date as _date, timedelta

import numpy as np

from .numcore import check_real, make_rng

COLUMNS = ("open", "high", "low", "close", "adj_close", "volume")
CSV_HEADER = "date,open,high,low,close,adj_close,volume"
COL_INDEX = {name: i for i, name in enumerate(COLUMNS)}
CLOSE = COL_INDEX["close"]
ADJ_CLOSE = COL_INDEX["adj_close"]


@dataclass
class OhlcvSeries:
    dates: list[str]  # ISO-8601 days, strictly increasing
    values: np.ndarray  # (N, 6) float64, columns in COLUMNS order

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(COLUMNS):
            raise ValueError(f"values must be (N, {len(COLUMNS)}), got {self.values.shape}")
        if len(self.dates) != self.values.shape[0]:
            raise ValueError("dates/values length mismatch")

    def __len__(self) -> int:
        return self.values.shape[0]


def _parse_float(text: str, line_no: int, col: str) -> float:
    text = text.strip()
    if text == "" or text.lower() == "nan":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"line {line_no}: bad {col} value {text!r}") from None


def load_csv(path) -> OhlcvSeries:
    """Parse a schema CSV into a date-sorted series (rows sorted if needed)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: no header") from None
        if [h.strip() for h in header] != CSV_HEADER.split(","):
            raise ValueError(
                f"bad header {','.join(header)!r}; expected {CSV_HEADER!r}"
            )
        dates, rows = [], []
        for line_no, rec in enumerate(reader, start=2):
            if not rec or (len(rec) == 1 and not rec[0].strip()):
                continue  # blank line
            if len(rec) != 7:
                raise ValueError(f"line {line_no}: expected 7 fields, got {len(rec)}")
            try:
                day = _date.fromisoformat(rec[0].strip())
            except ValueError:
                raise ValueError(f"line {line_no}: bad date {rec[0]!r}") from None
            dates.append(day)
            rows.append([_parse_float(v, line_no, c) for v, c in zip(rec[1:], COLUMNS)])
    if not rows:
        raise ValueError("no rows")
    if len(set(dates)) != len(dates):
        dupes = sorted({d for d in dates if dates.count(d) > 1})
        raise ValueError(f"duplicate date {dupes[0].isoformat()}")
    order = np.argsort(np.array([d.toordinal() for d in dates]))
    values = np.asarray(rows, dtype=np.float64)[order]
    vol = values[:, COL_INDEX["volume"]]
    if np.any(vol[np.isfinite(vol)] < 0):
        raise ValueError("negative volume")
    return OhlcvSeries([dates[i].isoformat() for i in order], values)


def clean(series: OhlcvSeries) -> tuple[OhlcvSeries, int]:
    """Drop rows with any missing field; returns (series, dropped count)."""
    keep = np.all(np.isfinite(series.values), axis=1)
    dropped = int((~keep).sum())
    if not keep.any():
        raise ValueError(f"all {len(series)} rows dropped: no complete rows")
    if dropped == 0:
        return series, 0
    dates = [d for d, k in zip(series.dates, keep) if k]
    return OhlcvSeries(dates, series.values[keep]), dropped


def write_csv(series: OhlcvSeries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for day, row in zip(series.dates, series.values):
            writer.writerow([day] + [repr(float(v)) for v in row])


# --------------------------------------------------------------------------
# Scaling


@dataclass
class MinMaxScaler:
    mins: np.ndarray  # (F,)
    maxs: np.ndarray  # (F,)

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ValueError("mins/maxs must be matching 1-D arrays")
        if np.any(self.maxs < self.mins):
            raise ValueError("max < min in scaler")

    def transform(self, rows) -> np.ndarray:
        """The rows scaled to [0, 1] per feature, as a new row-major array.

        Row-major whatever the layout of ``rows``: a column selection such
        as ``values[:, cols]`` is column-major, and windows of a
        column-major series would be too, so every reader of their
        features would need its own row-major copy.
        """
        rows = np.asarray(rows, dtype=np.float64)
        span = self.maxs - self.mins
        out = np.empty(rows.shape)
        const = span == 0.0
        safe = np.where(const, 1.0, span)
        out[...] = (rows - self.mins) / safe
        out[..., const] = 0.5  # constant feature convention
        return out


def scaler_fit(train_rows) -> MinMaxScaler:
    rows = np.asarray(train_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("train rows must be a nonempty 2-D array")
    return MinMaxScaler(rows.min(axis=0), rows.max(axis=0))


def scaler_inverse(scaler: MinMaxScaler, scaled, idx: int) -> np.ndarray:
    """Map scaled values of feature column ``idx`` back to raw units."""
    if not 0 <= idx < scaler.mins.size:
        raise ValueError(f"feature index {idx} out of range for {scaler.mins.size} features")
    scaled = np.asarray(scaled, dtype=np.float64)
    span = scaler.maxs[idx] - scaler.mins[idx]
    if span == 0.0:
        return np.full_like(scaled, scaler.mins[idx])
    return scaled * span + scaler.mins[idx]


# --------------------------------------------------------------------------
# Windowing and splitting


@dataclass
class WindowedDataset:
    """Lookback windows and their targets. ``make_windows`` gives ``inputs``
    as a read-only view of the scaled series, not a copy, so the windows of
    a split alias that series and each other."""

    inputs: np.ndarray  # (n, L, F) scaled lookback windows
    targets: np.ndarray  # (n,) scaled close H steps past each window
    lookback: int
    horizon: int

    def __post_init__(self):
        if self.inputs.ndim != 3 or self.targets.shape != (self.inputs.shape[0],):
            raise ValueError(
                f"inputs {self.inputs.shape} / targets {self.targets.shape} mismatch"
            )

    def __len__(self) -> int:
        return self.inputs.shape[0]


def make_windows(scaled, lookback: int, horizon: int, target_col: int = CLOSE) -> WindowedDataset:
    """Sample i: input rows [i, i+L), target = scaled[i+L+H-1, target_col].

    The inputs are a read-only sliding-window view of ``scaled`` (as float64),
    not a copy: consecutive windows share L - 1 rows, so a copy would hold
    about L times the series' values. A row selection such as a minibatch
    (``inputs[idx]``) copies only the windows it takes. The view keeps the
    series' layout: windows of a row-major series (as ``MinMaxScaler.transform``
    makes) are row-major, each window's L·F values one contiguous run.
    """
    scaled = np.asarray(scaled, dtype=np.float64)
    if scaled.ndim != 2:
        raise ValueError("scaled series must be 2-D (rows, features)")
    if lookback < 1 or horizon < 1:
        raise ValueError("lookback and horizon must be >= 1")
    if not 0 <= target_col < scaled.shape[1]:
        raise ValueError(f"target_col {target_col} out of range")
    n_rows = scaled.shape[0]
    n = n_rows - lookback - horizon + 1
    if n < 1:
        raise ValueError(
            f"series of {n_rows} rows too short: need at least {lookback + horizon}"
        )
    view = np.lib.stride_tricks.sliding_window_view(scaled, lookback, axis=0)
    inputs = view[:n].transpose(0, 2, 1)
    targets = scaled[lookback + horizon - 1 : lookback + horizon - 1 + n, target_col].copy()
    return WindowedDataset(inputs, targets, lookback, horizon)


def split_point(n: int, train_frac: float) -> int:
    """Training samples of a chronological split of n: the first floor(frac·n)."""
    return math.floor(train_frac * n)


def chrono_split(dataset: WindowedDataset, train_frac: float):
    """First split_point(n, frac) samples are train, the rest test; never shuffled."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    n = len(dataset)
    n_train = split_point(n, train_frac)
    if n_train == 0 or n_train == n:
        raise ValueError(f"split of {n} samples at {train_frac} leaves an empty side")
    mk = lambda lo, hi: WindowedDataset(
        dataset.inputs[lo:hi], dataset.targets[lo:hi], dataset.lookback, dataset.horizon
    )
    return mk(0, n_train), mk(n_train, n)


# --------------------------------------------------------------------------
# Synthetic market generator


REGIME_PRESETS = {
    "normal": (0.0003, 0.01),
    "volatile": (0.0003, 0.03),
    "trending": (0.002, 0.01),
}


@dataclass(frozen=True)
class MarketRegime:
    kind: str
    drift: float  # per-day log-return drift mu
    volatility: float  # per-day log-return sigma
    length: int
    seed: int

    def __post_init__(self):
        if self.kind not in REGIME_PRESETS:
            raise ValueError(f"unknown regime {self.kind!r}; known: {sorted(REGIME_PRESETS)}")
        check_real(self.drift, "drift")
        check_real(self.volatility, "volatility", above=0)
        if self.length < 2:
            raise ValueError("length must be >= 2")


def make_regime(kind: str, length: int, seed: int,
                drift: float | None = None, volatility: float | None = None) -> MarketRegime:
    if kind not in REGIME_PRESETS:
        raise ValueError(f"unknown regime {kind!r}; known: {sorted(REGIME_PRESETS)}")
    mu, sigma = REGIME_PRESETS[kind]
    return MarketRegime(
        kind,
        mu if drift is None else drift,
        sigma if volatility is None else volatility,
        length,
        seed,
    )


def gen_synthetic(regime: MarketRegime) -> OhlcvSeries:
    """Geometric Brownian motion close path with derived open/high/low/volume.

    close_{t+1} = close_t · exp((mu − sigma²/2) + sigma·z_t). Opens deviate
    from close by a half-sigma log factor; highs/lows pad the open/close
    envelope outward by |N(0, sigma/2)| (capped at 50%); volume is log-normal.
    The draw order (returns, opens, highs, lows, volume) is fixed for
    reproducibility.
    """
    rng = make_rng(regime.seed)
    n = regime.length
    z = rng.standard_normal(n - 1)
    log_ret = (regime.drift - 0.5 * regime.volatility**2) + regime.volatility * z
    close = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(log_ret)]))

    open_ = close * np.exp(0.5 * regime.volatility * rng.standard_normal(n))
    pad_hi = np.minimum(np.abs(rng.normal(0.0, 0.5 * regime.volatility, n)), 0.5)
    pad_lo = np.minimum(np.abs(rng.normal(0.0, 0.5 * regime.volatility, n)), 0.5)
    high = np.maximum(open_, close) * (1.0 + pad_hi)
    low = np.minimum(open_, close) * (1.0 - pad_lo)
    volume = rng.lognormal(mean=12.0, sigma=0.5, size=n)

    start = _date(2015, 1, 1)
    dates = [(start + timedelta(days=t)).isoformat() for t in range(n)]
    values = np.column_stack([open_, high, low, close, close, volume])
    return OhlcvSeries(dates, values)
