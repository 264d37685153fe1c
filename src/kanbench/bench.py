"""Config-driven benchmark runner and report emitter.

An experiment is one (model, data, training) triple described by a config
that is checked whole whenever it is built, so a bad value raises a ValueError
naming its field before anything runs. Running it executes the full pipeline:
generate/load data, scale on training rows only, window, split
chronologically, train a one-step model, evaluate on the test split, then
walk anchored iterative forecasts across the test segment. Every configured
horizon keeps its own anchors, and all of them are read from one shared
batched rollout, which drops each anchor once it has reached the deepest
horizon that uses it. A matrix run executes many experiments (optionally
in parallel), joins LSTM-vs-KAN rows per (regime, horizon) cell into a
ratio column, and renders CSV / markdown / gnuplot reports plus a
mean-runtime comparison.

All randomness flows from explicit seeds; rerunning a config yields a
byte-identical canonical serialization (wall-clock fields excluded).
"""

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bspline import SplineSpec
from .data import (
    CLOSE,
    COLUMNS,
    MinMaxScaler,
    WindowedDataset,
    chrono_split,
    clean,
    gen_synthetic,
    load_csv,
    make_regime,
    make_windows,
    scaler_fit,
    split_point,
)
from .forecast import iterative_forecast_batch
from .kan import kan_init
from .lstm import HEAD_ACTIVATIONS, lstm_init
from .metrics import rmse
from .numcore import check_int, check_real, make_rng
from .optim import TrainConfig, TrainingDiverged, train

# Cap on anchors × horizon for each horizon's anchor set; the anchors are
# thinned evenly when the test segment would exceed it. The shared rollout
# covers the union of these sets, so an experiment predicts at most
# ANCHOR_BUDGET steps per configured horizon.
ANCHOR_BUDGET = 20000

FEATURE_MODES = {"ohlcv": tuple(range(len(COLUMNS))), "close_only": (CLOSE,)}


# --------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class LstmParams:
    layers: int = 2
    units: int = 10
    head_activation: str = "linear"

    def __post_init__(self):
        check_int(self.layers, "layers")
        check_int(self.units, "units")
        if self.head_activation not in HEAD_ACTIVATIONS:
            raise ValueError(f"unknown head activation {self.head_activation!r}")


@dataclass(frozen=True)
class KanParams:
    grid_size: int = 3
    degree: int = 2
    hidden: int = 8  # width of the single hidden layer; 0 = direct [in, 1]

    def __post_init__(self):
        check_int(self.hidden, "hidden", 0)
        SplineSpec(self.grid_size, self.degree)  # raises on a bad grid size or degree


@dataclass(frozen=True)
class DataConfig:
    source: str = "synthetic"  # "synthetic" | "csv"
    regime: str = "normal"
    days: int = 1250
    data_seed: int = 0
    drift: float | None = None
    volatility: float | None = None
    csv_path: str | None = None
    feature_mode: str = "ohlcv"  # "ohlcv" | "close_only"

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ValueError(f"unknown data source {self.source!r}")
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature_mode {self.feature_mode!r}")
        if self.source == "csv" and not self.csv_path:
            raise ValueError("csv source requires csv_path")
        check_int(self.days, "days", 2 if self.source == "synthetic" else 1)
        check_int(self.data_seed, "data_seed", 0)
        if self.source == "synthetic":
            # a CSV's length is known only once the file is read
            make_regime(self.regime, self.days, self.data_seed, self.drift, self.volatility)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; construction (and ``dataclasses.replace``) checks it whole."""

    model: str  # "kan" | "lstm"
    name: str = ""
    lstm: LstmParams | None = None
    kan: KanParams | None = None
    data: DataConfig = DataConfig()
    lookback: int = 20
    horizons: tuple = (1,)
    train_frac: float = 0.8
    train: TrainConfig = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("kan", "lstm"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.train is None:
            object.__setattr__(
                self,
                "train",
                TrainConfig(optimizer="lbfgs" if self.model == "kan" else "adam"),
            )
        horizons = self.horizons if isinstance(self.horizons, (list, tuple)) else ()
        horizons = [int(h) if isinstance(h, float) and h.is_integer() else h for h in horizons]
        if not horizons or any(
            isinstance(h, bool) or not isinstance(h, int) or h < 1 for h in horizons
        ):
            raise ValueError(f"horizons must be nonempty positive ints, got {self.horizons}")
        object.__setattr__(self, "horizons", tuple(horizons))
        check_int(self.lookback, "lookback")
        check_int(self.seed, "seed", 0)
        check_real(self.train_frac, "train_frac", above=0, below=1)
        other = "kan" if self.model == "lstm" else "lstm"
        if getattr(self, other) is not None and getattr(self, self.model) is None:
            raise ValueError(f"model is {self.model} but only {other} params were given")
        if self.data.source == "synthetic":
            h_max = max(self.horizons)
            if self.data.days < self.lookback + h_max + 10:
                raise ValueError(
                    f"days={self.data.days} too short: need >= lookback + max horizon + 10 "
                    f"= {self.lookback + h_max + 10}"
                )
            n_samples = self.data.days - self.lookback
            n_test = n_samples - split_point(n_samples, self.train_frac)
            if n_test < h_max:
                raise ValueError(
                    f"test segment of {n_test} samples cannot anchor horizon {h_max}; "
                    f"increase days or lower train_frac"
                )

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        if self.model == "lstm":
            p = self.lstm or LstmParams()
            return f"lstm-{p.layers}x{p.units}-{p.head_activation}"
        p = self.kan or KanParams()
        return f"kan-g{p.grid_size}k{p.degree}h{p.hidden}"


_SECTIONS = {"lstm": LstmParams, "kan": KanParams, "data": DataConfig, "train": TrainConfig}


def _strict_build(cls, d, ctx: str):
    if not isinstance(d, dict):
        raise ValueError(f"{ctx} must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - names)
    if unknown:
        raise ValueError(f"unknown {ctx} keys: {unknown}")
    return cls(**d)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from parsed JSON (a null section is its default), rejecting
    unknown keys at every level."""
    if not isinstance(d, dict):
        raise ValueError("experiment config must be a JSON object")
    d = dict(d)
    for key, cls in _SECTIONS.items():
        if d.get(key) is None:
            d.pop(key, None)
        else:
            d[key] = _strict_build(cls, d[key], key)
    return _strict_build(ExperimentConfig, d, "experiment")


def config_to_dict(config: ExperimentConfig) -> dict:
    d = dataclasses.asdict(config)
    d["horizons"] = list(config.horizons)
    return d


# --------------------------------------------------------------------------
# Pipeline


@dataclass
class PreparedData:
    scaled: np.ndarray  # (N, F) scaled selected features
    scaler: MinMaxScaler
    target_col: int  # close column within the selected features
    n_train: int  # number of one-step training samples
    train: WindowedDataset
    test: WindowedDataset
    lookback: int


def load_series(dc: DataConfig):
    if dc.source == "synthetic":
        regime = make_regime(dc.regime, dc.days, dc.data_seed, dc.drift, dc.volatility)
        return gen_synthetic(regime)
    series, _ = clean(load_csv(dc.csv_path))
    return series


def prepare(config: ExperimentConfig) -> PreparedData:
    """Scale on training rows only, then window and split chronologically.

    One-step training samples 0..n_train-1 touch exactly the first
    n_train + lookback rows, so the scaler fits on those rows and nothing
    later — no test information leaks into the scaling.
    """
    series = load_series(config.data)
    cols = FEATURE_MODES[config.data.feature_mode]
    raw = series.values[:, cols]
    target_col = cols.index(CLOSE)
    lookback = config.lookback
    n_samples = raw.shape[0] - lookback
    if n_samples < 2:
        raise ValueError(
            f"series of {raw.shape[0]} rows too short for lookback {lookback}"
        )
    n_train = split_point(n_samples, config.train_frac)
    scaler = scaler_fit(raw[: n_train + lookback])
    scaled = scaler.transform(raw)
    windows = make_windows(scaled, lookback, 1, target_col)
    train_ds, test_ds = chrono_split(windows, config.train_frac)
    return PreparedData(scaled, scaler, target_col, n_train, train_ds, test_ds, lookback)


def build_model(config: ExperimentConfig, n_features: int, rng):
    if config.model == "kan":
        p = config.kan or KanParams()
        in_dim = config.lookback * n_features
        dims = [in_dim, p.hidden, 1] if p.hidden > 0 else [in_dim, 1]
        return kan_init(dims, SplineSpec(p.grid_size, p.degree), rng)
    p = config.lstm or LstmParams()
    return lstm_init(n_features, p.units, p.layers, rng, p.head_activation)


def fit(config: ExperimentConfig, prepared: PreparedData):
    """Build the config's model, train it, and score it on the test split.

    Returns (model, training report, one-step test RMSE).
    """
    model = build_model(config, prepared.scaled.shape[1], make_rng(config.seed))
    report = train(model, prepared.train.inputs, prepared.train.targets, config.train)
    test_rmse = rmse(prepared.test.targets, model.predict_window_batch(prepared.test.inputs))
    return model, report, test_rmse


# --------------------------------------------------------------------------
# Experiment execution


@dataclass
class HorizonSummary:
    horizon: int
    n_anchors: int
    rmse: float  # scaled RMSE of the H-step-ahead prediction across anchors
    sample_pred: list  # first anchor's full trace, for plotting
    sample_actual: list


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    train_rmse: float
    test_rmse: float
    wall_seconds: float
    epochs_run: int
    horizons: list
    version: str
    failure: str | None = None


def _artifact_version() -> str:
    import kanbench

    return f"kanbench-{kanbench.__version__}"


def _anchors(prepared: PreparedData, horizon: int) -> np.ndarray:
    """Window start rows j of one horizon's walk-forward: every test row with
    the full horizon inside the series, thinned evenly when anchors × horizon
    would exceed ANCHOR_BUDGET."""
    first = prepared.n_train
    last = prepared.scaled.shape[0] - prepared.lookback - horizon  # inclusive
    anchors = np.arange(first, last + 1)
    n_max = max(1, ANCHOR_BUDGET // horizon)
    if anchors.size > n_max:
        keep = np.unique(np.round(np.linspace(0, anchors.size - 1, n_max)).astype(int))
        anchors = anchors[keep]
    return anchors


def _horizon_evals(model, prepared: PreparedData, horizons) -> list[HorizonSummary]:
    """Anchored walk-forward at every horizon, from one shared rollout.

    Each horizon keeps its own anchors (see ``_anchors``). An anchor's first
    h predictions do not depend on how far it is rolled, so the union of the
    anchor sets is rolled once: each anchor to the largest horizon that uses
    it, the deepest first, and each horizon reads its anchors' predictions
    at step h. A summary's RMSE compares only that final (H-step-ahead)
    prediction of each anchor against truth, which is what a per-horizon
    table row means; its sample trace is its first anchor's.
    """
    scaled, lookback, col = prepared.scaled, prepared.lookback, prepared.target_col
    sets = [_anchors(prepared, h) for h in horizons]
    anchors = np.concatenate(sets)
    depths = np.concatenate([np.full(a.size, h) for h, a in zip(horizons, sets)])
    order = np.lexsort((anchors, -depths))  # deepest first, then anchor order
    _, first = np.unique(anchors[order], return_index=True)  # each anchor at its deepest
    rows = order[np.sort(first)]
    anchors, depths = anchors[rows], depths[rows]
    if anchors.size:
        seed_windows = np.stack([scaled[j : j + lookback] for j in anchors])
        preds = iterative_forecast_batch(model, seed_windows, depths, close_col=col)
    by_anchor = np.argsort(anchors)

    summaries = []
    for h, wanted in zip(horizons, sets):
        if not wanted.size:
            summaries.append(HorizonSummary(h, 0, float("nan"), [], []))
            continue
        at = by_anchor[np.searchsorted(anchors, wanted, sorter=by_anchor)]  # their rows
        truth = scaled[wanted[0] + lookback : wanted[0] + lookback + h, col]
        summaries.append(HorizonSummary(
            h,
            int(wanted.size),
            rmse(scaled[wanted + lookback + h - 1, col], preds[at, h - 1]),
            [float(v) for v in preds[at[0], :h]],
            [float(v) for v in truth],
        ))
    return summaries


def _failure_result(config: ExperimentConfig, message: str) -> ExperimentResult:
    return ExperimentResult(
        config=config,
        train_rmse=float("nan"),
        test_rmse=float("nan"),
        wall_seconds=0.0,
        epochs_run=0,
        horizons=[],
        version=_artifact_version(),
        failure=message,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Full pipeline for one config; training failures become failure records."""
    prepared = prepare(config)
    try:
        model, report, test_rmse = fit(config, prepared)
        horizons = _horizon_evals(model, prepared, config.horizons)
    except (TrainingDiverged, RuntimeError, ValueError) as err:
        return _failure_result(config, str(err))
    return ExperimentResult(
        config=config,
        train_rmse=report.final_rmse,
        test_rmse=test_rmse,
        wall_seconds=report.wall_seconds,
        epochs_run=report.epochs_run,
        horizons=horizons,
        version=_artifact_version(),
    )


def run_matrix(configs, parallelism: int = 1):
    """Run every config (up to `parallelism` at once), in config order.

    Per-experiment failures are captured as failure records; the matrix
    always completes.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("no experiments in matrix")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def safe(config):
        try:
            return run_experiment(config)
        except Exception as err:  # captured per row; the matrix completes
            return _failure_result(config, f"{type(err).__name__}: {err}")

    if parallelism == 1:
        return [safe(c) for c in configs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(safe, configs))


# --------------------------------------------------------------------------
# Result serialization


def result_to_dict(result: ExperimentResult, include_wall: bool = True) -> dict:
    d = {
        "config": config_to_dict(result.config),
        "train_rmse": result.train_rmse,
        "test_rmse": result.test_rmse,
        "epochs_run": result.epochs_run,
        "horizons": [dataclasses.asdict(h) for h in result.horizons],
        "version": result.version,
        "failure": result.failure,
    }
    if include_wall:
        d["wall_seconds"] = result.wall_seconds
    return d


def result_canonical_json(result: ExperimentResult) -> str:
    """Deterministic serialization: wall-clock excluded, keys sorted."""
    return json.dumps(result_to_dict(result, include_wall=False), sort_keys=True)


def result_from_dict(d: dict) -> ExperimentResult:
    return ExperimentResult(
        config=config_from_dict(d["config"]),
        train_rmse=d["train_rmse"],
        test_rmse=d["test_rmse"],
        wall_seconds=d.get("wall_seconds", 0.0),
        epochs_run=d["epochs_run"],
        horizons=[HorizonSummary(**h) for h in d["horizons"]],
        version=d["version"],
        failure=d.get("failure"),
    )


def save_results(results, path) -> None:
    payload = {"results": [result_to_dict(r) for r in results]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def load_results(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [result_from_dict(d) for d in payload["results"]]


def load_matrix(path):
    """Read a matrix file: a JSON list of configs or {"experiments": [...]}."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("experiments")
    if not isinstance(payload, list) or not payload:
        raise ValueError('matrix JSON must be a list of configs or {"experiments": [...]}')
    return [config_from_dict(d) for d in payload]


# --------------------------------------------------------------------------
# Comparison table and reports


CSV_REPORT_HEADER = "model,config,regime,horizon,train_rmse,test_rmse,wall_seconds,ratio"


@dataclass
class ComparisonRow:
    model: str
    config_label: str
    regime: str
    horizon: int
    train_rmse: float
    test_rmse: float
    wall_seconds: float
    ratio: float | None  # best-KAN / best-LSTM test RMSE in this cell


def _regime_of(config: ExperimentConfig) -> str:
    return config.data.regime if config.data.source == "synthetic" else "csv"


def comparison_table(results, best_only: bool = False):
    """One row per (experiment, horizon), with the Table-3-style ratio column.

    The ratio for a (regime, horizon) cell is best-KAN / best-LSTM test RMSE
    (values above 1 favor the LSTM); it is empty while either side is missing.
    With best_only=True only each cell's best row per model family is kept —
    note this selects on test RMSE and is therefore optimistic.
    """
    rows = []
    for res in results:
        regime = _regime_of(res.config)
        for summary in res.horizons:
            rows.append(
                ComparisonRow(
                    model=res.config.model,
                    config_label=res.config.label,
                    regime=regime,
                    horizon=summary.horizon,
                    train_rmse=res.train_rmse,
                    test_rmse=summary.rmse,
                    wall_seconds=res.wall_seconds,
                    ratio=None,
                )
            )

    def cell(row):
        return (row.regime, row.horizon)

    best = {}  # (regime, horizon, model) -> best finite test rmse
    for row in rows:
        if math.isfinite(row.test_rmse):
            key = cell(row) + (row.model,)
            if key not in best or row.test_rmse < best[key]:
                best[key] = row.test_rmse
    for row in rows:
        kan_best = best.get(cell(row) + ("kan",))
        lstm_best = best.get(cell(row) + ("lstm",))
        if kan_best is not None and lstm_best is not None and lstm_best > 0:
            row.ratio = kan_best / lstm_best

    if best_only:
        chosen = {}
        for row in rows:
            key = cell(row) + (row.model,)
            old = chosen.get(key)
            if old is None or (
                math.isfinite(row.test_rmse)
                and not (math.isfinite(old.test_rmse) and old.test_rmse <= row.test_rmse)
            ):
                chosen[key] = row
        rows = list(chosen.values())

    regime_order = {}
    for row in rows:
        regime_order.setdefault(row.regime, len(regime_order))
    rows.sort(key=lambda r: (regime_order[r.regime], r.horizon, r.model, r.config_label))
    return rows


def runtime_summary(results) -> dict:
    """Mean training wall-clock per model family, plus the LSTM/KAN ratio."""
    out = {}
    for kind in ("kan", "lstm"):
        secs = [r.wall_seconds for r in results if r.config.model == kind and not r.failure]
        out[kind] = {
            "mean_wall_seconds": float(np.mean(secs)) if secs else float("nan"),
            "n_experiments": len(secs),
        }
    kan_mean = out["kan"]["mean_wall_seconds"]
    lstm_mean = out["lstm"]["mean_wall_seconds"]
    ratio = float("nan")
    if out["kan"]["n_experiments"] and out["lstm"]["n_experiments"] and kan_mean > 0:
        ratio = lstm_mean / kan_mean
    out["lstm_over_kan_ratio"] = ratio
    return out


def _fmt(value, places: int = 4) -> str:
    if value is None:
        return ""
    return f"{value:.{places}f}"


def _cells(row: ComparisonRow):
    """One report row's cells, in CSV_REPORT_HEADER order."""
    return [
        row.model,
        row.config_label,
        row.regime,
        str(row.horizon),
        _fmt(row.train_rmse),
        _fmt(row.test_rmse),
        _fmt(row.wall_seconds),
        _fmt(row.ratio),
    ]


def emit_report(results, fmt: str, out_dir, best_only: bool = False):
    """Render results to files; returns the list of written paths."""
    if not results:
        raise ValueError("no results to report")
    if fmt not in ("csv", "markdown-table", "gnuplot-data"):
        raise ValueError(f"unknown report format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    rows = comparison_table(results, best_only=best_only)
    runtime = runtime_summary(results)
    written = []

    if fmt == "csv":
        path = os.path.join(out_dir, "results.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CSV_REPORT_HEADER + "\n")
            for r in rows:
                fh.write(",".join(_cells(r)) + "\n")
        written.append(path)
        rt_path = os.path.join(out_dir, "runtime.csv")
        with open(rt_path, "w", encoding="utf-8") as fh:
            fh.write("model,mean_wall_seconds,n_experiments\n")
            for kind in ("kan", "lstm"):
                fh.write(
                    f"{kind},{_fmt(runtime[kind]['mean_wall_seconds'])},"
                    f"{runtime[kind]['n_experiments']}\n"
                )
            fh.write(f"lstm_over_kan_ratio,{_fmt(runtime['lstm_over_kan_ratio'])},\n")
        written.append(rt_path)

    elif fmt == "markdown-table":
        path = os.path.join(out_dir, "results.md")
        cols = CSV_REPORT_HEADER.split(",")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("| " + " | ".join(cols) + " |\n")
            fh.write("|" + "---|" * len(cols) + "\n")
            for r in rows:
                fh.write("| " + " | ".join(_cells(r)) + " |\n")
            fh.write("\nMean training runtime: ")
            fh.write(
                f"KAN {_fmt(runtime['kan']['mean_wall_seconds'])} s, "
                f"LSTM {_fmt(runtime['lstm']['mean_wall_seconds'])} s "
                f"(LSTM/KAN ratio {_fmt(runtime['lstm_over_kan_ratio'], 2)})\n"
            )
        written.append(path)

    else:  # gnuplot-data
        for i, res in enumerate(results):
            for summary in res.horizons:
                if not summary.sample_pred:
                    continue
                name = (
                    f"trace_{i:03d}_{res.config.model}_{_regime_of(res.config)}"
                    f"_h{summary.horizon}.dat"
                )
                path = os.path.join(out_dir, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("# step actual predicted\n")
                    for s, (a, p) in enumerate(
                        zip(summary.sample_actual, summary.sample_pred), start=1
                    ):
                        fh.write(f"{s} {repr(float(a))} {repr(float(p))}\n")
                written.append(path)

    return written
