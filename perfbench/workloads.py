"""The benchmark's workloads: what each one sets up, runs and checks.

A workload has four steps. ``setup`` writes the files the timed job needs
(run in a fresh process, so its time includes interpreter start and
imports). ``load`` reads them back and prepares the benchmark's own oracles,
untimed. ``job`` is the timed job. ``evaluate`` turns a job's raw output into
operations, checks and a results digest, untimed.

``--seed`` permutes the order of each matrix and picks the gradient
coordinates and the LSTM rows of the gradient spot check. Data and model
seeds are fixed per workload, so every run does the same work and one
commit prints one results digest per workload.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from kanbench import bench, cli, kan, lstm
from kanbench.bench import DataConfig, ExperimentConfig, KanParams, LstmParams
from kanbench.data import CLOSE, gen_synthetic, make_regime
from kanbench.forecast import iterative_forecast_batch
from kanbench.numcore import make_rng
from kanbench.optim import TrainConfig

import checks

DAYS = 1250
DATA_SEED = 7
MODEL_SEED = 0
LOOKBACK = 20
REGIMES = ("normal", "volatile", "trending")
HORIZONS = (1, 2, 100, 200)
KAN_PARAMS = KanParams(grid_size=3, degree=2, hidden=8)
LSTM_PARAMS = LstmParams(layers=2, units=10, head_activation="linear")
# Headline trainers. The LSTM's 40 headline epochs cost 14 s per regime;
# 5 epochs make lstm_matrix last about as long as kan_matrix.
KAN_TRAIN = TrainConfig(optimizer="lbfgs", max_epochs=40)
LSTM_TRAIN = TrainConfig(optimizer="adam", lr=1e-2, batch_size=32, max_epochs=5)

# cli_parallel: one KAN and one LSTM on each of two CSVs. Their epochs make
# the two families about equally costly when they share two cores, and keep
# the two-worker matrix to about 40% of a round: on a shared 2-vCPU host its
# wall time swings far more than serial work does.
CLI_REGIMES = ("normal", "volatile")
CLI_HORIZONS = (1, 2, 100)
CLI_KAN_TRAIN = TrainConfig(optimizer="lbfgs", max_epochs=8)
CLI_LSTM_TRAIN = TrainConfig(optimizer="adam", lr=1e-2, batch_size=32, max_epochs=2)
CLI_PARALLEL = 2
# Checkpoints trained during setup: (model, regime, trainer, forecast horizon).
# A batch-1 LSTM step costs ten KAN steps, hence the shorter LSTM rollout.
CHECKPOINTS = (
    ("kan", "normal", TrainConfig(optimizer="lbfgs", max_epochs=10), 5000),
    ("lstm", "volatile", TrainConfig(optimizer="adam", lr=1e-2, batch_size=32, max_epochs=1), 1000),
)

FD_COORDS = 8  # gradient coordinates checked per model, at least one per array
FD_LSTM_BATCH = 32  # the LSTM trains on minibatches of 32


def experiment(model, data, horizons, train) -> ExperimentConfig:
    params = {"kan": KAN_PARAMS} if model == "kan" else {"lstm": LSTM_PARAMS}
    return ExperimentConfig(
        model=model, data=data, lookback=LOOKBACK, horizons=horizons, train=train,
        seed=MODEL_SEED, **params,
    )


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def permuted(items, seed):
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


# --------------------------------------------------------------------------
# Running kanbench commands


CLI_ENTRY = "import sys; from kanbench.cli import entry; sys.argv[0] = 'kanbench'; entry()"


def cli_subprocess(argv, cwd):
    """Run one `kanbench` command as its own process; (exit code, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_ENTRY, *argv], cwd=cwd, capture_output=True, text=True
    )
    return proc.returncode, proc.stderr.strip()


class InProcessCli:
    """Dispatch `kanbench` commands in this process, so a tracer sees them."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, argv, cwd):
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        err = io.StringIO()
        old = os.getcwd()
        os.chdir(cwd)
        try:
            with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.dispatch(list(argv))
        finally:
            os.chdir(old)
        return code, err.getvalue().strip()


def require(result, what):
    code, err = result
    if code != 0:
        raise RuntimeError(f"{what} exited {code}: {err}")


# --------------------------------------------------------------------------
# Oracles the benchmark computes apart from the program


class Series:
    """One input series prepared by the benchmark itself."""

    def __init__(self, raw):
        self.raw = raw
        self.n_train = checks.split_point(raw.shape[0], LOOKBACK, 0.8)
        self.n_fit = self.n_train + LOOKBACK
        self.scaled = checks.minmax_scale(raw, self.n_fit)
        self.x, self.y = checks.train_windows(self.scaled, LOOKBACK, self.n_train, CLOSE)


def csv_data(regime) -> DataConfig:
    return DataConfig(source="csv", csv_path=f"{regime}.csv")


def synthetic_series(regime) -> Series:
    return Series(gen_synthetic(make_regime(regime, DAYS, DATA_SEED)).values)


def rmse_of(model, series) -> float:
    return float(np.sqrt(np.mean((model.predict_window_batch(series.x) - series.y) ** 2)))


def untrained(config, series):
    return bench.build_model(config, series.raw.shape[1], make_rng(config.seed))


def loss_and_grad_at(model, x, y):
    def f(flat):
        model.unpack(flat)
        return model.batch_loss_and_grad(x, y)

    return f


def parameter_arrays(model):
    """The model's trainable arrays in its documented pack() order."""
    if isinstance(model, kan.KanNetwork):
        return [a for layer in model.layers for a in (layer.coef, layer.base)]
    return [a for layer in model.layers for a in layer.arrays()] + [model.head]


def gradient_case(model, series, rng):
    """A model, its loss at the workload's batch shape and seeded coordinates.

    The coordinates take one entry of every parameter array, so no block of
    the gradient goes unchecked, and fill up to FD_COORDS at random.
    """
    x, y = series.x, series.y
    if isinstance(model, lstm.LstmNetwork):
        rows = np.sort(rng.choice(len(y), FD_LSTM_BATCH, replace=False))
        x, y = x[rows], y[rows]
    else:
        x = x.reshape(len(y), -1)
    coords, offset = set(), 0
    for a in parameter_arrays(model):
        coords.add(offset + int(rng.integers(a.size)))
        offset += a.size
    while len(coords) < FD_COORDS:
        coords.add(int(rng.integers(model.n_params)))
    return model, loss_and_grad_at(model, x, y), model.pack(), sorted(coords)


def record_checks(record, series, untrained_rmse):
    """The checks every experiment record gets."""
    label = f"{record['config']['model']}/{series_key(record['config'])}"
    return [
        guarded(f"finite {label}", checks.check_finite, record),
        guarded(f"h1-equals-test {label}", checks.check_h1_equals_test, record),
        guarded(f"prefix {label}", checks.check_prefix, record),
        guarded(f"sample-actual {label}", checks.check_sample_actual, record, series.scaled,
                series.n_train, CLOSE),
        guarded(f"trained-beats-untrained {label}", checks.check_trained_beats_untrained,
                record["train_rmse"], untrained_rmse),
    ]


def experiment_ops(records):
    """One operation per experiment; a failure record is a failed operation."""
    return [(f"experiment {r['config']['model']}/{series_key(r['config'])}", not r["failure"],
             r["failure"] or "") for r in records]


def series_key(config_dict):
    data = config_dict["data"]
    return data["regime"] if data["source"] == "synthetic" else data["csv_path"]


def guarded(name, fn, *args):
    """Run one check; an exception is a failed check, not a crashed run."""
    try:
        return (name, *fn(*args))
    except Exception as err:  # reported as a failed check
        return name, False, f"{type(err).__name__}: {err}"


# --------------------------------------------------------------------------
# kan_matrix and lstm_matrix


class MatrixWorkload:
    """The headline config of one family on three regimes, run serially."""

    def __init__(self, name, model, train, spans):
        self.name = name
        self.model = model
        self.train = train
        self.spans = spans  # spans this workload must produce when traced

    def configs(self, seed):
        data = [DataConfig(regime=r, days=DAYS, data_seed=DATA_SEED) for r in REGIMES]
        return permuted([experiment(self.model, d, HORIZONS, self.train) for d in data], seed)

    def setup(self, workdir, seed, run_cli):
        write_json(os.path.join(workdir, "matrix.json"),
                   [bench.config_to_dict(c) for c in self.configs(seed)])

    def load(self, workdir, seed):
        with open(os.path.join(workdir, "matrix.json"), encoding="utf-8") as fh:
            configs = [bench.config_from_dict(d) for d in json.load(fh)]
        series = {c.data.regime: synthetic_series(c.data.regime) for c in configs}
        untrained_rmse = {}
        for c in configs:
            s = series[c.data.regime]
            untrained_rmse[c.data.regime] = rmse_of(untrained(c, s), s)
        first = configs[0]
        fd = gradient_case(untrained(first, series[first.data.regime]), series[first.data.regime],
                           np.random.default_rng(seed))
        return {"configs": configs, "series": series, "untrained": untrained_rmse, "fd": [fd]}

    def job(self, state, workdir, round_name, run_cli):
        return bench.run_matrix(state["configs"], parallelism=1)

    def evaluate(self, state, results):
        records = [bench.result_to_dict(r) for r in results]
        ops = experiment_ops(records)
        found = []
        for r in records:
            regime = r["config"]["data"]["regime"]
            found += record_checks(r, state["series"][regime], state["untrained"][regime])
        found += fd_checks(state)
        digest = checks.results_digest([checks.canonical(r) for r in records])
        return ops, found, digest


def fd_checks(state):
    out = []
    for model, f, params, coords in state["fd"]:
        kind = "kan_backward" if isinstance(model, kan.KanNetwork) else "lstm_loss_and_grad"
        out.append(guarded(f"gradient {kind}", checks.check_gradient, f, params, coords))
    return out


# --------------------------------------------------------------------------
# cli_parallel


class CliWorkload:
    """A desk-user session of separate `kanbench` processes."""

    name = "cli_parallel"

    def __init__(self, spans):
        self.spans = spans

    def configs(self, seed):
        # KAN, LSTM, LSTM, KAN: with the two families about equally costly,
        # two workers always pair a KAN with an LSTM and never hold two KAN
        # bases at once, whatever regime order the seed picks.
        a, b = permuted(CLI_REGIMES, seed)
        order = (("kan", a), ("lstm", a), ("lstm", b), ("kan", b))
        train = {"kan": CLI_KAN_TRAIN, "lstm": CLI_LSTM_TRAIN}
        return [experiment(model, csv_data(regime), CLI_HORIZONS, train[model])
                for model, regime in order]

    def setup(self, workdir, seed, run_cli):
        for regime in CLI_REGIMES:
            require(run_cli(["gen-data", "--regime", regime, "--days", str(DAYS), "--seed",
                             str(DATA_SEED), "--out", f"{regime}.csv"], workdir), "gen-data")
        for model, regime, train, _ in CHECKPOINTS:
            config = experiment(model, csv_data(regime), (1,), train)
            write_json(os.path.join(workdir, f"{model}_train.json"), bench.config_to_dict(config))
            argv = ["train", "--config", f"{model}_train.json", "--out", f"{model}_model.json"]
            require(run_cli(argv, workdir), "train")
        write_json(os.path.join(workdir, "matrix.json"),
                   [bench.config_to_dict(c) for c in self.configs(seed)])

    def load(self, workdir, seed):
        series = {f"{r}.csv": Series(checks.read_ohlcv_csv(os.path.join(workdir, f"{r}.csv")))
                  for r in CLI_REGIMES}
        with open(os.path.join(workdir, "matrix.json"), encoding="utf-8") as fh:
            configs = [bench.config_from_dict(d) for d in json.load(fh)]
        untrained_rmse = {(c.model, c.data.csv_path): rmse_of(untrained(c, series[c.data.csv_path]),
                                                              series[c.data.csv_path])
                          for c in configs}
        rng = np.random.default_rng(seed)
        bundles, fd = {}, []
        for model, regime, _, horizon in CHECKPOINTS:
            with open(os.path.join(workdir, f"{model}_model.json"), encoding="utf-8") as fh:
                bundle = json.load(fh)
            net = (kan.from_json_dict if model == "kan" else lstm.from_json_dict)(bundle["model"])
            s = series[f"{regime}.csv"]
            config = bench.config_from_dict(bundle["config"])
            bundles[model] = {
                "bundle": bundle,
                "series": s,
                "trained_rmse": rmse_of(net, s),
                "untrained_rmse": rmse_of(untrained(config, s), s),
                "reference": iterative_forecast_batch(
                    net, np.asarray(bundle["seed_window"])[None], horizon,
                    close_col=bundle["target_col"],
                )[0],
            }
            fd.append(gradient_case(net, s, rng))
        return {"series": series, "untrained": untrained_rmse, "bundles": bundles, "fd": fd}

    def job(self, state, workdir, round_name, run_cli):
        codes = {"benchmark": run_cli(
            ["benchmark", "--matrix", "matrix.json", "--out-dir", f"{round_name}/bench",
             "--parallel", str(CLI_PARALLEL), "--format", "markdown-table"], workdir)}
        for model, _, _, horizon in CHECKPOINTS:
            codes[f"forecast {model}"] = run_cli(
                ["forecast", "--checkpoint", f"{model}_model.json", "--horizon", str(horizon),
                 "--out", f"{round_name}/{model}_trace.csv"], workdir)
        codes["report"] = run_cli(
            ["report", "--in", f"{round_name}/bench/results.json", "--format", "csv",
             "--out-dir", f"{round_name}/report"], workdir)
        return os.path.join(workdir, round_name), codes

    def evaluate(self, state, raw):
        round_dir, codes = raw
        ops = [(name, code == 0, err) for name, (code, err) in codes.items()]
        try:
            with open(os.path.join(round_dir, "bench", "results.json"), encoding="utf-8") as fh:
                records = json.load(fh)["results"]
        except (OSError, ValueError, KeyError) as err:
            return ops + [("results.json", False, str(err))], [], ""
        ops += experiment_ops(records)
        found = []
        for r in records:
            key = series_key(r["config"])
            untrained_rmse = state["untrained"][(r["config"]["model"], key)]
            found += record_checks(r, state["series"][key], untrained_rmse)
        traces = []
        for model, entry in state["bundles"].items():
            path = os.path.join(round_dir, f"{model}_trace.csv")
            bundle, s = entry["bundle"], entry["series"]
            col = bundle["target_col"]
            found.append(guarded(f"checkpoint-scaling {model}", checks.check_seed_window,
                                 bundle, s.raw, s.scaled, s.n_fit))
            found.append(guarded(f"trained-beats-untrained checkpoint {model}",
                                 checks.check_trained_beats_untrained,
                                 entry["trained_rmse"], entry["untrained_rmse"]))
            found.append(guarded(
                f"forecast-trace {model}",
                lambda: checks.check_forecast_trace(
                    *checks.read_trace_csv(path), entry["reference"],
                    bundle["scaler"]["mins"][col], bundle["scaler"]["maxs"][col])))
            traces.append(read_text(path))
        found.append(guarded("report-ratio", checks.check_report_ratio, records,
                             os.path.join(round_dir, "report", "results.csv")))
        found += fd_checks(state)
        digest = checks.results_digest([checks.canonical(r) for r in records], traces)
        return ops, found, digest


def read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


# Spans each workload drives; a traced run that sees none of one reports
# its metrics as unobserved.
_COMMON = ("numcore.sigmoid", "optim.train", "forecast.iterative_forecast_batch",
           "data.gen_synthetic", "bench.prepare", "bench.run_experiment", "bench.run_matrix")
_KAN = ("bspline.basis_matrix", "bspline.basis_grad_matrix", "kan.kan_backward",
        "kan.kan_forward_batch", "optim.lbfgs_step")
_LSTM = ("lstm.lstm_loss_and_grad", "lstm.lstm_forward_batch", "optim.adam_step")

WORKLOADS = {
    "kan_matrix": MatrixWorkload("kan_matrix", "kan", KAN_TRAIN, _COMMON + _KAN),
    "lstm_matrix": MatrixWorkload("lstm_matrix", "lstm", LSTM_TRAIN, _COMMON + _LSTM),
    "cli_parallel": CliWorkload(
        _COMMON + _KAN + _LSTM + ("data.load_csv", "forecast.iterative_forecast", "cli.gen-data",
                                  "cli.train", "cli.benchmark", "cli.forecast", "cli.report")),
}
