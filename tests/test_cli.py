"""Command-line interface: exit codes, artifact chains, error routing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kanbench import bench, cli
from kanbench.bench import CSV_REPORT_HEADER
from kanbench.cli import dispatch
from kanbench.data import load_csv


def tiny_experiment(model="kan", **overrides):
    cfg = {
        "model": model,
        "data": {"regime": "normal", "days": 80, "data_seed": 3},
        "lookback": 8,
        "horizons": [1, 2],
        "train": {"optimizer": "lbfgs" if model == "kan" else "adam", "max_epochs": 5},
    }
    if model == "kan":
        cfg["kan"] = {"grid_size": 3, "degree": 2, "hidden": 0}
    else:
        cfg["lstm"] = {"layers": 1, "units": 4}
    cfg.update(overrides)
    return cfg


def short_csv(tmp_path) -> str:
    """A 300-row OHLCV CSV: at L=8 and a 0.8 split it has 59 test samples."""
    path = str(tmp_path / "short.csv")
    assert dispatch(["gen-data", "--regime", "normal", "--days", "300", "--seed", "3",
                     "--out", path]) == 0
    return path


class TestModuleEntry:
    def test_python_m_runs_without_runtime_warning(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "kanbench.cli", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert "usage: kanbench" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr


class TestUsageErrors:
    def test_no_arguments_exits_1_with_usage(self, capsys):
        assert dispatch([]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert dispatch(["gen-data", "--regime", "normal", "--days", "50",
                         "--out", "x.csv", "--turbo"]) == 1

    def test_missing_required_flag(self, capsys):
        assert dispatch(["gen-data", "--regime", "normal"]) == 1

    def test_bad_choice(self, capsys):
        assert dispatch(["gen-data", "--regime", "sideways", "--days", "50",
                         "--out", "x.csv"]) == 1

    @pytest.mark.parametrize("argv,flag", [
        (["forecast", "--checkpoint", "c.json", "--horizon", "0", "--out", "t.csv"], "--horizon"),
        (["forecast", "--checkpoint", "c.json", "--horizon", "-3", "--out", "t.csv"], "--horizon"),
        (["forecast", "--checkpoint", "c.json", "--horizon", "abc", "--out", "t.csv"], "--horizon"),
        (["benchmark", "--matrix", "m.json", "--out-dir", "out", "--parallel", "0"], "--parallel"),
    ])
    def test_out_of_range_count_is_a_usage_error_naming_its_flag(self, capsys, argv, flag):
        # checked as the flags are parsed, before any file is read
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert f"usage error: argument {flag}: " in err
        assert f"usage: kanbench {argv[0]} " in err


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = dispatch(["gen-data", "--regime", "volatile", "--days", "60",
                         "--seed", "4", "--out", str(out)])
        assert code == 0
        assert "60 rows" in capsys.readouterr().out
        series = load_csv(out)
        assert len(series) == 60

    def test_deterministic_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen-data", "--regime", "normal", "--days", "45", "--seed", "7"]
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_override_flags(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert dispatch(["gen-data", "--regime", "normal", "--days", "50",
                         "--out", str(out), "--volatility", "1e-9",
                         "--drift", "0.0"]) == 0
        close = load_csv(out).values[:, 3]
        assert np.all(np.abs(close / close[0] - 1.0) < 1e-6)

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert dispatch(["gen-data", "--regime", "normal", "--days", "50",
                         "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrainForecastChain:
    def run_train(self, tmp_path, model="kan", report=False):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_experiment(model)))
        ckpt = tmp_path / "model.json"
        argv = ["train", "--config", str(cfg_path), "--out", str(ckpt)]
        rep = tmp_path / "report.json"
        if report:
            argv += ["--report", str(rep)]
        return dispatch(argv), ckpt, rep

    def test_train_writes_checkpoint(self, tmp_path, capsys):
        code, ckpt, _ = self.run_train(tmp_path)
        assert code == 0
        assert "train RMSE" in capsys.readouterr().out
        bundle = json.loads(ckpt.read_text())
        assert bundle["kind"] == "kan"
        assert bundle["lookback"] == 8
        assert len(bundle["seed_window"]) == 8
        assert len(bundle["scaler"]["mins"]) == 6

    def test_train_report_file(self, tmp_path):
        code, _, rep = self.run_train(tmp_path, report=True)
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["epochs_run"] >= 1
        assert len(report["rmse_history"]) == report["epochs_run"] + 1
        assert report["wall_seconds"] > 0
        assert np.isfinite(report["test_rmse"])

    @pytest.mark.parametrize("model", ["kan", "lstm"])
    def test_forecast_from_checkpoint(self, tmp_path, model, capsys):
        code, ckpt, _ = self.run_train(tmp_path, model)
        assert code == 0
        out = tmp_path / "trace.csv"
        code = dispatch(["forecast", "--checkpoint", str(ckpt),
                         "--horizon", "5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,predicted_scaled,predicted_price"
        assert len(lines) == 6
        cells = [[float(c) for c in l.split(",")] for l in lines[1:]]
        assert all(len(row) == 3 and np.all(np.isfinite(row)) for row in cells)

    def test_forecast_deterministic(self, tmp_path):
        _, ckpt, _ = self.run_train(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dispatch(["forecast", "--checkpoint", str(ckpt), "--horizon", "3", "--out", str(a)])
        dispatch(["forecast", "--checkpoint", str(ckpt), "--horizon", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unanchorable_csv_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        csv_path = short_csv(tmp_path)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            tiny_experiment("kan", data={"source": "csv", "csv_path": csv_path},
                            horizons=[1, 100])))
        fitted = []
        monkeypatch.setattr(cli, "fit", lambda *args: fitted.append(args))
        assert dispatch(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "m.json")]) == 2
        assert not fitted
        assert "series of 300 rows cannot anchor horizon 100" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"model": "kan", "bogus_key": 1}))
        assert dispatch(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / "m.json")]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert dispatch(["forecast", "--checkpoint", str(tmp_path / "nope.json"),
                         "--horizon", "3", "--out", str(tmp_path / "t.csv")]) == 2

    def test_corrupt_checkpoint_kind_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps({"kind": "gru", "model": {}}))
        assert dispatch(["forecast", "--checkpoint", str(ckpt),
                         "--horizon", "3", "--out", str(tmp_path / "t.csv")]) == 2
        assert "unknown model kind" in capsys.readouterr().err

    @pytest.mark.parametrize("model,field", [("kan", "spec"), ("lstm", "hidden"),
                                             ("lstm", "seed_window")])
    def test_malformed_checkpoint_names_field(self, tmp_path, capsys, model, field):
        code, ckpt, _ = self.run_train(tmp_path, model)
        assert code == 0
        bundle = json.loads(ckpt.read_text())
        (bundle["model"] if field in bundle["model"] else bundle).pop(field)
        ckpt.write_text(json.dumps(bundle))
        assert dispatch(["forecast", "--checkpoint", str(ckpt),
                         "--horizon", "3", "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert f"missing field '{field}'" in err

    @pytest.mark.parametrize("field,value,message", [
        ("target_col", True, "checkpoint field 'target_col'"),
        ("target_col", 3.0, "checkpoint field 'target_col'"),
        ("target_col", "3", "checkpoint field 'target_col'"),
        ("target_col", 9, "close_col 9 out of range for 6 features"),
        ("seed_window", [[0.1, 0.2], [0.3]], "checkpoint field 'seed_window'"),
        ("seed_window", "rows", "checkpoint field 'seed_window'"),
        ("seed_window", [["0.5", "1"]], "checkpoint field 'seed_window' must be rows of numbers"),
        ("seed_window", [[0.5, True]], "checkpoint field 'seed_window' must be rows of numbers"),
        ("seed_window", [0.1, 0.2], "seed window must be 2-D (L, F), got shape (2,)")])
    def test_bad_checkpoint_value_names_field(self, tmp_path, capsys, field, value, message):
        code, ckpt, _ = self.run_train(tmp_path, "lstm")
        assert code == 0
        bundle = json.loads(ckpt.read_text())
        bundle[field] = value
        ckpt.write_text(json.dumps(bundle))
        assert dispatch(["forecast", "--checkpoint", str(ckpt),
                         "--horizon", "3", "--out", str(tmp_path / "t.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["mins", "maxs"])
    @pytest.mark.parametrize("change,message", [
        (lambda v: v.__setitem__(0, str(v[0])), "must be a list of numbers"),
        (lambda v: v.__setitem__(0, math.nan), "must be finite"),
        (lambda v: v.__setitem__(0, None), "must be a list of numbers"),
        (lambda v: v.__setitem__(0, True), "must be a list of numbers"),
        (lambda v: v.__delitem__(slice(1, None)), "has shape (1,), expected (6,)"),
    ], ids=["quoted", "nan", "null", "bool", "one-entry"])
    def test_bad_checkpoint_scaler_names_field(self, tmp_path, capsys, key, change, message):
        code, ckpt, _ = self.run_train(tmp_path, "lstm")
        assert code == 0
        bundle = json.loads(ckpt.read_text())
        change(bundle["scaler"][key])
        ckpt.write_text(json.dumps(bundle))
        assert dispatch(["forecast", "--checkpoint", str(ckpt),
                         "--horizon", "3", "--out", str(tmp_path / "t.csv")]) == 2
        assert f"checkpoint scaler field {key!r} {message}" in capsys.readouterr().err


class TestBenchmarkAndReport:
    def matrix_path(self, tmp_path, experiments=None):
        path = tmp_path / "matrix.json"
        if experiments is None:
            experiments = [tiny_experiment("kan"), tiny_experiment("lstm")]
        path.write_text(json.dumps({"experiments": experiments}))
        return path

    def test_benchmark_writes_results_and_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = dispatch(["benchmark", "--matrix", str(self.matrix_path(tmp_path)),
                         "--out-dir", str(out_dir)])
        assert code == 0
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert lines[0] == CSV_REPORT_HEADER
        assert len(lines) == 5  # 2 experiments x 2 horizons
        assert (out_dir / "results.json").exists()
        assert (out_dir / "runtime.csv").exists()
        assert "mean training seconds" in capsys.readouterr().out

    def test_benchmark_bare_list_matrix(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps([tiny_experiment("kan")]))
        assert dispatch(["benchmark", "--matrix", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 0

    def test_benchmark_parallel_flag(self, tmp_path):
        out_dir = tmp_path / "out"
        assert dispatch(["benchmark", "--matrix", str(self.matrix_path(tmp_path)),
                         "--out-dir", str(out_dir), "--parallel", "2"]) == 0

    def test_training_failure_reported_on_stderr_exit_0(self, tmp_path, capsys):
        bad = tiny_experiment("lstm")
        bad["train"]["lr"] = 1e200
        path = self.matrix_path(tmp_path, [tiny_experiment("kan"), bad])
        code = dispatch(["benchmark", "--matrix", str(path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 0  # matrix completes; failures are records, not crashes
        assert "FAILED" in capsys.readouterr().err

    def test_unanchorable_csv_experiment_is_a_failure_record(self, tmp_path, capsys):
        # 300 rows, L=8: 292 samples, 59 of them test; horizon 100 has no anchor
        data = {"source": "csv", "csv_path": short_csv(tmp_path)}
        path = self.matrix_path(tmp_path, [
            tiny_experiment("kan", data=data),
            tiny_experiment("lstm", data=data, horizons=[1, 100]),
            tiny_experiment("lstm", data=data, horizons=[1, 59]),
        ])
        out_dir = tmp_path / "out"
        assert dispatch(["benchmark", "--matrix", str(path), "--out-dir", str(out_dir)]) == 0
        assert "FAILED lstm-1x4-linear: ValueError: series of 300 rows cannot anchor " \
               "horizon 100" in capsys.readouterr().err
        records = json.loads((out_dir / "results.json").read_text())["results"]
        assert [r["failure"] is None for r in records] == [True, False, True]
        assert "horizon 100" in records[1]["failure"] and records[1]["horizons"] == []
        assert [[h["horizon"] for h in r["horizons"]] for r in records] == [[1, 2], [], [1, 59]]
        assert all(h["n_anchors"] >= 1 for r in records for h in r["horizons"])

    def test_report_rejects_a_record_no_run_makes(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        dispatch(["benchmark", "--matrix", str(self.matrix_path(tmp_path)),
                  "--out-dir", str(out_dir)])
        results = out_dir / "results.json"
        payload = json.loads(results.read_text())
        # an unanchorable horizon, as an older version saved it
        payload["results"][1]["horizons"][1].update(
            n_anchors=0, rmse=float("nan"), sample_pred=[], sample_actual=[])
        results.write_text(json.dumps(payload))
        assert dispatch(["report", "--in", str(results), "--format", "csv",
                         "--out-dir", str(tmp_path / "re")]) == 2
        assert "horizons[1].n_anchors" in capsys.readouterr().err

    def test_invalid_matrix_config_exits_2(self, tmp_path, capsys):
        bad = tiny_experiment("kan", horizons=[500])
        path = self.matrix_path(tmp_path, [bad])
        assert dispatch(["benchmark", "--matrix", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2

    def test_misspelt_regime_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        def unreachable(config):
            raise AssertionError("an experiment ran before the matrix was checked")

        monkeypatch.setattr(bench, "run_experiment", unreachable)
        bad = tiny_experiment("kan")
        bad["data"]["regime"] = "volatle"
        path = self.matrix_path(tmp_path, [tiny_experiment("kan"), bad])
        out_dir = tmp_path / "out"
        assert dispatch(["benchmark", "--matrix", str(path), "--out-dir", str(out_dir)]) == 2
        assert "unknown regime 'volatle'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_empty_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"experiments": []}))
        assert dispatch(["benchmark", "--matrix", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2

    def test_report_rerenders_saved_results(self, tmp_path):
        out_dir = tmp_path / "out"
        dispatch(["benchmark", "--matrix", str(self.matrix_path(tmp_path)),
                  "--out-dir", str(out_dir)])
        md_dir = tmp_path / "md"
        code = dispatch(["report", "--in", str(out_dir / "results.json"),
                         "--format", "markdown-table", "--out-dir", str(md_dir)])
        assert code == 0
        text = (md_dir / "results.md").read_text()
        assert text.startswith("| model | config |")

    def test_report_csv_matches_benchmark_csv(self, tmp_path):
        out_dir = tmp_path / "out"
        dispatch(["benchmark", "--matrix", str(self.matrix_path(tmp_path)),
                  "--out-dir", str(out_dir)])
        re_dir = tmp_path / "re"
        dispatch(["report", "--in", str(out_dir / "results.json"),
                  "--format", "csv", "--out-dir", str(re_dir)])
        assert (re_dir / "results.csv").read_text() == (
            out_dir / "results.csv"
        ).read_text()

    def test_gnuplot_format(self, tmp_path):
        out_dir = tmp_path / "gp"
        code = dispatch(["benchmark", "--matrix", str(self.matrix_path(tmp_path)),
                         "--out-dir", str(out_dir), "--format", "gnuplot-data"])
        assert code == 0
        traces = sorted(out_dir.glob("trace_*.dat"))
        assert len(traces) == 4
        assert traces[0].read_text().startswith("# step actual predicted")
