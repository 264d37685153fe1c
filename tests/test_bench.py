"""Benchmark harness: config plumbing, leak-free preparation, walk-forward
evaluation oracle, determinism, matrix execution, tables and reports."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kanbench import bench
from kanbench.bench import (
    ANCHOR_BUDGET,
    CSV_REPORT_HEADER,
    DataConfig,
    ExperimentConfig,
    ExperimentResult,
    HorizonSummary,
    KanParams,
    LstmParams,
    PreparedData,
    _horizon_evals,
    comparison_table,
    config_from_dict,
    config_to_dict,
    emit_report,
    load_matrix,
    load_results,
    prepare,
    result_canonical_json,
    result_from_dict,
    result_to_dict,
    run_experiment,
    run_matrix,
    runtime_summary,
    save_results,
)
from kanbench.bspline import SplineSpec
from kanbench.data import (
    CLOSE,
    WindowedDataset,
    gen_synthetic,
    make_regime,
    make_windows,
    scaler_fit,
    write_csv,
)
from kanbench.kan import kan_init
from kanbench.lstm import lstm_init
from kanbench.numcore import make_rng
from kanbench.optim import TrainConfig


HEADLINE = Path(__file__).resolve().parent.parent / "configs" / "headline.json"


def tiny_config(model="kan", regime="normal", seed=0, name="", **train_kw):
    """Config small enough that run_experiment finishes in well under a second."""
    if model == "kan":
        train = TrainConfig(optimizer="lbfgs", max_epochs=5, **train_kw)
    else:
        train = TrainConfig(optimizer="adam", max_epochs=5, batch_size=16, **train_kw)
    return ExperimentConfig(
        model=model,
        name=name,
        data=DataConfig(regime=regime, days=80, data_seed=3),
        lookback=8,
        horizons=(1, 2),
        train=train,
        seed=seed,
        kan=KanParams(grid_size=3, degree=2, hidden=0) if model == "kan" else None,
        lstm=LstmParams(layers=1, units=4) if model == "lstm" else None,
    )


class TestConfigPlumbing:
    def test_round_trip_identity(self):
        cfg = tiny_config("lstm", "volatile", seed=2, name="probe")
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_defaults_fill_in(self):
        cfg = config_from_dict({"model": "kan"})
        assert cfg.train.optimizer == "lbfgs"
        assert cfg.horizons == (1,)
        assert cfg.data.regime == "normal"

    def test_lstm_default_optimizer(self):
        cfg = config_from_dict({"model": "lstm"})
        assert cfg.train.optimizer == "adam"

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown experiment keys.*learning"):
            config_from_dict({"model": "kan", "learning": 1})

    def test_unknown_nested_keys(self):
        for section, payload in (
            ("lstm", {"layers": 1, "cells": 4}),
            ("kan", {"grids": 3}),
            ("data", {"regime": "normal", "dayz": 9}),
            ("train", {"optimizer": "adam", "lr_rate": 0.1}),
        ):
            with pytest.raises(ValueError, match=f"unknown {section} keys"):
                config_from_dict({"model": "lstm" if section == "lstm" else "kan",
                                  section: payload})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            config_from_dict([1, 2])
        with pytest.raises(ValueError, match="JSON object"):
            config_from_dict({"model": "kan", "data": "normal"})

    def test_label_naming(self):
        assert tiny_config("kan").label == "kan-g3k2h0"
        assert tiny_config("lstm").label == "lstm-1x4-linear"
        assert tiny_config("kan", name="custom").label == "custom"

    def test_horizons_coerced_to_int_tuple(self):
        cfg = config_from_dict({"model": "kan", "horizons": [1, 2.0]})
        assert cfg.horizons == (1, 2)
        assert all(isinstance(h, int) for h in cfg.horizons)


class TestValidation:
    def test_test_segment_cannot_anchor_horizon(self):
        # 80 days, L=8: 72 samples, 14 test samples < horizon 20
        with pytest.raises(ValueError, match="anchor"):
            dataclasses.replace(tiny_config(), horizons=(20,))

    def test_no_training_sample(self):
        # 80 days, L=8: 72 samples, floor(0.01 * 72) = 0 of them for training
        with pytest.raises(ValueError, match="cannot anchor horizon 2: .* leave 0 training"):
            dataclasses.replace(tiny_config(), train_frac=0.01)

    def test_bad_horizons(self):
        with pytest.raises(ValueError, match="horizons"):
            dataclasses.replace(tiny_config(), horizons=(0,))
        with pytest.raises(ValueError, match="horizons"):
            dataclasses.replace(tiny_config(), horizons=())

    def test_bad_train_frac(self):
        with pytest.raises(ValueError, match="train_frac"):
            dataclasses.replace(tiny_config(), train_frac=1.0)

    def test_model_params_mismatch(self):
        with pytest.raises(ValueError, match="lstm"):
            ExperimentConfig(model="lstm", kan=KanParams(),
                             data=DataConfig(days=80), lookback=8)
        with pytest.raises(ValueError, match="model is kan but only lstm"):
            ExperimentConfig(model="kan", lstm=LstmParams(),
                             data=DataConfig(days=80), lookback=8)

    @pytest.mark.parametrize("payload,field", [
        ({"lookback": 5.5}, "lookback"),
        ({"lstm": {"units": 2.5}}, "units"),
        ({"lstm": {"layers": 1.5}}, "layers"),
        ({"kan": {"hidden": 1.5}}, "hidden"),
        ({"data": {"days": 300.5}}, "days"),
        ({"data": {"source": "csv", "csv_path": "prices.csv", "days": 0}}, "days"),
        ({"data": {"data_seed": -1}}, "data_seed"),
        ({"data": {"regime": "volatle"}}, "regime"),
        ({"data": {"volatility": -0.1}}, "volatility"),
        ({"data": {"volatility": 0.0}}, "volatility"),
        ({"train": {"max_epochs": 1.5}}, "max_epochs"),
        ({"train": {"batch_size": 2.5}}, "batch_size"),
        ({"train": {"patience": 2.5}}, "patience"),
        ({"train": {"shuffle_seed": -1}}, "shuffle_seed"),
        ({"train": {"lbfgs_memory": 0}}, "lbfgs_memory"),
        ({"train": {"max_ls_steps": 0}}, "max_ls_steps"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        ({"horizons": [1.5]}, "horizons"),
        ({"horizons": [True]}, "horizons"),
        ({"horizons": 5}, "horizons"),
        ({"train": {"lr": -1.0}}, "lr"),
        ({"train": {"lr": 0}}, "lr"),
        ({"train": {"lr": "0.01"}}, "lr"),
        ({"train": {"eps": 0.0}}, "eps"),
        ({"train": {"beta1": 1.5}}, "beta1"),
        ({"train": {"beta1": -0.1}}, "beta1"),
        ({"train": {"beta2": 1.0}}, "beta2"),
        ({"train": {"tol": float("inf")}}, "tol"),
        ({"train": {"tol": -1e-9}}, "tol"),
        ({"train": {"tol": False}}, "tol"),
        ({"train_frac": "0.8"}, "train_frac"),
        ({"train_frac": float("nan")}, "train_frac"),
        ({"train_frac": 0}, "train_frac"),
        ({"data": {"volatility": float("nan")}}, "volatility"),
        ({"data": {"volatility": "x"}}, "volatility"),
        ({"data": {"drift": float("inf")}}, "drift"),
        ({"data": {"drift": "0.001"}}, "drift"),
        # a CSV section's synthetic-only fields are checked as a synthetic one's
        ({"data": {"source": "csv", "csv_path": "x.csv", "regime": "nope"}}, "regime"),
        ({"data": {"source": "csv", "csv_path": "x.csv", "drift": "abc"}}, "drift"),
        ({"data": {"source": "csv", "csv_path": "x.csv", "volatility": float("nan")}},
         "volatility"),
        ({"data": {"source": "csv", "csv_path": "x.csv", "days": 1}}, "days"),
    ])
    def test_bad_values_rejected_at_parse(self, payload, field, tmp_path):
        model = "lstm" if "lstm" in payload else "kan"
        bad = {"model": model, **payload}
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            config_from_dict(bad)
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps([{"model": model}, bad]))
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            load_matrix(path)

    def test_null_sections_take_defaults(self):
        cfg = config_from_dict({"model": "kan", "lstm": None, "kan": None, "data": None,
                                "train": None})
        assert cfg == config_from_dict({"model": "kan"})

    def test_unknown_model_and_sources(self):
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig(model="transformer")
        with pytest.raises(ValueError, match="unknown data source"):
            DataConfig(source="yahoo")
        with pytest.raises(ValueError, match="csv_path"):
            DataConfig(source="csv")
        with pytest.raises(ValueError, match="feature_mode"):
            DataConfig(feature_mode="typo")
        # bad model params fail at parse time, not later inside the matrix
        for model, params, match in (
            ("kan", {"grid_size": 0}, "grid_size"),
            ("kan", {"degree": 0}, "degree"),
            ("kan", {"grid_size": 2.5}, "grid_size"),
            ("kan", {"grid_size": True}, "grid_size"),
            ("kan", {"degree": 2.0}, "degree"),
            ("lstm", {"head_activation": "relu"}, "head activation"),
        ):
            with pytest.raises(ValueError, match=match):
                config_from_dict({"model": model, model: params})


class TestPrepare:
    def test_shapes_counts_and_split(self):
        cfg = tiny_config()
        prepared = prepare(cfg)
        n_samples = cfg.data.days - cfg.lookback  # one-step windows
        n_train = math.floor(cfg.train_frac * n_samples)
        assert prepared.n_train == n_train
        assert len(prepared.train) == n_train
        assert len(prepared.test) == n_samples - n_train
        assert prepared.scaled.shape == (cfg.data.days, 6)
        assert prepared.train.inputs.shape == (n_train, cfg.lookback, 6)

    def test_scaler_fits_training_rows_only(self):
        cfg = tiny_config()
        prepared = prepare(cfg)
        series = gen_synthetic(make_regime("normal", cfg.data.days, cfg.data.data_seed))
        manual = scaler_fit(series.values[: prepared.n_train + cfg.lookback])
        assert np.array_equal(prepared.scaler.mins, manual.mins)
        assert np.array_equal(prepared.scaler.maxs, manual.maxs)

    def test_close_only_mode_single_feature(self):
        cfg = dataclasses.replace(
            tiny_config(), data=DataConfig(regime="normal", days=80, data_seed=3,
                                           feature_mode="close_only")
        )
        prepared = prepare(cfg)
        assert prepared.scaled.shape[1] == 1
        assert prepared.target_col == 0

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    @pytest.mark.parametrize("mode", ["ohlcv", "close_only"])
    def test_scaled_series_is_row_major(self, tmp_path, source, mode):
        # so the windows, views of it, are row-major and a KAN's encoded
        # features reshape to rows without a copy
        data = DataConfig(days=80, data_seed=3, feature_mode=mode)
        if source == "csv":
            path = tmp_path / "prices.csv"
            write_csv(gen_synthetic(make_regime("normal", 80, 3)), path)
            data = DataConfig(source="csv", csv_path=str(path), feature_mode=mode)
        prepared = prepare(dataclasses.replace(tiny_config(), data=data))
        assert prepared.scaled.flags.c_contiguous
        assert np.shares_memory(prepared.train.inputs, prepared.scaled)

    def test_target_col_is_close(self):
        prepared = prepare(tiny_config())
        assert prepared.target_col == CLOSE

    def test_targets_align_with_scaled_rows(self):
        cfg = tiny_config()
        prepared = prepare(cfg)
        L = cfg.lookback
        for i in (0, len(prepared.train) - 1):
            assert prepared.train.targets[i] == prepared.scaled[i + L, CLOSE]

    @staticmethod
    def csv_config(tmp_path, horizons, train_frac=0.8):
        """A 30-row CSV and L=4: 26 samples, at 0.8 split 20 / 6."""
        path = tmp_path / "prices.csv"
        write_csv(gen_synthetic(make_regime("normal", 30, 3)), path)
        return ExperimentConfig(model="kan", data=DataConfig(source="csv", csv_path=str(path)),
                                lookback=4, horizons=horizons, train_frac=train_frac)

    @pytest.mark.parametrize("train_frac,horizons,match", [
        (0.95, (5,), "horizon 5: .* leave 24 training and 2 test"),
        (0.02, (1,), "horizon 1: .* leave 0 training and 26 test"),
    ], ids=["short_test_segment", "no_training_sample"])
    def test_no_feasible_anchor_refused(self, tmp_path, train_frac, horizons, match):
        cfg = self.csv_config(tmp_path, horizons, train_frac)
        with pytest.raises(ValueError, match=f"series of 30 rows cannot anchor {match}"):
            prepare(cfg)

    def test_infeasible_horizon_beside_feasible_ones(self, tmp_path):
        with pytest.raises(ValueError, match="cannot anchor horizon 7"):
            prepare(self.csv_config(tmp_path, (2, 7)))
        # a test segment exactly as long as the largest horizon anchors it once
        prepared = prepare(self.csv_config(tmp_path, (2, 6)))
        short, long = _horizon_evals(StepAheadOracle(), prepared, (2, 6))
        assert (short.n_anchors, long.n_anchors) == (5, 1)
        assert math.isfinite(short.rmse) and math.isfinite(long.rmse)
        assert len(long.sample_pred) == len(long.sample_actual) == 6


class StepAheadOracle:
    """Predicts the previous close — transparent for walk-forward checks."""

    def encode(self, windows):
        return (windows,)

    def predict_window_batch(self, encoded):
        (windows,) = encoded
        return windows[:, -1, 0]


def fabricate_prepared(n_rows, lookback, n_train, seed=0):
    """A one-feature series split after ``n_train`` one-step windows, as
    ``prepare`` splits it: test window i starts at row n_train + i."""
    scaled = make_rng(seed).uniform(size=(n_rows, 1))
    windows = make_windows(scaled, lookback, 1, target_col=0)
    train, test = (WindowedDataset(windows.inputs[part], windows.targets[part], lookback, 1)
                   for part in (slice(None, n_train), slice(n_train, None)))
    return PreparedData(
        scaled=scaled, scaler=None, target_col=0, n_train=n_train,
        train=train, test=test, lookback=lookback,
    )


class TestHorizonEval:
    def test_h1_matches_hand_loop(self):
        prepared = fabricate_prepared(n_rows=40, lookback=5, n_train=20)
        model = StepAheadOracle()
        summary = _horizon_evals(model, prepared, [1])[0]
        # anchors 20..34: predict scaled[j+4,0], truth scaled[j+5,0]
        pred = prepared.scaled[np.arange(20, 35) + 4, 0]
        actual = prepared.scaled[np.arange(20, 35) + 5, 0]
        expected = float(np.sqrt(np.mean((pred - actual) ** 2)))
        assert summary.n_anchors == 15
        assert summary.rmse == pytest.approx(expected, rel=1e-14)

    def test_h3_copy_forward_constant_prediction(self):
        # the persistence oracle re-reads its own copied-forward close, so
        # every step of an anchor's trace equals the anchor's last seen close
        prepared = fabricate_prepared(n_rows=30, lookback=4, n_train=15)
        summary = _horizon_evals(StepAheadOracle(), prepared, [3])[0]
        first_anchor_close = prepared.scaled[15 + 3, 0]
        assert summary.sample_pred == [first_anchor_close] * 3
        assert summary.sample_actual == [
            prepared.scaled[15 + 4 + s, 0] for s in range(3)
        ]
        # final-step RMSE compares prediction 3 steps out only
        anchors = np.arange(15, 30 - 4 - 3 + 1)
        pred = prepared.scaled[anchors + 3, 0]
        actual = prepared.scaled[anchors + 4 + 2, 0]
        assert summary.rmse == pytest.approx(
            float(np.sqrt(np.mean((pred - actual) ** 2))), rel=1e-14
        )

    def test_anchor_budget_thins_evenly(self):
        horizon = ANCHOR_BUDGET // 10  # n_max = 10
        prepared = fabricate_prepared(
            n_rows=horizon + 40, lookback=2, n_train=5, seed=1
        )
        summary = _horizon_evals(StepAheadOracle(), prepared, [horizon])[0]
        full = (horizon + 40) - 2 - horizon - 5 + 1  # 34 eligible anchors
        assert full > 10
        assert summary.n_anchors == 10


class RowCounter(StepAheadOracle):
    """The persistence oracle, recording how many windows each call sees."""

    def __init__(self):
        self.rows = []

    def predict_window_batch(self, encoded):
        self.rows.append(len(encoded[0]))
        return super().predict_window_batch(encoded)


class TestSharedRollout:
    # 80 rows, L=5, 40 training samples: 35 anchors at h=1. A budget of 60
    # thins h=2 (34 anchors) to 30 and h=7 (29 anchors) to 8, neither a prefix.
    HORIZONS = (1, 2, 7)

    def prepared(self, monkeypatch):
        monkeypatch.setattr(bench, "ANCHOR_BUDGET", 60)
        return fabricate_prepared(n_rows=80, lookback=5, n_train=40, seed=4)

    def test_budget_thins_to_anchors_that_are_not_a_prefix(self, monkeypatch):
        prepared = self.prepared(monkeypatch)
        assert np.array_equal(bench._anchors(prepared, 1), np.arange(40, 75))
        for h, n in ((2, 30), (7, 8)):
            anchors = bench._anchors(prepared, h)
            # spread evenly up to the last eligible start row, 80 - 5 - h
            assert anchors.size == n and anchors[0] == 40 and anchors[-1] == 75 - h

    def test_equals_one_horizon_calls_exactly_for_the_oracle(self, monkeypatch):
        prepared = self.prepared(monkeypatch)
        shared = _horizon_evals(StepAheadOracle(), prepared, self.HORIZONS)
        alone = [_horizon_evals(StepAheadOracle(), prepared, [h])[0] for h in self.HORIZONS]
        assert shared == alone

    @pytest.mark.parametrize("family", ["kan", "lstm"])
    def test_equals_one_horizon_calls_for_tiny_models(self, monkeypatch, family):
        prepared = self.prepared(monkeypatch)
        if family == "kan":
            model = kan_init([5, 3, 1], SplineSpec(3, 2), make_rng(50))
        else:
            model = lstm_init(1, hidden=3, n_layers=2, rng=make_rng(50))
        shared = _horizon_evals(model, prepared, self.HORIZONS)
        alone = [_horizon_evals(model, prepared, [h])[0] for h in self.HORIZONS]
        for got, want in zip(shared, alone):
            assert (got.horizon, got.n_anchors) == (want.horizon, want.n_anchors)
            assert got.sample_actual == want.sample_actual
            assert got.rmse == pytest.approx(want.rmse, rel=1e-12, abs=0)
            assert got.sample_pred == pytest.approx(want.sample_pred, rel=1e-12, abs=0)

    def test_one_predict_call_per_step_of_the_deepest_horizon(self, monkeypatch):
        prepared = self.prepared(monkeypatch)
        spy = RowCounter()
        _horizon_evals(spy, prepared, self.HORIZONS)
        assert len(spy.rows) == max(self.HORIZONS)
        assert all(a >= b for a, b in zip(spy.rows, spy.rows[1:]))
        union = np.unique(np.concatenate([bench._anchors(prepared, h) for h in self.HORIZONS]))
        assert spy.rows[0] == union.size
        assert spy.rows[-1] == 8  # only the h=7 anchors roll to step 7

    def test_unordered_and_repeated_horizons(self, monkeypatch):
        prepared = self.prepared(monkeypatch)
        shared = _horizon_evals(StepAheadOracle(), prepared, (7, 1, 7, 2))
        alone = [_horizon_evals(StepAheadOracle(), prepared, [h])[0] for h in (7, 1, 7, 2)]
        assert shared == alone


class TestRunExperiment:
    def test_kan_smoke(self):
        result = run_experiment(tiny_config("kan"))
        assert result.failure is None
        assert math.isfinite(result.train_rmse)
        assert math.isfinite(result.test_rmse)
        assert result.wall_seconds > 0
        assert [h.horizon for h in result.horizons] == [1, 2]
        assert all(math.isfinite(h.rmse) for h in result.horizons)
        assert result.version.startswith("kanbench-")

    def test_lstm_smoke(self):
        result = run_experiment(tiny_config("lstm"))
        assert result.failure is None
        assert math.isfinite(result.test_rmse)

    def test_divergence_becomes_failure_record(self):
        cfg = tiny_config("lstm", lr=1e200)
        result = run_experiment(cfg)
        assert result.failure is not None
        assert "diverged" in result.failure
        assert math.isnan(result.test_rmse)
        assert result.horizons == []

    def test_divergence_record_names_its_type(self):
        result = run_experiment(tiny_config("lstm", lr=1e200))
        assert result.failure.startswith("TrainingDiverged: training diverged at epoch")

    def test_unanchorable_csv_becomes_failure_record(self, tmp_path):
        path = tmp_path / "prices.csv"
        write_csv(gen_synthetic(make_regime("normal", 40, 3)), path)
        cfg = ExperimentConfig(model="kan", data=DataConfig(source="csv", csv_path=str(path)),
                               lookback=8, horizons=(20,))
        result = run_experiment(cfg)
        assert result.failure.startswith("ValueError: series of 40 rows cannot anchor horizon 20")
        assert result.horizons == [] and math.isnan(result.test_rmse)

    def test_synthetic_series_runs_as_its_csv_does(self, tmp_path):
        # 18 days, L=8: 10 samples split 8 / 2, which anchors horizon 1; the
        # anchor rule alone decides, for a config's days as for a CSV's rows
        path = tmp_path / "prices.csv"
        write_csv(gen_synthetic(make_regime("normal", 18, 3)), path)
        synthetic = ExperimentConfig(model="kan", data=DataConfig(days=18, data_seed=3),
                                     lookback=8, horizons=(1,),
                                     train=TrainConfig(optimizer="lbfgs", max_epochs=5),
                                     kan=KanParams(hidden=0))
        from_csv = dataclasses.replace(synthetic,
                                       data=DataConfig(source="csv", csv_path=str(path)))
        a, b = run_experiment(synthetic), run_experiment(from_csv)
        assert a.failure is None and b.failure is None
        assert (a.train_rmse, a.test_rmse, a.epochs_run) == (b.train_rmse, b.test_rmse, b.epochs_run)
        assert a.horizons == b.horizons and a.horizons[0].n_anchors == 2

    def test_deterministic_canonical_json(self):
        cfg = tiny_config("kan", "trending", seed=5)
        a = result_canonical_json(run_experiment(cfg))
        b = result_canonical_json(run_experiment(cfg))
        assert a == b

    def test_lstm_canonical_json_independent_of_blas_threads(self):
        # the thread count must be set before numpy loads, so each run is a
        # fresh interpreter; two layers put the wavefront's block matmuls in play
        cfg = dataclasses.replace(tiny_config("lstm"), lstm=LstmParams(layers=2, units=4))
        script = ("import json, sys\n"
                  "from kanbench.bench import config_from_dict as load, run_experiment as run\n"
                  "from kanbench.bench import result_canonical_json as canonical\n"
                  "print(canonical(run(load(json.loads(sys.argv[1])))))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", script, json.dumps(config_to_dict(cfg))],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert json.loads(outs[0])["failure"] is None
        assert outs[0] == outs[1]

    def test_headline_lstm_experiment_holds_its_working_set(self):
        # windows are views of the series and forward-only passes keep no
        # tanh(c) buffer, so the peak is the rollout's slot buffers and the
        # series; two epochs train on the same shapes as the headline's 40
        headline = next(c for c in load_matrix(HEADLINE) if c.model == "lstm")
        cfg = dataclasses.replace(headline, train=dataclasses.replace(headline.train, max_epochs=2))
        run_experiment(tiny_config("lstm"))  # warm
        tracemalloc.start()
        try:
            result = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.failure is None
        assert peak <= 3.2e6

    def test_headline_kan_experiment_reads_its_features_in_place(self):
        # the fit holds its encoded features, the L-BFGS pairs and one
        # full-batch loss+grad; a column-major series would add a copy of
        # the silu features (0.94 MB) to every L-BFGS evaluation. About
        # 6.9 MB at two epochs, 7.8 MB with that copy
        headline = next(c for c in load_matrix(HEADLINE) if c.model == "kan")
        cfg = dataclasses.replace(headline, train=dataclasses.replace(headline.train, max_epochs=2))
        run_experiment(tiny_config("kan"))  # warm
        tracemalloc.start()
        try:
            result = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.failure is None
        assert peak <= 7.3e6

    def test_canonical_json_excludes_wall_clock(self):
        result = run_experiment(tiny_config("kan"))
        payload = json.loads(result_canonical_json(result))
        assert "wall_seconds" not in payload
        assert "wall_seconds" in result_to_dict(result)


class TestRunMatrix:
    def test_results_in_config_order(self):
        configs = [tiny_config("kan", name="a"), tiny_config("lstm", name="b"),
                   tiny_config("kan", "volatile", name="c")]
        results = run_matrix(configs)
        assert [r.config.name for r in results] == ["a", "b", "c"]

    def test_parallel_equals_serial(self):
        configs = [
            tiny_config("kan", "normal", seed=0),
            tiny_config("lstm", "normal", seed=0),
            tiny_config("kan", "volatile", seed=1),
            tiny_config("lstm", "trending", seed=2),
        ]
        serial = [result_canonical_json(r) for r in run_matrix(configs, parallelism=1)]
        parallel = [result_canonical_json(r) for r in run_matrix(configs, parallelism=4)]
        assert serial == parallel

    def test_parallelism_below_one_refused(self):
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            run_matrix([tiny_config("kan")], parallelism=0)

    def test_seed_isolation_between_experiments(self):
        solo = result_canonical_json(run_matrix([tiny_config("lstm", seed=4)])[0])
        paired = run_matrix([tiny_config("kan", seed=9), tiny_config("lstm", seed=4)])
        assert result_canonical_json(paired[1]) == solo

    def test_failure_captured_matrix_completes(self):
        configs = [tiny_config("kan"), tiny_config("lstm", lr=1e200)]
        results = run_matrix(configs)
        assert results[0].failure is None
        assert results[1].failure is not None

    def test_invalid_matrix_rejected_upfront(self, tmp_path, monkeypatch):
        def unreachable(config):
            raise AssertionError("an experiment ran before the matrix was checked")

        monkeypatch.setattr(bench, "run_experiment", unreachable)
        bad = {**config_to_dict(tiny_config()), "horizons": [999]}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps([config_to_dict(tiny_config()), bad]))
        with pytest.raises(ValueError, match="cannot anchor"):
            load_matrix(path)
        with pytest.raises(ValueError, match="no experiments"):
            run_matrix([])


class TestHeadlineMatrix:
    def test_three_regimes_two_models_three_seeds(self):
        configs = load_matrix(HEADLINE)
        assert sorted((c.data.regime, c.model, c.seed) for c in configs) == sorted(
            itertools.product(("normal", "volatile", "trending"), ("kan", "lstm"), (0, 1, 2))
        )
        assert all(c.horizons == (1, 2, 100, 200) for c in configs)


def fake_result(model, regime, horizon_rmses, train_rmse=0.1, wall=1.0,
                name="", failure=None):
    cfg = ExperimentConfig(
        model=model, name=name,
        data=DataConfig(regime=regime, days=1250),
        horizons=tuple(h for h, _ in horizon_rmses) or (1,),
    )
    return ExperimentResult(
        config=cfg,
        train_rmse=train_rmse,
        test_rmse=horizon_rmses[0][1] if horizon_rmses else float("nan"),
        wall_seconds=wall,
        epochs_run=3,
        horizons=[
            HorizonSummary(h, 5, r, [0.5] * h, [0.6] * h) for h, r in horizon_rmses
        ],
        version="kanbench-test",
        failure=failure,
    )


class TestComparisonTable:
    def make_results(self):
        return [
            fake_result("kan", "normal", [(1, 0.02), (2, 0.03)], wall=1.0),
            fake_result("lstm", "normal", [(1, 0.01), (2, 0.05)], wall=4.0),
            fake_result("kan", "volatile", [(1, 0.08), (2, 0.06)], wall=2.0),
            fake_result("lstm", "volatile", [(1, 0.04), (2, 0.12)], wall=6.0),
        ]

    def test_row_count_and_sort(self):
        rows = comparison_table(self.make_results())
        assert len(rows) == 8
        assert [(r.regime, r.horizon, r.model) for r in rows] == [
            ("normal", 1, "kan"), ("normal", 1, "lstm"),
            ("normal", 2, "kan"), ("normal", 2, "lstm"),
            ("volatile", 1, "kan"), ("volatile", 1, "lstm"),
            ("volatile", 2, "kan"), ("volatile", 2, "lstm"),
        ]

    def test_ratio_hand_recomputed(self):
        rows = comparison_table(self.make_results())
        by_cell = {(r.regime, r.horizon): r.ratio for r in rows}
        assert by_cell[("normal", 1)] == 0.02 / 0.01
        assert by_cell[("normal", 2)] == 0.03 / 0.05
        assert by_cell[("volatile", 1)] == 0.08 / 0.04
        assert by_cell[("volatile", 2)] == 0.06 / 0.12
        # ratio is identical on both rows of a cell
        for r in rows:
            assert r.ratio == by_cell[(r.regime, r.horizon)]

    def test_ratio_uses_best_per_family(self):
        results = self.make_results() + [
            fake_result("kan", "normal", [(1, 0.005)], name="better-kan")
        ]
        rows = comparison_table(results)
        normal_h1 = [r for r in rows if (r.regime, r.horizon) == ("normal", 1)]
        assert all(r.ratio == 0.005 / 0.01 for r in normal_h1)

    def test_missing_side_has_empty_ratio(self):
        rows = comparison_table([fake_result("kan", "normal", [(1, 0.02)])])
        assert rows[0].ratio is None

    def test_best_only_keeps_one_row_per_cell_and_family(self):
        results = self.make_results() + [
            fake_result("kan", "normal", [(1, 0.005)], name="better-kan")
        ]
        rows = comparison_table(results, best_only=True)
        normal_h1_kan = [
            r for r in rows if (r.regime, r.horizon, r.model) == ("normal", 1, "kan")
        ]
        assert len(normal_h1_kan) == 1
        assert normal_h1_kan[0].test_rmse == 0.005
        assert normal_h1_kan[0].config_label == "better-kan"

    def test_failed_experiment_excluded_from_best(self):
        # a failure record has no horizons, as run_experiment makes it
        results = [
            fake_result("kan", "normal", [], failure="diverged"),
            fake_result("kan", "normal", [(1, 0.03)]),
            fake_result("lstm", "normal", [(1, 0.02)]),
        ]
        for best_only in (False, True):
            rows = comparison_table(results, best_only=best_only)
            assert [(r.model, r.test_rmse) for r in rows] == [("kan", 0.03), ("lstm", 0.02)]
            assert all(r.ratio == 0.03 / 0.02 for r in rows)


class TestRuntimeSummary:
    def test_means_and_ratio(self):
        results = [
            fake_result("kan", "normal", [(1, 0.1)], wall=1.0),
            fake_result("kan", "normal", [(1, 0.1)], wall=3.0),
            fake_result("lstm", "normal", [(1, 0.1)], wall=4.0),
        ]
        summary = runtime_summary(results)
        assert summary["kan"]["mean_wall_seconds"] == 2.0
        assert summary["kan"]["n_experiments"] == 2
        assert summary["lstm"]["mean_wall_seconds"] == 4.0
        assert summary["lstm_over_kan_ratio"] == 2.0

    def test_failures_excluded(self):
        results = [
            fake_result("kan", "normal", [(1, 0.1)], wall=1.0),
            fake_result("kan", "normal", [], wall=99.0, failure="diverged"),
        ]
        assert runtime_summary(results)["kan"]["mean_wall_seconds"] == 1.0


class TestSerialization:
    def test_result_round_trip(self):
        result = run_experiment(tiny_config("kan"))
        back = result_from_dict(result_to_dict(result))
        assert result_canonical_json(back) == result_canonical_json(result)
        assert back.wall_seconds == result.wall_seconds

    def test_save_load_round_trip(self, tmp_path):
        results = run_matrix([tiny_config("kan"), tiny_config("lstm")])
        path = tmp_path / "results.json"
        save_results(results, path)
        loaded = load_results(path)
        assert [result_canonical_json(r) for r in loaded] == [
            result_canonical_json(r) for r in results
        ]

    def test_failure_round_trip(self):
        result = run_experiment(tiny_config("lstm", lr=1e200))
        back = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert back.failure == result.failure
        assert math.isnan(back.test_rmse)

    def test_saved_results_are_strict_json(self, tmp_path):
        results = run_matrix([tiny_config("kan"), tiny_config("lstm", lr=1e200)])
        assert results[1].failure is not None
        path = tmp_path / "results.json"
        save_results(results, path)

        def no_constant(token):
            raise AssertionError(f"results.json holds {token}")

        records = json.loads(path.read_text(), parse_constant=no_constant)["results"]
        assert records[1]["train_rmse"] is None and records[1]["test_rmse"] is None
        assert math.isnan(load_results(path)[1].test_rmse)

    @staticmethod
    def record(drop=None, **changes):
        d = result_to_dict(fake_result("kan", "normal", [(1, 0.02), (2, 0.03)]))
        d["horizons"][1].pop(drop, None)
        d["horizons"][1].update(changes)
        return d

    @pytest.mark.parametrize("changes,field", [
        ({"n_anchors": 0}, "n_anchors"),
        ({"rmse": float("nan")}, "rmse"),
        ({"rmse": None}, "rmse"),
        ({"sample_pred": [0.5]}, "sample_pred"),
        ({"sample_actual": [0.6] * 3}, "sample_actual"),
    ])
    def test_impossible_horizon_rejected(self, changes, field):
        with pytest.raises(ValueError,
                           match=rf"result kan-g3k2h8 \(seed 0\): horizons\[1\]\.{field}"):
            result_from_dict(self.record(**changes))

    @pytest.mark.parametrize("drop,changes,match", [
        ("train_rmse", {}, r"\(seed 0\) is missing field 'train_rmse'"),
        ("epochs_run", {}, r"\(seed 0\) is missing field 'epochs_run'"),
        ("version", {}, r"\(seed 0\) is missing field 'version'"),
        ("horizons", {}, r"\(seed 0\) is missing field 'horizons'"),
        ("config", {}, r"result is missing field 'config'"),
        (None, {"epochs_run": "3"}, r"\(seed 0\): epochs_run must be an int"),
        (None, {"wall_seconds": "x"}, r"\(seed 0\): wall_seconds must be"),
        (None, {"test_rmse": "0.1"}, r"\(seed 0\): test_rmse must be"),
        (None, {"horizons": {}}, r"\(seed 0\): horizons must be a list"),
    ])
    def test_malformed_record_names_field(self, drop, changes, match):
        d = {**self.record(), **changes}
        d.pop(drop, None)
        with pytest.raises(ValueError, match=match):
            result_from_dict(d)

    @pytest.mark.parametrize("changes,match", [
        ({"extra": 1}, r"horizons\[1\] has unknown field 'extra'"),
        ({"horizon": 2.0}, r"horizons\[1\]\.horizon must be an int"),
        ({"sample_pred": ["0.5", 0.5]}, r"horizons\[1\]\.sample_pred must be a list of numbers"),
        ({"drop": "rmse"}, r"horizons\[1\] is missing field 'rmse'"),
    ])
    def test_malformed_horizon_names_field(self, changes, match):
        with pytest.raises(ValueError, match=match):
            result_from_dict(self.record(**changes))

    @pytest.mark.parametrize("payload,match", [
        ({"records": []}, "is missing field 'results'"),
        ({"results": {}}, "'results' must be a list"),
        ([], "must be an object"),
    ])
    def test_malformed_results_file_names_field(self, tmp_path, payload, match):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            load_results(path)

    def test_failure_carrying_horizons_rejected(self):
        d = {**self.record(), "failure": "diverged"}
        with pytest.raises(ValueError, match="failure record carries horizons"):
            result_from_dict(d)
        assert result_from_dict({**d, "horizons": []}).failure == "diverged"


class TestEmitReport:
    def results(self):
        return [
            fake_result("kan", "normal", [(1, 0.02), (2, 0.03)], wall=1.0),
            fake_result("lstm", "normal", [(1, 0.01), (2, 0.05)], wall=4.0),
        ]

    def test_csv_header_and_rows(self, tmp_path):
        written = emit_report(self.results(), "csv", tmp_path)
        paths = {p.rsplit("/", 1)[-1] for p in map(str, written)}
        assert paths == {"results.csv", "runtime.csv"}
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == CSV_REPORT_HEADER
        assert len(lines) == 5  # 2 experiments x 2 horizons
        first = lines[1].split(",")
        assert first[0] == "kan"
        assert first[3] == "1"
        assert first[5] == "0.0200"  # 4-decimal fixed point
        assert first[7] == "2.0000"  # ratio 0.02/0.01

    def test_runtime_csv(self, tmp_path):
        emit_report(self.results(), "csv", tmp_path)
        lines = (tmp_path / "runtime.csv").read_text().splitlines()
        assert lines[0] == "model,mean_wall_seconds,n_experiments"
        assert lines[1] == "kan,1.0000,1"
        assert lines[2] == "lstm,4.0000,1"
        assert lines[3].startswith("lstm_over_kan_ratio,4.0000")

    def test_markdown_table(self, tmp_path):
        emit_report(self.results(), "markdown-table", tmp_path)
        lines = (tmp_path / "results.md").read_text().splitlines()
        assert lines[0] == "| " + " | ".join(CSV_REPORT_HEADER.split(",")) + " |"
        assert lines[1].startswith("|---|")
        assert len([l for l in lines if l.startswith("| ")]) == 5  # header + 4 rows

    def test_gnuplot_traces(self, tmp_path):
        written = emit_report(self.results(), "gnuplot-data", tmp_path)
        assert len(written) == 4  # 2 experiments x 2 horizons
        name = written[0].rsplit("/", 1)[-1]
        assert name == "trace_000_kan_normal_h1.dat"
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "# step actual predicted"
        assert lines[1].split() == ["1", "0.6", "0.5"]

    def test_unknown_format_and_empty(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(self.results(), "pdf", tmp_path)
        with pytest.raises(ValueError, match="no results"):
            emit_report([], "csv", tmp_path)

    def test_csv_round_trip_at_4_decimals(self, tmp_path):
        emit_report(self.results(), "csv", tmp_path)
        rows = comparison_table(self.results())
        lines = (tmp_path / "results.csv").read_text().splitlines()[1:]
        for row, line in zip(rows, lines):
            cells = line.split(",")
            assert float(cells[4]) == pytest.approx(row.train_rmse, abs=5e-5)
            assert float(cells[5]) == pytest.approx(row.test_rmse, abs=5e-5)
            assert float(cells[7]) == pytest.approx(row.ratio, abs=5e-5)
