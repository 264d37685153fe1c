"""Tests of the benchmark's own checks and tracer.

Every check must pass on a correct input and fail on a deliberately
corrupted one, or a broken program could pass the benchmark silently.
Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import copy
import csv
import json
import math
import types

import numpy as np
import pytest

from kanbench import bench, forecast, kan, lstm, numcore
from kanbench.bspline import SplineSpec
from kanbench.data import CLOSE, MinMaxScaler
from kanbench.numcore import make_rng

import boot
import checks
import workloads
from tracer import PER_LAYER, Tracer

RNG = np.random.default_rng(0)


def fake_record(model="kan", regime="normal", horizons=(1, 2, 5), test_rmse=0.1):
    """An experiment record whose traces are consistent across horizons."""
    config = bench.config_to_dict(
        bench.ExperimentConfig(model=model, data=bench.DataConfig(regime=regime), horizons=horizons)
    )
    pred = list(RNG.random(max(horizons)))
    actual = list(RNG.random(max(horizons)))
    return {
        "config": config,
        "train_rmse": 0.05,
        "test_rmse": test_rmse,
        "epochs_run": 3,
        "horizons": [
            {"horizon": h, "n_anchors": 10, "rmse": test_rmse if h == 1 else test_rmse * (1 + h),
             "sample_pred": pred[:h], "sample_actual": actual[:h]}
            for h in horizons
        ],
        "version": "kanbench-test",
        "failure": None,
    }


def test_finite_rejects_failure_nan_and_zero():
    assert checks.check_finite(fake_record())[0]
    for corrupt in ({"failure": "diverged"}, {"test_rmse": math.nan}, {"train_rmse": 0.0}):
        record = {**fake_record(), **corrupt}
        assert not checks.check_finite(record)[0]


def test_h1_equals_test_catches_a_swapped_horizon():
    record = fake_record()
    assert checks.check_h1_equals_test(record)[0]
    h1, h2 = record["horizons"][0], record["horizons"][1]
    h1["horizon"], h2["horizon"] = 2, 1
    assert not checks.check_h1_equals_test(record)[0]
    assert not checks.check_prefix(record)[0]


def test_prefix_catches_a_perturbed_trace():
    record = fake_record()
    assert checks.check_prefix(record)[0]
    for key in ("sample_pred", "sample_actual"):
        bad = copy.deepcopy(record)
        bad["horizons"][2][key][1] += 1e-9
        assert not checks.check_prefix(bad)[0]


def series_and_record(lookback=20):
    raw = 100 + np.cumsum(RNG.standard_normal((300, 6)), axis=0)
    n_train = checks.split_point(raw.shape[0], lookback, 0.8)
    scaled = checks.minmax_scale(raw, n_train + lookback)
    record = fake_record()
    for h in record["horizons"]:
        start = n_train + lookback
        h["sample_actual"] = list(scaled[start : start + h["horizon"], CLOSE])
    return raw, scaled, n_train, record


def test_minmax_scale_matches_the_program_scaler():
    raw, scaled, n_train, _ = series_and_record()
    fit = raw[: n_train + 20]
    program = MinMaxScaler(fit.min(axis=0), fit.max(axis=0)).transform(raw)
    assert np.array_equal(program, scaled)


def test_sample_actual_catches_a_mis_scaled_actual():
    raw, scaled, n_train, record = series_and_record()
    assert checks.check_sample_actual(record, scaled, n_train, CLOSE)[0]
    leaky = checks.minmax_scale(raw, raw.shape[0])  # fitted on every row
    assert not checks.check_sample_actual(record, leaky, n_train, CLOSE)[0]
    shifted = copy.deepcopy(record)
    shifted["horizons"][2]["sample_actual"] = list(scaled[n_train + 21 : n_train + 26, CLOSE])
    assert not checks.check_sample_actual(shifted, scaled, n_train, CLOSE)[0]


def test_trained_must_beat_untrained():
    assert checks.check_trained_beats_untrained(0.1, 0.2)[0]
    assert not checks.check_trained_beats_untrained(0.2, 0.2)[0]


def small_models():
    rng = make_rng(3)
    net_kan = kan.kan_init([12, 3, 1], SplineSpec(3, 2), rng)
    x_kan = rng.random((40, 12))
    net_lstm = lstm.lstm_init(3, 4, 2, rng)
    x_lstm = rng.random((8, 4, 3))
    return [(net_kan, x_kan, rng.random(40)), (net_lstm, x_lstm, rng.random(8))]


@pytest.mark.parametrize("case", [0, 1], ids=["kan_backward", "lstm_loss_and_grad"])
def test_gradient_check_catches_a_wrong_coordinate(case):
    model, x, y = small_models()[case]
    params = model.pack()

    def exact(flat):
        model.unpack(flat)
        return model.batch_loss_and_grad(x, y)

    coords = list(range(0, model.n_params, 7))
    assert checks.check_gradient(exact, params, coords)[0]

    def wrong(flat):
        loss, grad = exact(flat)
        grad = grad.copy()
        grad[coords[2]] *= 1.01
        return loss, grad

    assert not checks.check_gradient(wrong, params, coords)[0]


def test_forecast_trace_catches_a_perturbed_trace_and_a_bad_price(tmp_path):
    model, _, _ = small_models()[1]
    window = RNG.random((4, 3))
    scaler = MinMaxScaler([0.0, 0.0, 10.0], [1.0, 1.0, 30.0])
    trace = forecast.iterative_forecast(model, window, 6, close_col=2)
    path = tmp_path / "trace.csv"
    forecast.write_trace_csv(trace, path, scaler, price_feature=2)
    reference = forecast.iterative_forecast_batch(model, window[None], 6, close_col=2)[0]
    pred, price = checks.read_trace_csv(path)
    assert checks.check_forecast_trace(pred, price, reference, 10.0, 30.0)[0]
    bad = pred.copy()
    bad[3] += 1e-9
    assert not checks.check_forecast_trace(bad, price, reference, 10.0, 30.0)[0]
    assert not checks.check_forecast_trace(pred, price, reference, 10.0, 31.0)[0]


def test_seed_window_catches_a_mis_scaled_checkpoint():
    raw, scaled, n_train, _ = series_and_record()
    n_fit = n_train + 20
    bundle = {
        "scaler": {"mins": list(raw[:n_fit].min(axis=0)), "maxs": list(raw[:n_fit].max(axis=0))},
        "lookback": 20,
        "seed_window": scaled[-20:].tolist(),
    }
    assert checks.check_seed_window(bundle, raw, scaled, n_fit)[0]
    leaky = checks.minmax_scale(raw, raw.shape[0])
    assert not checks.check_seed_window(bundle, raw, leaky, n_fit)[0]
    bad = copy.deepcopy(bundle)
    bad["seed_window"] = scaled[-21:-1].tolist()
    assert not checks.check_seed_window(bad, raw, scaled, n_fit)[0]


def test_report_ratio_catches_a_mismatched_ratio(tmp_path):
    records = [
        fake_record("kan", "normal", test_rmse=0.2),
        fake_record("lstm", "normal", test_rmse=0.1),
        fake_record("kan", "volatile", test_rmse=0.3),
        fake_record("lstm", "volatile", test_rmse=0.4),
    ]
    results = [bench.result_from_dict(r) for r in records]
    bench.emit_report(results, "csv", tmp_path)
    path = tmp_path / "results.csv"
    assert checks.check_report_ratio(records, path)[0]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][-1] = f"{float(rows[3][-1]) + 1e-3:.4f}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert not checks.check_report_ratio(records, path)[0]


def test_best_ratios_are_best_kan_over_best_lstm():
    records = [fake_record("kan", test_rmse=0.2), fake_record("kan", test_rmse=0.3),
               fake_record("lstm", test_rmse=0.1)]
    assert checks.best_ratios(records)[("normal", 1)] == pytest.approx(2.0)


def test_digest_ignores_order_but_not_content():
    a, b = checks.canonical(fake_record()), checks.canonical(fake_record("lstm"))
    assert checks.results_digest([a, b]) == checks.results_digest([b, a])
    assert checks.results_digest([a, b]) != checks.results_digest([a, a])
    assert checks.results_digest([a], ["x"]) != checks.results_digest([a], ["y"])


def test_tracer_patches_every_binding_and_restores_it():
    originals = (kan.basis_matrix, numcore.sigmoid, kan.kan_forward_batch)
    model, x, _ = small_models()[0]
    tracer = Tracer()
    tracer.install()
    try:
        model.predict_window_batch(x)
    finally:
        tracer.uninstall()
    assert (kan.basis_matrix, numcore.sigmoid, kan.kan_forward_batch) == originals
    agg = tracer.aggregate()
    assert agg["kan.kan_forward_batch"]["calls"] == 1
    assert agg["kan.kan_forward_batch"]["work"] == 40
    assert agg["bspline.basis_matrix"]["calls"] == 2  # one per layer
    assert agg["bspline.basis_matrix"]["work"] == 40 * 12 + 40 * 3
    forward = agg["kan.kan_forward_batch"]
    assert 0.0 <= forward["self_s"] <= forward["total_s"]


def test_tracer_reports_unobserved_never_zero():
    tracer = Tracer()
    tracer.missing.add("bspline.basis_grad_matrix")
    metrics = tracer.metrics({"kan.kan_backward"}, {"cli.startup_s": 0.3})
    assert [name for name, _ in PER_LAYER] == list(metrics)
    assert metrics["kan.kan_backward.calls"]["status"] == "unobserved"
    assert metrics["bspline.basis_grad_matrix.points"]["value"] is None
    assert metrics["lstm.lstm_forward_batch.calls"] == {"value": 0, "unit": "count"}
    assert metrics["cli.startup_s"]["value"] == 0.3


def test_benchmark_json_lists_every_workload_and_per_layer_metric():
    with open(boot.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("case", [0, 1], ids=["kan", "lstm"])
def test_gradient_case_covers_every_parameter_array(case):
    model = small_models()[case][0]
    x = RNG.random((40, 4, 3))
    series = types.SimpleNamespace(x=x, y=RNG.random(40))
    _, _, params, coords = workloads.gradient_case(model, series, np.random.default_rng(5))
    assert params.shape == (model.n_params,) and len(coords) >= workloads.FD_COORDS
    offset = 0
    for a in workloads.parameter_arrays(model):
        assert any(offset <= c < offset + a.size for c in coords)
        offset += a.size
    assert offset == model.n_params
