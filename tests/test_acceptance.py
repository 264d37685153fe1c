"""Acceptance gate: eight end-to-end criteria, each printing one PASS/FAIL
line with its measured numbers so a run's transcript documents the release.

Run with `pytest tests/test_acceptance.py -v` (the lines print even under
output capture). Budgets are wall-clock on a desktop-class machine.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from kanbench.bench import (
    DataConfig,
    comparison_table,
    emit_report,
    load_matrix,
    result_canonical_json,
    run_experiment,
    run_matrix,
    runtime_summary,
)
from kanbench.bspline import SplineSpec, basis_grad_matrix, basis_matrix
from kanbench.data import (
    chrono_split,
    gen_synthetic,
    make_regime,
    make_windows,
    scaler_fit,
)
from kanbench.forecast import iterative_forecast
from kanbench.kan import kan_forward_batch, kan_init
from kanbench.lstm import lstm_forward_batch, lstm_init
from kanbench.numcore import make_rng
from kanbench.optim import (
    LbfgsState,
    TrainConfig,
    adam_init,
    adam_step,
    lbfgs_step,
    train,
)


def check(capsys, num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def fd_grad(loss_fn, params, h=1e-5):
    grad = np.empty_like(params)
    for i in range(params.size):
        p = params.copy()
        p[i] += h
        hi = loss_fn(p)
        p[i] -= 2 * h
        lo = loss_fn(p)
        grad[i] = (hi - lo) / (2 * h)
    return grad


def worst_mismatch(analytic, numeric, abs_floor=1e-8):
    """Largest relative error among coordinates above the absolute floor."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(diff <= abs_floor, 0.0, diff / np.maximum(scale, 1e-300))
    return float(rel.max())


def max_errors(analytic, numeric):
    """True (max absolute, max relative) error over every coordinate, unfloored."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return float(diff.max()), float((diff / np.maximum(scale, 1e-300)).max())


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.perf_counter()
    ok, detail = True, ""
    try:
        rng = make_rng(101)
        worst_kan = 0.0
        errs_kan = []
        kan = kan_init([4, 3, 1], SplineSpec(4, 3), rng)
        x = rng.uniform(0.05, 0.95, size=(12, 4))
        y = rng.uniform(-0.5, 0.5, size=12)

        def kan_loss(p):
            kan.unpack(p)
            return float(np.mean((kan_forward_batch(kan, *kan.encode(x)) - y) ** 2))

        for _ in range(5):
            point = rng.normal(0.0, 0.3, size=kan.pack().size)
            kan.unpack(point)
            _, analytic = kan.batch_loss_and_grad(x, y)
            numeric = fd_grad(kan_loss, point)
            worst_kan = max(worst_kan, worst_mismatch(analytic, numeric))
            errs_kan.append(max_errors(analytic, numeric))

        worst_lstm = 0.0
        errs_lstm = []
        lstm = lstm_init(3, hidden=5, n_layers=2, rng=rng, head_activation="tanh")
        xs = rng.uniform(-1.0, 1.0, size=(10, 7, 3))
        ys = rng.uniform(-0.8, 0.8, size=10)

        def lstm_loss(p):
            lstm.unpack(p)
            return float(np.mean((lstm_forward_batch(lstm, xs) - ys) ** 2))

        for _ in range(5):
            point = rng.normal(0.0, 0.4, size=lstm.pack().size)
            lstm.unpack(point)
            _, analytic = lstm.batch_loss_and_grad(xs, ys)
            numeric = fd_grad(lstm_loss, point)
            worst_lstm = max(worst_lstm, worst_mismatch(analytic, numeric))
            errs_lstm.append(max_errors(analytic, numeric))

        elapsed = time.perf_counter() - t0
        ok = worst_kan <= 1e-4 and worst_lstm <= 1e-4 and elapsed < 30.0
        abs_kan, rel_kan = np.max(errs_kan, axis=0)
        abs_lstm, rel_lstm = np.max(errs_lstm, axis=0)
        detail = (
            f"max abs err: kan {abs_kan:.2e}, lstm {abs_lstm:.2e}; "
            f"max rel err: kan {rel_kan:.2e}, lstm {rel_lstm:.2e}; "
            f"rule: rel err <= 1e-4 wherever abs err > 1e-8; "
            f"5 points each, h=1e-5; {elapsed:.1f}s < 30s"
        )
    except Exception as err:
        ok, detail = False, f"exception: {err!r}"
    check(capsys, 1, "analytic gradients match central finite differences", ok, detail)


def test_criterion_2_bspline_exactness(capsys):
    t0 = time.perf_counter()
    ok, detail = True, ""
    try:
        rng = make_rng(202)
        worst_pu = 0.0
        worst_grad = 0.0
        h = 1e-6
        for grid in range(1, 11):
            for degree in range(1, 6):
                spec = SplineSpec(grid, degree)
                pts = rng.uniform(0.0, 1.0, size=1000)
                pts[:2] = (0.0, 1.0)
                sums = basis_matrix(spec, pts).sum(axis=1)
                worst_pu = max(worst_pu, float(np.abs(sums - 1.0).max()))

                knots = np.linspace(0.0, 1.0, grid + 1)
                inner = pts[(pts > 2e-4) & (pts < 1.0 - 2e-4)]
                away = inner[np.abs(inner[:, None] - knots[None, :]).min(axis=1) > 1e-4]
                sample = away[:80]
                analytic = basis_grad_matrix(spec, sample)
                numeric = (
                    basis_matrix(spec, sample + h) - basis_matrix(spec, sample - h)
                ) / (2 * h)
                worst_grad = max(worst_grad, float(np.abs(analytic - numeric).max()))
        elapsed = time.perf_counter() - t0
        ok = worst_pu <= 1e-12 and worst_grad <= 1e-5 and elapsed < 10.0
        detail = (
            f"partition-of-unity err {worst_pu:.2e} <= 1e-12 over (G,k) in "
            f"{{1..10}}x{{1..5}} at 1000 pts; grad-vs-FD err {worst_grad:.2e} "
            f"<= 1e-5; {elapsed:.1f}s < 10s"
        )
    except Exception as err:
        ok, detail = False, f"exception: {err!r}"
    check(capsys, 2, "B-spline basis is exact", ok, detail)


def test_criterion_3_optimizer_correctness(capsys):
    t0 = time.perf_counter()
    ok, detail = True, ""
    try:
        rng = make_rng(42)
        m = rng.normal(size=(10, 10))
        a = m @ m.T + 10.0 * np.eye(10)
        b = rng.normal(size=10)
        oracle = np.linalg.solve(a, b)

        def quad(x):
            return 0.5 * x @ a @ x - b @ x, a @ x - b

        x = np.zeros(10)
        state = LbfgsState()
        gnorm = np.linalg.norm(quad(x)[1])
        iters_used = 0
        for it in range(1, 31):
            x, _, stalled = lbfgs_step(state, quad, x)
            gnorm = float(np.linalg.norm(quad(x)[1]))
            iters_used = it
            if gnorm < 1e-8 or stalled:
                break
        lbfgs_ok = gnorm < 1e-8 and np.allclose(x, oracle, atol=1e-6)

        def rosenbrock(p):
            f = 100.0 * (p[1] - p[0] ** 2) ** 2 + (1.0 - p[0]) ** 2
            g = np.array(
                [
                    -400.0 * p[0] * (p[1] - p[0] ** 2) - 2.0 * (1.0 - p[0]),
                    200.0 * (p[1] - p[0] ** 2),
                ]
            )
            return f, g

        p = np.array([-1.2, 1.0])
        astate = adam_init(2, lr=3e-2)
        f_val = rosenbrock(p)[0]
        steps_used = 0
        for step in range(1, 5001):
            f_val, g = rosenbrock(p)
            if f_val < 1e-2:
                break
            p = adam_step(astate, p, g)
            steps_used = step
        f_val = rosenbrock(p)[0]
        adam_ok = f_val < 1e-2

        elapsed = time.perf_counter() - t0
        ok = lbfgs_ok and adam_ok and elapsed < 20.0
        detail = (
            f"L-BFGS grad norm {gnorm:.2e} < 1e-8 at iter {iters_used} (<=30), "
            f"matches closed form; Adam Rosenbrock f={f_val:.2e} < 1e-2 after "
            f"{steps_used} steps (<=5000); {elapsed:.1f}s < 20s"
        )
    except Exception as err:
        ok, detail = False, f"exception: {err!r}"
    check(capsys, 3, "L-BFGS and Adam solve their reference problems", ok, detail)


def test_criterion_4_learning_capability(capsys):
    t0 = time.perf_counter()
    ok, detail = True, ""
    try:
        # KAN [1,5,1], grid 5, degree 3, on sin(2*pi*x) over [0,1]
        rng = make_rng(0)
        x = rng.uniform(0.0, 1.0, size=(256, 1))
        y = np.sin(2.0 * np.pi * x[:, 0])
        kan = kan_init([1, 5, 1], SplineSpec(5, 3), rng)
        kan_report = train(
            kan, x, y, TrainConfig(optimizer="lbfgs", max_epochs=100, tol=0.0)
        )
        kan_rmse = kan_report.final_rmse
        kan_ok = kan_rmse < 0.02 and kan_report.epochs_run <= 100

        # LSTM (1 layer, 8 units) next-step prediction on a scaled sine wave
        t = np.arange(400)
        wave = np.sin(2.0 * np.pi * t / 25.0)[:, None]
        n_samples = 400 - 20
        n_train = math.floor(0.8 * n_samples)
        scaler = scaler_fit(wave[: n_train + 20])
        ds = make_windows(scaler.transform(wave), 20, 1, target_col=0)
        train_ds, test_ds = chrono_split(ds, 0.8)
        lstm = lstm_init(1, hidden=8, n_layers=1, rng=make_rng(0))
        lstm_report = train(
            lstm,
            train_ds.inputs,
            train_ds.targets,
            TrainConfig(optimizer="adam", lr=1e-2, max_epochs=200, batch_size=32),
        )
        preds = lstm.predict_window_batch(test_ds.inputs)
        lstm_rmse = float(np.sqrt(np.mean((preds - test_ds.targets) ** 2)))
        lstm_ok = lstm_rmse < 0.05 and lstm_report.epochs_run <= 200

        elapsed = time.perf_counter() - t0
        ok = kan_ok and lstm_ok and elapsed < 120.0
        detail = (
            f"KAN sine train RMSE {kan_rmse:.4f} < 0.02 in "
            f"{kan_report.epochs_run} L-BFGS iters (<=100); LSTM sine test RMSE "
            f"{lstm_rmse:.4f} < 0.05 in {lstm_report.epochs_run} epochs (<=200); "
            f"{elapsed:.1f}s < 120s"
        )
    except Exception as err:
        ok, detail = False, f"exception: {err!r}"
    check(capsys, 4, "both model families learn their reference signals", ok, detail)


def test_criterion_5_pipeline_exactness(capsys):
    ok, detail = True, ""
    try:
        rng = make_rng(55)
        window_checks = 0
        for n_rows in range(2, 61):
            data = rng.uniform(1.0, 2.0, size=(n_rows, 2))
            for lookback in range(1, n_rows):
                max_h = n_rows - lookback
                for horizon in (1, max(1, max_h // 2), max_h):
                    n = n_rows - lookback - horizon + 1
                    if n < 1:
                        continue
                    ds = make_windows(data, lookback, horizon, target_col=1)
                    assert len(ds) == n
                    for i in range(n):
                        assert np.array_equal(ds.inputs[i], data[i : i + lookback])
                        assert ds.targets[i] == data[i + lookback + horizon - 1, 1]
                    window_checks += n
                    if n >= 2:
                        for frac in (0.5, 0.8):
                            tr, te = chrono_split(ds, frac)
                            want = math.floor(frac * n)
                            if want == 0 or want == n:
                                continue
                            assert len(tr) == want and len(te) == n - want

            scaler = scaler_fit(data)
            scaled = scaler.transform(data)
            spans = data.max(axis=0) - data.min(axis=0)
            manual = np.where(
                spans > 0, (data - data.min(axis=0)) / np.where(spans == 0, 1, spans), 0.5
            )
            assert np.array_equal(scaled, manual)

        # prefix consistency of iterative forecasting up to H = 200
        kan = kan_init([10, 3, 1], SplineSpec(3, 2), make_rng(5))
        seed_window = make_rng(6).uniform(0.2, 0.8, size=(10, 1))
        full = iterative_forecast(kan, seed_window, 200).predictions
        prefix_ok = all(
            np.array_equal(iterative_forecast(kan, seed_window, h).predictions, full[:h])
            for h in (1, 2, 13, 100, 200)
        )
        ok = prefix_ok
        detail = (
            f"window/split/scaler oracles exact for all lengths <= 60 "
            f"({window_checks} windows); forecast prefixes identical for H <= 200"
        )
    except Exception as err:
        ok, detail = False, f"exception: {err!r}"
    check(capsys, 5, "data pipeline matches enumeration and affine oracles", ok, detail)


# ---------------------------------------------------------------------------
# Criteria 6 and 8 share one benchmark matrix run.

REGIMES = ("normal", "volatile", "trending")
HORIZONS = (1, 2, 100, 200)
SEEDS = (0, 1, 2)
HEADLINE = Path(__file__).resolve().parent.parent / "configs" / "headline.json"


def first_entry(model):
    return next(c for c in load_matrix(HEADLINE) if c.model == model)


@pytest.fixture(scope="module")
def benchmark_matrix():
    t0 = time.perf_counter()
    try:
        results = run_matrix(load_matrix(HEADLINE), parallelism=1)
        return results, time.perf_counter() - t0, None
    except Exception as err:  # surfaced by both dependent criteria
        return None, time.perf_counter() - t0, repr(err)


def test_criterion_6_benchmark_structure(capsys, benchmark_matrix):
    results, elapsed, error = benchmark_matrix
    ok, detail = True, ""
    if error:
        ok, detail = False, f"matrix run failed: {error}"
    else:
        try:
            rows = comparison_table(results, best_only=True)
            cells = {}
            for row in rows:
                cells.setdefault((row.regime, row.horizon), {})[row.model] = row
            structure_ok = len(cells) == len(REGIMES) * len(HORIZONS) and all(
                set(c) == {"kan", "lstm"}
                and all(math.isfinite(c[m].test_rmse) for m in c)
                for c in cells.values()
            )
            wins = sum(
                1
                for regime in REGIMES
                if cells[(regime, 1)]["lstm"].test_rmse
                < cells[(regime, 1)]["kan"].test_rmse
            )
            no_failures = all(r.failure is None for r in results)
            ok = structure_ok and no_failures and wins >= 2 and elapsed < 900.0
            detail = (
                f"{len(cells)}/12 cells populated with finite RMSE (best of "
                f"{len(SEEDS)} seeds); tuned LSTM beats tuned KAN at horizon 1 in "
                f"{wins}/3 regimes (need >=2); matrix of {len(results)} runs in "
                f"{elapsed:.0f}s < 900s"
            )
        except Exception as err:
            ok, detail = False, f"exception: {err!r}"
    check(capsys, 6, "benchmark reproduces the comparison-table structure", ok, detail)


def test_criterion_7_determinism(capsys):
    ok, detail = True, ""
    try:
        small = dataclasses.replace(
            first_entry("kan"),
            seed=3,
            data=DataConfig(regime="normal", days=160, data_seed=7),
            horizons=(1, 2),
            train=TrainConfig(optimizer="lbfgs", max_epochs=8),
        )
        small_lstm = dataclasses.replace(
            first_entry("lstm"),
            seed=4,
            data=DataConfig(regime="volatile", days=160, data_seed=7),
            horizons=(1, 2),
            train=TrainConfig(optimizer="adam", lr=1e-2, max_epochs=8, batch_size=16),
        )
        matches = []
        for cfg in (small, small_lstm):
            first = result_canonical_json(run_experiment(cfg))
            second = result_canonical_json(run_experiment(cfg))
            matches.append(first == second)
        ok = all(matches)
        detail = "rerun with identical config+seed is byte-identical for both families"
        if not ok:
            detail = f"mismatch: kan={matches[0]}, lstm={matches[1]}"
    except Exception as err:
        ok, detail = False, f"exception: {err!r}"
    check(capsys, 7, "experiment serialization is deterministic", ok, detail)


def test_criterion_8_runtime_instrumentation(capsys, benchmark_matrix, tmp_path):
    results, _, error = benchmark_matrix
    ok, detail = True, ""
    if error:
        ok, detail = False, f"matrix run failed: {error}"
    else:
        try:
            walls_ok = all(
                r.wall_seconds >= 0 and math.isfinite(r.wall_seconds) for r in results
            ) and all(r.wall_seconds > 0 for r in results if r.failure is None)
            summary = runtime_summary(results)
            summary_ok = (
                summary["kan"]["mean_wall_seconds"] >= 0
                and summary["lstm"]["mean_wall_seconds"] >= 0
                and math.isfinite(summary["lstm_over_kan_ratio"])
            )
            written = emit_report(results, "csv", tmp_path)
            runtime_csv = [p for p in written if p.endswith("runtime.csv")]
            emitted_ok = bool(runtime_csv)
            if emitted_ok:
                with open(runtime_csv[0], encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                emitted_ok = (
                    lines[0] == "model,mean_wall_seconds,n_experiments"
                    and len(lines) == 4
                )
            ok = walls_ok and summary_ok and emitted_ok
            detail = (
                f"wall_seconds >= 0 in {len(results)}/{len(results)} rows; mean "
                f"kan {summary['kan']['mean_wall_seconds']:.2f}s, lstm "
                f"{summary['lstm']['mean_wall_seconds']:.2f}s (lstm/kan "
                f"{summary['lstm_over_kan_ratio']:.2f}); runtime comparison emitted"
            )
        except Exception as err:
            ok, detail = False, f"exception: {err!r}"
    check(capsys, 8, "runtime is instrumented and compared", ok, detail)
