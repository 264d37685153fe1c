"""Iterative forecasting: manual chaining oracle, the former
concatenate-and-slide rollout as a bit-exact reference for the encoded
tape (also past the point where the bounded tape slides), prefix
consistency, row independence of batched rollouts, per-window horizons,
pseudo-row column handling, failure behavior."""

import numpy as np
import pytest

from kanbench.bspline import SplineSpec
from kanbench.data import ADJ_CLOSE, CLOSE, MinMaxScaler
from kanbench.forecast import (
    ForecastTrace,
    iterative_forecast,
    iterative_forecast_batch,
    write_trace_csv,
)
from kanbench.kan import kan_init
from kanbench.lstm import lstm_init
from kanbench.numcore import make_rng


class RawWindows:
    """Identity encoding, as the LSTM's: the fakes below read raw windows."""

    def encode(self, windows):
        return (windows,)


class MeanCloseModel(RawWindows):
    """Transparent reference model: predicts the mean close of each window.

    Chaining is easy to reproduce by hand, so the pseudo-row mechanics of
    iterative_forecast can be checked against an explicit loop.
    """

    def __init__(self, close_col):
        self.close_col = close_col

    def predict_window_batch(self, encoded):
        (windows,) = encoded
        return np.mean(windows[:, :, self.close_col], axis=1)


class LastRowEcho(RawWindows):
    """Predicts the last row's close; keeps the first window of each call."""

    def __init__(self, close_col=0):
        self.close_col = close_col
        self.seen = []

    def predict_window_batch(self, encoded):
        (windows,) = encoded
        self.seen.append(windows[0].copy())
        return windows[:, -1, self.close_col]


class NanAtStep(RawWindows):
    def __init__(self, bad_step):
        self.bad_step = bad_step
        self.calls = 0

    def predict_window_batch(self, encoded):
        (windows,) = encoded
        self.calls += 1
        out = np.full(windows.shape[0], 0.5)
        if self.calls == self.bad_step:
            out[-1] = np.inf
        return out


def rng_window(rng, lookback, n_features):
    return rng.uniform(0.1, 0.9, size=(lookback, n_features))


def reference_rollout(model, seed_windows, horizon, close_col, adj_close_col):
    """The rollout before the encoded tape: every step predicts from raw
    windows, copies the last row into a pseudo-row and concatenates a fresh
    (B, L, F) window array."""
    windows = np.array(seed_windows, dtype=np.float64)
    preds = np.empty((windows.shape[0], horizon))
    for step in range(horizon):
        p = model.predict_window_batch(windows)
        preds[:, step] = p
        rows = windows[:, -1, :].copy()
        rows[:, close_col] = p
        if adj_close_col is not None:
            rows[:, adj_close_col] = p
        windows = np.concatenate([windows[:, 1:, :], rows[:, None, :]], axis=1)
    return preds


class TestIterativeForecast:
    def test_horizon_one_is_single_prediction(self):
        window = rng_window(make_rng(0), 5, 6)
        model = MeanCloseModel(CLOSE)
        trace = iterative_forecast(model, window, horizon=1)
        assert trace.horizon == 1
        assert trace.predictions[0] == np.mean(window[:, CLOSE])

    def test_manual_chaining_oracle_h3(self):
        # Reproduce three steps of copy-forward chaining entirely by hand.
        window = rng_window(make_rng(1), 4, 6)
        model = MeanCloseModel(CLOSE)
        trace = iterative_forecast(model, window, horizon=3)

        w = window.copy()
        expected = []
        for _ in range(3):
            p = np.mean(w[:, CLOSE])
            expected.append(p)
            row = w[-1].copy()
            row[CLOSE] = p
            row[ADJ_CLOSE] = p
            w = np.vstack([w[1:], row])
        assert np.array_equal(trace.predictions, np.array(expected))

    def test_pseudo_row_copies_last_row_other_features(self):
        window = rng_window(make_rng(2), 3, 6)
        spy = LastRowEcho(close_col=CLOSE)
        iterative_forecast(spy, window, horizon=2)
        second = spy.seen[1]
        # the appended pseudo-row keeps every non-close feature of the old last row
        for col in range(6):
            if col in (CLOSE, ADJ_CLOSE):
                assert second[-1, col] == spy.seen[0][-1, CLOSE]
            else:
                assert second[-1, col] == window[-1, col]
        # and the window slid: its first row is the seed's second row
        assert np.array_equal(second[:-1], window[1:])

    def test_close_only_feature_uses_column_zero(self):
        window = np.linspace(0.0, 1.0, 8)[:, None]
        spy = LastRowEcho(close_col=0)
        trace = iterative_forecast(spy, window, horizon=3)
        # echoing the last close keeps it constant once the first echo lands
        assert np.all(trace.predictions == window[-1, 0])
        assert spy.seen[1][-1, 0] == window[-1, 0]

    def test_prefix_consistency(self):
        # H=200 predictions start with exactly the H=13 predictions
        window = rng_window(make_rng(3), 6, 6)
        model = MeanCloseModel(CLOSE)
        long = iterative_forecast(model, window, horizon=200).predictions
        short = iterative_forecast(model, window, horizon=13).predictions
        assert np.array_equal(long[:13], short)

    def test_prefix_consistency_trained_models(self):
        rng = make_rng(9)
        window = rng_window(rng, 10, 6)
        kan = kan_init([60, 4, 1], SplineSpec(3, 2), make_rng(0))
        lstm = lstm_init(6, hidden=5, n_layers=1, rng=make_rng(0))
        for model in (kan, lstm):
            long = iterative_forecast(model, window, horizon=50).predictions
            short = iterative_forecast(model, window, horizon=7).predictions
            assert np.array_equal(long[:7], short)

    def test_zero_lstm_predicts_zeros(self):
        lstm = lstm_init(6, hidden=4, n_layers=1, rng=make_rng(0))
        for layer in lstm.layers:
            for arr in layer.arrays():
                arr[:] = 0.0
        lstm.head[:] = 0.0
        window = rng_window(make_rng(4), 5, 6)
        trace = iterative_forecast(lstm, window, horizon=4)
        assert np.all(trace.predictions == 0.0)

    def test_actual_recorded(self):
        window = rng_window(make_rng(5), 4, 6)
        actual = np.array([0.5, 0.6])
        trace = iterative_forecast(MeanCloseModel(CLOSE), window, 2, actual=actual)
        assert np.array_equal(trace.actual, actual)

    def test_non_finite_aborts_with_step_number(self):
        window = rng_window(make_rng(6), 4, 6)
        with pytest.raises(RuntimeError, match="step 3"):
            iterative_forecast(NanAtStep(3), window, horizon=5)

    def test_input_validation(self):
        model = MeanCloseModel(0)
        with pytest.raises(ValueError, match="2-D"):
            iterative_forecast(model, np.ones(5), 1)
        with pytest.raises(ValueError, match="horizon"):
            iterative_forecast(model, np.ones((5, 1)), 0)
        with pytest.raises(ValueError, match="close_col"):
            iterative_forecast(model, np.ones((5, 2)), 1, close_col=7)


class TestBatchForecast:
    # rows are independent: B windows at once equal each window rolled alone
    def test_matches_scalar_loop_reference_model(self):
        rng = make_rng(7)
        windows = rng.uniform(0.1, 0.9, size=(5, 6, 6))
        model = MeanCloseModel(CLOSE)
        batch = iterative_forecast_batch(model, windows, horizon=10)
        for b in range(5):
            single = iterative_forecast(model, windows[b], horizon=10).predictions
            assert np.allclose(batch[b], single, rtol=0, atol=1e-12)

    def test_matches_scalar_loop_trained_models(self):
        rng = make_rng(8)
        windows = rng.uniform(0.1, 0.9, size=(4, 8, 6))
        kan = kan_init([48, 5, 1], SplineSpec(4, 3), make_rng(1))
        lstm = lstm_init(6, hidden=6, n_layers=2, rng=make_rng(1))
        for model in (kan, lstm):
            batch = iterative_forecast_batch(model, windows, horizon=6)
            for b in range(4):
                single = iterative_forecast(model, windows[b], horizon=6).predictions
                assert np.allclose(batch[b], single, rtol=0, atol=1e-12)

    def test_non_finite_abort(self):
        windows = np.full((2, 4, 1), 0.5)
        with pytest.raises(RuntimeError, match="step 2"):
            iterative_forecast_batch(NanAtStep(2), windows, horizon=3)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="3-D"):
            iterative_forecast_batch(MeanCloseModel(0), np.ones((4, 1)), 1)


class TestEncodedTape:
    # (feature mode, n_features, close column, adj_close column)
    MODES = {"ohlcv": (6, CLOSE, ADJ_CLOSE), "close_only": (1, 0, None)}

    @pytest.mark.parametrize("horizon", [1, 2, 37])
    @pytest.mark.parametrize("n_windows", [1, 5])
    @pytest.mark.parametrize("mode", ["ohlcv", "close_only"])
    @pytest.mark.parametrize("family", ["kan", "lstm"])
    def test_equals_reference_rollout_bit_for_bit(self, family, mode, n_windows, horizon):
        n_features, close_col, adj_close_col = self.MODES[mode]
        lookback = 8
        if family == "kan":
            model = kan_init([lookback * n_features, 5, 1], SplineSpec(3, 2), make_rng(21))
        else:
            model = lstm_init(n_features, hidden=6, n_layers=2, rng=make_rng(21))
        windows = make_rng(22).uniform(0.1, 0.9, size=(n_windows, lookback, n_features))
        want = reference_rollout(model, windows, horizon, close_col, adj_close_col)
        got = iterative_forecast_batch(model, windows, horizon)
        assert np.array_equal(got, want)

    def test_seed_windows_are_not_modified(self):
        windows = make_rng(23).uniform(0.1, 0.9, size=(3, 4, 6))
        before = windows.copy()
        iterative_forecast_batch(MeanCloseModel(CLOSE), windows, horizon=5)
        assert np.array_equal(windows, before)


class TapeSpy(RawWindows):
    """The persistence model, recording each call's row count and the array
    its window views read from."""

    def __init__(self):
        self.rows, self.bases = [], []

    def predict_window_batch(self, encoded):
        (windows,) = encoded
        self.rows.append(len(windows))
        self.bases.append(windows.base)
        return windows[:, -1, 0]


def tiny_model(family, n_features, lookback, seed):
    if family == "kan":
        return kan_init([lookback * n_features, 5, 1], SplineSpec(3, 2), make_rng(seed))
    return lstm_init(n_features, hidden=6, n_layers=2, rng=make_rng(seed))


class TestBoundedTape:
    @pytest.mark.parametrize("mode", ["ohlcv", "close_only"])
    @pytest.mark.parametrize("family", ["kan", "lstm"])
    def test_horizon_far_past_lookback_equals_reference_bit_for_bit(self, family, mode):
        n_features, close_col, adj_close_col = TestEncodedTape.MODES[mode]
        lookback, horizon = 8, 61  # the tape slides seven times
        model = tiny_model(family, n_features, lookback, 24)
        windows = make_rng(25).uniform(0.1, 0.9, size=(3, lookback, n_features))
        want = reference_rollout(model, windows, horizon, close_col, adj_close_col)
        got = iterative_forecast_batch(model, windows, horizon)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("lookback,horizon", [(8, 61), (8, 8), (8, 3), (8, 1), (1, 5)])
    def test_tape_holds_at_most_lookback_plus_min_horizon_lookback_minus_one_rows(
            self, lookback, horizon):
        spy = TapeSpy()
        windows = make_rng(26).uniform(0.1, 0.9, size=(2, lookback, 1))
        iterative_forecast_batch(spy, windows, horizon)
        rows = lookback + min(horizon, lookback) - 1
        assert {base.shape for base in spy.bases} == {(2, rows, 1)}


class TestPerWindowHorizons:
    HORIZONS = [9, 9, 6, 2, 1]

    @pytest.mark.parametrize("family", ["mean", "kan", "lstm"])
    def test_each_row_equals_its_own_rollout_then_nan(self, family):
        windows = make_rng(27).uniform(0.1, 0.9, size=(5, 6, 6))
        model = MeanCloseModel(CLOSE) if family == "mean" else tiny_model(family, 6, 6, 28)
        got = iterative_forecast_batch(model, windows, self.HORIZONS)
        assert got.shape == (5, 9)
        for b, h in enumerate(self.HORIZONS):
            alone = iterative_forecast_batch(model, windows[b : b + 1], h)[0]
            if family == "mean":
                assert np.array_equal(got[b, :h], alone)
            else:
                assert np.allclose(got[b, :h], alone, rtol=1e-12, atol=0)
            assert np.isnan(got[b, h:]).all()

    def test_only_the_windows_still_rolling_reach_the_model(self):
        spy = TapeSpy()
        windows = make_rng(29).uniform(0.1, 0.9, size=(5, 4, 1))
        iterative_forecast_batch(spy, windows, self.HORIZONS)
        assert spy.rows == [5, 4, 3, 3, 3, 3, 2, 2, 2]

    def test_an_int_is_every_window_s_horizon(self):
        windows = make_rng(30).uniform(0.1, 0.9, size=(3, 4, 6))
        model = MeanCloseModel(CLOSE)
        assert np.array_equal(iterative_forecast_batch(model, windows, 4),
                              iterative_forecast_batch(model, windows, [4, 4, 4]))

    @pytest.mark.parametrize("horizon,match", [
        ([2, 3, 1], "non-increasing"),
        ([3, 2, 0], ">= 1"),
        (0, ">= 1"),
        ([3, 2], "one per window"),
        ([[3, 2, 1]], "one per window"),
        ([3.0, 2.0, 1.0], "one per window"),
        (2.0, "one per window"),
        (True, "one per window"),
    ])
    def test_bad_horizons_rejected(self, horizon, match):
        windows = np.full((3, 4, 1), 0.5)
        with pytest.raises(ValueError, match=match):
            iterative_forecast_batch(MeanCloseModel(0), windows, horizon)


class TestTrace:
    def test_shape_and_finiteness_enforced(self):
        with pytest.raises(ValueError):
            ForecastTrace(3, np.ones(2), None)
        with pytest.raises(ValueError, match="finite"):
            ForecastTrace(2, np.array([0.1, np.nan]), None)
        with pytest.raises(ValueError):
            ForecastTrace(2, np.ones(2), np.ones(3))

    def test_write_trace_csv_round_trip(self, tmp_path):
        scaler = MinMaxScaler(
            [0.0, 0.0, 0.0, 100.0, 100.0, 0.0], [1.0, 1.0, 1.0, 300.0, 300.0, 1.0]
        )
        trace = ForecastTrace(2, np.array([0.25, 0.5]), np.array([0.3, 0.4]))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, scaler=scaler)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,predicted_scaled,predicted_price,actual_price"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == 0.25
        assert float(first[2]) == pytest.approx(150.0, rel=1e-15)  # 100 + 0.25*200
        assert float(first[3]) == pytest.approx(160.0, rel=1e-15)

    def test_write_trace_csv_without_scaler(self, tmp_path):
        trace = ForecastTrace(1, np.array([0.5]), None)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "1,0.5,,"
