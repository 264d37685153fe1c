"""Iterative forecasting: manual chaining oracle, the former
concatenate-and-slide rollout as a bit-exact reference for the encoded
tape (also past the point where the bounded tape slides) and for the LSTM's
step wavefront, prefix consistency, row independence of batched rollouts,
per-window horizons, pseudo-row column handling, failure behavior."""

import itertools
import tracemalloc

import numpy as np
import pytest

from kanbench import kan as kan_module, lstm
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
from kanbench.numcore import make_rng, sigmoid


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


def prefix_reference_rollout(model, seed_windows, horizons, close_col, adj_close_col):
    """``reference_rollout`` with one non-increasing horizon per window: at
    step s only the windows whose horizon exceeds s are predicted, as one
    batch, and the rest of their row is NaN."""
    windows = np.array(seed_windows, dtype=np.float64)
    preds = np.full((len(windows), horizons[0]), np.nan)
    for step in range(horizons[0]):
        windows = windows[: int(np.sum(np.asarray(horizons) > step))]
        p = model.predict_window_batch(windows)
        preds[: len(p), step] = p
        rows = windows[:, -1, :].copy()
        rows[:, close_col] = p
        if adj_close_col is not None:
            rows[:, adj_close_col] = p
        windows = np.concatenate([windows[:, 1:, :], rows[:, None, :]], axis=1)
    return preds


class StepLoop:
    """A model seen without its own rollout, so ``iterative_forecast_batch``
    rolls it through the step loop over the encoded tape."""

    def __init__(self, model):
        self.encode = model.encode
        self.predict_window_batch = model.predict_window_batch


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

    @pytest.mark.parametrize("family", ["kan", "lstm"])
    @pytest.mark.parametrize("horizon", [3, []], ids=["int", "per_window"])
    def test_no_seed_windows_refused(self, family, horizon):
        # one error for both families, before anything is encoded
        model = tiny_model(family, n_features=6, lookback=4, seed=0)
        with pytest.raises(ValueError, match=r"at least one window, got shape \(0, 4, 6\)"):
            iterative_forecast_batch(model, np.zeros((0, 4, 6)), horizon)


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


    def test_kan_reads_its_tape_without_copying(self, monkeypatch):
        # after tape slides and with a shrinking prefix, the first layer's
        # matmul still reads views of the tape: the encoded pair reaches it
        # through reshapes only, never a copy
        lookback, n_features = 4, 6
        model = tiny_model("kan", n_features, lookback, 27)
        tapes, reads = [], []
        predict, contract = model.predict_window_batch, kan_module._contract

        def spy_predict(encoded):
            tapes.append([a.base for a in encoded])
            return predict(encoded)

        def spy_contract(layer, silu_x, phi):
            if layer is model.layers[0]:
                reads.append((silu_x, phi))
            return contract(layer, silu_x, phi)

        monkeypatch.setattr(model, "predict_window_batch", spy_predict)
        monkeypatch.setattr(kan_module, "_contract", spy_contract)
        horizons = [11, 11, 9, 6, 6, 3, 1]  # the 7-row tape slides after steps 4 and 8
        windows = make_rng(28).uniform(0.1, 0.9, size=(len(horizons), lookback, n_features))
        iterative_forecast_batch(model, windows, horizons)
        assert [len(s) for s, _ in reads] == [7, 6, 6, 5, 5, 5, 3, 3, 3, 2, 2]
        silu_tape, basis_tape = tapes[0]
        assert silu_tape.shape == (7, 7, n_features)
        for (silu_x, phi), bases in zip(reads, tapes):
            assert bases[0] is silu_tape and bases[1] is basis_tape
            assert np.shares_memory(silu_x, silu_tape) and np.shares_memory(phi, basis_tape)


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


def biased_lstm(n_features, hidden, layers, seed, head="linear"):
    """An initialised LSTM with random biases: with lstm_init's zero i and g
    biases, a layer that runs on an all-zero column stays at h = c = 0, which
    would hide a layer started too early."""
    net = lstm_init(n_features, hidden, layers, make_rng(seed), head)
    rng = make_rng(seed + 1)
    for layer in net.layers:
        layer.b[:] = rng.normal(scale=0.5, size=layer.b.shape)
    return net


class TestStepWavefront:
    """The LSTM rolls as a step wavefront: step s starts n waves after step
    s - 1, so H steps of an n-layer stack over L rows take n·(H - 1) + L + n - 1
    waves instead of H·(L + n - 1), with every prediction as the step loop's."""

    @pytest.mark.parametrize("horizon", [1, 2, 37, 61])
    @pytest.mark.parametrize("n_windows", [1, 5])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_equals_reference_rollout_bit_for_bit(self, layers, n_windows, horizon):
        net = biased_lstm(6, 5, layers, 60 + layers)
        windows = make_rng(61).uniform(0.1, 0.9, size=(n_windows, 8, 6))
        want = reference_rollout(net, windows, horizon, CLOSE, ADJ_CLOSE)
        assert np.array_equal(iterative_forecast_batch(net, windows, horizon), want)

    @pytest.mark.parametrize("lookback", [1, 2, 3])
    @pytest.mark.parametrize("layers", [2, 3])
    def test_windows_shorter_than_the_stack(self, layers, lookback):
        # every wave of a step is then a ramp wave with some layer idle
        net = biased_lstm(1, 4, layers, 62, head="tanh")
        windows = make_rng(63).uniform(0.1, 0.9, size=(3, lookback, 1))
        want = reference_rollout(net, windows, 23, 0, None)
        assert np.array_equal(iterative_forecast_batch(net, windows, 23), want)

    @pytest.mark.parametrize("horizons", [
        [40, 7, 7, 2, 1, 1], [5, 5, 3, 3, 3, 1], [2, 1], [9, 9, 6, 2, 1], [3, 3, 3]])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_per_window_horizons_equal_the_prefix_loop_bit_for_bit(self, layers, horizons):
        # each width phase keeps the matmul width the step loop gives it
        net = biased_lstm(6, 5, layers, 64 + layers)
        windows = make_rng(65).uniform(0.1, 0.9, size=(len(horizons), 6, 6))
        want = prefix_reference_rollout(net, windows, horizons, CLOSE, ADJ_CLOSE)
        got = iterative_forecast_batch(net, windows, horizons)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got, iterative_forecast_batch(StepLoop(net), windows, horizons),
                              equal_nan=True)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_one_sigmoid_call_per_wave(self, monkeypatch, layers):
        calls = []

        def counted(x, **kwargs):
            calls.append(np.size(x))
            return sigmoid(x, **kwargs)

        monkeypatch.setattr(lstm, "sigmoid", counted)
        lookback, horizon = 7, 30
        net = lstm_init(6, hidden=4, n_layers=layers, rng=make_rng(66))
        windows = make_rng(67).uniform(0.1, 0.9, size=(2, lookback, 6))
        iterative_forecast_batch(net, windows, horizon)
        assert len(calls) == layers * (horizon - 1) + lookback + layers - 1

    @pytest.mark.parametrize("horizons", [[40, 7, 7, 2, 1, 1], [5, 5, 3, 3, 3, 1], [30, 1]])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_one_sigmoid_call_per_wave_of_each_segment(self, monkeypatch, layers, horizons):
        # a segment, the steps that roll equally many windows, of `count`
        # steps takes n·(count - 1) + L + n - 1 waves
        calls = []

        def counted(x, **kwargs):
            calls.append(np.size(x))
            return sigmoid(x, **kwargs)

        monkeypatch.setattr(lstm, "sigmoid", counted)
        lookback = 7
        net = lstm_init(6, hidden=4, n_layers=layers, rng=make_rng(66))
        windows = make_rng(67).uniform(0.1, 0.9, size=(len(horizons), lookback, 6))
        iterative_forecast_batch(net, windows, horizons)
        live = [sum(h > s for h in horizons) for s in range(horizons[0])]
        counts = [sum(1 for _ in run) for _, run in itertools.groupby(live)]
        assert len(calls) == sum(layers * (c - 1) + lookback + layers - 1 for c in counts)

    @pytest.mark.parametrize("horizons", [[9, 9, 6, 2, 1], [30, 1]])
    @pytest.mark.parametrize("lookback", [1, 2, 3])
    @pytest.mark.parametrize("layers", [2, 3])
    def test_segments_of_windows_shorter_than_the_stack(self, layers, lookback, horizons):
        # every segment restarts on ramp waves only
        net = biased_lstm(1, 4, layers, 62, head="tanh")
        windows = make_rng(63).uniform(0.1, 0.9, size=(len(horizons), lookback, 1))
        want = prefix_reference_rollout(net, windows, horizons, 0, None)
        assert np.array_equal(iterative_forecast_batch(net, windows, horizons), want,
                              equal_nan=True)

    def test_segments_never_hold_their_buffers_at_once(self):
        # a rollout of two segments peaks no higher than the larger one alone
        net = lstm_init(6, hidden=10, n_layers=2, rng=make_rng(70))
        windows = make_rng(71).uniform(0.1, 0.9, size=(64, 20, 6))

        def peak(windows, horizon):
            iterative_forecast_batch(net, windows, horizon)  # warm
            tracemalloc.start()
            try:
                iterative_forecast_batch(net, windows, horizon)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = max(peak(windows, 2), peak(windows[:16], 12))
        assert peak(windows, [12] * 16 + [2] * 48) <= 1.25 * alone

    def test_a_segment_frees_its_buffers_before_the_next_allocates(self, monkeypatch):
        # 256 windows roll 2 steps in 2 slots, then 32 of them 11 more steps
        # in 11 slots of (27 + 20 + 80) float64 per window: the second
        # segment's buffers are allocated only once the first one's, and
        # every view of them, are gone
        second = 11 * (27 + 20 + 80) * 32 * 8
        marks = []
        head = lstm._head

        def measured(net, top):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return head(net, top)

        net = lstm_init(6, hidden=10, n_layers=2, rng=make_rng(72))
        windows = make_rng(73).uniform(0.1, 0.9, size=(256, 20, 6))
        monkeypatch.setattr(lstm, "_head", measured)
        tracemalloc.start()
        try:
            iterative_forecast_batch(net, windows, [13] * 32 + [2] * 224)
        finally:
            tracemalloc.stop()
        (current, _), (_, peak) = marks[1], marks[2]  # the last step of one, the first of the next
        assert peak - current < second / 2

    def test_non_finite_prediction_raises_at_its_step(self, monkeypatch):
        head = lstm._head
        calls = []

        def fails_third(net, top):
            calls.append(1)
            p = head(net, top)
            return np.full_like(p, np.nan) if len(calls) == 3 else p

        monkeypatch.setattr(lstm, "_head", fails_third)
        net = lstm_init(6, hidden=4, n_layers=2, rng=make_rng(68))
        windows = make_rng(69).uniform(0.1, 0.9, size=(3, 5, 6))
        before = windows.copy()
        for model in (net, StepLoop(net)):
            calls.clear()
            with pytest.raises(RuntimeError, match="^non-finite prediction at step 3$"):
                iterative_forecast_batch(model, windows, [6, 4, 4])
            assert len(calls) == 3
        assert np.array_equal(windows, before)


class TestTrace:
    def test_write_trace_csv_round_trip(self, tmp_path):
        scaler = MinMaxScaler(
            [0.0, 0.0, 0.0, 100.0, 100.0, 0.0], [1.0, 1.0, 1.0, 300.0, 300.0, 1.0]
        )
        trace = ForecastTrace(2, np.array([0.25, 0.5]))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, scaler, price_feature=CLOSE)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,predicted_scaled,predicted_price"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert len(first) == 3
        assert int(first[0]) == 1
        assert float(first[1]) == 0.25
        assert float(first[2]) == pytest.approx(150.0, rel=1e-15)  # 100 + 0.25*200
