"""Data pipeline: CSV parsing against a hand-written fixture, cleaning,
scaling, windowing with an enumeration oracle, splits, synthetic generator."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kanbench.data import (
    CLOSE,
    COLUMNS,
    CSV_HEADER,
    MarketRegime,
    MinMaxScaler,
    OhlcvSeries,
    REGIME_PRESETS,
    chrono_split,
    clean,
    gen_synthetic,
    load_csv,
    make_regime,
    make_windows,
    scaler_fit,
    scaler_inverse,
    write_csv,
)
from kanbench.numcore import make_rng

# Hand-authored golden fixture: every number below is re-asserted field by
# field after parsing, so a parser regression cannot hide.
GOLDEN_ROWS = [
    ("2020-01-02", 100.0, 102.5, 99.1, 101.2, 101.2, 1000000.0),
    ("2020-01-03", 101.2, 103.0, 100.8, 102.9, 102.9, 1250000.0),
    ("2020-01-06", 102.9, 102.9, 98.5, 99.0, 99.0, 2100000.0),
    ("2020-01-07", 99.0, 100.1, 97.7, 100.0, 100.0, 900000.0),
    ("2020-01-08", 100.0, 104.4, 99.9, 104.1, 104.1, 1800000.0),
]


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def golden_csv(tmp_path):
    lines = [CSV_HEADER]
    for row in GOLDEN_ROWS:
        lines.append(",".join(str(v) for v in row))
    return write_lines(tmp_path / "golden.csv", lines)


class TestLoadCsv:
    def test_golden_fixture_field_exact(self, tmp_path):
        series = load_csv(golden_csv(tmp_path))
        assert len(series) == len(GOLDEN_ROWS)
        for i, row in enumerate(GOLDEN_ROWS):
            assert series.dates[i] == row[0]
            for j in range(6):
                assert series.values[i, j] == row[j + 1]

    def test_out_of_order_rows_sorted(self, tmp_path):
        lines = [
            CSV_HEADER,
            "2021-03-03,3,3,3,3,3,3",
            "2021-03-01,1,1,1,1,1,1",
            "2021-03-02,2,2,2,2,2,2",
        ]
        series = load_csv(write_lines(tmp_path / "x.csv", lines))
        assert series.dates == ["2021-03-01", "2021-03-02", "2021-03-03"]
        assert list(series.values[:, 0]) == [1.0, 2.0, 3.0]

    def test_missing_values_parse_as_nan(self, tmp_path):
        lines = [CSV_HEADER, "2021-01-01,1,2,0.5,,1.5,100", "2021-01-02,1,2,0.5,NaN,1.5,100"]
        series = load_csv(write_lines(tmp_path / "x.csv", lines))
        assert np.isnan(series.values[0, CLOSE])
        assert np.isnan(series.values[1, CLOSE])

    def test_no_rows_is_integrity_error(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            load_csv(write_lines(tmp_path / "x.csv", [CSV_HEADER]))

    def test_bad_header_rejected(self, tmp_path):
        lines = ["date,open,high,low,close,volume", "2021-01-01,1,2,0.5,1,100"]
        with pytest.raises(ValueError, match="header"):
            load_csv(write_lines(tmp_path / "x.csv", lines))

    def test_malformed_row_names_line(self, tmp_path):
        lines = [CSV_HEADER, "2021-01-01,1,2,0.5,1,1,100", "2021-01-02,1,2,oops,1,1,100"]
        with pytest.raises(ValueError, match="line 3"):
            load_csv(write_lines(tmp_path / "x.csv", lines))

    def test_wrong_field_count_names_line(self, tmp_path):
        lines = [CSV_HEADER, "2021-01-01,1,2,3"]
        with pytest.raises(ValueError, match="line 2"):
            load_csv(write_lines(tmp_path / "x.csv", lines))

    def test_bad_date_names_line(self, tmp_path):
        lines = [CSV_HEADER, "not-a-date,1,2,0.5,1,1,100"]
        with pytest.raises(ValueError, match="line 2"):
            load_csv(write_lines(tmp_path / "x.csv", lines))

    def test_duplicate_date_rejected(self, tmp_path):
        lines = [CSV_HEADER, "2021-01-01,1,2,0.5,1,1,100", "2021-01-01,1,2,0.5,1,1,100"]
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(write_lines(tmp_path / "x.csv", lines))

    def test_negative_volume_rejected(self, tmp_path):
        lines = [CSV_HEADER, "2021-01-01,1,2,0.5,1,1,-5"]
        with pytest.raises(ValueError, match="volume"):
            load_csv(write_lines(tmp_path / "x.csv", lines))

    def test_round_trip_write_then_load_bit_exact(self, tmp_path):
        series = gen_synthetic(make_regime("normal", 40, seed=5))
        path = tmp_path / "rt.csv"
        write_csv(series, path)
        back = load_csv(path)
        assert back.dates == series.dates
        assert np.array_equal(back.values, series.values)


class TestClean:
    def test_identity_when_complete(self, tmp_path):
        series = load_csv(golden_csv(tmp_path))
        cleaned, dropped = clean(series)
        assert dropped == 0
        assert cleaned is series

    def test_drops_nan_rows_and_counts(self):
        values = np.ones((10, 6))
        values[3, CLOSE] = np.nan
        dates = [f"2021-01-{d:02d}" for d in range(1, 11)]
        cleaned, dropped = clean(OhlcvSeries(dates, values))
        assert dropped == 1
        assert len(cleaned) == 9
        assert "2021-01-04" not in cleaned.dates

    def test_hand_marked_keep_drop_list(self):
        values = np.ones((6, 6))
        values[1, 0] = np.nan  # open missing
        values[2, 5] = np.nan  # volume missing
        values[4, 2] = np.nan
        dates = [f"2021-02-{d:02d}" for d in range(1, 7)]
        cleaned, dropped = clean(OhlcvSeries(dates, values))
        assert dropped == 3
        assert cleaned.dates == ["2021-02-01", "2021-02-04", "2021-02-06"]

    def test_all_rows_dropped_is_error(self):
        values = np.full((3, 6), np.nan)
        with pytest.raises(ValueError, match="dropped"):
            clean(OhlcvSeries(["2021-01-01", "2021-01-02", "2021-01-03"], values))


class TestScaler:
    def test_midpoint_and_endpoints(self):
        train = np.array([[0.0], [10.0]])
        scaler = scaler_fit(train)
        assert scaler.transform([[5.0]])[0, 0] == pytest.approx(0.5)
        assert scaler.transform([[0.0]])[0, 0] == 0.0
        assert scaler.transform([[10.0]])[0, 0] == 1.0

    def test_out_of_range_preserved_not_clamped(self):
        scaler = scaler_fit(np.array([[0.0], [10.0]]))
        assert scaler.transform([[12.0]])[0, 0] == pytest.approx(1.2)

    def test_constant_feature_maps_to_half(self):
        scaler = scaler_fit(np.array([[7.0, 1.0], [7.0, 3.0]]))
        out = scaler.transform([[7.0, 2.0]])
        assert out[0, 0] == 0.5
        assert out[0, 1] == pytest.approx(0.5)

    def test_transform_is_row_major_for_a_column_major_input(self):
        # a column selection such as values[:, cols] is column-major; the
        # scaled series must not inherit that, or its windows would too
        rows = np.asfortranarray(make_rng(9).uniform(size=(40, 6)))
        scaler = scaler_fit(rows)
        out = scaler.transform(rows)
        assert out.flags.c_contiguous
        assert np.array_equal(out, scaler.transform(np.ascontiguousarray(rows)))

    def test_fit_uses_train_rows_only(self):
        rng = make_rng(0)
        train = rng.uniform(0, 1, size=(30, 6))
        test = rng.uniform(5, 9, size=(10, 6))  # wildly different range
        scaler = scaler_fit(train)
        assert np.array_equal(scaler.mins, train.min(axis=0))
        assert np.array_equal(scaler.maxs, train.max(axis=0))
        scaled = scaler.transform(train)
        assert np.array_equal(scaled.min(axis=0), np.zeros(6))
        assert np.array_equal(scaled.max(axis=0), np.ones(6))
        # test rows map through the training fit, so they land above 1
        assert np.all(scaler.transform(test) > 1.0)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=20))
    def test_inverse_round_trip(self, values):
        col = np.array(values)[:, None]
        if col.max() == col.min():
            return
        scaler = scaler_fit(col)
        scaled = scaler.transform(col)[:, 0]
        back = scaler_inverse(scaler, scaled, 0)
        assert np.allclose(back, col[:, 0], rtol=1e-12, atol=1e-9)

    def test_inverse_hand_value(self):
        scaler = MinMaxScaler([100.0], [200.0])
        assert scaler_inverse(scaler, 0.5, 0) == pytest.approx(150.0)

    def test_constant_feature_inverse_gives_constant(self):
        scaler = MinMaxScaler([42.0], [42.0])
        assert scaler_inverse(scaler, 0.5, 0) == 42.0
        assert scaler_inverse(scaler, 0.9, 0) == 42.0

    def test_unknown_feature_rejected(self):
        scaler = scaler_fit(np.ones((2, 6)) * np.arange(2)[:, None])
        for idx in (17, 6, -1):
            with pytest.raises(ValueError, match="out of range"):
                scaler_inverse(scaler, 0.5, idx)


class TestMakeWindows:
    def test_count_formula(self):
        scaled = np.arange(50.0).reshape(25, 2)
        ds = make_windows(scaled, lookback=20, horizon=1, target_col=0)
        assert len(ds) == 5

    def test_single_sample_boundary(self):
        scaled = np.arange(42.0).reshape(21, 2)
        ds = make_windows(scaled, lookback=20, horizon=1, target_col=0)
        assert len(ds) == 1
        assert ds.targets[0] == scaled[20, 0]  # the last row's close

    def test_enumeration_oracle_n30(self):
        rng = make_rng(4)
        scaled = rng.uniform(size=(30, 3))
        ds = make_windows(scaled, lookback=20, horizon=5, target_col=1)
        assert len(ds) == 6
        for i in range(6):
            assert np.array_equal(ds.inputs[i], scaled[i : i + 20])
            assert ds.targets[i] == scaled[i + 20 + 5 - 1, 1]

    def test_enumeration_oracle_all_short_series(self):
        # exhaustive alignment check for every feasible (N, L, H) with N <= 60
        rng = make_rng(11)
        for n_rows in range(2, 61):
            scaled = rng.uniform(size=(n_rows, 2))
            for lookback in range(1, n_rows):
                for horizon in range(1, n_rows - lookback + 1):
                    n = n_rows - lookback - horizon + 1
                    ds = make_windows(scaled, lookback, horizon, target_col=0)
                    assert len(ds) == n
                    for i in (0, n - 1):  # boundary samples; interiors follow by slicing
                        assert np.array_equal(ds.inputs[i], scaled[i : i + lookback])
                        assert ds.targets[i] == scaled[i + lookback + horizon - 1, 0]

    def test_windows_are_a_read_only_view_of_the_series(self):
        # a fit's windows at the headline shape: n·L·F values as a copy,
        # none as a view of the (n + L, F) series
        scaled = make_rng(5).uniform(size=(1250, 6))
        tracemalloc.start()
        try:
            ds = make_windows(scaled, lookback=20, horizon=1, target_col=CLOSE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.inputs.shape == (1230, 20, 6)
        assert np.shares_memory(ds.inputs, scaled)
        assert not ds.inputs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.inputs[0, 0, 0] = 1.0
        assert peak <= 0.05 * ds.inputs.size * 8
        train, test = chrono_split(ds, 0.8)
        assert np.shares_memory(train.inputs, scaled) and np.shares_memory(test.inputs, scaled)

    def test_too_short_names_minimum(self):
        with pytest.raises(ValueError, match="at least 25"):
            make_windows(np.ones((10, 2)), lookback=20, horizon=5, target_col=0)

    def test_bad_target_col(self):
        with pytest.raises(ValueError, match="target_col"):
            make_windows(np.ones((30, 2)), 5, 1, target_col=9)


class TestChronoSplit:
    def make(self, n):
        scaled = np.arange(float(2 * (n + 5))).reshape(n + 5, 2)
        return make_windows(scaled, lookback=4, horizon=2, target_col=0)

    def test_eight_two_split(self):
        ds = self.make(10)
        tr, te = chrono_split(ds, 0.8)
        assert len(tr) == 8 and len(te) == 2

    def test_floor_rule(self):
        ds = self.make(7)
        tr, te = chrono_split(ds, 0.8)
        assert len(tr) == 5 and len(te) == 2  # floor(5.6) = 5

    def test_partition_preserves_order(self):
        ds = self.make(9)
        tr, te = chrono_split(ds, 0.6)
        joined = np.concatenate([tr.inputs, te.inputs])
        assert np.array_equal(joined, ds.inputs)
        assert np.array_equal(np.concatenate([tr.targets, te.targets]), ds.targets)

    def test_invalid_fraction(self):
        ds = self.make(10)
        for frac in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                chrono_split(ds, frac)

    def test_empty_side_rejected(self):
        ds = self.make(3)
        with pytest.raises(ValueError, match="empty"):
            chrono_split(ds, 0.01)


class TestSyntheticGenerator:
    def test_same_seed_identical(self):
        a = gen_synthetic(make_regime("normal", 100, seed=3))
        b = gen_synthetic(make_regime("normal", 100, seed=3))
        assert a.dates == b.dates
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = gen_synthetic(make_regime("normal", 100, seed=3))
        b = gen_synthetic(make_regime("normal", 100, seed=4))
        assert not np.array_equal(a.values, b.values)

    def test_degenerate_gbm_is_constant(self):
        series = gen_synthetic(make_regime("normal", 500, seed=1, drift=0.0, volatility=1e-9))
        close = series.values[:, CLOSE]
        assert np.all(np.abs(close / close[0] - 1.0) < 1e-6)

    def test_log_return_moments_match_parameters(self):
        regime = make_regime("normal", 10000, seed=7)
        series = gen_synthetic(regime)
        lr = np.diff(np.log(series.values[:, CLOSE]))
        assert abs(lr.std() - regime.volatility) / regime.volatility < 0.05
        expected_mean = regime.drift - 0.5 * regime.volatility**2
        assert abs(lr.mean() - expected_mean) < 5 * regime.volatility / math.sqrt(len(lr))

    def test_ohlc_envelope_invariants(self):
        series = gen_synthetic(make_regime("volatile", 2000, seed=9))
        o, h, l, c = (series.values[:, i] for i in range(4))
        assert np.all(h >= np.maximum(o, c) - 1e-12)
        assert np.all(l <= np.minimum(o, c) + 1e-12)
        assert np.all(series.values[:, 5] >= 0)

    def test_adj_close_equals_close(self):
        series = gen_synthetic(make_regime("normal", 50, seed=2))
        assert np.array_equal(series.values[:, 3], series.values[:, 4])

    def test_dates_strictly_increasing(self):
        series = gen_synthetic(make_regime("trending", 60, seed=0))
        assert series.dates == sorted(series.dates)
        assert len(set(series.dates)) == len(series.dates)

    def test_presets(self):
        assert REGIME_PRESETS["normal"] == (0.0003, 0.01)
        assert REGIME_PRESETS["volatile"] == (0.0003, 0.03)
        assert REGIME_PRESETS["trending"] == (0.002, 0.01)
        r = make_regime("volatile", 100, 0)
        assert (r.drift, r.volatility) == REGIME_PRESETS["volatile"]

    def test_overrides(self):
        r = make_regime("normal", 100, 0, drift=0.01, volatility=0.2)
        assert r.drift == 0.01 and r.volatility == 0.2

    def test_invalid_regimes_rejected(self):
        with pytest.raises(ValueError, match="unknown regime"):
            make_regime("sideways", 100, 0)
        with pytest.raises(ValueError):
            MarketRegime("normal", 0.0, -0.1, 100, 0)
        with pytest.raises(ValueError):
            MarketRegime("normal", 0.0, 0.1, 1, 0)
