import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relf import (
    Dataset,
    NoiseConfig,
    add_intercept,
    apply_scaler,
    fit_scaler,
    inject_outliers,
    load_csv,
    load_libsvm,
    save_libsvm,
    synth_line,
)
from relf.data import NOISE_GAUSSIAN, NOISE_OUTLIER
from relf.exceptions import (
    DataError,
    DataIOError,
    DimensionMismatchError,
    DoubleInterceptError,
    EmptyFileError,
    FractionRangeError,
    NonPositiveIndexError,
    ParseError,
    RaggedRowsError,
)

from oracles import csv_rows_oracle


class TestDataset:
    def test_basic(self):
        ds = Dataset(X=[[1.0, 2.0]], y=[3.0], feature_names=("a", "b"))
        assert ds.n == 1 and ds.d == 2
        assert ds.X.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Dataset(X=[[np.nan]], y=[1.0])
        with pytest.raises(DataError):
            Dataset(X=[[1.0]], y=[np.inf])

    def test_shape_errors(self):
        with pytest.raises(DataError):
            Dataset(X=[[1.0], [2.0]], y=[1.0])
        with pytest.raises(DataError):
            Dataset(X=[1.0, 2.0], y=[1.0, 2.0])
        with pytest.raises(DataError):
            Dataset(X=[[1.0]], y=[1.0], feature_names=("a", "b"))

    def test_take(self):
        ds = Dataset(X=[[1.0], [2.0], [3.0]], y=[1.0, 2.0, 3.0])
        sub = ds.take([2, 0])
        assert_allclose(sub.X[:, 0], [3.0, 1.0])
        assert_allclose(sub.y, [3.0, 1.0])


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("x,y\n1,2\n2,4\n")
        ds = load_csv(path, "y")
        assert_allclose(ds.X, [[1.0], [2.0]])
        assert_allclose(ds.y, [2.0, 4.0])
        assert ds.feature_names == ("x",)

    def test_label_by_index_headerless(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n4,5,6\n")
        ds = load_csv(path, 0, has_header=False)
        assert ds.d == 2
        assert_allclose(ds.y, [1.0, 4.0])
        assert_allclose(ds.X, [[2.0, 3.0], [5.0, 6.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            load_csv(tmp_path / "nope.csv", "y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(EmptyFileError):
            load_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n")
        with pytest.raises(EmptyFileError):
            load_csv(path, "y")

    def test_parse_error_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n1,a\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "y")
        assert err.value.row == 3
        assert err.value.col == 2

    def test_rows_are_file_lines(self, tmp_path):
        # a record is numbered by the line it starts on; blank lines and a
        # quoted line break count as lines
        path = tmp_path / "bad.csv"
        path.write_text('\nx,y\n1,"2\n"\n\n3,a\n')
        with pytest.raises(ParseError) as err:
            load_csv(path, "y")
        assert (err.value.row, err.value.col) == (6, 2)
        path.write_text('\nx,y\n1,"2\n"\n\n3\n')
        with pytest.raises(RaggedRowsError, match="line 6 has 1 cells"):
            load_csv(path, "y")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y\n1,2\n1,2,3\n")
        with pytest.raises(RaggedRowsError):
            load_csv(path, "y")

    def test_unknown_label_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DataError):
            load_csv(path, "z")

    def test_label_name_needs_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n")
        with pytest.raises(DataError):
            load_csv(path, "y", has_header=False)

    def test_label_index_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n")
        with pytest.raises(DataError):
            load_csv(path, 5, has_header=False)


def _finite_floats():
    return st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _csv_files(draw):
    """``(text, has_header, label_column, width)`` for a CSV file the loader
    accepts: random floats in repr, %.6f or %g form, space-padded or quoted
    cells, LF or CRLF, blank and whitespace-only lines anywhere."""
    width = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    fmt = draw(st.sampled_from([repr, "{:.6f}".format, "{:g}".format]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def cell(value):
        text = fmt(value)
        text = draw(st.sampled_from(["", " ", "  "])) + text + draw(st.sampled_from(["", " "]))
        return f'"{text}"' if draw(st.booleans()) else text

    def blank_lines():
        return draw(st.lists(st.sampled_from(["", " ", "\t ", " , "]), max_size=2))

    has_header = draw(st.booleans())
    lines = blank_lines()
    if has_header:
        lines.append(",".join(f"c{j}" for j in range(width)))
    for _ in range(n):
        lines += blank_lines()
        lines.append(",".join(cell(draw(_finite_floats())) for _ in range(width)))
    lines += blank_lines()
    label_idx = draw(st.integers(0, width - 1))
    label = f"c{label_idx}" if has_header and draw(st.booleans()) else label_idx
    return newline.join(lines) + newline, has_header, label, label_idx


class TestLoadCsvOracle:
    """``load_csv`` against ``csv.reader`` + one ``float()`` per cell."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_csv_files())
    def test_matches_oracle_bit_for_bit(self, tmp_path, case):
        text, has_header, label, label_idx = case
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        ds = load_csv(path, label, has_header=has_header)
        header, rows = csv_rows_oracle(path, has_header)
        assert ds.X.tobytes() == np.delete(rows, label_idx, axis=1).tobytes()
        assert ds.y.tobytes() == rows[:, label_idx].tobytes()
        assert ds.X.shape == (rows.shape[0], rows.shape[1] - 1)
        names = None if header is None else tuple(header[:label_idx] + header[label_idx + 1:])
        assert ds.feature_names == names

    def test_single_row_and_label_only(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,y\n1.5,-2\n")
        ds = load_csv(path, "y")
        assert ds.X.shape == (1, 1) and ds.y.tolist() == [-2.0]
        path.write_text("y\n1\n2\n")
        ds = load_csv(path, "y")
        assert ds.X.shape == (2, 0) and ds.feature_names == ()
        assert ds.y.tolist() == [1.0, 2.0]

    def test_plain_files_skip_the_cell_parse(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("cell-by-cell parse ran")
        monkeypatch.setattr("relf.data._parse_checked", refuse)
        path = tmp_path / "f.csv"
        path.write_bytes(b'\r\n\nx,"y"\r\n 1.5 ,"2"\r\n\r\n-3e2,4\r\n')
        ds = load_csv(path, "y")
        assert ds.X.tolist() == [[1.5], [-300.0]] and ds.y.tolist() == [2.0, 4.0]

    def test_files_only_the_cell_parse_accepts(self, tmp_path):
        # a whitespace-only row, a row of empty cells, and float()'s digit
        # separators are refused by numpy and accepted as before
        path = tmp_path / "f.csv"
        path.write_text("x,y\n1,2\n   \n , \n1_0,4\n")
        ds = load_csv(path, "y")
        assert ds.X.tolist() == [[1.0], [10.0]] and ds.y.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("cell", ["2#3", "", "0x10", "1d5", "1\x1c", '"1"x', ' "1"'])
    def test_bad_cell_is_parse_error(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n1,2\n\n3,{cell}\n5,6\n")
        with pytest.raises(ParseError) as err:  # the blank line 3 counts
            load_csv(path, "y")
        assert (err.value.row, err.value.col) == (4, 2)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y\n1,2\n3\n")
        with pytest.raises(RaggedRowsError, match="line 3 has 1 cells, expected 2"):
            load_csv(path, "y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_is_data_error(self, tmp_path, cell):
        path = tmp_path / "nan.csv"
        path.write_text(f"x,y\n1,{cell}\n")
        with pytest.raises(DataError, match="NaN/Inf") as err:
            load_csv(path, "y")
        assert not isinstance(err.value, ParseError)

    def test_header_wider_than_rows(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x,y,z\n1,2\n3,4\n")
        with pytest.raises(RaggedRowsError, match="header line has 3 cells"):
            load_csv(path, "y")


class TestLibsvm:
    def test_format_definition(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("1.5 1:2 3:4\n-0.5 2:1\n")
        ds = load_libsvm(path)
        assert_allclose(ds.X, [[2.0, 0.0, 4.0], [0.0, 1.0, 0.0]])
        assert_allclose(ds.y, [1.5, -0.5])

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("1 0:3\n")
        with pytest.raises(NonPositiveIndexError):
            load_libsvm(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("\n\n")
        with pytest.raises(EmptyFileError):
            load_libsvm(path)

    def test_malformed_tokens(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("1.0 12\n")
        with pytest.raises(ParseError):
            load_libsvm(path)
        path.write_text("x 1:2\n")
        with pytest.raises(ParseError):
            load_libsvm(path)
        path.write_text("1.0 1:zz\n")
        with pytest.raises(ParseError):
            load_libsvm(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        X = np.where(rng.random((7, 5)) < 0.4, rng.standard_normal((7, 5)), 0.0)
        X[:, -1] = rng.standard_normal(7)  # keep the width observable
        ds = Dataset(X=X, y=rng.standard_normal(7))
        path = tmp_path / "rt.svm"
        save_libsvm(ds, path)
        back = load_libsvm(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)


class TestScaler:
    def test_affine_map(self):
        ds = Dataset(X=[[0.0], [5.0], [10.0]], y=[0.0, 0.0, 0.0])
        out = apply_scaler(ds, fit_scaler(ds))
        assert_allclose(out.X[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column(self):
        ds = Dataset(X=[[3.0], [3.0]], y=[1.0, 2.0])
        out = apply_scaler(ds, fit_scaler(ds))
        assert_allclose(out.X[:, 0], [0.0, 0.0])

    def test_extrapolation(self):
        train = Dataset(X=[[0.0], [10.0]], y=[0.0, 0.0])
        state = fit_scaler(train)
        unseen = Dataset(X=[[20.0]], y=[0.0])
        assert_allclose(apply_scaler(unseen, state).X[0, 0], 3.0)

    def test_extrema_hit_exactly(self):
        rng = np.random.default_rng(11)
        ds = Dataset(X=rng.standard_normal((40, 4)) * 7 + 3,
                     y=rng.standard_normal(40))
        out = apply_scaler(ds, fit_scaler(ds))
        assert np.all(out.X >= -1.0) and np.all(out.X <= 1.0)
        assert_allclose(out.X.min(axis=0), -1.0)
        assert_allclose(out.X.max(axis=0), 1.0)

    def test_label_scaling_optional(self):
        ds = Dataset(X=[[0.0], [1.0]], y=[10.0, 30.0])
        out = apply_scaler(ds, fit_scaler(ds, scale_labels=True))
        assert_allclose(out.y, [-1.0, 1.0])
        out2 = apply_scaler(ds, fit_scaler(ds))
        assert_allclose(out2.y, ds.y)

    def test_width_mismatch(self):
        ds = Dataset(X=[[0.0, 1.0]], y=[0.0])
        state = fit_scaler(Dataset(X=[[0.0], [1.0]], y=[0.0, 0.0]))
        with pytest.raises(DimensionMismatchError):
            apply_scaler(ds, state)


class TestIntercept:
    def test_appends_ones(self):
        ds = add_intercept(Dataset(X=[[2.0]], y=[1.0], feature_names=("x",)))
        assert_allclose(ds.X, [[2.0, 1.0]])
        assert ds.feature_names == ("x", "intercept")
        assert ds.has_intercept

    def test_double_intercept(self):
        ds = add_intercept(Dataset(X=[[2.0]], y=[1.0]))
        with pytest.raises(DoubleInterceptError):
            add_intercept(ds)

    def test_empty_feature_set(self):
        ds = add_intercept(Dataset(X=np.zeros((1, 0)), y=[1.0]))
        assert_allclose(ds.X, [[1.0]])


class TestSynthLine:
    def test_grid_and_clean_labels(self):
        ds = synth_line()
        assert ds.n == 81 and ds.d == 1
        assert ds.X[0, 0] == -20.0 and ds.X[-1, 0] == 20.0
        assert_allclose(np.diff(ds.X[:, 0]), 0.5)
        assert ds.y[0] == -40.0

    def test_zero_std_is_noise_free(self):
        ds = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, gaussian_std=0.0))
        assert ds.y[0] == -40.0
        assert_allclose(ds.y, 2.0 * ds.X[:, 0])

    def test_gaussian_determinism(self):
        a = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, seed=5))
        b = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, seed=5))
        c = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, seed=6))
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_outlier_mode(self):
        noise = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=10.0 / 81.0,
                            outlier_magnitude=5.0, seed=0)
        ds = synth_line(noise)
        clean = synth_line()
        assert int(np.sum(ds.y != clean.y)) == 10
        assert np.array_equal(ds.X, clean.X)


class TestInjectOutliers:
    def _ds(self, n=10, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(X=rng.standard_normal((n, 2)), y=rng.standard_normal(n))

    def test_count_rounding(self):
        ds = self._ds(81)
        noise = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=0.1, seed=1)
        out = inject_outliers(ds, noise)
        assert int(np.sum(out.y != ds.y)) == 8  # round(8.1)

    def test_thirty_percent_of_ten(self):
        ds = self._ds(10)
        out = inject_outliers(ds, NoiseConfig(mode=NOISE_OUTLIER,
                                              outlier_fraction=0.3, seed=2))
        assert int(np.sum(out.y != ds.y)) == 3

    def test_features_untouched_and_magnitude(self):
        ds = self._ds(50)
        noise = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=0.2,
                            outlier_magnitude=5.0, seed=3)
        out = inject_outliers(ds, noise)
        assert np.array_equal(out.X, ds.X)
        moved = out.y != ds.y
        spread = ds.y.max() - ds.y.min()
        assert_allclose(np.abs(out.y[moved] - ds.y[moved]), 5.0 * spread)

    def test_zero_fraction_unchanged(self):
        ds = self._ds()
        out = inject_outliers(ds, NoiseConfig(mode=NOISE_OUTLIER,
                                              outlier_fraction=0.0))
        assert np.array_equal(out.y, ds.y)

    def test_determinism(self):
        ds = self._ds()
        noise = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=0.5, seed=9)
        a, b = inject_outliers(ds, noise), inject_outliers(ds, noise)
        assert np.array_equal(a.y, b.y)

    def test_mode_guard(self):
        with pytest.raises(DataError):
            inject_outliers(self._ds(), NoiseConfig(mode=NOISE_GAUSSIAN))


class TestNoiseConfig:
    def test_fraction_range(self):
        with pytest.raises(FractionRangeError):
            NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=1.5)
        with pytest.raises(FractionRangeError):
            NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=-0.1)

    def test_other_guards(self):
        with pytest.raises(DataError):
            NoiseConfig(mode="salt-and-pepper")
        with pytest.raises(DataError):
            NoiseConfig(mode=NOISE_GAUSSIAN, gaussian_std=-1.0)
        with pytest.raises(DataError):
            NoiseConfig(mode=NOISE_OUTLIER, outlier_magnitude=0.0)
