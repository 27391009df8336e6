import contextlib
import io
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relf import (
    DEFAULT_ENSEMBLE_TEXT,
    Dataset,
    FoldStack,
    NoiseConfig,
    Preprocessing,
    ScalerState,
    add_intercept,
    apply_scaler,
    fit,
    fit_scaler,
    inject_outliers,
    load_csv,
    load_libsvm,
    parse_ensemble,
    save_libsvm,
    synth_line,
)
from relf.cli import main
from relf.data import NOISE_GAUSSIAN, NOISE_OUTLIER, json_dataclass, minmax_map
from relf.exceptions import (
    DataError,
    DataIOError,
    DimensionMismatchError,
    ParseError,
    RelfError,
)

from oracles import csv_rows_oracle, libsvm_oracle


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
        with pytest.raises(DataError, match=r"^X must be 2-D, got shape \(\)$"):
            Dataset(X=1.0, y=[1.0])
        with pytest.raises(DataError, match=r"^y must be 1-D, got shape \(\)$"):
            Dataset(X=[[1.0]], y=1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 4), st.data())
    def test_strided_arrays_are_held_in_c_order_and_fit_like_copies(self, n, width, data):
        # a column slice is strided; matmul may take another kernel for it
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        table = np.array(data.draw(st.lists(values, min_size=n * width,
                                            max_size=n * width))).reshape(n, width)
        ds = Dataset(X=table[:, :-1], y=table[:, -1])
        assert ds.X.flags.c_contiguous and ds.y.flags.c_contiguous
        ensemble = parse_ensemble(DEFAULT_ENSEMBLE_TEXT)

        def fitted_w(dataset):
            try:
                return fit(dataset, ensemble).w.tobytes()
            except RelfError:
                return None

        assert fitted_w(ds) == fitted_w(Dataset(table[:, :-1].copy(), table[:, -1].copy()))

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
        with pytest.raises(DataError, match=re.escape(f"{path} holds no rows")):
            load_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n")
        with pytest.raises(DataError, match=re.escape(f"{path} holds no data rows")):
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
        with pytest.raises(DataError, match="line 6 has 1 cells"):
            load_csv(path, "y")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x,y\n1,2\n1,2,3\n")
        with pytest.raises(DataError, match="^line 3 has 3 cells, expected 2$"):
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


@st.composite
def _libsvm_datasets(draw):
    """A ``Dataset`` of finite floats, zeros of both signs among them, whose
    last column holds a nonzero entry: the loader's width is the largest
    index it sees."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0.0), st.just(-0.0), _finite_floats())
    X = np.array([[draw(entry) for _ in range(d)] for _ in range(n)])
    X[draw(st.integers(0, n - 1)), -1] = draw(_finite_floats().filter(lambda v: v != 0.0))
    return Dataset(X=X, y=np.array([draw(_finite_floats()) for _ in range(n)]))


_SVM_NUMBERS = ["1", "-2.5", "+.5", "3.", "1e3", "-0.0", "7E-2", "0", "123456.789"]
_SVM_ODD = ["1e400", "x", "nan", "-inf", "1_0", "0x1p3", "\u0661", "", "1.2.3", "--1", "1e"]


@st.composite
def _libsvm_texts(draw):
    """Plain libsvm text, or, half of the time, with odd tokens, indices,
    separators and blank lines mixed in."""
    odd = draw(st.booleans())

    def pick(plain, strange):
        return st.sampled_from(plain * 4 + strange if odd else plain)

    number = pick(_SVM_NUMBERS, _SVM_ODD)
    index = st.one_of(st.integers(1, 6).map(str),
                      pick(["2"], ["0", "-1", "+2", "01", "1_0", "a", "", "9" * 16]))
    pair = st.one_of(st.builds("{}:{}".format, index, number),
                     pick(["4:1"], ["12", "1:2:3", ":", "3:"]))
    space = pick([" ", "\t", "  "], ["\x0b", "\x1c", "\xa0"])
    blank = pick(["", " ", "\t"], ["\x0c", "\u2028"])
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(blank))
            continue
        tokens = [draw(number)] + draw(st.lists(pair, max_size=5))
        line = "".join(draw(space) + t for t in tokens)
        lines.append(line if draw(st.booleans()) else line.lstrip())
    end = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    return "".join(line + draw(end) for line in lines[:-1]) + \
        (lines[-1] + draw(st.sampled_from(["", "\n"])) if lines else "")


def _outcome(path):
    """What :func:`load_libsvm` makes of ``path``, in the terms of
    :func:`oracles.libsvm_oracle`."""
    try:
        ds = load_libsvm(path)
    except RelfError as exc:
        return type(exc).__name__, getattr(exc, "row", None), getattr(exc, "col", None)
    return "ok", ds.X, ds.y


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
        # without a label every column is a feature
        ds = load_csv(path, None, has_header=has_header)
        assert ds.X.tobytes() == rows.tobytes() and ds.X.shape == rows.shape
        assert ds.y.tobytes() == np.zeros(rows.shape[0]).tobytes()
        assert ds.feature_names == (None if header is None else tuple(header))

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
        with pytest.raises(DataError, match="line 3 has 1 cells, expected 2"):
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
        with pytest.raises(DataError, match="header line has 3 cells"):
            load_csv(path, "y")


def _owns_c_array(a) -> bool:
    return a.base is None and a.flags.c_contiguous


def _tails_owned_table(X) -> bool:
    """``X`` is a C-contiguous view of the last elements of an owned
    C-contiguous table one column wider."""
    table = X.base
    return (X.flags.c_contiguous and _owns_c_array(table)
            and table.shape == (X.shape[0], X.shape[1] + 1)
            and (X.size == 0 or X.__array_interface__["data"][0]
                 == table.__array_interface__["data"][0] + table.nbytes - X.nbytes))


class TestLoadCsvMemory:
    """``load_csv`` keeps one copy of the data, a table whose last elements
    ``X`` is; ``Preprocessing.apply`` writes one more, or with ``in_place``
    writes the design over that table."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(2, 40), st.integers(1, 4), st.data())
    def test_arrays_own_their_memory_and_fit_like_copies(self, tmp_path, n, width, data):
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        table = np.array(data.draw(st.lists(values, min_size=n * width,
                                            max_size=n * width))).reshape(n, width)
        label_idx = data.draw(st.integers(0, width - 1))
        path = tmp_path / "t.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
        ds = load_csv(path, label_idx, has_header=False)
        assert _tails_owned_table(ds.X) and _owns_c_array(ds.y)
        ensemble = parse_ensemble(DEFAULT_ENSEMBLE_TEXT)

        def fitted_w(dataset):
            try:
                return fit(dataset, ensemble).w.tobytes()
            except RelfError:
                return None

        want = fitted_w(Dataset(ds.X.copy(), ds.y.copy()))
        assert fitted_w(ds) == want
        model = tmp_path / "model.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["fit", "--data", str(path), "--label-column", str(label_idx),
                         "--no-header", "--no-intercept", "--output", str(model)])
        if want is None:
            assert code != 0
        else:
            assert code == 0
            w = np.array(json.loads(model.read_text())["w"])
            assert w.tobytes() == want

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 30), st.integers(1, 4), st.data())
    def test_in_place_design_has_the_bits_of_a_new_one(self, tmp_path, n, width, data):
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        table = np.array(data.draw(st.lists(values, min_size=n * width,
                                            max_size=n * width))).reshape(n, width)
        label = data.draw(st.one_of(st.none(), st.integers(0, width - 1)))
        scale, intercept = data.draw(st.booleans()), data.draw(st.booleans())
        path = tmp_path / "t.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
        ds = load_csv(path, label, has_header=False)
        table = ds.X if ds.X.base is None else ds.X.base
        pre = Preprocessing.fit(ds, scale, intercept)
        want = pre.apply(ds)
        work = pre.apply(ds, in_place=True)
        assert work.X.tobytes() == want.X.tobytes() and work.X.shape == want.X.shape
        assert work.y is ds.y and work.feature_names == want.feature_names
        # written over the table, unless an intercept finds no spare room
        # in it (no label) or there is nothing to write
        if work is not ds and ds.d and (label is not None or not intercept):
            assert np.shares_memory(work.X, table)

    @pytest.fixture
    def big_csv(self, tmp_path):
        # 20 000 x 20 features plus the label, in %.6f form
        rng = np.random.default_rng(4)
        path = tmp_path / "big.csv"
        np.savetxt(path, rng.uniform(-50.0, 50.0, size=(20_000, 21)), fmt="%.6f",
                   delimiter=",", header=",".join([f"x{j}" for j in range(20)] + ["y"]),
                   comments="")
        load_csv(path, "y")  # once untraced, so one-time imports and caches are not counted
        return path

    def test_load_holds_only_x_and_y(self, big_csv):
        tracemalloc.start()
        try:
            ds = load_csv(big_csv, "y")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ds.X.shape == (20_000, 20)
        assert held <= 1.1 * (ds.X.nbytes + ds.y.nbytes)

    @pytest.mark.parametrize("command", ["fit", "predict", "predict-unlabelled"])
    def test_cli_holds_one_table(self, big_csv, tmp_path, command):
        model, preds = tmp_path / "model.json", tmp_path / "p.csv"
        features = tmp_path / "features.csv"  # big_csv without its label column
        features.write_text("".join(line.rpartition(",")[0] + "\n"
                                    for line in big_csv.read_text().splitlines()))
        argv = {"fit": ["fit", "--data", str(big_csv), "--label-column", "y", "--scale",
                        "--output", str(model)],
                "predict": ["predict", "--model", str(model), "--data", str(big_csv),
                            "--label-column", "y", "--output", str(preds)],
                "predict-unlabelled": ["predict", "--model", str(model), "--data",
                                       str(features), "--output", str(preds)]}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv["fit"]) == 0  # a model, and one-time imports untraced
            tracemalloc.start()
            try:
                assert main(argv[command]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        design = 20_000 * 21 * 8  # 20 scaled features and the intercept
        # the table, its label column and the per-row arrays: predict's are
        # y (zeros without a label column) and the predictions, as it maps
        # a row block at a time; the solver's, about eight arrays of n
        # floats, are 0.4 design at 21 columns (the whole file and two
        # design-sized copies were held at once before, a peak of 2.45
        # designs; a label-free predict held two designs, 2.14)
        assert peak <= {"fit": 1.6, "predict": 1.3, "predict-unlabelled": 1.3}[command] * design

    def test_apply_writes_one_design(self, big_csv):
        tracemalloc.start()
        try:
            ds = load_csv(big_csv, "y")
            pre = Preprocessing.fit(ds, scale=True, intercept=True)
            tracemalloc.reset_peak()
            work = pre.apply(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert work.X.shape == (20_000, 21) and _owns_c_array(work.X)
        # ds (X and y) stays alive: about 1 + 1 design, plus small temporaries
        assert peak <= 2.5 * work.X.nbytes


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
        with pytest.raises(DataError, match="^feature indices are 1-based; got 0 at line 1$"):
            load_libsvm(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("\n\n")
        with pytest.raises(DataError, match=re.escape(f"{path} holds no data lines")):
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

    def test_blank_lines_tabs_crlf_and_a_repeated_index(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_bytes(b"\r\n 1.5\t1:2  3:4 1:-0.0 \r\n\t\n-5e-1 2:1e3\n7\n")
        ds = load_libsvm(path)
        assert ds.X.tobytes() == np.array([[-0.0, 0.0, 4.0], [0.0, 1000.0, 0.0],
                                           [0.0, 0.0, 0.0]]).tobytes()
        assert ds.y.tolist() == [1.5, -0.5, 7.0]

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_libsvm_texts())
    def test_matches_the_oracle(self, tmp_path, text):
        path = tmp_path / "fuzz.svm"
        path.write_bytes(text.encode())
        got, want = _outcome(path), libsvm_oracle(path)
        if want[0] != "ok":
            assert got == want
        else:
            assert got[0] == "ok", got
            assert got[1].shape == want[1].shape
            assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()

    def test_load_peak_memory(self, tmp_path):
        # 900 x 13 at 60 % density, as the largest libsvm set of the
        # benchmark's grid: the text is 0.17 MB and the dense result 0.09
        # MB.  One token-by-token parse peaks at about 1.0 MB; with a regex
        # match and a bulk parse of the number strings it peaked at 2.4 MB
        rng = np.random.default_rng(11)
        X = np.where(rng.random((900, 13)) < 0.6, rng.standard_normal((900, 13)), 0.0)
        path = tmp_path / "d.svm"
        save_libsvm(Dataset(X=X, y=rng.standard_normal(900)), path)
        load_libsvm(path)  # once untraced, so one-time imports and caches are not counted
        tracemalloc.start()
        try:
            ds = load_libsvm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.X.tobytes() == X.tobytes()
        assert peak <= 1.5e6

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_libsvm_datasets())
    def test_round_trip_property(self, tmp_path, ds):
        path = tmp_path / "rt.svm"
        save_libsvm(ds, path)
        back = load_libsvm(path)
        assert back.y.tobytes() == ds.y.tobytes()
        # a zero entry is not written, so -0.0 comes back as 0.0
        assert back.X.tobytes() == (ds.X + 0.0).tobytes()


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

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_column_maps_into_the_unit_interval(self, column):
        values = np.array(column)
        lo, hi = values.min(), values.max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = minmax_map(values, lo, hi)
        assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 1.0)
        if hi / 2 > lo / 2:
            assert np.all(out[values == lo] == -1.0) and np.all(out[values == hi] == 1.0)
        # halving is exact from twice the smallest normal up, so wherever
        # 2 (hi - lo) is finite these are the bits of -1 + 2 (v - lo) / (hi - lo)
        exact = (values == 0) | (np.abs(values) >= 2.0**-1021)
        with np.errstate(over="ignore"):
            span = hi - lo
            doubled = 2.0 * span
        if np.isfinite(doubled) and span > 0 and np.all(exact):
            ref = values - lo
            ref *= 2.0
            ref /= span
            ref += -1.0
            assert np.array_equal(out, ref)

    def test_in_place_overflow_names_the_value_read(self, tmp_path):
        path = tmp_path / "far.csv"
        path.write_text("y,x\n1,0\n2,1e10\n3,0\n")
        pre = Preprocessing(ScalerState(np.array([0.0]), np.array([1e-300])), intercept=True)
        with pytest.raises(DataError, match=r"^scaling 10000000000\.0 by the training range "
                                            r"\[0\.0, 1e-300\] overflows the float range$"):
            pre.apply(load_csv(path, "y"), in_place=True)

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
        with pytest.raises(DataError, match="^dataset already has an intercept column$"):
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
        with pytest.raises(DataError, match=re.escape(
                "outlier_fraction must lie in [0, 1], got 1.5")):
            NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=1.5)
        with pytest.raises(DataError, match=re.escape(
                "outlier_fraction must lie in [0, 1], got -0.1")):
            NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=-0.1)

    def test_negative_seed(self):
        with pytest.raises(DataError, match=re.escape("seed must be >= 0, got -1")):
            NoiseConfig(mode=NOISE_GAUSSIAN, seed=-1)

    def test_other_guards(self):
        with pytest.raises(DataError):
            NoiseConfig(mode="salt-and-pepper")
        with pytest.raises(DataError):
            NoiseConfig(mode=NOISE_GAUSSIAN, gaussian_std=-1.0)
        with pytest.raises(DataError):
            NoiseConfig(mode=NOISE_OUTLIER, outlier_magnitude=0.0)


class TestFoldStack:
    """Label rows over designs: system ``i`` is fitted on design ``i % designs``."""

    @pytest.mark.parametrize("labels, counts, message", [
        # labels of another row length than the designs
        ((2, 4), [5, 5], "labels of shape (2, 4) for designs of shape (2, 5, 3)"),
        ((3, 5), [5, 5, 5], "3 label rows are not a whole multiple of 2 designs"),
        # counts of another length than the labels, or past the rows
        ((4, 5), [5, 4, 5], "counts [5, 4, 5] do not fit 4 systems"),
        ((2, 5), [6, 5], "counts [6, 5] do not fit 2 systems"),
        ((2, 5), [-1, 5], "counts [-1, 5] do not fit 2 systems"),
        # system 2 is fitted on design 0, which holds 5 rows, not 4
        ((4, 5), [5, 4, 4, 5], "counts [5, 4, 4, 5] do not fit 4 systems"),
    ])
    def test_shapes_that_disagree(self, labels, counts, message):
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}"):
            FoldStack(np.zeros((2, 5, 3)), np.zeros(labels), np.array(counts))

    def test_designs_must_be_a_nonempty_stack(self):
        for X in (np.zeros((5, 3)), np.zeros((0, 5, 3))):
            with pytest.raises(DimensionMismatchError):
                FoldStack(X, np.zeros((1, 5)), np.array([5]))

    def test_runs_cut_at_each_pass_over_the_designs(self):
        X = np.zeros((2, 5, 3))
        runs = FoldStack(X, np.zeros((4, 5)), np.array([5, 4, 5, 4])).runs
        assert runs == [(slice(0, 1), slice(0, 1), 5), (slice(1, 2), slice(1, 2), 4),
                        (slice(2, 3), slice(0, 1), 5), (slice(3, 4), slice(1, 2), 4)]
        runs = FoldStack(X, np.zeros((6, 5)), np.full(6, 5)).runs
        assert runs == [(slice(0, 2), slice(0, 2), 5), (slice(2, 4), slice(0, 2), 5),
                        (slice(4, 6), slice(0, 2), 5)]
        stack = FoldStack.of(Dataset(np.ones((3, 2)), np.zeros(3)))
        assert stack.k == 1 and stack.runs == [(slice(0, 1), slice(0, 1), 3)]


class TestJsonDataclass:
    def test_array_and_nested_dataclass_kinds(self):
        # a list of numbers is read as a float array, an object as the
        # dataclass of the field's type hint, null as None where it allows
        obj = {"intercept": True, "scaler": {"feature_min": [0, 1.5], "feature_max": [2, 3]}}
        prep = json_dataclass(Preprocessing, obj, "p")
        assert prep == Preprocessing(ScalerState(np.array([0.0, 1.5]), np.array([2.0, 3.0])), True)
        assert prep.scaler.feature_min.dtype == float
        assert json_dataclass(Preprocessing, {"intercept": False, "scaler": None}, "p") == (
            Preprocessing())

    @pytest.mark.parametrize("obj, message", [
        ([], "p must be an object"),
        ({"intercept": True}, "p lacks 'scaler'"),
        ({"intercept": True, "scaler": [1]}, "p 'scaler' must be an object or null"),
        ({"intercept": True, "scaler": {"feature_min": [0], "feature_max": [1], "x": 1}},
         "p scaler has unknown key 'x'"),
        ({"intercept": True, "scaler": {"feature_min": [float("inf")], "feature_max": [1]}},
         "p scaler 'feature_min' must be a list of finite numbers"),
        ({"intercept": True, "scaler": {"feature_min": [True], "feature_max": [1]}},
         "p scaler 'feature_min' must be a list of finite numbers"),
        ({"intercept": True, "scaler": {"feature_min": [[0]], "feature_max": [1]}},
         "p scaler 'feature_min' must be a list of finite numbers"),
    ])
    def test_errors_name_the_level(self, obj, message):
        with pytest.raises(DataError) as info:
            json_dataclass(Preprocessing, obj, "p")
        assert str(info.value) == message
