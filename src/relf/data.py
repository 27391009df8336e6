"""Datasets, file loaders, scaling, and synthetic-noise generation.

A :class:`Dataset` is a dense design matrix plus labels, always float64 and
finite.  Loaders understand two formats: header/headerless CSV and the
sparse ``label idx:val ...`` text format with 1-based indices.  Feature
scaling is min-max onto [-1, 1], fitted on training data only.  Synthetic
helpers build the 81-point line ``y = 2x`` on ``x in [-20, 20]`` (step 0.5)
with either Gaussian label noise or injected label outliers.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DataError, DataIOError, DimensionMismatchError, ParseError, RelfError

NOISE_GAUSSIAN = "gaussian"
NOISE_OUTLIER = "outlier"
NOISE_MODES = (NOISE_GAUSSIAN, NOISE_OUTLIER)


@dataclass(frozen=True)
class Dataset:
    """Dense regression dataset: ``X`` is (n, d), ``y`` is (n,)."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None
    has_intercept: bool = False

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise DataError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1:
            raise DataError(f"y must be 1-D, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
        if X.shape[0] < 1:
            raise DataError("dataset needs at least one sample")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains NaN/Inf")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != X.shape[1]:
                raise DataError(
                    f"{len(names)} feature names for {X.shape[1]} columns")
            object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def take(self, indices) -> "Dataset":
        """Row subset (used by cross-validation); metadata carries over."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.X[idx], self.y[idx], self.feature_names,
                       self.has_intercept)


@dataclass(frozen=True)
class FoldStack:
    """The designs of ``k`` folds stacked on a leading axis: ``X`` is
    (k, rows, d) and ``y`` is (k, rows).

    Fold ``j`` holds ``counts[j]`` rows; a shorter fold is padded up to
    ``rows`` with all-zero rows and zero labels, which no sum or product
    includes (see :attr:`runs`), so each fold gives a lone fit's bits.  A
    single :class:`Dataset` is the one-fold stack :meth:`of`, which shares
    its arrays.
    """

    X: np.ndarray
    y: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, ds: Dataset) -> "FoldStack":
        return cls(ds.X[None], ds.y[None], np.array([ds.n]))

    @property
    def k(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        """Real rows over all folds, which the w-step sums over."""
        return int(self.counts.sum())

    @property
    def d(self) -> int:
        return self.X.shape[2]

    @cached_property
    def runs(self) -> list[tuple[slice, int]]:
        """``(folds, count)`` per run of adjacent folds of ``count`` rows
        each: a batched sum over ``X[folds, :count]`` skips the padding."""
        edges = [0, *(np.flatnonzero(np.diff(self.counts)) + 1), self.k]
        return [(slice(a, b), int(self.counts[a])) for a, b in zip(edges, edges[1:])]


@dataclass(frozen=True)
class NoiseConfig:
    """Label-noise recipe for the synthetic line and outlier injection.

    ``mode`` selects exactly one of two corruption kinds: ``"gaussian"``
    adds N(0, gaussian_std^2) to every label, ``"outlier"`` displaces a
    round(outlier_fraction * n)-sized random subset of labels by
    ``sign * outlier_magnitude * range(y)`` with sign uniform on {-1, +1}.
    ``gaussian_std = 0`` disables noise entirely.
    """

    mode: str
    gaussian_std: float = 1.0
    outlier_fraction: float = 0.3
    outlier_magnitude: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise DataError(f"noise mode must be one of {NOISE_MODES}, got {self.mode!r}")
        if not np.isfinite(self.gaussian_std) or self.gaussian_std < 0:
            raise DataError(f"gaussian_std must be >= 0, got {self.gaussian_std!r}")
        if not np.isfinite(self.outlier_magnitude) or self.outlier_magnitude <= 0:
            raise DataError(
                f"outlier_magnitude must be > 0, got {self.outlier_magnitude!r}")
        if not (0.0 <= self.outlier_fraction <= 1.0):
            raise DataError(f"outlier_fraction must lie in [0, 1], got {self.outlier_fraction!r}")


@dataclass(frozen=True)
class ScalerState:
    """Per-column min/max fitted on training data."""

    feature_min: np.ndarray
    feature_max: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, ScalerState)
                and np.array_equal(self.feature_min, other.feature_min)
                and np.array_equal(self.feature_max, other.feature_max))


@dataclass(frozen=True)
class Preprocessing:
    """A model's feature map: min-max scaling by ``scaler`` (if not None),
    then an intercept column (if ``intercept``); by default the identity."""

    scaler: ScalerState | None = None
    intercept: bool = False

    @classmethod
    def fit(cls, ds: Dataset, scale: bool, intercept: bool) -> "Preprocessing":
        """The map for training data ``ds``, scaled by its own ranges."""
        return cls(fit_scaler(ds) if scale else None, intercept)

    def apply(self, ds: Dataset) -> Dataset:
        """``ds`` with its features mapped, written into one new (n, d +
        intercept) array; ``ds`` itself for the identity.  A scaler fitted
        for other than ``ds.d`` columns raises
        :class:`DimensionMismatchError`, an intercept on a dataset that has
        one :class:`DataError`, in that order."""
        if self.scaler is None and not self.intercept:
            return ds
        X = np.empty((ds.n, ds.d + self.intercept))
        if self.scaler is None:
            X[:, :ds.d] = ds.X
        else:
            lo = np.asarray(self.scaler.feature_min, dtype=float)
            hi = np.asarray(self.scaler.feature_max, dtype=float)
            if lo.shape != (ds.d,) or hi.shape != (ds.d,):
                raise DimensionMismatchError(
                    f"scaler fitted for {lo.shape[0]} columns, dataset has {ds.d}")
            minmax_map(ds.X, lo, hi, out=X[:, :ds.d])
        names = ds.feature_names
        if self.intercept:
            if ds.has_intercept:
                raise DataError("dataset already has an intercept column")
            X[:, ds.d] = 1.0
            names = names + ("intercept",) if names else None
        return Dataset(X=X, y=ds.y, feature_names=names,
                       has_intercept=ds.has_intercept or self.intercept)

    def to_dict(self) -> dict:
        return {"intercept": self.intercept, "scaler": None if self.scaler is None else {
            "feature_min": [float(v) for v in self.scaler.feature_min],
            "feature_max": [float(v) for v in self.scaler.feature_max],
        }}

    @classmethod
    def from_dict(cls, obj: dict, width: int) -> "Preprocessing":
        """Inverse of :meth:`to_dict` for a model of ``width`` weights;
        :class:`RelfError` for a value it could not have written."""
        if not isinstance(obj, dict):
            raise RelfError("model 'preprocessing' must be an object")
        intercept = "intercept" in obj and json_field(obj, "intercept", bool,
                                                      "model preprocessing")
        if obj.get("scaler") is None:
            return cls(None, intercept)
        lo = json_numbers(obj["scaler"], "feature_min", "model scaler")
        hi = json_numbers(obj["scaler"], "feature_max", "model scaler")
        if lo.shape != hi.shape:
            raise RelfError(f"model scaler has {lo.shape[0]} minima and {hi.shape[0]} maxima")
        if width != lo.shape[0] + intercept:
            raise RelfError(f"model has {width} weights, but its preprocessing "
                            f"yields {lo.shape[0] + intercept} columns")
        return cls(ScalerState(lo, hi), intercept)


_KIND_NAMES = {str: "a string", bool: "a boolean", int: "an integer",
               float: "a finite number", list: "a list", dict: "an object"}


def _conforms(value, kind) -> bool:
    """JSON typing: ``float`` takes any finite number; a boolean is no
    ``int``.  ``kind`` may also be a tuple of types, as for ``isinstance``."""
    if isinstance(value, bool) and kind is not bool:
        return False
    if kind is float:  # an exact comparison, so no int overflows
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def load_json(path, what: str):
    """The JSON value in the file at ``path``, whose errors call it ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataIOError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataIOError.undecodable(path, exc) from None
    except json.JSONDecodeError as exc:
        raise RelfError(f"{what} is not valid JSON: {exc}") from exc


def json_field(obj, key: str, kind: type, where: str):
    """``obj[key]`` if ``obj`` is a JSON object whose ``key`` holds a
    ``kind`` value; :class:`RelfError` otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise RelfError(f"{where} lacks {key!r}")
    if not _conforms(obj[key], kind):
        raise RelfError(f"{where} {key!r} must be {_KIND_NAMES[kind]}")
    return obj[key]


def json_numbers(obj, key: str, where: str) -> np.ndarray:
    """``obj[key]`` as a float array, if it is a list of finite numbers."""
    values = json_field(obj, key, list, where)
    if not all(_conforms(v, float) for v in values):
        raise RelfError(f"{where} {key!r} must be a list of finite numbers")
    return np.asarray(values, dtype=float)


def load_csv(path, label_column, has_header: bool = True) -> Dataset:
    """Load a dense CSV file.

    ``label_column`` is a 0-based column index, or a header name when
    ``has_header`` is true.  The header is the first non-blank row; rows
    whose cells are all blank are skipped and cells may be double-quoted.  All
    cells must parse as floats; rows of uneven width, or a header wider
    than the rows, raise :class:`DataError`; unparseable cells raise
    :class:`ParseError` with 1-based coordinates, where the row is the
    file line on which the record starts.

    The data rows are parsed in one call to numpy's C parser.  Only a file
    it refuses is parsed again cell by cell, which either accepts it too or
    names the first bad cell.  ``X`` and ``y`` are C-contiguous arrays that
    own their memory: the file's bytes are freed once parsed, and the
    parsed table once split into them.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc

    try:
        parsed = None
        if not any(byte in raw for byte in _NUMPY_ONLY_SPACE):
            parsed = _parse_bulk(_text(raw), has_header)
        if parsed is None:
            parsed = _parse_checked(_text(raw), path, label_column, has_header)
    except UnicodeDecodeError as exc:
        raise DataIOError.undecodable(path, exc) from None
    del raw  # free the file's bytes before X is split off the table
    header, rows = parsed
    return _split_label(rows, header, label_column)


# numpy strips these ASCII separators around a number as whitespace, but
# float() rejects them: files holding one take the cell-by-cell parse
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"


def _text(raw: bytes):
    """Text stream over ``raw``, decoded as ``open(path, newline="")`` would."""
    return io.TextIOWrapper(io.BytesIO(raw), newline="")


def _has_content(row) -> bool:
    return any(cell.strip() for cell in row)


def _parse_bulk(stream, has_header: bool):
    """``(header, rows)`` with all data rows parsed by ``np.loadtxt``, or
    None if numpy refuses the file or finds no data rows."""
    header = None
    if has_header:
        row = next(filter(_has_content, csv.reader(stream)), None)
        if row is None:
            return None
        header = [cell.strip() for cell in row]
    try:
        with warnings.catch_warnings():
            # numpy only warns, rather than raises, on input without data
            warnings.simplefilter("error", UserWarning)
            rows = np.loadtxt(stream, delimiter=",", comments=None,
                              quotechar='"', ndmin=2, dtype=float)
    except (ValueError, UserWarning):
        return None
    return header, rows


def _parse_checked(stream, path, label_column, has_header: bool):
    """``(header, rows)`` parsed cell by cell with ``float()``.

    Raises the loader's file errors; each record is numbered by the file
    line it starts on.
    """
    reader = csv.reader(stream)
    lines = []  # (file line, cells) of every non-blank record
    start = 1
    for row in reader:
        if _has_content(row):
            lines.append((start, row))
        start = reader.line_num + 1
    if not lines:
        raise DataError(f"{path} holds no rows")

    header = None
    first_data = 0
    if has_header:
        header = [cell.strip() for cell in lines[0][1]]
        first_data = 1
    if len(lines) <= first_data:
        raise DataError(f"{path} holds no data rows")

    width = len(lines[first_data][1])
    _label_index(label_column, header, width)  # label errors come first

    rows = np.empty((len(lines) - first_data, width))
    for i, (file_line, row) in enumerate(lines[first_data:]):
        if len(row) != width:
            raise DataError(f"line {file_line} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                rows[i, j] = float(cell)
            except ValueError:
                raise ParseError(f"cannot parse {cell.strip()!r} as float",
                                 row=file_line, col=j + 1) from None
    return header, rows


def _label_index(label_column, header, width: int) -> int:
    if isinstance(label_column, str):
        if header is None:
            raise DataError("label column by name requires a header")
        try:
            return header.index(label_column)
        except ValueError:
            raise DataError(
                f"label column {label_column!r} not in header {header}") from None
    label_idx = int(label_column)
    if not (0 <= label_idx < width):
        raise DataError(
            f"label column {label_idx} out of range for {width} columns")
    return label_idx


def _split_label(rows: np.ndarray, header, label_column) -> Dataset:
    width = rows.shape[1]
    label_idx = _label_index(label_column, header, width)
    if header is not None and len(header) > width:
        raise DataError(f"header line has {len(header)} cells, data rows have {width}")
    names = None if header is None else tuple(
        h for j, h in enumerate(header) if j != label_idx)
    # copies, so that no view keeps the whole table alive
    return Dataset(X=np.delete(rows, label_idx, axis=1), y=rows[:, label_idx].copy(),
                   feature_names=names)


def load_libsvm(path) -> Dataset:
    """Load sparse ``label idx:val ...`` text; indices are 1-based.

    The feature count is the largest index seen; omitted entries are zero,
    and of an index repeated on one line the last value counts.  A file in
    the plain grammar of :data:`_LIBSVM_PLAIN` is parsed in bulk; any
    other file token by token, which either accepts it too or names the
    first bad token.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataIOError.undecodable(path, exc) from None

    import re  # json has loaded it: a local import keeps relf's import list as it is

    parsed = _parse_libsvm_bulk(text) if re.fullmatch(_LIBSVM_PLAIN, text) else None
    X, y = parsed if parsed is not None else _parse_libsvm_checked(text.split("\n"))
    if y.size == 0:
        raise DataError(f"{path} holds no data lines")
    return Dataset(X=X, y=y)


# Lines of printable ASCII tokens separated by spaces or tabs: a label,
# then ``idx:val`` pairs whose index is a positive decimal integer below
# 2**53.  The labels and values are still read by float(), as the token
# by token parse reads them.
_LIBSVM_TOKEN = r"[!-9;-~]+"  # printable ASCII but ":"
_LIBSVM_LINE = (rf"[ \t]*(?:{_LIBSVM_TOKEN}(?:[ \t]+[1-9][0-9]{{0,14}}:{_LIBSVM_TOKEN})*"
                rf"[ \t]*)?")
_LIBSVM_PLAIN = rf"(?:{_LIBSVM_LINE}\n)*{_LIBSVM_LINE}"


def _parse_libsvm_bulk(text: str):
    """``(X, y)`` of ``text`` in the plain grammar, or None if float()
    refuses a label or value."""
    pairs = np.array([line.count(":") for line in text.split("\n") if line.strip()],
                     dtype=np.intp)
    numbers = text.replace(":", " ").split()  # per line: label, idx, val, idx, val, ...
    try:
        values = np.fromiter(map(float, numbers), float, len(numbers))
    except ValueError:
        return None
    is_label = np.zeros(values.size, dtype=bool)
    is_label[np.cumsum(2 * pairs + 1) - (2 * pairs + 1)] = True
    idx, val = values[~is_label].reshape(-1, 2).T
    X = np.zeros((pairs.size, int(idx.max()) if idx.size else 0))
    flat = np.repeat(np.arange(pairs.size) * X.shape[1] - 1, pairs) + idx.astype(np.intp)
    last = flat.size - 1 - np.unique(flat[::-1], return_index=True)[1]
    np.put(X, flat[last], val[last])  # the last value of a repeated index
    return X, values[is_label]


def _parse_libsvm_checked(lines):
    """``(X, y)`` of ``lines`` parsed token by token, each line numbered
    from 1; the loader's token errors name the first bad token."""
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    d = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ParseError(f"bad label {tokens[0]!r}", row=lineno, col=1) from None
        entries: dict[int, float] = {}
        for col, token in enumerate(tokens[1:], start=2):
            idx_text, sep, val_text = token.partition(":")
            if not sep:
                raise ParseError(f"expected idx:val, got {token!r}",
                                 row=lineno, col=col)
            try:
                idx = int(idx_text)
            except ValueError:
                raise ParseError(f"bad feature index {idx_text!r}",
                                 row=lineno, col=col) from None
            if idx <= 0:
                raise DataError(f"feature indices are 1-based; got {idx} at line {lineno}")
            try:
                entries[idx] = float(val_text)
            except ValueError:
                raise ParseError(f"bad feature value {val_text!r}",
                                 row=lineno, col=col) from None
            d = max(d, idx)
        rows.append(entries)

    X = np.zeros((len(rows), d))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            X[i, idx - 1] = val
    return X, np.asarray(labels, dtype=float)


def save_libsvm(ds: Dataset, path) -> None:
    """Write ``label idx:val`` lines (only nonzero entries; repr floats)."""
    try:
        with open(path, "w") as fh:
            for i in range(ds.n):
                parts = [repr(float(ds.y[i]))]
                for j in range(ds.d):
                    v = ds.X[i, j]
                    if v != 0.0:
                        parts.append(f"{j + 1}:{float(v)!r}")
                fh.write(" ".join(parts) + "\n")
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def fit_scaler(ds: Dataset) -> ScalerState:
    """Record per-column min/max of ``ds``."""
    return ScalerState(feature_min=ds.X.min(axis=0), feature_max=ds.X.max(axis=0))


def minmax_map(values, lo, hi, out=None):
    """Map ``values`` onto [-1, 1] by ``lo``/``hi`` (broadcast against
    them); where ``hi/2 == lo/2`` the result is 0.  The result is written
    into ``out`` if given, else into a new array.

    Halving first keeps every step finite for values in ``[lo, hi]``.  It
    is exact from twice the smallest normal up, where the result has the
    bits of ``-1 + 2 (values - lo) / (hi - lo)``.  A finite value far
    enough outside a narrow ``[lo, hi]`` maps past the float range, and
    raises :class:`DataError`."""
    span = hi / 2 - lo / 2
    with np.errstate(over="ignore"):  # an overflow is named below
        out = np.divide(values, 2, out=out)  # then in place, on the result
        out -= lo / 2
        out /= np.where(span > 0, span, 1.0)
        out *= 2.0
    out += -1.0
    np.copyto(out, 0.0, where=~(span > 0))
    bad = np.isinf(out)
    bad &= np.isfinite(values)
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        lo_i, hi_i = (float(np.broadcast_to(a, out.shape)[i]) for a in (lo, hi))
        raise DataError(f"scaling {float(values[i])!r} by the training range "
                        f"[{lo_i!r}, {hi_i!r}] overflows the float range")
    return out


def apply_scaler(ds: Dataset, state: ScalerState) -> Dataset:
    """Map features onto [-1, 1] per ``state``; labels are untouched.

    Training extrema map to exactly -1/+1; constant columns map to 0;
    unseen values extrapolate linearly outside [-1, 1].
    """
    return Preprocessing(state).apply(ds)


def add_intercept(ds: Dataset) -> Dataset:
    """Append a constant 1.0 column (named ``"intercept"``)."""
    return Preprocessing(intercept=True).apply(ds)


def synth_line(noise: NoiseConfig | None = None) -> Dataset:
    """The synthetic line: 81 samples, ``x`` from -20 to 20 step 0.5,
    ``y = 2 x`` plus the configured label noise (``None`` = exact line)."""
    x = np.linspace(-20.0, 20.0, 81)
    y = 2.0 * x
    ds = Dataset(X=x[:, None], y=y, feature_names=("x",))
    if noise is None:
        return ds
    if noise.mode == NOISE_GAUSSIAN:
        if noise.gaussian_std > 0:
            rng = np.random.default_rng(noise.seed)
            y = y + rng.normal(0.0, noise.gaussian_std, size=x.shape[0])
        return Dataset(X=x[:, None], y=y, feature_names=("x",))
    return inject_outliers(ds, noise)


def inject_outliers(ds: Dataset, noise: NoiseConfig) -> Dataset:
    """Displace ``round(outlier_fraction * n)`` random labels.

    Each chosen label moves by ``sign * outlier_magnitude * (max(y) - min(y))``
    with sign uniform on {-1, +1}; features are untouched.  Pure function of
    ``(ds, noise)`` -- the RNG is seeded from ``noise.seed``.
    """
    return Dataset(X=ds.X.copy(), y=displace_labels(ds.y, noise),
                   feature_names=ds.feature_names, has_intercept=ds.has_intercept)


def displace_labels(y: np.ndarray, noise: NoiseConfig) -> np.ndarray:
    """The labels ``y`` after :func:`inject_outliers`, as a new array;
    :class:`DataError` if a displaced label leaves the float range."""
    if noise.mode != NOISE_OUTLIER:
        raise DataError(f"inject_outliers needs mode={NOISE_OUTLIER!r}, got {noise.mode!r}")
    k = int(round(noise.outlier_fraction * y.shape[0]))
    y = y.copy()
    if k > 0:
        rng = np.random.default_rng(noise.seed)
        idx = rng.choice(y.shape[0], size=k, replace=False)
        signs = rng.choice(np.array([-1.0, 1.0]), size=k)
        with np.errstate(over="ignore"):  # an overflow gives inf, rejected below
            moved = y[idx] + signs * noise.outlier_magnitude * float(y.max() - y.min())
        if not np.isfinite(moved).all():
            raise DataError("displaced labels overflow the float range")
        y[idx] = moved
    return y
