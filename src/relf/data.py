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
import json
import sys
import warnings
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, cached_property
from typing import get_args, get_type_hints

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
        # C order: a strided operand can take another matmul kernel, and
        # so give other bits than the same values held contiguously
        X = np.asarray(self.X, dtype=float, order="C")
        y = np.asarray(self.y, dtype=float, order="C")
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
    """``k`` fold systems on a leading axis: labels ``y`` (k, rows) over
    designs ``X`` (designs, rows, d), where ``k`` is a whole multiple of
    the designs and system ``i`` is fitted on design ``i % designs``.

    So the L label stacks of one split's folds (contamination levels) share
    its designs: ``X`` is held once, not L times.  System ``i`` holds
    ``counts[i]`` rows, the same as its design; a shorter fold is padded up
    to ``rows`` with all-zero rows and zero labels, which no sum or product
    includes (see :attr:`runs`), so each system gives a lone fit's bits.  A
    single :class:`Dataset` is the one-fold stack :meth:`of`, which shares
    its arrays.  Shapes that disagree raise :class:`DimensionMismatchError`.
    """

    X: np.ndarray
    y: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        X, y = self.X, self.y
        if X.ndim != 3 or y.ndim != 2 or y.shape[1] != X.shape[1] or not len(X):
            raise DimensionMismatchError(
                f"labels of shape {y.shape} for designs of shape {X.shape}")
        designs, rows = X.shape[:2]
        if self.k % designs:
            raise DimensionMismatchError(
                f"{self.k} label rows are not a whole multiple of {designs} designs")
        counts = self.counts
        if (counts.shape != (self.k,) or np.any(counts < 0) or np.any(counts > rows)
                or np.any(counts.reshape(-1, designs) != counts[:designs])):
            raise DimensionMismatchError(
                f"counts {counts.tolist()} do not fit {self.k} systems of at most {rows} "
                f"rows on {designs} designs")

    @classmethod
    def of(cls, ds: Dataset) -> "FoldStack":
        return cls(ds.X[None], ds.y[None], np.array([ds.n]))

    @property
    def k(self) -> int:
        """Systems, one per label row."""
        return self.y.shape[0]

    @property
    def n(self) -> int:
        """Real rows over all systems, which the w-step sums over."""
        return int(self.counts.sum())

    @property
    def d(self) -> int:
        return self.X.shape[2]

    @cached_property
    def runs(self) -> list[tuple[slice, slice, int]]:
        """``(folds, designs, count)`` per run of adjacent systems of
        ``count`` rows each that lie within one pass over the designs: a
        batched sum over ``X[designs, :count]`` against ``y[folds, :count]``
        skips the padding."""
        period, counts = len(self.X), self.counts.tolist()
        edges = [0, *(i for i in range(1, self.k)
                      if i % period == 0 or counts[i] != counts[i - 1]), self.k]
        return [(slice(a, b), slice(a % period, a % period + b - a), counts[a])
                for a, b in zip(edges, edges[1:])]


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
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed!r}")


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
    then an intercept column (if ``intercept``); by default the identity.
    :meth:`write` is the one code that maps dataset rows to a design: for
    a whole dataset (:meth:`apply`), for each cross-validation fold and
    for each row block that :func:`solver.predict` multiplies by ``w``."""

    scaler: ScalerState | None = None
    intercept: bool = False

    @classmethod
    def fit(cls, ds: Dataset, scale: bool, intercept: bool, rows=None) -> "Preprocessing":
        """The map for training data ``ds``, or for its rows ``rows``,
        scaled by their own ranges (:func:`fit_scaler`)."""
        return cls(fit_scaler(ds, rows) if scale else None, intercept)

    def apply(self, ds: Dataset, in_place: bool = False) -> Dataset:
        """``ds`` with its features mapped by :meth:`write` into one new (n,
        d + intercept) array; ``ds`` itself for the identity.

        With ``in_place`` the design is written over ``ds.X`` instead, or,
        with an intercept, over the table whose last elements ``ds.X`` is,
        as :func:`load_csv` leaves it; a new array is made only where there
        is no such room.  ``ds`` must not be used afterwards: this is for a
        caller that drops it, as ``relf fit`` does."""
        if self.scaler is None and not self.intercept:
            return ds
        out = _design_over(ds.X, ds.d + self.intercept) if in_place else None
        X = self.write(ds, out=out)
        names = ds.feature_names
        if self.intercept:
            names = names + ("intercept",) if names else None
        return Dataset(X=X, y=ds.y, feature_names=names,
                       has_intercept=ds.has_intercept or self.intercept)

    def write(self, ds: Dataset, rows=None, out=None) -> np.ndarray:
        """The design of the rows ``rows`` of ``ds`` (all by default), (len,
        d + intercept), written into ``out`` if given, else into one new
        array.  A scaler fitted for other than ``ds.d`` columns raises
        :class:`DimensionMismatchError`, an intercept on a dataset that has
        one :class:`DataError`, in that order.

        The rows go a block at a time, from the first: each block is
        gathered, mapped into one block-sized scratch array and checked
        (:func:`minmax_map`) before it is written to ``out``.  So ``out``
        may overlap ``ds.X`` wherever writing row ``i`` covers no later row
        of ``ds.X``, and an overflow error still names the value as it was."""
        d = ds.d
        if self.scaler is not None:
            lo = np.asarray(self.scaler.feature_min, dtype=float)
            hi = np.asarray(self.scaler.feature_max, dtype=float)
            if lo.shape != (d,) or hi.shape != (d,):
                raise DimensionMismatchError(
                    f"scaler fitted for {lo.shape[0]} columns, dataset has {d}")
        if self.intercept and ds.has_intercept:
            raise DataError("dataset already has an intercept column")
        n = ds.n if rows is None else len(rows)
        if out is None:
            out = np.empty((n, d + self.intercept))
        step = block_rows(d)
        scratch = np.empty((min(step, n), d)) if self.scaler is not None else None
        for start in range(0, n, step):
            block = ds.X[start:start + step] if rows is None else ds.X[rows[start:start + step]]
            if self.scaler is not None:
                block = minmax_map(block, lo, hi, out=scratch[:len(block)])
            out[start:start + len(block), :d] = block
        if self.intercept:
            out[:, -1] = 1.0
        return out


def _design_over(X: np.ndarray, width: int) -> np.ndarray | None:
    """Where the (n, ``width``) design of ``X`` can be written in place, or
    None: over ``X`` itself for as many columns, else over the table whose
    last elements ``X`` is, as :func:`load_csv` leaves it.  Writing row
    ``i`` there covers no element of a later row of ``X``."""
    if not (X.flags.c_contiguous and X.flags.writeable):
        return None
    if width == X.shape[1]:
        return X
    table = X.base
    if (isinstance(table, np.ndarray) and table.shape == (X.shape[0], width)
            and table.flags.c_contiguous and table.flags.writeable
            and X.__array_interface__["data"][0]
            == table.__array_interface__["data"][0] + table.nbytes - X.nbytes):
        return table
    return None


_KIND_NAMES = {str: "a string", str | None: "a string", bool: "a boolean", int: "an integer",
               int | str | None: "an integer or a string", float: "a finite number",
               int | float: "a number", list: "a list", dict: "an object",
               np.ndarray: "a list of finite numbers"}
_type_hints = cache(get_type_hints)  # a dataclass's field kinds, its annotations evaluated once


def _conforms(value, kind) -> bool:
    """JSON typing: ``float`` takes any finite number, ``int | float`` any
    number that a float holds, inf and NaN too; a boolean is no ``int``;
    ``np.ndarray`` takes a list of finite numbers and a dataclass an
    object.  ``kind`` may also be another union of types, as for
    ``isinstance``."""
    if kind is np.ndarray:
        return isinstance(value, list) and all(_conforms(v, float) for v in value)
    if isinstance(value, bool) and kind is not bool:
        return False
    if kind in (float, int | float) and isinstance(value, (int, float)):
        # an exact comparison, so no int overflows
        return abs(value) <= sys.float_info.max or (kind != float and isinstance(value, float))
    return isinstance(value, tuple(dict if is_dataclass(k) else k for k in _members(kind)))


def _members(kind) -> tuple:
    """The types of the union ``kind``, or ``kind`` alone."""
    return get_args(kind) or (kind,)


def load_json(path, what: str):
    """The JSON value in the file at ``path``, whose errors call it ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataIOError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataIOError.undecodable(path, exc) from None
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep to decode
        raise RelfError(f"{what} is not valid JSON: {exc}") from exc


def json_field(obj, key: str, kind, where: str):
    """``obj[key]`` if ``obj`` is a JSON object whose ``key`` holds a
    ``kind`` value (see :func:`_conforms`); :class:`DataError` otherwise.
    An ``np.ndarray`` is read as a float array, and a dataclass by
    :func:`json_dataclass`, its errors naming ``where`` and ``key``."""
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"{where} lacks {key!r}")
    value = obj[key]
    if not _conforms(value, kind):
        name = _KIND_NAMES.get(kind) or (
            "an object or null" if type(None) in _members(kind) else "an object")
        raise DataError(f"{where} {key!r} must be {name}")
    if kind is np.ndarray:
        return np.asarray(value, dtype=float)
    if isinstance(value, dict) and kind is not dict:
        cls = next(k for k in _members(kind) if is_dataclass(k))
        return json_dataclass(cls, value, f"{where} {key}")
    return value


def json_dataclass(cls, obj, where: str):
    """The dataclass ``cls`` whose fields are the JSON object ``obj``: every
    field present with the kind of its type hint (see :func:`json_field`)
    and no other key; :class:`DataError` naming ``where`` otherwise.  A
    caller with defaults merges them into ``obj`` first."""
    if not isinstance(obj, dict):
        raise DataError(f"{where} must be an object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise DataError(f"{where} has unknown key {unknown[0]!r}")
    return cls(**{name: json_field(obj, name, kind, where)
                  for name, kind in _type_hints(cls).items()})


def load_csv(path, label_column, has_header: bool = True) -> Dataset:
    """Load a dense CSV file.

    ``label_column`` is a 0-based column index, or a header name when
    ``has_header`` is true; None reads every column as a feature, with
    zero labels.  The header is the first non-blank row; rows whose cells
    are all blank are skipped and cells may be double-quoted.  All cells
    must parse as floats; rows of uneven width, or a header wider than the
    rows, raise :class:`DataError`; unparseable cells raise
    :class:`ParseError` with 1-based coordinates, where the row is the
    file line on which the record starts.

    The file is read in chunks, never whole: first scanned for bytes that
    only numpy reads as space, then, if it holds none, its data rows are
    parsed in one call to numpy's C parser straight from the open file.
    Only a file it refuses is parsed again cell by cell, which either
    accepts it too or names the first bad cell.  The rows land in one
    (n, d + 1) C-contiguous table that owns its memory, and that is the
    one copy of the data: ``y`` is copied out of it, and ``X`` is a
    C-contiguous view of its last ``n * d`` elements, where the features
    are moved in place (without a label, ``X`` is the whole table).
    """
    try:
        with open(path, newline="") as stream:
            parsed = None
            if not _holds_any(stream.buffer, _NUMPY_ONLY_SPACE):
                stream.seek(0)
                parsed = _parse_bulk(stream, has_header)
            if parsed is None:
                stream.seek(0)
                parsed = _parse_checked(stream, path, label_column, has_header)
    except UnicodeDecodeError as exc:
        raise DataIOError.undecodable(path, exc) from None
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    header, table = parsed
    return _split_label(table, header, label_column)


# numpy strips these ASCII separators around a number as whitespace, but
# float() rejects them: files holding one take the cell-by-cell parse
_NUMPY_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"
_SCAN_CHUNK = 1 << 20  # bytes read at a time by the scan

# elements of a row block that the row-block loops work through at a time
_BLOCK_ELEMS = 2**14


def block_rows(width: int) -> int:
    # a multiple of 8: matmul takes rows by 4s, so blocks keep a product's bits
    return max(_BLOCK_ELEMS // max(width, 1) // 8 * 8, 8)


def _holds_any(fh, chars: bytes) -> bool:
    """Whether the rest of the binary file ``fh`` holds a byte of ``chars``."""
    while chunk := fh.read(_SCAN_CHUNK):
        if any(byte in chunk for byte in chars):
            return True
    return False


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
    if label_column is not None:
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


def _split_label(table: np.ndarray, header, label_column) -> Dataset:
    """The dataset of ``table``, made without a design-sized copy: ``y`` is
    copied out of the label column, then the features are moved in place,
    row block by row block from the last, into the table's last ``n * d``
    elements, where ``X`` is a C-contiguous view.  The table's first ``n``
    elements are left spare (see :meth:`Preprocessing.apply`)."""
    n, width = table.shape
    label_idx = None if label_column is None else _label_index(label_column, header, width)
    if header is not None and len(header) > width:
        raise DataError(f"header line has {len(header)} cells, data rows have {width}")
    if label_idx is None:
        return Dataset(X=table, y=np.zeros(n), feature_names=header)
    names = None if header is None else tuple(
        h for j, h in enumerate(header) if j != label_idx)
    y = table[:, label_idx].copy()
    X = table.reshape(-1)[n:].reshape(n, width - 1)
    rows = block_rows(width)
    # row i moves from element i * width to n + i * (width - 1), never
    # below: a block goes before the ones beneath it, which it may overlap
    for start in reversed(range(0, n, rows)):
        X[start:start + rows] = np.delete(table[start:start + rows], label_idx, axis=1)
    return Dataset(X=X, y=y, feature_names=names)


def load_libsvm(path) -> Dataset:
    """Load sparse ``label idx:val ...`` text; indices are 1-based.

    The feature count is the largest index seen; omitted entries are zero,
    and of an index repeated on one line the last value counts.  The file
    is read whole, so an undecodable byte is named before any token, then
    parsed line by line, token by token, which names the first bad token.
    A file too wide to hold as a dense array raises :class:`DataError`.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataIOError.undecodable(path, exc) from None
    X, y = _parse_libsvm(text.split("\n"))
    if y.size == 0:
        raise DataError(f"{path} holds no data lines")
    return Dataset(X=X, y=y)


def _parse_libsvm(lines):
    """``(X, y)`` of ``lines`` parsed token by token, each line numbered
    from 1; the loader's token errors name the first bad token."""
    labels: list[float] = []
    counts: list[int] = []  # entries per line
    cols: list[int] = []
    vals: list[float] = []
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
        counts.append(len(entries))
        cols.extend(entries)
        vals.extend(entries.values())

    n, d = len(labels), max(cols, default=0)
    try:
        X = np.zeros((n, d))
    except (MemoryError, ValueError):  # no room, or a shape past numpy's limits
        raise DataError(f"a dense array of {n} rows by {d} features (the largest "
                        f"index) is too large to hold") from None
    X[np.repeat(np.arange(n), counts), np.array(cols, dtype=np.intp) - 1] = vals
    return X, np.array(labels)


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


def fit_scaler(ds: Dataset, rows=None) -> ScalerState:
    """Record per-column min/max of ``ds``, or of its rows ``rows``, which
    are read in place (a masked reduction), not gathered."""
    if rows is None:
        return ScalerState(feature_min=ds.X.min(axis=0), feature_max=ds.X.max(axis=0))
    mask = np.zeros((ds.n, 1), dtype=bool)
    mask[rows] = True
    return ScalerState(feature_min=ds.X.min(axis=0, where=mask, initial=np.inf),
                       feature_max=ds.X.max(axis=0, where=mask, initial=-np.inf))


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
