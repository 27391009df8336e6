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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
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
            raise FractionRangeError(
                f"outlier_fraction must lie in [0, 1], got {self.outlier_fraction!r}")


@dataclass(frozen=True)
class ScalerState:
    """Per-column min/max fitted on training data; labels optional."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    label_min: float | None = None
    label_max: float | None = None


def load_csv(path, label_column, has_header: bool = True) -> Dataset:
    """Load a dense CSV file.

    ``label_column`` is a 0-based column index, or a header name when
    ``has_header`` is true.  The header is the first non-blank row; rows
    whose cells are all blank are skipped and cells may be double-quoted.  All
    cells must parse as floats; rows of uneven width, or a header wider
    than the rows, raise :class:`RaggedRowsError`; unparseable cells raise
    :class:`ParseError` with 1-based coordinates, where the row is the
    file line on which the record starts.

    The data rows are parsed in one call to numpy's C parser.  Only a file
    it refuses is parsed again cell by cell, which either accepts it too or
    names the first bad cell.
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
        raise EmptyFileError(f"{path} holds no rows")

    header = None
    first_data = 0
    if has_header:
        header = [cell.strip() for cell in lines[0][1]]
        first_data = 1
    if len(lines) <= first_data:
        raise EmptyFileError(f"{path} holds no data rows")

    width = len(lines[first_data][1])
    _label_index(label_column, header, width)  # label errors come first

    rows = np.empty((len(lines) - first_data, width))
    for i, (file_line, row) in enumerate(lines[first_data:]):
        if len(row) != width:
            raise RaggedRowsError(
                f"line {file_line} has {len(row)} cells, expected {width}")
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
        raise RaggedRowsError(
            f"header line has {len(header)} cells, data rows have {width}")
    mask = np.ones(width, dtype=bool)
    mask[label_idx] = False
    names = None if header is None else tuple(
        h for j, h in enumerate(header) if j != label_idx)
    return Dataset(X=rows[:, mask], y=rows[:, label_idx], feature_names=names)


def load_libsvm(path) -> Dataset:
    """Load sparse ``label idx:val ...`` text; indices are 1-based.

    The feature count is the largest index seen; omitted entries are zero.
    """
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataIOError.undecodable(path, exc) from None

    labels: list[float] = []
    rows: list[dict[int, float]] = []
    d = 0
    for lineno, line in enumerate(raw, start=1):
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
                raise NonPositiveIndexError(
                    f"feature indices are 1-based; got {idx} at line {lineno}")
            try:
                entries[idx] = float(val_text)
            except ValueError:
                raise ParseError(f"bad feature value {val_text!r}",
                                 row=lineno, col=col) from None
            d = max(d, idx)
        rows.append(entries)

    if not rows:
        raise EmptyFileError(f"{path} holds no data lines")
    X = np.zeros((len(rows), d))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            X[i, idx - 1] = val
    return Dataset(X=X, y=np.asarray(labels))


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


def fit_scaler(ds: Dataset, scale_labels: bool = False) -> ScalerState:
    """Record per-column min/max of ``ds`` (and of labels if asked)."""
    return ScalerState(
        feature_min=ds.X.min(axis=0),
        feature_max=ds.X.max(axis=0),
        label_min=float(ds.y.min()) if scale_labels else None,
        label_max=float(ds.y.max()) if scale_labels else None,
    )


def _minmax_map(values, lo, hi):
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, -1.0 + 2.0 * (values - lo) / safe, 0.0)


def apply_scaler(ds: Dataset, state: ScalerState) -> Dataset:
    """Map features (and optionally labels) onto [-1, 1] per ``state``.

    Training extrema map to exactly -1/+1; constant columns map to 0;
    unseen values extrapolate linearly outside [-1, 1].
    """
    lo = np.asarray(state.feature_min, dtype=float)
    hi = np.asarray(state.feature_max, dtype=float)
    if lo.shape != (ds.d,) or hi.shape != (ds.d,):
        raise DimensionMismatchError(
            f"scaler fitted for {lo.shape[0]} columns, dataset has {ds.d}")
    X = _minmax_map(ds.X, lo[None, :], hi[None, :])
    y = ds.y
    if state.label_min is not None:
        y = _minmax_map(ds.y, state.label_min, state.label_max)
    return Dataset(X=X, y=y, feature_names=ds.feature_names,
                   has_intercept=ds.has_intercept)


def add_intercept(ds: Dataset) -> Dataset:
    """Append a constant 1.0 column (named ``"intercept"``)."""
    if ds.has_intercept:
        raise DoubleInterceptError("dataset already has an intercept column")
    X = np.hstack([ds.X, np.ones((ds.n, 1))])
    names = ds.feature_names + ("intercept",) if ds.feature_names else None
    return Dataset(X=X, y=ds.y, feature_names=names, has_intercept=True)


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
    if noise.mode != NOISE_OUTLIER:
        raise DataError(f"inject_outliers needs mode={NOISE_OUTLIER!r}, got {noise.mode!r}")
    k = int(round(noise.outlier_fraction * ds.n))
    y = ds.y.copy()
    if k > 0:
        rng = np.random.default_rng(noise.seed)
        idx = rng.choice(ds.n, size=k, replace=False)
        signs = rng.choice(np.array([-1.0, 1.0]), size=k)
        spread = float(ds.y.max() - ds.y.min())
        y[idx] = y[idx] + signs * noise.outlier_magnitude * spread
    return Dataset(X=ds.X.copy(), y=y, feature_names=ds.feature_names,
                   has_intercept=ds.has_intercept)


def describe_noise(noise: NoiseConfig) -> dict:
    """JSON-friendly echo of a noise config (used by the CLI and reports)."""
    return {
        "mode": noise.mode,
        "gaussian_std": noise.gaussian_std,
        "outlier_fraction": noise.outlier_fraction,
        "outlier_magnitude": noise.outlier_magnitude,
        "seed": noise.seed,
    }


def with_seed(noise: NoiseConfig, seed: int) -> NoiseConfig:
    """Copy of ``noise`` with a different seed (fold-level derivation)."""
    return replace(noise, seed=int(seed))
