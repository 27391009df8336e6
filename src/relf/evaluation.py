"""Metrics, cross-validation protocol, baselines, and the benchmark harness.

The contamination protocol mirrors the robustness experiments: k-fold CV
with identical splits for the clean and contaminated runs, outliers
injected into *training* folds only (test labels stay clean so the metric
itself is not corrupted), features min-max scaled to [-1, 1] using
training-fold statistics, and an intercept column appended after scaling.
The folds of a dataset are stacked once (:func:`cv_folds`) and fit
together in one solver loop.  Robustness is summarized by the increase
ratio ``MAE_contaminated / MAE_clean``: the closer to 1, the less the
method cares about outliers.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    FoldStack,
    NoiseConfig,
    NOISE_GAUSSIAN,
    NOISE_OUTLIER,
    Preprocessing,
    _conforms,
    displace_labels,
    json_dataclass,
    load_csv,
    load_libsvm,
    synth_line,
)
from .exceptions import DataError, NonFiniteObjectiveError, RelfError
from .losses import DEFAULT_ENSEMBLE_TEXT, EnsembleSpec, parse_ensemble
from .solver import SolverConfig, decrease_ratio, fit, fit_folds
from . import linalg


def error_metrics(err) -> tuple:
    """``(mae, rmse)`` of the errors ``err`` over its last axis:
    ``mean |e|`` and ``sqrt(mean e^2)``, finite for finite errors.  Where
    such a statistic overflows (a sum or a square past the float range),
    it is taken of the errors divided by their largest magnitude, then
    scaled back; every finite one keeps the plain formula's bits."""
    err = np.asarray(err, dtype=float)
    with np.errstate(over="ignore"):
        mae, rmse = np.mean(np.abs(err), axis=-1), np.sqrt(np.mean(err ** 2, axis=-1))
    if np.isfinite(mae).all() and np.isfinite(rmse).all():
        return mae, rmse
    big = np.max(np.abs(err), axis=-1, initial=0.0)
    keep = ~np.isfinite(big)  # a non-finite error: its statistics stay as they are
    with np.errstate(invalid="ignore"):  # 0/0 and inf/inf, of statistics kept
        unit = err / big[..., None]
        mae = np.where(keep | np.isfinite(mae), mae, big * np.mean(np.abs(unit), axis=-1))
        rmse = np.where(keep | np.isfinite(rmse), rmse,
                        big * np.sqrt(np.mean(unit ** 2, axis=-1)))
    return mae[()], rmse[()]


@dataclass(frozen=True)
class CvConfig:
    """k-fold split recipe; deterministic given ``seed``."""

    folds: int = 10
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.folds < 2:
            raise RelfError(f"folds must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise RelfError(f"seed must be >= 0, got {self.seed!r}")


def kfold_split(n: int, config: CvConfig | None = None):
    """Disjoint (train, test) index pairs covering ``range(n)``.

    Fold sizes differ by at most one (the first ``n % folds`` test folds
    get the extra sample).
    """
    config = config or CvConfig()
    if config.folds > n:
        raise DataError(f"{config.folds} folds for {n} samples")
    order = np.random.default_rng(config.seed).permutation(n) if config.shuffle else np.arange(n)
    blocks = np.array_split(order, config.folds)
    return [(np.concatenate(blocks[:i] + blocks[i + 1:]), test) for i, test in enumerate(blocks)]


def derive_seed(*keys) -> int:
    """Deterministic 64-bit seed from integer keys (SeedSequence hash)."""
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1, np.uint64)[0])


# --- methods ----------------------------------------------------------------

@dataclass(frozen=True)
class RelfMethod:
    """Ensemble model as a benchmark method."""

    ensemble: EnsembleSpec
    config: SolverConfig = field(default_factory=SolverConfig)
    label: str = "relf"

    def fold_weights(self, stack: FoldStack) -> np.ndarray:
        """One ``w`` per system of ``stack``, (k, d), all fitted in one
        solver loop (:func:`fit_folds`)."""
        return np.stack([m.w for m in fit_folds(stack, self.ensemble, self.config)])


@dataclass(frozen=True)
class LeastSquaresMethod:
    """OLS / ridge baseline; ``ridge_alpha`` must be finite and >= 0."""

    ridge_alpha: float = 1e-8
    label: str = "ols"

    def __post_init__(self):
        if not np.isfinite(self.ridge_alpha) or self.ridge_alpha < 0:
            raise DataError(f"ridge_alpha must be >= 0, got {self.ridge_alpha!r}")

    def fold_weights(self, stack: FoldStack) -> np.ndarray:
        """One ``w`` per system of ``stack``, (k, d), by the jittered
        normal equations (``ridge_alpha`` 0 still gets the solve's 1e-12
        floor).  Each design's Gram ``X^T X`` is formed once, for every
        system on it; each system gets the bits of its lone solve.
        :class:`NonFiniteObjectiveError` if a Gram or ``X^T y`` overflows
        the float range."""
        period = len(stack.X)  # system i sits on design i % period
        A = np.empty((period, stack.d, stack.d))
        b = np.empty((stack.k, stack.d, 1))
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            for folds, designs, count in stack.runs:
                X = stack.X[designs, :count]
                if folds.start < period:  # the first pass over the designs
                    A[designs] = X.transpose(0, 2, 1) @ X
                b[folds] = X.transpose(0, 2, 1) @ stack.y[folds, :count, None]
            A = 0.5 * (A + A.transpose(0, 2, 1))
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise NonFiniteObjectiveError(
                "least-squares normal equations overflow the float range")
        A = A[np.arange(stack.k) % period]
        return linalg.solve_spd_with_jitter(A, b[..., 0], self.ridge_alpha)


def parse_method(text: str, solver_config: SolverConfig | None = None):
    """Parse a manifest/CLI method string.

    Grammar: ``ols`` | ``ridge:ALPHA`` | ``relf[:ENSEMBLE]`` |
    ``irls:KIND[:SCALE]`` where ENSEMBLE follows the ensemble grammar.
    ``irls`` is just the single-loss special case of the ensemble solver.
    """
    solver_config = solver_config or SolverConfig()
    text = text.strip()
    head, _, rest = text.partition(":")
    head = head.lower()
    if head == "ols":
        if rest:
            raise DataError(f"'ols' takes no argument, got {text!r}")
        return LeastSquaresMethod(label="ols")
    if head == "ridge":
        try:
            alpha = float(rest)
        except ValueError:
            raise DataError(f"bad ridge alpha in {text!r}") from None
        return LeastSquaresMethod(ridge_alpha=alpha, label=text)
    if head == "relf":
        ensemble = parse_ensemble(rest if rest else DEFAULT_ENSEMBLE_TEXT)
        return RelfMethod(ensemble=ensemble, config=solver_config, label=text)
    if head == "irls":
        if not rest:
            raise DataError(f"'irls' needs a loss, e.g. irls:huber:0.5")
        ensemble = parse_ensemble(rest)
        if ensemble.m != 1:
            raise DataError(f"'irls' takes exactly one loss, got {rest!r}")
        return RelfMethod(ensemble=ensemble, config=solver_config, label=text)
    raise DataError(f"unknown method {text!r}")


# --- cross-validation ---------------------------------------------------------

@dataclass
class CvResult:
    """Per-fold metrics for one method on one dataset, with their mean and
    std; a :class:`DataError` if one of those is not finite."""

    method: str
    fold_mae: np.ndarray
    fold_rmse: np.ndarray
    mean_mae: float = field(init=False)
    mean_rmse: float = field(init=False)
    std_mae: float = field(init=False)
    std_rmse: float = field(init=False)

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):
            stats = {"mean_mae": np.mean(self.fold_mae), "mean_rmse": np.mean(self.fold_rmse),
                     "std_mae": np.std(self.fold_mae), "std_rmse": np.std(self.fold_rmse)}
        for name, value in stats.items():
            if not np.isfinite(value):
                raise DataError(f"{name} of the test errors overflows the float range")
            setattr(self, name, float(value))


@dataclass(frozen=True)
class CvFolds:
    """One dataset's k-fold split as stacked designs, built by :func:`cv_folds`.

    Fold ``j`` of ``train`` and of ``test`` holds the training and the test
    rows of split ``j``.  Every method and contamination level reuses one
    ``CvFolds``: contamination changes only the training labels.
    """

    train: FoldStack
    test: FoldStack


def cv_folds(ds: Dataset, cv: CvConfig | None = None, *,
             scale_features: bool = True, intercept: bool = True) -> CvFolds:
    """Stack the folds of ``kfold_split(ds.n, cv)`` for :func:`cross_validate`.

    Each fold's design is written by a :class:`data.Preprocessing` fitted
    on that fold's training rows: its features min-max scaled by their
    ranges (if ``scale_features``), then the intercept column appended (if
    ``intercept``).  Folds shorter than the longest are padded with
    all-zero rows (see :class:`FoldStack`).  A stack takes
    ``k * rows * d * 8`` bytes: the training stack holds about ``k - 1``
    copies of the design, the test stack one.

    The ranges are read off ``ds`` in place, and each fold's rows are
    gathered and mapped straight into their place in the stack, a block at
    a time, so besides the two stacks and the split's index arrays only a
    block of rows is held at once.
    """
    splits = kfold_split(ds.n, cv or CvConfig())
    stacks = [_zero_stack(sets, ds.d + intercept) for sets in zip(*splits)]  # training, test
    for j, (train, test) in enumerate(splits):
        preprocessing = Preprocessing.fit(ds, scale_features, intercept, rows=train)
        for stack, ix in zip(stacks, (train, test)):
            preprocessing.write(ds, ix, out=stack.X[j, :len(ix)])
            stack.y[j, :len(ix)] = ds.y[ix]
    return CvFolds(*stacks)


def _zero_stack(index_sets, d: int) -> FoldStack:
    """An all-zero stack of ``d`` columns with one fold per index set, as
    long as the set."""
    counts = np.array([len(ix) for ix in index_sets])
    rows = int(counts.max())
    return FoldStack(np.zeros((len(counts), rows, d)), np.zeros((len(counts), rows)), counts)


def train_labels(folds: CvFolds, contamination: NoiseConfig | None = None,
                 seed_keys=()) -> np.ndarray:
    """The (k, rows) training labels of ``folds`` for :func:`cross_validate`:
    the clean ones, or, under ``contamination`` (mode ``"outlier"``), each
    fold's contaminated with a seed derived from ``(contamination.seed,
    *seed_keys, fold_index)``; :class:`DataError` if one overflows."""
    train = folds.train
    if contamination is None or contamination.outlier_fraction == 0:
        return train.y
    y = np.zeros_like(train.y)
    for j, m in enumerate(train.counts):
        noise = replace(contamination, seed=derive_seed(contamination.seed, *seed_keys, j))
        y[j, :m] = displace_labels(train.y[j, :m], noise)
    return y


def cross_validate(folds: CvFolds, method, labels=None) -> list[CvResult]:
    """k-fold evaluation of one method, one :class:`CvResult` per entry of
    ``labels``: (k, rows) training labels, one stack per contamination
    level (see :func:`train_labels`); by default the clean labels alone.

    Test folds are never touched, and the fold split is the same for every
    level, so clean/contaminated runs compare like for like.  The L levels
    are laid over the k fold designs as one :class:`FoldStack` of L*k
    systems, each level's labels in its own block, and fitted in one
    ``method.fold_weights`` call; every fold sums over its own rows, so
    each gives the fit of a lone level bit for bit.  :func:`fit_folds`
    orders the fit errors.
    """
    labels = [folds.train.y] if labels is None else list(labels)
    train, test = folds.train, folds.test
    stack = FoldStack(train.X, np.concatenate(labels), np.tile(train.counts, len(labels)))
    w = method.fold_weights(stack).reshape(len(labels), train.k, train.d)
    fold_mae, fold_rmse = np.empty(w.shape[:2]), np.empty(w.shape[:2])
    for run, designs, count in test.runs:  # the errors, mae and rmse of each fold's own rows
        err = test.y[run, :count] - (test.X[designs, :count] @ w[:, run, :, None])[..., 0]
        fold_mae[:, run], fold_rmse[:, run] = error_metrics(err)
    return [CvResult(method.label, a, r) for a, r in zip(fold_mae, fold_rmse)]


def increase_ratio(contaminated_mae: float, clean_mae: float) -> float:
    """``MAE_contaminated / MAE_clean``; the clean baseline must be > 0."""
    if clean_mae <= 0.0:
        raise DataError(f"clean MAE must be > 0, got {clean_mae!r}")
    return float(contaminated_mae) / float(clean_mae)


# --- benchmark harness --------------------------------------------------------

def _float_cell(value) -> str:
    return repr(float(value))


def _error_text(exc: Exception) -> str:
    """A failed cell's ``error``: the exception's class name and message."""
    return f"{type(exc).__name__}: {exc}"


@dataclass
class EvalReport:
    """Benchmark output: metric cells, increase ratios, convergence stats."""

    manifest: dict
    cells: list
    ratios: list
    convergence: list

    @property
    def ok(self) -> bool:
        return all(cell.get("error") is None for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "schema": "relf.report/1",
            "manifest": self.manifest,
            "cells": self.cells,
            "increase_ratios": self.ratios,
            "convergence": self.convergence,
            "ok": self.ok,
        }

    def csv_text(self) -> str:
        """Flat deterministic table (no wall-clock columns): byte-identical
        across reruns of the same manifest."""
        ratio_key = {(row["dataset"], row["method"], row["contamination"]): row["increase_ratio"]
                     for row in self.ratios}
        lines = ["dataset,method,contamination,status,mae,rmse,mae_std,rmse_std,increase_ratio"]
        for cell in self.cells:
            ratio = ratio_key.get((cell["dataset"], cell["method"], cell["contamination"]))
            tail = "failed,,,," if cell.get("error") is not None else ",".join(
                ["ok"] + [_float_cell(cell[k]) for k in ("mae", "rmse", "mae_std", "rmse_std")])
            lines.append(",".join([
                cell["dataset"], cell["method"], _float_cell(cell["contamination"]),
                tail, "" if ratio is None else _float_cell(ratio),
            ]))
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> tuple[Path, Path]:
        import json
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / "report.json"
        csv_path = out / "report.csv"
        with open(json_path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(csv_path, "w") as fh:
            fh.write(self.csv_text())
        return json_path, csv_path


@dataclass(frozen=True)
class _Manifest:
    """The top-level keys of a benchmark manifest: JSON types and defaults."""

    datasets: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    contamination_levels: list = field(default_factory=lambda: [0.0, 0.3])
    cv: dict = field(default_factory=dict)  # read as a CvConfig
    solver: dict = field(default_factory=dict)  # read as a SolverConfig
    outlier_magnitude: int | float = NoiseConfig.outlier_magnitude
    outlier_seed: int = NoiseConfig.seed
    scale_features: bool = True
    intercept: bool = True

    def __post_init__(self):
        if self.outlier_seed < 0:
            raise DataError(f"manifest 'outlier_seed' must be >= 0, got {self.outlier_seed!r}")


@dataclass(frozen=True)
class _ManifestCv(CvConfig):
    """The manifest's ``cv`` level: a :class:`CvConfig` whose value errors
    name the level, as a dataset entry's do."""

    def __post_init__(self):
        try:
            super().__post_init__()
        except RelfError as exc:
            raise DataError(f"manifest cv {exc}") from None


#: The keys a manifest dataset entry of each format takes, beside ``name``
#: and ``format``; it needs those whose default is None.
_FORMAT_KEYS = {"csv": ("path", "label_column", "has_header"), "libsvm": ("path",),
                "synthetic": ("noise_mode", "gaussian_std", "outlier_fraction",
                              "outlier_magnitude", "seed")}


@dataclass(frozen=True)
class _DatasetEntry:
    """A manifest ``datasets`` entry: the ``"csv"`` or ``"libsvm"`` file at
    ``path``, relative to the manifest, or the ``"synthetic"`` line, whose
    noise keys default to :class:`NoiseConfig`'s.  Each format takes its own
    keys (:data:`_FORMAT_KEYS`) and no other format's."""

    name: str
    format: str
    path: str | None = None
    label_column: int | str | None = None
    has_header: bool = True
    noise_mode: str = NOISE_GAUSSIAN
    gaussian_std: int | float = NoiseConfig.gaussian_std
    outlier_fraction: int | float = NoiseConfig.outlier_fraction
    outlier_magnitude: int | float = NoiseConfig.outlier_magnitude
    seed: int = NoiseConfig.seed

    @classmethod
    def read(cls, entry) -> "_DatasetEntry":
        """The manifest entry ``entry`` read over the defaults by
        :func:`data.json_dataclass`; a key that only another format takes
        is refused too."""
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise DataError("every dataset entry needs a 'name' string")
        where = f"manifest dataset {entry['name']!r}"
        defaults = {f.name: f.default for f in fields(cls)[2:]}  # all but name, format
        parsed = json_dataclass(cls, {**defaults, **entry}, where)
        other = sorted(set(entry) - {"name", "format", *_FORMAT_KEYS[parsed.format]})
        if other:
            raise DataError(f"{where} of format {parsed.format!r} takes no key {other[0]!r}")
        return parsed

    def __post_init__(self):
        if self.format not in _FORMAT_KEYS:
            raise DataError(f"unknown dataset format {self.format!r} for {self.name!r}")
        for key in _FORMAT_KEYS[self.format]:
            if getattr(self, key) is None:
                raise DataError(f"manifest dataset {self.name!r} lacks {key!r}")
        if self.seed < 0:
            raise DataError(f"manifest dataset {self.name!r} 'seed' must be >= 0, "
                            f"got {self.seed!r}")

    def load(self, base: Path) -> Dataset:
        if self.format == "csv":
            return load_csv(base / self.path, self.label_column, self.has_header)
        if self.format == "libsvm":
            return load_libsvm(base / self.path)
        return synth_line(NoiseConfig(self.noise_mode, self.gaussian_std, self.outlier_fraction,
                                      self.outlier_magnitude, self.seed))


def run_benchmark(manifest: dict, base_dir=None) -> EvalReport:
    """Run the full grid datasets x methods x contamination levels.

    Each level of ``manifest`` is read by :func:`data.json_dataclass` over
    its defaults: a schema error (an unknown key, a wrong type, a missing
    ``name``) stops the run before any cell.  Failures are then contained
    per dataset cell (recorded under ``error``); the rest of the grid still
    runs.  For each RELF-family method a full-data convergence report
    (final risk, iterations, decrease ratio) is produced on the clean
    dataset.
    """
    if not isinstance(manifest, dict):
        raise DataError("manifest must be a JSON object")
    top = json_dataclass(_Manifest, {**asdict(_Manifest()), **manifest}, "manifest")
    entries = [_DatasetEntry.read(entry) for entry in top.datasets]
    for method in top.methods:
        if not isinstance(method, str):
            raise DataError(f"manifest methods must be strings, got {method!r}")
    for level in top.contamination_levels:
        if not (_conforms(level, float) and 0.0 <= level <= 1.0):
            raise DataError(f"contamination level {level!r} is not a number in [0, 1]")
    base = Path(base_dir) if base_dir is not None else Path(".")
    cv = json_dataclass(_ManifestCv, {**asdict(CvConfig()), **top.cv}, "manifest cv")
    solver_config = json_dataclass(SolverConfig, {**asdict(SolverConfig()), **top.solver},
                                   "manifest solver")
    levels = [float(v) for v in top.contamination_levels]
    methods = [parse_method(s, solver_config) for s in top.methods]
    # cells are looked up by (dataset, method, level), so each must be unique
    for what, keys in (("dataset", [entry.name for entry in entries]),
                       ("method", [method.label for method in methods]),
                       ("contamination level", levels)):
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise DataError(f"manifest lists {what} {key!r} twice")

    cells, ratios, convergence = [], [], []
    for ds_idx, entry in enumerate(entries):
        ds = folds = None
        try:  # keep the rest of the grid alive
            ds = entry.load(base)
            folds = cv_folds(ds, cv, scale_features=top.scale_features, intercept=top.intercept)
            load_error = None
        except Exception as exc:
            load_error = _error_text(exc)
        # each level's training labels (or draw error), shared by every method
        labels = []
        for lvl_idx, level in enumerate(levels if methods and load_error is None else ()):
            contamination = None if level == 0 else NoiseConfig(
                mode=NOISE_OUTLIER, outlier_fraction=level,
                outlier_magnitude=top.outlier_magnitude, seed=top.outlier_seed)
            try:
                labels.append(train_labels(folds, contamination, (ds_idx, lvl_idx)))
            except Exception as exc:
                labels.append({"error": _error_text(exc)})
        drawn = [y for y in labels if not isinstance(y, dict)]
        for method in methods:
            if ds is not None and isinstance(method, RelfMethod):
                convergence.append(
                    _convergence_report(ds, method, entry.name, top.scale_features, top.intercept))
            results = iter(_cv_cells(folds, method, drawn) if drawn else ())
            for lvl_idx, level in enumerate(levels):
                cell = {"dataset": entry.name, "method": method.label,
                        "contamination": level, "error": load_error}
                if load_error is None:
                    y = labels[lvl_idx]
                    cell.update(y if isinstance(y, dict) else next(results))
                cells.append(cell)

    by_key = {(c["dataset"], c["method"], c["contamination"]): c for c in cells}
    for cell in cells:
        level = cell["contamination"]
        if level == 0 or cell.get("error") is not None:
            continue
        clean = by_key.get((cell["dataset"], cell["method"], 0.0))
        if clean is None or clean.get("error") is not None or clean["mae"] <= 0.0:
            continue
        ratio = increase_ratio(cell["mae"], clean["mae"])
        if np.isinf(ratio):  # the quotient overflows the float range
            continue
        ratios.append({
            "dataset": cell["dataset"], "method": cell["method"],
            "contamination": level, "increase_ratio": ratio,
        })

    return EvalReport(manifest=manifest, cells=cells, ratios=ratios,
                      convergence=convergence)


def _cv_cells(folds: CvFolds, method, labels) -> list[dict]:
    """The cell fields of each level's :func:`cross_validate` result: all
    levels in one call, whose time is shared out evenly, or, if it raises,
    one level at a time, so that a failing cell names its own error."""
    t0 = time.perf_counter()
    try:
        results = cross_validate(folds, method, labels)
    except Exception as exc:
        if len(labels) > 1:
            return [cell for y in labels for cell in _cv_cells(folds, method, [y])]
        return [{"error": _error_text(exc)}]
    seconds = (time.perf_counter() - t0) / len(labels)
    return [dict(mae=res.mean_mae, rmse=res.mean_rmse, mae_std=res.std_mae,
                 rmse_std=res.std_rmse, fold_mae=res.fold_mae.tolist(),
                 fold_rmse=res.fold_rmse.tolist(), seconds=seconds)
            for res in results]


def _convergence_report(ds: Dataset, method: RelfMethod, name: str,
                        scale_features: bool, intercept: bool) -> dict:
    report = {"dataset": name, "method": method.label}
    try:
        work = Preprocessing.fit(ds, scale_features, intercept).apply(ds)
        t0 = time.perf_counter()
        model = fit(work, method.ensemble, method.config)
        seconds = time.perf_counter() - t0
        trace = model.trace
        report.update(
            final_risk=float(trace.risks[-1]), iterations=trace.iterations,
            converged=trace.converged, decrease_ratio=decrease_ratio(trace), seconds=seconds,
            error=None)
    except Exception as exc:
        report["error"] = _error_text(exc)
    return report
