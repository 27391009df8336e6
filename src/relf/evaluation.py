"""Metrics, cross-validation protocol, baselines, and the benchmark harness.

The contamination protocol mirrors the robustness experiments: k-fold CV
with identical splits for the clean and contaminated runs, outliers
injected into *training* folds only (test labels stay clean so the metric
itself is not corrupted), features min-max scaled to [-1, 1] using
training-fold statistics, and an intercept column appended after scaling.
Robustness is summarized by the increase ratio ``MAE_contaminated /
MAE_clean``: the closer to 1, the less the method cares about outliers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    NoiseConfig,
    NOISE_GAUSSIAN,
    NOISE_OUTLIER,
    add_intercept,
    apply_scaler,
    fit_scaler,
    inject_outliers,
    load_csv,
    load_libsvm,
    synth_line,
    with_seed,
)
from .exceptions import (
    DataError,
    DimensionMismatchError,
    EmptyInputError,
    RelfError,
    TooManyFoldsError,
    ZeroCleanBaselineError,
)
from .losses import DEFAULT_ENSEMBLE_TEXT, EnsembleSpec, parse_ensemble
from .solver import RelfModel, SolverConfig, decrease_ratio, fit
from . import linalg


def _metric_args(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.ndim != 1 or y_pred.ndim != 1:
        raise DimensionMismatchError("metric inputs must be 1-D")
    if y_true.shape != y_pred.shape:
        raise DimensionMismatchError(
            f"length mismatch: {y_true.shape[0]} vs {y_pred.shape[0]}")
    if y_true.shape[0] == 0:
        raise EmptyInputError("metric inputs are empty")
    return y_true, y_pred


def mae(y_true, y_pred) -> float:
    """Mean absolute error ``(1/n) sum |y_i - yhat_i|``."""
    y_true, y_pred = _metric_args(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))


def rmse(y_true, y_pred) -> float:
    """Root mean squared error ``sqrt((1/n) sum (y_i - yhat_i)^2)``."""
    y_true, y_pred = _metric_args(y_true, y_pred)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


@dataclass(frozen=True)
class CvConfig:
    """k-fold split recipe; deterministic given ``seed``."""

    folds: int = 10
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.folds < 2:
            raise RelfError(f"folds must be >= 2, got {self.folds}")


def kfold_split(n: int, config: CvConfig | None = None):
    """Disjoint (train, test) index pairs covering ``range(n)``.

    Fold sizes differ by at most one (the first ``n % folds`` test folds
    get the extra sample).
    """
    config = config or CvConfig()
    if config.folds > n:
        raise TooManyFoldsError(f"{config.folds} folds for {n} samples")
    if config.shuffle:
        order = np.random.default_rng(config.seed).permutation(n)
    else:
        order = np.arange(n)
    blocks = np.array_split(order, config.folds)
    out = []
    for i, test in enumerate(blocks):
        train = np.concatenate([b for j, b in enumerate(blocks) if j != i])
        out.append((train, test))
    return out


def derive_seed(*keys) -> int:
    """Deterministic 64-bit seed from integer keys (SeedSequence hash)."""
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1, np.uint64)[0])


# --- methods ----------------------------------------------------------------

def ols_fit(ds: Dataset, ridge_alpha: float = 0.0) -> np.ndarray:
    """Least squares via the normal equations, with optional ridge term.

    ``ridge_alpha`` is passed straight to the jittered SPD solve, so 0
    still gets the 1e-12 stability floor; large values shrink ``w`` to 0.
    """
    A = ds.X.T @ ds.X
    A = 0.5 * (A + A.T)
    b = ds.X.T @ ds.y
    return linalg.solve_spd_with_jitter(A, b, ridge_alpha)


@dataclass(frozen=True)
class RelfMethod:
    """Ensemble model as a benchmark method."""

    ensemble: EnsembleSpec
    config: SolverConfig = field(default_factory=SolverConfig)
    label: str = "relf"

    def fit_weights(self, ds: Dataset) -> tuple[np.ndarray, RelfModel]:
        model = fit(ds, self.ensemble, self.config)
        return model.w, model


@dataclass(frozen=True)
class LeastSquaresMethod:
    """OLS / ridge baseline."""

    ridge_alpha: float = 1e-8
    label: str = "ols"

    def fit_weights(self, ds: Dataset) -> tuple[np.ndarray, None]:
        return ols_fit(ds, self.ridge_alpha), None


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
    """Per-fold metrics for one method on one dataset."""

    method: str
    fold_mae: np.ndarray
    fold_rmse: np.ndarray

    @property
    def mean_mae(self) -> float:
        return float(np.mean(self.fold_mae))

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.fold_rmse))

    @property
    def std_mae(self) -> float:
        return float(np.std(self.fold_mae))

    @property
    def std_rmse(self) -> float:
        return float(np.std(self.fold_rmse))


def cross_validate(ds: Dataset, method, cv: CvConfig | None = None, *,
                   contamination: NoiseConfig | None = None,
                   scale_features: bool = True, scale_labels: bool = False,
                   intercept: bool = True, seed_keys=()) -> CvResult:
    """k-fold evaluation of one method under the contamination protocol.

    If ``contamination`` is given (mode ``"outlier"``), training folds are
    contaminated with a per-fold seed derived from ``(contamination.seed,
    *seed_keys, fold_index)``; test folds are never touched, and the fold
    split itself is independent of contamination, so clean/contaminated
    runs compare like for like.
    """
    cv = cv or CvConfig()
    fold_mae, fold_rmse = [], []
    for fold_idx, (tr, te) in enumerate(kfold_split(ds.n, cv)):
        train, test = ds.take(tr), ds.take(te)
        if contamination is not None and contamination.outlier_fraction > 0:
            noise = with_seed(contamination,
                              derive_seed(contamination.seed, *seed_keys, fold_idx))
            train = inject_outliers(train, noise)
        if scale_features or scale_labels:
            state = fit_scaler(train, scale_labels=scale_labels)
            train, test = apply_scaler(train, state), apply_scaler(test, state)
        if intercept:
            train, test = add_intercept(train), add_intercept(test)
        w, _ = method.fit_weights(train)
        pred = test.X @ w
        fold_mae.append(mae(test.y, pred))
        fold_rmse.append(rmse(test.y, pred))
    return CvResult(method=method.label, fold_mae=np.asarray(fold_mae),
                    fold_rmse=np.asarray(fold_rmse))


def increase_ratio(contaminated_mae: float, clean_mae: float) -> float:
    """``MAE_contaminated / MAE_clean``; the clean baseline must be > 0."""
    if clean_mae <= 0.0:
        raise ZeroCleanBaselineError(
            f"clean MAE must be > 0, got {clean_mae!r}")
    return float(contaminated_mae) / float(clean_mae)


# --- benchmark harness --------------------------------------------------------

def _float_cell(value) -> str:
    return repr(float(value))


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
        ratio_key = {}
        for row in self.ratios:
            ratio_key[(row["dataset"], row["method"], row["contamination"])] = \
                row["increase_ratio"]
        lines = ["dataset,method,contamination,status,mae,rmse,mae_std,rmse_std,increase_ratio"]
        for cell in self.cells:
            key = (cell["dataset"], cell["method"], cell["contamination"])
            ratio = ratio_key.get(key)
            if cell.get("error") is not None:
                tail = "failed,,,,"
            else:
                tail = ",".join([
                    "ok",
                    _float_cell(cell["mae"]),
                    _float_cell(cell["rmse"]),
                    _float_cell(cell["mae_std"]),
                    _float_cell(cell["rmse_std"]),
                ])
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


def _load_manifest_dataset(entry: dict, base: Path) -> Dataset:
    fmt = entry.get("format")
    if fmt == "synthetic":
        mode = entry.get("noise_mode", NOISE_GAUSSIAN)
        noise = NoiseConfig(
            mode=mode,
            gaussian_std=entry.get("gaussian_std", 1.0),
            outlier_fraction=entry.get("outlier_fraction", 0.3),
            outlier_magnitude=entry.get("outlier_magnitude", 5.0),
            seed=entry.get("seed", 0),
        )
        return synth_line(noise)
    if fmt == "csv":
        return load_csv(base / entry["path"], entry["label_column"],
                        has_header=entry.get("has_header", True))
    if fmt == "libsvm":
        return load_libsvm(base / entry["path"])
    raise DataError(f"unknown dataset format {fmt!r} for {entry.get('name')!r}")


# manifest keys whose value the harness reads outside a per-cell guard
_MANIFEST_TYPES = {
    "datasets": (list, "a list"),
    "methods": (list, "a list"),
    "contamination_levels": (list, "a list"),
    "cv": (dict, "an object"),
    "solver": (dict, "an object"),
    "outlier_magnitude": ((int, float), "a number"),
    "outlier_seed": (int, "an integer"),
}


def _validate_manifest(manifest: dict) -> None:
    if not isinstance(manifest, dict):
        raise DataError("manifest must be a JSON object")
    for key, (kind, what) in _MANIFEST_TYPES.items():
        if key in manifest and not isinstance(manifest[key], kind):
            raise DataError(f"manifest {key!r} must be {what}")
    for key in ("folds", "seed"):
        if not isinstance(manifest.get("cv", {}).get(key, 0), int):
            raise DataError(f"manifest cv {key!r} must be an integer")
    for entry in manifest.get("datasets", []):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise DataError("every dataset entry needs a 'name' string")
    for method in manifest.get("methods", []):
        if not isinstance(method, str):
            raise DataError(f"manifest methods must be strings, got {method!r}")
    for level in manifest.get("contamination_levels", []):
        if not (isinstance(level, (int, float)) and 0.0 <= level <= 1.0):
            raise DataError(f"contamination level {level!r} is not a number in [0, 1]")


def run_benchmark(manifest: dict, base_dir=None) -> EvalReport:
    """Run the full grid datasets x methods x contamination levels.

    Failures are contained per dataset cell (recorded under ``error``);
    the rest of the grid still runs.  For each RELF-family method a
    full-data convergence report (final risk, iterations, decrease ratio)
    is produced on the clean dataset.
    """
    _validate_manifest(manifest)
    base = Path(base_dir) if base_dir is not None else Path(".")
    cv_spec = manifest.get("cv", {})
    cv = CvConfig(folds=cv_spec.get("folds", 10), seed=cv_spec.get("seed", 0),
                  shuffle=cv_spec.get("shuffle", True))
    sv = manifest.get("solver", {})
    solver_config = SolverConfig(
        alpha=sv.get("alpha", 1e-8), max_iters=sv.get("max_iters", 30),
        rel_tol=sv.get("rel_tol", 1e-8), init=sv.get("init", "zeros"),
        init_seed=sv.get("init_seed", 0), init_std=sv.get("init_std", 1.0))
    levels = [float(v) for v in manifest.get("contamination_levels", [0.0, 0.3])]
    magnitude = manifest.get("outlier_magnitude", 5.0)
    outlier_seed = manifest.get("outlier_seed", 0)
    scale_features = manifest.get("scale_features", True)
    intercept = manifest.get("intercept", True)
    methods = [parse_method(s, solver_config) for s in manifest.get("methods", [])]

    cells, ratios, convergence = [], [], []
    for ds_idx, entry in enumerate(manifest.get("datasets", [])):
        name = entry["name"]
        try:
            ds = _load_manifest_dataset(entry, base)
            load_error = None
        except Exception as exc:  # keep the rest of the grid alive
            ds, load_error = None, f"{type(exc).__name__}: {exc}"
        for method in methods:
            if ds is not None and isinstance(method, RelfMethod):
                convergence.append(
                    _convergence_report(ds, method, name, scale_features, intercept))
            for lvl_idx, level in enumerate(levels):
                cell = {
                    "dataset": name, "method": method.label,
                    "contamination": level, "error": load_error,
                }
                if load_error is None:
                    contamination = None if level == 0 else NoiseConfig(
                        mode=NOISE_OUTLIER, outlier_fraction=level,
                        outlier_magnitude=magnitude, seed=outlier_seed)
                    t0 = time.perf_counter()
                    try:
                        res = cross_validate(
                            ds, method, cv, contamination=contamination,
                            scale_features=scale_features, intercept=intercept,
                            seed_keys=(ds_idx, lvl_idx))
                        cell.update(
                            mae=res.mean_mae, rmse=res.mean_rmse,
                            mae_std=res.std_mae, rmse_std=res.std_rmse,
                            fold_mae=[float(v) for v in res.fold_mae],
                            fold_rmse=[float(v) for v in res.fold_rmse],
                            seconds=time.perf_counter() - t0)
                    except Exception as exc:
                        cell["error"] = f"{type(exc).__name__}: {exc}"
                cells.append(cell)

    by_key = {(c["dataset"], c["method"], c["contamination"]): c for c in cells}
    for cell in cells:
        level = cell["contamination"]
        if level == 0 or cell.get("error") is not None:
            continue
        clean = by_key.get((cell["dataset"], cell["method"], 0.0))
        if clean is None or clean.get("error") is not None:
            continue
        try:
            ratio = increase_ratio(cell["mae"], clean["mae"])
        except ZeroCleanBaselineError:
            continue
        ratios.append({
            "dataset": cell["dataset"], "method": cell["method"],
            "contamination": level, "increase_ratio": ratio,
        })

    return EvalReport(manifest=manifest, cells=cells, ratios=ratios,
                      convergence=convergence)


def _convergence_report(ds: Dataset, method: RelfMethod, name: str,
                        scale_features: bool, intercept: bool) -> dict:
    report = {"dataset": name, "method": method.label}
    try:
        work = ds
        if scale_features:
            work = apply_scaler(work, fit_scaler(work))
        if intercept:
            work = add_intercept(work)
        t0 = time.perf_counter()
        model = fit(work, method.ensemble, method.config)
        seconds = time.perf_counter() - t0
        trace = model.trace
        try:
            ratio = decrease_ratio(trace)
        except ValueError:
            ratio = None
        report.update(
            final_risk=float(trace.risks[-1]), iterations=trace.iterations,
            converged=trace.converged, decrease_ratio=ratio, seconds=seconds,
            error=None)
    except Exception as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
    return report
