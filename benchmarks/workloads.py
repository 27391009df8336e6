"""The three benchmark workloads: input generation, one op, and its checks.

Each workload class has four parts:

* ``generate(out_dir)`` builds the inputs from the seed (timed as set-up);
* ``reference(inputs)`` computes, with numpy alone, what the checks compare
  against (untimed, once per run);
* ``op(inputs)`` is one closed-loop operation through relf's public API;
* ``check(ref, answer)`` raises :class:`CheckError` on a wrong answer and
  returns the op's held-out MAE ratio.

The checks never call relf: they recompute from the generated inputs, the
files relf wrote and the loss formulas of the README.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import relf
import relf.cli

NOISE_STD = 0.3  # label noise on clean rows, in label units


class CheckError(Exception):
    """An op returned an answer that fails a check."""


class OpFailed(Exception):
    """An op did not complete (non-zero CLI exit code)."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _cli(argv) -> str:
    """Run ``relf.cli.main`` with stdout captured; non-zero exit fails the op."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = relf.cli.main(argv)
    if code != 0:
        raise OpFailed(f"relf {argv[0]} exited with {code}")
    return buf.getvalue()


def _displace(rng, y: np.ndarray, fraction: float) -> np.ndarray:
    """Label outliers: ``round(fraction * n)`` rows move by
    ``sign * U(5, 15) * std(y)``, sign uniform on {-1, +1}."""
    k = int(round(fraction * y.size))
    idx = rng.choice(y.size, size=k, replace=False)
    y = y.copy()
    y[idx] += rng.choice([-1.0, 1.0], size=k) * rng.uniform(5.0, 15.0, size=k) * y.std()
    return y


def pooled_risk(e: np.ndarray) -> float:
    """``welsch + l1l2 + huber`` (all at scale 1), summed over residuals."""
    a = np.abs(e)
    welsch = 1.0 - np.exp(-e * e)
    l1l2 = np.sqrt(1.0 + e * e) - 1.0
    huber = np.where(a < 2.0, e * e / 4.0, a - 1.0)
    return float(welsch.sum() + l1l2.sum() + huber.sum())


def minmax(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Map columns onto [-1, 1] by training min/max; constant columns -> 0."""
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, -1.0 + 2.0 * (X - lo) / safe, 0.0)


def with_ones(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


# --- fit-tall -------------------------------------------------------------------

@dataclass
class FitTall:
    """One in-memory fit of a tall design with 20% label outliers."""

    seed: int
    n: int = 400_000
    d: int = 32  # the last column is the intercept
    n_holdout: int = 20_000

    name = "fit-tall"
    ensemble_text = "welsch,l1l2,huber"
    outlier_fraction = 0.2
    w_tol = 0.02  # max |w - w_true| allowed under the outliers

    def _rows(self, rng, n, w_true):
        X = rng.standard_normal((n, self.d))
        X[:, -1] = 1.0
        return X, X @ w_true + rng.normal(0.0, NOISE_STD, size=n)

    def generate(self, out_dir: Path) -> dict:
        rng = np.random.default_rng([self.seed, 1])
        w_true = rng.standard_normal(self.d)
        X, y = self._rows(rng, self.n, w_true)
        y = _displace(rng, y, self.outlier_fraction)
        X_hold, y_hold = self._rows(rng, self.n_holdout, w_true)
        return {"ds": relf.Dataset(X, y), "X": X, "y": y, "w_true": w_true,
                "X_hold": X_hold, "y_hold": y_hold}

    def reference(self, inputs: dict) -> dict:
        X_hold, y_hold = inputs["X_hold"], inputs["y_hold"]
        return {**inputs,
                "true_mae": float(np.mean(np.abs(y_hold - X_hold @ inputs["w_true"])))}

    def op(self, inputs: dict) -> dict:
        model = relf.fit(inputs["ds"], relf.parse_ensemble(self.ensemble_text))
        return {"w": model.w, "lam": model.loss_weights,
                "risks": model.trace.risks}

    def check(self, ref: dict, answer: dict) -> float:
        w, lam, risks = answer["w"], answer["lam"], answer["risks"]
        err = float(np.max(np.abs(w - ref["w_true"])))
        _require(err <= self.w_tol, f"max |w - w_true| = {err:.3g} > {self.w_tol}")
        _require(lam.shape == (3,) and np.all(lam >= 0.0)
                 and abs(float(lam.sum()) - 1.0) <= 1e-12,
                 f"ensemble weights {lam} are not on the simplex")
        _require(np.all(risks[1:] <= risks[:-1] * (1.0 + 1e-10)),
                 f"risk trace increases: {risks}")
        risk = pooled_risk(ref["y"] - ref["X"] @ w)
        _require(abs(risk - risks[-1]) <= 1e-9 * abs(risk),
                 f"final risk {float(risks[-1])!r} != recomputed {risk!r}")
        mae = float(np.mean(np.abs(ref["y_hold"] - ref["X_hold"] @ w)))
        return mae / ref["true_mae"]


# --- csv-fit-predict ------------------------------------------------------------

@dataclass
class CsvFitPredict:
    """``relf fit --scale`` on a train CSV, then ``relf predict`` on a
    held-out CSV: the file path from data to model to predictions."""

    seed: int
    n: int = 50_000
    d: int = 40

    name = "csv-fit-predict"
    outlier_fraction = 0.1
    max_mae_ratio = 1.1  # held-out MAE over the generating coefficients' MAE

    def _write(self, rng, path, m, lo, span, w_true, b_true, outliers):
        X = lo + rng.uniform(0.0, 1.0, size=(m, self.d)) * span
        y = X @ w_true + b_true + rng.normal(0.0, NOISE_STD, size=m)
        if outliers:
            y = _displace(rng, y, self.outlier_fraction)
        header = ",".join([f"x{j}" for j in range(self.d)] + ["y"])
        np.savetxt(path, np.column_stack([X, y]), fmt="%.6f", delimiter=",",
                   header=header, comments="")

    def generate(self, out_dir: Path) -> dict:
        # column ranges do not depend on the seed, so neither do the file
        # sizes and the parse cost; the values and coefficients do
        fixed = np.random.default_rng(2)
        lo = fixed.uniform(-50.0, 50.0, size=self.d)
        span = fixed.uniform(0.5, 100.0, size=self.d)
        rng = np.random.default_rng([self.seed, 2])
        w_true = 2.0 * rng.standard_normal(self.d) / span  # O(1) label effect per column
        b_true = float(rng.standard_normal())
        paths = {k: out_dir / f"{k}.csv" for k in ("train", "test")}
        self._write(rng, paths["train"], self.n, lo, span, w_true, b_true, True)
        self._write(rng, paths["test"], self.n, lo, span, w_true, b_true, False)
        return {"train": paths["train"], "test": paths["test"],
                "model": out_dir / "model.json", "preds": out_dir / "predictions.csv",
                "w_true": w_true, "b_true": b_true}

    def reference(self, inputs: dict) -> dict:
        train = np.loadtxt(inputs["train"], delimiter=",", skiprows=1)
        test = np.loadtxt(inputs["test"], delimiter=",", skiprows=1)
        X, y = test[:, :-1], test[:, -1]
        true_mae = float(np.mean(np.abs(y - X @ inputs["w_true"] - inputs["b_true"])))
        return {"train_min": train[:, :-1].min(axis=0),
                "train_max": train[:, :-1].max(axis=0),
                "X": X, "y": y, "true_mae": true_mae}

    def op(self, inputs: dict) -> dict:
        model, preds = str(inputs["model"]), str(inputs["preds"])
        _cli(["fit", "--data", str(inputs["train"]), "--label-column", "y",
              "--scale", "--output", model])
        out = _cli(["predict", "--model", model, "--data", str(inputs["test"]),
                    "--label-column", "y", "--output", preds])
        return {"model": model, "preds": preds, "stdout": out}

    def check(self, ref: dict, answer: dict) -> float:
        with open(answer["model"]) as fh:
            payload = json.load(fh)
        with open(answer["preds"]) as fh:
            header = fh.readline().strip()
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        pre = payload["preprocessing"]
        _require(pre["intercept"] is True, "model lacks the intercept")
        lo = np.asarray(pre["scaler"]["feature_min"])
        hi = np.asarray(pre["scaler"]["feature_max"])
        _require(np.array_equal(lo, ref["train_min"]) and np.array_equal(hi, ref["train_max"]),
                 "scaler ranges differ from the training columns' min/max")
        yhat = with_ones(minmax(ref["X"], lo, hi)) @ np.asarray(payload["w"])
        _require(header == "prediction,label", f"predictions header is {header!r}")
        _require(table.shape == (ref["y"].size, 2), f"predictions shape {table.shape}")
        _require(np.all(np.abs(table[:, 0] - yhat) <= 1e-9 * (1.0 + np.abs(yhat))),
                 "predictions differ from X_test @ w recomputed from the model JSON")
        _require(np.array_equal(table[:, 1], ref["y"]), "label column differs from the file")
        mae = float(np.mean(np.abs(ref["y"] - yhat)))
        found = re.search(r"^mae: (\S+)$", answer["stdout"], re.MULTILINE)
        _require(found is not None, "predict printed no mae")
        _require(abs(float(found.group(1)) - mae) <= 1e-6,
                 f"printed mae {found.group(1)} != recomputed {mae:.6f}")
        ratio = mae / ref["true_mae"]
        _require(ratio <= self.max_mae_ratio,
                 f"held-out MAE ratio {ratio:.4f} > {self.max_mae_ratio}")
        return ratio


# --- cv-grid --------------------------------------------------------------------

# (rows, features, format): fixed shapes; only the values depend on the seed
CV_SHAPES = (
    (200, 5, "csv"), (300, 7, "libsvm"), (400, 9, "csv"), (500, 11, "libsvm"),
    (600, 13, "csv"), (800, 6, "libsvm"), (1000, 8, "csv"), (250, 10, "libsvm"),
    (350, 12, "csv"), (450, 5, "libsvm"), (700, 9, "csv"), (900, 13, "libsvm"),
)
CV_METHODS = ("relf:welsch,l1l2,huber", "irls:huber:0.5", "ridge:1e-2", "ols")
CV_LEVELS = (0.0, 0.1, 0.3)
CV_FOLDS = 10


@dataclass
class CvGrid:
    """``relf bench`` on a manifest of small CSV and libsvm datasets:
    4 methods x 3 contamination levels x 10 folds, hundreds of tiny fits."""

    seed: int
    shapes: tuple = CV_SHAPES

    name = "cv-grid"
    relf_method = CV_METHODS[0]

    def _dataset(self, i, n, d, fmt, out_dir):
        fixed = np.random.default_rng([3, i])  # column ranges, as in CsvFitPredict
        rng = np.random.default_rng([self.seed, 3, i])
        if fmt == "csv":
            lo = fixed.uniform(-10.0, 10.0, size=d)
            span = fixed.uniform(1.0, 20.0, size=d)
            X = lo + rng.uniform(0.0, 1.0, size=(n, d)) * span
        else:  # sparse: each entry nonzero with probability 0.6, row 0 dense
            span = np.full(d, 10.0)
            X = rng.uniform(0.5, 10.0, size=(n, d)) * (rng.uniform(size=(n, d)) < 0.6)
            X[0] = rng.uniform(0.5, 10.0, size=d)
        w_true = 2.0 * rng.standard_normal(d) / span
        b_true = float(rng.standard_normal())
        # round so that the repr written to the file parses back bit for bit
        X = np.round(X, 6)
        y = np.round(X @ w_true + b_true + rng.normal(0.0, NOISE_STD, size=n), 6)
        name = f"d{i:02d}_{fmt}"
        if fmt == "csv":
            path = out_dir / f"{name}.csv"
            with open(path, "w") as fh:
                fh.write(",".join([f"x{j}" for j in range(d)] + ["y"]) + "\n")
                for row, label in zip(X.tolist(), y.tolist()):
                    fh.write(",".join(map(repr, row + [label])) + "\n")
            entry = {"name": name, "format": "csv", "path": path.name, "label_column": "y"}
        else:
            path = out_dir / f"{name}.svm"
            with open(path, "w") as fh:
                for row, label in zip(X.tolist(), y.tolist()):
                    cells = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row) if v != 0.0)
                    fh.write(f"{label!r} {cells}\n")
            entry = {"name": name, "format": "libsvm", "path": path.name}
        return entry, {"X": X, "y": y, "w_true": w_true, "b_true": b_true}

    def generate(self, out_dir: Path) -> dict:
        entries, data = [], {}
        for i, (n, d, fmt) in enumerate(self.shapes):
            entry, arrays = self._dataset(i, n, d, fmt, out_dir)
            entries.append(entry)
            data[entry["name"]] = arrays
        manifest = {
            "cv": {"folds": CV_FOLDS, "seed": self.seed},
            "solver": {},
            "contamination_levels": list(CV_LEVELS),
            "outlier_magnitude": 5.0,
            "outlier_seed": self.seed,
            "scale_features": True,
            "intercept": True,
            "datasets": entries,
            "methods": list(CV_METHODS),
        }
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        return {"manifest": path, "report_dir": out_dir / "report", "data": data}

    def reference(self, inputs: dict) -> dict:
        """Clean OLS cells and the generating coefficients' MAE, per dataset,
        on a seeded permutation split into near-equal blocks."""
        ref = {"ols": {}, "true_mae": {}, "csv": None}
        for name, a in inputs["data"].items():
            X, y = a["X"], a["y"]
            blocks = np.array_split(np.random.default_rng(self.seed).permutation(y.size),
                                    CV_FOLDS)
            maes, rmses, true_maes = [], [], []
            for k, test in enumerate(blocks):
                train = np.concatenate([b for j, b in enumerate(blocks) if j != k])
                lo, hi = X[train].min(axis=0), X[train].max(axis=0)
                A = with_ones(minmax(X[train], lo, hi))
                w, *_ = np.linalg.lstsq(A, y[train], rcond=None)
                resid = y[test] - with_ones(minmax(X[test], lo, hi)) @ w
                maes.append(np.mean(np.abs(resid)))
                rmses.append(np.sqrt(np.mean(resid ** 2)))
                true_maes.append(np.mean(np.abs(y[test] - X[test] @ a["w_true"] - a["b_true"])))
            ref["ols"][name] = (float(np.mean(maes)), float(np.mean(rmses)))
            ref["true_mae"][name] = float(np.mean(true_maes))
        return ref

    def op(self, inputs: dict) -> dict:
        out_dir = inputs["report_dir"]
        _cli(["bench", "--manifest", str(inputs["manifest"]), "--output-dir", str(out_dir)])
        return {"report_dir": out_dir}

    def check(self, ref: dict, answer: dict) -> float:
        with open(answer["report_dir"] / "report.json") as fh:
            report = json.load(fh)
        csv_bytes = (answer["report_dir"] / "report.csv").read_bytes()
        cells = {(c["dataset"], c["method"], c["contamination"]): c for c in report["cells"]}
        _require(len(report["cells"]) == len(self.shapes) * len(CV_METHODS) * len(CV_LEVELS),
                 f"report holds {len(report['cells'])} cells")
        bad = [k for k, c in cells.items() if c.get("error") is not None]
        _require(report["ok"] is True and not bad, f"failed cells: {bad}")
        if ref["csv"] is None:
            ref["csv"] = csv_bytes
        _require(csv_bytes == ref["csv"], "report.csv differs from the run's first op")
        ratios = {(r["dataset"], r["method"]): r["increase_ratio"]
                  for r in report["increase_ratios"] if r["contamination"] == CV_LEVELS[-1]}
        mae_ratios = []
        for name, (mae, rmse) in ref["ols"].items():
            cell = cells[(name, "ols", 0.0)]
            for got, want, label in ((cell["mae"], mae, "mae"), (cell["rmse"], rmse, "rmse")):
                _require(abs(got - want) <= 1e-8 * abs(want),
                         f"{name} clean ols {label} {got!r} != recomputed {want!r}")
            robust, ols = ratios[(name, self.relf_method)], ratios[(name, "ols")]
            _require(robust <= ols, f"{name}: relf increase ratio {robust:.4f} > ols {ols:.4f}")
            relf_mae = cells[(name, self.relf_method, CV_LEVELS[-1])]["mae"]
            mae_ratios.append(relf_mae / ref["true_mae"][name])
        return float(np.mean(mae_ratios))


WORKLOADS = {cls.name: cls for cls in (FitTall, CsvFitPredict, CvGrid)}
