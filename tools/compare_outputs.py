"""Compare what two relf checkouts print and write, output by output.

    python tools/compare_outputs.py OLD NEW [--tall-rows N] [--csv-rows N] [--keep DIR]

``OLD`` and ``NEW`` are the roots of two relf checkouts.  The same calls run
against each one's ``src/``, every call in a fresh interpreter with one BLAS
thread, on inputs generated once here from fixed seeds:

* ``relf toy`` (gaussian and outlier noise), ``relf fit --scale`` and
  ``relf predict`` on a generated CSV pair and on the same pair with the
  label as a middle column, a label-free ``relf predict`` on the test
  features alone, ``relf fit`` and ``relf predict`` of an unscaled
  intercept model, ``relf fit --scale`` and ``relf predict`` on a libsvm
  file of every token form the grammar allows, ``relf fit --help`` and
  ``relf predict --help``, and ``relf bench`` on a small
  generated manifest of a CSV, a libsvm and a synthetic set, as it is and
  with ``scale_features`` or ``intercept`` off (:data:`BENCH_VARIANTS`):
  their stdout, ``model*.json``, ``predictions*.csv``, ``report.csv`` and
  ``report.json`` (whose ``seconds`` fields, being wall-clock times, are
  left out);
* the CLI on a fixed corpus of malformed inputs (:data:`ERROR_CASES`: bad
  files, bad loss lists, bad flags, manifests and model files): stdout,
  exit status and stderr, so an error's message and exit code are compared
  too;
* every ``demos/*.py`` of the checkout under ``python -W error``: its stdout
  and exit status;
* the benchmark's fit-tall op (``benchmarks/workloads.py`` of ``NEW``, at
  ``--tall-rows`` rows): the bits of ``w``, the ensemble weights and the
  risk trace.

For each output one line says ``identical``, or how many numeric cells
differ and the largest relative difference among them (and how many other
cells differ, if any).  The exit status is 0 if every output is identical
and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# runs a relf CLI command; fails if relf is not imported from the given src/
CLI_LAUNCHER = """\
import sys
import relf.cli
if not relf.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"relf imported from {relf.cli.__file__}, not {sys.argv[1]}")
sys.exit(relf.cli.main(sys.argv[2:]))
"""

# prints the fit-tall op's answer as float.hex, one array per line
FIT_TALL = """\
import sys
import relf
if not relf.__file__.startswith(sys.argv[3]):
    sys.exit(f"relf imported from {relf.__file__}, not {sys.argv[3]}")
sys.path.insert(1, sys.argv[1])
import workloads
wl = workloads.FitTall(seed=1, n=int(sys.argv[2]))
answer = wl.op(wl.generate(None))
for key in ("w", "lam", "risks"):
    print(key, *[float(v).hex() for v in answer[key]])
"""

TOKEN = re.compile(r"[^\s,=]+")

# the manifest's grid run again with one preprocessing flag off: name -> flag
BENCH_VARIANTS = {"unscaled": "scale_features", "no-intercept": "intercept"}

# malformed inputs: (name, the exit status the run should end with, relf
# arguments, in which "{in}" is the inputs directory)
ERROR_CASES = (
    ("fit-unlabelled-csv", 1, ["fit", "--data", "{in}/train.csv"]),
    ("ragged-csv", 1, ["fit", "--data", "{in}/ragged.csv", "--label-column", "y"]),
    ("wide-header-csv", 1, ["fit", "--data", "{in}/wide-header.csv", "--label-column", "y"]),
    ("empty-csv", 1, ["fit", "--data", "{in}/empty.csv", "--label-column", "y"]),
    ("header-only-csv", 1, ["fit", "--data", "{in}/header-only.csv", "--label-column", "y"]),
    ("label-name-without-header", 1,
     ["fit", "--data", "{in}/train.csv", "--no-header", "--label-column", "y"]),
    ("libsvm-index-0", 1, ["fit", "--format", "libsvm", "--data", "{in}/index-0.svm"]),
    ("empty-libsvm", 1, ["fit", "--format", "libsvm", "--data", "{in}/empty.svm"]),
    ("libsvm-bad-token", 1, ["fit", "--format", "libsvm", "--data", "{in}/bad-token.svm"]),
    # an index of 1e15 or more: a dense array too large for any 64-bit process
    *((f"libsvm-index-{size}", 1, ["fit", "--format", "libsvm", "--data", f"{{in}}/{size}.svm"])
      for size in ("1e15", "1e20")),
    ("empty-ensemble", 1, ["toy", "--ensemble", ""]),
    ("unknown-loss", 1, ["toy", "--ensemble", "welsch,cauchy"]),
    ("duplicate-loss", 1, ["toy", "--ensemble", "l1l2,huber,l1l2"]),
    ("zero-scale-loss", 1, ["toy", "--ensemble", "huber:0"]),
    # each token's own error comes before a duplicate
    ("ensemble-order", 1, ["toy", "--ensemble", "huber,huber,tukey"]),
    ("outlier-fraction-1.5", 1, ["toy", "--noise", "outlier", "--outlier-fraction", "1.5"]),
    # a dataset's failure is a failed cell: its error is in stdout and the report
    ("too-many-folds", 3, ["bench", "--manifest", "{in}/too-many-folds.json",
                           "--output-dir", "too-many-folds"]),
    # labels of 1e307 to 2e307, whose X^T y overflows: the ols cell fails
    ("ols-gram-overflow", 3, ["bench", "--manifest", "{in}/ols-gram-overflow.json",
                              "--output-dir", "ols-gram-overflow"]),
    # a manifest that does not follow its schema stops before any cell
    *((name, 1, ["bench", "--manifest", f"{{in}}/{name}.json", "--output-dir", name])
      for name in ("unknown-cv-key", "mistyped-entry", "csv-without-label-column")),
    # as does a method whose value is refused
    ("negative-ridge", 1, ["bench", "--manifest", "{in}/negative-ridge.json",
                           "--output-dir", "negative-ridge"]),
    # a key of another format is refused before its value is checked
    ("csv-entry-negative-seed", 1, ["bench", "--manifest", "{in}/csv-entry-negative-seed.json",
                                    "--output-dir", "csv-entry-negative-seed"]),
    # JSON nested deeper than the decoder's recursion limit
    ("manifest-nested-json", 1, ["bench", "--manifest", "{in}/nested.json",
                                 "--output-dir", "manifest-nested-json"]),
    ("model-nested-json", 1, ["predict", "--model", "{in}/nested.json", "--data",
                              "{in}/test.csv", "--label-column", "y"]),
    # so does a model file that relf fit could not have written
    *((name, 1, ["predict", "--model", f"{{in}}/{name}.json", "--data", "{in}/test.csv",
                 "--label-column", "y"])
      for name in ("model-missing-key", "model-unknown-key", "model-off-simplex-weights",
                   "model-unknown-loss", "model-duplicate-loss")),
    # every noise flag is checked, the other mode's too
    ("toy-off-mode-flag", 1, ["toy", "--noise", "gaussian", "--outlier-fraction", "1.5"]),
    # a scale whose s^2 overflows: welsch's weight would read 0 everywhere
    ("welsch-scale-1e200", 1, ["toy", "--ensemble", "welsch:1e200"]),
    # a labelled feature that scales past the float range: the error names
    # the value read
    ("scaled-past-float-range", 1,
     ["predict", "--model", "{in}/model-narrow.json", "--data", "{in}/far.csv",
      "--label-column", "y"]),
    # two features for a model of six and an intercept
    ("csv-narrower-than-model", 1,
     ["predict", "--model", "{in}/model-six-features.json", "--data", "{in}/narrow.csv",
      "--label-column", "y"]),
)


# --- inputs ---------------------------------------------------------------------

def _linear_rows(rng, n, d, outlier_fraction):
    X = rng.uniform(-3.0, 5.0, size=(n, d))
    y = X @ rng.standard_normal(d) + 0.5 + rng.normal(0.0, 0.3, size=n)
    bad = rng.random(n) < outlier_fraction
    y[bad] += rng.choice([-1.0, 1.0], size=bad.sum()) * rng.uniform(5.0, 15.0, size=bad.sum())
    return X, y


def _write_csv(path, X, y, label_at=None):
    """Features ``x0``, ``x1``, ... and the label ``y`` after them, or at
    column ``label_at``."""
    at = X.shape[1] if label_at is None else label_at
    names = [f"x{j}" for j in range(X.shape[1])]
    names.insert(at, "y")
    rows = (",".join(map(repr, row)) for row in np.insert(X, at, y, axis=1).tolist())
    path.write_text(",".join(names) + "\n" + "\n".join(rows) + "\n")


def _write_libsvm(path, X, y):
    lines = [" ".join([repr(label)] + [f"{j + 1}:{v!r}" for j, v in enumerate(row) if v != 0.0])
             for label, row in zip(y.tolist(), X.tolist())]
    path.write_text("\n".join(lines) + "\n")


def make_inputs(root: Path, csv_rows: int) -> None:
    """The CSV pair, the benchmark manifest and its data files, under ``root``."""
    root.mkdir(parents=True)
    rng = np.random.default_rng(20181)
    X, y = _linear_rows(rng, csv_rows + csv_rows // 4, 6, 0.1)
    _write_csv(root / "train.csv", X[:csv_rows], y[:csv_rows])
    _write_csv(root / "test.csv", X[csv_rows:], y[csv_rows:])
    # the test features alone: test.csv without its last column, the label
    (root / "test-features.csv").write_text("".join(
        line.rpartition(",")[0] + "\n" for line in (root / "test.csv").read_text().splitlines()))
    # the label mid-row: load_csv moves the features after it
    _write_csv(root / "train-mid.csv", X[:csv_rows], y[:csv_rows], label_at=3)
    _write_csv(root / "test-mid.csv", X[csv_rows:], y[csv_rows:], label_at=3)
    X, y = _linear_rows(rng, 120, 5, 0.0)
    _write_csv(root / "bench-a.csv", X, y)
    X, y = _linear_rows(rng, 90, 4, 0.0)
    X[rng.random(X.shape) < 0.3] = 0.0
    _write_libsvm(root / "bench-b.svm", X, y)
    manifest = {
        "cv": {"folds": 5, "seed": 3},
        "contamination_levels": [0.0, 0.1, 0.3],
        "outlier_magnitude": 5.0,
        "outlier_seed": 7,
        "datasets": [
            {"name": "a", "format": "csv", "path": "bench-a.csv", "label_column": "y"},
            {"name": "b", "format": "libsvm", "path": "bench-b.svm"},
            {"name": "line", "format": "synthetic", "noise_mode": "outlier", "seed": 2},
        ],
        "methods": ["relf", "irls:huber:0.5", "relf:welsch:1.5,fair", "ridge:1e-2", "ols"],
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for name, flag in BENCH_VARIANTS.items():
        (root / f"manifest-{name}.json").write_text(
            json.dumps({**manifest, flag: False}, indent=2) + "\n")
    # the malformed inputs of ERROR_CASES
    (root / "ragged.csv").write_text("x,y\n1,2\n3,4,5\n")
    (root / "wide-header.csv").write_text("x,y,z\n1,2\n3,4\n")
    (root / "empty.csv").write_text("")
    (root / "header-only.csv").write_text("x,y\n")
    (root / "index-0.svm").write_text("1 1:2.5\n2 0:3\n")
    (root / "empty.svm").write_text("\n\n")
    too_many = {"cv": {"folds": 200}, "methods": ["ols"],
                "datasets": [{"name": "a", "format": "csv", "path": "bench-a.csv",
                              "label_column": "y"}]}
    (root / "too-many-folds.json").write_text(json.dumps(too_many) + "\n")
    X, y = _linear_rows(rng, 40, 2, 0.0)
    _write_csv(root / "overflow-labels.csv", X, 1e307 * (1.0 + (y - y.min()) / np.ptp(y)))
    overflow = {"methods": ["ols"], "contamination_levels": [0.0],
                "datasets": [{"name": "a", "format": "csv", "path": "overflow-labels.csv",
                              "label_column": "y"}]}
    (root / "ols-gram-overflow.json").write_text(json.dumps(overflow) + "\n")
    entry = too_many["datasets"][0]
    for name, bad in (("unknown-cv-key", {"cv": {"fold": 3}}),
                      ("mistyped-entry", {"datasets": [{**entry, "has_header": "no"}]}),
                      ("csv-without-label-column",
                       {"datasets": [{k: v for k, v in entry.items() if k != "label_column"}]})):
        (root / f"{name}.json").write_text(json.dumps({**too_many, "cv": {}, **bad}) + "\n")
    (root / "negative-ridge.json").write_text(
        json.dumps({**too_many, "cv": {}, "methods": ["ridge:-1"]}) + "\n")
    # a model of the CSV pair's six features and an intercept, as it is
    # and in files with one flaw each
    model = {"schema": "relf.model/1", "w": [0.5] * 7, "loss_weights": [0.25, 0.75],
             "ensemble": [{"kind": "welsch", "scale": 1.5}, {"kind": "l1l2", "scale": 1.0}],
             "config": {"alpha": 1e-8, "init": "zeros", "init_seed": 0, "init_std": 1.0,
                        "max_iters": 30, "rel_tol": 1e-8},
             "trace": {"risks": [2.0, 1.0], "max_steps": [0.5, 0.25], "iterations": 2,
                       "converged": True},
             "preprocessing": {"intercept": True, "scaler": None}}
    (root / "model-six-features.json").write_text(json.dumps(model, indent=2) + "\n")
    (root / "narrow.csv").write_text("x0,x1,y\n1,2,3\n4,5,6\n")
    for name, bad in (("model-missing-key", {k: v for k, v in model.items() if k != "config"}),
                      ("model-unknown-key", {**model, "weights": [1.0]}),
                      ("model-off-simplex-weights", {**model, "loss_weights": [0.5, 0.75]}),
                      ("model-unknown-loss", {**model, "ensemble": [
                          {"kind": "welsch", "scale": 1.5}, {"kind": "l2", "scale": 1.0}]}),
                      ("model-duplicate-loss", {**model, "ensemble": [
                          {"kind": "l1l2", "scale": 1.0}, {"kind": "l1l2", "scale": 2.0}]})):
        (root / f"{name}.json").write_text(json.dumps(bad, indent=2) + "\n")
    # a model of one feature scaled on [0, 1e-300], and a CSV whose label
    # comes first and whose middle row lies far outside that range
    narrow = {**model, "w": [0.5, 0.5], "preprocessing": {
        "intercept": True, "scaler": {"feature_min": [0.0], "feature_max": [1e-300]}}}
    (root / "model-narrow.json").write_text(json.dumps(narrow, indent=2) + "\n")
    (root / "far.csv").write_text("y,x\n1,0\n2,1e10\n3,0\n")
    (root / "bad-token.svm").write_text("1 1:2.5\n2 1:3 2:x\n")
    (root / "1e15.svm").write_text("1 999999999999999:1\n")
    (root / "1e20.svm").write_text("1 99999999999999999999:1\n")
    (root / "csv-entry-negative-seed.json").write_text(
        json.dumps({**too_many, "cv": {}, "datasets": [{**entry, "seed": -1}]}) + "\n")
    (root / "nested.json").write_text("[" * 100_000 + "]" * 100_000 + "\n")
    # libsvm with CRLF ends, tabs, a blank line of a tab, the indices "+3"
    # and "05", a repeated index whose last value is -0.0 and a label-only line
    X, y = _linear_rows(rng, 60, 5, 0.1)
    lines = ["\t".join([repr(label)] + [f"{'+3' if j == 2 else '05' if j == 4 else j + 1}:{v!r}"
                                       for j, v in enumerate(row)])
             for label, row in zip(y.tolist(), X.tolist())]
    lines[0] += " 1:-0.0"
    lines[1:1] = ["\t", repr(float(y.mean()))]
    (root / "edge.svm").write_bytes(("\r\n".join(lines) + "\r\n").encode())


# --- one checkout's outputs -----------------------------------------------------

def run_side(checkout: Path, bench_dir: Path, inputs: Path, work: Path,
             tall_rows: int) -> dict[str, str]:
    """Every output of one checkout: name -> text (stdout, with the exit
    status and any stderr appended, or a file's contents).  Captured
    streams are also saved under ``work/captured``."""
    work.mkdir(parents=True)
    tmp = work / "tmp"
    tmp.mkdir()
    src = str((checkout / "src").resolve())
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    outputs = {}

    def run(name, argv):
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        text = proc.stdout + f"[exit {proc.returncode}]\n" + proc.stderr
        # a temp path and the checkout's own path differ between sides
        text = re.sub(re.escape(str(tmp)) + r"/[^/\s]+", "<tmp>", text)
        outputs[name] = text.replace(str(checkout.resolve()), "<checkout>")
        saved = work / "captured" / name
        saved.parent.mkdir(parents=True, exist_ok=True)
        saved.write_text(outputs[name])

    def relf(name, *args):
        run(name, ["-c", CLI_LAUNCHER, src, *args])

    data = os.path.relpath(inputs, work)
    relf("toy.stdout", "toy")
    relf("toy-outlier.stdout", "toy", "--noise", "outlier", "--seed", "3")
    relf("fit.stdout", "fit", "--data", f"{data}/train.csv", "--label-column", "y",
         "--scale", "--output", "model.json")
    relf("predict.stdout", "predict", "--model", "model.json", "--data", f"{data}/test.csv",
         "--label-column", "y", "--output", "predictions.csv")
    relf("fit-mid.stdout", "fit", "--data", f"{data}/train-mid.csv", "--label-column", "y",
         "--scale", "--output", "model-mid.json")
    relf("predict-mid.stdout", "predict", "--model", "model-mid.json", "--data",
         f"{data}/test-mid.csv", "--label-column", "y", "--output", "predictions-mid.csv")
    relf("predict-unlabelled.stdout", "predict", "--model", "model.json", "--data",
         f"{data}/test-features.csv", "--output", "predictions-unlabelled.csv")
    relf("fit-unscaled.stdout", "fit", "--data", f"{data}/train.csv", "--label-column", "y",
         "--output", "model-unscaled.json")
    relf("predict-unscaled.stdout", "predict", "--model", "model-unscaled.json", "--data",
         f"{data}/test.csv", "--label-column", "y", "--output", "predictions-unscaled.csv")
    relf("fit-libsvm.stdout", "fit", "--format", "libsvm", "--data", f"{data}/edge.svm",
         "--scale", "--output", "model-libsvm.json")
    relf("predict-libsvm.stdout", "predict", "--model", "model-libsvm.json", "--format",
         "libsvm", "--data", f"{data}/edge.svm", "--output", "predictions-libsvm.csv")
    relf("fit-help.stdout", "fit", "--help")
    relf("predict-help.stdout", "predict", "--help")
    shutil.copytree(inputs, work / "bench-inputs")
    benches = {"bench": "manifest", **{f"bench-{name}": f"manifest-{name}"
                                       for name in BENCH_VARIANTS}}
    for bench, manifest in benches.items():
        relf(f"{bench}.stdout", "bench", "--manifest", f"bench-inputs/{manifest}.json",
             "--output-dir", bench)
    for name in ("model.json", "predictions.csv", "model-mid.json", "predictions-mid.csv",
                 "predictions-unlabelled.csv", "model-unscaled.json", "predictions-unscaled.csv",
                 "model-libsvm.json", "predictions-libsvm.csv",
                 *(f"{bench}/report.{ext}" for bench in benches for ext in ("csv", "json"))):
        path = work / name
        outputs[name] = path.read_text() if path.is_file() else "<missing>\n"
    for name, _, args in ERROR_CASES:
        relf(f"errors/{name}", *[arg.replace("{in}", data) for arg in args])
    for demo in sorted((checkout / "demos").glob("*.py")):
        run(f"demos/{demo.stem}.stdout", ["-W", "error", str(demo.resolve())])
    run("fit-tall.bits", ["-c", FIT_TALL, str(bench_dir.resolve()), str(tall_rows), src])
    return outputs


# --- comparison -----------------------------------------------------------------

def _drop_seconds(obj):
    if isinstance(obj, dict):
        return {k: _drop_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_drop_seconds(v) for v in obj]
    return obj


def _leaves(obj, path=""):
    """``(path, value)`` of every scalar in a JSON value, in order."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def _cells(name: str, text: str) -> list:
    """The cells an output is compared by: JSON leaves (``seconds`` left
    out of a report) or whitespace/comma/``=``-separated tokens; a cell
    that reads as a float is a number."""
    if name.endswith(".json"):
        try:
            obj = json.loads(text)
        except ValueError:
            pass
        else:
            if name.endswith("report.json"):
                obj = _drop_seconds(obj)
            return list(_leaves(obj))
    out = []
    for tok in TOKEN.findall(text):
        try:
            out.append((None, float.fromhex(tok) if "0x" in tok else float(tok)))
        except ValueError:
            out.append((None, tok))
    return out


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel_diff(a: float, b: float) -> float:
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(name: str, old: str, new: str) -> str | None:
    """``None`` if the two outputs agree, else a one-line account of how
    they differ.  A report's ``seconds`` fields never count."""
    if old == new:
        return None
    a, b = _cells(name, old), _cells(name, new)
    if len(a) != len(b) or [p for p, _ in a] != [p for p, _ in b]:
        return f"layout differs ({len(a)} vs {len(b)} cells)"
    numeric = other = total = 0
    worst = 0.0
    for (_, x), (_, y) in zip(a, b):
        if _number(x) and _number(y):
            total += 1
            diff = _rel_diff(float(x), float(y))
            if diff > 0.0 or (x == y and math.copysign(1.0, x) != math.copysign(1.0, y)):
                numeric += 1
                worst = max(worst, diff)
        elif x != y:
            other += 1
    if not numeric and not other:
        return None if name.endswith("report.json") else "identical cells, other bytes differ"
    parts = []
    if numeric:
        parts.append(f"{numeric} of {total} numeric cells differ, max rel diff {worst:.3g}")
    if other:
        parts.append(f"{other} other cells differ")
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="root of the reference checkout")
    parser.add_argument("new", type=Path, help="root of the checkout to compare")
    parser.add_argument("--tall-rows", type=int, default=400_000,
                        help="rows of the fit-tall design (default %(default)s)")
    parser.add_argument("--csv-rows", type=int, default=5_000,
                        help="rows of the fit/predict training CSV (default %(default)s)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="write inputs and outputs here (a new directory) and keep them")
    args = parser.parse_args(argv)
    for side in (args.old, args.new):
        if not (side / "src" / "relf" / "__init__.py").is_file():
            parser.error(f"no relf checkout at {side}")

    root = args.keep or Path(tempfile.mkdtemp(prefix="relf-compare-"))
    try:
        make_inputs(root / "inputs", args.csv_rows)
        bench_dir = args.new / "benchmarks"
        old = run_side(args.old, bench_dir, root / "inputs", root / "old", args.tall_rows)
        new = run_side(args.new, bench_dir, root / "inputs", root / "new", args.tall_rows)
    finally:
        if args.keep is None:
            shutil.rmtree(root, ignore_errors=True)
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            verdict = f"only in {'NEW' if name not in old else 'OLD'}"
        else:
            verdict = compare(name, old[name], new[name])
        differ += verdict is not None
        print(f"{name:<34} {verdict or 'identical'}")
    total = len(old.keys() | new.keys())
    print(f"{total - differ} of {total} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
