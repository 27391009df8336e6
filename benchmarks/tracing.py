"""In-memory span recorder for the traced benchmark run.

The tracer replaces relf's public functions by timing wrappers at every
module attribute that binds them -- the defining module, the ``relf``
package and the modules that import the name (``cli``, ``evaluation``,
``solver``) -- so calls are seen whichever name the caller used.  Each call
records one span: name, parent span, op index, start, end and an optional
work count (cells parsed, elements evaluated, flops computed).  Spans live
in flat arrays while ops run and are written out when the run ends.

A span's self time is its duration minus the durations of its direct child
spans; calls are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

RELF_MODULES = ("relf", "relf.data", "relf.losses", "relf.linalg",
                "relf.solver", "relf.evaluation", "relf.cli")


def _cells(args, kwargs, result):
    return result.X.size + result.y.size


def _elems(args, kwargs, result):
    return np.size(args[1])


def _gram_flops(args, kwargs, result):
    ds = args[0]
    return 2.0 * ds.n * ds.d * ds.d


def _iterations(args, kwargs, result):
    return result.trace.iterations


# (span name, defining module, attribute, work count of one call)
TARGETS = (
    ("data.load_csv", "relf.data", "load_csv", _cells),
    ("data.load_libsvm", "relf.data", "load_libsvm", None),
    ("data.Dataset", "relf.data", "Dataset.__post_init__", None),
    ("data.take", "relf.data", "Dataset.take", None),
    ("data.fit_scaler", "relf.data", "fit_scaler", None),
    ("data.apply_scaler", "relf.data", "apply_scaler", None),
    ("data.add_intercept", "relf.data", "add_intercept", None),
    ("data.inject_outliers", "relf.data", "inject_outliers", None),
    ("losses.phi", "relf.losses", "phi", _elems),
    ("losses.delta", "relf.losses", "delta", _elems),
    ("linalg.solve", "relf.linalg", "solve_spd_with_jitter", None),
    ("solver.fit", "relf.solver", "fit", _iterations),
    ("solver.update_p", "relf.solver", "update_p", None),
    ("solver.update_w", "relf.solver", "update_w", _gram_flops),
    ("solver.objective", "relf.solver", "objective", None),
    ("solver.predict", "relf.solver", "predict", None),
    ("solver.save_model", "relf.solver", "save_model", None),
    ("solver.load_model", "relf.solver", "load_model", None),
    ("evaluation.run_benchmark", "relf.evaluation", "run_benchmark", None),
    ("evaluation.cross_validate", "relf.evaluation", "cross_validate", None),
    ("evaluation.kfold_split", "relf.evaluation", "kfold_split", None),
    ("cli.main", "relf.cli", "main", None),
)

# per-layer metric -> the spans whose self time it sums (per op)
SELF_TIMES = {
    "data.load_csv.self_s": ("data.load_csv",),
    "data.load_libsvm.self_s": ("data.load_libsvm",),
    "data.take.self_s": ("data.take",),
    "data.scale.self_s": ("data.fit_scaler", "data.apply_scaler"),
    "data.add_intercept.self_s": ("data.add_intercept",),
    "data.inject_outliers.self_s": ("data.inject_outliers",),
    "data.Dataset.self_s": ("data.Dataset",),
    "losses.phi.self_s": ("losses.phi",),
    "losses.delta.self_s": ("losses.delta",),
    "solver.update_p.self_s": ("solver.update_p",),
    "solver.update_w.self_s": ("solver.update_w",),
    "solver.objective.self_s": ("solver.objective",),
    "solver.fit.self_s": ("solver.fit",),
    "solver.model_io.self_s": ("solver.save_model", "solver.load_model"),
    "solver.predict.self_s": ("solver.predict",),
    "linalg.solve.self_s": ("linalg.solve",),
    "evaluation.cross_validate.self_s": ("evaluation.cross_validate",),
    "evaluation.kfold_split.self_s": ("evaluation.kfold_split",),
    "evaluation.run_benchmark.self_s": ("evaluation.run_benchmark",),
    "cli.main.self_s": ("cli.main",),
}

# per-layer metric -> the spans whose calls it counts (per op)
COUNTS = {
    "data.Dataset.count": ("data.Dataset",),
    "losses.calls": ("losses.phi", "losses.delta"),
    "solver.fit.count": ("solver.fit",),
    "linalg.solve.count": ("linalg.solve",),
}

# per-layer metric -> (spans, divisor, unit): summed work over summed self time
RATES = {
    "data.load_csv.cells_per_s": (("data.load_csv",), 1.0, "1/s"),
    "losses.elems_per_s": (("losses.phi", "losses.delta"), 1.0, "1/s"),
    "solver.update_w.gflops_computed": (("solver.update_w",), 1e9, "GFLOP/s"),
}

# per-layer metric -> the spans whose work it sums (per op)
WORK_COUNTS = {
    "solver.iterations": ("solver.fit",),
}


class Tracer:
    """Records spans of wrapped relf calls; ``install`` / ``uninstall``
    patch and restore the module attributes."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self._op_index = -1
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self._op_index += 1

    def _wrap(self, nid: int, fn, work):
        name_id, parent, op, start, end, work_arr = (
            self.name_id, self.parent, self.op, self.start, self.end, self.work)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self._op_index)
            end.append(0.0)
            work_arr.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                work_arr[idx] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in RELF_MODULES]
        for nid, (_, mod_name, attr, work) in enumerate(TARGETS):
            owner = importlib.import_module(mod_name)
            if "." in attr:  # a method: patch it once on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(nid, orig, work))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(nid, orig, work)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # --- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "parent": parent,
            "op": np.asarray(self.op, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "work": np.asarray(self.work),
            "self": dur - child,
        }

    def metrics(self) -> dict:
        """Per-layer metrics over the traced ops: per-op medians of self
        times, call counts and work counts, and rates over all traced ops.
        A layer that no traced op calls reads 0."""
        a = self.arrays()
        n_ops = self._op_index + 1
        ids = {name: i for i, name in enumerate(self.names)}
        k = len(self.names)
        key = a["op"].astype(np.int64) * k + a["name_id"]

        def per_op(weights):
            table = np.bincount(key, weights=weights, minlength=n_ops * k)
            return table.reshape(n_ops, k)

        self_t = per_op(a["self"])
        calls = per_op(None)
        work = per_op(a["work"])

        def median_of(table, spans):
            cols = [ids[s] for s in spans]
            return float(np.median(table[:, cols].sum(axis=1)))

        out = {}
        for metric, spans in SELF_TIMES.items():
            out[metric] = (median_of(self_t, spans), "s")
        for metric, spans in COUNTS.items():
            out[metric] = (median_of(calls, spans), "count")
        for metric, spans in WORK_COUNTS.items():
            out[metric] = (median_of(work, spans), "count")
        for metric, (spans, divisor, unit) in RATES.items():
            cols = [ids[s] for s in spans]
            busy = float(self_t[:, cols].sum())
            done = float(work[:, cols].sum())
            out[metric] = ((done / busy / divisor) if busy > 0 else 0.0, unit)
        return out

    def write(self, out_dir: Path) -> Path:
        """Write every span to ``spans.npz`` (names in ``span_names.json``)."""
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "spans.npz"
        np.savez_compressed(path, **self.arrays())
        (out_dir / "span_names.json").write_text(json.dumps(self.names) + "\n")
        return path
