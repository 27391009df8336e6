"""relf benchmark: three closed-loop workloads through relf's public API.

    python3 benchmarks/run.py --workload fit-tall --seed 1 --seconds 20 --trace 0

Run from the root of a relf checkout; relf is imported from ``src/``.  One
client in one process starts the next op when the previous one ends.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
times ops untraced for half of ``--seconds``, then traced for the other half,
and reports per-layer metrics from the spans plus the tracing overhead.  Every
op's output is checked.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans, per-layer figures
and the generated inputs go to ``benchmarks/out/<workload>/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: the ops are mostly
# elementwise numpy and Python, and on a host with two shared cores a single
# thread keeps op times independent of the load on the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

IMPORT_REPEATS = 5  # timed `import relf` subprocesses per run
SETUP_REPEATS = 3  # input generations per run; set-up time is their median


def _import_program():
    """Import relf from this checkout's ``src/``, never from elsewhere."""
    pkg = SRC / "relf"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no relf package at {pkg}; run from a relf checkout")
    sys.path.insert(0, str(SRC))
    import relf
    if Path(relf.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported relf from {relf.__file__}, expected {pkg}")
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads
    return tracing, workloads


def time_import() -> float:
    """Wall time of a fresh interpreter importing relf and its dependencies."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import relf"], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def set_up(workload, out_dir: Path):
    """Generate the inputs ``SETUP_REPEATS`` times; return them and the set-up
    time: median import time plus median generation time."""
    time_import()  # the first import in a fresh checkout compiles bytecode
    imports = [time_import() for _ in range(IMPORT_REPEATS)]
    gens, inputs = [], None
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous copy before building the next
        t0 = perf_counter()
        inputs = workload.generate(out_dir)
        gens.append(perf_counter() - t0)
    return inputs, statistics.median(imports) + statistics.median(gens)


class Loop:
    """Closed-loop driver: runs ops, times them, checks every answer."""

    def __init__(self, workload, inputs, ref):
        self.workload, self.inputs, self.ref = workload, inputs, ref
        self.attempted = self.failed = self.wrong = 0
        self.ratios: list[float] = []

    def one(self, tracer=None) -> tuple[float, bool]:
        """Run one op; return its wall time and whether it completed."""
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            answer = self.workload.op(self.inputs)
        except Exception:  # the loop keeps going; the op counts as failed
            self.failed += 1
            traceback.print_exc()
            return perf_counter() - t0, False
        dt = perf_counter() - t0
        try:
            self.ratios.append(self.workload.check(self.ref, answer))
        except Exception:
            self.wrong += 1
            traceback.print_exc()
        return dt, True

    def timed(self, seconds: float, tracer=None) -> tuple[list[float], float]:
        """Run ops until ``seconds`` of op time is spent; return the times
        of the ops that completed and the op time spent, failed ops included."""
        spent, times = 0.0, []
        while spent < seconds:
            dt, ok = self.one(tracer)
            spent += dt
            if ok:
                times.append(dt)
        return times, spent

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    tracing, workloads = _import_program()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # numpy seeds must be non-negative: map any integer onto that range
    workload = workloads.WORKLOADS[args.workload](seed=args.seed % 2**32)
    out_dir = OUT / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    if args.trace:  # set-up time is reported by untraced runs only
        inputs, setup_s = workload.generate(out_dir), None
    else:
        inputs, setup_s = set_up(workload, out_dir)
    loop = Loop(workload, inputs, workload.reference(inputs))
    loop.one()  # warm-up: lazy imports and first-touch costs; checked, not timed

    if not args.trace:
        times, spent = loop.timed(args.seconds)
        if not (times and loop.ratios):
            sys.exit("error: no op completed and passed its checks")
        (out_dir / "timings.json").write_text(json.dumps({"op_s": times}) + "\n")
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "ops_per_s": (len(times) / spent, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "holdout_mae_ratio": (statistics.median(loop.ratios), "ratio"),
        }
    else:
        untraced, _ = loop.timed(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = loop.timed(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if not (untraced and traced):
            sys.exit("error: no op completed")
        metrics = tracer.metrics()
        p50 = {"untraced": statistics.median(untraced), "traced": statistics.median(traced)}
        metrics["trace.overhead_s"] = (p50["traced"] - p50["untraced"], "s")
        tracer.write(out_dir)
        summary = {"workload": workload.name, "seed": args.seed,
                   "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__, "nproc": os.cpu_count(),
                           "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])},
                   "ops": {"untraced": len(untraced), "traced": len(traced)},
                   "op_p50_s": p50,
                   "metrics": {k: v for k, (v, _) in metrics.items()}}
        (out_dir / "layers.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(json.dumps(loop.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
