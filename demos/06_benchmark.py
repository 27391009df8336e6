"""
The benchmark harness
=====================

A manifest describes datasets, methods, and contamination levels; the
harness runs the full grid under the contamination protocol and writes a
JSON + CSV report.  The same manifest drives the ``relf bench`` CLI
subcommand.  Here the grid is two synthetic datasets x three methods x
two contamination levels.
"""

import tempfile

from relf import run_benchmark

manifest = {
    "cv": {"folds": 5, "seed": 0},
    "solver": {"max_iters": 30},
    "contamination_levels": [0.0, 0.3],
    "outlier_magnitude": 5.0,
    "scale_features": False,
    "intercept": False,
    "datasets": [
        {"name": "toy-quiet", "format": "synthetic",
         "noise_mode": "gaussian", "gaussian_std": 0.5, "seed": 0},
        {"name": "toy-noisy", "format": "synthetic",
         "noise_mode": "gaussian", "gaussian_std": 2.0, "seed": 1},
    ],
    "methods": ["relf:welsch,l1l2,huber", "irls:huber:0.5", "ols"],
}

report = run_benchmark(manifest)

print(f"{'dataset':<10} {'method':<22} {'contam':>6} {'mae':>8} {'rmse':>8}")
for cell in report.cells:
    print(f"{cell['dataset']:<10} {cell['method']:<22} "
          f"{cell['contamination']:6.1f} {cell['mae']:8.4f} {cell['rmse']:8.4f}")

print()
print("increase ratios (contaminated mae / clean mae):")
for row in report.ratios:
    print(f"  {row['dataset']:<10} {row['method']:<22} {row['increase_ratio']:8.4f}")

print()
print("convergence of the ensemble methods on the clean data:")
for conv in report.convergence:
    print(f"  {conv['dataset']:<10} {conv['method']:<22} "
          f"iters={conv['iterations']:<3} "
          f"decrease_ratio={conv['decrease_ratio']:.4f}")

with tempfile.TemporaryDirectory(prefix="relf-bench-") as out_dir:
    json_path, csv_path = report.write(out_dir)
    print()
    print(f"wrote {json_path} and {csv_path}; report ok = {report.ok}")
