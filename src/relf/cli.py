"""Command-line interface.

Subcommands: ``fit``, ``predict``, ``toy``, ``bench``.  Every run echoes its
fully-resolved configuration (defaults and seeds included) as one JSON line
before doing anything, so output is reproducible byte for byte given the
same arguments.

Exit codes: 0 success; 1 input error (bad files, flags, specs); 2 solver
failure (factorization / non-finite objective); 3 benchmark finished with
failed cells.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    NOISE_GAUSSIAN,
    NOISE_OUTLIER,
    load_csv,
    load_json,
    load_libsvm,
    synth_line,
    Dataset,
    NoiseConfig,
    Preprocessing,
)
from .evaluation import error_metrics, run_benchmark
from .exceptions import (
    FactorizationError,
    NonFiniteObjectiveError,
    RelfError,
)
from .losses import DEFAULT_ENSEMBLE_TEXT, parse_ensemble
from .solver import (
    SolverConfig,
    fit,
    load_model,
    predict,
    save_model,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_PARTIAL = 3

TOY_ENSEMBLE_TEXT = "welsch:1.5,l1l2"
TOY_OUTLIER_FRACTION = 10.0 / 81.0  # ten of the 81 toy samples
WRITE_BLOCK_ROWS = 4096  # prediction rows turned into Python floats at a time


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: keep exit 2 reserved for the solver
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _echo_config(command: str, payload: dict) -> None:
    print("config: " + json.dumps({"command": command, **payload}, sort_keys=True))


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    for f in fields(SolverConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default, **f.metadata)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


def _load_dataset(path: str, fmt: str, label_column, has_header: bool) -> Dataset:
    if fmt == "libsvm":
        return load_libsvm(path)
    if label_column is None:
        raise RelfError("--label-column is required for csv data")
    try:
        label_column = int(label_column)
    except (TypeError, ValueError):
        pass  # treat as a header name
    return load_csv(path, label_column, has_header=has_header)


def _print_model(model, feature_names=None) -> None:
    for spec, lam in zip(model.ensemble.losses, model.loss_weights):
        print(f"lambda[{spec.label()}]: {lam:.6f}")
    names = feature_names or [str(i) for i in range(len(model.w))]
    for name, value in zip(names, model.w):
        print(f"w[{name}]: {value:.6f}")
    print(f"iterations: {model.trace.iterations}")
    print(f"converged: {str(model.trace.converged).lower()}")
    print(f"final_risk: {model.trace.risks[-1]:.6f}")


def cmd_fit(args) -> int:
    config = _solver_config(args)
    ensemble = parse_ensemble(args.ensemble)
    _echo_config("fit", {
        "data": args.data, "format": args.format,
        "label_column": args.label_column, "has_header": not args.no_header,
        "ensemble": args.ensemble, "intercept": not args.no_intercept,
        "scale": args.scale, "output": args.output,
        "solver": asdict(config),
    })
    ds = _load_dataset(args.data, args.format, args.label_column,
                       has_header=not args.no_header)
    print(f"loaded: {args.data} (n={ds.n}, d={ds.d})")

    preprocessing = Preprocessing.fit(ds, args.scale, not args.no_intercept)
    ds = preprocessing.apply(ds, in_place=True)
    model = replace(fit(ds, ensemble, config), preprocessing=preprocessing)
    _print_model(model, ds.feature_names)

    if args.output:
        save_model(model, args.output)
        print(f"model: {args.output}")
    return EXIT_OK


def cmd_predict(args) -> int:
    _echo_config("predict", {
        "model": args.model, "data": args.data, "format": args.format,
        "label_column": args.label_column, "has_header": not args.no_header,
        "output": args.output,
    })
    model = load_model(args.model)

    if args.format == "csv" and args.label_column is None:
        # label-free csv: every column is a feature
        ds = load_csv(args.data, None, has_header=not args.no_header)
        y = None
    else:
        ds = _load_dataset(args.data, args.format, args.label_column,
                           has_header=not args.no_header)
        y = ds.y
    width = len(model.w) - model.preprocessing.intercept
    if args.format == "libsvm" and ds.d < width:  # omitted trailing entries are zeros
        ds = Dataset(X=np.pad(ds.X, [(0, 0), (0, width - ds.d)]), y=y)

    yhat = predict(model, model.preprocessing.apply(ds, in_place=True).X)
    if y is not None:
        mae, rmse = error_metrics(y - yhat)
        print(f"mae: {mae:.6f}")
        print(f"rmse: {rmse:.6f}")
    if args.output:
        header, row, columns = "prediction", "{!r}\r\n", [yhat]
        if y is not None:
            header, row, columns = "prediction,label", "{!r},{!r}\r\n", [yhat, y]
        # repr floats never need quoting; "\r\n" ends rows as csv.writer does;
        # a block of rows at a time, so that no list of all the values is held
        with open(args.output, "w", newline="") as fh:
            fh.write(header + "\r\n")
            for start in range(0, len(yhat), WRITE_BLOCK_ROWS):
                fh.writelines(map(row.format, *(column[start:start + WRITE_BLOCK_ROWS].tolist()
                                                for column in columns)))
        print(f"predictions: {args.output} ({len(yhat)} rows)")
    else:
        for value in yhat:
            print(f"prediction: {value:.6f}")
    return EXIT_OK


def cmd_toy(args) -> int:
    config = _solver_config(args)
    ensemble = parse_ensemble(args.ensemble)
    noise = NoiseConfig(mode=args.noise, gaussian_std=args.gaussian_std,
                        outlier_fraction=args.outlier_fraction,
                        outlier_magnitude=args.outlier_magnitude, seed=args.seed)
    _echo_config("toy", {
        "noise": args.noise, "seed": args.seed,
        "gaussian_std": args.gaussian_std,
        "outlier_fraction": args.outlier_fraction,
        "outlier_magnitude": args.outlier_magnitude,
        "ensemble": args.ensemble, "solver": asdict(config),
    })
    ds = synth_line(noise)
    model = fit(ds, ensemble, config)
    _print_model(model, ds.feature_names)
    return EXIT_OK


def cmd_bench(args) -> int:
    _echo_config("bench", {"manifest": args.manifest, "output_dir": args.output_dir})
    manifest = load_json(args.manifest, "manifest")
    report = run_benchmark(manifest, base_dir=Path(args.manifest).parent)
    json_path, csv_path = report.write(args.output_dir)
    for cell in report.cells:
        head = (f"{cell['dataset']} {cell['method']} "
                f"contamination={cell['contamination']:g}")
        if cell.get("error") is not None:
            print(f"{head}: FAILED ({cell['error']})")
        else:
            print(f"{head}: mae={cell['mae']:.6f} rmse={cell['rmse']:.6f}")
    for row in report.ratios:
        print(f"{row['dataset']} {row['method']} "
              f"contamination={row['contamination']:g}: "
              f"increase_ratio={row['increase_ratio']:.6f}")
    print(f"report: {json_path}")
    print(f"report: {csv_path}")
    return EXIT_OK if report.ok else EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relf",
        description="Robust linear regression with an ensemble of M-estimator "
                    "losses, fitted by alternating half-quadratic minimization.",
        epilog="exit codes: 0 ok, 1 input error, 2 solver failure, "
               "3 benchmark finished with failures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model on a data file")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--format", choices=["csv", "libsvm"], default="csv")
    p_fit.add_argument("--label-column", default=None,
                       help="csv label column: header name or 0-based index")
    p_fit.add_argument("--no-header", action="store_true")
    p_fit.add_argument("--ensemble", default=DEFAULT_ENSEMBLE_TEXT,
                       help="loss list, e.g. welsch:1.5,l1l2,huber:0.5")
    p_fit.add_argument("--no-intercept", action="store_true")
    p_fit.add_argument("--scale", action="store_true",
                       help="min-max scale features to [-1, 1] before fitting")
    p_fit.add_argument("--output", default=None, help="write the model JSON here")
    _add_solver_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="apply a saved model to new data")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--format", choices=["csv", "libsvm"], default="csv")
    p_pred.add_argument("--label-column", default=None,
                        help="optional for csv; metrics printed when present")
    p_pred.add_argument("--no-header", action="store_true")
    p_pred.add_argument("--output", default=None, help="write predictions CSV here")
    p_pred.set_defaults(func=cmd_predict)

    p_toy = sub.add_parser("toy", help="run the synthetic-line experiment")
    p_toy.add_argument("--noise", choices=[NOISE_GAUSSIAN, NOISE_OUTLIER],
                       default=NOISE_GAUSSIAN)
    p_toy.add_argument("--seed", type=int, default=0)
    p_toy.add_argument("--gaussian-std", type=float, default=1.0)
    p_toy.add_argument("--outlier-fraction", type=float,
                       default=TOY_OUTLIER_FRACTION)
    p_toy.add_argument("--outlier-magnitude", type=float, default=5.0)
    p_toy.add_argument("--ensemble", default=TOY_ENSEMBLE_TEXT)
    _add_solver_flags(p_toy)
    p_toy.set_defaults(func=cmd_toy)

    p_bench = sub.add_parser("bench", help="run a benchmark manifest")
    p_bench.add_argument("--manifest", required=True)
    p_bench.add_argument("--output-dir", default="bench_out")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FactorizationError, NonFiniteObjectiveError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (RelfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
