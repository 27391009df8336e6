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
from pathlib import Path

import numpy as np

from .data import (
    NOISE_GAUSSIAN,
    NOISE_OUTLIER,
    add_intercept,
    apply_scaler,
    fit_scaler,
    load_csv,
    load_libsvm,
    synth_line,
    Dataset,
    NoiseConfig,
    ScalerState,
)
from .evaluation import run_benchmark
from .exceptions import (
    DataIOError,
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


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: keep exit 2 reserved for the solver
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _echo_config(command: str, payload: dict) -> None:
    print("config: " + json.dumps({"command": command, **payload}, sort_keys=True))


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=1e-8,
                   help="jitter for the normal equations (default 1e-8)")
    p.add_argument("--max-iters", type=int, default=30)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--init", choices=["zeros", "gaussian"], default="zeros")
    p.add_argument("--init-seed", type=int, default=0)
    p.add_argument("--init-std", type=float, default=1.0)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(alpha=args.alpha, max_iters=args.max_iters,
                        rel_tol=args.rel_tol, init=args.init,
                        init_seed=args.init_seed, init_std=args.init_std)


def _solver_echo(cfg: SolverConfig) -> dict:
    return {"alpha": cfg.alpha, "max_iters": cfg.max_iters, "rel_tol": cfg.rel_tol,
            "init": cfg.init, "init_seed": cfg.init_seed, "init_std": cfg.init_std}


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
        "solver": _solver_echo(config),
    })
    ds = _load_dataset(args.data, args.format, args.label_column,
                       has_header=not args.no_header)
    print(f"loaded: {args.data} (n={ds.n}, d={ds.d})")

    scaler = None
    if args.scale:
        scaler = fit_scaler(ds)
        ds = apply_scaler(ds, scaler)
    if not args.no_intercept:
        ds = add_intercept(ds)

    model = fit(ds, ensemble, config)
    _print_model(model, ds.feature_names)

    if args.output:
        preprocessing = {
            "intercept": not args.no_intercept,
            "scaler": None if scaler is None else {
                "feature_min": [float(v) for v in scaler.feature_min],
                "feature_max": [float(v) for v in scaler.feature_max],
            },
        }
        save_model(model, args.output, preprocessing)
        print(f"model: {args.output}")
    return EXIT_OK


def cmd_predict(args) -> int:
    _echo_config("predict", {
        "model": args.model, "data": args.data, "format": args.format,
        "label_column": args.label_column, "has_header": not args.no_header,
        "output": args.output,
    })
    try:
        model, preprocessing = load_model(args.model)
    except OSError as exc:
        raise DataIOError(f"cannot read model {args.model}: {exc}") from exc

    if args.format == "libsvm" or args.label_column is not None:
        ds = _load_dataset(args.data, args.format, args.label_column,
                           has_header=not args.no_header)
        X, y = ds.X, ds.y
    else:
        # label-free csv: every column is a feature
        ds = load_csv(args.data, 0, has_header=not args.no_header)
        X = np.hstack([ds.y[:, None], ds.X])
        y = None

    scaler_info = preprocessing.get("scaler")
    if scaler_info is not None:
        state = ScalerState(
            feature_min=np.asarray(scaler_info["feature_min"], dtype=float),
            feature_max=np.asarray(scaler_info["feature_max"], dtype=float))
        X = apply_scaler(Dataset(X=X, y=np.zeros(X.shape[0])), state).X
    if preprocessing.get("intercept"):
        X = np.hstack([X, np.ones((X.shape[0], 1))])

    yhat = predict(model, X)
    if y is not None:
        from .evaluation import mae, rmse
        print(f"mae: {mae(y, yhat):.6f}")
        print(f"rmse: {rmse(y, yhat):.6f}")
    if args.output:
        header, columns = "prediction", [yhat.tolist()]
        if y is not None:
            header, columns = "prediction,label", columns + [y.tolist()]
        # repr floats never need quoting; "\r\n" ends rows as csv.writer does
        lines = [header] + [",".join(map(repr, row)) for row in zip(*columns)]
        with open(args.output, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
        print(f"predictions: {args.output} ({len(yhat)} rows)")
    else:
        for value in yhat:
            print(f"prediction: {value:.6f}")
    return EXIT_OK


def cmd_toy(args) -> int:
    config = _solver_config(args)
    ensemble = parse_ensemble(args.ensemble)
    if args.noise == NOISE_GAUSSIAN:
        noise = NoiseConfig(mode=NOISE_GAUSSIAN, gaussian_std=args.gaussian_std,
                            seed=args.seed)
    else:
        noise = NoiseConfig(mode=NOISE_OUTLIER,
                            outlier_fraction=args.outlier_fraction,
                            outlier_magnitude=args.outlier_magnitude,
                            seed=args.seed)
    _echo_config("toy", {
        "noise": args.noise, "seed": args.seed,
        "gaussian_std": args.gaussian_std,
        "outlier_fraction": args.outlier_fraction,
        "outlier_magnitude": args.outlier_magnitude,
        "ensemble": args.ensemble, "solver": _solver_echo(config),
    })
    ds = synth_line(noise)
    model = fit(ds, ensemble, config)
    _print_model(model, ds.feature_names)
    return EXIT_OK


def cmd_bench(args) -> int:
    _echo_config("bench", {"manifest": args.manifest, "output_dir": args.output_dir})
    manifest_path = Path(args.manifest)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataIOError(f"cannot read manifest {args.manifest}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataIOError.undecodable(args.manifest, exc) from None
    except json.JSONDecodeError as exc:
        raise RelfError(f"manifest is not valid JSON: {exc}") from exc

    report = run_benchmark(manifest, base_dir=manifest_path.parent)
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
    except (RelfError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
