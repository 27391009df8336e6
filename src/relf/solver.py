"""Alternating half-quadratic solver for ensemble M-estimation.

The model minimizes the pooled empirical risk

    R(w) = sum_i sum_k phi_k(y_i - w . x_i)

over an ensemble of catalog losses.  Each phi_k admits the multiplicative
half-quadratic bound ``phi(e) = min_p (1/2) p e^2 + psi(p)``, so R is
minimized by alternating two closed-form steps:

* P-step: with ``w`` fixed, the optimal auxiliary weights are
  ``p_ik = delta_k(e_i)`` with ``e_i = y_i - w . x_i``.
* w-step: with ``P`` fixed, the surrogate is a weighted least-squares
  problem whose normal equations are solved with a tiny diagonal jitter:

      w = (sum_i s_i x_i x_i^T + alpha I)^{-1} sum_i s_i y_i x_i,
      s_i = sum_k p_ik.

Both steps never increase the surrogate, hence never increase R: the
recorded risk trace is non-increasing (up to ~1e-10 relative float slack).
After the final iteration the ensemble weights are read off the auxiliary
matrix as normalized column masses, ``lambda_k = sum_i p_ik / sum_jk p_jk``:
losses that still assign large weights to the residuals they see earn a
large share.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from . import linalg
from .data import Dataset
from .exceptions import (
    DataIOError,
    DegenerateTraceWarning,
    DimensionMismatchError,
    NonFiniteObjectiveError,
    RelfError,
)
from .losses import EnsembleSpec, LossSpec, delta, phi, validate_ensemble

INIT_ZEROS = "zeros"
INIT_GAUSSIAN = "gaussian"

MODEL_SCHEMA = "relf.model/1"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`fit`.

    alpha : jitter added to the normal equations (floored at 1e-12).
    max_iters : hard cap on alternating iterations.
    rel_tol : stop once ``|R_prev - R| <= rel_tol * max(1, R_prev)``.
    init : ``"zeros"`` (deterministic default) or ``"gaussian"``
        (isotropic N(0, init_std^2), seeded by ``init_seed``).
    """

    alpha: float = 1e-8
    max_iters: int = 30
    rel_tol: float = 1e-8
    init: str = INIT_ZEROS
    init_seed: int = 0
    init_std: float = 1.0

    def validate(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise RelfError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.max_iters < 1:
            raise RelfError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not np.isfinite(self.rel_tol) or self.rel_tol < 0:
            raise RelfError(f"rel_tol must be >= 0, got {self.rel_tol!r}")
        if self.init not in (INIT_ZEROS, INIT_GAUSSIAN):
            raise RelfError(f"init must be 'zeros' or 'gaussian', got {self.init!r}")
        if not np.isfinite(self.init_std) or self.init_std <= 0:
            raise RelfError(f"init_std must be > 0, got {self.init_std!r}")


@dataclass
class SolverTrace:
    """Per-iteration record: risk after each w-step and max |delta w|."""

    risks: np.ndarray
    max_steps: np.ndarray
    iterations: int
    converged: bool


@dataclass
class RelfModel:
    """Fitted model: regression weights, ensemble weights, and the trace."""

    w: np.ndarray
    loss_weights: np.ndarray
    ensemble: EnsembleSpec
    config: SolverConfig = field(default_factory=SolverConfig)
    trace: SolverTrace | None = None


def residuals(w, ds: Dataset) -> np.ndarray:
    """``e = y - X w``."""
    w = np.asarray(w, dtype=float)
    if w.shape != (ds.d,):
        raise DimensionMismatchError(f"w has shape {w.shape}, X has {ds.d} columns")
    return ds.y - ds.X @ w


def update_p(ensemble: EnsembleSpec, e) -> np.ndarray:
    """P-step: the (n, m) auxiliary weight matrix ``p_ik = delta_k(e_i)``."""
    e = np.asarray(e, dtype=float)
    return np.column_stack([delta(spec, e) for spec in ensemble.losses])


#: Elements in one weighted row block of the w-step (128 KiB of float64).
GRAM_BLOCK_ELEMS = 2**14


def gram_block_rows(d: int) -> int:
    """Rows of X weighted at a time by :func:`update_w` for ``d`` columns.

    A block holds about :data:`GRAM_BLOCK_ELEMS` elements, but never fewer
    than ``d`` rows: each block's product then does at least as much work
    as adding its d x d result into the Gram, which a narrower block of a
    wide design would not.
    """
    return max(GRAM_BLOCK_ELEMS // max(d, 1), d)


def update_w(ds: Dataset, P: np.ndarray, alpha: float) -> np.ndarray:
    """w-step: jittered weighted normal equations with ``s_i = sum_k p_ik``.

    ``A = X^T S X`` and ``b = X^T S y`` are summed over row blocks of
    :func:`gram_block_rows` rows, each weighted into one reused buffer, so
    no weighted n x d copy of X is made.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != ds.n:
        raise DimensionMismatchError(
            f"P has shape {P.shape}, expected ({ds.n}, m)")
    s = P.sum(axis=1)
    X, y = ds.X, ds.y
    rows = gram_block_rows(ds.d)
    A = np.zeros((ds.d, ds.d))
    b = np.zeros(ds.d)
    buf = np.empty((min(rows, ds.n), ds.d))
    for start in range(0, ds.n, rows):
        Xc = X[start:start + rows]
        Xs = np.multiply(Xc, s[start:start + rows, None], out=buf[:len(Xc)])
        A += Xc.T @ Xs
        b += Xs.T @ y[start:start + rows]
    A = 0.5 * (A + A.T)  # BLAS rounding can leave ~1 ulp asymmetry
    return linalg.solve_spd_with_jitter(A, b, alpha)


def objective(ensemble: EnsembleSpec, e) -> float:
    """Pooled (unweighted) empirical risk ``sum_i sum_k phi_k(e_i)`` of the
    residuals ``e`` (see :func:`residuals`); ``inf`` once the sum overflows."""
    e = np.asarray(e, dtype=float)
    return float(sum(np.sum(phi(spec, e)) for spec in ensemble.losses))


def fit(ds: Dataset, ensemble: EnsembleSpec, config: SolverConfig | None = None) -> RelfModel:
    """Fit the ensemble model by alternating P- and w-steps.

    Iterates until the risk decrease falls below ``rel_tol`` (relative,
    floored at 1) or ``max_iters`` is reached.  The trace records the risk
    after every w-step; it is non-increasing.  Ensemble weights come from
    the final P.

    Raises
    ------
    NonFiniteObjectiveError
        Risk or iterate went NaN/Inf, or every loss assigned zero weight
        to every sample (all-redescended ensemble) -- both signal
        pathological data or scales.
    FactorizationError
        Propagated from the w-step if the jittered solve fails.
    """
    config = config or SolverConfig()
    config.validate()
    validate_ensemble(ensemble)

    if config.init == INIT_GAUSSIAN:
        rng = np.random.default_rng(config.init_seed)
        w = rng.normal(0.0, config.init_std, size=ds.d)
    else:
        w = np.zeros(ds.d)

    risks: list[float] = []
    steps: list[float] = []
    converged = False
    P = None
    # a residual whose square overflows has the overflow's limit as its
    # answer (phi = inf, delta = 0), and a risk of inf is rejected below,
    # so numpy need not warn about it
    with np.errstate(over="ignore"):
        e = residuals(w, ds)
        for _ in range(config.max_iters):
            P = update_p(ensemble, e)
            w_next = update_w(ds, P, config.alpha)
            e = residuals(w_next, ds)
            risk = objective(ensemble, e)
            if not np.isfinite(risk) or not np.all(np.isfinite(w_next)):
                raise NonFiniteObjectiveError(
                    f"objective became non-finite at iteration {len(risks) + 1}")
            steps.append(float(np.max(np.abs(w_next - w))) if ds.d else 0.0)
            if risks and abs(risks[-1] - risk) <= config.rel_tol * max(1.0, risks[-1]):
                converged = True
            risks.append(risk)
            w = w_next
            if converged:
                break

    total = float(P.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise NonFiniteObjectiveError(
            "auxiliary weights sum to zero; every loss redescended on every "
            "sample (check loss scales against the residual magnitude)")
    lam = P.sum(axis=0) / total

    trace = SolverTrace(
        risks=np.asarray(risks),
        max_steps=np.asarray(steps),
        iterations=len(risks),
        converged=converged,
    )
    return RelfModel(w=w, loss_weights=lam, ensemble=ensemble, config=config,
                     trace=trace)


def predict(model: RelfModel, X) -> np.ndarray:
    """``X @ w`` with a width check."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.w.shape[0]:
        raise DimensionMismatchError(
            f"X has shape {X.shape}, model expects {model.w.shape[0]} columns")
    return X @ model.w


def decrease_ratio(trace: SolverTrace, early: int = 10, final: int = 30) -> float:
    """Share of the total risk drop achieved by iteration ``early``.

    ``(R(1) - R(early)) / (R(1) - R(final))`` with 1-based iteration
    indices.  A trace that converged before ``final`` keeps its last risk
    (the objective is constant past convergence); a non-converged trace
    shorter than ``final`` raises.  A perfectly flat trace yields 1.0 by
    convention, with a :class:`DegenerateTraceWarning`.
    """
    if early < 1 or final < early:
        raise ValueError(f"need 1 <= early <= final, got {early}, {final}")
    risks = trace.risks

    def risk_at(s: int) -> float:
        if s <= len(risks):
            return float(risks[s - 1])
        if trace.converged:
            return float(risks[-1])
        raise ValueError(
            f"trace has {len(risks)} iterations without converging; "
            f"cannot read iteration {s}")

    r1, r_early, r_final = risk_at(1), risk_at(early), risk_at(final)
    span = r1 - r_final
    if span == 0.0:
        warnings.warn("flat objective trace; decrease ratio = 1 by convention",
                      DegenerateTraceWarning, stacklevel=2)
        return 1.0
    return (r1 - r_early) / span


# --- model (de)serialization ------------------------------------------------

def model_to_dict(model: RelfModel, preprocessing: dict | None = None) -> dict:
    """JSON-ready representation of a fitted model."""
    return {
        "schema": MODEL_SCHEMA,
        "w": [float(v) for v in model.w],
        "loss_weights": [float(v) for v in model.loss_weights],
        "ensemble": [{"kind": s.kind, "scale": float(s.scale)}
                     for s in model.ensemble.losses],
        "config": {
            "alpha": model.config.alpha,
            "max_iters": model.config.max_iters,
            "rel_tol": model.config.rel_tol,
            "init": model.config.init,
            "init_seed": model.config.init_seed,
            "init_std": model.config.init_std,
        },
        "trace": None if model.trace is None else {
            "risks": [float(v) for v in model.trace.risks],
            "max_steps": [float(v) for v in model.trace.max_steps],
            "iterations": model.trace.iterations,
            "converged": model.trace.converged,
        },
        "preprocessing": preprocessing or {"intercept": False, "scaler": None},
    }


def model_from_dict(payload: dict) -> tuple[RelfModel, dict]:
    """Inverse of :func:`model_to_dict`; returns (model, preprocessing).

    Raises :class:`RelfError` for a payload that :func:`model_to_dict`
    could not have written: a missing key, a value of the wrong type, a
    non-finite number, an invalid ensemble or config, or a ``w`` whose
    length disagrees with the scaler width plus the intercept.
    """
    if not isinstance(payload, dict):
        raise RelfError("model JSON must be an object")
    if payload.get("schema") != MODEL_SCHEMA:
        raise RelfError(f"unsupported model schema {payload.get('schema')!r}")
    ensemble = EnsembleSpec(tuple(
        LossSpec(kind=_field(e, "kind", str, "model loss"),
                 scale=float(_field(e, "scale", float, "model loss")))
        for e in _field(payload, "ensemble", list, "model")))
    validate_ensemble(ensemble)
    cfg = _field(payload, "config", dict, "model")
    config = SolverConfig(**{name: _field(cfg, name, kind, "model config")
                             for name, kind in get_type_hints(SolverConfig).items()})
    config.validate()
    w = _numbers(payload, "w", "model")
    loss_weights = _numbers(payload, "loss_weights", "model")
    if loss_weights.shape != (ensemble.m,):
        raise RelfError(f"model has {loss_weights.shape[0]} loss weights "
                        f"for {ensemble.m} losses")
    tr = payload.get("trace")
    trace = None if tr is None else SolverTrace(
        risks=_numbers(tr, "risks", "model trace"),
        max_steps=_numbers(tr, "max_steps", "model trace"),
        iterations=_field(tr, "iterations", int, "model trace"),
        converged=_field(tr, "converged", bool, "model trace"),
    )
    preprocessing = payload.get("preprocessing") or {"intercept": False, "scaler": None}
    _check_preprocessing(preprocessing, w.shape[0])
    model = RelfModel(w=w, loss_weights=loss_weights, ensemble=ensemble,
                      config=config, trace=trace)
    return model, preprocessing


_KIND_NAMES = {str: "a string", bool: "a boolean", int: "an integer",
               float: "a finite number", list: "a list", dict: "an object"}


def _conforms(value, kind: type) -> bool:
    """JSON typing: ``float`` takes any finite number, and a boolean is no
    ``int``."""
    if kind in (int, float) and isinstance(value, bool):
        return False
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, kind)


def _field(obj, key: str, kind: type, where: str):
    """``obj[key]`` if ``obj`` is a JSON object whose ``key`` holds a
    ``kind`` value; :class:`RelfError` otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise RelfError(f"{where} lacks {key!r}")
    if not _conforms(obj[key], kind):
        raise RelfError(f"{where} {key!r} must be {_KIND_NAMES[kind]}")
    return obj[key]


def _numbers(obj, key: str, where: str) -> np.ndarray:
    values = _field(obj, key, list, where)
    if not all(_conforms(v, float) for v in values):
        raise RelfError(f"{where} {key!r} must be a list of finite numbers")
    return np.asarray(values, dtype=float)


def _check_preprocessing(preprocessing, width: int) -> None:
    if not isinstance(preprocessing, dict):
        raise RelfError("model 'preprocessing' must be an object")
    intercept = preprocessing.get("intercept", False)
    if not isinstance(intercept, bool):
        raise RelfError("model preprocessing 'intercept' must be a boolean")
    scaler = preprocessing.get("scaler")
    if scaler is None:
        return
    lo = _numbers(scaler, "feature_min", "model scaler")
    hi = _numbers(scaler, "feature_max", "model scaler")
    if lo.shape != hi.shape:
        raise RelfError(f"model scaler has {lo.shape[0]} minima and {hi.shape[0]} maxima")
    if width != lo.shape[0] + intercept:
        raise RelfError(f"model has {width} weights, but its preprocessing "
                        f"yields {lo.shape[0] + intercept} columns")


def save_model(model: RelfModel, path, preprocessing: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, preprocessing), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> tuple[RelfModel, dict]:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except UnicodeDecodeError as exc:
            raise DataIOError.undecodable(path, exc) from None
    return model_from_dict(payload)
