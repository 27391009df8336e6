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

Both steps never increase the surrogate plus ``(alpha/2) |w|^2``, hence
never increase ``R(w) + (alpha/2) |w|^2`` (up to ~1e-10 relative float
slack).  The recorded risk R is non-increasing wherever the jitter is
negligible against the weighted Gram; with features near 1e-3 it can rise.
After the final iteration the ensemble weights are read off the auxiliary
matrix as normalized column masses, ``lambda_k = sum_i p_ik / sum_jk p_jk``:
losses that still assign large weights to the residuals they see earn a
large share.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import linalg
from .data import Dataset, FoldStack, Preprocessing, json_field, json_numbers, load_json
from .exceptions import (
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

    alpha: float = field(default=1e-8, metadata={
        "help": "jitter for the normal equations (default %(default)s)"})
    max_iters: int = 30
    rel_tol: float = 1e-8
    init: str = field(default=INIT_ZEROS, metadata={"choices": (INIT_ZEROS, INIT_GAUSSIAN)})
    init_seed: int = 0
    init_std: float = 1.0

    @classmethod
    def from_dict(cls, obj, where: str) -> "SolverConfig":
        """The config whose fields are the JSON object ``obj``: every field
        present with its type, no other key, and values :meth:`validate`
        accepts; :class:`RelfError` naming ``where`` otherwise."""
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise RelfError(f"{where} has unknown key {unknown[0]!r}")
        config = cls(**{name: json_field(obj, name, kind, where)
                        for name, kind in get_type_hints(cls).items()})
        config.validate()
        return config

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
    preprocessing: Preprocessing = field(default_factory=Preprocessing)


def residuals(w, stack: FoldStack) -> np.ndarray:
    """``e = y - X w`` per fold of ``stack``: (k, rows) for one ``w`` per
    fold, (k, d).  Each run of folds (:attr:`FoldStack.runs`) multiplies
    only its own rows, into one buffer, so a fold gets a lone product's
    bits and a padding row the residual 0."""
    w = np.asarray(w, dtype=float)
    if w.shape != (stack.k, stack.d):
        raise DimensionMismatchError(f"w has shape {w.shape}, expected ({stack.k}, {stack.d})")
    fitted = np.zeros(stack.y.shape + (1,))
    for folds, count in stack.runs:
        np.matmul(stack.X[folds, :count], w[folds, :, None], out=fitted[folds, :count])
    return np.subtract(stack.y, fitted[..., 0], out=fitted[..., 0])


def update_p(ensemble: EnsembleSpec, e) -> list[np.ndarray]:
    """P-step: the auxiliary weights ``p_ik = delta_k(e_i)`` as the columns
    of P, one array shaped like the residuals ``e`` per loss ``k``."""
    e = np.asarray(e, dtype=float)
    return [delta(spec, e) for spec in ensemble.losses]


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


def update_w(stack: FoldStack, s, alpha: float) -> np.ndarray:
    """w-step: jittered weighted normal equations with ``s_i = sum_k p_ik``,
    ``s`` (k, rows) shaped like ``stack.y``, giving one ``w`` per fold.

    Per fold, ``A = X^T S X`` and ``b = X^T S y`` are summed over the
    fold's own rows (:attr:`FoldStack.runs`) in row blocks of
    :func:`gram_block_rows` rows, each weighted into one reused buffer, so
    no weighted copy of X is made.  A fold whose ``A`` or ``b`` is not
    finite (features near the float range overflow the Gram) gets a NaN
    ``w``, which :func:`fit` reports as :class:`NonFiniteObjectiveError`.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != stack.y.shape:
        raise DimensionMismatchError(f"s has shape {s.shape}, expected {stack.y.shape}")
    k, n, d = stack.X.shape
    rows = gram_block_rows(d)
    A = np.zeros((k, d, d))
    b = np.zeros((k, d, 1))
    buf = np.empty((k, min(rows, n), d))
    for folds, count in stack.runs:
        X, y, sf = stack.X[folds, :count], stack.y[folds, :count, None], s[folds, :count, None]
        A_run, b_run = A[folds], b[folds]  # views: each block adds into them in place
        for start in range(0, count, rows):
            Xc = X[:, start:start + rows]
            Xs = np.multiply(Xc, sf[:, start:start + rows], out=buf[:Xc.shape[0], :Xc.shape[1]])
            A_run += Xc.transpose(0, 2, 1) @ Xs
            b_run += Xs.transpose(0, 2, 1) @ y[:, start:start + rows]
    bad = ~(np.all(np.isfinite(A), axis=(1, 2)) & np.all(np.isfinite(b), axis=(1, 2)))
    A[bad], b[bad] = 0.0, 0.0
    A = 0.5 * (A + A.transpose(0, 2, 1))  # BLAS rounding can leave ~1 ulp asymmetry
    w = linalg.solve_spd_with_jitter(A, b[..., 0], alpha)
    w[bad] = np.nan
    return w


def objective(ensemble: EnsembleSpec, e, stack: FoldStack) -> np.ndarray:
    """Pooled (unweighted) empirical risk ``sum_i sum_k phi_k(e_i)`` of the
    residuals ``e`` of ``stack`` (see :func:`residuals`): one risk per fold
    over the fold's own rows, (k,); ``inf`` once a sum overflows."""
    e = np.asarray(e, dtype=float)
    if e.shape != stack.y.shape:
        raise DimensionMismatchError(f"e has shape {e.shape}, expected {stack.y.shape}")
    risk = np.zeros(stack.k)
    for spec in ensemble.losses:  # one loss's terms alive at a time
        terms = phi(spec, e)
        for folds, count in stack.runs:
            risk[folds] += np.sum(terms[folds, :count], axis=-1)
    return risk


def fit(ds: Dataset, ensemble: EnsembleSpec, config: SolverConfig | None = None) -> RelfModel:
    """Fit the ensemble model by alternating P- and w-steps: the one-fold
    case of :func:`fit_folds`, whose docstring gives the details."""
    return fit_folds(FoldStack.of(ds), ensemble, config)[0]


def fit_folds(stack: FoldStack, ensemble: EnsembleSpec,
              config: SolverConfig | None = None) -> list[RelfModel]:
    """Fit every fold of ``stack`` by alternating P- and w-steps; one model
    per fold.

    All folds iterate in lockstep on the stacked arrays.  A fold stops once
    its risk decrease falls below ``rel_tol`` (relative, floored at 1) or at
    ``max_iters``, and is then frozen with its own iteration count.  The
    trace records the risk after every w-step; the risk plus
    ``(alpha/2) |w|^2`` is non-increasing (see the module docstring).
    Ensemble weights come from the fold's final P.

    The w-step's ``s`` adds P's columns left to right, which gives the bits
    of ``P.sum(axis=-1)`` for up to 7 losses (numpy sums fewer than 8 terms
    in order); with 8 or more, ``s`` can differ from it in the last bit.

    Every sum runs over a fold's own rows, so each fold gives a lone
    :func:`fit`'s ``w``, trace and ensemble weights bit for bit.

    The zero start's residual is ``e = y``, taken without the pass over X
    that ``y - X 0`` would make: X is finite, so the two differ at most in
    the sign of a zero, which no output sees.

    Raises
    ------
    NonFiniteObjectiveError
        Risk or iterate went NaN/Inf, or every loss assigned zero weight
        to every sample (all-redescended ensemble) -- both signal
        pathological data or scales.  Of the folds that fail, the first
        one's error is raised, as a fold-by-fold loop would.
    FactorizationError
        Propagated from the w-step if the jittered solve of any fold fails.
        It ends the loop at once, so it takes precedence over another
        fold's :class:`NonFiniteObjectiveError`, earlier folds' included.
    """
    config = config or SolverConfig()
    config.validate()
    validate_ensemble(ensemble)

    if config.init == INIT_GAUSSIAN:
        rng = np.random.default_rng(config.init_seed)
        w = np.tile(rng.normal(0.0, config.init_std, size=stack.d), (stack.k, 1))
    else:
        w = np.zeros((stack.k, stack.d))

    risks = np.empty((config.max_iters, stack.k))
    steps = np.empty((config.max_iters, stack.k))
    iterations = np.zeros(stack.k, dtype=int)
    converged = np.zeros(stack.k, dtype=bool)
    active = np.ones(stack.k, dtype=bool)
    weight_sums = {}  # fold -> (total, per-loss sums) of its final P
    errors = {}

    def freeze(cols, folds):  # keep what the models need of the final P
        if not len(folds):
            return
        # one reduction per slice of adjacent folds of one row count
        cuts = np.flatnonzero((np.diff(folds) != 1) | (np.diff(stack.counts[folds]) != 0)) + 1
        for part in np.split(folds, cuts):
            a, b, count = part[0], part[-1] + 1, stack.counts[part[0]]
            P = np.stack([c[a:b, :count] for c in cols], axis=-1)
            for j, total, loss_sums in zip(part, P.sum(axis=(1, 2)), P.sum(axis=1)):
                weight_sums[j] = (float(total), loss_sums)

    # a residual whose square overflows has the overflow's limit as its
    # answer (phi = inf, delta = 0), and a risk of inf is rejected below,
    # so numpy need not warn about it
    with np.errstate(over="ignore"):
        e = residuals(w, stack) if config.init == INIT_GAUSSIAN else stack.y.copy()
        for it in range(1, config.max_iters + 1):
            cols = update_p(ensemble, e)
            w_next = update_w(stack, sum(cols[1:], cols[0]), config.alpha)
            e_next = residuals(w_next, stack)
            risk = objective(ensemble, e_next, stack)
            finite = np.isfinite(risk) & np.all(np.isfinite(w_next), axis=1)
            for j in np.flatnonzero(active & ~finite):
                errors[j] = NonFiniteObjectiveError(
                    f"objective became non-finite at iteration {it}")
            live = active & finite
            # frozen folds record NaN, which no later comparison can warn on
            risks[it - 1] = np.where(live, risk, np.nan)
            steps[it - 1] = np.max(np.abs(w_next - w), axis=1) if stack.d else 0.0
            if it > 1:
                prev = risks[it - 2]
                converged |= live & (np.abs(prev - risks[it - 1])
                                     <= config.rel_tol * np.maximum(1.0, prev))
            iterations[live] = it
            # frozen folds keep their iterate; the new arrays are taken
            # over, so no second residual array outlives the iteration
            w_next[~live], e_next[~live] = w[~live], e[~live]
            w, e = w_next, e_next
            freeze(cols, np.flatnonzero(live & converged))
            active = live & ~converged
            if not active.any():
                break
        freeze(cols, np.flatnonzero(active))

    models = []
    for j in range(stack.k):
        if j in errors:
            raise errors[j]
        total, loss_sums = weight_sums[j]
        if not np.isfinite(total) or total <= 0.0:
            raise NonFiniteObjectiveError(
                "auxiliary weights sum to zero; every loss redescended on every "
                "sample (check loss scales against the residual magnitude)")
        trace = SolverTrace(
            risks=risks[:iterations[j], j].copy(),
            max_steps=steps[:iterations[j], j].copy(),
            iterations=int(iterations[j]),
            converged=bool(converged[j]),
        )
        models.append(RelfModel(w=w[j].copy(), loss_weights=loss_sums / total,
                                ensemble=ensemble, config=config, trace=trace))
    return models


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

def model_to_dict(model: RelfModel) -> dict:
    """JSON-ready representation of a fitted model."""
    return {
        "schema": MODEL_SCHEMA,
        "w": [float(v) for v in model.w],
        "loss_weights": [float(v) for v in model.loss_weights],
        "ensemble": [{"kind": s.kind, "scale": float(s.scale)}
                     for s in model.ensemble.losses],
        "config": asdict(model.config),
        "trace": None if model.trace is None else {
            "risks": [float(v) for v in model.trace.risks],
            "max_steps": [float(v) for v in model.trace.max_steps],
            "iterations": model.trace.iterations,
            "converged": model.trace.converged,
        },
        "preprocessing": model.preprocessing.to_dict(),
    }


def model_from_dict(payload: dict) -> RelfModel:
    """Inverse of :func:`model_to_dict`.

    Raises :class:`RelfError` for a payload that :func:`model_to_dict`
    could not have written: a missing key, a value of the wrong type, a
    non-finite number, an invalid ensemble or config, or a ``w`` whose
    length disagrees with the scaler width plus the intercept.  A missing
    or empty ``preprocessing`` is the identity.
    """
    if not isinstance(payload, dict):
        raise RelfError("model JSON must be an object")
    if payload.get("schema") != MODEL_SCHEMA:
        raise RelfError(f"unsupported model schema {payload.get('schema')!r}")
    ensemble = EnsembleSpec(tuple(
        LossSpec(kind=json_field(e, "kind", str, "model loss"),
                 scale=float(json_field(e, "scale", float, "model loss")))
        for e in json_field(payload, "ensemble", list, "model")))
    validate_ensemble(ensemble)
    config = SolverConfig.from_dict(json_field(payload, "config", dict, "model"),
                                    "model config")
    w = json_numbers(payload, "w", "model")
    loss_weights = json_numbers(payload, "loss_weights", "model")
    if loss_weights.shape != (ensemble.m,):
        raise RelfError(f"model has {loss_weights.shape[0]} loss weights "
                        f"for {ensemble.m} losses")
    tr = payload.get("trace")
    trace = None if tr is None else SolverTrace(
        risks=json_numbers(tr, "risks", "model trace"),
        max_steps=json_numbers(tr, "max_steps", "model trace"),
        iterations=json_field(tr, "iterations", int, "model trace"),
        converged=json_field(tr, "converged", bool, "model trace"),
    )
    preprocessing = Preprocessing.from_dict(payload.get("preprocessing") or {}, w.shape[0])
    return RelfModel(w=w, loss_weights=loss_weights, ensemble=ensemble,
                     config=config, trace=trace, preprocessing=preprocessing)


def save_model(model: RelfModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> RelfModel:
    return model_from_dict(load_json(path, "model"))
