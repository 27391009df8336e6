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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import linalg
from .data import Dataset, FoldStack, Preprocessing, block_rows, json_dataclass, load_json
from .exceptions import (
    DimensionMismatchError,
    EnsembleError,
    NonFiniteObjectiveError,
    RelfError,
)
from .losses import EnsembleSpec, LossSpec, delta, phi

INIT_ZEROS = "zeros"
INIT_GAUSSIAN = "gaussian"

MODEL_SCHEMA = "relf.model/1"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`fit`.

    alpha : jitter added to the normal equations (floored at 1e-12).
    max_iters : hard cap on alternating iterations.
    rel_tol : stop once ``|R_prev - R| <= rel_tol * max(1, R_prev)``.  With
        0 a fit stops once its risk repeats to the bit, which can happen
        while ``w`` still moves by about 1e-8 relative: no setting runs a
        fixed count of iterations.
    init : ``"zeros"`` (deterministic default) or ``"gaussian"``
        (isotropic N(0, init_std^2), seeded by ``init_seed`` >= 0).

    Every field is checked where the config is built: a bad value raises
    :class:`RelfError` from the constructor, not from :func:`fit`.
    """

    alpha: float = field(default=1e-8, metadata={
        "help": "jitter for the normal equations (default %(default)s)"})
    max_iters: int = 30
    rel_tol: float = 1e-8
    init: str = field(default=INIT_ZEROS, metadata={"choices": (INIT_ZEROS, INIT_GAUSSIAN)})
    init_seed: int = 0
    init_std: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise RelfError(f"alpha must be >= 0, got {self.alpha!r}")
        if self.max_iters < 1:
            raise RelfError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not np.isfinite(self.rel_tol) or self.rel_tol < 0:
            raise RelfError(f"rel_tol must be >= 0, got {self.rel_tol!r}")
        if self.init not in (INIT_ZEROS, INIT_GAUSSIAN):
            raise RelfError(f"init must be 'zeros' or 'gaussian', got {self.init!r}")
        if self.init_seed < 0:
            raise RelfError(f"init_seed must be >= 0, got {self.init_seed!r}")
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
    for folds, designs, count in stack.runs:
        np.matmul(stack.X[designs, :count], w[folds, :, None], out=fitted[folds, :count])
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
    :func:`gram_block_rows` rows, each weighted into one reused buffer as
    wide as the widest run, so no weighted copy of X is made.  A fold whose
    ``A`` or ``b`` is not finite (features near the float range overflow
    the Gram) gets a NaN ``w``, which :func:`fit` reports as
    :class:`NonFiniteObjectiveError`.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != stack.y.shape:
        raise DimensionMismatchError(f"s has shape {s.shape}, expected {stack.y.shape}")
    _, n, d = stack.X.shape
    rows = gram_block_rows(d)
    A = np.zeros((stack.k, d, d))
    b = np.zeros((stack.k, d, 1))
    buf = np.empty((max(f.stop - f.start for f, _, _ in stack.runs), min(rows, n), d))
    for folds, designs, count in stack.runs:
        X, y, sf = stack.X[designs, :count], stack.y[folds, :count, None], s[folds, :count, None]
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
        for folds, _, count in stack.runs:
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
    ``max_iters``, and is then frozen with its own iteration count: it holds
    its ``w`` and the residual its final P came from, so every later P-step
    gives that fold the same P.  The ensemble weights are read once, after
    the loop, off the last P of every fold.  The trace records the risk
    after every w-step; the risk plus ``(alpha/2) |w|^2`` is non-increasing
    (see the module docstring).

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
    if not isinstance(ensemble, EnsembleSpec):
        raise EnsembleError(f"expected EnsembleSpec, got {type(ensemble).__name__}")

    if config.init == INIT_GAUSSIAN:
        rng = np.random.default_rng(config.init_seed)
        w = np.tile(rng.normal(0.0, config.init_std, size=stack.d), (stack.k, 1))
    else:
        w = np.zeros((stack.k, stack.d))

    risks, steps = [], []  # one (k,) row per iteration
    iterations = np.zeros(stack.k, dtype=int)
    failed = np.zeros(stack.k, dtype=int)  # iteration a fold went non-finite at, or 0
    converged = np.zeros(stack.k, dtype=bool)
    active = np.ones(stack.k, dtype=bool)

    # a residual whose square overflows has the overflow's limit as its
    # answer (phi = inf, delta = 0), an infinite weight times 0 a NaN ``w``
    # (see update_w), and both are rejected below: numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        e = residuals(w, stack) if config.init == INIT_GAUSSIAN else stack.y.copy()
        for it in range(1, config.max_iters + 1):
            cols = update_p(ensemble, e)
            w_next = update_w(stack, sum(cols[1:], cols[0]), config.alpha)
            e_next = residuals(w_next, stack)
            risk = objective(ensemble, e_next, stack)
            finite = np.isfinite(risk) & np.all(np.isfinite(w_next), axis=1)
            failed[active & ~finite] = it
            live = active & finite
            # frozen folds record NaN, which no later comparison can warn on
            risks.append(np.where(live, risk, np.nan))
            steps.append(np.max(np.abs(w_next - w), axis=1) if stack.d else np.zeros(stack.k))
            if it > 1:
                prev = risks[-2]
                converged |= live & (np.abs(prev - risks[-1])
                                     <= config.rel_tol * np.maximum(1.0, prev))
            iterations[live] = it
            active = live & ~converged
            # a frozen fold keeps its iterate and the residual its final P
            # came from, so every later P-step gives that P again; the new
            # arrays are taken over, so no second residual array outlives
            # the iteration
            w_next[~live], e_next[~active] = w[~live], e[~active]
            w, e = w_next, e_next
            if not active.any():
                break
        # lambda's column masses, read once off every fold's final P
        totals, loss_sums = np.empty(stack.k), np.empty((stack.k, ensemble.m))
        for folds, _, count in stack.runs:
            P = np.stack([c[folds, :count] for c in cols], axis=-1)
            totals[folds], loss_sums[folds] = P.sum(axis=(1, 2)), P.sum(axis=1)
    risks, steps = np.array(risks), np.array(steps)

    models = []
    for j in range(stack.k):
        if failed[j]:
            raise NonFiniteObjectiveError(
                f"objective became non-finite at iteration {failed[j]}")
        if not np.isfinite(totals[j]) or totals[j] <= 0.0:
            raise NonFiniteObjectiveError(
                "auxiliary weights sum to zero; every loss redescended on every "
                "sample (check loss scales against the residual magnitude)")
        trace = SolverTrace(
            risks=risks[:iterations[j], j].copy(),
            max_steps=steps[:iterations[j], j].copy(),
            iterations=int(iterations[j]),
            converged=bool(converged[j]),
        )
        models.append(RelfModel(w=w[j].copy(), loss_weights=loss_sums[j] / totals[j],
                                ensemble=ensemble, config=config, trace=trace))
    return models


def predict(model: RelfModel, ds: Dataset) -> np.ndarray:
    """``model``'s predictions for the raw features ``ds``: its design under
    ``model.preprocessing`` times ``w``, written a row block at a time into
    one buffer (:meth:`Preprocessing.write`), so no design is made.  Blocks
    of a multiple of 8 rows keep the whole product's bits with one BLAS
    thread.  Raises :meth:`Preprocessing.write`'s errors, then
    :class:`DimensionMismatchError` for a design other than ``w`` wide."""
    pre, w = model.preprocessing, model.w
    width = pre.write(ds, rows=[]).shape[1]  # write's own errors come first
    if width != w.shape[0]:
        raise DimensionMismatchError(
            f"X has shape {(ds.n, width)}, model expects {w.shape[0]} columns")
    step = block_rows(width)
    # a lone last row would be a dot product, with other bits: the block
    # before it takes it in
    bounds = [*range(0, max(ds.n - 1, 1), step), ds.n]
    buf = np.empty((min(step + 1, ds.n), width))
    yhat = np.empty(ds.n)
    for start, stop in zip(bounds, bounds[1:]):
        np.matmul(pre.write(ds, np.arange(start, stop), out=buf[:stop - start]), w,
                  out=yhat[start:stop])
    return yhat


def decrease_ratio(trace: SolverTrace) -> float | None:
    """Share of the total risk drop achieved by iteration 10:
    ``(R(1) - R(10)) / (R(1) - R(30))`` with 1-based iteration indices.

    A trace that converged before iteration 30 keeps its last risk (the
    objective is constant past convergence); a trace shorter than 30 that
    did not converge gives None.  A flat trace gives 1.0.
    """
    risks = trace.risks
    if len(risks) < 30 and not trace.converged:
        return None
    r1, r10, r30 = (float(risks[min(i, len(risks)) - 1]) for i in (1, 10, 30))
    span = r1 - r30
    return (r1 - r10) / span if span != 0.0 else 1.0


# --- model (de)serialization ------------------------------------------------

#: How far a model file's ``loss_weights`` may sum from 1.
LOSS_WEIGHTS_TOL = 1e-9


@dataclass
class _ModelFile(RelfModel):
    """A model file's top level: a :class:`RelfModel` with its ``schema``,
    read with its ensemble as the list of its losses.

    Each level's class checks its own keys, JSON types and values.  This
    one checks what :func:`fit` guarantees across levels: one non-negative
    loss weight per loss, summing to 1 within :data:`LOSS_WEIGHTS_TOL`; a
    trace of ``iterations`` risks and steps, ``1 <= iterations <=
    config.max_iters``; and scaler ranges as wide as ``w`` but the
    intercept.
    """

    ensemble: list
    schema: str = MODEL_SCHEMA

    def __post_init__(self):
        if self.schema != MODEL_SCHEMA:
            raise RelfError(f"unsupported model schema {self.schema!r}")
        self.ensemble = EnsembleSpec([json_dataclass(LossSpec, loss, "model loss")
                                      for loss in self.ensemble])
        lam = self.loss_weights
        if lam.shape != (self.ensemble.m,):
            raise RelfError(f"model has {lam.shape[0]} loss weights "
                            f"for {self.ensemble.m} losses")
        if np.any(lam < 0) or not abs(lam.sum() - 1.0) <= LOSS_WEIGHTS_TOL:
            raise RelfError(f"model loss weights must be non-negative and sum to 1 "
                            f"within {LOSS_WEIGHTS_TOL:g}")
        trace = self.trace
        if trace is not None and not (
                len(trace.risks) == len(trace.max_steps) == trace.iterations
                and 1 <= trace.iterations <= self.config.max_iters):
            raise RelfError(f"model trace has {len(trace.risks)} risks and "
                            f"{len(trace.max_steps)} steps for {trace.iterations} "
                            f"iterations of at most {self.config.max_iters}")
        scaler, intercept = self.preprocessing.scaler, self.preprocessing.intercept
        if scaler is not None:
            lo, hi = scaler.feature_min.shape[0], scaler.feature_max.shape[0]
            if lo != hi:
                raise RelfError(f"model scaler has {lo} minima and {hi} maxima")
            if self.w.shape[0] != lo + intercept:
                raise RelfError(f"model has {self.w.shape[0]} weights, but its "
                                f"preprocessing yields {lo + intercept} columns")


def save_model(model: RelfModel, path) -> None:
    """Write ``model`` as a model file: :func:`dataclasses.asdict` of it,
    arrays as lists, its ensemble the list of its losses, plus the
    ``schema``."""
    payload = asdict(model)
    payload.update(schema=MODEL_SCHEMA, ensemble=payload["ensemble"]["losses"])
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda a: a.tolist())
        fh.write("\n")


def load_model(path) -> RelfModel:
    """The model in the file at ``path``, every level read by
    :func:`data.json_dataclass`; :class:`RelfError` for a file that
    :func:`save_model` could not have written (see :class:`_ModelFile`)."""
    file = json_dataclass(_ModelFile, load_json(path, "model"), "model")
    return RelfModel(**{f.name: getattr(file, f.name) for f in fields(RelfModel)})
