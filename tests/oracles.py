"""Independent reference implementations used to pin expected test values.

Deliberately written in plain Python loops with their own formulas so they
share no code path with the library: Gaussian elimination instead of
Cholesky, per-kind weight formulas instead of the catalog's delta, and
finite differences instead of analytic derivatives.  The exceptions are
:func:`two_matvec_fit`, which pins the solver loop bit for bit and so must
run the library's own P- and w-steps, and :func:`full_gram_update_w`, which
pins the w-step bit for bit and so shares the library's jittered solve.
"""

import csv
import math

import numpy as np


def central_diff(func, x: float, h: float = 1e-6) -> float:
    """Two-sided finite-difference derivative of a scalar function."""
    return (func(x + h) - func(x - h)) / (2.0 * h)


def gauss_solve(A, b):
    """Solve A x = b by Gaussian elimination with partial pivoting."""
    A = [[float(v) for v in row] for row in np.asarray(A, dtype=float)]
    b = [float(v) for v in np.asarray(b, dtype=float)]
    d = len(b)
    for col in range(d):
        piv = max(range(col, d), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, d):
            f = A[r][col] / A[col][col]
            for c in range(col, d):
                A[r][c] -= f * A[col][c]
            b[r] -= f * b[col]
    x = [0.0] * d
    for r in range(d - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, d):
            acc -= A[r][c] * x[c]
        x[r] = acc / A[r][r]
    return np.array(x)


def weighted_ls_oracle(X, y, s, alpha):
    """Weighted least squares (sum_i s_i x_i x_i^T + alpha I) w = sum s_i y_i x_i,
    assembled with explicit loops and solved by Gaussian elimination."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    n, d = X.shape
    A = [[alpha if j == k else 0.0 for k in range(d)] for j in range(d)]
    b = [0.0] * d
    for i in range(n):
        for j in range(d):
            b[j] += s[i] * X[i, j] * y[i]
            for k in range(d):
                A[j][k] += s[i] * X[i, j] * X[i, k]
    return gauss_solve(A, b)


def ols_oracle(X, y, ridge: float = 0.0):
    """Ordinary least squares through the loop-assembled normal equations."""
    return weighted_ls_oracle(X, y, np.ones(np.asarray(X).shape[0]), ridge)


# own statements of the classical IRLS weight functions, one per kind
_IRLS_WEIGHTS = {
    "welsch": lambda e, s: (2.0 / s**2) * math.exp(-((e / s) ** 2)),
    "l1l2": lambda e, s: (1.0 + e * e) ** -0.5,
    "huber": lambda e, s: min(1.0 / (2.0 * s), 1.0 / abs(e)) if e != 0 else 1.0 / (2.0 * s),
    "fair": lambda e, s: s / (s + abs(e)),
    "logcosh": lambda e, s: math.tanh(e) / e if e != 0 else 1.0,
}


def irls_oracle(X, y, kind: str, scale: float, alpha: float, iters: int):
    """Classical IRLS for one M-estimator, starting from w = 0."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    weight = _IRLS_WEIGHTS[kind]
    w = np.zeros(X.shape[1])
    for _ in range(iters):
        e = y - X @ w
        s = np.array([weight(float(v), scale) for v in e])
        w = weighted_ls_oracle(X, y, s, alpha)
    return w


def grid_argmin(func, lo: float, hi: float, num: int = 4001):
    """Minimize a scalar function on a uniform grid; returns (x*, step)."""
    xs = np.linspace(lo, hi, num)
    values = np.array([func(float(x)) for x in xs])
    return float(xs[int(np.argmin(values))]), float(xs[1] - xs[0])


def mc_mean_abs_gaussian(std: float, draws: int = 200_000, seed: int = 1234) -> float:
    """Monte-Carlo estimate of E|z| for z ~ N(0, std^2)."""
    z = np.random.default_rng(seed).normal(0.0, std, size=draws)
    return float(np.mean(np.abs(z)))


def csv_rows_oracle(path, has_header: bool):
    """``(header, rows)`` of a CSV file read with ``csv.reader`` and one
    ``float()`` per cell; rows whose cells are all blank are dropped."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    header = None
    if has_header:
        header = [cell.strip() for cell in rows.pop(0)]
    return header, np.array([[float(cell) for cell in row] for row in rows])


def expression_phi(kind: str, s: float, e):
    """``phi`` of the catalog as one numpy expression per kind, each
    operation making a new array."""
    e = np.asarray(e, dtype=float)
    if kind == "welsch":
        return -np.expm1(-(e * e) / (s * s))
    if kind == "l1l2":
        return np.sqrt(1.0 + e * e) - 1.0
    if kind == "huber":
        a = np.abs(e)
        return np.where(a < 2.0 * s, e * e / (4.0 * s), a - s)
    if kind == "fair":
        r = np.abs(e) / s
        return (s * s) * np.subtract(r, np.log1p(r), out=np.full_like(r, np.inf),
                                     where=~np.isinf(r))
    return np.logaddexp(e, -e) - np.log(2.0)


def expression_delta(kind: str, s: float, e):
    """``delta`` of the catalog as one numpy expression per kind (huber's
    as :func:`two_branch_huber_delta`), each operation making a new array."""
    e = np.asarray(e, dtype=float)
    if kind == "welsch":
        return (2.0 / (s * s)) * np.exp(-(e * e) / (s * s))
    if kind == "l1l2":
        return 1.0 / np.sqrt(1.0 + e * e)
    if kind == "huber":
        return two_branch_huber_delta(e, s)
    if kind == "fair":
        return 1.0 / (1.0 + np.abs(e) / s)
    zero = e == 0.0
    safe = np.where(zero, 1.0, e)
    return np.where(zero, 1.0, np.tanh(safe) / safe)


def two_branch_huber_delta(e, scale: float):
    """Huber's weight as two branches: ``1/(2s)`` where ``|e| < 2s``, else
    ``1/|e|``, with the dead branch's ``1/0`` kept out by a stand-in 1."""
    a = np.abs(np.asarray(e, dtype=float))
    small = a < 2.0 * scale
    safe = np.where(small, 1.0, a)
    return np.where(small, 1.0 / (2.0 * scale), 1.0 / safe)


def two_matvec_fit(ds, ensemble, config):
    """The alternating loop with the residual computed twice per iteration:
    once for the P-step and once more for the risk of the new iterate.
    Returns ``(w, risks, loss_weights)``, the last the column sums of the
    final P over its total."""
    from relf.data import FoldStack
    from relf.losses import phi
    from relf.solver import INIT_GAUSSIAN, update_p, update_w

    if config.init == INIT_GAUSSIAN:
        w = np.random.default_rng(config.init_seed).normal(0.0, config.init_std, size=ds.d)
    else:
        w = np.zeros(ds.d)
    risks, stack = [], FoldStack.of(ds)
    for _ in range(config.max_iters):
        e = ds.y - ds.X @ w
        P = np.stack(update_p(ensemble, e), axis=-1)
        w_next = update_w(stack, P.sum(axis=-1)[None], config.alpha)[0]
        e_next = ds.y - ds.X @ w_next
        risk = float(sum(np.sum(phi(spec, e_next)) for spec in ensemble.losses))
        done = bool(risks) and abs(risks[-1] - risk) <= config.rel_tol * max(1.0, risks[-1])
        risks.append(risk)
        w = w_next
        if done:
            break
    return w, np.asarray(risks), P.sum(axis=0) / float(P.sum())


def full_gram_update_w(stack, s, alpha):
    """The w-step with the whole weighted Gram of each fold in one product,
    ``A = X^T (X * s)``, through a full weighted copy of X; only the
    jittered solve is the library's.  Like ``update_w``, it takes a
    ``FoldStack`` and the weight sums ``s`` shaped like its labels, and
    gives one ``w`` per fold."""
    from relf.linalg import solve_spd_with_jitter

    s = np.asarray(s, dtype=float)
    Xs = stack.X * s[..., None]
    A = stack.X.transpose(0, 2, 1) @ Xs
    A = 0.5 * (A + A.transpose(0, 2, 1))
    b = (Xs.transpose(0, 2, 1) @ stack.y[..., None])[..., 0]
    return solve_spd_with_jitter(A, b, alpha)


def per_fold_cross_validate(ds, method, cv=None, *, contamination=None,
                            scale_features=True, intercept=True, seed_keys=()):
    """The k-fold contamination protocol one fold at a time: every fold gets
    its own ``Dataset``s, its own scaler and its own fit.  Returns
    ``(fold_mae, fold_rmse)``."""
    from dataclasses import replace

    from relf.data import add_intercept, apply_scaler, fit_scaler, inject_outliers
    from relf.data import FoldStack
    from relf.evaluation import CvConfig, RelfMethod, derive_seed, kfold_split
    from relf.solver import fit

    fold_mae, fold_rmse = [], []
    for fold_idx, (tr, te) in enumerate(kfold_split(ds.n, cv or CvConfig())):
        train, test = ds.take(tr), ds.take(te)
        if contamination is not None and contamination.outlier_fraction > 0:
            noise = replace(contamination,
                            seed=derive_seed(contamination.seed, *seed_keys, fold_idx))
            train = inject_outliers(train, noise)
        if scale_features:
            state = fit_scaler(train)
            train, test = apply_scaler(train, state), apply_scaler(test, state)
        if intercept:
            train, test = add_intercept(train), add_intercept(test)
        if isinstance(method, RelfMethod):
            w = fit(train, method.ensemble, method.config).w
        else:
            w = method.fold_weights(FoldStack.of(train))[0]
        err = test.y - test.X @ w
        fold_mae.append(np.mean(np.abs(err)))
        fold_rmse.append(np.sqrt(np.mean(err ** 2)))
    return np.asarray(fold_mae), np.asarray(fold_rmse)
