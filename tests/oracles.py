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


def two_matvec_fit(ds, ensemble, config):
    """The alternating loop with the residual computed twice per iteration:
    once for the P-step and once more for the risk of the new iterate.
    Returns ``(w, risks)``."""
    from relf.losses import phi
    from relf.solver import INIT_GAUSSIAN, update_p, update_w

    if config.init == INIT_GAUSSIAN:
        w = np.random.default_rng(config.init_seed).normal(0.0, config.init_std, size=ds.d)
    else:
        w = np.zeros(ds.d)
    risks = []
    for _ in range(config.max_iters):
        e = ds.y - ds.X @ w
        w_next = update_w(ds, update_p(ensemble, e), config.alpha)
        e_next = ds.y - ds.X @ w_next
        risk = float(sum(np.sum(phi(spec, e_next)) for spec in ensemble.losses))
        done = bool(risks) and abs(risks[-1] - risk) <= config.rel_tol * max(1.0, risks[-1])
        risks.append(risk)
        w = w_next
        if done:
            break
    return w, np.asarray(risks)


def full_gram_update_w(ds, P, alpha):
    """The w-step with the whole weighted Gram in one product,
    ``A = X^T (X * s)``, through a full n x d weighted copy of X; only the
    jittered solve is the library's."""
    from relf.linalg import solve_spd_with_jitter

    s = np.asarray(P, dtype=float).sum(axis=1)
    Xs = ds.X * s[:, None]
    A = ds.X.T @ Xs
    A = 0.5 * (A + A.T)
    b = Xs.T @ ds.y
    return solve_spd_with_jitter(A, b, alpha)
