"""Small dense-algebra kernel: jittered SPD solves, one system or a stack.

Right-hand sides are float64 vectors ``(d,)`` or stacks ``(k, d)``, with
symmetric matrices ``(d, d)`` or ``(k, d, d)`` to match; NaN/Inf are
rejected at this entry point.  Everything downstream of the solver funnels
its linear solves through here.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .exceptions import DimensionMismatchError, FactorizationError

# alpha floor: alpha=0 is treated as this, keeping the shifted matrix PD
MIN_JITTER = 1e-12


def solve_spd_with_jitter(A, b, alpha: float) -> np.ndarray:
    """Solve ``(A + alpha I) w = b`` by Cholesky for symmetric PSD ``A``.

    ``A`` is (d, d) with ``b`` (d,), or a stack (k, d, d) with ``b`` (k, d)
    whose systems are solved one by one; each is factored by LAPACK
    ``dpotrf`` and solved by ``dpotrs``, the routines behind scipy's
    ``cho_factor``/``cho_solve``.  ``alpha`` is floored at ``MIN_JITTER`` so
    the shifted matrix is strictly positive definite whenever ``A`` is PSD.
    The returned solution satisfies
    ``||(A + alpha I) w - b||_inf <= 1e-8 * (1 + ||b||_inf)`` on reasonably
    conditioned systems (d up to a few hundred).

    Raises
    ------
    FactorizationError
        If a factorization still fails (``A`` indefinite or badly broken).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2):
        raise DimensionMismatchError(f"b must be 1-D or 2-D, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise DimensionMismatchError("b contains NaN/Inf")
    if A.ndim != b.ndim + 1 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatchError(f"A must be square, got {A.shape}")
    if A.shape[:-1] != b.shape:
        raise DimensionMismatchError(f"A {A.shape} incompatible with b {b.shape}")
    if not np.all(np.isfinite(A)):
        raise DimensionMismatchError("A contains NaN/Inf")
    alpha = max(float(alpha), MIN_JITTER)
    M = A + alpha * np.eye(A.shape[-1])
    if M.ndim == 2:
        return _cholesky_solve(M, b, alpha)
    w = np.empty_like(b)
    for j in range(len(M)):
        w[j] = _cholesky_solve(M[j], b[j], alpha)
    return w


def _cholesky_solve(M: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    if M.size == 0:
        return np.zeros_like(b)
    c, info = dpotrf(M, lower=True, clean=False)
    if info > 0:
        raise FactorizationError(
            f"Cholesky failed at jitter alpha={alpha:g}: "
            f"{info}-th leading minor of the array is not positive definite")
    return dpotrs(c, b, lower=True)[0]
