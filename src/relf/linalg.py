"""Small dense-algebra kernel: jittered SPD solves over a stack of systems.

Right-hand sides are float64 stacks ``(k, d)`` with symmetric matrices
``(k, d, d)`` to match; NaN/Inf are rejected at this entry point.
Everything downstream of the solver funnels its linear solves through here.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .exceptions import DimensionMismatchError, FactorizationError

# alpha floor: alpha=0 is treated as this, keeping the shifted matrix PD
MIN_JITTER = 1e-12


def solve_spd_with_jitter(A, b, alpha: float) -> np.ndarray:
    """Solve ``(A_j + alpha I) w_j = b_j`` by Cholesky for each symmetric
    PSD ``A_j`` of the stack ``A`` (k, d, d), with ``b`` (k, d).

    Each system is factored by LAPACK ``dpotrf`` and solved by ``dpotrs``,
    the routines behind scipy's ``cho_factor``/``cho_solve``.  ``alpha`` is
    floored at ``MIN_JITTER`` so the shifted matrix is strictly positive
    definite whenever ``A_j`` is PSD.  Each solution satisfies
    ``||(A_j + alpha I) w_j - b_j||_inf <= 1e-8 * (1 + ||b_j||_inf)`` on
    reasonably conditioned systems (d up to a few hundred).

    Raises
    ------
    FactorizationError
        If a factorization still fails (``A_j`` indefinite or badly broken).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise DimensionMismatchError("b contains NaN/Inf")
    if A.ndim != 3 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatchError(f"A must be a stack of square matrices, got {A.shape}")
    if A.shape[:-1] != b.shape:
        raise DimensionMismatchError(f"A {A.shape} incompatible with b {b.shape}")
    if not np.all(np.isfinite(A)):
        raise DimensionMismatchError("A contains NaN/Inf")
    alpha = max(float(alpha), MIN_JITTER)
    M = A + alpha * np.eye(A.shape[-1])
    w = np.zeros_like(b)  # a system of 0 columns has the empty solution
    for j in range(len(M) if M.shape[-1] else 0):
        c, info = dpotrf(M[j], lower=True, clean=False)
        if info > 0:
            raise FactorizationError(
                f"Cholesky failed at jitter alpha={alpha:g}: "
                f"{info}-th leading minor of the array is not positive definite")
        w[j] = dpotrs(c, b[j], lower=True)[0]
    return w
