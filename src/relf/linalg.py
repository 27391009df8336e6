"""Small dense-algebra kernel: jittered SPD solves over a stack of systems.

Right-hand sides are float64 stacks ``(k, d)`` with symmetric matrices
``(k, d, d)`` to match; NaN/Inf are rejected at this entry point.
Everything downstream of the solver funnels its linear solves through here.
numpy's batched ``linalg`` routines do the work, one LAPACK call per system.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError, FactorizationError

# alpha floor: alpha=0 is treated as this, keeping the shifted matrix PD
MIN_JITTER = 1e-12


def solve_spd_with_jitter(A, b, alpha: float) -> np.ndarray:
    """Solve ``(A_j + alpha I) w_j = b_j`` by Cholesky for each symmetric
    PSD ``A_j`` of the stack ``A`` (k, d, d), with ``b`` (k, d).

    ``np.linalg.cholesky`` factors the whole stack as ``L_j L_j^T`` from
    each lower triangle, and two batched ``np.linalg.solve`` calls, on
    ``L`` and on ``L^T``, give the solutions.  numpy runs one LAPACK call
    per system, so each system of a stack gets the bits of its lone solve.
    ``alpha`` is floored at ``MIN_JITTER`` so the shifted matrix is
    strictly positive definite whenever ``A_j`` is PSD.  Each solution
    satisfies ``||(A_j + alpha I) w_j - b_j||_inf <= 1e-8 * (1 + ||b_j||_inf)``
    on reasonably conditioned systems (d up to a few hundred).

    Raises
    ------
    FactorizationError
        If a factorization still fails (``A_j`` indefinite or badly
        broken); the message names the first such system and the jitter.
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
    if not A.shape[-1]:
        return np.zeros_like(b)  # a system of 0 columns has the empty solution
    alpha = max(float(alpha), MIN_JITTER)
    M = A + alpha * np.eye(A.shape[-1])
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # numpy fails the whole batch at once; name the first system at fault
        for j, M_j in enumerate(M):
            try:
                np.linalg.cholesky(M_j)
            except np.linalg.LinAlgError:
                raise FactorizationError(
                    f"Cholesky failed at jitter alpha={alpha:g}: system {j} of {len(M)} "
                    "is not positive definite") from None
        raise
    # b as a stack of one-column matrices: numpy 2 reads a 2-D b as one matrix
    z = np.linalg.solve(L, b[..., None])
    return np.linalg.solve(np.swapaxes(L, -1, -2), z)[..., 0]
