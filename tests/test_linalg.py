import numpy as np
import pytest
from numpy.testing import assert_allclose

import scipy.linalg

from relf import solve_spd_with_jitter
from relf.exceptions import DimensionMismatchError, FactorizationError

from oracles import gauss_solve


def _random_spd(d, seed):
    M = np.random.default_rng(seed).standard_normal((d, d))
    return M.T @ M + np.eye(d)


def _solve_one(A, b, alpha):
    """The solution of one system, through a one-system stack."""
    return solve_spd_with_jitter(np.asarray(A, dtype=float)[None],
                                 np.asarray(b, dtype=float)[None], alpha)[0]


def test_nonfinite_rejected():
    with pytest.raises(DimensionMismatchError):
        _solve_one(np.eye(2), (np.nan, 1.0), 1e-8)
    with pytest.raises(DimensionMismatchError):
        _solve_one(np.array([[np.inf]]), [1.0], 1e-8)


class TestSolve:
    def test_identity_system(self):
        w = _solve_one(np.eye(3), (1.0, 2.0, 3.0), 0.0)
        assert_allclose(w, [1.0, 2.0, 3.0], rtol=1e-9)

    def test_pure_ridge(self):
        w = _solve_one(np.zeros((2, 2)), (1.0, 0.0), 0.5)
        assert_allclose(w, [2.0, 0.0], rtol=1e-12)

    def test_near_singular_sensitivity(self):
        # the rank-deficient direction is resolved purely by the jitter
        A = np.array([[2.0, 0.0], [0.0, 0.0]])
        w = _solve_one(A, (2.0, 1.0), 1e-8)
        assert_allclose(w[0], 1.0, rtol=1e-6)
        assert_allclose(w[1], 1e8, rtol=1e-4)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_matches_gaussian_elimination_oracle(self, d, seed):
        A = _random_spd(d, seed)
        b = np.random.default_rng(seed + 100).standard_normal(d)
        alpha = 1e-10
        w = _solve_one(A, b, alpha)
        ref = gauss_solve(A + alpha * np.eye(d), b)
        assert_allclose(w, ref, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 10, 50])
    def test_residual_contract(self, d):
        A = _random_spd(d, d)
        b = np.random.default_rng(d).standard_normal(d)
        alpha = 1e-10
        w = _solve_one(A, b, alpha)
        assert np.max(np.abs(A @ w - b)) <= 1e-6
        shifted = A + alpha * np.eye(d)
        assert np.max(np.abs(shifted @ w - b)) <= 1e-8 * (1 + np.max(np.abs(b)))

    def test_indefinite_raises(self):
        A = np.array([[-5.0, 0.0], [0.0, 1.0]])
        with pytest.raises(FactorizationError):
            _solve_one(A, (1.0, 1.0), 1e-8)

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatchError):
            _solve_one(np.zeros((2, 3)), (1.0, 2.0), 1e-8)
        with pytest.raises(DimensionMismatchError):
            _solve_one(np.eye(2), (1.0, 2.0, 3.0), 1e-8)


class TestStackedSolve:
    """A (k, d, d) stack is solved system by system, with the numbers of
    scipy's ``cho_factor``/``cho_solve`` on each."""

    @pytest.mark.parametrize("d", [1, 4, 12])
    def test_matches_cho_solve_bit_for_bit(self, d):
        A = np.stack([_random_spd(d, seed) for seed in range(5)])
        b = np.random.default_rng(d).standard_normal((5, d))
        w = solve_spd_with_jitter(A, b, 1e-8)
        for j in range(5):
            M = A[j] + 1e-8 * np.eye(d)
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M, lower=True), b[j])
            assert np.array_equal(w[j], ref)
            assert np.array_equal(_solve_one(A[j], b[j], 1e-8), ref)

    def test_one_indefinite_system_fails_the_stack(self):
        A = np.stack([np.eye(2), np.array([[-5.0, 0.0], [0.0, 1.0]])])
        with pytest.raises(FactorizationError):
            solve_spd_with_jitter(A, np.ones((2, 2)), 1e-8)

    def test_shape_errors(self):
        with pytest.raises(DimensionMismatchError):
            solve_spd_with_jitter(np.stack([np.eye(2)] * 3), np.ones((2, 2)), 1e-8)
        with pytest.raises(DimensionMismatchError):
            solve_spd_with_jitter(np.eye(2), np.ones((1, 2)), 1e-8)
        with pytest.raises(DimensionMismatchError):
            solve_spd_with_jitter(np.ones((1, 1, 2, 2)), np.ones((1, 1, 2)), 1e-8)
        with pytest.raises(DimensionMismatchError):  # one system needs a stack of one
            solve_spd_with_jitter(np.eye(2), np.ones(2), 1e-8)
