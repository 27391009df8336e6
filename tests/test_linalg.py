import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import scipy.linalg

from relf import solve_spd_with_jitter
from relf.linalg import MIN_JITTER
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
    """A (k, d, d) stack is solved by numpy's batched routines, one LAPACK
    call per system, so each system gets the bits of its lone solve."""

    @pytest.mark.parametrize("d", [1, 4, 12])
    def test_matches_cho_solve(self, d):
        A = np.stack([_random_spd(d, seed) for seed in range(5)])
        b = np.random.default_rng(d).standard_normal((5, d))
        w = solve_spd_with_jitter(A, b, 1e-8)
        for j in range(5):
            M = A[j] + 1e-8 * np.eye(d)
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M, lower=True), b[j])
            assert_allclose(w[j], ref, rtol=1e-12, atol=0.0)
            assert np.max(np.abs(M @ w[j] - b[j])) <= 1e-8 * (1 + np.max(np.abs(b[j])))

    @pytest.mark.parametrize("d", [1, 4, 12])
    def test_each_system_gets_its_lone_bits(self, d):
        # fit_folds gives each fold a lone fit's bits only if this holds
        A = np.stack([_random_spd(d, seed) for seed in range(5)])
        b = np.random.default_rng(d).standard_normal((5, d))
        w = solve_spd_with_jitter(A, b, 1e-8)
        for j in range(5):
            assert np.array_equal(w[j], _solve_one(A[j], b[j], 1e-8))

    def test_square_stack_reads_b_as_vectors(self):
        # numpy 2's solve reads a 2-D b as one matrix, so with k == d a
        # (k, d) b must be passed as k one-column matrices
        A = np.stack([_random_spd(3, seed) for seed in range(3)])
        b = np.random.default_rng(3).standard_normal((3, 3))
        w = solve_spd_with_jitter(A, b, 1e-8)
        for j in range(3):
            assert np.array_equal(w[j], _solve_one(A[j], b[j], 1e-8))
            assert_allclose(w[j], gauss_solve(A[j] + 1e-8 * np.eye(3), b[j]), rtol=1e-10)

    def test_error_names_the_first_indefinite_system(self):
        A = np.stack([_random_spd(3, seed) for seed in range(4)])
        A[2] = np.diag([1.0, -5.0, 1.0])
        with pytest.raises(FactorizationError,
                           match=r"alpha=1e-08: system 2 of 4 is not positive definite"):
            solve_spd_with_jitter(A, np.ones((4, 3)), 1e-8)

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


@st.composite
def _spd_stacks(draw):
    """``(A, b, alpha)``: a stack of k symmetric positive definite d x d
    systems, each scaled by its own magnitude in [1e-3, 1e3], and the
    right-hand sides likewise."""
    k, d = draw(st.integers(1, 12)), draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = st.floats(1e-3, 1e3)
    a_scale = np.array([draw(magnitude) for _ in range(k)])
    b_scale = np.array([draw(magnitude) for _ in range(k)])
    G = rng.standard_normal((k, d, d))
    A = a_scale[:, None, None] * (G.swapaxes(-1, -2) @ G + np.eye(d))
    b = b_scale[:, None] * rng.standard_normal((k, d))
    return A, b, draw(st.floats(0.0, 1.0))


class TestSolveProperties:
    @settings(max_examples=150, deadline=None)
    @given(_spd_stacks())
    def test_residual_contract(self, case):
        A, b, alpha = case
        w = solve_spd_with_jitter(A, b, alpha)
        assert w.shape == b.shape
        if b.shape[1] == 0:  # a system of 0 columns has the empty solution
            return
        shifted = A + max(alpha, MIN_JITTER) * np.eye(A.shape[-1])
        resid = np.max(np.abs(shifted @ w[..., None] - b[..., None]), axis=(1, 2))
        assert np.all(resid <= 1e-8 * (1 + np.max(np.abs(b), axis=1)))

    @settings(max_examples=150, deadline=None)
    @given(_spd_stacks())
    def test_each_system_gets_its_lone_bits(self, case):
        A, b, alpha = case
        w = solve_spd_with_jitter(A, b, alpha)
        for j in range(len(A)):
            assert np.array_equal(w[j], _solve_one(A[j], b[j], alpha))
