import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relf import (
    Dataset,
    EnsembleSpec,
    FoldStack,
    LossSpec,
    NoiseConfig,
    Preprocessing,
    RelfModel,
    ScalerState,
    SolverConfig,
    SolverTrace,
    decrease_ratio,
    fit,
    fit_folds,
    load_model,
    objective,
    parse_ensemble,
    predict,
    residuals,
    save_model,
    synth_line,
    update_p,
    update_w,
)
from relf.data import NOISE_GAUSSIAN
from relf.exceptions import (
    DegenerateTraceWarning,
    DimensionMismatchError,
    NonFiniteObjectiveError,
    RelfError,
)
from relf import solver
from relf.losses import KINDS

from oracles import (
    full_gram_update_w,
    irls_oracle,
    ols_oracle,
    two_matvec_fit,
    weighted_ls_oracle,
)

SQRT_HALF = math.sqrt(0.5)


def _random_ds(n, d, seed, outliers=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d) * 2.0
    y = X @ w + rng.standard_normal(n)
    if outliers:
        idx = rng.choice(n, size=max(1, n // 10), replace=False)
        y[idx] += rng.choice([-1.0, 1.0], size=idx.size) * 25.0
    return Dataset(X=X, y=y)


class TestResiduals:
    def test_examples(self):
        assert residuals([[2.0]], FoldStack.of(Dataset(X=[[3.0]], y=[6.0])))[0, 0] == 0.0
        assert_allclose(residuals([[0.0]], FoldStack.of(Dataset(X=[[1.0], [2.0]], y=[5.0, 3.0]))),
                        [[5.0, 3.0]])
        assert residuals([[1.0, 1.0]], FoldStack.of(Dataset(X=[[2.0, 3.0]], y=[10.0])))[0, 0] == 5.0

    def test_dimension_error(self):
        stack = FoldStack.of(Dataset(X=[[1.0]], y=[1.0]))
        with pytest.raises(DimensionMismatchError):
            residuals([[1.0, 2.0]], stack)
        with pytest.raises(DimensionMismatchError):  # one w per fold, (k, d)
            residuals([1.0], stack)


class TestUpdateP:
    def test_single_l1l2_at_zero(self):
        P = update_p(EnsembleSpec((LossSpec("l1l2"),)), [0.0])
        assert_allclose(P, [[1.0]])  # one column, one residual

    def test_two_losses_at_zero(self):
        ens = EnsembleSpec((LossSpec("welsch", SQRT_HALF), LossSpec("l1l2")))
        assert_allclose(update_p(ens, [0.0]), [[4.0], [1.0]])  # P's columns

    def test_welsch_downweights_large_residual(self):
        P = update_p(EnsembleSpec((LossSpec("welsch", 1.0),)), [100.0])
        assert P[0][0] <= 1e-12

    def test_shape(self):
        ens = parse_ensemble("welsch,l1l2,huber")
        assert [c.shape for c in update_p(ens, np.zeros(7))] == [(7,)] * 3


class TestUpdateW:
    def test_exact_line(self):
        stack = FoldStack.of(Dataset(X=[[1.0], [2.0]], y=[2.0, 4.0]))
        w = update_w(stack, np.ones((1, 2)), 1e-12)
        assert_allclose(w, [[2.0]], rtol=1e-9)

    def test_downweighted_outlier_ignored(self):
        stack = FoldStack.of(Dataset(X=[[1.0], [1.0]], y=[2.0, 100.0]))
        w = update_w(stack, np.array([[1.0, 1e-15]]), 1e-8)
        assert_allclose(w, [[2.0]], atol=1e-6)

    def test_scalar_formula(self):
        stack = FoldStack.of(Dataset(X=[[1.0]], y=[3.0]))
        w = update_w(stack, np.array([[2.0]]), 1e-8)
        assert_allclose(w, [[2.0 * 3.0 / (2.0 + 1e-8)]], rtol=1e-12)

    def test_against_weighted_oracle(self):
        rng = np.random.default_rng(4)
        ds = _random_ds(40, 3, 4)
        s = rng.random(40) + 0.1
        w = update_w(FoldStack.of(ds), s[None], 1e-10)[0]
        assert_allclose(w, weighted_ls_oracle(ds.X, ds.y, s, 1e-10),
                        rtol=1e-8, atol=1e-10)

    def test_shape_guard(self):
        stack = FoldStack.of(Dataset(X=[[1.0]], y=[1.0]))
        with pytest.raises(DimensionMismatchError):
            update_w(stack, np.ones((1, 3)), 1e-8)
        with pytest.raises(DimensionMismatchError):  # s is shaped like stack.y
            update_w(stack, np.ones(1), 1e-8)


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBlockedUpdateW:
    """``update_w`` sums the Gram over row blocks; the one-product oracle
    is the reference."""

    @staticmethod
    def _problem(n, d, seed):
        """A one-fold stack and its weight sums ``s``, (1, n)."""
        ds = _random_ds(n, d, seed)
        P = np.random.default_rng(seed + 100).random((n, 3)) + 0.05
        return FoldStack.of(ds), P.sum(axis=-1)[None]

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_matches_full_gram(self, d, blocks, extra):
        rows = solver.gram_block_rows(d)
        n = blocks * rows + extra
        ds, s = self._problem(n, d, seed=d)
        w = update_w(ds, s, 1e-8)
        ref = full_gram_update_w(ds, s, 1e-8)
        assert _rel_err(w, ref) <= 1e-12
        if n <= rows:  # one block: the same products as the oracle, bit for bit
            assert np.array_equal(w, ref)

    def test_wide_design_blocks_of_d_rows(self):
        d = 200
        assert solver.gram_block_rows(d) == d
        ds, s = self._problem(3 * d + 7, d, seed=5)
        assert _rel_err(update_w(ds, s, 1e-8), full_gram_update_w(ds, s, 1e-8)) <= 1e-12

    @pytest.mark.parametrize("n", [10, 41])
    def test_one_row_blocks(self, monkeypatch, n):
        # blocks never have fewer than 128 rows at the real block size, so
        # shrink it
        monkeypatch.setattr(solver, "GRAM_BLOCK_ELEMS", 1)
        assert solver.gram_block_rows(1) == 1
        ds, s = self._problem(n, 1, seed=n)
        assert _rel_err(update_w(ds, s, 1e-8), full_gram_update_w(ds, s, 1e-8)) <= 1e-12

    def test_zero_weight_block(self):
        d = 6
        rows = solver.gram_block_rows(d)
        ds, s = self._problem(3 * rows + 7, d, seed=7)
        s[:, rows:2 * rows] = 0.0
        assert _rel_err(update_w(ds, s, 1e-8), full_gram_update_w(ds, s, 1e-8)) <= 1e-12

    def test_no_weighted_copy_of_x(self):
        n, d = 200_000, 8
        ds, s = self._problem(n, d, seed=3)
        update_w(ds, s, 1e-8)  # warm up lazy imports and BLAS buffers
        tracemalloc.start()
        try:
            update_w(ds, s, 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # s alone is n * 8 bytes; the full-Gram form adds n * d * 8
        assert peak < n * d * 8 / 4

    def test_fit_trace_matches_full_gram_fit(self, monkeypatch):
        ds = _random_ds(3 * solver.gram_block_rows(5) + 7, 5, 11, outliers=True)
        ens = parse_ensemble("welsch,l1l2,huber")
        config = SolverConfig(rel_tol=0.0, max_iters=10)
        model = fit(ds, ens, config)
        monkeypatch.setattr(solver, "update_w", full_gram_update_w)
        ref = fit(ds, ens, config)
        assert_allclose(model.trace.risks, ref.trace.risks, rtol=1e-12, atol=0)
        assert _rel_err(model.w, ref.w) <= 1e-12


# distinct losses enough for ensembles of up to 7
_SPEC_POOL = tuple(LossSpec(kind, scale) for kind, scale in (
    ("welsch", 0.5), ("welsch", 2.0), ("l1l2", 1.0), ("huber", 0.5), ("huber", 1.5),
    ("fair", 1.0), ("fair", 3.0), ("logcosh", 1.0)))


class TestStackedSteps:
    """Every step on a ``FoldStack`` gives each fold the numbers it gets
    on its own, bit for bit."""

    @staticmethod
    def _stack(k, n, d, seed):
        parts = [_random_ds(n, d, seed + j, outliers=True) for j in range(k)]
        return parts, FoldStack(np.stack([p.X for p in parts]),
                                np.stack([p.y for p in parts]), np.full(k, n))

    @pytest.mark.parametrize("n, d", [(40, 1), (90, 4), (3 * 512 + 7, 32)])
    def test_steps_match_lone_folds(self, n, d):
        parts, stack = self._stack(4, n, d, seed=n)
        ens = parse_ensemble("welsch,l1l2,huber")
        W = np.random.default_rng(d).standard_normal((4, d))
        E = residuals(W, stack)
        P = np.stack(update_p(ens, E), axis=-1)
        S = P.sum(axis=-1)
        w = update_w(stack, S, 1e-8)
        risk = objective(ens, E, stack)
        for j, part in enumerate(parts):
            lone = FoldStack.of(part)
            e = residuals(W[j:j + 1], lone)
            assert np.array_equal(E[j], e[0])
            assert np.array_equal(P[j], np.stack(update_p(ens, e[0]), axis=-1))
            assert np.array_equal(w[j], update_w(lone, S[j:j + 1], 1e-8)[0])
            assert risk[j] == objective(ens, e, lone)[0]

    def test_nonfinite_fold_gets_nan_alone(self):
        parts, stack = self._stack(3, 5, 2, seed=1)
        stack.X[1, :, 0] = np.arange(5) * 1e300
        s = np.ones((3, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                w = update_w(stack, s, 1e-8)
        assert np.all(np.isnan(w[1]))
        for j in (0, 2):
            assert np.array_equal(w[j], update_w(FoldStack.of(parts[j]), s[j:j + 1], 1e-8)[0])

    @given(losses=st.lists(st.sampled_from(_SPEC_POOL), min_size=1, max_size=7, unique=True),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_weight_sum_is_the_row_sum_of_p(self, losses, seed):
        # the loop adds P's columns; up to 7 losses that is P.sum(axis=-1)
        # bit for bit, on every iteration of every fold, padded ones too
        parts, stack = self._stack(3, 30, 3, seed=seed)
        stack.X[2, 26:], stack.y[2, 26:] = 0.0, 0.0
        stack = replace(stack, counts=np.array([30, 30, 26]))
        seen = []

        def spy_p(ensemble, e):
            seen.append(update_p(ensemble, e))
            return seen[-1]

        def spy_w(ds, s, alpha):
            seen.append(s)
            return update_w(ds, s, alpha)

        with mock.patch.object(solver, "update_p", spy_p), \
                mock.patch.object(solver, "update_w", spy_w):
            fit_folds(stack, EnsembleSpec(tuple(losses)), SolverConfig(max_iters=4))
        assert len(seen) >= 2
        for cols, s in zip(seen[::2], seen[1::2]):
            assert len(cols) == len(losses)
            assert np.array_equal(s, np.stack(cols, axis=-1).sum(axis=-1))

    def test_fit_folds_raise_the_first_failing_fold(self):
        parts, stack = self._stack(3, 30, 2, seed=4)
        stack.X[2, :, 0] = np.arange(30) * 1e300
        stack.y[1] = 1e4  # welsch at scale 0.01 drops every sample of fold 1
        with pytest.raises(NonFiniteObjectiveError, match="sum to zero"):
            fit_folds(stack, parse_ensemble("welsch:0.01"))
        with pytest.raises(NonFiniteObjectiveError, match="at iteration 1$"):
            fit_folds(stack, parse_ensemble("l1l2"))

    @pytest.mark.parametrize("config", [
        SolverConfig(), SolverConfig(max_iters=8), SolverConfig(rel_tol=0.0, max_iters=6)])
    def test_frozen_folds_keep_their_own_weights(self, config):
        # folds freeze alone or as slices of adjacent folds of one row count,
        # some padded: at two or more iterations (at max_iters 8, four are
        # still live when the loop ends), or all at the end (rel_tol 0); each
        # keeps the ensemble weights of its own final P
        rng = np.random.default_rng(5)
        counts = np.array([40, 40, 40, 33, 33, 40, 25])
        parts = []
        for j, n in enumerate(counts):
            ds = _random_ds(int(n), 2, 100 + j, outliers=j % 2 == 0)
            parts.append(Dataset(X=ds.X * rng.uniform(0.1, 10.0), y=ds.y))
        if config.rel_tol:
            parts[1], parts[4] = parts[0], parts[3]  # two pairs that converge together
        X, y = np.zeros((len(counts), 40, 2)), np.zeros((len(counts), 40))
        for j, part in enumerate(parts):
            X[j, :part.n], y[j, :part.n] = part.X, part.y
        ens = parse_ensemble("welsch:2,l1l2,fair")
        models = fit_folds(FoldStack(X, y, counts), ens, config)
        assert len({m.trace.iterations for m in models}) >= (2 if config.rel_tol else 1)
        for model, part in zip(models, parts):
            w, _, loss_weights = two_matvec_fit(part, ens, config)
            assert np.array_equal(model.loss_weights, loss_weights)
            assert np.array_equal(model.w, w)


class TestZeroStart:
    """The zero start takes ``e = y`` and no ``y - X 0`` pass, with the
    bits of a loop that makes that pass."""

    @staticmethod
    def _padded_stack(seed):
        # folds of 30, 30 and 26 rows: the last one padded
        parts = [_random_ds(n, 3, seed + j, outliers=True) for j, n in enumerate((30, 30, 26))]
        X, y = np.zeros((3, 30, 3)), np.zeros((3, 30))
        for j, part in enumerate(parts):
            X[j, :part.n], y[j, :part.n] = part.X, part.y
        return parts, FoldStack(X, y, np.array([30, 30, 26]))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_y_minus_x0_loop(self, seed):
        parts, stack = self._padded_stack(seed)
        ens = parse_ensemble("welsch,l1l2,huber:0.5")
        for config in (SolverConfig(), SolverConfig(rel_tol=0.0, max_iters=8)):
            for model, part in zip(fit_folds(stack, ens, config), parts):
                w, risks, _ = two_matvec_fit(part, ens, config)  # starts from y - X 0
                assert np.array_equal(model.w, w)
                assert np.array_equal(model.trace.risks, risks)

    @pytest.mark.parametrize("init, extra", [("zeros", 0), ("gaussian", 1)])
    def test_one_residual_per_iteration_after_the_start(self, init, extra):
        # the zero start computes no residual before its first P-step
        _, stack = self._padded_stack(7)
        seen = []

        def spy(w, st):
            seen.append(np.array(w))
            return residuals(w, st)

        with mock.patch.object(solver, "residuals", spy):
            models = fit_folds(stack, parse_ensemble("welsch,l1l2"), SolverConfig(init=init))
        assert len(seen) == max(m.trace.iterations for m in models) + extra
        assert init == "gaussian" or not any(np.all(w == 0.0) for w in seen)


class TestObjective:
    def test_perfect_fit(self):
        stack = FoldStack.of(Dataset(X=[[1.0], [2.0]], y=[3.0, 6.0]))
        risk = objective(EnsembleSpec((LossSpec("l1l2"),)), residuals([[3.0]], stack), stack)
        assert risk.shape == (1,) and risk[0] == 0.0

    def test_single_sample_closed_form(self):
        stack = FoldStack.of(Dataset(X=[[1.0]], y=[math.sqrt(3.0)]))
        assert_allclose(objective(EnsembleSpec((LossSpec("l1l2"),)),
                                  residuals([[0.0]], stack), stack),
                        [1.0], rtol=1e-12)

    def test_sum_over_losses(self):
        stack = FoldStack.of(Dataset(X=[[1.0], [1.0]], y=[0.0, math.sqrt(3.0)]))
        ens = EnsembleSpec((LossSpec("l1l2"), LossSpec("logcosh")))
        expected = 1.0 + math.log(math.cosh(math.sqrt(3.0)))
        assert_allclose(objective(ens, residuals([[0.0]], stack), stack), [expected],
                        rtol=1e-12)

    @pytest.mark.parametrize("e", [[[1.0, 2.0, 3.0, 100.0]], [[1.0, 2.0, 3.0]] * 2,
                                   [1.0, 2.0, 3.0]])
    def test_residuals_must_be_shaped_like_the_labels(self, e):
        stack = FoldStack.of(Dataset(X=np.ones((3, 1)), y=[1.0, 2.0, 3.0]))
        ens = parse_ensemble("welsch,l1l2")
        with pytest.raises(DimensionMismatchError, match=r"expected \(1, 3\)$"):
            objective(ens, e, stack)


class TestFit:
    @pytest.mark.parametrize("kind", KINDS)
    def test_noise_free_line_single_loss(self, kind):
        model = fit(synth_line(), EnsembleSpec((LossSpec(kind, 1.0),)))
        assert_allclose(model.w, [2.0], atol=1e-6)
        assert model.trace.iterations <= 3
        assert model.trace.converged

    def test_noise_free_line_trio(self):
        model = fit(synth_line(), parse_ensemble("welsch,l1l2,huber"))
        assert_allclose(model.w, [2.0], atol=1e-6)
        assert model.trace.iterations <= 3

    def test_simplex_on_fitted_models(self):
        for seed in range(5):
            ds = _random_ds(60, 4, seed, outliers=True)
            model = fit(ds, parse_ensemble("welsch,l1l2,huber,fair,logcosh"))
            lam = model.loss_weights
            assert np.all(lam >= 0.0)
            assert abs(lam.sum() - 1.0) <= 1e-12

    def test_monotone_descent(self):
        config = SolverConfig(rel_tol=0.0, max_iters=40)
        for seed in range(5):
            ds = _random_ds(80, 5, seed, outliers=True)
            model = fit(ds, parse_ensemble("welsch,huber:0.5,l1l2"), config)
            r = model.trace.risks
            assert np.all(np.diff(r) <= 1e-10 * np.maximum(1.0, np.abs(r[:-1])))

    def test_sample_permutation_invariance(self):
        ds = _random_ds(60, 4, 12, outliers=True)
        perm = np.random.default_rng(0).permutation(ds.n)
        shuffled = ds.take(perm)
        a = fit(ds, parse_ensemble("welsch,l1l2,huber"))
        b = fit(shuffled, parse_ensemble("welsch,l1l2,huber"))
        assert np.max(np.abs(a.w - b.w)) <= 1e-10
        assert np.max(np.abs(a.loss_weights - b.loss_weights)) <= 1e-10

    def test_loss_permutation_invariance(self):
        ds = _random_ds(60, 4, 13, outliers=True)
        a = fit(ds, parse_ensemble("welsch,l1l2,huber"))
        b = fit(ds, parse_ensemble("huber,welsch,l1l2"))
        assert np.max(np.abs(a.w - b.w)) <= 1e-10
        # lambda follows its loss
        assert np.max(np.abs(a.loss_weights[[2, 0, 1]] - b.loss_weights)) <= 1e-10

    def test_gaussian_init_deterministic(self):
        ds = _random_ds(50, 3, 1)
        config = SolverConfig(init="gaussian", init_seed=7)
        a, b = fit(ds, parse_ensemble("l1l2"), config), \
            fit(ds, parse_ensemble("l1l2"), config)
        assert np.array_equal(a.w, b.w)

    def test_init_insensitivity_convex(self):
        # strictly convex single loss: any init reaches the same minimum
        ds = _random_ds(50, 3, 2)
        cfg = dict(max_iters=300, rel_tol=1e-14)
        w0 = fit(ds, parse_ensemble("l1l2"), SolverConfig(**cfg)).w
        w1 = fit(ds, parse_ensemble("l1l2"),
                 SolverConfig(init="gaussian", init_seed=3, **cfg)).w
        assert_allclose(w0, w1, atol=1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_loss_matches_irls_oracle(self, kind):
        ds = _random_ds(100, 3, 21, outliers=True)
        scale = 1.0
        config = SolverConfig(alpha=1e-8, max_iters=60, rel_tol=0.0)
        model = fit(ds, EnsembleSpec((LossSpec(kind, scale),)), config)
        ref = irls_oracle(ds.X, ds.y, kind, scale, alpha=1e-8, iters=60)
        assert np.max(np.abs(model.w - ref)) <= 1e-6

    def test_ols_reduction_with_frozen_ones(self):
        for seed in range(10):
            ds = _random_ds(50, 5, seed)
            w = update_w(FoldStack.of(ds), np.ones((1, 50)), 1e-12)[0]
            assert np.max(np.abs(w - ols_oracle(ds.X, ds.y))) <= 1e-6

    def test_all_redescended_raises(self):
        ds = Dataset(X=[[1.0]], y=[100.0])
        ens = EnsembleSpec((LossSpec("welsch", 0.01),))
        with pytest.raises(NonFiniteObjectiveError):
            fit(ds, ens, SolverConfig(max_iters=2))

    def test_config_validation(self):
        ds = synth_line()
        ens = parse_ensemble("l1l2")
        with pytest.raises(RelfError):
            fit(ds, ens, SolverConfig(max_iters=0))
        with pytest.raises(RelfError):
            fit(ds, ens, SolverConfig(alpha=-1.0))
        with pytest.raises(RelfError):
            fit(ds, ens, SolverConfig(init="warmstart"))
        with pytest.raises(RelfError):
            fit(ds, ens, SolverConfig(rel_tol=float("nan")))

    @pytest.mark.parametrize("ensemble", ["welsch,l1l2,huber", "l1l2", "huber:0.01",
                                          "fair:0.01", "fair:100", "logcosh"])
    @pytest.mark.parametrize("labels", [[1e308, -1e308, 1.0, 2.0, 3e307],
                                        [-1.7e308] * 3 + [1.7e308] * 2])
    def test_extreme_labels_raise_only_the_typed_error(self, ensemble, labels):
        ds = Dataset(X=np.column_stack([np.arange(5.0), np.ones(5)]), y=labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteObjectiveError):
                fit(ds, parse_ensemble(ensemble))

    @pytest.mark.parametrize("ensemble", ["welsch,l1l2", "l1l2", "huber"])
    def test_overflowing_gram_raises_the_typed_error(self, ensemble):
        # the squares of features near 1e300 overflow the w-step's Gram
        ds = Dataset(X=np.column_stack([np.arange(5) * 1e300, np.ones(5)]),
                     y=np.arange(5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteObjectiveError, match="at iteration 1$"):
                fit(ds, parse_ensemble(ensemble))

    def test_factorization_error_precedes_earlier_folds_errors(self, monkeypatch):
        # fold 0's Gram overflows, so its w-step solves a zeroed system and
        # its w is NaN; fold 1's factorization is made to fail
        from relf import linalg
        from relf.exceptions import FactorizationError
        factor = linalg.np.linalg.cholesky

        def fail_unless_zeroed(M):  # a zeroed system is alpha I
            if np.any(M > 1e-6):
                raise np.linalg.LinAlgError("forced")
            return factor(M)

        monkeypatch.setattr(linalg.np.linalg, "cholesky", fail_unless_zeroed)
        overflowing = np.column_stack([np.arange(5) * 1e300, np.ones(5)])
        plain = np.column_stack([np.arange(5.0), np.ones(5)])
        stack = FoldStack(np.stack([overflowing, plain]),
                          np.stack([np.arange(5.0), np.arange(5.0)]), np.array([5, 5]))
        ensemble = parse_ensemble("welsch,l1l2")
        # one fold at a time, fold 0 fails first, with its own error
        with pytest.raises(NonFiniteObjectiveError):
            fit(Dataset(X=overflowing, y=np.arange(5.0)), ensemble)
        # stacked, fold 1's failed factorization ends the loop at once
        with pytest.raises(FactorizationError, match="system 1 of 2"):
            fit_folds(stack, ensemble)

    def test_extreme_labels_get_weight_zero(self):
        # e^2 overflows, so welsch gives those samples weight 0 and fits
        # the rest, with no warning on the way
        ds = Dataset(X=np.ones((5, 1)), y=[1e308, -1e308, 1.0, 2.0, 3e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(ds, parse_ensemble("welsch"))
        assert np.all(np.isfinite(model.w)) and abs(model.w[0]) < 3.0

    @pytest.mark.parametrize("seed", range(3))
    def test_one_residual_per_iteration_is_bit_identical(self, seed):
        # fit reuses the risk's residual for the next P-step; the numbers
        # must not move by a single bit against the two-matvec loop
        ds = _random_ds(80, 5, seed, outliers=True)
        ens = parse_ensemble("welsch,l1l2,huber")
        for config in (SolverConfig(), SolverConfig(rel_tol=0.0, max_iters=12),
                       SolverConfig(init="gaussian", init_seed=seed)):
            model = fit(ds, ens, config)
            w, risks, loss_weights = two_matvec_fit(ds, ens, config)
            assert np.array_equal(model.trace.risks, risks)
            assert np.array_equal(model.w, w)
            assert np.array_equal(model.loss_weights, loss_weights)


@st.composite
def _robust_fits(draw):
    """``(ds, ensemble)``: 1 to 4 distinct catalog losses with scales in
    [0.1, 10], and a line fit whose features and labels have magnitudes in
    [1e-3, 1e3], under Cauchy noise."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4, unique=True))
    ensemble = EnsembleSpec(tuple(LossSpec(kind, draw(st.floats(0.1, 10.0))) for kind in kinds))
    n, d = draw(st.integers(10, 120)), draw(st.integers(1, 5))
    x_scale, y_scale = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = x_scale * rng.standard_normal((n, d))
    X[:, -1] = 1.0  # the intercept, which keeps its unit scale
    slope, intercept = rng.standard_normal(d - 1), rng.standard_normal()
    y = y_scale * (X[:, :-1] @ slope / x_scale + intercept + rng.standard_cauchy(n))
    return Dataset(X=X, y=y), ensemble


class TestRiskTraceProperty:
    @settings(max_examples=100, deadline=None)
    @given(_robust_fits())
    def test_jittered_risk_never_increases(self, case):
        # the w-step minimizes the surrogate plus (alpha/2)|w|^2, so it is
        # that sum which cannot rise; the risk alone can, where alpha is not
        # negligible against the weighted Gram (features near 1e-3)
        ds, ensemble = case
        config = SolverConfig(rel_tol=0.0, max_iters=10)
        try:
            risks = fit(ds, ensemble, config).trace.risks
        except NonFiniteObjectiveError:  # every weight redescended to zero
            return
        ws = [fit(ds, ensemble, replace(config, max_iters=t)).w for t in range(1, len(risks) + 1)]
        J = risks + 0.5 * config.alpha * np.array([w @ w for w in ws])
        assert np.all(np.diff(J) <= 1e-10 * np.maximum(1.0, np.abs(J[:-1])))


class TestPredict:
    def test_examples(self):
        model = RelfModel(w=np.array([2.0]), loss_weights=np.array([1.0]),
                          ensemble=EnsembleSpec((LossSpec("l1l2"),)))
        assert predict(model, [[5.0]])[0] == 10.0
        model2 = RelfModel(w=np.array([1.0, -1.0]), loss_weights=np.array([1.0]),
                           ensemble=EnsembleSpec((LossSpec("l1l2"),)))
        assert predict(model2, [[3.0, 3.0]])[0] == 0.0

    def test_zero_weights(self):
        model = RelfModel(w=np.zeros(2), loss_weights=np.array([1.0]),
                          ensemble=EnsembleSpec((LossSpec("l1l2"),)))
        assert_allclose(predict(model, np.ones((4, 2))), np.zeros(4))

    def test_width_guard(self):
        model = RelfModel(w=np.array([2.0]), loss_weights=np.array([1.0]),
                          ensemble=EnsembleSpec((LossSpec("l1l2"),)))
        with pytest.raises(DimensionMismatchError):
            predict(model, [[1.0, 2.0]])


class TestDecreaseRatio:
    @staticmethod
    def _trace(risks, converged=False):
        risks = np.asarray(risks, dtype=float)
        return SolverTrace(risks=risks, max_steps=np.zeros(len(risks)),
                           iterations=len(risks), converged=converged)

    def test_reference_row(self):
        # monotone 30-entry trace hitting the pinned checkpoints
        risks = np.concatenate([
            np.linspace(617.9089, 615.2434, 10),
            np.linspace(615.2434, 615.2070, 21)[1:],
        ])
        ratio = decrease_ratio(self._trace(risks), 10, 30)
        assert abs(ratio - 0.986528) <= 1e-5

    def test_all_decrease_by_ten(self):
        risks = np.concatenate([np.linspace(10.0, 5.0, 10), np.full(20, 5.0)])
        assert decrease_ratio(self._trace(risks), 10, 30) == 1.0

    def test_flat_trace_convention(self):
        with pytest.warns(DegenerateTraceWarning):
            assert decrease_ratio(self._trace(np.full(30, 7.0)), 10, 30) == 1.0

    def test_converged_short_trace_extends(self):
        assert decrease_ratio(self._trace([10.0, 5.0], converged=True), 10, 30) == 1.0

    def test_short_unconverged_raises(self):
        with pytest.raises(ValueError):
            decrease_ratio(self._trace([10.0, 5.0]), 10, 30)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            decrease_ratio(self._trace(np.linspace(3, 1, 30)), 0, 30)
        with pytest.raises(ValueError):
            decrease_ratio(self._trace(np.linspace(3, 1, 30)), 20, 10)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, seed=1))
        preprocessing = Preprocessing(ScalerState(np.array([-20.0]), np.array([20.0])),
                                      intercept=False)
        model = replace(fit(ds, parse_ensemble("welsch:1.5,l1l2")),
                        preprocessing=preprocessing)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.w, model.w)
        assert np.array_equal(back.loss_weights, model.loss_weights)
        assert back.ensemble == model.ensemble
        assert back.config == model.config
        assert np.array_equal(back.trace.risks, model.trace.risks)
        assert back.trace.converged == model.trace.converged
        assert back.preprocessing == model.preprocessing

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema": "something/9"}')
        with pytest.raises(RelfError):
            load_model(path)
