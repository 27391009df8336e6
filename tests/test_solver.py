import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relf import (
    Dataset,
    EnsembleSpec,
    LossSpec,
    NoiseConfig,
    RelfModel,
    SolverConfig,
    SolverTrace,
    decrease_ratio,
    fit,
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
        assert residuals([2.0], Dataset(X=[[3.0]], y=[6.0]))[0] == 0.0
        assert_allclose(residuals([0.0], Dataset(X=[[1.0], [2.0]], y=[5.0, 3.0])),
                        [5.0, 3.0])
        assert residuals([1.0, 1.0], Dataset(X=[[2.0, 3.0]], y=[10.0]))[0] == 5.0

    def test_dimension_error(self):
        with pytest.raises(DimensionMismatchError):
            residuals([1.0, 2.0], Dataset(X=[[1.0]], y=[1.0]))


class TestUpdateP:
    def test_single_l1l2_at_zero(self):
        P = update_p(EnsembleSpec((LossSpec("l1l2"),)), [0.0])
        assert_allclose(P, [[1.0]])

    def test_two_losses_at_zero(self):
        ens = EnsembleSpec((LossSpec("welsch", SQRT_HALF), LossSpec("l1l2")))
        assert_allclose(update_p(ens, [0.0]), [[4.0, 1.0]])

    def test_welsch_downweights_large_residual(self):
        P = update_p(EnsembleSpec((LossSpec("welsch", 1.0),)), [100.0])
        assert P[0, 0] <= 1e-12

    def test_shape(self):
        ens = parse_ensemble("welsch,l1l2,huber")
        assert update_p(ens, np.zeros(7)).shape == (7, 3)


class TestUpdateW:
    def test_exact_line(self):
        ds = Dataset(X=[[1.0], [2.0]], y=[2.0, 4.0])
        w = update_w(ds, np.ones((2, 1)), 1e-12)
        assert_allclose(w, [2.0], rtol=1e-9)

    def test_downweighted_outlier_ignored(self):
        ds = Dataset(X=[[1.0], [1.0]], y=[2.0, 100.0])
        P = np.array([[1.0], [1e-15]])
        w = update_w(ds, P, 1e-8)
        assert_allclose(w, [2.0], atol=1e-6)

    def test_scalar_formula(self):
        ds = Dataset(X=[[1.0]], y=[3.0])
        w = update_w(ds, np.array([[2.0]]), 1e-8)
        assert_allclose(w, [2.0 * 3.0 / (2.0 + 1e-8)], rtol=1e-12)

    def test_against_weighted_oracle(self):
        rng = np.random.default_rng(4)
        ds = _random_ds(40, 3, 4)
        s = rng.random(40) + 0.1
        w = update_w(ds, s[:, None], 1e-10)
        assert_allclose(w, weighted_ls_oracle(ds.X, ds.y, s, 1e-10),
                        rtol=1e-8, atol=1e-10)

    def test_shape_guard(self):
        ds = Dataset(X=[[1.0]], y=[1.0])
        with pytest.raises(DimensionMismatchError):
            update_w(ds, np.ones((3, 1)), 1e-8)


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBlockedUpdateW:
    """``update_w`` sums the Gram over row blocks; the one-product oracle
    is the reference."""

    @staticmethod
    def _problem(n, d, seed):
        ds = _random_ds(n, d, seed)
        P = np.random.default_rng(seed + 100).random((n, 3)) + 0.05
        return ds, P

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_matches_full_gram(self, d, blocks, extra):
        rows = solver.gram_block_rows(d)
        n = blocks * rows + extra
        ds, P = self._problem(n, d, seed=d)
        w = update_w(ds, P, 1e-8)
        ref = full_gram_update_w(ds, P, 1e-8)
        assert _rel_err(w, ref) <= 1e-12
        if n <= rows:  # one block: the same products as the oracle, bit for bit
            assert np.array_equal(w, ref)

    def test_wide_design_blocks_of_d_rows(self):
        d = 200
        assert solver.gram_block_rows(d) == d
        ds, P = self._problem(3 * d + 7, d, seed=5)
        assert _rel_err(update_w(ds, P, 1e-8), full_gram_update_w(ds, P, 1e-8)) <= 1e-12

    @pytest.mark.parametrize("n", [10, 41])
    def test_one_row_blocks(self, monkeypatch, n):
        # blocks never have fewer than 128 rows at the real block size, so
        # shrink it
        monkeypatch.setattr(solver, "GRAM_BLOCK_ELEMS", 1)
        assert solver.gram_block_rows(1) == 1
        ds, P = self._problem(n, 1, seed=n)
        assert _rel_err(update_w(ds, P, 1e-8), full_gram_update_w(ds, P, 1e-8)) <= 1e-12

    def test_zero_weight_block(self):
        d = 6
        rows = solver.gram_block_rows(d)
        ds, P = self._problem(3 * rows + 7, d, seed=7)
        P[rows:2 * rows] = 0.0
        assert _rel_err(update_w(ds, P, 1e-8), full_gram_update_w(ds, P, 1e-8)) <= 1e-12

    def test_no_weighted_copy_of_x(self):
        n, d = 200_000, 8
        ds, P = self._problem(n, d, seed=3)
        update_w(ds, P, 1e-8)  # warm up lazy imports and BLAS buffers
        tracemalloc.start()
        try:
            update_w(ds, P, 1e-8)
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


class TestObjective:
    def test_perfect_fit(self):
        ds = Dataset(X=[[1.0], [2.0]], y=[3.0, 6.0])
        assert objective(EnsembleSpec((LossSpec("l1l2"),)), residuals([3.0], ds)) == 0.0

    def test_single_sample_closed_form(self):
        ds = Dataset(X=[[1.0]], y=[math.sqrt(3.0)])
        assert_allclose(objective(EnsembleSpec((LossSpec("l1l2"),)), residuals([0.0], ds)),
                        1.0, rtol=1e-12)

    def test_sum_over_losses(self):
        ds = Dataset(X=[[1.0], [1.0]], y=[0.0, math.sqrt(3.0)])
        ens = EnsembleSpec((LossSpec("l1l2"), LossSpec("logcosh")))
        expected = 1.0 + math.log(math.cosh(math.sqrt(3.0)))
        assert_allclose(objective(ens, residuals([0.0], ds)), expected, rtol=1e-12)


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
            w = update_w(ds, np.ones((50, 1)), 1e-12)
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
            w, risks = two_matvec_fit(ds, ens, config)
            assert np.array_equal(model.trace.risks, risks)
            assert np.array_equal(model.w, w)


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
        model = fit(ds, parse_ensemble("welsch:1.5,l1l2"))
        preprocessing = {"intercept": False,
                         "scaler": {"feature_min": [-20.0], "feature_max": [20.0]}}
        path = tmp_path / "model.json"
        save_model(model, path, preprocessing)
        back, prep = load_model(path)
        assert np.array_equal(back.w, model.w)
        assert np.array_equal(back.loss_weights, model.loss_weights)
        assert back.ensemble == model.ensemble
        assert back.config == model.config
        assert np.array_equal(back.trace.risks, model.trace.risks)
        assert back.trace.converged == model.trace.converged
        assert prep == preprocessing

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"schema": "something/9"}')
        with pytest.raises(RelfError):
            load_model(path)
