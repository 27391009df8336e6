import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import relf
from relf import (
    CvConfig,
    CvResult,
    Dataset,
    LeastSquaresMethod,
    NoiseConfig,
    FoldStack,
    Preprocessing,
    RelfMethod,
    add_intercept,
    apply_scaler,
    fit_folds,
    fit_scaler,
    SolverConfig,
    cross_validate,
    cv_folds,
    error_metrics,
    fit,
    increase_ratio,
    kfold_split,
    parse_ensemble,
    parse_method,
    run_benchmark,
    synth_line,
    train_labels,
)
from relf.data import NOISE_GAUSSIAN, NOISE_OUTLIER
from relf.exceptions import DataError, NonFiniteObjectiveError, RelfError

from oracles import mc_mean_abs_gaussian, ols_oracle, per_fold_cross_validate


def _mae(y, yhat):
    return error_metrics(np.subtract(y, yhat))[0]


def _rmse(y, yhat):
    return error_metrics(np.subtract(y, yhat))[1]


class TestMetrics:
    def test_mae_examples(self):
        assert _mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert _mae([0.0, 0.0], [1.0, -1.0]) == 1.0
        assert_allclose(_mae([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]), 2.0 / 3.0)

    def test_rmse_examples(self):
        assert _rmse([1.0], [1.0]) == 0.0
        assert_allclose(_rmse([0.0, 0.0], [3.0, 4.0]), np.sqrt(12.5))
        assert _rmse([5.0], [3.0]) == 2.0

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            y = rng.standard_normal(n) * rng.uniform(0.1, 10)
            yhat = y + rng.standard_normal(n) * rng.uniform(0.0, 5)
            assert _mae(y, yhat) <= _rmse(y, yhat) + 1e-12

    def test_reduces_over_the_last_axis(self):
        err = np.random.default_rng(3).standard_normal((2, 3, 7))
        mae, rmse = error_metrics(err)
        assert mae.shape == rmse.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert mae[i, j] == np.mean(np.abs(err[i, j]))
            assert rmse[i, j] == np.sqrt(np.mean(err[i, j] ** 2))

    def test_overflowing_square_gives_a_finite_rmse_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mae, rmse = error_metrics([1e200, -1e200])
        assert mae == 1e200 and rmse == 1e200

    def test_overflowing_sum_gives_a_finite_mae(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mae, rmse = error_metrics([1e308, -1e308])
        assert mae == 1e308 and rmse == 1e308

    def test_only_the_overflowing_statistic_is_rescaled(self):
        err = np.array([[3e200, -1e200, 2e200], [1.0, -2.0, 0.5], [1e308, 1e308, 1e308],
                        [np.inf, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mae, rmse = error_metrics(err)
        with np.errstate(over="ignore"):
            plain_mae = np.mean(np.abs(err), axis=-1)
            plain_rmse = np.sqrt(np.mean(err ** 2, axis=-1))
        assert mae[[0, 1, 3, 4]].tobytes() == plain_mae[[0, 1, 3, 4]].tobytes()
        assert rmse[[1, 3, 4]].tobytes() == plain_rmse[[1, 3, 4]].tobytes()
        assert mae[2] == rmse[2] == 1e308
        assert_allclose(rmse[0], 1e200 * np.sqrt(14 / 3), rtol=1e-15)
        assert mae[3] == rmse[3] == np.inf  # a non-finite error is not rescaled


class TestKfold:
    def test_singletons(self):
        folds = kfold_split(10, CvConfig(folds=10))
        assert all(len(te) == 1 for _, te in folds)

    def test_sizes(self):
        folds = kfold_split(10, CvConfig(folds=3))
        assert sorted(len(te) for _, te in folds) == [3, 3, 4]

    def test_partition_exact(self):
        for n, k in ((10, 3), (81, 10), (25, 5)):
            folds = kfold_split(n, CvConfig(folds=k, seed=1))
            seen = np.sort(np.concatenate([te for _, te in folds]))
            assert np.array_equal(seen, np.arange(n))
            for tr, te in folds:
                assert np.intersect1d(tr, te).size == 0
                assert tr.size + te.size == n

    def test_negative_seed(self):
        with pytest.raises(RelfError, match="seed must be >= 0, got -1"):
            CvConfig(seed=-1)

    def test_deterministic(self):
        a = kfold_split(20, CvConfig(folds=4, seed=3))
        b = kfold_split(20, CvConfig(folds=4, seed=3))
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)

    def test_no_shuffle_is_contiguous(self):
        folds = kfold_split(6, CvConfig(folds=3, shuffle=False))
        assert_allclose(folds[0][1], [0, 1])

    def test_too_many_folds(self):
        with pytest.raises(DataError, match="^4 folds for 3 samples$"):
            kfold_split(3, CvConfig(folds=4))

    def test_min_folds(self):
        with pytest.raises(RelfError):
            CvConfig(folds=1)


class TestOls:
    def test_exact_line(self):
        stack = FoldStack.of(Dataset(X=[[1.0], [2.0]], y=[2.0, 4.0]))
        assert_allclose(LeastSquaresMethod(0.0).fold_weights(stack), [[2.0]], rtol=1e-9)

    def test_large_ridge_shrinks(self):
        stack = FoldStack.of(Dataset(X=[[1.0], [2.0]], y=[2.0, 4.0]))
        assert abs(LeastSquaresMethod(1e12).fold_weights(stack)[0, 0]) < 1e-9

    def test_outlier_pull_matches_oracle(self):
        ds = Dataset(X=[[1.0], [2.0], [3.0]], y=[1.0, 2.0, 10.0])
        w = LeastSquaresMethod(1e-12).fold_weights(FoldStack.of(ds))[0]
        assert_allclose(w, ols_oracle(ds.X, ds.y), rtol=1e-9)
        assert_allclose(w[0], 35.0 / 14.0, rtol=1e-9)  # sum(xy)/sum(x^2)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.0])
    def test_refuses_what_ridge_refuses(self, alpha):
        with pytest.raises(DataError, match=re.escape(f"ridge_alpha must be >= 0, got {alpha!r}")):
            LeastSquaresMethod(alpha)


class TestIncreaseRatio:
    def test_examples(self):
        assert increase_ratio(1.0, 1.0) == 1.0
        assert_allclose(increase_ratio(1.0016 * 2.78, 2.78), 1.0016, rtol=1e-12)

    def test_zero_clean(self):
        with pytest.raises(DataError, match=re.escape("clean MAE must be > 0, got 0.0")):
            increase_ratio(1.0, 0.0)


class TestCvResult:
    def test_statistics(self):
        res = CvResult("ols", np.array([1.0, 3.0]), np.array([2.0, 2.0]))
        assert (res.mean_mae, res.std_mae, res.mean_rmse, res.std_rmse) == (2.0, 1.0, 2.0, 0.0)

    def test_statistics_are_fields_with_the_reductions_bits(self):
        rng = np.random.default_rng(3)
        mae, rmse = rng.uniform(0.0, 9.0, 10), rng.uniform(0.0, 9.0, 10)
        res = CvResult("ols", mae, rmse)
        stats = {name: vars(res)[name] for name in ("mean_mae", "mean_rmse", "std_mae", "std_rmse")}
        assert stats == {"mean_mae": float(np.mean(mae)), "mean_rmse": float(np.mean(rmse)),
                         "std_mae": float(np.std(mae)), "std_rmse": float(np.std(rmse))}
        assert all(type(v) is float for v in stats.values())

    @pytest.mark.parametrize("fold_mae, fold_rmse, name", [
        ([1e308, 1e308], [1.0, 1.0], "mean_mae"),
        ([1.0, 1.0], [np.inf, 1.0], "mean_rmse"),
        ([0.0, 1e200], [1.0, 1.0], "std_mae"),
        ([1.0, 1.0], [0.0, 1e200], "std_rmse"),
    ])
    def test_nonfinite_statistic_is_data_error(self, fold_mae, fold_rmse, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{name} of the test errors overflows"):
                CvResult("ols", np.array(fold_mae), np.array(fold_rmse))


class TestParseMethod:
    def test_variants(self):
        assert parse_method("ols").label == "ols"
        assert parse_method("ridge:0.5").ridge_alpha == 0.5
        m = parse_method("relf:welsch:1.5,l1l2")
        assert m.ensemble.m == 2
        default = parse_method("relf")
        assert [s.kind for s in default.ensemble.losses] == ["welsch", "l1l2", "huber"]
        irls = parse_method("irls:huber:0.5")
        assert irls.ensemble.m == 1
        assert irls.ensemble.losses[0].scale == 0.5

    def test_errors(self):
        with pytest.raises(DataError):
            parse_method("boosting")
        with pytest.raises(DataError):
            parse_method("ridge:abc")
        with pytest.raises(DataError):
            parse_method("irls:")
        with pytest.raises(DataError):
            parse_method("irls:welsch,l1l2")
        with pytest.raises(DataError):
            parse_method("ols:1")
        # ridge:-1 ran as ols, ridge:nan and ridge:inf failed their cells
        for alpha in ("-1", "nan", "inf", "-inf"):
            with pytest.raises(DataError, match=f"^ridge_alpha must be >= 0, got {float(alpha)!r}$"):
                parse_method(f"ridge:{alpha}")
        assert parse_method("ridge:0").ridge_alpha == 0.0


def _cv(folds, method, contamination=None, seed_keys=()):
    """The :class:`CvResult` of one contamination level."""
    (res,) = cross_validate(folds, method, [train_labels(folds, contamination, seed_keys)])
    return res


class TestCrossValidate:
    def test_noise_free_line_is_exact(self):
        folds = cv_folds(synth_line(), CvConfig(folds=5),
                         scale_features=False, intercept=False)
        for method in (LeastSquaresMethod(),
                       RelfMethod(ensemble=parse_ensemble("welsch,l1l2"))):
            res = _cv(folds, method)
            assert np.all(res.fold_mae <= 1e-6)

    def test_constant_labels_with_intercept(self):
        rng = np.random.default_rng(2)
        ds = Dataset(X=rng.standard_normal((30, 2)), y=np.full(30, 7.0))
        res = _cv(cv_folds(ds, CvConfig(folds=5), intercept=True), LeastSquaresMethod())
        assert res.mean_mae <= 1e-6

    def test_gaussian_toy_matches_noise_level(self):
        # held-out MAE approaches E|z| for the injected N(0,1) noise
        ds = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, gaussian_std=1.0, seed=4))
        method = RelfMethod(ensemble=parse_ensemble("welsch:1.5,l1l2"))
        res = _cv(cv_folds(ds, CvConfig(folds=10, seed=4),
                           scale_features=False, intercept=False), method)
        assert abs(res.mean_mae - mc_mean_abs_gaussian(1.0)) <= 0.15

    def test_deterministic(self):
        ds = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, seed=1))
        method = RelfMethod(ensemble=parse_ensemble("welsch,l1l2"))
        cont = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=0.3, seed=5)
        a = _cv(cv_folds(ds, CvConfig(folds=5)), method, contamination=cont)
        b = _cv(cv_folds(ds, CvConfig(folds=5)), method, contamination=cont)
        assert np.array_equal(a.fold_mae, b.fold_mae)

    def test_zero_contamination_equals_clean(self):
        ds = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, seed=3))
        cont = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=0.0, seed=5)
        folds = cv_folds(ds, CvConfig(folds=5))
        clean = _cv(folds, LeastSquaresMethod())
        dirty = _cv(folds, LeastSquaresMethod(), contamination=cont)
        assert np.array_equal(clean.fold_mae, dirty.fold_mae)

    def test_contamination_hurts_ols(self):
        ds = synth_line(NoiseConfig(mode=NOISE_GAUSSIAN, seed=7))
        cont = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=0.3,
                           outlier_magnitude=5.0, seed=7)
        folds = cv_folds(ds, CvConfig(folds=5), scale_features=False, intercept=False)
        clean = _cv(folds, LeastSquaresMethod())
        dirty = _cv(folds, LeastSquaresMethod(), contamination=cont)
        assert dirty.mean_mae > 2.0 * clean.mean_mae


# every method kind the harness runs, at the solver's default settings
ORACLE_METHODS = ("ols", "ridge:0.5", "irls:huber:0.5", "irls:welsch", "relf",
                  "relf:welsch:0.5,fair:2")


def _close(a, b, rtol):
    return np.all(np.abs(a - b) <= rtol * np.abs(b))


def _oracle_case(n_folds, extra, d, constant, method, levels, flags, seed, label_scale):
    """Per level of ``levels``, ``(stacked, single, oracle)``: the fold
    MAE/RMSE of one ``cross_validate`` call over all levels, of a call over
    that level alone, and of ``per_fold_cross_validate``, on one drawn
    design.  If the oracle raises a :class:`RelfError` at a level, the
    one-level path must raise its type and message and the stacked call
    must raise too, and None is returned."""
    n = min(n_folds + extra, 80)  # often not a multiple of the fold count
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    X[:, np.asarray(constant[:d])] = 3.0
    y = label_scale * (X @ rng.standard_normal(d) + rng.standard_normal(n))
    ds = Dataset(X=X, y=y)
    cv = CvConfig(folds=n_folds, seed=seed)
    prep = dict(scale_features=flags[0], intercept=flags[1])
    folds = cv_folds(ds, cv, **prep)
    m = parse_method(method)
    draws = [dict(contamination=NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=level,
                                            outlier_magnitude=5.0, seed=seed),
                  seed_keys=(1, 2 + i)) for i, level in enumerate(levels)]
    refs = []
    for kwargs in draws:
        try:
            refs.append(per_fold_cross_validate(ds, m, cv, **prep, **kwargs))
        except RelfError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                _cv(folds, m, **kwargs)
            with pytest.raises(RelfError):
                cross_validate(folds, m, [train_labels(folds, **kw) for kw in draws])
            return None
    labels = [train_labels(folds, **kwargs) for kwargs in draws]
    stacked = cross_validate(folds, m, labels)
    single = stacked if len(labels) == 1 else [_cv(folds, m, **kw) for kw in draws]
    assert all(res.method == m.label for res in stacked)
    return [((a.fold_mae, a.fold_rmse), (b.fold_mae, b.fold_rmse), ref)
            for a, b, ref in zip(stacked, single, refs)]


# the draws of one design, shared by the stacked-CV properties
_ORACLE_DRAWS = dict(
    n_folds=st.integers(2, 10),
    extra=st.integers(0, 70),
    d=st.integers(1, 6),
    constant=st.lists(st.booleans(), min_size=6, max_size=6),
    method=st.sampled_from(ORACLE_METHODS),
    flags=st.sampled_from(((True, True), (False, True), (True, False))),
    seed=st.integers(0, 2**16),
    label_scale=st.sampled_from((1.0, 100.0)),
)
_LEVELS = (0.0, 0.1, 0.25, 0.5)


class TestStackedCrossValidate:
    """The stacked ``cross_validate`` against the fold-by-fold loop in
    ``oracles.per_fold_cross_validate``."""

    @given(level=st.sampled_from(_LEVELS), **_ORACLE_DRAWS)
    # fold 0 trains on one row padded to two: a product over the padded
    # stack moved its MAE by 2.6e-7 relative
    @example(n_folds=2, extra=1, d=1, constant=[False] * 6, method="relf:welsch:0.5,fair:2",
             level=0.0, flags=(False, True), seed=5, label_scale=1.0)
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_per_fold_oracle(self, n_folds, extra, d, constant, method,
                                     level, flags, seed, label_scale):
        out = _oracle_case(n_folds, extra, d, constant, method, [level], flags, seed,
                           label_scale)
        if out is not None:
            [((fold_mae, fold_rmse), _, ref)] = out
            assert _close(fold_mae, ref[0], 1e-9)
            assert _close(fold_rmse, ref[1], 1e-9)

    @given(levels=st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=3),
           **_ORACLE_DRAWS)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stacked_levels_match_one_level_calls(self, n_folds, extra, d, constant,
                                                  method, levels, flags, seed,
                                                  label_scale):
        out = _oracle_case(n_folds, extra, d, constant, method, levels, flags, seed,
                           label_scale)
        for stacked, single, ref in out or ():
            for got, alone, want in zip(stacked, single, ref):
                assert np.array_equal(got, alone)
                assert _close(got, want, 1e-9)

    @pytest.mark.parametrize("seed, constant, label_scale", [
        (5, [False, False, False, True, False, False], 1.0),
        (6671, [False] * 6, 100.0),
    ])
    def test_padded_fold_matches_oracle_bit_for_bit(self, seed, constant, label_scale):
        # 7 rows in 2 folds: fold 0 trains on 3 rows of 6 columns, padded to
        # 4, and cond(A + 1e-8 I) is about 6e8, so a Gram summed over the
        # padding moved its MAE by 5.7e-8 and 2.3e-8 relative
        [((fold_mae, fold_rmse), _, ref)] = _oracle_case(
            2, 5, 5, constant, "ols", [0.0], (True, True), seed, label_scale)
        assert np.array_equal(fold_mae, ref[0])
        assert np.array_equal(fold_rmse, ref[1])

    @pytest.mark.parametrize("method", ["ols", "relf"])
    def test_padded_test_fold_gets_its_lone_errors(self, method):
        # 3 rows in 2 folds: test fold 1 is one row padded to two, and a
        # product over both rows rounds differently from the row's own
        m = parse_method(method)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ds = Dataset(X=rng.uniform(-5.0, 5.0, size=(3, 3)), y=rng.standard_normal(3))
            folds = cv_folds(ds, CvConfig(folds=2, shuffle=False), scale_features=False)
            (res,) = cross_validate(folds, m)
            w, test = m.fold_weights(folds.train), folds.test
            for j, count in enumerate(test.counts):
                mae, rmse = error_metrics(test.y[j, :count] - test.X[j, :count] @ w[j])
                assert (res.fold_mae[j], res.fold_rmse[j]) == (mae, rmse), (seed, j)

    @pytest.mark.parametrize("method", ["ols", "relf"])
    def test_no_label_stacks_give_no_results(self, method):
        ds = Dataset(X=np.arange(12.0).reshape(6, 2), y=np.arange(6.0))
        folds, m = cv_folds(ds, CvConfig(folds=3)), parse_method(method)
        assert cross_validate(folds, m, []) == []
        assert cross_validate(folds, m, iter([])) == []

    @pytest.mark.parametrize("method", ["ols", "ridge:0.5"])
    def test_least_squares_levels_share_one_gram(self, method):
        # 23 rows in 4 folds: training folds of 17 and 18 rows, one padded;
        # three label stacks give the bits of three one-level calls, and of
        # least squares on the (3k)-fold stack that repeats each fold's X
        rng = np.random.default_rng(11)
        ds = Dataset(X=rng.uniform(-5.0, 5.0, size=(23, 3)), y=rng.standard_normal(23))
        folds, m = cv_folds(ds, CvConfig(folds=4, seed=2)), parse_method(method)
        labels = [train_labels(folds, None if level == 0 else NoiseConfig(
            mode=NOISE_OUTLIER, outlier_fraction=level, seed=4), (0, i))
            for i, level in enumerate((0.0, 0.2, 0.4))]
        stacked = cross_validate(folds, m, labels)
        for res, y in zip(stacked, labels):
            (alone,) = cross_validate(folds, m, [y])
            assert np.array_equal(res.fold_mae, alone.fold_mae)
            assert np.array_equal(res.fold_rmse, alone.fold_rmse)
        train = folds.train
        y, counts = np.concatenate(labels), np.tile(train.counts, 3)
        tall = FoldStack(np.concatenate([train.X] * 3), y, counts)
        assert np.array_equal(m.fold_weights(FoldStack(train.X, y, counts)),
                              LeastSquaresMethod(m.ridge_alpha).fold_weights(tall))

    @given(method=st.sampled_from(("ols", "ridge:0.5", "ridge:30", "relf", "irls:huber:0.5",
                                   "irls:welsch")),
           levels=st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=3),
           n_folds=st.integers(2, 6), per_fold=st.integers(1, 8), extra=st.integers(0, 4),
           d=st.integers(1, 4), seed=st.integers(0, 2**16))
    @example(method="ols", levels=[0.0, 0.25, 0.5], n_folds=4, per_fold=5, extra=2, d=3,
             seed=11)
    @example(method="ridge:0.5", levels=[0.0, 0.25, 0.5], n_folds=4, per_fold=5, extra=2, d=3,
             seed=11)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_levels_share_one_fold_stack(self, method, levels, n_folds, per_fold, extra, d,
                                         seed):
        # n is not a multiple of the fold count, so some training folds are
        # padded; L label stacks over the k fold designs give the bits of L
        # one-level calls, and of the method on the (L*k)-design stack that
        # repeats each fold's X
        n = n_folds * per_fold + 1 + extra % (n_folds - 1)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, d))
        ds = Dataset(X=X, y=X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n))
        folds, m = cv_folds(ds, CvConfig(folds=n_folds, seed=seed)), parse_method(method)
        labels = [train_labels(folds, None if level == 0 else NoiseConfig(
            mode=NOISE_OUTLIER, outlier_fraction=level, seed=seed), (0, i))
            for i, level in enumerate(levels)]
        stacked = cross_validate(folds, m, labels)
        for res, y in zip(stacked, labels):
            (alone,) = cross_validate(folds, m, [y])
            assert np.array_equal(res.fold_mae, alone.fold_mae)
            assert np.array_equal(res.fold_rmse, alone.fold_rmse)
        train, L = folds.train, len(labels)
        y, counts = np.concatenate(labels), np.tile(train.counts, L)
        shared = m.fold_weights(FoldStack(train.X, y, counts))
        copied = m.fold_weights(FoldStack(np.concatenate([train.X] * L), y, counts))
        assert shared.shape == (L * train.k, train.d)
        assert np.array_equal(shared, copied)

    def test_failing_inputs_raise_the_oracles_error(self):
        ds = synth_line()
        for cv, cont, message in (
                (CvConfig(folds=82), None, "82 folds for 81 samples"),
                (CvConfig(folds=5), NoiseConfig(mode=NOISE_GAUSSIAN),
                 "inject_outliers needs mode='outlier', got 'gaussian'")):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                per_fold_cross_validate(ds, LeastSquaresMethod(), cv, contamination=cont)
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                _cv(cv_folds(ds, cv), LeastSquaresMethod(), contamination=cont)
        # only the last fold trains on labels all far enough out for welsch
        # to give every sample weight 0
        ds = Dataset(X=np.ones((40, 1)), y=np.where(np.arange(40) < 32, 1e4, 0.0))
        method = parse_method("irls:welsch:0.01")
        cv = CvConfig(folds=5, shuffle=False)
        with pytest.raises(NonFiniteObjectiveError):
            per_fold_cross_validate(ds, method, cv, scale_features=False, intercept=False)
        with pytest.raises(NonFiniteObjectiveError):
            _cv(cv_folds(ds, cv, scale_features=False, intercept=False), method)

    def test_contamination_error_precedes_every_fit_error(self):
        # fold 0 trains on labels all far enough out for welsch to give every
        # sample weight 0; the other folds train on rows 0-7, whose labels
        # span more than the float range, so their contamination overflows
        y = np.full(40, 1e4)
        y[:8] = [1e308, -1e308] * 4
        ds = Dataset(X=np.ones((40, 1)), y=y)
        method = parse_method("irls:welsch:0.01")
        cv = CvConfig(folds=5, shuffle=False)
        noise = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=0.25, seed=0)
        # one fold at a time, fold 0's fit fails before fold 1 is contaminated
        with pytest.raises(NonFiniteObjectiveError):
            per_fold_cross_validate(ds, method, cv, contamination=noise,
                                    scale_features=False, intercept=False)
        # stacked, every fold is contaminated before any fold is fitted; the
        # overflow is named, and numpy does not warn on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflow the float range"):
                _cv(cv_folds(ds, cv, scale_features=False, intercept=False),
                    method, contamination=noise)

    def test_folds_stop_at_their_own_iteration(self):
        # fold sizes 17 and 16 (padding), and folds that converge apart
        rng = np.random.default_rng(3)
        X = rng.standard_normal((41, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(41)
        y[rng.choice(41, size=8, replace=False)] += 40.0
        ds = Dataset(X=X, y=y)
        folds = cv_folds(ds, CvConfig(folds=5, seed=1))
        ensemble = parse_ensemble("welsch,l1l2,huber")
        models = fit_folds(folds.train, ensemble)
        assert len({m.trace.iterations for m in models}) > 1
        for j, (tr, _) in enumerate(kfold_split(ds.n, CvConfig(folds=5, seed=1))):
            train = ds.take(tr)
            state = fit_scaler(train)
            lone = fit(add_intercept(apply_scaler(train, state)), ensemble)
            assert models[j].trace.iterations == lone.trace.iterations
            assert models[j].trace.converged == lone.trace.converged
            assert np.array_equal(models[j].w, lone.w)
            assert np.array_equal(models[j].trace.risks, lone.trace.risks)
            assert np.array_equal(models[j].loss_weights, lone.loss_weights)

    def test_test_fold_scaled_past_the_float_range(self):
        # the last fold trains on [0, 1e-300] and tests on 1e10
        ds = Dataset(X=[[0.0], [1e-300], [0.0], [1e-300], [1e10]], y=np.arange(5.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^scaling 10000000000\.0 by the training "
                               r"range \[0\.0, 1e-300\] overflows the float range$"):
                cv_folds(ds, CvConfig(folds=5, shuffle=False))

    def test_padding_rows_are_zero(self):
        ds = synth_line()
        folds = cv_folds(ds, CvConfig(folds=10))
        for stack in (folds.train, folds.test):
            assert isinstance(stack, FoldStack)
            for j, m in enumerate(stack.counts):
                assert not np.any(stack.X[j, m:]) and not np.any(stack.y[j, m:])
                assert np.all(stack.X[j, :m, -1] == 1.0)
        assert sorted(folds.test.counts) == [8] * 9 + [9]
        assert folds.train.X.shape == (10, 73, 2)


class TestCvFolds:
    """Each fold of ``cv_folds`` is the design of a :class:`Preprocessing`
    fitted on the fold's training rows, padding aside."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 4), st.integers(2, 10), st.booleans(),
           st.booleans(), st.data())
    def test_each_fold_is_its_preprocessing_of_its_rows(self, n, d, k, scale, intercept,
                                                        data):
        values = st.one_of(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                           st.sampled_from((0.0, -0.0)))
        X = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
        # a column of signed zeros alone: the masked and the gathered ranges
        # may differ in their zeros' signs, but not in the design
        zeros = data.draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=n, max_size=n))
        X[:, data.draw(st.integers(0, d - 1))] = zeros
        ds = Dataset(X=X, y=np.arange(n, dtype=float) - n / 3)
        cv = CvConfig(folds=min(k, n), seed=data.draw(st.integers(0, 2**16)))
        # the designs in fold order, training rows first; a test row far
        # outside a subnormal training range overflows, and then cv_folds
        # raises the first such error of its Preprocessing
        designs = []
        try:
            for train, test in kfold_split(ds.n, cv):
                want = Preprocessing.fit(ds.take(train), scale, intercept)
                designs.append([want.apply(ds.take(ix)).X for ix in (train, test)])
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                cv_folds(ds, cv, scale_features=scale, intercept=intercept)
            return
        folds = cv_folds(ds, cv, scale_features=scale, intercept=intercept)
        for j, (train, test) in enumerate(kfold_split(ds.n, cv)):
            for stack, ix, X in zip((folds.train, folds.test), (train, test), designs[j]):
                design = np.zeros(stack.X.shape[1:])
                labels = np.zeros(stack.y.shape[1])
                design[:len(ix)] = X
                labels[:len(ix)] = ds.y[ix]
                assert stack.counts[j] == len(ix)
                assert stack.X[j].tobytes() == design.tobytes()
                assert stack.y[j].tobytes() == labels.tobytes()

    def test_second_intercept(self):
        ds = Preprocessing(intercept=True).apply(synth_line())
        with pytest.raises(DataError, match="^dataset already has an intercept column$"):
            cv_folds(ds, CvConfig(folds=5), intercept=True)
        folds = cv_folds(ds, CvConfig(folds=5), intercept=False)
        assert folds.train.d == ds.d


class TestCvMemory:
    """``cv_folds`` writes each stack once, and ``cross_validate`` fits
    every contamination level on the one training stack."""

    @pytest.fixture(scope="class")
    def ds(self):
        # 3 000 x 60: at this width the label-sized arrays of the solver
        # loop and the split's index arrays are small next to a stack
        rng = np.random.default_rng(5)
        X = rng.uniform(-5.0, 5.0, size=(3000, 60))
        return Dataset(X=X, y=X @ rng.standard_normal(60) + rng.standard_normal(3000))

    @staticmethod
    def _peak(call):
        call()  # once untraced, so one-time imports and caches are not counted
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cv_folds_holds_the_stacks_and_one_fold(self, ds):
        folds, peak = self._peak(lambda: cv_folds(ds, CvConfig(folds=10)))
        train, test = folds.train, folds.test
        stacks = sum(a.nbytes for s in (train, test) for a in (s.X, s.y, s.counts))
        assert peak < stacks + train.X[0].nbytes

    def test_levels_share_the_training_stack(self, ds):
        folds = cv_folds(ds, CvConfig(folds=10))
        labels = [train_labels(folds, None if level == 0 else NoiseConfig(
            mode=NOISE_OUTLIER, outlier_fraction=level, seed=1), (0, i))
            for i, level in enumerate((0.0, 0.1, 0.3))]
        method = parse_method("relf")
        results, peak = self._peak(lambda: cross_validate(folds, method, labels))
        assert len(results) == 3
        assert peak < folds.train.X.nbytes


def _toy_manifest(tmp_path, extra_datasets=()):
    return {
        "cv": {"folds": 5, "seed": 0},
        "solver": {"max_iters": 30},
        "contamination_levels": [0.0, 0.3],
        "scale_features": False,
        "intercept": False,
        "datasets": [
            {"name": "toy", "format": "synthetic", "noise_mode": "gaussian",
             "gaussian_std": 1.0, "seed": 0},
            *extra_datasets,
        ],
        "methods": ["relf:welsch,l1l2,huber", "ols"],
    }


def _isolation_manifest(tmp_path):
    # 6 rows in 3 folds: 4 training rows each, so level 0.1 displaces no
    # label and level 0.3 displaces one, by 1e300 times the label spread
    for name, high in (("overflow", 1e10), ("nonfinite", 1.0)):
        rows = [f"{i},{high if i % 2 else 0.0!r}" for i in range(1, 7)]
        (tmp_path / f"{name}.csv").write_text("x,y\n" + "\n".join(rows) + "\n")
    return {
        "cv": {"folds": 3, "seed": 0},
        "contamination_levels": [0.0, 0.1, 0.3],
        "outlier_magnitude": 1e300,
        "datasets": [
            {"name": name, "format": "csv", "path": f"{name}.csv", "label_column": "y"}
            for name in ("overflow", "nonfinite")
        ],
        "methods": ["relf", "irls:huber:0.5"],
    }


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestRunBenchmark:
    def test_failing_level_leaves_the_other_cells_alone(self, tmp_path):
        # a level that fails the stacked fit is fitted again on its own, so
        # each cell keeps its numbers or names its own error
        manifest = _isolation_manifest(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            full = run_benchmark(manifest, base_dir=tmp_path)
        assert [str(w.message) for w in caught] == []
        ref = run_benchmark({**manifest, "contamination_levels": [0.0, 0.1]},
                            base_dir=tmp_path)
        want = {(c["dataset"], c["method"], c["contamination"]): c for c in ref.cells}
        errors = {}
        for cell in full.cells:
            key = (cell["dataset"], cell["method"], cell["contamination"])
            if key in want:
                assert cell["error"] is None and want[key]["error"] is None, key
                for field in ("mae", "rmse", "mae_std", "rmse_std", "fold_mae", "fold_rmse"):
                    assert cell[field] == want[key][field], (key, field)
            elif cell["error"] is not None:
                errors[key] = cell["error"]
        overflow = "DataError: displaced labels overflow the float range"
        assert errors == {
            ("overflow", "relf", 0.3): overflow,
            ("overflow", "irls:huber:0.5", 0.3): overflow,
            ("nonfinite", "relf", 0.3):
                "NonFiniteObjectiveError: objective became non-finite at iteration 1",
        }

    def test_nonfinite_metrics_fail_the_cell(self, tmp_path):
        # OLS on the "nonfinite" set at level 0.3 predicts ~1e299: each
        # fold's MAE and RMSE is finite, but their spread overflows
        manifest = {**_isolation_manifest(tmp_path), "methods": ["ols"]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_benchmark(manifest, base_dir=tmp_path)
        assert [str(w.message) for w in caught] == []
        cells = {(c["dataset"], c["contamination"]): c for c in report.cells}
        assert cells["nonfinite", 0.3]["error"] == (
            "DataError: std_mae of the test errors overflows the float range")
        assert cells["nonfinite", 0.0]["error"] is None
        assert cells["nonfinite", 0.1]["error"] is None
        assert [r["contamination"] for r in report.ratios if r["dataset"] == "nonfinite"] == [0.1]
        payload = _strict_json(report.write(tmp_path / "out")[0])
        assert payload["ok"] is False

    def test_overflowing_increase_ratio_is_skipped(self, tmp_path):
        # a near-exact line: the clean MAE is ~1e-158 and the contaminated
        # one ~1e150, both finite, but their quotient is not
        rows = [f"{i},{i * 1e-150!r}" for i in range(1, 21)]
        (tmp_path / "line.csv").write_text("x,y\n" + "\n".join(rows) + "\n")
        manifest = {
            "cv": {"folds": 4, "seed": 0}, "contamination_levels": [0.0, 0.3],
            "outlier_magnitude": 1e300, "methods": ["ols"],
            "datasets": [{"name": "line", "format": "csv", "path": "line.csv",
                          "label_column": "y"}],
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_benchmark(manifest, base_dir=tmp_path)
        assert [str(w.message) for w in caught] == []
        assert report.ok and report.cells[1]["mae"] > 1e100
        assert report.ratios == []
        _strict_json(report.write(tmp_path / "out")[0])

    def test_bench_leaves_stderr_empty(self, tmp_path):
        # no numpy warning from overflowing metrics, and no flat-trace
        # warning from the convergence report of the "overflow" set
        manifest = {**_isolation_manifest(tmp_path), "methods": ["ols", "relf", "irls:huber:0.5"]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        src = str(Path(relf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "relf.cli", "bench", "--manifest",
             str(tmp_path / "manifest.json"), "--output-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == ""
        _strict_json(tmp_path / "out" / "report.json")

    def test_grid_shape(self, tmp_path):
        report = run_benchmark(_toy_manifest(tmp_path), base_dir=tmp_path)
        assert len(report.cells) == 4  # 1 dataset x 2 methods x 2 levels
        assert len(report.ratios) == 2
        assert report.ok
        relf_conv = [c for c in report.convergence if c["method"].startswith("relf")]
        assert len(relf_conv) == 1
        assert relf_conv[0]["error"] is None
        assert relf_conv[0]["decrease_ratio"] >= 0.0

    def test_empty_manifest(self):
        report = run_benchmark({})
        assert report.cells == [] and report.ok

    def test_minimal_single_cell(self):
        report = run_benchmark({
            "cv": {"folds": 5},
            "contamination_levels": [0.0],
            "datasets": [{"name": "toy", "format": "synthetic",
                          "noise_mode": "gaussian", "seed": 0}],
            "methods": ["ols"],
        })
        assert len(report.cells) == 1 and report.ratios == []
        assert report.cells[0]["mae"] > 0.0

    def test_bad_dataset_contained(self, tmp_path):
        manifest = _toy_manifest(tmp_path, extra_datasets=(
            {"name": "missing", "format": "csv", "path": "nope.csv",
             "label_column": "y"},))
        report = run_benchmark(manifest, base_dir=tmp_path)
        assert not report.ok
        bad = [c for c in report.cells if c["dataset"] == "missing"]
        good = [c for c in report.cells if c["dataset"] == "toy"]
        assert len(bad) == 4 and all(c["error"] for c in bad)
        assert len(good) == 4 and all(c["error"] is None for c in good)

    def test_csv_dataset_and_determinism(self, tmp_path):
        data = tmp_path / "line.csv"
        rows = ["x,y"] + [f"{i},{2 * i + (i % 3)}" for i in range(30)]
        data.write_text("\n".join(rows) + "\n")
        manifest = _toy_manifest(tmp_path, extra_datasets=(
            {"name": "line", "format": "csv", "path": "line.csv",
             "label_column": "y"},))
        a = run_benchmark(manifest, base_dir=tmp_path)
        b = run_benchmark(manifest, base_dir=tmp_path)
        assert a.csv_text() == b.csv_text()
        assert a.ok

    def test_report_files(self, tmp_path):
        report = run_benchmark(_toy_manifest(tmp_path), base_dir=tmp_path)
        json_path, csv_path = report.write(tmp_path / "out")
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "relf.report/1"
        assert len(payload["cells"]) == 4
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[:3] == ["dataset", "method", "contamination"]

    def test_manifest_validation(self):
        with pytest.raises(DataError):
            run_benchmark({"datasets": "oops"})
        with pytest.raises(DataError):
            run_benchmark({"datasets": [{"format": "csv"}], "methods": []})
        with pytest.raises(DataError):
            run_benchmark({"contamination_levels": [2.0]})
        with pytest.raises(DataError):
            run_benchmark({"datasets": [], "methods": ["gradient-descent"]})

    def test_ratio_direction_on_toy(self, tmp_path):
        report = run_benchmark(_toy_manifest(tmp_path), base_dir=tmp_path)
        by_method = {r["method"]: r["increase_ratio"] for r in report.ratios}
        assert by_method["relf:welsch,l1l2,huber"] < by_method["ols"]
