"""Acceptance gate: one test per headline capability.

Each test prints a single ``[acceptance] criterion N (<name>): PASS/FAIL``
line directly to the terminal (bypassing capture) so a ``pytest -v`` run
doubles as the go/no-go checklist.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from relf import (
    CvConfig,
    Dataset,
    EnsembleSpec,
    LeastSquaresMethod,
    LossSpec,
    NoiseConfig,
    RelfMethod,
    SolverConfig,
    SolverTrace,
    cross_validate,
    cv_folds,
    decrease_ratio,
    delta,
    fit,
    inject_outliers,
    kfold_split,
    mae,
    parse_ensemble,
    phi,
    rmse,
    synth_line,
    train_labels,
    update_w,
)
from relf.data import NOISE_GAUSSIAN, NOISE_OUTLIER
from relf.losses import CONVEX_KINDS, KINDS, SCALED_KINDS

from oracles import grid_argmin, irls_oracle, ols_oracle

# fixed, documented seed block: every claim below is a deterministic
# statement about these exact streams, not a statistical one
SEEDS = range(85, 105)

TOY_ENSEMBLE = "welsch:1.5,l1l2"
TRIO = "welsch,l1l2,huber"
TOY_OUTLIER = dict(outlier_fraction=10.0 / 81.0, outlier_magnitude=5.0)


@contextmanager
def _criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {num} ({name}): PASS")


def _toy(seed, mode=NOISE_GAUSSIAN):
    if mode == NOISE_GAUSSIAN:
        noise = NoiseConfig(mode=mode, gaussian_std=1.0, seed=seed)
    else:
        noise = NoiseConfig(mode=mode, seed=seed, **TOY_OUTLIER)
    return synth_line(noise)


def _lambda_by_label(model):
    return dict(zip(model.ensemble.labels(), model.loss_weights))


def _random_ds(n, d, seed, outliers=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = X @ (rng.standard_normal(d) * 2.0) + rng.standard_normal(n)
    ds = Dataset(X=X, y=y)
    if outliers:
        ds = inject_outliers(ds, NoiseConfig(
            mode=NOISE_OUTLIER, outlier_fraction=0.2, outlier_magnitude=5.0,
            seed=seed))
    return ds


def test_criterion_1_toy_slope_recovery(capsys):
    with _criterion(capsys, 1, "toy slope recovery"):
        ensemble = parse_ensemble(TOY_ENSEMBLE)
        t0 = time.perf_counter()
        errors = [abs(fit(_toy(seed), ensemble).w[0] - 2.0) for seed in SEEDS]
        elapsed = time.perf_counter() - t0
        assert max(errors) <= 0.02, f"worst slope error {max(errors):.6f}"
        assert elapsed < 1.0, f"{len(errors)} fits took {elapsed:.3f}s"


def test_criterion_2_ensemble_weight_behavior(capsys):
    with _criterion(capsys, 2, "ensemble weight behavior"):
        ensemble = parse_ensemble(TOY_ENSEMBLE)
        ordering_wins = paired_wins = 0
        for seed in SEEDS:
            lam_g = _lambda_by_label(fit(_toy(seed), ensemble))
            lam_o = _lambda_by_label(fit(_toy(seed, NOISE_OUTLIER), ensemble))
            # gaussian noise: the gentler convex loss should dominate
            if lam_g["l1l2"] > lam_g["welsch:1.5"]:
                ordering_wins += 1
            # outliers: welsch's share must rise vs the matched clean run
            if lam_o["welsch:1.5"] > lam_g["welsch:1.5"]:
                paired_wins += 1
        assert ordering_wins >= 18, f"ordering held in {ordering_wins}/20 runs"
        assert paired_wins >= 18, f"paired increase held in {paired_wins}/20 runs"


def _catalog_ensembles():
    out = []
    for size in (2, 3, 5):
        for combo in itertools.combinations(KINDS, size):
            out.append(EnsembleSpec(tuple(LossSpec(k) for k in combo)))
    return out  # C(5,2) + C(5,3) + C(5,5) = 21


def test_criterion_3_monotone_risk_traces(capsys):
    with _criterion(capsys, 3, "monotone risk traces"):
        datasets = [_toy(0)] + [_random_ds(200, 8, s, outliers=True)
                                for s in range(5)]
        config = SolverConfig(rel_tol=0.0, max_iters=30)
        checked = 0
        for ds in datasets:
            for ensemble in _catalog_ensembles():
                r = fit(ds, ensemble, config).trace.risks
                slack = 1e-10 * np.maximum(1.0, np.abs(r[:-1]))
                assert np.all(np.diff(r) <= slack), \
                    f"risk rose for {ensemble.labels()}"
                checked += 1
        assert checked == 6 * 21


def test_criterion_4_early_risk_decrease(capsys):
    with _criterion(capsys, 4, "early risk decrease"):
        ensemble = parse_ensemble(TOY_ENSEMBLE)
        config = SolverConfig(rel_tol=0.0, max_iters=30)
        for seed in SEEDS:
            ratio = decrease_ratio(fit(_toy(seed), ensemble, config).trace)
            assert ratio >= 0.85, f"seed {seed}: decrease ratio {ratio:.4f}"
        # frozen reference trace: 617.9089 -> 615.2434 (iter 10) -> 615.2070
        risks = np.concatenate([
            np.linspace(617.9089, 615.2434, 10),
            np.linspace(615.2434, 615.2070, 21)[1:],
        ])
        trace = SolverTrace(risks=risks, max_steps=np.zeros(30),
                            iterations=30, converged=False)
        assert abs(decrease_ratio(trace) - 0.986528) <= 1e-5


def test_criterion_5_robustness_win_rate(capsys):
    with _criterion(capsys, 5, "robustness win rate"):
        relf_method = RelfMethod(ensemble=parse_ensemble(TRIO))
        ols_method = LeastSquaresMethod()
        t0 = time.perf_counter()
        wins = 0
        for trial in range(100):
            ds = _toy(trial)
            cv = CvConfig(folds=10, seed=trial)
            cont = NoiseConfig(mode=NOISE_OUTLIER, outlier_fraction=0.3,
                               outlier_magnitude=5.0, seed=trial)
            folds = cv_folds(ds, cv, scale_features=False, intercept=False)
            labels = [train_labels(folds, cont)]
            (robust,) = cross_validate(folds, relf_method, labels)
            (plain,) = cross_validate(folds, ols_method, labels)
            if robust.mean_mae < plain.mean_mae:
                wins += 1
        elapsed = time.perf_counter() - t0
        assert wins >= 95, f"robust ensemble won only {wins}/100 trials"
        assert elapsed < 30.0, f"trials took {elapsed:.1f}s"


def test_criterion_6_kernel_equivalences(capsys):
    with _criterion(capsys, 6, "kernel equivalences"):
        # (a) frozen all-ones auxiliary weights reduce the w-step to OLS
        for seed in range(10):
            ds = _random_ds(50, 5, seed)
            ref = ols_oracle(ds.X, ds.y)
            for m in (1, 3):
                w = update_w(ds, np.ones((ds.n, m)).sum(axis=-1), 1e-12)
                assert np.max(np.abs(w - ref)) <= 1e-6
        # (b) a single-loss ensemble is classical IRLS for that loss
        ds = _random_ds(100, 3, 21, outliers=True)
        config = SolverConfig(alpha=1e-8, max_iters=60, rel_tol=0.0)
        for kind in KINDS:
            model = fit(ds, EnsembleSpec((LossSpec(kind, 1.0),)), config)
            ref = irls_oracle(ds.X, ds.y, kind, 1.0, alpha=1e-8, iters=60)
            assert np.max(np.abs(model.w - ref)) <= 1e-6, kind
        # (c) delta(e) * e matches the finite-difference derivative of phi
        grid = np.linspace(-10.0, 10.0, 81)
        grid = grid[grid != 0.0]
        h = 1e-6
        specs = [LossSpec(k, s) for k in SCALED_KINDS for s in (0.5, 1.0, 2.0)]
        specs += [LossSpec(k) for k in KINDS if k not in SCALED_KINDS]
        for spec in specs:
            numeric = (phi(spec, grid + h) - phi(spec, grid - h)) / (2.0 * h)
            gap = np.max(np.abs(delta(spec, grid) * grid - numeric))
            assert gap <= 1e-5, f"{spec.label()}: max derivative gap {gap:.2e}"


def test_criterion_7_solver_and_protocol_invariants(capsys):
    with _criterion(capsys, 7, "solver and protocol invariants"):
        # lambda lives on the simplex
        full = EnsembleSpec(tuple(LossSpec(k) for k in KINDS))
        for seed in range(5):
            lam = fit(_random_ds(60, 4, seed, outliers=True), full).loss_weights
            assert np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-12
        # invariance under sample and loss permutations
        ds = _random_ds(60, 4, 12, outliers=True)
        base = fit(ds, parse_ensemble(TRIO))
        shuffled = fit(ds.take(np.random.default_rng(0).permutation(ds.n)),
                       parse_ensemble(TRIO))
        assert np.max(np.abs(base.w - shuffled.w)) <= 1e-10
        assert np.max(np.abs(base.loss_weights - shuffled.loss_weights)) <= 1e-10
        reordered = fit(ds, parse_ensemble("huber,welsch,l1l2"))
        assert np.max(np.abs(base.w - reordered.w)) <= 1e-10
        assert np.max(np.abs(base.loss_weights[[2, 0, 1]]
                             - reordered.loss_weights)) <= 1e-10
        # k-fold splits partition the index range exactly
        for n, k in ((81, 10), (200, 7)):
            folds = kfold_split(n, CvConfig(folds=k, seed=1))
            seen = np.sort(np.concatenate([te for _, te in folds]))
            assert np.array_equal(seen, np.arange(n))
            assert all(np.intersect1d(tr, te).size == 0 for tr, te in folds)
        # mae never exceeds rmse
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            y = rng.standard_normal(n)
            yhat = y + rng.standard_normal(n) * rng.uniform(0, 3)
            assert mae(y, yhat) <= rmse(y, yhat) + 1e-12
        # mixing two convex losses pulls the minimizer between their targets
        u, v = -1.3, 2.1
        for kind_a, kind_b in itertools.combinations(CONVEX_KINDS, 2):
            spec_a, spec_b = LossSpec(kind_a), LossSpec(kind_b)
            for lam1 in (0.1, 0.5, 0.9):
                xstar, step = grid_argmin(
                    lambda x: lam1 * phi(spec_a, x - u)
                    + (1.0 - lam1) * phi(spec_b, x - v),
                    u - 3.0, v + 3.0)
                assert u - step <= xstar <= v + step
