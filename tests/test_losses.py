import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relf import (
    EnsembleSpec,
    LossSpec,
    delta,
    parse_ensemble,
    phi,
    validate_ensemble,
    validate_loss,
)
from relf.exceptions import (
    DuplicateLossError,
    EmptyEnsembleError,
    EnsembleError,
    NonPositiveScaleError,
    UnknownLossError,
)
from relf.losses import CONVEX_KINDS, KINDS, SCALED_KINDS

from oracles import central_diff, grid_argmin

SQRT_HALF = math.sqrt(0.5)  # welsch with sigma^2 = 1/2

# grid over [-10, 10] excluding 0 (81 points, step 0.25)
GRID = np.array([x for x in np.linspace(-10.0, 10.0, 81) if x != 0.0])


class TestPhi:
    def test_welsch_half_sigma_squared(self):
        # phi(e) = 1 - exp(-2 e^2) when sigma^2 = 1/2
        assert_allclose(phi(LossSpec("welsch", SQRT_HALF), 1.0),
                        1.0 - math.exp(-2.0), rtol=1e-12)

    def test_l1l2_values(self):
        spec = LossSpec("l1l2")
        assert phi(spec, 0.0) == 0.0
        assert_allclose(phi(spec, math.sqrt(3.0)), 1.0, rtol=1e-12)

    def test_huber_branches(self):
        spec = LossSpec("huber", 1.0)
        assert_allclose(phi(spec, 3.0), 2.0, rtol=1e-12)      # linear: |e| - eps
        assert_allclose(phi(spec, 1.0), 0.25, rtol=1e-12)     # quadratic: e^2/(4 eps)
        # continuity at the 2*eps breakpoint
        assert_allclose(phi(spec, 2.0 - 1e-9), phi(spec, 2.0 + 1e-9), atol=1e-8)

    def test_fair_closed_form(self):
        assert_allclose(phi(LossSpec("fair", 1.0), 1.0), 1.0 - math.log(2.0),
                        rtol=1e-12)

    def test_logcosh_values(self):
        spec = LossSpec("logcosh")
        assert phi(spec, 0.0) == 0.0
        assert_allclose(phi(spec, 2.0), math.log(math.cosh(2.0)), rtol=1e-12)
        # stable for huge residuals: ~ |e| - log 2
        assert_allclose(phi(spec, 800.0), 800.0 - math.log(2.0), rtol=1e-12)

    def test_vectorized_matches_scalar(self):
        for kind in KINDS:
            spec = LossSpec(kind, 0.7)
            vec = phi(spec, GRID)
            assert vec.shape == GRID.shape
            assert_allclose(vec, [phi(spec, float(e)) for e in GRID], rtol=1e-14)

    def test_zero_at_zero_and_nonnegative(self):
        for kind in KINDS:
            spec = LossSpec(kind, 1.3)
            assert phi(spec, 0.0) == 0.0
            assert np.all(phi(spec, GRID) >= 0.0)


class TestDelta:
    def test_limits_at_zero(self):
        assert_allclose(delta(LossSpec("welsch", SQRT_HALF), 0.0), 4.0, rtol=1e-12)
        assert delta(LossSpec("l1l2"), 0.0) == 1.0
        assert delta(LossSpec("fair", 1.0), 0.0) == 1.0
        assert delta(LossSpec("logcosh"), 0.0) == 1.0
        assert_allclose(delta(LossSpec("huber", 0.5), 0.0), 1.0, rtol=1e-12)

    def test_huber_linear_branch_against_oracle(self):
        spec = LossSpec("huber", 1.0)
        fd = central_diff(lambda e: phi(spec, e), 4.0) / 4.0
        assert_allclose(delta(spec, 4.0), fd, atol=1e-5)
        assert_allclose(delta(spec, 4.0), 0.25, rtol=1e-12)

    def test_logcosh_against_oracle(self):
        spec = LossSpec("logcosh")
        fd = central_diff(lambda e: phi(spec, e), 2.0) / 2.0
        assert_allclose(delta(spec, 2.0), fd, atol=1e-5)
        assert_allclose(delta(spec, 2.0), math.tanh(2.0) / 2.0, rtol=1e-12)

    def test_welsch_decays_to_zero(self):
        spec = LossSpec("welsch", SQRT_HALF)
        assert delta(spec, 50.0) < 1e-300
        assert delta(spec, 1e6) == 0.0  # underflow is the limit

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_derivative_consistency_on_grid(self, kind, scale):
        """delta(e) == phi'(e)/e against the finite-difference oracle."""
        spec = LossSpec(kind, scale)
        for e in GRID:
            fd = central_diff(lambda t: phi(spec, t), float(e)) / float(e)
            assert abs(delta(spec, float(e)) - fd) <= 1e-5

    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetry_exact(self, kind):
        spec = LossSpec(kind, 0.5)
        pos = GRID[GRID > 0]
        assert np.array_equal(phi(spec, pos), phi(spec, -pos))
        assert np.array_equal(delta(spec, pos), delta(spec, -pos))

    def test_robust_kind_decay(self):
        # welsch weight is below 1e-6 of its peak beyond 6 sigma
        for sigma in (0.5, 1.0, 2.0):
            spec = LossSpec("welsch", sigma)
            peak = delta(spec, 0.0)
            for e in (6 * sigma, 8 * sigma, 20 * sigma):
                assert delta(spec, e) <= 1e-6 * peak

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_overflowing_residual_limits(self, kind, scale):
        # e^2 (or |e|/s) overflows: phi keeps its limit, delta reaches 0;
        # fit runs the kernels with overflow ignored, and so does this test
        spec = LossSpec(kind, scale)
        e = np.array([1.7e308, -1.7e308])
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            value, weight = phi(spec, e), delta(spec, e)
        assert np.all(value == 1.0) if kind == "welsch" else np.all(value >= 1e300)
        assert np.all((weight >= 0.0) & (weight < 1e-300))
        # NaN is not an overflow: it still propagates (logcosh's logaddexp
        # flags it as an invalid value)
        with np.errstate(invalid="ignore"):
            assert np.isnan(phi(spec, np.nan)) and np.isnan(delta(spec, np.nan))

    def test_boundedness_split(self):
        assert phi(LossSpec("welsch", 1.0), 1e6) <= 1.0
        for kind in CONVEX_KINDS:
            assert phi(LossSpec(kind, 1.0), 1e6) > 1e3


class TestValidation:
    def test_ok(self):
        validate_ensemble(EnsembleSpec((LossSpec("welsch", 1.0), LossSpec("l1l2"))))

    def test_empty(self):
        with pytest.raises(EmptyEnsembleError):
            validate_ensemble(EnsembleSpec(()))

    def test_nonpositive_scale(self):
        with pytest.raises(NonPositiveScaleError):
            validate_ensemble(EnsembleSpec((LossSpec("huber", 0.0),)))
        with pytest.raises(NonPositiveScaleError):
            validate_loss(LossSpec("welsch", -1.0))
        with pytest.raises(NonPositiveScaleError):
            validate_loss(LossSpec("fair", float("nan")))

    def test_unknown_kind(self):
        with pytest.raises(UnknownLossError):
            validate_loss(LossSpec("tukey", 1.0))

    def test_duplicates(self):
        with pytest.raises(DuplicateLossError):
            validate_ensemble(EnsembleSpec((LossSpec("huber", 0.5),
                                            LossSpec("huber", 0.5))))
        # fixed-shape kinds collide regardless of the (ignored) scale
        with pytest.raises(DuplicateLossError):
            validate_ensemble(EnsembleSpec((LossSpec("l1l2", 1.0),
                                            LossSpec("l1l2", 2.0))))

    def test_same_kind_different_scale_is_fine(self):
        validate_ensemble(EnsembleSpec((LossSpec("huber", 0.5),
                                        LossSpec("huber", 1.0))))


class TestParse:
    def test_full_grammar(self):
        ens = parse_ensemble("welsch:1.0,l1l2,huber:0.5")
        assert ens.m == 3
        assert ens.losses[0] == LossSpec("welsch", 1.0)
        assert ens.losses[1] == LossSpec("l1l2", 1.0)
        assert ens.losses[2] == LossSpec("huber", 0.5)

    def test_case_insensitive_and_spacing(self):
        ens = parse_ensemble(" Welsch:2 , FAIR ")
        assert [s.kind for s in ens.losses] == ["welsch", "fair"]

    def test_empty_string(self):
        with pytest.raises(EmptyEnsembleError):
            parse_ensemble("")

    def test_unknown_kind(self):
        with pytest.raises(UnknownLossError):
            parse_ensemble("cauchy")

    def test_bad_scale(self):
        with pytest.raises(EnsembleError):
            parse_ensemble("huber:abc")

    def test_duplicate_through_parser(self):
        with pytest.raises(DuplicateLossError):
            parse_ensemble("l1l2,l1l2")

    def test_round_trip(self):
        for text in ("welsch:1.5,l1l2", "huber:0.5,fair:2,logcosh", "welsch"):
            label = ",".join(parse_ensemble(text).labels())
            assert label == ",".join(parse_ensemble(label).labels())


class TestBetweenness:
    """The minimizer of a convex combination of two shifted convex losses
    stays between the two shifts."""

    @pytest.mark.parametrize("lam1", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("kind_a", CONVEX_KINDS)
    @pytest.mark.parametrize("kind_b", CONVEX_KINDS)
    def test_minimizer_between_shifts(self, kind_a, kind_b, lam1):
        u, v = -1.3, 2.1
        spec_a, spec_b = LossSpec(kind_a, 1.0), LossSpec(kind_b, 1.0)

        def combined(f):
            return lam1 * phi(spec_a, f - u) + (1.0 - lam1) * phi(spec_b, f - v)

        x_star, step = grid_argmin(combined, u - 3.0, v + 3.0)
        assert min(u, v) - step <= x_star <= max(u, v) + step
