import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from relf import (
    EnsembleSpec,
    LossSpec,
    delta,
    load_model,
    parse_ensemble,
    phi,
)
from relf.exceptions import DataError, EnsembleError
from relf.losses import (CONVEX_KINDS, FAIR, HUBER, KINDS, SCALED_KINDS, WELSCH,
                         WELSCH_MIN_SCALE)

from oracles import (central_diff, expression_delta, expression_phi, grid_argmin,
                     two_branch_huber_delta)

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


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestHuberWeightBits:
    """``delta`` of huber, ``1/max(|e|, 2s)``, gives the two-branch weight's
    bits for every input."""

    SCALES = (1e-300, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e300, 1e308)

    @pytest.mark.parametrize("scale", SCALES)
    def test_edges(self, scale):
        two_s = 2.0 * scale
        e = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, two_s, -two_s,
                      np.nextafter(two_s, 0.0), np.nextafter(two_s, np.inf),
                      1e-320, 1e308, -1e308, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = delta(LossSpec(HUBER, scale), e)
            for x, want in zip(e, two_branch_huber_delta(e, scale)):
                assert _bits(delta(LossSpec(HUBER, scale), x)) == _bits(want)
        assert np.array_equal(_bits(got), _bits(two_branch_huber_delta(e, scale)))

    @given(e=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=20),
           log_scale=st.floats(-300.0, 300.0))
    @settings(max_examples=300, deadline=None)
    def test_wide_range(self, e, log_scale):
        scale = 10.0 ** log_scale
        e = np.array(e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = delta(LossSpec(HUBER, scale), e)
        assert np.array_equal(_bits(got), _bits(two_branch_huber_delta(e, scale)))


class TestInPlaceKernelBits:
    """Each kernel writes its steps into one array, with the bits of the
    catalog formula as a plain numpy expression."""

    EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, 1e-160, 1e154, 1e308,
                      -1e308, np.finfo(float).max, 0.5, -2.0, 2.0])

    @staticmethod
    def _check(kind, scale, e):
        if kind == WELSCH and scale <= WELSCH_MIN_SCALE:
            # 2/s^2 overflows (or s^2 underflows to 0): no such spec is built
            with pytest.raises(EnsembleError, match="^loss 'welsch' needs a scale above "):
                LossSpec(kind, scale)
            return
        spec = LossSpec(kind, scale)
        with np.errstate(all="ignore"):
            for x in (e, *e.ravel()[:4]):  # scalars in, Python floats out
                for kernel, oracle in ((phi, expression_phi), (delta, expression_delta)):
                    want = oracle(kind, scale, x)
                    got = kernel(spec, x)
                    assert np.shape(got) == np.shape(want)
                    assert type(got) is (np.ndarray if np.ndim(x) else float)
                    assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [1e-300, 0.5, 1.0, 2.0, 1e300])
    def test_edges(self, kind, scale):
        self._check(kind, scale, self.EDGES)
        self._check(kind, scale, np.concatenate([self.EDGES, -self.EDGES]).reshape(2, 2, -1))

    @given(kind=st.sampled_from(KINDS),
           e=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=30),
           log_scale=st.floats(-300.0, 300.0))
    @settings(max_examples=300, deadline=None)
    def test_wide_range(self, kind, e, log_scale):
        self._check(kind, 10.0 ** log_scale, np.array(e))


class TestCatalogProperties:
    """Every kind at scales 0.1..10 and residuals 1e-6 <= |e| <= 1e6."""

    @given(kind=st.sampled_from(KINDS), scale=st.floats(0.1, 10.0),
           log_e=st.floats(-6.0, 6.0), sign=st.sampled_from((-1.0, 1.0)))
    @settings(max_examples=400, deadline=None)
    def test_phi_delta_and_derivative(self, kind, scale, log_e, sign):
        spec = LossSpec(kind, scale)
        e = sign * 10.0 ** log_e
        assert phi(spec, 0.0) == 0.0
        assert phi(spec, e) >= 0.0
        weight = delta(spec, e)
        assert np.isfinite(weight) and 0.0 <= weight <= delta(spec, 0.0)
        # e * delta(e) = phi'(e) against a central difference; huber's phi''
        # jumps at |e| = 2s, where a central difference is first order only
        h = max(1e-6 * abs(e), 1e-5)
        assume(kind != HUBER or abs(abs(e) - 2.0 * scale) > 2.0 * h)
        hi, lo = phi(spec, e + h), phi(spec, e - h)
        step = (e + h) - (e - h)
        slope = e * weight
        # relative truncation error, plus phi's rounding over the step: about
        # eps absolute where l1l2 and logcosh subtract 1 and log 2 (under
        # 1e-9 as h >= 1e-5), about eps relative to phi elsewhere
        tol = 1e-6 * abs(slope) + 1e-9 + 8.0 * np.finfo(float).eps * max(hi, lo) / step
        assert abs((hi - lo) / step - slope) <= tol


class TestValidation:
    """A spec checks itself where it is built."""

    def test_ok(self):
        EnsembleSpec((LossSpec("welsch", 1.0), LossSpec("l1l2")))

    def test_empty(self):
        with pytest.raises(EnsembleError, match="^ensemble must contain at least one loss$"):
            EnsembleSpec(())

    def test_nonpositive_scale(self):
        with pytest.raises(EnsembleError, match=re.escape(
                "loss 'huber' needs a finite positive scale, got 0.0")):
            EnsembleSpec((LossSpec("huber", 0.0),))
        with pytest.raises(EnsembleError, match=re.escape(
                "loss 'welsch' needs a finite positive scale, got -1.0")):
            LossSpec("welsch", -1.0)
        with pytest.raises(EnsembleError, match=re.escape(
                "loss 'fair' needs a finite positive scale, got nan")):
            LossSpec("fair", float("nan"))

    def test_unknown_kind(self):
        with pytest.raises(EnsembleError, match=re.escape(
                "unknown loss kind 'tukey'; expected one of welsch, l1l2, huber, fair, logcosh")):
            LossSpec("tukey", 1.0)

    def test_duplicates(self):
        with pytest.raises(EnsembleError, match="^duplicate loss 'huber:0.5' in ensemble$"):
            EnsembleSpec((LossSpec("huber", 0.5), LossSpec("huber", 0.5)))
        # fixed-shape kinds collide regardless of the (ignored) scale
        with pytest.raises(EnsembleError, match="^duplicate loss 'l1l2' in ensemble$"):
            EnsembleSpec((LossSpec("l1l2", 1.0), LossSpec("l1l2", 2.0)))

    def test_welsch_scale_limit(self):
        # the limit is the last scale whose weight 2/s^2 overflows; below it
        # s^2 underflows to 0 at about 1.5e-162
        assert math.isinf(2.0 / (WELSCH_MIN_SCALE * WELSCH_MIN_SCALE))
        for scale in (WELSCH_MIN_SCALE, 1e-158, 1e-170, 5e-324):
            with pytest.raises(EnsembleError, match=re.escape(
                    f"loss 'welsch' needs a scale above {WELSCH_MIN_SCALE!r}, "
                    f"where its weight 2/s^2 is finite, got {scale!r}")):
                LossSpec("welsch", scale)
        above = math.nextafter(WELSCH_MIN_SCALE, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(delta(LossSpec("welsch", above), 0.0))
        # the limit is welsch's own: huber and fair take any positive scale
        for kind in ("huber", "fair"):
            LossSpec(kind, 5e-324)

    def test_same_kind_different_scale_is_fine(self):
        EnsembleSpec((LossSpec("huber", 0.5), LossSpec("huber", 1.0)))

    @pytest.mark.parametrize("text, message", [
        # each token's own error comes in token order, before any duplicate
        ("huber,huber,tukey", "unknown loss kind 'tukey'; expected one of "),
        ("tukey,welsch:abc", "unknown loss kind 'tukey'; expected one of "),
        ("welsch:abc,tukey", "bad scale 'abc' for loss 'welsch'"),
        ("huber:0,huber,huber", "loss 'huber' needs a finite positive scale, got 0.0"),
    ])
    def test_error_order(self, text, message):
        with pytest.raises(EnsembleError, match="^" + re.escape(message)):
            parse_ensemble(text)


# a model file with one loss, read by load_model; its loss is filled in
_ONE_LOSS_MODEL = {"schema": "relf.model/1", "w": [0.5], "loss_weights": [1.0],
                   "config": {"alpha": 1e-8, "init": "zeros", "init_seed": 0,
                              "init_std": 1.0, "max_iters": 30, "rel_tol": 1e-8},
                   "trace": None, "preprocessing": {"intercept": False, "scaler": None}}

_SPEC_ERRORS = re.compile(r"unknown loss kind |loss '[^']*' needs a finite positive scale, "
                          r"|loss 'welsch' needs a scale above ")


@given(kind=st.one_of(st.sampled_from(KINDS), st.text("abcdefghijklmnopqrstuvwxyz0123456789_",
                                                      max_size=8)),
       scale=st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf,
                                        -math.inf, math.nan, -1.0, 1e-154, 1e154, 1e308,
                                        WELSCH_MIN_SCALE, math.nextafter(WELSCH_MIN_SCALE, 1.0))),
                       st.floats(allow_nan=True, allow_infinity=True)))
@settings(max_examples=400, deadline=None)
def test_a_spec_that_exists_is_valid(tmp_path_factory, kind, scale):
    """Either ``LossSpec`` refuses a draw with one of its three messages, or
    the spec's kernels are defined at 0 without a warning.  The CLI grammar
    and a model file's loss give the same answer."""
    try:
        spec = LossSpec(kind, scale)
    except EnsembleError as exc:
        spec, message = None, str(exc)
        assert _SPEC_ERRORS.match(message), message
    else:
        # built, but not yet clean at 0: where s^2 overflows, welsch's weight
        # 2/s^2 reads 0 and fair's phi(0) = s^2 * 0 is NaN; huber's weight
        # 1/(2s) reads 0 or inf where it leaves the float range
        with np.errstate(over="ignore"):
            out_of_range = (kind in (WELSCH, FAIR) and math.isinf(scale * scale)
                            or kind == HUBER and not 0.0 < np.divide(1.0, 2.0 * scale) < math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                clean = phi(spec, 0.0) == 0.0 and 0.0 < delta(spec, 0.0) < math.inf
            except RuntimeWarning:
                clean = False
        assert clean != out_of_range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the grammar: kind[:scale], repr round-trips every float
        try:
            parsed = parse_ensemble(f"{kind}:{scale!r}")
        except EnsembleError as exc:
            assert spec is None and str(exc) == message
        else:
            assert parsed.losses == (spec,)
        # a model file: JSON has no non-finite number, which its reader refuses
        path = tmp_path_factory.mktemp("model") / "model.json"
        path.write_text(json.dumps({**_ONE_LOSS_MODEL,
                                    "ensemble": [{"kind": kind, "scale": scale}]}))
        try:
            model = load_model(path)
        except EnsembleError as exc:
            assert spec is None and str(exc) == message
        except DataError as exc:
            assert not math.isfinite(scale)
            assert str(exc) == "model loss 'scale' must be a finite number"
        else:
            assert model.ensemble.losses == (spec,)


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
        with pytest.raises(EnsembleError, match="^empty ensemble specification$"):
            parse_ensemble("")

    def test_unknown_kind(self):
        with pytest.raises(EnsembleError, match="^unknown loss kind 'cauchy'; expected one of"):
            parse_ensemble("cauchy")

    def test_bad_scale(self):
        with pytest.raises(EnsembleError):
            parse_ensemble("huber:abc")

    def test_duplicate_through_parser(self):
        with pytest.raises(EnsembleError, match="^duplicate loss 'l1l2' in ensemble$"):
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
