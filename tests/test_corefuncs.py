import cmath
import math
import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hestondist as hd
from hestondist import DegenerateLineError, DomainError
from hestondist import corefuncs as cf

from conftest import angles_open, variances

PI = math.pi


class TestPsi:
    def test_value_at_pi(self):
        assert hd.psi(PI) == pytest.approx(PI / 2, abs=1e-15)

    def test_value_at_three_half_pi(self):
        assert hd.psi(1.5 * PI) == pytest.approx(1.5 * PI + 1.0, abs=1e-14)

    def test_small_angle_limit(self):
        # psi(t) ~ t/3 as t -> 0+
        for t in (1e-6, 1e-4, 1e-3):
            assert hd.psi(t) == pytest.approx(t / 3.0, rel=1e-6)

    @given(angles_open)
    def test_odd(self, t):
        assert hd.psi(-t) == -hd.psi(t)

    def test_strictly_increasing(self):
        ts = [1e-4 + (2 * PI - 2e-4) * i / 400 for i in range(401)]
        vals = [hd.psi(t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            hd.psi(0.0)
        with pytest.raises(DomainError):
            hd.psi(2 * PI)


class TestFOf:
    def test_boundary_is_psi(self):
        for d in (0.5, 1.0, 2.5, 4.0, 6.0):
            assert hd.f_of(0.0, d) == pytest.approx(hd.psi(d), rel=1e-14)

    def test_value_at_pi(self):
        assert hd.f_of(1.0, PI) == pytest.approx(PI + 2.0, abs=1e-13)

    @given(variances, angles_open)
    def test_odd(self, v, d):
        assert hd.f_of(v, -d) == -hd.f_of(v, d)

    def test_zero_delta_limit(self):
        assert hd.f_of(3.7, 0.0) == 0.0

    def test_increasing_in_delta(self):
        for v in (0.0, 0.3, 1.0, 4.0, 25.0):
            ts = [1e-3 + (2 * PI - 2e-3) * i / 300 for i in range(301)]
            vals = [hd.f_of(v, t) for t in ts]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            hd.f_of(-1.0, 1.0)
        with pytest.raises(DomainError):
            hd.f_of(1.0, 2 * PI)


class TestLambdaBig:
    def test_at_critical_abscissa(self):
        for t in (0.4, 1.0, 2.0, 3.0):
            x0 = 0.5 * (t + math.sin(t))
            assert hd.lambda_big(x0, t) == pytest.approx(t * t / 2, rel=1e-12)

    def test_at_boundary_abscissa(self):
        for t in (0.4, 1.3, 2.9, 4.5):
            expected = t * t / (1.0 - math.cos(t))
            assert hd.lambda_big(hd.psi(t), t) == pytest.approx(expected, rel=1e-11)

    def test_grows_unboundedly(self):
        t = 1.2
        vals = [hd.lambda_big(x, t) for x in (10.0, 100.0, 1000.0, 10000.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1e3

    def test_reflected_branch(self):
        # negative index evaluates through the mirrored curve
        assert hd.lambda_big(-2.0, -1.1) == hd.lambda_big(2.0, 1.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            hd.lambda_big(1.0, 0.0)
        with pytest.raises(DomainError):
            # x far left of the curve start
            hd.lambda_big(0.0, 3.0)


class TestCoefficients:
    def test_values_at_pi(self):
        assert hd.coef_A(PI) == pytest.approx(-2.0 / PI, abs=1e-15)
        assert hd.coef_B(PI) == pytest.approx(2.0 / PI, abs=1e-15)

    @given(angles_open)
    @settings(max_examples=50)
    def test_b_is_reciprocal_psi(self, t):
        assert hd.coef_B(t) * hd.psi(t) == pytest.approx(1.0, rel=1e-12)

    def test_monotonicity(self):
        ts = [1e-3 + (2 * PI - 2e-3) * i / 300 for i in range(301)]
        neg_a = [-hd.coef_A(t) for t in ts]
        b = [hd.coef_B(t) for t in ts]
        assert all(x < y for x, y in zip(neg_a, neg_a[1:]))
        assert all(x > y for x, y in zip(b, b[1:]))

    def test_domain(self):
        for bad in (0.0, -1.0, 2 * PI):
            with pytest.raises(DomainError):
                hd.coef_A(bad)
            with pytest.raises(DomainError):
                hd.coef_B(bad)

    @pytest.mark.parametrize("t", [5e-324, 1e-323, 1.5e-323, 2e-323])
    def test_smallest_subnormals(self, t):
        # theta*(theta - sin theta)/theta^3 underflows to 0 below 2e-323:
        # B = 1/psi is inf there, as the array kernel gives, and the
        # functions built on A and B answer or raise a typed error
        assert (hd.coef_A(t), hd.coef_B(t)) == (-0.5, math.inf)
        assert cf._coefs_series(t) == (-0.5, math.inf)
        assert hd.eta(t) == hd.psi(t) * 1.5
        assert hd.eta_inv(t) == t
        assert hd.discriminant(1.0, 0.5, t) == -math.inf
        with pytest.raises(DomainError):
            hd.discriminant(0.0, 1.0, t)


class TestIndexFunctions:
    def test_x_crit_at_pi(self):
        assert hd.x_crit(PI) == pytest.approx(PI / 2, abs=1e-15)

    def test_zeta_kills_gamma_at_pi(self):
        for g in (-2.0, 0.0, 0.7, 10.0):
            assert hd.zeta(g, PI) == pytest.approx(PI / 2, abs=1e-12)

    def test_eta_vanishes_at_origin(self):
        assert hd.eta(1e-8) < 1e-7

    def test_eta_increasing(self):
        ts = [1e-3 + (2 * PI - 2e-3) * i / 200 for i in range(201)]
        vals = [hd.eta(t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_eta_alpha_increasing(self):
        alpha = 2.0
        ceiling = hd.psi_inv(alpha)
        ts = [ceiling * (0.01 + 0.98 * i / 100) for i in range(101)]
        vals = [hd.eta_alpha(alpha, t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_zeta_x_crit_increasing_onto(self):
        g = 0.8
        ts = [PI * i / 100 for i in range(101)]
        zv = [hd.zeta(g, t) for t in ts]
        xv = [hd.x_crit(t) for t in ts]
        assert all(a < b for a, b in zip(zv, zv[1:]))
        assert all(a < b for a, b in zip(xv, xv[1:]))
        assert zv[0] == pytest.approx(-g) and zv[-1] == pytest.approx(PI / 2)
        assert xv[0] == 0.0 and xv[-1] == pytest.approx(PI / 2)

    def test_xi_at_pi_is_stationary_minimum(self):
        assert hd.xi(PI) == pytest.approx(PI, rel=1e-14)
        h = 1e-5
        deriv = (hd.xi(PI + h) - hd.xi(PI - h)) / (2 * h)
        assert abs(deriv) < 1e-8

    def test_xi_v_shape(self):
        down = [hd.xi(t) for t in (0.3, 1.0, 2.0, 3.0, PI)]
        up = [hd.xi(t) for t in (PI, 3.5, 4.5, 5.5, 6.2)]
        assert all(a > b for a, b in zip(down, down[1:]))
        assert all(a < b for a, b in zip(up, up[1:]))

    def test_eta_alpha_domain(self):
        with pytest.raises(DomainError):
            hd.eta_alpha(1.0, hd.psi_inv(1.0) + 0.1)


class TestIntersectionRoots:
    def test_tangency_collapses_roots(self):
        beta, t = 0.7, 1.3
        a, b = hd.coef_A(t), hd.coef_B(t)
        gamma = (1.0 - a * a / (1.0 - beta * b)) / b
        assert abs(hd.discriminant(beta, gamma, t)) < 1e-12
        sp = hd.s_plus(beta, gamma, t)
        sm = hd.s_minus(beta, gamma, t)
        assert sp == pytest.approx(a / (1.0 - gamma * b), rel=1e-9)
        assert sm == pytest.approx(sp, rel=1e-9)

    def test_vertical_root_matches_level_curve(self):
        # gamma = 0: the squared root reproduces the curve ordinate
        for t, beta in ((0.9, 0.8), (2.1, 3.0), (4.0, 9.0)):
            v_root = hd.s_plus(beta, 0.0, t) ** 2
            assert v_root == pytest.approx(hd.curve_v(t, beta), rel=1e-12)

    def test_boundary_line_roots(self):
        # beta = psi(theta) with steeper slope: roots 0 and -2A/(gamma*B - 1)
        t = 2.0
        beta = hd.psi(t)
        gamma = beta + 1.0
        a, b = hd.coef_A(t), hd.coef_B(t)
        assert hd.s_plus(beta, gamma, t) == pytest.approx(0.0, abs=1e-14)
        assert hd.s_minus(beta, gamma, t) == pytest.approx(
            -2.0 * a / (gamma * b - 1.0), rel=1e-12
        )

    def test_degenerate_configuration_raises(self):
        t = 1.7
        b = hd.coef_B(t)
        gamma = 1.0 / b
        # land exactly on 1 - gamma*B == 0 (rounding can leave an ulp gap)
        while 1.0 - gamma * b != 0.0:
            gamma = math.nextafter(gamma, math.inf if gamma * b < 1.0 else -math.inf)
        with pytest.raises(DegenerateLineError):
            hd.s_minus(2.0, gamma, t)
        with pytest.raises(DegenerateLineError):
            hd.s_plus(2.0, gamma, t)
        # the single-root formula applies instead
        s = hd.s_tangent(2.0, t)
        assert math.isfinite(s)

    def test_discriminant_negative_raises(self):
        with pytest.raises(DomainError):
            hd.s_plus(0.01, 0.005, 3.0)


class TestLambdaBranches:
    def test_vertical_plus_equals_level_formula(self):
        # two independent formula paths must agree tightly
        for t, beta in ((0.8, 1.0), (1.7, 2.0), (3.1, 4.0)):
            lp = hd.lambda_plus(beta, 0.0, t)
            lb = hd.lambda_big(beta, t)
            assert lp == pytest.approx(lb, rel=1e-12)

    def test_sign_law(self, rng):
        # sign(lambda_plus - lambda_minus) = sign(gamma*cot(theta/2) - 1)
        checked = 0
        while checked < 200:
            beta = rng.uniform(0.05, 3.0)
            gamma = beta * rng.uniform(1.05, 4.0)
            lo = hd.eta_alpha_inv(gamma, beta)
            hi = min(hd.psi_inv(beta), hd.psi_inv(gamma) - 1e-6)
            if hi <= lo:
                continue
            t = rng.uniform(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo))
            if hd.discriminant(beta, gamma, t) <= 0:
                continue
            diff = hd.lambda_plus(beta, gamma, t) - hd.lambda_minus(beta, gamma, t)
            marker = gamma / math.tan(t / 2) - 1.0
            if abs(diff) < 1e-12:
                continue
            assert diff * marker > 0, (beta, gamma, t, diff, marker)
            checked += 1

    def test_far_indices_prefer_plus(self, rng):
        # theta >= pi with both branches defined: plus branch is closer
        checked = 0
        while checked < 100:
            beta = rng.uniform(2.0, 8.0)
            gamma = beta * rng.uniform(1.05, 3.0)
            lo = max(hd.eta_alpha_inv(gamma, beta), PI)
            hi = min(hd.psi_inv(beta), hd.psi_inv(gamma) - 1e-6)
            if hi <= lo:
                continue
            t = rng.uniform(lo, hi)
            if hd.discriminant(beta, gamma, t) <= 0:
                continue
            assert hd.lambda_plus(beta, gamma, t) <= hd.lambda_minus(
                beta, gamma, t
            ) + 1e-12
            checked += 1


TOP_OF_RANGE = (1e307, 1e308, sys.float_info.max)


class TestBounds:
    def test_majorant_continuous_at_pi(self):
        for v in (0.0, 1.0, 7.3):
            expected = (PI**3 / 12.0) * (v + math.sqrt(v) + 1.0)
            assert hd.g_major(v, PI) == pytest.approx(expected, rel=1e-14)
            assert hd.g_major(v, PI - 1e-12) == pytest.approx(expected, rel=1e-9)
            assert hd.g_major(v, PI + 1e-12) == pytest.approx(expected, rel=1e-9)

    def test_lower_bound_continuous_at_knee(self):
        for v in (0.0, 2.0, 11.0):
            knee = (PI**3 / 12.0) * (v + math.sqrt(v) + 1.0)
            assert hd.h_lower(knee, v) == pytest.approx(PI, rel=1e-12)
            assert hd.h_lower(knee * (1 + 1e-12), v) == pytest.approx(PI, rel=1e-9)

    @given(variances, st.floats(min_value=1e-3, max_value=2 * PI - 1e-3))
    @settings(max_examples=200)
    def test_majorant_dominates(self, v, d):
        assert hd.f_of(v, d) <= hd.g_major(v, d) * (1 + 1e-12)

    def test_t_bound_coincident(self):
        assert hd.t_bound((0.0, 1.0), (0.0, 1.0)) == 0.0

    def test_t_bound_where_the_squared_separation_overflows(self):
        # T = r/(sqrt(v0) + sqrt(v1) + sqrt(r)) for the separation r
        assert hd.t_bound((0.0, 1.0), (1e200, 1.0)) == pytest.approx(
            1e200 / (2.0 + 1e100), rel=1e-15
        )
        # the difference of the abscissas itself overflows: T = r/(1 + sqrt(r/2))
        # for half the separation r
        r = hd.t_bound((1e308, 1.0), (-1e308, 1.0))
        assert r == pytest.approx(1e308 / (1.0 + math.sqrt(0.5e308)), rel=1e-15)
        # increasing across the switch to the scaled form near 1.34e154
        xs = [1e154, 1.3e154, 1.34e154, 1.35e154, 1.4e154, 1e155]
        ts = [hd.t_bound((0.0, 1.0), (x, 1.0)) for x in xs]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)

    @pytest.mark.parametrize("v", TOP_OF_RANGE)
    @pytest.mark.parametrize("x", TOP_OF_RANGE)
    def test_lower_bound_at_the_top_of_the_range(self, x, v):
        # 12*x and pi^2*(v + sqrt(v) + 1) overflow here; the bound was NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = hd.h_lower(x, v)
        assert 0.0 <= d <= 2 * PI, (x, v, d)

    @given(
        st.floats(min_value=1e306, max_value=1.4e307),
        st.floats(min_value=0.0, max_value=1.7e307),
    )
    @settings(max_examples=300)
    def test_lower_bound_keeps_its_bits_below_overflow(self, x, v):
        # at the top of the range, where the products still fit, the bound
        # is the plain formula's to the bit
        bulk = v + math.sqrt(v) + 1.0
        if x <= (PI**3 / 12.0) * bulk:
            plain = 12.0 * x / (PI**2 * bulk)
        else:
            plain = 2 * PI - PI**1.6 * (bulk / (12.0 * x)) ** 0.2
        assert hd.h_lower(x, v) == plain

    def test_domains(self):
        with pytest.raises(DomainError):
            hd.g_major(1.0, 0.0)
        with pytest.raises(DomainError):
            hd.h_lower(0.0, 1.0)
        with pytest.raises(DomainError):
            hd.t_bound((0.0, -1.0), (0.0, 1.0))

    @pytest.mark.parametrize("p1", [(math.inf, 1.0), (0.0, math.inf)])
    def test_t_bound_rejects_infinite_coordinates(self, p1):
        with pytest.raises(DomainError):
            hd.t_bound((0.0, 1.0), p1)


def below(t):
    """The largest double below t: the last angle of the series form."""
    return math.nextafter(t, 0.0)


class TestSeriesSwitchContinuity:
    """The series and closed-form paths must agree at the switch point: the
    series form runs just below SMALL_ANGLE, the direct form at it."""

    @pytest.mark.parametrize("t", [hd.SMALL_ANGLE])
    def test_psi(self, t):
        assert hd.psi(below(t)) == pytest.approx(hd.psi(t), rel=1e-9)

    @pytest.mark.parametrize("t", [hd.SMALL_ANGLE])
    def test_coefficients(self, t):
        assert hd.coef_A(below(t)) == pytest.approx(hd.coef_A(t), rel=1e-9)
        assert hd.coef_B(below(t)) == pytest.approx(hd.coef_B(t), rel=1e-9)

    @pytest.mark.parametrize("v", [0.0, 0.4, 1.0, 9.0])
    def test_f_of(self, v):
        t = hd.SMALL_ANGLE
        assert hd.f_of(v, below(t)) == pytest.approx(hd.f_of(v, t), rel=1e-9)

    @pytest.mark.parametrize("x", [0.5, 2.0, 40.0])
    def test_lambda_big(self, x):
        t = hd.SMALL_ANGLE
        assert hd.lambda_big(x, below(t)) == pytest.approx(
            hd.lambda_big(x, t), rel=1e-9
        )


# ---------------------------------------------------------------------------
# f_of, eta_alpha and zeta have one body each: the closure their factory
# returns.  These are the two-argument bodies they replaced, kept here as the
# reference the closures must match bit for bit, error type and message
# included.
# ---------------------------------------------------------------------------


def two_argument_f_of(v, delta):
    if not v >= 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    cf._check_angle_sym(delta, "delta")
    if delta == 0.0:
        return 0.0
    if delta < 0.0:
        return -two_argument_f_of(v, -delta)
    s = math.sqrt(v)
    if delta < cf.SMALL_ANGLE:
        t2 = delta * delta
        sr = cf._sin_half_r(t2)
        qr = cf._sin_quarter_r(t2)
        num = (s - 1.0) ** 2 * cf._p_r3(t2) + 4.0 * s * qr * qr * (1.0 + 2.0 * sr)
        return delta * num / (2.0 * sr * sr)
    sh = math.sin(0.5 * delta)
    q4 = math.sin(0.25 * delta)
    num = (s - 1.0) ** 2 * (delta - math.sin(delta)) + 4.0 * s * q4 * q4 * (
        delta + 2.0 * sh
    )
    return num / (2.0 * sh * sh)


def complex_step_slope(v, delta):
    """d f_of(v, delta)/d delta by a complex step of 1e-20*delta on the
    direct form of f_of.  The step takes no difference of function values;
    its imaginary part of d - sin d is h*(1 - cos d), which cancels as
    f_of's own d - sin d does.  Below SMALL_ANGLE the real part of d - sin d
    would cancel too, and the quotient carries it into the slope, so there
    d - sin d is its Taylor series."""
    h = 1e-20 * delta
    t = complex(delta, h)
    s = math.sqrt(v)
    sh, q4 = cmath.sin(0.5 * t), cmath.sin(0.25 * t)
    if delta < cf.SMALL_ANGLE:
        t2 = t * t
        p = t * t2 * (1 / 6 - t2 * (1 / 120 - t2 * (1 / 5040 - t2 / 362880)))
    else:
        p = t - cmath.sin(t)
    num = (s - 1.0) ** 2 * p + 4.0 * s * q4 * q4 * (t + 2.0 * sh)
    return (num / (2.0 * sh * sh)).imag / h


def two_argument_eta_alpha(alpha, theta):
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    cf._check_angle_open(theta)
    if theta < cf.SMALL_ANGLE:
        t2 = theta * theta
        p3 = cf._p_r3(t2)
        sr = cf._sin_half_r(t2)
        ps = theta * p3 / (2.0 * sr * sr)
        a = -cf._u_r3(t2) / p3
    else:
        sh = math.sin(0.5 * theta)
        p = theta - math.sin(theta)
        ps = p / (2.0 * sh * sh)
        a = -(2.0 * sh - theta * math.cos(0.5 * theta)) / p
    if ps >= alpha:
        raise DomainError(
            f"theta={theta!r} is not below the tangency ceiling psi^-1({alpha!r})"
        )
    r = ps * a / (alpha - ps)
    return ps * a * r + ps


def two_argument_zeta(gamma, theta):
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    if math.isnan(gamma):
        raise DomainError(f"gamma must be a number, got {gamma!r}")
    ch = math.cos(0.5 * theta)
    return 0.5 * (theta + math.sin(theta)) - gamma * ch * ch


def outcome(fn, *args):
    """fn(*args) as float.hex, or the type and message of its error."""
    try:
        return fn(*args).hex()
    except Exception as exc:  # the error itself is what is compared
        return type(exc).__name__, str(exc)


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


def log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


EDGE_ANGLES = (
    0.0, 5e-324, cf.SMALL_ANGLE, math.nextafter(cf.SMALL_ANGLE, 0.0), PI,
    math.nextafter(2 * PI, 0.0), 2 * PI, 7.0, math.inf, math.nan,
)
# the series branch down to subnormals, near 2*pi, anywhere, the edges
ANGLE_MAGNITUDES = st.one_of(
    st.floats(min_value=0.0, max_value=cf.SMALL_ANGLE),
    st.floats(min_value=2 * PI - 1e-6, max_value=2 * PI),
    st.floats(min_value=0.0, max_value=2 * PI),
    st.sampled_from(EDGE_ANGLES),
)
ARC_ANGLES = signed(ANGLE_MAGNITUDES)
# v in {0, 5e-324}, log-uniform in [1e-300, 1e300], and a few invalid ones
ARC_VARIANCES = st.one_of(
    st.sampled_from((0.0, 5e-324, -0.0, -1.0, math.inf, math.nan)),
    log_uniform(-300.0, 300.0),
)
SLOPES = st.one_of(
    signed(log_uniform(-300.0, 300.0)),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan)),
)


class TestOneFrameObjectives:
    @given(ARC_VARIANCES, ARC_ANGLES)
    @settings(max_examples=500)
    def test_f_of(self, v, delta):
        want = outcome(two_argument_f_of, v, delta)
        assert outcome(hd.f_of, v, delta) == want
        assert outcome(lambda: cf._f_of_fn(v)(delta)[0]) == want

    @given(
        st.one_of(st.sampled_from((0.0, 1.0)), log_uniform(-6.0, 6.0)),
        st.one_of(
            st.floats(min_value=1e-300, max_value=cf.SMALL_ANGLE),
            st.floats(min_value=cf.SMALL_ANGLE, max_value=2 * PI - 1e-6),
        ),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_f_of_slope(self, v, delta, negative):
        # above SMALL_ANGLE the closure's slope is the derivative; both it
        # and the complex step carry f_of's cancellation (d - sin d) just
        # above the switch, ~7e-12 relative against mpmath.  Below it the
        # slope is f/delta, within O(delta^2) of the derivative.
        assert cf._f_of_fn(v)(0.0) == (0.0, (v + math.sqrt(v) + 1.0) / 3.0)
        f, slope = cf._f_of_fn(v)(-delta if negative else delta)
        assert f == (-1.0 if negative else 1.0) * hd.f_of(v, delta)
        if delta >= cf.SMALL_ANGLE:
            assert slope == pytest.approx(complex_step_slope(v, delta), rel=5e-11)
            return
        assert slope == hd.f_of(v, delta) / delta
        if delta > 1e-6:  # below, the complex step of d - sin d cancels
            assert slope == pytest.approx(complex_step_slope(v, delta), rel=1e-4)

    @given(
        st.one_of(
            log_uniform(-300.0, 300.0),
            log_uniform(-2.0, 3.0),
            st.sampled_from((0.0, -1.0, math.inf, math.nan)),
        ),
        st.one_of(ANGLE_MAGNITUDES, ARC_ANGLES),
    )
    @settings(max_examples=500)
    def test_eta_alpha(self, alpha, theta):
        # the ceiling psi^-1(alpha) lies inside (0, 2*pi), so both values
        # and the ceiling error are drawn
        want = outcome(two_argument_eta_alpha, alpha, theta)
        assert outcome(hd.eta_alpha, alpha, theta) == want
        assert outcome(lambda: cf._eta_alpha_fn(alpha)(theta)[0]) == want

    @given(
        SLOPES,
        signed(st.one_of(
            st.floats(min_value=0.0, max_value=PI + 1e-9),
            st.sampled_from(EDGE_ANGLES),
        )),
    )
    @settings(max_examples=500)
    def test_zeta(self, gamma, theta):
        want = outcome(two_argument_zeta, gamma, theta)
        assert outcome(hd.zeta, gamma, theta) == want
        assert outcome(lambda: cf._zeta_fn(gamma)(theta)) == want

    def test_seeded_sweep(self):
        # a reassociated product moves about 3% of the values by an ulp;
        # 20000 seeded points per function find it where the edge-seeking
        # draws above may not
        rng = random.Random(20261018)
        for _ in range(20000):
            v = rng.choice((0.0, 10.0 ** rng.uniform(-300, 300), rng.uniform(0, 10)))
            d = rng.choice((rng.uniform(-2 * PI, 2 * PI), 10.0 ** rng.uniform(-320, -2)))
            assert outcome(hd.f_of, v, d) == outcome(two_argument_f_of, v, d)
            alpha = 10.0 ** rng.uniform(-2, 3)
            t = rng.choice((rng.uniform(0, 2 * PI), 10.0 ** rng.uniform(-320, -2)))
            assert outcome(hd.eta_alpha, alpha, t) == outcome(
                two_argument_eta_alpha, alpha, t
            )
            gamma = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
            t = rng.uniform(0, PI)
            assert outcome(hd.zeta, gamma, t) == outcome(two_argument_zeta, gamma, t)

    def test_the_ceiling_error_is_raised_by_the_closure(self):
        # eta_alpha_inv takes this error for "past the ceiling"
        eta_alpha = cf._eta_alpha_fn(1.0)
        with pytest.raises(DomainError, match="tangency ceiling"):
            eta_alpha(hd.psi_inv(1.0) + 0.1)
