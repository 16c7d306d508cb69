"""The slope that linedist._row_fn returns with the row objective is its
derivative: it agrees with a complex-step derivative of the same arithmetic
on every branch and on both sides of SMALL_ANGLE, is +-inf with the sign of
the one-sided limit where the discriminant is clamped, and the one-sided
limit in closed form at the row's ends (the theta = 0 axis node, a plus
root clamped at psi_inv(beta), the minus pole); it is nan only where B
overflows.  Outside the objective's domain the closure raises, and its
value equals the clamped raw root's bit for bit."""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hestondist as hd
from hestondist import corefuncs as cf
from hestondist import linedist as ld

STEP = 1e-20  # the complex step, relative to theta


def coefs(t, lib):
    """(A, B) at t as _row_fn forms them, with lib's sine and cosine."""
    if t.real < cf.SMALL_ANGLE:
        return cf._coefs_series(t)
    sh = lib.sin(0.5 * t)
    p = t - lib.sin(t)
    return -(2.0 * sh - t * lib.cos(0.5 * t)) / p, 2.0 * sh * sh / p


def complex_row_fn(row):
    """_row_fn's arithmetic on a complex index t + ih, with the root taken
    implicitly: the real root s0 of F(s) = q s^2 - 2 a s + p, formed from
    the real index exactly as _row_fn forms it, moved by one Newton step on
    F at t + ih, which gives it the imaginary part h ds/dt =
    -Im F(s0)/F_s.  F_s = 2 q s0 - 2 a is +2 sqrt(disc) on the plus root
    and -2 sqrt(disc) on the minus root, with _row_fn's discriminant: near
    the tangency end that discriminant is a small difference, and the
    derivative of _row_fn follows its rounding.  The quotient forms of the
    root would also give ds/dt, but at tiny indices their numerator and
    denominator grow like 1/t, and the step's derivative of their ratio
    loses digits to two terms of order 1/t^2.  No clamps: the points
    tested have a positive discriminant and a finite root >= 0."""
    beta, gamma, minus = row.beta, row.gamma, row.minus

    def fn(t):
        a, b = coefs(t, cmath)
        a0, b0 = coefs(t.real, math)
        q0, p0 = 1.0 - gamma * b0, 1.0 - beta * b0
        root = math.sqrt(max(a0 * a0 - q0 * p0, 0.0))
        s0 = (a0 - root) / q0 if minus else p0 / (a0 - root)
        f_s = -2.0 * root if minus else 2.0 * root
        parts = ((-gamma * b).imag * s0 * s0, -2.0 * a.imag * s0, (-beta * b).imag)
        s = complex(s0, -sum(parts) / f_s)
        ratio = cmath.sin(0.5 * t) / t
        q4 = cmath.sin(0.25 * t)
        lam = ((s - 1.0) * (s - 1.0) + 4.0 * s * q4 * q4) / (2.0 * ratio * ratio)
        # the root's term of lambda', (t/sin(t/2))^2 ds/dt (s - cos(t/2)),
        # with F_t in ds/dt = -F_t/F_s and s - cos(t/2) = (s - 1) +
        # 2 sin(t/4)^2 summed in absolute values
        q4r = q4.real
        term = (sum(map(abs, parts)) / abs(f_s) * (abs(s0 - 1.0) + 2.0 * q4r * q4r)
                / (ratio.real * ratio.real))
        return lam, term

    return fn


def complex_step(row, t):
    """The complex-step derivative of _row_fn at t, and the scale of the
    error to allow for: the largest of |lambda'|, lambda/t and the root's
    term of lambda' with its sums taken in absolute values.  Near the
    tangency end ds/dt is large, so where s is close to cos(t/2) the two
    derivatives' roundings of s - cos(t/2) differ by far more than
    eps*|lambda'|."""
    h = STEP * t
    lam, term = complex_row_fn(row)(complex(t, h))
    slope = lam.imag / h
    return slope, max(abs(slope), ld._row_fn(row)(t)[0] / t, abs(term) / h)


def bound(t):
    """The allowed error, relative to complex_step's scale: the direct
    coefficient forms cancel in [SMALL_ANGLE, 1]."""
    return 1e-10 if cf.SMALL_ANGLE <= t <= 1.0 else 1e-13


BRANCHES = ("vertical-kp", "slanted-plus", "slanted-minus", "left-slanted")
magnitudes = st.floats(min_value=-4.0, max_value=2.0).map(lambda e: 10.0 ** e)


@st.composite
def row_points(draw):
    """A row of one branch's search and an index in its interval."""
    branch = draw(st.sampled_from(BRANCHES))
    beta, gamma = draw(magnitudes), draw(magnitudes)
    if branch == "vertical-kp":
        gamma = 0.0
    elif branch == "left-slanted":
        gamma = -gamma
    # a line through or next to the base point (0, 1) has a tiny objective
    # formed from (s - 1)^2 with s near 1; both derivatives then round that
    # difference, each its own way, to about eps/distance relative
    assume(abs(beta + gamma) / math.hypot(1.0, gamma) >= 1e-3)
    line = ld._prelude(beta, gamma)
    rows = [r for r in ld._searches(line[0], line[1], {}) if r.branch == branch]
    assume(rows and rows[0].hi > rows[0].lo)
    row = rows[0]
    t = row.lo + draw(st.floats(min_value=0.0, max_value=1.0)) * (row.hi - row.lo)
    assume(0.0 < t)
    return row, t


@settings(max_examples=400, deadline=None)
@given(row_points())
def test_derivative_matches_the_complex_step(point):
    row, t = point
    slope = ld._row_fn(row)(t)[1]
    assume(math.isfinite(slope))  # clamped discriminant: tested below
    want, scale = complex_step(row, t)
    assert abs(slope - want) <= bound(t) * scale, (row, t, slope, want)


def test_every_branch_on_both_sides_of_the_small_angle():
    # fixed points of each branch below SMALL_ANGLE, in [SMALL_ANGLE, 1] and
    # above 1, each within its bound
    cases = {
        "vertical-kp": ((2e-3, 0.0), (0.3, 0.0), (3.0, 0.0)),
        "slanted-plus": ((2e-3, 1e-3), (0.1, 0.3), (2.0, 5.0)),
        "slanted-minus": ((1e-3, 4e-3), (0.2, 1.0), (0.5, 2.0)),
        "left-slanted": ((2e-3, -1e-3), (0.2, -0.1), (1.0, -0.5)),
    }
    bands = set()
    for branch, lines in cases.items():
        for beta, gamma in lines:
            (row,) = [r for r in ld._searches(beta, gamma, {}) if r.branch == branch]
            for u in (0.1, 0.5, 0.9):
                t = row.lo + u * (row.hi - row.lo)
                slope, (want, scale) = ld._row_fn(row)(t)[1], complex_step(row, t)
                assert abs(slope - want) <= bound(t) * scale, (branch, beta, gamma, t)
                bands.add((branch, 0 if t < cf.SMALL_ANGLE else 1 if t <= 1.0 else 2))
    assert bands == {(b, k) for b in BRANCHES for k in range(3)}


def tangency_pair(row):
    """Adjacent indices around the tangency end of a slanted row: one where
    the discriminant is not positive (clamped) and one just inside the
    row's interval where it is positive."""
    disc = lambda t: cf.discriminant(row.beta, row.gamma, t)
    outside, inside = 0.5 * row.lo, row.lo
    while disc(inside) <= 0.0:
        inside = 0.5 * (inside + row.hi)
    for _ in range(200):
        mid = 0.5 * (outside + inside)
        if mid in (outside, inside):
            break
        if disc(mid) > 0.0:
            inside = mid
        else:
            outside = mid
    return outside, inside


@pytest.mark.parametrize("line", [(2.0, 0.5), (0.5, 2.0), (3e-3, 1e-3), (0.9, 0.9)])
def test_clamped_discriminant_gives_the_signed_limit(line):
    for row in ld._searches(*line, {}):
        outside, inside = tangency_pair(row)
        assert cf.discriminant(row.beta, row.gamma, outside) <= 0.0
        fn = ld._row_fn(row)
        clamped, near = fn(outside)[1], fn(inside)[1]
        assert math.isinf(clamped)
        # just inside the tangency end the derivative is large and of the
        # limit's sign
        assert abs(near) > 1e3 * fn(inside)[0] / inside
        assert math.copysign(1.0, clamped) == math.copysign(1.0, near)


def test_nan_where_the_objective_has_no_derivative():
    vertical = ld._searches(1.0, 0.0, {})[0]
    fn = ld._row_fn(vertical)
    # outside (0, 2*pi), and at t = 0 on a row without an axis node, the
    # objective itself raises, and the refine never evaluates there
    for t in (0.0, -1.0, cf.TWO_PI, 7.0, math.nan, math.inf):
        with pytest.raises(hd.DomainError):
            fn(t)
    # where t*p3 underflows (B is inf) the value takes the raw root and
    # the slope is nan
    row = ld._searches(1.0, 0.5, {})[0]
    value, slope = ld._row_fn(row)(5e-324)
    assert value == ld._HUGE and math.isnan(slope)
    # the axis node of a left-slanted row has a derivative: the one-sided
    # limit in closed form (test_axis_node_slope_is_the_one_sided_limit)
    (left,) = ld._searches(1.0, -0.5, {})
    assert left.lo == 0.0 and left.axis == 2.0
    value, slope = ld._row_fn(left)(0.0)
    assert value == ld._axis_value(2.0)
    r = math.sqrt(2.0)
    assert slope == 2.0 * (1.0 - 1.0 / r) * (2.0 + r + 1.0) / (3.0 * -0.5)


END_LINES = [
    (1e3, 1e3), (100.0, 100.0), (76.74314024832942, 83.18566325047897),
    (-71.18692720798528, -33.52646257855852), (1.0, -0.5),
]


@pytest.mark.parametrize("line", END_LINES)
def test_clamped_root_end_slope_is_the_slope_one_ulp_inside(line):
    # the plus and left-slanted rows of these lines end at psi_inv(beta),
    # where the plus root rounds below 0 and _row_fn clamps it: the slope
    # there is the root's at s = 0, the one-sided limit from inside the
    # row, and the value is the clamped root's
    beta, gamma, _ = ld._prelude(*line)
    ends = 0
    for row in ld._searches(beta, gamma, {}):
        raw = cf._s_minus_raw if row.minus else cf._s_plus_raw
        if not raw(row.beta, row.gamma, row.hi) < 0.0:
            continue
        ends += 1
        fn = ld._row_fn(row)
        value, slope = fn(row.hi)
        inside = fn(math.nextafter(row.hi, row.lo))[1]
        assert value == lam(row.hi, raw(row.beta, row.gamma, row.hi))
        assert math.isfinite(slope) and slope > 0.0
        assert abs(slope - inside) <= 1e-9 * abs(inside), (row, slope, inside)
    assert ends == 1


def test_minus_pole_slope_is_plus_infinity():
    # at the pole of the minus root, where 1 - gamma*B is exactly zero, the
    # root and lambda rise without bound as theta grows to it, so the slope
    # from below is +inf; the value is the clamped root's
    theta = next(
        0.5 + k * 1e-3 for k in range(1500)
        if 1.0 - (1.0 / cf.coef_B(0.5 + k * 1e-3)) * cf.coef_B(0.5 + k * 1e-3) == 0.0
    )
    gamma = 1.0 / cf.coef_B(theta)
    pole = ld._Search("slanted-minus", 0.5 * gamma, gamma, True, 0.0, 0.0)
    assert cf._s_minus_raw(0.5 * gamma, gamma, theta) == math.inf
    fn = ld._row_fn(pole)
    assert fn(theta) == (lam(theta, math.inf), math.inf)
    below = [fn(theta - h)[1] for h in (1e-3, 1e-5, 1e-7)]
    assert 0.0 < below[0] < below[1] < below[2]


def lam(theta, s):
    """The clamps of linedist._row_fn on a root s: a negative root counts as
    0, a non-finite one as _ROOT_HUGE, an overflowing value as _HUGE."""
    if s < 0.0:
        s = 0.0
    elif not math.isfinite(s):
        s = ld._ROOT_HUGE
    val = cf._half_sq_from_root(theta, s)
    return val if math.isfinite(val) else ld._HUGE


def test_root_clamps():
    # one index for each clamp of a raw root: (theta, beta, gamma, minus)
    # and the root it reaches; _row_fn's value equals the clamped root's,
    # bit for bit.  A zero root is -0.0: p = 1 - beta*B is +0.0 where it
    # vanishes, and p/(A - root) has the sign of A < 0.
    recip_1 = 1.0 / cf.coef_B(1.0)
    recip_small = 1.0 / cf.coef_B(1e-3)
    assert 1.0 - recip_1 * cf.coef_B(1.0) == 0.0
    assert 1.0 - recip_small * cf.coef_B(1e-3) == 0.0
    cases = [
        # p = 1 - beta*B = 0 and 1 - gamma*B = inf: a nan discriminant
        (1.0, recip_1, -1e308, False, math.isnan),
        (1.0, -1e308, 0.0, False, lambda s: s == -math.inf),
        (2.5, 0.0, 0.0, False, lambda s: -math.inf < s < 0.0),
        (6.0, 1e300, -1.0, False, lambda s: 1e148 < s < ld._ROOT_HUGE),
        (1e-3, recip_small, 0.0, False, lambda s: s == 0.0 and math.copysign(1.0, s) < 0.0),
        (3.0, 2.0, 0.5, False, lambda s: 0.0 < s < 1.0),
        (1.0, recip_1, 0.0, False, lambda s: s == 0.0 and math.copysign(1.0, s) < 0.0),
        (6.2, 1e300, 1e5, False, lambda s: ld._ROOT_HUGE < s < math.inf),
        (2.0, 1e200, 1e5, False, lambda s: ld._ROOT_HUGE < s < math.inf),
        (1.0, 0.5 * recip_1, recip_1, True, lambda s: s == math.inf),
        (1.0, -1e308, 1e308, False, math.isnan),
    ]
    got = []
    for t, beta, gamma, minus, kind in cases:
        s = (cf._s_minus_raw if minus else cf._s_plus_raw)(beta, gamma, t)
        assert kind(s), (t, beta, gamma, s)
        value = ld._row_fn(ld._Search("", beta, gamma, minus, t, t))(t)[0]
        assert value.hex() == lam(t, s).hex(), (t, beta, gamma, minus)
        got.append(value)
    assert got[-3] == got[-4] == ld._HUGE


@pytest.mark.parametrize("line", [(1.0, -0.5), (40.0, -0.3), (0.5, -2.0), (0.01, -3.0)])
def test_axis_node_slope_is_the_one_sided_limit(line):
    # at the theta = 0 node of a left-slanted row (beta > |gamma|, and the
    # mirrored row of beta < |gamma|) the slope is 2(1 - 1/r)(v_a + r +
    # 1)/(3 gamma), v_a the axis crossing and r its root: negative, and
    # the limit that the slope just above the node converges to
    beta, gamma = ld._prelude(*line)[:2]
    (row,) = ld._searches(beta, gamma, {})
    assert row.lo == 0.0 and row.axis is not None
    assert (row.sign < 0.0) == (line[0] < -line[1])
    v_a = row.axis
    r = math.sqrt(v_a)
    fn = ld._row_fn(row)
    value, slope = fn(0.0)
    assert value == ld._axis_value(v_a)
    want = 2.0 * (1.0 - 1.0 / r) * (v_a + r + 1.0) / (3.0 * row.gamma)
    assert slope == want and slope < 0.0
    errors = [abs(fn(h)[1] - slope) for h in (1e-3, 1e-5, 1e-7, 1e-9)]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] <= 1e-6 * abs(slope)
    # and the difference quotient of the value
    h = 1e-7
    assert abs((fn(h)[0] - value) / h - slope) <= 1e-5 * abs(slope)


def test_corner_axis_node_slope_is_minus_infinity():
    # the beta = 0 corner row starts at the axis node v = 0, where the
    # objective 2(sqrt(v) - 1)^2 falls with an infinite slope
    (row,) = ld._searches(0.0, 1.5, {})
    assert row.lo == 0.0 and row.axis == 0.0
    fn = ld._row_fn(row)
    assert fn(0.0) == (2.0, -math.inf)
    slopes = [fn(h)[1] for h in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(s < 0.0 for s in slopes) and slopes == sorted(slopes, reverse=True)
    assert slopes[-1] < -1e5
