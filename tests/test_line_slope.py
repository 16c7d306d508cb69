"""pointmetric._line_dist_fn gives the distance from p0 along a line and
its slope in v.  The distance is dist_correlated's, bit for bit.  The
slope agrees with a complex-step derivative of dist_correlated's own path
(the shear, the swap beyond v = 1e12*v0, the reduced point and the base
distance) on both sides of SMALL_ANGLE, at an x = 0 crossing, past the
swap and in sheared frames.  Where the distance has no derivative, at
v = 0 and at p0 itself, the slope is +-inf or nan."""

import cmath
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hestondist as hd
from hestondist import corefuncs as cf
from hestondist import pointmetric as pm

from conftest import oracle_sweep_lines

STEP = 1e-20  # the complex step, relative to the argument
IDENTITY, BASE = hd.CorrelationFrame(1.0, 0.0), (0.0, 1.0)
SHEARED = [
    (hd.CorrelationFrame(0.5, -0.7), (0.3, 0.04)),
    (hd.CorrelationFrame(1.7, 0.6), (1.7, 0.6)),
]


def complex_f(w, d):
    """f_of(w, d) at a complex w or a complex d, in f_of's two forms: its
    series below SMALL_ANGLE, its direct form above."""
    s = cmath.sqrt(w)
    s1, s4 = (s - 1.0) ** 2, 4.0 * s
    if d.real < cf.SMALL_ANGLE:
        t2 = d * d
        sr, qr = cf._sin_half_r(t2), cf._sin_quarter_r(t2)
        return d * (s1 * cf._p_r3(t2) + s4 * qr * qr * (1.0 + 2.0 * sr)) / (2.0 * sr * sr)
    sh, q4 = cmath.sin(0.5 * d), cmath.sin(0.25 * d)
    return (s1 * (d - cmath.sin(d)) + s4 * q4 * q4 * (d + 2.0 * sh)) / (2.0 * sh * sh)


def complex_base(x, w):
    """The base distance from (0, 1) to the complex point (x, w), with the
    index taken implicitly: the real index d0 = |delta_of| at the real
    point, moved by one Newton step on f_of(w, d) - |x| at the complex
    point, which gives it the imaginary part -Im(f_of(w, d0) - |x|)/f_d.
    f_d is itself a complex step, in d at the real point.  At x = 0 the
    distance is even in x, so the first-order part of x drops out."""
    s = cmath.sqrt(w)
    if x.real == 0.0:
        return 2.0 * (s - 1.0) * math.copysign(1.0, s.real - 1.0)
    d0 = abs(hd.delta_of(x.real, w.real))
    xa = x if x.real > 0.0 else -x
    h = STEP * d0
    f_d = complex_f(w.real, complex(d0, h)).imag / h
    d = complex(d0, -(complex_f(w, d0) - xa).imag / f_d)
    # d/sin(d/2), through its series below SMALL_ANGLE: formed directly its
    # imaginary part is a difference of two terms of order 1/d
    ratio = 1.0 / cf._sin_half_r(d * d) if d0 < cf.SMALL_ANGLE else d / cmath.sin(0.5 * d)
    q4 = cmath.sin(0.25 * d)
    return ratio * cmath.sqrt((s - 1.0) ** 2 + 4.0 * s * q4 * q4)


def complex_dist(frame, p0, beta, gamma, v):
    """dist_correlated(frame, p0, (beta + gamma*v, v)) at a complex v, along
    dist's path: the shear, the swap beyond v = 1e12*v0, the reduced point."""
    x0, v0 = p0
    root = math.sqrt(1.0 - frame.rho * frame.rho)
    sx0 = (frame.c * x0 - frame.rho * v0) / root
    sx1 = (frame.c * (beta + gamma * v) - frame.rho * v) / root
    if v.real > v0 * 1e12:
        return cmath.sqrt(v) * complex_base((sx0 - sx1) / v, v0 / v) / frame.c
    return math.sqrt(v0) * complex_base((sx1 - sx0) / v0, v / v0) / frame.c


def complex_step(frame, p0, beta, gamma, v):
    h = STEP * v
    return complex_dist(frame, p0, beta, gamma, complex(v, h)).imag / h


def check(frame, p0, beta, gamma, v, rtol=1e-13):
    """The value is dist_correlated's bit for bit, and the slope is within
    rtol of the complex step, relative to the larger of |slope| and D/v,
    the scale of the slope where it vanishes; returns the reduced index."""
    value, slope = pm._line_dist_fn(frame, p0, beta, gamma)(v)
    assert value == hd.dist_correlated(frame, p0, (beta + gamma * v, v))
    want = complex_step(frame, p0, beta, gamma, v)
    scale = max(abs(want), value / v)
    assert abs(slope - want) <= rtol * scale, (frame, p0, beta, gamma, v, slope, want)
    return reduced_index(frame, p0, beta, gamma, v)


def reduced_index(frame, p0, beta, gamma, v):
    """|delta_of| at the reduced point that dist_correlated forms."""
    (sx0, v0), (sx1, _) = frame.shear(*p0), frame.shear(beta + gamma * v, v)
    if v > v0 * 1e12:
        return abs(hd.delta_of((sx0 - sx1) / v, v0 / v))
    return abs(hd.delta_of((sx1 - sx0) / v0, v / v0))


def bound(frame, p0, beta, gamma, v):
    """1e-13, or 1e-11 where the reduced index lies in [SMALL_ANGLE, 1]:
    there the closed forms of f_of and of d/sin(d/2)' cancel, in the slope
    and in the complex step alike."""
    d = reduced_index(frame, p0, beta, gamma, v)
    return 1e-11 if cf.SMALL_ANGLE <= d <= 1.0 else 1e-13


magnitudes = st.floats(min_value=-4.0, max_value=2.0).map(lambda e: 10.0 ** e)
signs = st.sampled_from((-1.0, 1.0))


@st.composite
def line_points(draw):
    """A frame, a source point, a line and an ordinate v > 0: the identity
    frame from (0, 1) or a drawn frame and source point."""
    if draw(st.booleans()):
        frame, p0 = IDENTITY, BASE
    else:
        frame = hd.CorrelationFrame(
            draw(st.floats(min_value=0.1, max_value=3.0)),
            draw(st.floats(min_value=-0.95, max_value=0.95)),
        )
        p0 = (draw(st.floats(min_value=-2.0, max_value=2.0)),
              draw(st.floats(min_value=-2.0, max_value=1.0).map(lambda e: 10.0 ** e)))
    beta = draw(signs) * draw(magnitudes)
    gamma = draw(st.sampled_from((-1.0, 0.0, 1.0))) * draw(magnitudes)
    v = draw(st.floats(min_value=-4.0, max_value=3.0).map(lambda e: 10.0 ** e))
    return frame, p0, beta, gamma, v


@settings(max_examples=400, deadline=None)
@given(line_points())
def test_slope_matches_the_complex_step(point):
    frame, p0, beta, gamma, v = point
    x0, v0 = p0
    # next to p0 the distance is formed from differences of order one, and
    # both derivatives round them, each its own way (as dist itself does)
    assume(hd.dist_correlated(frame, p0, (beta + gamma * v, v)) >= 1e-3 * math.sqrt(v0))
    check(frame, p0, beta, gamma, v, bound(frame, p0, beta, gamma, v))


@pytest.mark.parametrize("frame, p0", [(IDENTITY, BASE), *SHEARED])
def test_both_sides_of_the_small_angle(frame, p0):
    # a line that is vertical once sheared (gamma = rho/c), at a small
    # sheared offset from p0, at ordinates whose reduced index lies below
    # 1e-8 (where the value takes d/sin(d/2) = 2), below SMALL_ANGLE, in
    # [SMALL_ANGLE, 1] and above 1
    sx0, v0 = frame.shear(*p0)
    root = math.sqrt(1.0 - frame.rho * frame.rho)
    gamma = frame.rho / frame.c
    bands = set()
    for offset in (1e-9, 1e-3, 3e-2, 0.5, 5.0):
        beta = (sx0 + offset * v0) * root / frame.c
        for v in (0.5 * v0, 2.0 * v0, 7.0 * v0):
            d = check(frame, p0, beta, gamma, v, bound(frame, p0, beta, gamma, v))
            bands.add(0 if d < 1e-8 else 1 if d < cf.SMALL_ANGLE else 2 if d <= 1.0 else 3)
    assert bands == {0, 1, 2, 3}


def test_the_x_zero_crossing():
    # x = -2 + v passes over the base point's vertical at v = 2, and the
    # sheared line x = -0.5 + 0.5v of the frame (2, 0) passes over that of
    # p0 = (0.5, 1) there too: the reduced abscissa is exactly 0, where
    # the distance is even in x and its slope is sign(s - 1)/(s c sqrt(v0))
    for frame, p0, beta, gamma in (
        (IDENTITY, BASE, -2.0, 1.0),
        (hd.CorrelationFrame(2.0, 0.0), (0.5, 1.0), -0.5, 0.5),
    ):
        fn = pm._line_dist_fn(frame, p0, beta, gamma)
        assert frame.shear(beta + gamma * 2.0, 2.0)[0] == frame.shear(*p0)[0]
        value, slope = fn(2.0)
        assert value == 2.0 * (math.sqrt(2.0) - 1.0) / frame.c
        assert slope == pytest.approx(1.0 / (math.sqrt(2.0) * frame.c), rel=1e-15)
        check(frame, p0, beta, gamma, 2.0)
        # on either side of the crossing the slope is continuous
        for v in (2.0 - 1e-6, 2.0 + 1e-6):
            assert fn(v)[1] == pytest.approx(slope, rel=1e-5)
            check(frame, p0, beta, gamma, v)


@pytest.mark.parametrize("frame, p0", [(IDENTITY, (0.1, 1e-6)),
                                       (SHEARED[0][0], (0.3, 1e-7))])
def test_past_the_swap(frame, p0):
    # beyond v = 1e12*v0 dist normalizes by v: the reduced point is
    # ((x0 - x)/v, v0/v), and both of its coordinates move with v
    v0 = p0[1]
    for beta, gamma in ((0.3, 0.1), (-2.0, 0.0), (5.0, -0.02)):
        for k in (0.5, 2.0, 1e3):
            v = k * 1e12 * v0
            check(frame, p0, beta, gamma, v, bound(frame, p0, beta, gamma, v))
        # the slope meets itself across the swap
        fn = pm._line_dist_fn(frame, p0, beta, gamma)
        cut = v0 * 1e12
        assert fn(cut)[1] == pytest.approx(fn(math.nextafter(cut, math.inf))[1], rel=1e-9)


@pytest.mark.parametrize("frame, p0", SHEARED)
def test_sheared_frames(frame, p0):
    # every fourth oracle-sweep line from p0 in two frames, at a few
    # ordinates
    for beta, gamma in oracle_sweep_lines()[::4]:
        for v in (0.01, 0.3, 1.7, 9.0):
            check(frame, p0, beta, gamma, v, bound(frame, p0, beta, gamma, v))


def test_no_derivative_at_the_boundary_or_at_p0():
    # at v = 0 the distance grows like sqrt(v): the slope is +-inf with the
    # sign of that growth, or nan
    for frame, p0 in [(IDENTITY, BASE), *SHEARED]:
        for beta, gamma in ((0.3, 0.5), (-1.0, 2.0), (2.0, -1.0), (0.0, 0.0)):
            fn = pm._line_dist_fn(frame, p0, beta, gamma)
            value, slope = fn(0.0)
            assert value == hd.dist_correlated(frame, p0, (beta, 0.0))
            assert math.isnan(slope) or math.isinf(slope)
            v = 1e-12
            if math.isinf(slope):
                assert math.copysign(1.0, fn(v)[1]) == math.copysign(1.0, slope)
    # the distance from (0, 1) to (x, 0) falls as the point rises from the
    # boundary
    assert pm._line_dist_fn(IDENTITY, BASE, 0.3, 0.0)(0.0)[1] == -math.inf
    # at p0 the distance has a cone: no slope
    for frame, p0 in [(IDENTITY, BASE), *SHEARED]:
        x0, v0 = p0
        fn = pm._line_dist_fn(frame, p0, x0 - 0.5 * v0, 0.5)
        value, slope = fn(v0)
        assert value == 0.0 and math.isnan(slope)
        assert fn(0.9 * v0)[1] < 0.0 < fn(1.1 * v0)[1]


def test_errors():
    fn = pm._line_dist_fn(IDENTITY, BASE, 1.0, 0.5)
    for v in (-1.0, math.nan, math.inf):
        with pytest.raises(hd.DomainError):
            fn(v)
    with pytest.raises(hd.DomainError):
        pm._line_dist_fn(IDENTITY, (0.0, 0.0), 1.0, 0.5)
    # a reduced abscissa that overflows raises, as dist does
    with pytest.raises(hd.DomainError):
        pm._line_dist_fn(IDENTITY, (0.0, 1e-10), 1e300, 0.0)(1e-10)
    with pytest.raises(hd.DomainError):
        hd.dist_correlated(IDENTITY, (0.0, 1e-10), (1e300, 1e-10))
