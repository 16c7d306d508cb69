"""Scalar building blocks of the Heston-manifold distance geometry.

The half-plane {(x, v): v >= 0} carries the metric ds^2 = (dx^2 + dv^2)/v.
Geodesic arcs from the base point (0, 1) are indexed by an angle
delta in (-2*pi, 2*pi); the level curve with index theta meets the boundary
at x = psi(theta) and the half-squared distance from (0, 1) to the point of
that curve with abscissa x is lambda_big(x, theta).  Intersections of a
straight line x = beta + gamma*v with a level curve are located by the
quadratic in sqrt(v) whose coefficients involve coef_A and coef_B; s_plus /
s_minus are its roots and lambda_plus / lambda_minus the corresponding
half-squared distances.  The roots are written once, here: the raw forms
``_s_plus_raw``/``_s_minus_raw`` (discriminant clamped at zero) are the
roots of the line solvers' objective, which the line scan kernel
(``linedist._objective_many``) and the row closure (``linedist._row_fn``,
next to its slope) repeat bit for bit; the public ``s_plus``/``s_minus``
check the line first and then evaluate the same raw root.  ``_coefs``
gives coef_A and coef_B together, for one domain check and one
evaluation of each sine.  The level curve is written once, in
theta^3-scaled terms (``_curve_terms``): ``lambda_big``, ``xi`` and the
curve functions in ``levelsets`` are each one formula over them, for
every theta in (0, 2*pi).  ``f_of``, ``eta_alpha`` and ``zeta`` are
written once, as closures over their first argument (``_f_of_fn``,
``_eta_alpha_fn``, ``_zeta_fn``) that the root solves evaluate in one frame
per call; the two-argument forms call them.  Like ``_f_of_fn(v)``, ``_psi_fn``,
``_eta_fn`` and ``_eta_alpha_fn(alpha)`` give (value, slope), from ``_psi_terms``.

All functions here are pure, stateless and raise DomainError outside their
stated domains rather than returning NaN.  A level-curve value beyond the
double range is inf.

Numerical note: ratios whose numerators vanish like theta^3
(theta - sin(theta) and friends) lose all precision near zero when formed
directly.  Below ``SMALL_ANGLE`` they are evaluated from truncated Taylor
expansions; the two evaluation paths agree to ~1e-11 relative at the
switch point.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DegenerateLineError, DomainError

TWO_PI = 2.0 * math.pi

# Switch point for the series fallbacks.  At 1e-2 direct evaluation of the
# theta^3-cancelling terms is still good to ~1e-11 relative; below that it
# degrades like eps/theta^2.
SMALL_ANGLE = 1e-2

# |discriminant| below this (times max(1, A^2)) is treated as a tangency:
# the two intersection roots are considered equal.
TANGENCY_RTOL = 1e-12


class LineParams(NamedTuple):
    """A straight line {x = beta + gamma*v, v >= 0} in the half-plane."""

    beta: float
    gamma: float


def _check_angle_open(theta: float, name: str = "theta") -> None:
    if not (0.0 < theta < TWO_PI):
        raise DomainError(f"{name} must lie in (0, 2*pi), got {theta!r}")


def _check_angle_sym(theta: float, name: str = "theta") -> None:
    if not (-TWO_PI < theta < TWO_PI):
        raise DomainError(f"{name} must lie in (-2*pi, 2*pi), got {theta!r}")


# ---------------------------------------------------------------------------
# stable primitives
# ---------------------------------------------------------------------------
#
# The theta^3-scale factors are provided divided by theta^3 (the _r3
# forms), so that the small-angle branches of psi, f_of, coef_A, coef_B and
# the level curve can be assembled without ever forming a quantity that
# underflows; the cubes themselves vanish below ~1e-103.


def _p_r3(t2: float) -> float:
    """(t - sin t)/t^3 by series; t2 = t*t."""
    return 1.0 / 6.0 + t2 * (-1.0 / 120.0 + t2 / 5040.0)


def _u_r3(t2: float) -> float:
    """(2 sin(t/2) - t cos(t/2))/t^3 by series."""
    return 1.0 / 12.0 + t2 * (-1.0 / 480.0 + t2 / 53760.0)


def _w_r3(t2: float) -> float:
    """(2 sin(t/2) - t)/t^3 by series."""
    return -1.0 / 24.0 + t2 * (1.0 / 1920.0 - t2 / 322560.0)


def _sin_half_r(t2: float) -> float:
    """sin(t/2)/t by series."""
    return 0.5 + t2 * (-1.0 / 48.0 + t2 / 3840.0)


def _sin_quarter_r(t2: float) -> float:
    """sin(t/4)/t by series."""
    return 0.25 + t2 * (-1.0 / 384.0 + t2 / 122880.0)


# ---------------------------------------------------------------------------
# level-curve index functions
# ---------------------------------------------------------------------------


def psi(theta: float) -> float:
    """Boundary abscissa of the level curve with index theta.

    psi(theta) = (theta - sin theta)/(1 - cos theta); odd, strictly
    increasing on (0, 2*pi) with range (0, inf).
    """
    if not 0.0 < theta < TWO_PI:
        _check_angle_sym(theta)
        if theta == 0.0:
            raise DomainError("psi is undefined at theta = 0")
        return -psi(-theta)
    return _psi_terms(theta)[0]


def _psi_terms(t: float) -> tuple[float, float, float, float]:
    """(psi, A, psi', A') at t in (0, 2*pi); DomainError elsewhere.  Above
    SMALL_ANGLE, with sh = sin(t/2) and P = t - sin t: psi' = (2 sh^2 -
    psi sin t)/(2 sh^2) and A' = (-(t/2) sh - 2 A sh^2)/P.  Below it psi'
    is psi/t and A' is 0 (psi is odd, A even): within O(t^2) of the
    derivatives, close enough for a safeguarded Newton step."""
    if not 0.0 < t < TWO_PI:
        _check_angle_open(t)
    if t < SMALL_ANGLE:
        t2 = t * t
        p3 = _p_r3(t2)
        sr = _sin_half_r(t2)
        ps = t * p3 / (2.0 * sr * sr)
        return ps, -_u_r3(t2) / p3, ps / t, 0.0
    sh, sd = math.sin(0.5 * t), math.sin(t)
    p, den = t - sd, 2.0 * sh * sh
    ps = p / den
    a = -(2.0 * sh - t * math.cos(0.5 * t)) / p
    return ps, a, (den - ps * sd) / den, (-0.5 * t * sh - a * den) / p


def _psi_fn(theta: float) -> tuple[float, float]:
    """(psi, psi') at theta in (0, 2*pi): the objective of psi_inv."""
    ps, _, dps, _ = _psi_terms(theta)
    return ps, dps


def f_of(v: float, delta: float) -> float:
    """Abscissa of the point with ordinate v on the arc indexed by delta.

    For fixed v this is odd and strictly increasing in delta on (-2*pi,
    2*pi), f(v, 0) = 0 and f(0, delta) = psi(delta).  Evaluated in the
    cancellation-free split

        f = [ (sqrt(v)-1)^2 * (d - sin d)
              + 4*sqrt(v) * sin(d/4)^2 * (d + 2 sin(d/2)) ] / (2 sin(d/2)^2),

    a sum of two nonnegative terms for d > 0.
    """
    return _f_of_fn(v)(delta)[0]


def _f_of_fn(v: float) -> Callable[[float], tuple[float, float]]:
    """(f_of(v, delta), its slope in delta) as a one-frame function of
    delta, the arc-index objective: v is checked, and (sqrt(v) - 1)^2 and
    4*sqrt(v) computed, once.

    Above SMALL_ANGLE the slope is exact and reuses f's sines:
    s1 + (s4*(sh*(d + 2 sh)/4 + 2 q4^2 (1 - q4^2)) - f*sin d)/(2 sh^2)
    with sh = sin(d/2), q4 = sin(d/4), s1 = (sqrt(v) - 1)^2 and
    s4 = 4 sqrt(v).  Below it the slope is f/delta, which is within
    O(delta^2) relative of the derivative (f is odd), close enough for a
    safeguarded Newton step.  An f beyond the double range is inf; its
    slope is then inf or nan."""
    if not v >= 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    s = math.sqrt(v)
    s1, s4 = (s - 1.0) ** 2, 4.0 * s
    sin = math.sin

    def f_v(delta: float) -> tuple[float, float]:
        if SMALL_ANGLE <= delta < TWO_PI:
            sh = sin(0.5 * delta)
            q4 = sin(0.25 * delta)
            sd = sin(delta)
            t = delta + 2.0 * sh
            den = 2.0 * sh * sh
            f = (s1 * (delta - sd) + s4 * q4 * q4 * t) / den
            q2 = q4 * q4
            return f, s1 + (s4 * (0.25 * sh * t + 2.0 * q2 * (1.0 - q2)) - f * sd) / den
        if 0.0 < delta < SMALL_ANGLE:
            t2 = delta * delta
            sr = _sin_half_r(t2)
            qr = _sin_quarter_r(t2)
            num = s1 * _p_r3(t2) + s4 * qr * qr * (1.0 + 2.0 * sr)
            f = delta * num / (2.0 * sr * sr)
            return f, f / delta
        _check_angle_sym(delta, "delta")
        if delta == 0.0:
            return 0.0, (v + s + 1.0) / 3.0
        # via the factory: a self-calling closure is a cycle for the collector
        f, slope = _f_of_fn(v)(-delta)
        return -f, slope

    return f_v


def lambda_big(x: float, theta: float) -> float:
    """Half the squared distance from (0, 1) to the point of the level
    curve with index theta that has abscissa x.

    Finite and real for theta != 0 and
    2*(theta - sin theta)*x + 2*(1 - cos theta) - theta^2 >= 0 (the point
    must exist on the curve); the positive square root is taken.  Negative
    theta is handled by mirror symmetry in x.  inf where the value exceeds
    the double range.
    """
    _check_angle_sym(theta)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if theta == 0.0:
        raise DomainError("lambda_big is undefined at theta = 0")
    if theta < 0.0:
        return lambda_big(-x, -theta)
    p3, u3, sr, rad = _curve_terms(theta, x)
    # theta is divided out last, so that nothing underflows
    bracket = (
        p3 * x
        + 2.0 * theta * sr * u3
        - 2.0 * sr * sr * math.sqrt(theta) * math.sqrt(rad)
    )
    return bracket / (p3 * p3) / theta


def _scaled_terms(t: float) -> tuple[float, float, float, float]:
    """(p3, u3, w3, sr) for 0 < t < 2*pi: the level curve's theta^3-scale
    factors divided by t^3, p3 = (t - sin t)/t^3,
    u3 = (2 sin(t/2) - t cos(t/2))/t^3 and w3 = (2 sin(t/2) - t)/t^3, and
    sr = sin(t/2)/t.  None of them underflows: below SMALL_ANGLE they come
    from the series, above it from the direct forms."""
    if t < SMALL_ANGLE:
        t2 = t * t
        return _p_r3(t2), _u_r3(t2), _w_r3(t2), _sin_half_r(t2)
    sh = math.sin(0.5 * t)
    t3 = t * t * t
    return (
        (t - math.sin(t)) / t3,
        (2.0 * sh - t * math.cos(0.5 * t)) / t3,
        (2.0 * sh - t) / t3,
        sh / t,
    )


def _curve_terms(t: float, x: float) -> tuple[float, float, float, float]:
    """(p3, u3, sr, rad) of the level curve t at abscissa x, with
    rad = 2*p3*x + t*w3*(1 + 2*sr) the curve's radicand divided by t^3;
    DomainError unless 0 < t < 2*pi.

    The curve has a point with abscissa x where rad >= 0.  The second term
    is negative; a negative rad within 1e-12 times that term is rounding in
    the difference and reads 0, and below that x is off the curve
    (DomainError)."""
    _check_angle_open(t)
    p3, u3, w3, sr = _scaled_terms(t)
    tail = t * w3 * (1.0 + 2.0 * sr)
    rad = 2.0 * p3 * x + tail
    if not rad >= 0.0:
        if not rad >= 1e-12 * tail:
            raise DomainError(
                f"no point with abscissa {x!r} on the level curve theta={t!r}"
            )
        rad = 0.0
    return p3, u3, sr, rad


def coef_A(theta: float) -> float:
    """A(theta) = (theta*cos(theta/2) - 2*sin(theta/2))/(theta - sin theta).

    Negative on (0, 2*pi); -A is strictly increasing from 1/2 to 1.
    """
    return _coefs(theta)[0]


def coef_B(theta: float) -> float:
    """B(theta) = (1 - cos theta)/(theta - sin theta) = 1/psi(theta).

    Positive and strictly decreasing on (0, 2*pi).
    """
    return _coefs(theta)[1]


def _coefs(theta: float) -> tuple[float, float]:
    """(coef_A, coef_B) at one angle, with one domain check and sin(theta/2)
    and sin(theta) each evaluated once."""
    _check_angle_open(theta)
    if theta < SMALL_ANGLE:
        return _coefs_series(theta)
    sh = math.sin(0.5 * theta)
    p = theta - math.sin(theta)
    return -(2.0 * sh - theta * math.cos(0.5 * theta)) / p, 2.0 * sh * sh / p


def _coefs_series(t):
    """The series branch of _coefs, for a float or an array (the line
    scan kernel, linedist._objective_many, evaluates it on its nodes below
    SMALL_ANGLE)."""
    t2 = t * t
    p3 = _p_r3(t2)
    sr = _sin_half_r(t2)
    a = -_u_r3(t2) / p3
    try:
        return a, 2.0 * sr * sr / (t * p3)
    except ZeroDivisionError:
        # t*p3 underflows to 0 below t = 2e-323, where B = 1/psi is inf;
        # the array path's division gives inf there too
        return a, math.inf


# ---------------------------------------------------------------------------
# auxiliary index functions used by the interval constructions
# ---------------------------------------------------------------------------


def eta(theta: float) -> float:
    """psi(theta) * (1 - A(theta)): the boundary-intercept index at which a
    line with beta = gamma becomes tangent to a level curve.  Strictly
    increasing on (0, 2*pi) with limits 0 and infinity."""
    return _eta_fn(theta)[0]


def _eta_fn(theta: float) -> tuple[float, float]:
    """(eta, psi' (1 - A) - psi A'): the objective of eta_inv."""
    ps, a, dps, da = _psi_terms(theta)
    return ps * (1.0 - a), dps * (1.0 - a) - ps * da


def eta_alpha(alpha: float, theta: float) -> float:
    """Tangency index for lines with distinct parameters: equals
    psi^2*A^2/(alpha - psi) + psi, defined for 0 < theta < psi^{-1}(alpha)
    and strictly increasing there."""
    return _eta_alpha_fn(alpha)(theta)[0]


def _eta_alpha_fn(alpha: float) -> Callable[[float], tuple[float, float]]:
    """(eta_alpha(alpha, .), its slope) as a function of theta alone, with
    alpha checked once: the objective of eta_alpha_inv.  Like eta_alpha it
    raises DomainError at and beyond the tangency ceiling.  With
    r = psi A/(alpha - psi), which does not underflow where psi^2 does, the
    value is psi A r + psi and the slope psi' + 2 r (psi' A + psi A') +
    r^2 psi'."""
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")

    def eta_alpha_at(theta: float) -> tuple[float, float]:
        ps, a, dps, da = _psi_terms(theta)
        if ps >= alpha:
            raise DomainError(
                f"theta={theta!r} is not below the tangency ceiling psi^-1({alpha!r})"
            )
        r = ps * a / (alpha - ps)
        return ps * a * r + ps, dps + 2.0 * r * (dps * a + ps * da) + r * r * dps

    return eta_alpha_at


def zeta(gamma: float, theta: float) -> float:
    """(theta + sin theta - gamma*(1 + cos theta))/2: locates where a line
    with slope gamma crosses the curve of nearest points.  Strictly
    increasing on [0, pi], mapping onto [-gamma, pi/2].

    Evaluated as x_crit(theta) - gamma*cos(theta/2)^2, which neither
    overflows for huge slopes nor cancels near theta = pi.
    """
    return _zeta_fn(gamma)(theta)


def _zeta_fn(gamma: float) -> Callable[[float], float]:
    """zeta(gamma, .) as a function of theta alone, with gamma checked once:
    the objective of theta_crit, one frame per evaluation.  An angle
    outside [0, pi] is reported before a NaN gamma, as zeta reports them."""
    number = not math.isnan(gamma)

    def zeta_gamma(theta: float) -> float:
        if 0.0 <= theta <= math.pi and number:
            ch = math.cos(0.5 * theta)
            return 0.5 * (theta + math.sin(theta)) - gamma * ch * ch
        if not (0.0 <= theta <= math.pi):
            raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
        raise DomainError(f"gamma must be a number, got {gamma!r}")

    return zeta_gamma


def x_crit(theta: float) -> float:
    """(theta + sin theta)/2: abscissa of the nearest point on the level
    curve with index theta, for theta in [0, pi]."""
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    return 0.5 * (theta + math.sin(theta))


def xi(delta: float) -> float:
    """delta^2/(delta - sin delta), ~6/delta near 0 (inf below ~3e-308);
    strictly decreasing on (0, pi] and strictly increasing on [pi, 2*pi)."""
    _check_angle_open(delta, "delta")
    return 1.0 / _scaled_terms(delta)[0] / delta


# ---------------------------------------------------------------------------
# line / level-curve intersections
# ---------------------------------------------------------------------------


def _coefs_disc(beta: float, gamma: float, theta: float) -> tuple[float, float, float]:
    """(A, B, raw discriminant) at theta; DomainError where a line
    parameter is not finite or the discriminant is NaN."""
    if not (math.isfinite(beta) and math.isfinite(gamma)):
        raise DomainError(
            f"line parameters must be finite, got ({beta!r}, {gamma!r})"
        )
    a, b = _coefs(theta)
    disc = a * a - (1.0 - gamma * b) * (1.0 - beta * b)
    if math.isnan(disc):
        raise DomainError(
            f"line ({beta!r}, {gamma!r}) has no discriminant at theta={theta!r}"
        )
    return a, b, disc


def discriminant(beta: float, gamma: float, theta: float) -> float:
    """Raw discriminant A^2 - (1 - gamma*B)*(1 - beta*B) of the quadratic
    locating the intersections of the line (beta, gamma) with the level
    curve of index theta.  Negative means no intersection; callers apply
    the tangency tolerance |disc| <= TANGENCY_RTOL*max(1, A^2)."""
    return _coefs_disc(beta, gamma, theta)[2]


def _check_two_roots(beta: float, gamma: float, theta: float) -> None:
    """DomainError unless the line meets the level curve within the tangency
    tolerance, then DegenerateLineError where 1 - gamma*B = 0."""
    a, b, disc = _coefs_disc(beta, gamma, theta)
    if not disc >= -TANGENCY_RTOL * max(1.0, a * a):
        raise DomainError(
            f"line ({beta!r}, {gamma!r}) does not meet the level curve "
            f"theta={theta!r} (discriminant {disc!r} < 0)"
        )
    if 1.0 - gamma * b == 0.0:
        raise DegenerateLineError(
            "1 - gamma*B(theta) = 0: the line is parallel to the curve's "
            "boundary slope; use s_tangent"
        )


# The raw roots below are what the line solvers minimize over.  The interval
# constructions guarantee a nonnegative discriminant on every node they
# visit; a negative value can only be roundoff amplified through the
# tangency-endpoint inverse solve, so the raw roots clamp it to zero.  At a
# tangency minimizer the objective is first-order stationary in the root,
# which bounds the induced value error by the square of the clamp.  They take
# A and B from _coefs and form the discriminant inline, as the scalar line
# objective (linedist._row_fn) does where it does not clamp the root.


def _s_plus_raw(beta: float, gamma: float, theta: float) -> float:
    """Smaller-v root in the continuous conjugate form: no pole at
    1 - gamma*B = 0 and no subtractive cancellation in the numerator."""
    a, b = _coefs(theta)
    p = 1.0 - beta * b
    disc = a * a - (1.0 - gamma * b) * p
    if disc < 0.0:
        disc = 0.0
    return p / (a - math.sqrt(disc))


def _s_minus_raw(beta: float, gamma: float, theta: float) -> float:
    """Larger-v root; +inf at the pole 1 - gamma*B = 0."""
    a, b = _coefs(theta)
    den = 1.0 - gamma * b
    disc = a * a - den * (1.0 - beta * b)
    if disc < 0.0:
        disc = 0.0
    if den == 0.0:
        return math.inf  # the larger root diverges at the tangent index
    return (a - math.sqrt(disc)) / den


def s_plus(beta: float, gamma: float, theta: float) -> float:
    """Smaller-v intersection root sqrt(v) of the line with the level curve.

    Evaluated in the conjugate form (1 - beta*B)/(A - sqrt(disc)), which is
    free of the 0/0 degeneracy at 1 - gamma*B = 0 and of cancellation in
    the numerator.  May be negative: the intersection then lies off the
    physical branch and the caller must reject it.
    """
    return _public_root(_s_plus_raw, beta, gamma, theta)


def s_minus(beta: float, gamma: float, theta: float) -> float:
    """Larger-v intersection root sqrt(v); defined only when
    1 - gamma*B(theta) != 0."""
    return _public_root(_s_minus_raw, beta, gamma, theta)


def _public_root(
    raw: Callable[[float, float, float], float], beta: float, gamma: float, theta: float
) -> float:
    """raw(beta, gamma, theta) once the line meets the curve; DomainError
    where it comes out NaN, where beta*B or gamma*B overflows (huge line
    parameters at tiny theta).  The line scan calls the raw roots."""
    _check_two_roots(beta, gamma, theta)
    s = raw(beta, gamma, theta)
    if math.isnan(s):
        raise DomainError(
            f"line ({beta!r}, {gamma!r}) has no representable root at theta={theta!r}"
        )
    return s


def s_tangent(beta: float, theta: float) -> float:
    """Single intersection root sqrt(v) in the degenerate configuration
    gamma = psi(theta), where the quadratic collapses to a linear equation:
    (1 - beta*B)/(2*A)."""
    _check_angle_open(theta)
    if math.isnan(beta):
        raise DomainError(f"beta must be a number, got {beta!r}")
    a = coef_A(theta)
    if a == 0.0:
        raise DomainError("A(theta) = 0: tangent root undefined")
    s = (1.0 - beta * coef_B(theta)) / (2.0 * a)
    if math.isnan(s):  # beta = 0 and B(theta) overflows
        raise DomainError(f"B({theta!r}) overflows: no representable root")
    return s


def _half_sq_from_root(theta: float, s: float) -> float:
    """Half-squared distance from (0, 1) to the point of the level curve
    theta with sqrt(v) = s, via the cancellation-safe inner form.

    theta^2/(2 sin(theta/2)^2) is formed from the ratio sin(theta/2)/theta,
    which cannot underflow for any positive theta below 2*pi but the
    least, 5e-324, where theta/2 rounds to 0; the value is inf there, as
    in linedist._objective_many, whose clamp and _row_fn's take it to
    _HUGE.  _row_fn repeats this arithmetic where it does not clamp the
    root.
    """
    ratio = math.sin(0.5 * theta) / theta
    q4 = math.sin(0.25 * theta)
    inner = (s - 1.0) * (s - 1.0) + 4.0 * s * q4 * q4
    try:
        return inner / (2.0 * ratio * ratio)
    except ZeroDivisionError:
        return math.inf


def _lambda_at_root(root: Callable, name: str, beta: float, gamma: float, theta: float) -> float:
    """Half-squared distance from (0, 1) to the intersection at the root s
    = root(beta, gamma, theta), named name in the error where s < 0."""
    s = root(beta, gamma, theta)
    if s < 0.0:
        raise DomainError(
            f"{name}({beta!r}, {gamma!r}, {theta!r}) < 0: no intersection on "
            "this branch"
        )
    return _half_sq_from_root(theta, s)


def lambda_plus(beta: float, gamma: float, theta: float) -> float:
    """Half-squared distance from (0, 1) to the smaller-v intersection of
    the line (beta, gamma) with the level curve theta."""
    return _lambda_at_root(s_plus, "s_plus", beta, gamma, theta)


def lambda_minus(beta: float, gamma: float, theta: float) -> float:
    """Half-squared distance from (0, 1) to the larger-v intersection."""
    return _lambda_at_root(s_minus, "s_minus", beta, gamma, theta)


# ---------------------------------------------------------------------------
# two-sided bounds
# ---------------------------------------------------------------------------


def g_major(v: float, delta: float) -> float:
    """Invertible majorant of f_of(v, .): piecewise (pi^2/12)*(v+sqrt(v)+1)
    times delta (below pi) or pi^6/(2*pi - delta)^5 (above), continuous at
    delta = pi."""
    if not v >= 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    if not (0.0 < delta < TWO_PI):
        raise DomainError(f"delta must lie in (0, 2*pi), got {delta!r}")
    scale = (math.pi**2 / 12.0) * (v + math.sqrt(v) + 1.0)
    if delta <= math.pi:
        return scale * delta
    return scale * math.pi**6 / (TWO_PI - delta) ** 5


def h_lower(x: float, v: float) -> float:
    """Exact inverse of g_major in delta: a certified lower bound for the
    arc index of the point (x, v) with x > 0."""
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    if not v >= 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    bulk = v + math.sqrt(v) + 1.0
    if x > _HUGE or bulk > _HUGE:
        x, bulk = x * _SCALE, bulk * _SCALE
    if x <= _KNEE * bulk:
        return 12.0 * x / (math.pi**2 * bulk)
    # factored so the inner ratio cannot overflow for representable inputs
    return TWO_PI - math.pi**1.6 * (bulk / (12.0 * x)) ** 0.2


# g_major's knee delta = pi, as an abscissa over v + sqrt(v) + 1
_KNEE = math.pi**3 / 12.0

# Above _HUGE, 12*x, pi^2*bulk or _KNEE*bulk may overflow, so x and bulk
# are scaled by _SCALE first: a power of two, which leaves every ratio and
# so every bound whose products stay finite bit for bit as it was.
_HUGE = 2.0**1019
_SCALE = 2.0**-4


def t_bound(p0: tuple[float, float], p1: tuple[float, float]) -> float:
    """Two-sided comparison quantity T with T <= d <= 12*T for the distance
    between any two points of the half-plane."""
    x0, v0 = p0
    x1, v1 = p1
    if not (v0 >= 0.0 and v1 >= 0.0):
        raise DomainError("points must have v >= 0")
    if not all(map(math.isfinite, (x0, v0, x1, v1))):
        raise DomainError(f"coordinates must be finite, got {p0!r}, {p1!r}")
    try:
        rho2 = (x0 - x1) ** 2 + (v0 - v1) ** 2
    except OverflowError:
        rho2 = math.inf
    if rho2 == 0.0:
        return 0.0
    if rho2 == math.inf:
        # the squared separation overflows: with r half the separation,
        # T = 2r/(sqrt(v0) + sqrt(v1) + sqrt(2r)), divided through by 2
        r = math.hypot(0.5 * x0 - 0.5 * x1, 0.5 * v0 - 0.5 * v1)
        return r / (0.5 * (math.sqrt(v0) + math.sqrt(v1)) + math.sqrt(0.5 * r))
    return math.sqrt(rho2) / (math.sqrt(v0) + math.sqrt(v1) + rho2**0.25)
