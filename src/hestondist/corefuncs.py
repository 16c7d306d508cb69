"""Scalar building blocks of the Heston-manifold distance geometry.

The half-plane {(x, v): v >= 0} carries the metric ds^2 = (dx^2 + dv^2)/v.
Geodesic arcs from the base point (0, 1) are indexed by an angle
delta in (-2*pi, 2*pi); the level curve with index theta meets the boundary
at x = psi(theta) and the half-squared distance from (0, 1) to the point of
that curve with abscissa x is lambda_big(x, theta).  Intersections of a
straight line x = beta + gamma*v with a level curve are located by the
quadratic in sqrt(v) whose coefficients involve coef_A and coef_B; s_plus /
s_minus are its roots and lambda_plus / lambda_minus the corresponding
half-squared distances.

All functions here are pure, stateless and raise DomainError outside their
stated domains rather than returning NaN.  The ``*_many`` functions are the
array forms the minimizer scan evaluates; they repeat the scalar operations
in the same order, so each element equals the scalar value bit for bit.

Numerical note: ratios whose numerators vanish like theta^3
(theta - sin(theta) and friends) lose all precision near zero when formed
directly.  Below ``SMALL_ANGLE`` they are evaluated from truncated Taylor
expansions; the two evaluation paths agree to ~1e-11 relative at the
switch point.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

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
# The theta^3-scale factors are also provided divided by theta^3 (the _r3
# forms), so that the small-angle branches of psi, f_of, lambda_big, coef_A
# and coef_B can be assembled without ever forming a quantity that
# underflows; the cubes themselves vanish below ~1e-103.


def _pick(t: float, series: float, direct: float, mode: Optional[str]) -> float:
    if mode == "series":
        return series
    if mode == "direct":
        return direct
    return series if abs(t) < SMALL_ANGLE else direct


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


def theta_minus_sin(t: float, _mode: Optional[str] = None) -> float:
    """theta - sin(theta), accurate near zero (~theta^3/6)."""
    series = t * (t * t) * _p_r3(t * t)
    return _pick(t, series, t - math.sin(t), _mode)


def two_sin_half_minus_cos_weighted(t: float, _mode: Optional[str] = None) -> float:
    """2*sin(t/2) - t*cos(t/2), accurate near zero (~theta^3/12)."""
    series = t * (t * t) * _u_r3(t * t)
    return _pick(t, series, 2.0 * math.sin(0.5 * t) - t * math.cos(0.5 * t), _mode)


def two_sin_half_minus_theta(t: float, _mode: Optional[str] = None) -> float:
    """2*sin(t/2) - t, accurate near zero (~ -theta^3/24)."""
    series = t * (t * t) * _w_r3(t * t)
    return _pick(t, series, 2.0 * math.sin(0.5 * t) - t, _mode)


def versine(t: float) -> float:
    """1 - cos(t) computed without cancellation as 2*sin(t/2)^2."""
    s = math.sin(0.5 * t)
    return 2.0 * s * s


# ---------------------------------------------------------------------------
# level-curve index functions
# ---------------------------------------------------------------------------


def psi(theta: float, _mode: Optional[str] = None) -> float:
    """Boundary abscissa of the level curve with index theta.

    psi(theta) = (theta - sin theta)/(1 - cos theta); odd, strictly
    increasing on (0, 2*pi) with range (0, inf).
    """
    _check_angle_sym(theta)
    if theta == 0.0:
        raise DomainError("psi is undefined at theta = 0")
    if theta < 0.0:
        return -psi(-theta, _mode)
    if _mode != "direct" and (theta < SMALL_ANGLE or _mode == "series"):
        t2 = theta * theta
        sr = _sin_half_r(t2)
        return theta * _p_r3(t2) / (2.0 * sr * sr)
    return theta_minus_sin(theta, "direct") / versine(theta)


def f_of(v: float, delta: float, _mode: Optional[str] = None) -> float:
    """Abscissa of the point with ordinate v on the arc indexed by delta.

    For fixed v this is odd and strictly increasing in delta on (-2*pi,
    2*pi), f(v, 0) = 0 and f(0, delta) = psi(delta).  Evaluated in the
    cancellation-free split

        f = [ (sqrt(v)-1)^2 * (d - sin d)
              + 4*sqrt(v) * sin(d/4)^2 * (d + 2 sin(d/2)) ] / (2 sin(d/2)^2),

    a sum of two nonnegative terms for d > 0.
    """
    if v < 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    _check_angle_sym(delta, "delta")
    if delta == 0.0:
        return 0.0
    if delta < 0.0:
        return -f_of(v, -delta, _mode)
    s = math.sqrt(v)
    if _mode != "direct" and (delta < SMALL_ANGLE or _mode == "series"):
        t2 = delta * delta
        sr = _sin_half_r(t2)
        qr = _sin_quarter_r(t2)
        num = (s - 1.0) ** 2 * _p_r3(t2) + 4.0 * s * qr * qr * (1.0 + 2.0 * sr)
        return delta * num / (2.0 * sr * sr)
    sh = math.sin(0.5 * delta)
    q4 = math.sin(0.25 * delta)
    num = (s - 1.0) ** 2 * theta_minus_sin(delta, "direct") + 4.0 * s * q4 * q4 * (
        delta + 2.0 * sh
    )
    return num / (2.0 * sh * sh)


def lambda_big(x: float, theta: float, _mode: Optional[str] = None) -> float:
    """Half the squared distance from (0, 1) to the point of the level
    curve with index theta that has abscissa x.

    Finite and real for theta != 0 and
    2*(theta - sin theta)*x + 2*(1 - cos theta) - theta^2 >= 0 (the point
    must exist on the curve); the positive square root is taken.  Negative
    theta is handled by mirror symmetry in x.
    """
    _check_angle_sym(theta)
    if theta == 0.0:
        raise DomainError("lambda_big is undefined at theta = 0")
    if theta >= TWO_PI or theta <= -TWO_PI:
        raise DomainError(f"theta must lie in (-2*pi, 2*pi), got {theta!r}")
    if theta < 0.0:
        return lambda_big(-x, -theta, _mode)
    if _mode != "direct" and (theta < SMALL_ANGLE or _mode == "series"):
        # everything scaled by theta^3 so that nothing underflows
        t2 = theta * theta
        p3, u3, w3 = _p_r3(t2), _u_r3(t2), _w_r3(t2)
        sr = _sin_half_r(t2)
        scaled_radicand = 2.0 * p3 * x + theta * w3 * (1.0 + 2.0 * sr)
        if scaled_radicand < 0.0:
            if scaled_radicand > -1e-12 * max(1.0, abs(x)):
                scaled_radicand = 0.0
            else:
                raise DomainError(
                    f"no point with abscissa {x!r} on the level curve "
                    f"theta={theta!r}"
                )
        bracket = (
            p3 * x
            + 2.0 * theta * sr * u3
            - 2.0 * sr * sr * math.sqrt(theta * scaled_radicand)
        )
        return bracket / (theta * p3 * p3)
    p = theta_minus_sin(theta, "direct")
    u = two_sin_half_minus_cos_weighted(theta, "direct")
    w = two_sin_half_minus_theta(theta, "direct")
    sh = math.sin(0.5 * theta)
    c = 2.0 * sh * sh
    radicand = 2.0 * p * x + w * (2.0 * sh + theta)
    if radicand < 0.0:
        if radicand > -1e-12 * max(1.0, abs(x)):
            radicand = 0.0
        else:
            raise DomainError(
                f"no point with abscissa {x!r} on the level curve theta={theta!r}"
            )
    bracket = p * x + 2.0 * sh * u - c * math.sqrt(radicand)
    return (theta / p) ** 2 * bracket


def coef_A(theta: float, _mode: Optional[str] = None) -> float:
    """A(theta) = (theta*cos(theta/2) - 2*sin(theta/2))/(theta - sin theta).

    Negative on (0, 2*pi); -A is strictly increasing from 1/2 to 1.
    """
    _check_angle_open(theta)
    if _mode != "direct" and (theta < SMALL_ANGLE or _mode == "series"):
        t2 = theta * theta
        return -_u_r3(t2) / _p_r3(t2)
    return -two_sin_half_minus_cos_weighted(theta, "direct") / theta_minus_sin(
        theta, "direct"
    )


def coef_B(theta: float, _mode: Optional[str] = None) -> float:
    """B(theta) = (1 - cos theta)/(theta - sin theta) = 1/psi(theta).

    Positive and strictly decreasing on (0, 2*pi).
    """
    _check_angle_open(theta)
    if _mode != "direct" and (theta < SMALL_ANGLE or _mode == "series"):
        t2 = theta * theta
        sr = _sin_half_r(t2)
        return 2.0 * sr * sr / (theta * _p_r3(t2))
    return versine(theta) / theta_minus_sin(theta, "direct")


# Array form of coef_A and coef_B for the minimizer scan.  numpy's float64
# sin, cos and sqrt matched math's on every argument tested, tan did not
# (README, "Numerical notes"), so the array forms use only those three and
# arithmetic.


def _coefs_series(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t2 = t * t
    p3 = _p_r3(t2)
    sr = _sin_half_r(t2)
    return -_u_r3(t2) / p3, 2.0 * sr * sr / (t * p3)


def _coefs_direct(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sh = np.sin(0.5 * t)
    p = t - np.sin(t)
    return -(2.0 * sh - t * np.cos(0.5 * t)) / p, 2.0 * sh * sh / p


def coefs_many(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coef_A, coef_B) at every element of a float64 array, each element
    bit-identical to the scalar function.  Each side of SMALL_ANGLE is
    evaluated on its own elements only (the direct forms are 0/0 at tiny
    angles)."""
    inside = (0.0 < theta) & (theta < TWO_PI)
    if not inside.all():
        _check_angle_open(float(theta[np.argmin(inside)]))
    small = theta < SMALL_ANGLE
    if not small.any():
        return _coefs_direct(theta)
    if small.all():
        return _coefs_series(theta)
    a = np.empty_like(theta)
    b = np.empty_like(theta)
    a[small], b[small] = _coefs_series(theta[small])
    a[~small], b[~small] = _coefs_direct(theta[~small])
    return a, b


# ---------------------------------------------------------------------------
# auxiliary index functions used by the interval constructions
# ---------------------------------------------------------------------------


def eta(theta: float) -> float:
    """psi(theta) * (1 - A(theta)): the boundary-intercept index at which a
    line with beta = gamma becomes tangent to a level curve.  Strictly
    increasing on (0, 2*pi) with limits 0 and infinity."""
    _check_angle_open(theta)
    return psi(theta) * (1.0 - coef_A(theta))


def eta_alpha(alpha: float, theta: float) -> float:
    """Tangency index for lines with distinct parameters: equals
    psi^2*A^2/(alpha - psi) + psi, defined for 0 < theta < psi^{-1}(alpha)
    and strictly increasing there."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    _check_angle_open(theta)
    ps = psi(theta)
    if ps >= alpha:
        raise DomainError(
            f"theta={theta!r} is not below the tangency ceiling psi^-1({alpha!r})"
        )
    a = coef_A(theta)
    return ps * ps * a * a / (alpha - ps) + ps


def zeta(gamma: float, theta: float) -> float:
    """(theta + sin theta - gamma*(1 + cos theta))/2: locates where a line
    with slope gamma crosses the curve of nearest points.  Strictly
    increasing on [0, pi], mapping onto [-gamma, pi/2].

    Evaluated as x_crit(theta) - gamma*cos(theta/2)^2, which neither
    overflows for huge slopes nor cancels near theta = pi.
    """
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    ch = math.cos(0.5 * theta)
    return 0.5 * (theta + math.sin(theta)) - gamma * ch * ch


def x_crit(theta: float) -> float:
    """(theta + sin theta)/2: abscissa of the nearest point on the level
    curve with index theta, for theta in [0, pi]."""
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    return 0.5 * (theta + math.sin(theta))


def xi(delta: float) -> float:
    """delta^2/(delta - sin delta); strictly decreasing on (0, pi] and
    strictly increasing on [pi, 2*pi)."""
    _check_angle_open(delta, "delta")
    return delta * delta / theta_minus_sin(delta)


# ---------------------------------------------------------------------------
# line / level-curve intersections
# ---------------------------------------------------------------------------


def discriminant(beta: float, gamma: float, theta: float) -> float:
    """Raw discriminant A^2 - (1 - gamma*B)*(1 - beta*B) of the quadratic
    locating the intersections of the line (beta, gamma) with the level
    curve of index theta.  Negative means no intersection; callers apply
    the tangency tolerance |disc| <= TANGENCY_RTOL*max(1, A^2)."""
    _check_angle_open(theta)
    a = coef_A(theta)
    b = coef_B(theta)
    return a * a - (1.0 - gamma * b) * (1.0 - beta * b)


def _clamped_root(beta: float, gamma: float, theta: float) -> tuple[float, float, float]:
    """(A, 1 - gamma*B, sqrt(disc)) with the tangency clamp applied."""
    a = coef_A(theta)
    b = coef_B(theta)
    disc = a * a - (1.0 - gamma * b) * (1.0 - beta * b)
    if disc < 0.0:
        if disc >= -TANGENCY_RTOL * max(1.0, a * a):
            disc = 0.0
        else:
            raise DomainError(
                f"line ({beta!r}, {gamma!r}) does not meet the level curve "
                f"theta={theta!r} (discriminant {disc!r} < 0)"
            )
    return a, 1.0 - gamma * b, math.sqrt(disc)


def s_plus(beta: float, gamma: float, theta: float) -> float:
    """Smaller-v intersection root sqrt(v) of the line with the level curve.

    Evaluated in the conjugate form (1 - beta*B)/(A - sqrt(disc)), which is
    free of the 0/0 degeneracy at 1 - gamma*B = 0 and of cancellation in
    the numerator.  May be negative: the intersection then lies off the
    physical branch and the caller must reject it.
    """
    a, one_minus_gb, root = _clamped_root(beta, gamma, theta)
    if one_minus_gb == 0.0:
        raise DegenerateLineError(
            "1 - gamma*B(theta) = 0: the line is parallel to the curve's "
            "boundary slope; use s_tangent"
        )
    b = coef_B(theta)
    return (1.0 - beta * b) / (a - root)


def s_minus(beta: float, gamma: float, theta: float) -> float:
    """Larger-v intersection root sqrt(v); defined only when
    1 - gamma*B(theta) != 0."""
    a, one_minus_gb, root = _clamped_root(beta, gamma, theta)
    if one_minus_gb == 0.0:
        raise DegenerateLineError(
            "1 - gamma*B(theta) = 0: the line is parallel to the curve's "
            "boundary slope; use s_tangent"
        )
    return (a - root) / one_minus_gb


def s_tangent(beta: float, theta: float) -> float:
    """Single intersection root sqrt(v) in the degenerate configuration
    gamma = psi(theta), where the quadratic collapses to a linear equation:
    (1 - beta*B)/(2*A)."""
    _check_angle_open(theta)
    a = coef_A(theta)
    if a == 0.0:
        raise DomainError("A(theta) = 0: tangent root undefined")
    return (1.0 - beta * coef_B(theta)) / (2.0 * a)


def _half_sq_from_root(theta: float, s: float) -> float:
    """Half-squared distance from (0, 1) to the point of the level curve
    theta with sqrt(v) = s, via the cancellation-safe inner form.

    theta^2/(2 sin(theta/2)^2) is formed from the ratio sin(theta/2)/theta,
    which cannot underflow for any positive theta below 2*pi.
    """
    ratio = math.sin(0.5 * theta) / theta
    q4 = math.sin(0.25 * theta)
    inner = (s - 1.0) * (s - 1.0) + 4.0 * s * q4 * q4
    return inner / (2.0 * ratio * ratio)


def _half_sq_from_root_many(theta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """_half_sq_from_root elementwise, bit-identical to it."""
    ratio = np.sin(0.5 * theta) / theta
    q4 = np.sin(0.25 * theta)
    inner = (s - 1.0) * (s - 1.0) + 4.0 * s * q4 * q4
    return inner / (2.0 * ratio * ratio)


def lambda_plus(beta: float, gamma: float, theta: float) -> float:
    """Half-squared distance from (0, 1) to the smaller-v intersection of
    the line (beta, gamma) with the level curve theta."""
    s = s_plus(beta, gamma, theta)
    if s < 0.0:
        raise DomainError(
            f"s_plus({beta!r}, {gamma!r}, {theta!r}) < 0: no intersection on "
            "this branch"
        )
    return _half_sq_from_root(theta, s)


def lambda_minus(beta: float, gamma: float, theta: float) -> float:
    """Half-squared distance from (0, 1) to the larger-v intersection."""
    s = s_minus(beta, gamma, theta)
    if s < 0.0:
        raise DomainError(
            f"s_minus({beta!r}, {gamma!r}, {theta!r}) < 0: no intersection on "
            "this branch"
        )
    return _half_sq_from_root(theta, s)


# ---------------------------------------------------------------------------
# two-sided bounds
# ---------------------------------------------------------------------------


def g_major(v: float, delta: float) -> float:
    """Invertible majorant of f_of(v, .): piecewise (pi^2/12)*(v+sqrt(v)+1)
    times delta (below pi) or pi^6/(2*pi - delta)^5 (above), continuous at
    delta = pi."""
    if v < 0.0:
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
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    if v < 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    bulk = v + math.sqrt(v) + 1.0
    knee = (math.pi**3 / 12.0) * bulk
    if x <= knee:
        return 12.0 * x / (math.pi**2 * bulk)
    # factored so the inner ratio cannot overflow for representable inputs
    return TWO_PI - math.pi**1.6 * (bulk / (12.0 * x)) ** 0.2


def t_bound(p0: tuple[float, float], p1: tuple[float, float]) -> float:
    """Two-sided comparison quantity T with T <= d <= 12*T for the distance
    between any two points of the half-plane."""
    x0, v0 = p0
    x1, v1 = p1
    if v0 < 0.0 or v1 < 0.0:
        raise DomainError("points must have v >= 0")
    rho2 = (x0 - x1) ** 2 + (v0 - v1) ** 2
    if rho2 == 0.0:
        return 0.0
    return math.sqrt(rho2) / (math.sqrt(v0) + math.sqrt(v1) + rho2**0.25)
