"""Geometry of the level curves of the arc index.

For theta in (0, 2*pi) the level curve is the graph of a strictly
increasing convex function v(theta, .) on [psi(theta), inf) that starts on
the boundary at (psi(theta), 0); negative indices give the mirror image
across x = 0.  The nearest point of the curve to the base point (0, 1) is

    ((theta + sin theta)/2, cos(theta/2)^2)   at distance |theta|, |theta| < pi,
    (psi(theta), 0)            at distance theta/sin(theta/2), pi <= |theta| < 2*pi,

and those nearest points sweep out a decreasing concave curve from (0, 1)
to (pi/2, 0) as theta runs over [0, pi].

The curve and its derivatives hold for every theta in (0, 2*pi), from
corefuncs' theta^3-scaled terms; a value beyond the double range (the
slope ~ 3/theta, the curvature ~ 1/theta^2 near the curve start) is inf.

This module also hosts the inverse index maps (psi, eta, eta_alpha, zeta,
x_crit are all strictly monotone) that the line-distance reductions use to
build their minimization intervals.  psi, eta and eta_alpha are inverted
as the arc index is (``solvers.newton_to_two_pi``, below 2*pi and below
psi_inv(alpha)), from an asymptotic start and to ``arc_index_tol`` of a
certified lower bound; zeta and x_crit are solved by Brent on [0, pi].
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import corefuncs as cf
from .errors import DomainError
from .pointmetric import ManifoldPoint
from .solution import DistanceSolution
from .solvers import _TOL_FLOOR, INDEX_TOL, _solve, arc_index_tol, newton_to_two_pi


class LevelCurveSample(NamedTuple):
    """One sampled point of a level curve with its first two x-derivatives."""

    theta: float
    x: float
    v: float
    slope: float
    curvature: float


# ---------------------------------------------------------------------------
# the curve and its derivatives
# ---------------------------------------------------------------------------


def curve_v(theta: float, x: float) -> float:
    """Ordinate of the level-curve point with abscissa x (x >= psi(|theta|)).

    Squares the nonnegative root (sin(t/2)*sqrt(radicand) - u)/(t - sin t),
    with every t^3-scale term divided by t^3.
    """
    if theta == 0.0:
        raise DomainError("theta = 0 indexes the vertical axis, not a graph")
    t = abs(theta)
    p3, u3, sr, rad = cf._curve_terms(t, x)
    s = (sr * math.sqrt(rad / t) - u3) / p3
    if s < 0.0:  # only by rounding at the curve start
        s = 0.0
    return s * s


def curve_slope(theta: float, x: float) -> float:
    """dv/dx of the level curve; 0 one-sidedly at the curve start and
    strictly positive beyond it."""
    p3, u3, sr, rad = cf._curve_terms(theta, x)
    # sqrt(N)/t^3, N = sin(t/2)^2 * radicand
    root_n = sr * math.sqrt(rad / theta)
    if root_n <= 0.0:
        # N = u^2 > 0 in-domain; reachable only if the radicand was clamped
        return 0.0
    return 2.0 * sr * sr / p3 * (1.0 - u3 / root_n) / theta


def curve_curvature(theta: float, x: float) -> float:
    """d2v/dx2 of the level curve; strictly positive on [psi(theta), inf).

    Finite wherever it fits a double, including the curve start, where
    N = u(theta)^2 > 0.
    """
    p3, u3, sr, rad = cf._curve_terms(theta, x)
    if rad <= 0.0:
        raise DomainError(
            f"curvature undefined where the radicand vanishes (x={x!r})"
        )
    # 2*u3*sr/(theta^2*(rad/theta)^1.5), divided in steps that overflow
    # to inf rather than forming theta^2 (which underflows)
    return 2.0 * u3 * sr / math.sqrt(theta) / math.sqrt(rad) / rad


def sample_curve(theta: float, x_max: float, samples: int) -> list[LevelCurveSample]:
    """Evenly sample the level curve from its start to x_max (mirrored
    coordinates for theta < 0)."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    t = abs(theta)
    cf._check_angle_open(t)
    sgn = 1.0 if theta > 0.0 else -1.0
    x0 = cf.psi(t)
    x1 = max(x_max, x0)
    out = []
    for i in range(samples):
        x = x0 + (x1 - x0) * i / max(samples - 1, 1)
        out.append(
            LevelCurveSample(
                theta=theta,
                x=sgn * x,
                v=curve_v(t, x),
                slope=sgn * curve_slope(t, x),
                curvature=curve_curvature(t, x),
            )
        )
    return out


# ---------------------------------------------------------------------------
# nearest points and distances
# ---------------------------------------------------------------------------


def critical_point(theta: float) -> ManifoldPoint:
    """Nearest point of the level curve theta to (0, 1), theta in [0, pi]."""
    if not (0.0 <= theta <= math.pi):
        raise DomainError(f"theta must lie in [0, pi], got {theta!r}")
    return ManifoldPoint(cf.x_crit(theta), math.cos(0.5 * theta) ** 2)


def dist_to_level_set(theta: float) -> DistanceSolution:
    """Distance from (0, 1) to the level curve with index theta."""
    cf._check_angle_sym(theta)
    t = abs(theta)
    if t == 0.0:
        return DistanceSolution.closed_form(
            0.0, ManifoldPoint(0.0, 1.0), 0.0, "level-set"
        )
    if t < math.pi:
        x = 0.5 * (theta + math.sin(theta))  # odd: mirrors automatically
        v = math.cos(0.5 * theta) ** 2
        return DistanceSolution.closed_form(t, ManifoldPoint(x, v), theta, "level-set")
    value = t / math.sin(0.5 * t)
    return DistanceSolution.closed_form(
        value, ManifoldPoint(cf.psi(theta), 0.0), theta, "level-set"
    )


def dist_to_horizontal(tau: float) -> float:
    """Distance from (0, 1) to the horizontal line v = tau: 2*|sqrt(tau)-1|."""
    if not tau >= 0.0:
        raise DomainError(f"tau must be nonnegative, got {tau!r}")
    return 2.0 * abs(math.sqrt(tau) - 1.0)


# ---------------------------------------------------------------------------
# inverse index maps
# ---------------------------------------------------------------------------


def psi_inv(y: float) -> float:
    """Inverse of the boundary-abscissa map psi on (0, inf)."""
    if not y > 0.0:
        raise DomainError(f"psi_inv needs a positive argument, got {y!r}")
    # psi <= theta/2 on (0, pi]: theta >= 2y, or theta > pi (width INDEX_TOL)
    return newton_to_two_pi(cf._psi_fn, y, _psi_start(y), arc_index_tol(2.0 * y))


def _psi_start(y: float) -> float:
    # psi = t/3 + t^3/90 + ... near 0, and 4*pi/e^2 + pi/3 - e/3 + ... near
    # 2*pi (e = 2*pi - t), where 1/sqrt(y) for -e/3 fits y in [1, 100] best
    if y < 1.0:
        return 3.0 * y / (1.0 + 0.3 * y * y)
    return cf.TWO_PI - 2.0 * math.sqrt(math.pi / (y - math.pi / 3.0 + 1.0 / math.sqrt(y)))


def eta_inv(y: float) -> float:
    """Inverse of the equal-parameter tangency index eta on (0, inf)."""
    if not y > 0.0:
        raise DomainError(f"eta_inv needs a positive argument, got {y!r}")
    # theta/2 <= eta <= 2*psi <= theta on (0, pi] (eta(pi) > 1): [y, 2y] holds
    # the root.  eta ~ theta/2 near 0 and 8*pi/(2*pi - theta)^2 near 2*pi
    tol = arc_index_tol(y)
    if y <= tol:
        return y
    start = 2.0 * y if y < 1.0 else cf.TWO_PI - math.sqrt(8.0 * math.pi / y)
    return newton_to_two_pi(cf._eta_fn, y, start, tol)


def eta_alpha_inv(alpha: float, y: float, *, ceiling: float | None = None) -> float:
    """Inverse of eta_alpha(alpha, .) on its domain (0, psi_inv(alpha)),
    solved below that ceiling; the caller may pass psi_inv(alpha) as
    ``ceiling``."""
    if not y > 0.0:
        raise DomainError(f"eta_alpha_inv needs a positive argument, got {y!r}")
    if ceiling is None:
        ceiling = psi_inv(alpha)
    # Start at the smaller root psi of eta_alpha = y with A^2 = 1/4; A^2 <= 1
    # gives psi >= m = y*alpha/(alpha + y).  Both in s = min/max of (y, alpha).
    small, large = (y, alpha) if y < alpha else (alpha, y)
    s = small / large
    ps = 2.0 * small / (1.0 + s + math.sqrt(1.0 - s + s * s))
    tol = arc_index_tol(2.0 * small / (1.0 + s))
    return newton_to_two_pi(cf._eta_alpha_fn(alpha), y, _psi_start(ps), tol, ceiling)


def x_crit_inv(y: float) -> float:
    """Inverse of the nearest-point abscissa map on [0, pi/2]."""
    if not (0.0 <= y <= 0.5 * math.pi):
        raise DomainError(f"argument must lie in [0, pi/2], got {y!r}")
    if y == 0.0:
        return 0.0
    return _solve(cf.x_crit, 0.0, math.pi, y, INDEX_TOL, 200, None, None)[0]


def theta_crit(beta: float, gamma: float) -> float:
    """Index of the unique nearest-point-curve crossing of the line
    (beta, gamma) with beta, gamma >= 0: the zeta root for beta <= pi/2 and
    psi_inv(beta) beyond.  The zeta root caps line rows, so it is solved to
    Brent's 4-ulp floor: it must not fall below their tangency index."""
    if not (beta >= 0.0 and gamma >= 0.0):
        raise DomainError("theta_crit requires beta >= 0 and gamma >= 0")
    if beta > 0.5 * math.pi:
        return psi_inv(beta)
    zeta = cf._zeta_fn(gamma)
    z_pi = zeta(math.pi)
    if z_pi <= beta:
        # enormous slopes push the crossing within one ulp of pi
        return math.pi
    return _solve(zeta, 0.0, math.pi, beta, _TOL_FLOOR, 200, None, z_pi)[0]
