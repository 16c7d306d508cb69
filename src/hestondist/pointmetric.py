"""Distance between two points of the half-plane.

The distance from the base point (0, 1) to (x, v) is

    d = |delta|/sin(|delta|/2) * sqrt((sqrt(v)-1)^2 + 4 sqrt(v) sin(delta/4)^2),

where delta solves the transcendental equation f_of(v, delta) = x.  A
general pair is reduced to this base configuration by the translation and
scaling identities

    d((x0,v0),(x1,v1)) = sqrt(v0) * d((0,1), ((x1-x0)/v0, v1/v0)),   v0 > 0,

with the points swapped where v1 > _SWAP_RATIO*v0, which covers v0 = 0.
The correlated model with vol-of-vol c and correlation rho reduces to the
uncorrelated one through the shear (x, v) -> ((c*x - rho*v)/sqrt(1-rho^2),
v) and division by c; CorrelationFrame holds this reduction, for points
and for lines, and no other module computes sqrt(1-rho^2).

The inner form (sqrt(v)-1)^2 + 4 sqrt(v) sin(delta/4)^2 is a sum of two
nonnegative terms and avoids the subtractive cancellation of the raw
v + 1 - 2 sqrt(v) cos(delta/2) near v ~ 1, delta ~ 0.

Every point distance takes one path: _reduce, then _dist_base.  dist
calls them, and so does the oracle's line closure _line_dist_fn, which
adds only the slope along the line.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import corefuncs as cf
from .errors import BoundaryPairError, DomainError
from .solvers import arc_index_tol, newton_to_two_pi

if TYPE_CHECKING:
    import numpy as np

# h_lower, the floor of the arc-index solve's start and the base of its
# stop width, is clipped to these
_LO_MIN = 5e-324
_LO_MAX = cf.TWO_PI * (1.0 - 1e-16)


class ManifoldPoint(NamedTuple):
    """A point of the closed half-plane, v >= 0."""

    x: float
    v: float


class DeltaCoordinate(NamedTuple):
    """A point in the arc-index chart: (theta, v) with theta in
    (-2*pi, 2*pi) and v >= 0."""

    theta: float
    v: float


class CorrelationFrame(NamedTuple("CorrelationFrame", [("c", float), ("rho", float)])):
    """Vol-of-vol and correlation of the correlated model.

    Drift parameters do not enter any distance formula and are not stored.
    __new__ checks both fields; _make, and so _replace, builds through it.
    """

    __slots__ = ()

    def __new__(cls, c: float, rho: float) -> CorrelationFrame:
        if not (0.0 < c < math.inf):
            raise DomainError(f"vol-of-vol c must be positive and finite, got {c!r}")
        if not (-1.0 < rho < 1.0):
            raise DomainError(f"correlation must lie in (-1, 1), got {rho!r}")
        return super().__new__(cls, c, rho)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # runs __new__

    def shear(
        self, x: float | np.ndarray, v: float | np.ndarray
    ) -> tuple[float | np.ndarray, float | np.ndarray]:
        """Map a point of the correlated model into the uncorrelated one;
        x and v may be floats or numpy arrays."""
        return (self.c * x - self.rho * v) / self._root(), v

    def _root(self) -> float:
        return math.sqrt(1.0 - self.rho * self.rho)

    def _reduce_line(
        self, p0: tuple[float, float], beta: float, gamma: float
    ) -> tuple[float, float, float]:
        """(xi, eta, scale) with the correlated distance from p0 (v0 > 0)
        to the line x = beta + gamma*v equal to scale times the base
        distance from (0, 1) to the line x = xi + eta*v: shear, translate
        p0 to the axis and divide by v0, so scale = sqrt(v0)/c."""
        x0, v0 = p0
        if not v0 > 0.0:
            raise DomainError("the source point must have v0 > 0")
        root = self._root()
        xi = (self.c * beta - self.c * x0 + self.rho * v0) / (v0 * root)
        eta = (self.c * gamma - self.rho) / root
        return xi, eta, math.sqrt(v0) / self.c


def delta_of(x: float, v: float) -> float:
    """Arc index of the point (x, v) relative to the base point (0, 1):
    the unique delta in (-2*pi, 2*pi) with f_of(v, delta) = x.

    sign(delta) = sign(x); a nonzero x whose index lies below the smallest
    subnormal gives that subnormal, +-5e-324, and an index beyond the
    largest double below 2*pi gives that double.  One Newton-bisection
    solve (solvers.newton_to_two_pi) on corefuncs._f_of_fn(v), which gives
    f_of(v, .) and its slope together.  It starts from the asymptotic
    inverse, clipped below to the certified lower bound h_lower: with c1
    and c3 the first two Taylor coefficients of f_of(v, .) and y = x/c1,
    y/(1 + (c3/c1)*y^2) for a small index, and
    2*pi - 2*(sqrt(v) + 1)*sqrt(pi/x) near 2*pi (y > pi).  It stops at
    solvers.arc_index_tol of h_lower plus 4 ulp, so small indices are
    solved to relative precision.
    A non-finite coordinate raises DomainError.
    """
    if not v >= 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    if not (math.isfinite(x) and v < math.inf):
        raise DomainError(f"coordinates must be finite, got x={x!r}, v={v!r}")
    if x == 0.0:
        return 0.0
    xa = abs(x)
    lo = min(max(cf.h_lower(xa, v), _LO_MIN), _LO_MAX)
    # f_of(v, d) = c1*d + c3*d^3 + ... near 0, with c1 = (v + sqrt(v) + 1)/3
    # and c3 = (sqrt(v) - 1)^2/90 + sqrt(v)/24, and about
    # 4*pi*(sqrt(v) + 1)^2/(2*pi - d)^2 near 2*pi
    s = math.sqrt(v)
    q = (s - 1.0) ** 2
    c1 = q / 3.0 + s
    y = xa / c1
    if y > math.pi:
        start = cf.TWO_PI - 2.0 * (s + 1.0) * math.sqrt(math.pi / xa)
    else:
        start = y / (1.0 + (q / 90.0 + s / 24.0) / c1 * y * y)
    return math.copysign(
        newton_to_two_pi(cf._f_of_fn(v), xa, max(start, lo), arc_index_tol(lo)), x
    )


_SWAP_RATIO = 1e12


def _reduce(x0: float, v0: float, x1: float, v1: float) -> tuple[float, float, float]:
    """(x, w, scale) with d((x0, v0), (x1, v1)) = scale*d((0, 1), (x, w)):
    translate and divide by v0, or by v1 where v1 > _SWAP_RATIO*v0, which
    covers v0 = 0.  Normalizing by the larger variance keeps the reduced
    point representable when the ratio is extreme (symmetry of the
    metric)."""
    if v1 > v0 * _SWAP_RATIO:
        return (x0 - x1) / v1, v0 / v1, math.sqrt(v1)
    return (x1 - x0) / v0, v1 / v0, math.sqrt(v0)


def _dist_base(x: float, w: float) -> tuple[float, float, float, float, float]:
    """Distance from the base point (0, 1) to (x, w), with the terms its
    slope needs: (D, d, s, ratio, rad), where D = ratio*rad, d =
    |delta_of(x, w)|, s = sqrt(w), ratio = d/sin(d/2) and rad =
    sqrt((s - 1)^2 + 4s sin(d/4)^2); at x = 0, d = 0 and ratio = 2."""
    s = math.sqrt(w)
    if x == 0.0:
        return 2.0 * abs(s - 1.0), 0.0, s, 2.0, abs(s - 1.0)
    d = abs(delta_of(x, w))
    q4 = math.sin(0.25 * d)
    inner = (s - 1.0) ** 2 + 4.0 * s * q4 * q4
    # d/sin(d/2) = 2 + d^2/12 + ...: below 1e-8 the correction is sub-ulp
    ratio = 2.0 if d < 1e-8 else d / math.sin(0.5 * d)
    if inner < _INNER_FLOOR:
        rad = math.hypot(s - 1.0, 2.0 * math.sqrt(s) * q4)
    else:
        rad = math.sqrt(inner)
    return ratio * rad, d, s, ratio, rad


# Below this the inner form of _dist_base may have lost bits: q4*q4
# underflows for indices below about 1e-154.  There the distance is taken
# as hypot(s - 1, 2*sqrt(s)*q4), the square root of the same sum.
_INNER_FLOOR = 2.0**-1000


def dist(p0: tuple[float, float], p1: tuple[float, float]) -> float:
    """Distance between two points of the half-plane.

    Defined whenever at least one point is off the boundary v = 0;
    boundary-to-boundary pairs with distinct abscissas are rejected, and
    so is a non-finite coordinate (DomainError).  A pair whose reduced
    abscissa (x1 - x0)/v0 overflows raises DomainError too.
    """
    x0, v0 = p0
    x1, v1 = p1
    if not (v0 >= 0.0 and v1 >= 0.0):
        raise DomainError("points must have v >= 0")
    if not (math.isfinite(x0) and math.isfinite(x1) and v0 < math.inf and v1 < math.inf):
        raise DomainError(f"coordinates must be finite, got {p0!r}, {p1!r}")
    if v0 == 0.0 and v1 == 0.0:
        if x0 == x1:
            return 0.0
        raise BoundaryPairError(
            "both points lie on the boundary v = 0; the distance formula "
            "does not apply"
        )
    x, w, scale = _reduce(x0, v0, x1, v1)
    if not math.isfinite(x):
        raise DomainError(
            f"the reduced abscissa (x1 - x0)/v0 of {p0!r}, {p1!r} overflows"
        )
    return scale * _dist_base(x, w)[0]


def dist_correlated(
    frame: CorrelationFrame,
    p0: tuple[float, float],
    p1: tuple[float, float],
) -> float:
    """Distance between two points under the correlated-model metric."""
    x0, v0 = p0
    x1, v1 = p1
    return dist(frame.shear(x0, v0), frame.shear(x1, v1)) / frame.c


def _line_dist_fn(
    frame: CorrelationFrame, p0: tuple[float, float], beta: float, gamma: float
) -> Callable[[float], tuple[float, float]]:
    """(D, dD/dv) as a one-frame function of v, where D(v) =
    dist_correlated(frame, p0, (beta + gamma*v, v)) is the distance from
    p0 (v0 > 0) to the point of the line x = beta + gamma*v at ordinate v.

    D is dist_correlated's own path: the shear, then _reduce and
    _dist_base.  The slope is the chain rule along that path.  With d, s,
    R = d/sin(d/2) and sqrt(I), I = (s - 1)^2 + 4s sin(d/4)^2, from
    _dist_base, f_of(w, d) = |x| gives dd = (d|x| - f_w dw)/f_d.
    f = (s - 1)^2 fp + 4s fq, with fp = f_of(0, d), so s*f_w = (s - 1) fp
    + 2 fq.  Below SMALL_ANGLE fp, fq, f_d and R' are Taylor series to
    d^7, exact to rounding; above it they are closed forms, with the
    cancellation that f_of's direct form has just above SMALL_ANGLE.

    The slope is +-inf or nan at v = 0, where D grows like sqrt(v), and
    nan at p0 itself; a reduced abscissa that overflows raises
    DomainError, as dist does."""
    x0, v0 = p0
    if not v0 > 0.0:
        raise DomainError("the source point must have v0 > 0")
    c, shear = frame.c, frame.shear
    sx0 = shear(x0, v0)[0]
    eta = shear(gamma, 1.0)[0]  # the sheared line's dx/dv
    gap = sx0 - shear(beta, 0.0)[0]  # sheared p0 less the line's foot at v = 0
    r0, cut = math.sqrt(v0), v0 * _SWAP_RATIO
    sin = math.sin

    def fn(v: float) -> tuple[float, float]:
        if not 0.0 <= v < math.inf:
            raise DomainError(f"v must be nonnegative and finite, got {v!r}")
        x, w, scale = _reduce(sx0, v0, shear(beta + gamma * v, v)[0], v)
        if not math.isfinite(x):
            raise DomainError(f"the reduced abscissa at v = {v!r} overflows")
        base, d, s, ratio, rad = _dist_base(x, w)
        if not rad > 0.0:
            return scale * base / c, math.nan
        if x == 0.0:
            # the base distance is even in x; in w its slope is sign(s - 1)/s
            gx, gw = 0.0, math.copysign(1.0, s - 1.0)
        else:
            q4 = sin(0.25 * d)
            q2 = q4 * q4
            s1 = (s - 1.0) ** 2
            sh = sin(0.5 * d)
            if d < cf.SMALL_ANGLE:
                t2 = d * d
                fp = d * (1.0 / 3.0 + t2 * (1.0 / 90.0 + t2 * (1.0 / 2520.0 + t2 / 75600.0)))
                fq = d * (0.25 + t2 * (1.0 / 96.0 + t2 * (1.0 / 2560.0 + t2 * (17.0 / 1290240.0))))
                # the slopes of fp and fq in d
                dfp = 1.0 / 3.0 + t2 * (1.0 / 30.0 + t2 * (1.0 / 504.0 + t2 / 10800.0))
                dfq = 0.25 + t2 * (1.0 / 32.0 + t2 * (1.0 / 512.0 + t2 * (119.0 / 1290240.0)))
                fd = s1 * dfp + 4.0 * s * dfq
                dratio = d * (1.0 / 6.0 + t2 * (
                    7.0 / 720.0 + t2 * (31.0 / 80640.0 + t2 * (127.0 / 9676800.0))))
            else:
                sd = sin(d)
                den = 2.0 * sh * sh
                fp = (d - sd) / den
                fq = q2 * (d + 2.0 * sh) / den
                f = s1 * fp + 4.0 * s * fq
                # f_d as corefuncs._f_of_fn forms it
                fd = s1 + (4.0 * s * (0.25 * sh * (d + 2.0 * sh) + 2.0 * q2 * (1.0 - q2))
                           - f * sd) / den
                dratio = (2.0 * sh - d * (1.0 - 2.0 * q2)) / den
            # the base distance's slopes: in |x|, and s times that in w
            gx = (dratio * rad + ratio * s * sh / (2.0 * rad)) / fd
            gw = ratio * (s - 1.0 + 2.0 * q2) / (2.0 * rad) - gx * ((s - 1.0) * fp + 2.0 * fq)
            gx = math.copysign(gx, x)
        if v > cut:
            # x = (sx0 - sx1)/v and w = v0/v: dx/dv = -gap/v^2, dw/dv = -w/v
            slope = (0.5 * base - gx * gap / v - s * gw) / (c * scale)
        else:
            slope = (gx * eta + (gw / s if s else math.inf * gw)) / (c * r0)
        return scale * base / c, slope

    return fn


def to_delta(p: tuple[float, float]) -> DeltaCoordinate:
    """Chart map (x, v) -> (theta, v): theta indexes the level curve
    through the point."""
    x, v = p
    return DeltaCoordinate(delta_of(x, v), v)


def from_delta(d: tuple[float, float]) -> ManifoldPoint:
    """Inverse chart map (theta, v) -> (f_of(v, theta), v)."""
    theta, v = d
    if not v >= 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    return ManifoldPoint(cf.f_of(v, theta), v)
