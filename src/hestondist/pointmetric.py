"""Distance between two points of the half-plane.

The distance from the base point (0, 1) to (x, v) is

    d = |delta|/sin(|delta|/2) * sqrt((sqrt(v)-1)^2 + 4 sqrt(v) sin(delta/4)^2),

where delta solves the transcendental equation f_of(v, delta) = x.  A
general pair is reduced to this base configuration by the translation and
scaling identities

    d((x0,v0),(x1,v1)) = sqrt(v0) * d((0,1), ((x1-x0)/v0, v1/v0)),   v0 > 0,

swapping the points first if only v1 is off the boundary.  The correlated
model with vol-of-vol c and correlation rho reduces to the uncorrelated one
through the shear (x, v) -> ((c*x - rho*v)/sqrt(1-rho^2), v) and division
by c.

The inner form (sqrt(v)-1)^2 + 4 sqrt(v) sin(delta/4)^2 is a sum of two
nonnegative terms and avoids the subtractive cancellation of the raw
v + 1 - 2 sqrt(v) cos(delta/2) near v ~ 1, delta ~ 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import corefuncs as cf
from .errors import BoundaryPairError, ConvergenceError, DomainError
from .solvers import solve_monotone

DELTA_TOL = 1e-13
_UPPER_STEP_CAP = 200


class ManifoldPoint(NamedTuple):
    """A point of the closed half-plane, v >= 0."""

    x: float
    v: float


class DeltaCoordinate(NamedTuple):
    """A point in the arc-index chart: (theta, v) with theta in
    (-2*pi, 2*pi) and v >= 0."""

    theta: float
    v: float


@dataclass(frozen=True)
class CorrelationFrame:
    """Vol-of-vol and correlation of the correlated model.

    Drift parameters do not enter any distance formula and are not stored.
    """

    c: float
    rho: float

    def __post_init__(self) -> None:
        if not (self.c > 0.0):
            raise DomainError(f"vol-of-vol c must be positive, got {self.c!r}")
        if not (-1.0 < self.rho < 1.0):
            raise DomainError(f"correlation must lie in (-1, 1), got {self.rho!r}")

    def shear(self, x: float, v: float) -> tuple[float, float]:
        """Map a point of the correlated model into the uncorrelated one."""
        root = math.sqrt(1.0 - self.rho * self.rho)
        return (self.c * x - self.rho * v) / root, v


def _upper_bracket(xa: float, v: float, lo: float) -> float:
    """Grow an upper bracket for the arc-index solve by halving the gap to
    2*pi until f_of exceeds the target abscissa.  Returns the largest double
    below 2*pi if the target is unreachable at double resolution."""
    cap = math.nextafter(cf.TWO_PI, 0.0)
    hi = lo
    for _ in range(_UPPER_STEP_CAP):
        nxt = cf.TWO_PI - 0.5 * (cf.TWO_PI - hi)
        if nxt >= cap or nxt <= hi:
            return cap
        hi = nxt
        if cf.f_of(v, hi) >= xa:
            return hi
    raise ConvergenceError(
        f"could not bracket the arc index for x={xa!r}, v={v!r}"
    )


def delta_of(x: float, v: float, tol: float = DELTA_TOL) -> float:
    """Arc index of the point (x, v) relative to the base point (0, 1):
    the unique delta in (-2*pi, 2*pi) with f_of(v, delta) = x.

    sign(delta) = sign(x).  The root bracket starts at the certified lower
    bound h_lower and is tightened toward 2*pi from the right by geometric
    halving.
    """
    if v < 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    if x == 0.0:
        return 0.0
    sign = 1.0 if x > 0.0 else -1.0
    xa = abs(x)
    lo = min(max(cf.h_lower(xa, v), 5e-324), cf.TWO_PI * (1.0 - 1e-16))
    if cf.f_of(v, lo) > xa:
        # the certified bound can only fail by rounding; back off
        lo *= 0.5
    hi = _upper_bracket(xa, v, lo)
    if cf.f_of(v, hi) < xa:
        # the index saturates one ulp below 2*pi at double resolution
        return sign * hi
    report = solve_monotone(lambda d: cf.f_of(v, d), (lo, hi), target=xa, tol=tol)
    return sign * report.value


def _dist_base(x: float, v: float) -> float:
    """Distance from the base point (0, 1) to (x, v)."""
    s = math.sqrt(v)
    if x == 0.0:
        return 2.0 * abs(s - 1.0)
    d = abs(delta_of(x, v))
    q4 = math.sin(0.25 * d)
    inner = (s - 1.0) ** 2 + 4.0 * s * q4 * q4
    # d/sin(d/2) = 2 + d^2/12 + ...: below 1e-8 the correction is sub-ulp
    ratio = 2.0 if d < 1e-8 else d / math.sin(0.5 * d)
    return ratio * math.sqrt(inner)


def dist(p0: tuple[float, float], p1: tuple[float, float]) -> float:
    """Distance between two points of the half-plane.

    Defined whenever at least one point is off the boundary v = 0;
    boundary-to-boundary pairs with distinct abscissas are rejected.
    """
    x0, v0 = p0
    x1, v1 = p1
    if v0 < 0.0 or v1 < 0.0:
        raise DomainError("points must have v >= 0")
    if v0 == 0.0 and v1 == 0.0:
        if x0 == x1:
            return 0.0
        raise BoundaryPairError(
            "both points lie on the boundary v = 0; the distance formula "
            "does not apply"
        )
    if v0 == 0.0:
        x0, v0, x1, v1 = x1, v1, x0, v0
    elif v1 > v0 * 1e12:
        # normalizing by the larger variance keeps the reduced coordinates
        # representable when the ratio is extreme (symmetry of the metric)
        x0, v0, x1, v1 = x1, v1, x0, v0
    return math.sqrt(v0) * _dist_base((x1 - x0) / v0, v1 / v0)


def dist_correlated(
    frame: CorrelationFrame,
    p0: tuple[float, float],
    p1: tuple[float, float],
) -> float:
    """Distance between two points under the correlated-model metric."""
    x0, v0 = p0
    x1, v1 = p1
    return dist(frame.shear(x0, v0), frame.shear(x1, v1)) / frame.c


def to_delta(p: tuple[float, float]) -> DeltaCoordinate:
    """Chart map (x, v) -> (theta, v): theta indexes the level curve
    through the point."""
    x, v = p
    return DeltaCoordinate(delta_of(x, v), v)


def from_delta(d: tuple[float, float]) -> ManifoldPoint:
    """Inverse chart map (theta, v) -> (f_of(v, theta), v)."""
    theta, v = d
    if v < 0.0:
        raise DomainError(f"v must be nonnegative, got {v!r}")
    return ManifoldPoint(cf.f_of(v, theta), v)


# ---------------------------------------------------------------------------
# vectorized internals (grid oracles)
# ---------------------------------------------------------------------------
#
# The brute-force references evaluate the base distance on thousands of
# points; a fixed-count vector bisection on numpy arrays keeps them cheap.


def _f_arr(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Vectorized f_of for d > 0, with the same underflow-free small-angle
    branch as the scalar version."""
    s = np.sqrt(v)
    t2 = d * d
    sr = cf._sin_half_r(t2)
    qr = cf._sin_quarter_r(t2)
    p3 = cf._p_r3(t2)
    series = d * ((s - 1.0) ** 2 * p3 + 4.0 * s * qr * qr * (1.0 + 2.0 * sr)) / (
        2.0 * sr * sr
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sh = np.sin(0.5 * d)
        q4 = np.sin(0.25 * d)
        num = (s - 1.0) ** 2 * (d - np.sin(d)) + 4.0 * s * q4 * q4 * (d + 2.0 * sh)
        direct = num / (2.0 * sh * sh)
    return np.where(np.abs(d) < cf.SMALL_ANGLE, series, direct)


def _delta_grid(x: np.ndarray, v: np.ndarray, iters: int = 90) -> np.ndarray:
    """Vectorized arc-index solve for x >= 0 (elementwise bisection)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    pos = x > 0.0
    out = np.zeros_like(x)
    if not np.any(pos):
        return out
    xp, vp = x[pos], v[pos]
    bulk = vp + np.sqrt(vp) + 1.0
    knee = (math.pi**3 / 12.0) * bulk
    lo = np.where(
        xp <= knee,
        12.0 * xp / (math.pi**2 * bulk),
        cf.TWO_PI - (math.pi**8 * bulk / (12.0 * xp)) ** 0.2,
    )
    lo = lo * 0.5  # certified bound stays a bound after halving; adds margin
    hi = cf.TWO_PI - 0.5 * (cf.TWO_PI - lo)
    for _ in range(_UPPER_STEP_CAP):
        need = _f_arr(vp, hi) < xp
        if not np.any(need):
            break
        hi = np.where(need, cf.TWO_PI - 0.5 * (cf.TWO_PI - hi), hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = _f_arr(vp, mid) < xp
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out[pos] = 0.5 * (lo + hi)
    return out


def _dist_base_grid(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized distance from (0, 1); uses mirror symmetry for x < 0."""
    x = np.abs(np.asarray(x, dtype=float))
    v = np.asarray(v, dtype=float)
    d = _delta_grid(x, v)
    s = np.sqrt(v)
    q4 = np.sin(0.25 * d)
    inner = (s - 1.0) ** 2 + 4.0 * s * q4 * q4
    ratio = np.full_like(d, 2.0)
    pos = d >= 1e-8
    ratio[pos] = d[pos] / np.sin(0.5 * d[pos])
    return ratio * np.sqrt(inner)
