"""Distance from the base point (0, 1) to a straight line x = beta + gamma*v.

The computation is reduced to one-variable minimization over explicit
finite intervals of the arc index theta.  Which level curves meet the line,
and through which intersection root, depends on the ordering of beta and
gamma (admissible_intervals gives those sets):

* vertical lines (gamma = 0): minimize the half-squared distance through
  the plus intersection root (the root form of lambda_big(beta, .)) over
  [beta/11, 2*beta] when 0 < beta < pi/2 and over [1/7, pi] when
  beta >= pi/2.
* right slanted lines (gamma > 0): minimize lambda_plus and lambda_minus
  over intervals bounded below by the tangency index (an eta-type inverse)
  and above by the nearest-point-curve crossing, the boundary index
  psi_inv(beta), or the blow-up index psi_inv(gamma).
* left slanted lines (gamma < 0): a single plus-type branch over
  [0, psi_inv(beta)] when beta > |gamma|, or over the mirror image of
  [0, psi_inv(|gamma|)) when beta < |gamma|; the theta = 0 endpoint is the
  crossing of the line with the vertical axis, at v = beta/|gamma|.

_searches holds this case split as a table, one row per minimization: the
branch label, the objective, the interval, how to recover the argmin's
ordinate and the sign of the line's own index.  One driver, _solve, runs
minimize_on_interval on every row and keeps the lowest; a later row must
beat the incumbent by more than TIE_RTOL.

Each objective comes in two forms: a scalar function of theta for the
golden-section refine, and an array form that evaluates all scan nodes of
minimize_on_interval in one call.  The two agree bit for bit on every node,
so the answers are those of the scalar scan.  The intersection roots
themselves live in corefuncs (_s_plus_raw, _s_minus_raw and their array
forms).

Every closed-form path is validated against oracle_dist, a deliberately
slow reference that minimizes the point distance along the line over a
dense v-grid with local refinement.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import corefuncs as cf
from . import levelsets as ls
from .corefuncs import LineParams
from .errors import DomainError
from .pointmetric import (
    CorrelationFrame,
    ManifoldPoint,
    _dist_base_grid,
    delta_of,
    dist,
)
from .solution import DistanceSolution
from .solvers import SolveReport, minimize_on_interval

# Half-open interval ends (where lambda_minus blows up) are closed at this
# offset; the objective diverges there, so no minimum is lost.
EDGE_CLIP = 1e-9

# When the plus- and minus-branch minima agree within this relative
# tolerance the plus argmin (smaller v) is reported, for determinism.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class AdmissibleInterval:
    """A theta-interval on which the line meets the level curves, with
    flags for which intersection roots apply.  Left endpoints that are
    mathematically open (the theta = 0 end of vertical-line sets, the
    blow-up end of left-slanted sets) are stored closed; the endpoint
    itself carries no intersection."""

    lo: float
    hi: float
    hi_open: bool
    branch_plus: bool
    branch_minus: bool


# ---------------------------------------------------------------------------
# branch objectives
# ---------------------------------------------------------------------------


_HUGE = sys.float_info.max
_ROOT_HUGE = _HUGE ** 0.5


def _sq(x: float) -> float:
    return x * x  # float**2 raises on overflow; multiplication saturates


def _lam(theta: float, s: float) -> float:
    if s < 0.0 or not math.isfinite(s):
        # reachable only through rounding right at an interval endpoint
        s = 0.0 if s < 0.0 else _ROOT_HUGE
    val = cf._half_sq_from_root(theta, s)
    # astronomically distant candidates can overflow; keep the scan sound
    return val if math.isfinite(val) else _HUGE


# Array forms of the objectives above for the minimizer scan: the same
# operations in the same order, so every node value equals the scalar one.


def _lam_many(theta: np.ndarray, s: np.ndarray) -> np.ndarray:
    """_lam at every node, bit-identical to it.  Clamps s in place."""
    s[s < 0.0] = 0.0
    s[~np.isfinite(s)] = _ROOT_HUGE
    val = cf._half_sq_from_root_many(theta, s)
    val[~np.isfinite(val)] = _HUGE
    return val


_Objective = tuple[Callable[[float], float], Callable[[np.ndarray], np.ndarray]]


def _branch_objective(
    s_raw: Callable[[float, float, float], float],
    s_many: Callable[[float, float, np.ndarray], np.ndarray],
    beta: float,
    gamma: float,
) -> _Objective:
    """The half-squared distance through one intersection root, as a scalar
    function of theta and as its array form for the scan."""

    def many(ts: np.ndarray) -> np.ndarray:
        # Python floats overflow to inf and turn inf - inf into nan without
        # a word; _lam_many saturates both, so numpy may stay quiet as well
        with np.errstate(over="ignore", invalid="ignore"):
            return _lam_many(ts, s_many(beta, gamma, ts))

    return (lambda t: _lam(t, s_raw(beta, gamma, t))), many


def _plus_objective(beta: float, gamma: float) -> _Objective:
    return _branch_objective(cf._s_plus_raw, cf._s_plus_many, beta, gamma)


def _minus_objective(beta: float, gamma: float) -> _Objective:
    return _branch_objective(cf._s_minus_raw, cf._s_minus_many, beta, gamma)


def _axis_value(v: float) -> float:
    """Half-squared distance from (0, 1) to (0, v) (the theta = 0 case)."""
    d = math.sqrt(v) - 1.0
    val = 2.0 * d * d
    return val if math.isfinite(val) else _HUGE


def _with_axis(v_axis: float, objective: _Objective) -> _Objective:
    """The objective with the theta = 0 node replaced by the axis crossing
    at v = v_axis."""
    fn, fn_many = objective
    axis = _axis_value(v_axis)

    def many(ts: np.ndarray) -> np.ndarray:
        at_axis = ts == 0.0
        if not at_axis.any():
            return fn_many(ts)
        out = np.empty_like(ts)
        out[at_axis] = axis
        out[~at_axis] = fn_many(ts[~at_axis])
        return out

    return (lambda t: axis if t == 0.0 else fn(t)), many


def _clip_below(x: float) -> float:
    """A point strictly below x, one EDGE_CLIP away (scaled down when x is
    itself microscopic)."""
    return x - min(EDGE_CLIP, 0.5 * x)


# ---------------------------------------------------------------------------
# admissible index sets
# ---------------------------------------------------------------------------


def admissible_intervals(beta: float, gamma: float) -> list[AdmissibleInterval]:
    """The set of indices theta whose level curve meets the line, split
    into intervals with branch flags.  Requires beta >= 0 (reflect first)."""
    if not beta >= 0.0:
        raise DomainError("admissible_intervals requires beta >= 0")
    if beta == 0.0 and gamma == 0.0:
        return [AdmissibleInterval(0.0, 0.0, False, True, False)]
    if gamma == 0.0:
        return [AdmissibleInterval(0.0, ls.psi_inv(beta), False, True, False)]
    if gamma > 0.0:
        if beta == 0.0:
            return [AdmissibleInterval(0.0, ls.psi_inv(gamma), True, False, True)]
        if beta == gamma:
            return [
                AdmissibleInterval(
                    ls.eta_inv(beta), ls.psi_inv(beta), False, True, True
                )
            ]
        if gamma > beta:
            lo = ls.eta_alpha_inv(gamma, beta)
            mid = ls.psi_inv(beta)
            return [
                AdmissibleInterval(lo, mid, False, True, True),
                AdmissibleInterval(mid, ls.psi_inv(gamma), True, False, True),
            ]
        # beta > gamma > 0
        lo = ls.eta_alpha_inv(beta, gamma)
        mid = ls.psi_inv(gamma)
        return [
            AdmissibleInterval(lo, mid, True, True, True),
            AdmissibleInterval(mid, ls.psi_inv(beta), False, True, False),
        ]
    # gamma < 0
    return [
        AdmissibleInterval(-ls.psi_inv(-gamma), ls.psi_inv(beta), False, True, False)
    ]


# ---------------------------------------------------------------------------
# the search table and its driver
# ---------------------------------------------------------------------------


def vertical_bracket(beta: float) -> tuple[float, float]:
    """Minimization interval for a vertical line x = beta > 0: the
    parameter-free bounds [beta/11, 2*beta] for beta < pi/2 and [1/7, pi]
    beyond.  It contains the minimizer and lies inside the admissible set
    (0, psi_inv(beta)]."""
    if not beta > 0.0:
        raise DomainError(f"vertical_bracket needs beta > 0, got {beta!r}")
    if beta < 0.5 * math.pi:
        return beta / 11.0, 2.0 * beta
    return 1.0 / 7.0, math.pi


class _Search(NamedTuple):
    """One minimization of the case split: the branch label of its answer,
    the objective (scalar, array), the theta-interval, the ordinate of the
    line point at a searched index, and the sign that maps a searched index
    to the line's own (-1 where the mirrored line is searched)."""

    branch: str
    objective: _Objective
    lo: float
    hi: float
    v_at: Callable[[float], float]
    sign: float = 1.0


def _searches(beta: float, gamma: float) -> list[_Search]:
    """The minimizations that locate the distance to a line with beta >= 0
    (gamma > 0 when beta = 0) that misses the base point, plus branch
    first.  Each row's interval lies inside admissible_intervals for its
    root."""
    half_pi = 0.5 * math.pi

    def plus(lo: float, hi: float) -> _Search:
        return _Search(
            "slanted-plus", _plus_objective(beta, gamma), lo, hi,
            lambda t: _sq(max(cf._s_plus_raw(beta, gamma, t), 0.0)),
        )

    def minus(lo: float, hi: float) -> _Search:
        return _Search(
            "slanted-minus", _minus_objective(beta, gamma), lo, hi,
            lambda t: _sq(max(cf._s_minus_raw(beta, gamma, t), 0.0)),
        )

    if gamma == 0.0:
        # the root-based evaluation of the level-curve distance stays accurate
        # where the closed form loses digits to cancellation (tiny beta)
        return [
            _Search(
                "vertical-kp", _plus_objective(beta, 0.0), *vertical_bracket(beta),
                lambda t: ls.curve_v(t, beta),
            )
        ]
    if gamma > 0.0:
        if beta == 0.0:
            # single minus branch from the corner (0, 0); the cap is min(2*gamma, pi)
            hi = min(2.0 * gamma, math.pi) if gamma < half_pi else math.pi
            hi = min(hi, _clip_below(ls.psi_inv(gamma)))
            return [
                _Search(
                    "slanted-minus", _with_axis(0.0, _minus_objective(0.0, gamma)),
                    0.0, hi,
                    lambda t: 0.0 if t == 0.0 else _sq(cf._s_minus_raw(0.0, gamma, t)),
                )
            ]
        if beta == gamma:
            lo = ls.eta_inv(beta)
            hi = ls.psi_inv(beta)
            if beta < half_pi:
                hi = min(hi, 2.0 * beta)
            return [plus(lo, max(hi, lo))]
        if gamma > beta:
            lo = ls.eta_alpha_inv(gamma, beta)
            if beta > half_pi and gamma > half_pi + 2.0 / (2.0 * beta - math.pi):
                # the minus branch provably cannot win here
                return [plus(lo, max(ls.psi_inv(beta), lo))]
            cap = ls.theta_crit(beta, gamma)
            return [
                plus(lo, max(min(ls.psi_inv(beta), cap), lo)),
                minus(lo, max(min(_clip_below(ls.psi_inv(gamma)), cap), lo)),
            ]
        # beta > gamma > 0: no nearest-point cap is available on this side
        lo = ls.eta_alpha_inv(beta, gamma)
        return [
            plus(lo, max(ls.psi_inv(beta), lo)),
            minus(lo, max(_clip_below(ls.psi_inv(gamma)), lo)),
        ]
    a_g = -gamma
    v_axis = beta / a_g  # crossing of the line with the vertical axis
    if beta > a_g:
        return [
            _Search(
                "left-slanted", _with_axis(v_axis, _plus_objective(beta, gamma)),
                0.0, ls.psi_inv(beta),
                lambda t: v_axis if t == 0.0
                else _sq(max(cf._s_plus_raw(beta, gamma, t), 0.0)),
            )
        ]
    # beta < |gamma|: negative indices; search the mirrored line (-beta, -gamma)
    return [
        _Search(
            "left-slanted", _with_axis(v_axis, _minus_objective(-beta, a_g)),
            0.0, _clip_below(ls.psi_inv(a_g)),
            lambda t: v_axis if t == 0.0 else _sq(cf._s_minus_raw(-beta, a_g, t)),
            -1.0,
        )
    ]


def _solve(beta: float, gamma: float, tol: float) -> DistanceSolution:
    """Run every search of the table; a later one wins only when it is lower
    by more than TIE_RTOL, so near-ties keep the earlier (plus) argmin."""
    best = None
    for search in _searches(beta, gamma):
        fn, fn_many = search.objective
        report, half_sq = minimize_on_interval(
            fn, (search.lo, search.hi), tol=tol, fn_many=fn_many
        )
        if best is None or half_sq < best[2] - TIE_RTOL * max(1.0, best[2]):
            best = search, report, half_sq
    search, report, half_sq = best
    v = search.v_at(report.value)
    return DistanceSolution(
        value=math.sqrt(2.0 * half_sq),
        half_squared=half_sq,
        # a vertical line's abscissa is beta even where v overflows
        argmin=ManifoldPoint(beta + gamma * v if gamma else beta, v),
        theta_at_argmin=search.sign * report.value,
        branch=search.branch,
        report=report,
    )


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def dist_to_line(beta: float, gamma: float, tol: float = 1e-9) -> DistanceSolution:
    """Distance from (0, 1) to the line x = beta + gamma*v, any real
    parameters."""
    if not (math.isfinite(beta) and math.isfinite(gamma)):
        raise DomainError("line parameters must be finite")
    if beta + gamma == 0.0:
        return DistanceSolution.closed_form(
            0.0, ManifoldPoint(0.0, 1.0), 0.0, "on-line"
        )
    # Near-membership fast path: when the line passes within 1e-12 of the
    # base point (in the local metric, which is Euclidean at (0, 1)), the
    # perpendicular-foot answer is exact to O(d^2) ~ 1e-24 and the interval
    # machinery below has nothing left to resolve.
    gauge = math.hypot(1.0, gamma)
    d_local = abs(beta + gamma) / gauge
    if d_local < 1e-12:
        if abs(gamma) > 1e150:  # avoid overflow in the foot formula
            v_star = -beta / gamma
        else:
            v_star = (1.0 - gamma * beta) / (1.0 + gamma * gamma)
        x_star = beta + gamma * v_star
        if not (math.isfinite(x_star) and math.isfinite(v_star)):
            x_star, v_star = 0.0, 1.0
        return DistanceSolution.closed_form(
            d_local, ManifoldPoint(x_star, v_star), delta_of(x_star, v_star), "on-line"
        )
    # parameters beneath ~1e-300 displace the line by less than one ulp of
    # any answer digit; flush them so intermediate indices stay off the
    # subnormal floor
    if 0.0 < abs(gamma) < 1e-300:
        gamma = 0.0
    if 0.0 < abs(beta) < 1e-300:
        beta = 0.0
    if beta < 0.0 or (beta == 0.0 and gamma < 0.0):
        sol = dist_to_line(-beta, -gamma, tol=tol)
        return replace(
            sol,
            argmin=ManifoldPoint(-sol.argmin.x, sol.argmin.v),
            theta_at_argmin=-sol.theta_at_argmin,
        )
    return _solve(beta, gamma, tol)


def dist_to_tangent_line(theta: float) -> DistanceSolution:
    """Distance from (0, 1) to the tangent line of the level curve theta at
    its nearest point: exactly theta, for the line
    (beta, gamma) = (theta/2, tan(theta/2)), 0 < theta < pi."""
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta!r}")
    return DistanceSolution.closed_form(
        theta, ls.critical_point(theta), theta, "tangent-exact"
    )


def tangent_line_params(theta: float) -> LineParams:
    """(beta, gamma) of the tangent line of the level curve theta at its
    nearest point."""
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta!r}")
    return LineParams(0.5 * theta, math.tan(0.5 * theta))


def dist_to_line_correlated(
    frame: CorrelationFrame,
    p0: tuple[float, float],
    beta: float,
    gamma: float,
    tol: float = 1e-9,
) -> float:
    """Distance from an arbitrary point p0 (with v0 > 0) to the line under
    the correlated-model metric, by reduction to the uncorrelated base
    problem."""
    x0, v0 = p0
    if not v0 > 0.0:
        raise DomainError("the source point must have v0 > 0")
    root = math.sqrt(1.0 - frame.rho**2)
    xi_ = (frame.c * beta - frame.c * x0 + frame.rho * v0) / (v0 * root)
    eta_ = (frame.c * gamma - frame.rho) / root
    return math.sqrt(v0) / frame.c * dist_to_line(xi_, eta_, tol=tol).value


# ---------------------------------------------------------------------------
# brute-force references
# ---------------------------------------------------------------------------


def _grid_scan(
    point_dist: Callable[[np.ndarray], np.ndarray],
    lower_bound_at: Callable[[float], float],
    cells: int,
    v_max: float,
    doublings: int,
) -> tuple[float, float, float]:
    """Scan v in [0, v_max] (growing v_max until the certified lower bound
    at the far end dominates the incumbent); returns (v_best, d_best, step)."""
    for _ in range(doublings + 1):
        vs = np.linspace(0.0, v_max, cells + 1)
        ds = point_dist(vs)
        i = int(np.argmin(ds))
        if lower_bound_at(v_max) > ds[i]:
            return float(vs[i]), float(ds[i]), v_max / cells
        v_max *= 2.0
    return float(vs[i]), float(ds[i]), v_max / (2.0 * cells)


def oracle_dist(
    beta: float,
    gamma: float,
    cells: int = 4096,
    v_max: float = 16.0,
    doublings: int = 20,
    tol: float = 1e-9,
) -> DistanceSolution:
    """Formula-free reference distance to the line: dense v-grid of point
    distances, horizon grown until the two-sided lower bound rules out
    anything beyond it, then golden refinement around the best node."""

    def point_dist(vs: np.ndarray) -> np.ndarray:
        return _dist_base_grid(beta + gamma * vs, vs)

    def lower_bound_at(v: float) -> float:
        return cf.t_bound((0.0, 1.0), (beta + gamma * v, v))

    v_best, d_best, step = _grid_scan(point_dist, lower_bound_at, cells, v_max, doublings)
    lo = max(0.0, v_best - step)
    hi = v_best + step
    report, value = minimize_on_interval(
        lambda v: dist((0.0, 1.0), (beta + gamma * v, v)), (lo, hi), tol=tol,
        scan_cells=32,
    )
    if d_best < value:
        report = SolveReport(v_best, report.iterations, report.residual, "grid-refine")
        value = d_best
    v_star = report.value
    return DistanceSolution(
        value=value,
        half_squared=0.5 * value * value,
        argmin=ManifoldPoint(beta + gamma * v_star, v_star),
        theta_at_argmin=delta_of(beta + gamma * v_star, v_star),
        branch="oracle",
        report=report,
    )


def oracle_dist_correlated(
    frame: CorrelationFrame,
    p0: tuple[float, float],
    beta: float,
    gamma: float,
    cells: int = 4096,
    v_max: float = 16.0,
    doublings: int = 20,
    tol: float = 1e-9,
) -> float:
    """Brute-force distance from p0 to the line under the correlated
    metric: grid-and-refine over v of the correlated point distance."""
    x0, v0 = p0
    if not v0 > 0.0:
        raise DomainError("the source point must have v0 > 0")
    root = math.sqrt(1.0 - frame.rho**2)
    sx0 = (frame.c * x0 - frame.rho * v0) / root

    def point_dist(vs: np.ndarray) -> np.ndarray:
        xs = beta + gamma * vs
        sxs = (frame.c * xs - frame.rho * vs) / root
        # base-point reduction of the sheared pair, vectorized
        return (
            math.sqrt(v0) / frame.c * _dist_base_grid((sxs - sx0) / v0, vs / v0)
        )

    def lower_bound_at(v: float) -> float:
        x = beta + gamma * v
        sx = (frame.c * x - frame.rho * v) / root
        return cf.t_bound((sx0, v0), (sx, v)) / frame.c

    from .pointmetric import dist_correlated

    v_best, d_best, step = _grid_scan(point_dist, lower_bound_at, cells, v_max, doublings)
    lo = max(0.0, v_best - step)
    hi = v_best + step
    _, value = minimize_on_interval(
        lambda v: dist_correlated(frame, p0, (beta + gamma * v, v)),
        (lo, hi),
        tol=tol,
        scan_cells=32,
    )
    return min(value, d_best)
