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
branch label, the objective's parameters (the line, which intersection
root, the axis crossing where the interval starts at theta = 0), the
interval and the sign of the line's own index.  A later row must beat the
incumbent by more than TIE_RTOL (_answer).

_row_fn is a row's objective, one closure frame that gives the
half-squared distance and its derivative at an index, with a one-sided
slope in closed form at the row's ends.

_solve_many, behind both dist_to_line (a batch of one line) and
smile_table (a ladder), builds the tables of its lines, solving each
distinct psi_inv argument once, and minimizes every row the same way
(solvers._minimize_rows): a scan of 9 nodes on _row_fn, each of which
gives its value and its slope, then a root solve of the derivative where
it changes sign next to the best node, otherwise that node.  An error
fails only its own line, and so does a distance beyond double range.
It returns, for each searched line, a _Found
record: the winning row, its report, the half-squared distance and the
distance.  Only dist_to_line assembles a DistanceSolution from it
(_solution: the argmin on the row's root, the signed arc index, both
reflected where the mirror image was searched); smile_table reads the
distance alone.  The intersection roots themselves live in corefuncs
(_s_plus_raw and _s_minus_raw).

Every closed-form path is validated against oracle_dist, a deliberately
slow reference that minimizes the scalar point distance along the line
over a dense v-grid with local refinement.  It finds each grid's first
minimum by branch and bound (_oracle): the paper's horizontal-line
distance, a bound from the sheared abscissas and the triangle inequality
along the line rule out all but a few nodes.  The search keeps the nodes
it may still evaluate as a live set, and works on that set alone.  The
best node is refined at the root of the distance's slope along the line
(pointmetric._line_dist_fn).

numpy is imported only by the oracle's functions that build or reduce
arrays (_lower_bounds, _branch_and_bound and its grid), so that
dist_to_line and smile_table never load it.  The package's __init__
still imports this module eagerly: the benchmark's tracer looks it up in
sys.modules to wrap its functions.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from . import corefuncs as cf
from . import levelsets as ls
from .corefuncs import LineParams
from .errors import ConvergenceError, DomainError, HestonDistError
from .pointmetric import (
    CorrelationFrame,
    ManifoldPoint,
    _line_dist_fn,
    delta_of,
    dist_correlated,
)
from .solution import DistanceSolution
from .solvers import SolveReport, _minimize_rows, _refine_root

if TYPE_CHECKING:
    import numpy as np

# Half-open interval ends (where lambda_minus blows up) are closed at this
# offset; the objective diverges there, so no minimum is lost.
EDGE_CLIP = 1e-9

# When the plus- and minus-branch minima agree within this relative
# tolerance the plus argmin (smaller v) is reported, for determinism.
TIE_RTOL = 1e-12


class AdmissibleInterval(NamedTuple):
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


def _axis_value(v: float) -> float:
    """Half-squared distance from (0, 1) to (0, v) (the theta = 0 case)."""
    d = math.sqrt(v) - 1.0
    val = 2.0 * d * d
    return val if math.isfinite(val) else _HUGE


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
    the line whose intersection root it follows and which root (minus: the
    larger-v one), the theta-interval, the ordinate of the line's crossing
    with the vertical axis where the interval starts at that crossing
    (theta = 0), and the sign that maps a searched index to the line's own
    (-1 where the mirrored line is searched)."""

    branch: str
    beta: float
    gamma: float
    minus: bool
    lo: float
    hi: float
    axis: float | None = None
    sign: float = 1.0


def _row_fn(row: _Search) -> Callable[[float], tuple[float, float]]:
    """t -> (lambda, d(lambda)/dt) for one row, in one closure frame:
    lambda is cf._half_sq_from_root of the row's root (cf._s_plus_raw or
    cf._s_minus_raw), clamped: a negative root counts as 0, a non-finite
    one as _ROOT_HUGE, and a value beyond the double range saturates at
    _HUGE, which keeps the scan sound.  At t = 0 it is the axis value where
    the row has one; elsewhere outside (0, 2*pi) the closure raises the
    DomainError of cf._coefs.  The slope is the chain rule through A and B
    (below SMALL_ANGLE their series; above it P' = 2 sin(t/2)^2 for
    P = t - sin(t) and U' = (t/2) sin(t/2) for U = 2 sin(t/2) - t cos(t/2)),
    through the root of F(s) = q s^2 - 2 a s + p implicitly, ds/dt =
    -F_t/F_s with F_s = +-2 sqrt(disc) on the plus and the minus root, and
    through lambda = N t^2/(2 sin(t/2)^2), N = (s - 1)^2 + 4 s sin(t/4)^2,
    whose terms also give the value.  Where the discriminant is clamped
    (the tangency end) the slope is +-inf with the sign of the one-sided
    limit.  At the row's ends it is the one-sided limit in closed form: at
    the axis node 2(1 - 1/r)(v_a + r + 1)/(3 gamma), v_a the axis crossing
    and r = sqrt(v_a), and -inf where v_a = 0; where a negative root is
    clamped (psi_inv(beta) on a plus root) the root's slope at s = 0; at
    the minus pole, where the root and lambda diverge, +inf.  It is nan
    where t*p3 underflows and where the root is not finite, where the
    value takes the raw root."""
    beta, gamma, minus = row.beta, row.gamma, row.minus
    raw = cf._s_minus_raw if minus else cf._s_plus_raw
    nan, inf, sin, isfinite = math.nan, math.inf, math.sin, math.isfinite
    axis = axis_slope = None
    if row.axis is not None:
        # the slope's limit 4(r - 1) s'(0), s'(0) = (v_a + r + 1)/(6 gamma r),
        # is negative on every row with an axis node
        v_a = row.axis
        r, axis = math.sqrt(v_a), _axis_value(v_a)
        axis_slope = 2.0 * (1.0 - 1.0 / r) * (v_a + r + 1.0) / (3.0 * gamma) if r else -inf

    def clamped(t: float) -> float:
        s = raw(beta, gamma, t)
        if s < 0.0:
            s = 0.0
        elif not isfinite(s):
            s = _ROOT_HUGE
        val = cf._half_sq_from_root(t, s)
        return val if isfinite(val) else _HUGE

    def fn(t: float) -> tuple[float, float]:
        if not 0.0 < t < cf.TWO_PI:
            if t == 0.0 and axis is not None:
                return axis, axis_slope
            return clamped(t), nan  # raises the DomainError of cf._coefs
        sh = sin(0.5 * t)
        if t < cf.SMALL_ANGLE:
            t2 = t * t
            p3, u3 = cf._p_r3(t2), cf._u_r3(t2)
            # sin(t/2)/t by its series, which stays 1/2 where sin(t/2)
            # underflows
            ratio = cf._sin_half_r(t2)
            if t * p3 == 0.0:
                return clamped(t), nan  # where B is inf
            dp3 = t * (-1.0 / 60.0 + t2 / 1260.0)
            du3 = t * (-1.0 / 240.0 + t2 / 13440.0)
            dsr = t * (-1.0 / 24.0 + t2 / 960.0)
            a = -u3 / p3
            # B's arithmetic exactly: near the tangency end the discriminant
            # is a difference of nearly equal terms, and one ulp of B moves it
            b = 2.0 * ratio * ratio / (t * p3)
            da = (-du3 - a * dp3) / p3
            db = b * (2.0 * dsr / ratio - 1.0 / t - dp3 / p3)
            u_ts = t * u3 / ratio  # U/(t sin(t/2))
            half = sh / t  # the value's sin(t/2)/t, as _half_sq_from_root's
        else:
            ratio = half = sh / t
            ch = math.cos(0.5 * t)
            p = t - sin(t)
            u = 2.0 * sh - t * ch
            a = -u / p
            b = 2.0 * sh * sh / p
            dp = 2.0 * sh * sh
            da = (-0.5 * t * sh - a * dp) / p
            db = (2.0 * sh * ch - b * dp) / p
            u_ts = u / (t * sh)
        q = 1.0 - gamma * b
        p = 1.0 - beta * b
        disc = a * a - q * p
        root = math.sqrt(disc) if disc > 0.0 else 0.0
        if not minus:
            s, sign = p / (a - root), 1.0
        elif q == 0.0:
            # the larger root diverges at the tangent index psi_inv(gamma),
            # above every minus row: lambda rises without bound into it
            return clamped(t), inf
        else:
            s, sign = (a - root) / q, -1.0
        if s < 0.0:
            # a plus root past psi_inv(beta) by rounding, at the row's end:
            # the root counts as 0, and the slope is that of the side s > 0
            s = 0.0
        elif not s < inf:
            return clamped(t), nan
        q4 = sin(0.25 * t)
        n = (s - 1.0) * (s - 1.0) + 4.0 * s * q4 * q4
        val = n / (2.0 * half * half)
        if not isfinite(val):
            val = _HUGE
        f_t = -gamma * db * s * s - 2.0 * da * s - beta * db
        s_c = (s - 1.0) + 2.0 * q4 * q4  # s - cos(t/2)
        if root == 0.0:
            if disc != disc:
                val = clamped(t)  # the raw root is nan there
            # lambda' ~ (t/sin(t/2))^2 * ds/dt * (s - cos(t/2)), and ds/dt
            # has the sign of -F_t/F_s as sqrt(disc) falls to +0
            if f_t == 0.0 or s_c == 0.0 or f_t != f_t:
                return val, nan
            return val, math.copysign(inf, f_t) * -sign * math.copysign(1.0, s_c)
        ds = -f_t / (sign * 2.0 * root)
        return val, (2.0 * ds * s_c + s * sh + n * u_ts) / (2.0 * ratio * ratio)

    return fn


def _v_at(row: _Search, t: float) -> float:
    """Ordinate of the line point that a row's searched index t locates."""
    if row.branch == "vertical-kp":
        return ls.curve_v(t, row.beta)
    if t == 0.0 and row.axis is not None:
        return row.axis
    root = cf._s_minus_raw if row.minus else cf._s_plus_raw
    return _sq(max(root(row.beta, row.gamma, t), 0.0))


def _searches(
    beta: float, gamma: float, memo: dict[float, float]
) -> list[_Search]:
    """The minimizations that locate the distance to a line with beta >= 0
    (gamma > 0 when beta = 0) that misses the base point, plus branch
    first.  Each row's interval lies inside admissible_intervals for its
    root.  memo holds psi_inv by argument, so that the lines of one batch
    and the ceiling of eta_alpha_inv solve each argument once."""
    half_pi = 0.5 * math.pi

    def psi_inv(y: float) -> float:
        if y not in memo:
            memo[y] = ls.psi_inv(y)
        return memo[y]

    def eta_alpha_inv(alpha: float, y: float) -> float:
        return ls.eta_alpha_inv(alpha, y, ceiling=psi_inv(alpha))

    def plus(lo: float, hi: float) -> _Search:
        return _Search("slanted-plus", beta, gamma, False, lo, hi)

    def minus(lo: float, hi: float) -> _Search:
        return _Search("slanted-minus", beta, gamma, True, lo, hi)

    if gamma == 0.0:
        # the root-based evaluation of the level-curve distance stays accurate
        # where the closed form loses digits to cancellation (tiny beta)
        return [_Search("vertical-kp", beta, 0.0, False, *vertical_bracket(beta))]
    if gamma > 0.0:
        if beta == 0.0:
            # single minus branch from the corner (0, 0); the cap is min(2*gamma, pi)
            hi = min(2.0 * gamma, math.pi) if gamma < half_pi else math.pi
            hi = min(hi, _clip_below(psi_inv(gamma)))
            return [_Search("slanted-minus", 0.0, gamma, True, 0.0, hi, axis=0.0)]
        if beta == gamma:
            lo = ls.eta_inv(beta)
            hi = psi_inv(beta)
            if beta < half_pi:
                hi = min(hi, 2.0 * beta)
            return [plus(lo, max(hi, lo))]
        if gamma > beta:
            lo = eta_alpha_inv(gamma, beta)
            if beta > half_pi and gamma > half_pi + 2.0 / (2.0 * beta - math.pi):
                # the minus branch provably cannot win here
                return [plus(lo, max(psi_inv(beta), lo))]
            # theta_crit is psi_inv(beta) beyond pi/2: take it from the memo
            cap = psi_inv(beta) if beta > half_pi else ls.theta_crit(beta, gamma)
            return [
                plus(lo, max(min(psi_inv(beta), cap), lo)),
                minus(lo, max(min(_clip_below(psi_inv(gamma)), cap), lo)),
            ]
        # beta > gamma > 0: no nearest-point cap is available on this side
        lo = eta_alpha_inv(beta, gamma)
        return [
            plus(lo, max(psi_inv(beta), lo)),
            minus(lo, max(_clip_below(psi_inv(gamma)), lo)),
        ]
    a_g = -gamma
    v_axis = beta / a_g  # crossing of the line with the vertical axis
    if beta > a_g:
        return [
            _Search("left-slanted", beta, gamma, False, 0.0, psi_inv(beta), v_axis)
        ]
    # beta < |gamma|: negative indices; search the mirrored line (-beta, -gamma)
    return [
        _Search(
            "left-slanted", -beta, a_g, True, 0.0, _clip_below(psi_inv(a_g)),
            v_axis, -1.0,
        )
    ]


class _Found(NamedTuple):
    """A searched line's answer as _solve_many finds it: the line searched
    (_prelude's flushed and mirrored parameters) and whether it is the
    given line's mirror image, then the winning row, its minimization
    report, the half-squared distance and the distance."""

    beta: float
    gamma: float
    mirrored: bool
    row: _Search
    report: SolveReport
    half_squared: float
    value: float


def _answer(
    line: tuple[float, float],
    beta: float,
    gamma: float,
    mirrored: bool,
    rows: list[_Search],
    results: Iterable[tuple[SolveReport, float] | HestonDistError],
) -> _Found:
    """The record of the searched line (beta, gamma), the mirror image of
    the given line where mirrored, from every row's minimization, in row
    order: the first error is raised, and a later row wins only when it is
    lower by more than TIE_RTOL, so near-ties keep the earlier (plus)
    argmin.  Where the distance overflows (the winning half-squared
    distance saturated at _HUGE, or lies above half of it) a
    ConvergenceError names the given line."""
    best = None
    for row, result in zip(rows, results):
        if isinstance(result, HestonDistError):
            raise result
        report, half_sq = result
        if best is None or half_sq < best[2] - TIE_RTOL * max(1.0, best[2]):
            best = row, report, half_sq
    row, report, half_sq = best
    value = math.sqrt(2.0 * half_sq)
    if value == math.inf:
        raise ConvergenceError(
            f"the distance to the line {line!r} overflows the double range"
        )
    return _Found(beta, gamma, mirrored, row, report, half_sq, value)


def _solve_many(
    lines: list[tuple[float, float]],
) -> list[DistanceSolution | _Found | HestonDistError]:
    """The answer for every line, or the error that line raises; an error
    fails only its own line.  A line through or next to the base point is
    answered in closed form by _prelude, a DistanceSolution; every other
    line's answer is its _Found record, which holds the distance as
    .value, and which _solution turns into dist_to_line's
    DistanceSolution.

    The search tables of all lines are built first, sharing psi_inv by
    argument; solvers._minimize_rows then scans and refines each row on
    its objective and derivative (_row_fn)."""
    memo: dict[float, float] = {}
    rows: list[_Search] = []
    pending: list = []
    for beta, gamma in lines:
        try:
            line = _prelude(beta, gamma)
            if not isinstance(line, DistanceSolution):
                start = len(rows)
                rows += _searches(line[0], line[1], memo)
                line = (line, start, len(rows))
        except HestonDistError as exc:
            line = exc
        pending.append(line)
    results = _minimize_rows(
        [_row_fn(r) for r in rows], [r.lo for r in rows], [r.hi for r in rows]
    )
    out: list[DistanceSolution | _Found | HestonDistError] = []
    for given, line in zip(lines, pending):
        if not isinstance(line, (DistanceSolution, HestonDistError)):
            searched, start, end = line
            try:
                line = _answer(given, *searched, rows[start:end], results[start:end])
            except HestonDistError as exc:
                line = exc
        out.append(line)
    return out


def _solution(
    found: DistanceSolution | _Found | HestonDistError,
) -> DistanceSolution:
    """dist_to_line's answer from _solve_many's entry for its line: the
    line's error is raised, a closed-form answer returned as it is, and a
    searched line's solution assembled from its winning row, with the
    argmin on the row's root (_v_at) and the row's signed arc index, both
    reflected across x = 0 where the mirror image was searched."""
    if isinstance(found, HestonDistError):
        raise found
    if isinstance(found, DistanceSolution):
        return found
    beta, gamma, mirrored, row, report, half_sq, value = found
    v = _v_at(row, report.value)
    # a vertical line's abscissa is beta even where v overflows
    x = beta + gamma * v if gamma else beta
    theta = row.sign * report.value
    if mirrored:
        x, theta = -x, -theta
    return DistanceSolution(
        value=value,
        half_squared=half_sq,
        argmin=ManifoldPoint(x, v),
        theta_at_argmin=theta,
        branch=row.branch,
        report=report,
    )


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _prelude(
    beta: float, gamma: float
) -> DistanceSolution | tuple[float, float, bool]:
    """The answer where the line passes through or next to the base point,
    else the line to search, with parameters beneath ~1e-300 flushed to
    zero: (beta, gamma, False) when beta > 0 or (beta = 0 and gamma >= 0),
    else its mirror image (-beta, -gamma, True) across x = 0."""
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
        return -beta, -gamma, True
    return beta, gamma, False


def dist_to_line(beta: float, gamma: float) -> DistanceSolution:
    """Distance from (0, 1) to the line x = beta + gamma*v, any real
    parameters."""
    (found,) = _solve_many([(beta, gamma)])
    return _solution(found)


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
) -> float:
    """Distance from an arbitrary point p0 (with v0 > 0) to the line under
    the correlated-model metric, by reduction to the uncorrelated base
    problem.  DomainError where the reduction's scale sqrt(v0)/c
    overflows (c below about 1e-308 for v0 = 1)."""
    xi, eta, scale = frame._reduce_line(p0, beta, gamma)
    if scale == math.inf:
        raise DomainError(
            f"the scale sqrt(v0)/c overflows for c={frame.c!r}, v0={p0[1]!r}"
        )
    return scale * dist_to_line(xi, eta).value


# ---------------------------------------------------------------------------
# brute-force references
# ---------------------------------------------------------------------------

# The oracle's grids: _ORACLE_CELLS + 1 nodes of v, first in [0, _ORACLE_HORIZON].
_ORACLE_CELLS = 4096
_ORACLE_HORIZON = 16.0


def _line_slope(frame: CorrelationFrame, gamma: float) -> float:
    """The metric length of the line x = beta + gamma*v per unit of sqrt(v)
    under the frame's metric: the sheared line has slope eta in dx/dv, and
    ds = hypot(1, eta) dv/(c*sqrt(v)) = (2/c) hypot(1, eta) d(sqrt(v)).  It
    bounds how fast the distance from any point can change along the
    line (the triangle inequality)."""
    return (2.0 / frame.c) * math.hypot(1.0, frame.shear(gamma, 1.0)[0])


def _lower_bounds(
    frame: CorrelationFrame, p0: tuple[float, float], xs: np.ndarray,
    vs: np.ndarray, roots: np.ndarray | None = None,
) -> np.ndarray:
    """Lower bounds on the distance from p0 to the points (xs, vs), in
    the base metric ds^2 = (dx^2 + dv^2)/v of the sheared points, over c.
    A path between ordinates v0 and v crosses every horizontal line
    between them: d >= (2/c)|sqrt(v) - sqrt(v0)|, the paper's
    horizontal-line distance.  A path across the sheared separation a
    that rises to sqrt(v) = M spends at least a/M on |dx|/sqrt(v) and
    4M - 2 sqrt(v0) - 2 sqrt(v) on |dv|/sqrt(v); as ds >= (|dx| +
    |dv|)/sqrt(2v) and a/M + 4M >= 4 sqrt(a), also d >= (sqrt(2)/c) *
    (2 sqrt(a) - sqrt(v0) - sqrt(v)), within a factor 1.26 of d far
    from p0, where the first bound is not.  roots is sqrt(vs), when the
    caller has it."""
    import numpy as np

    x0, v0 = p0
    s0 = math.sqrt(v0)
    if roots is None:
        roots = np.sqrt(vs)
    horizontal = (2.0 / frame.c) * np.abs(roots - s0)
    a = np.abs(frame.shear(xs, vs)[0] - frame.shear(x0, v0)[0])
    far = (math.sqrt(2.0) / frame.c) * (2.0 * np.sqrt(a) - roots - s0)
    # an overflowed abscissa bounds nothing; its node's distance raises
    return np.fmax(horizontal, np.nan_to_num(far, posinf=0.0))


def _branch_and_bound(
    along: Callable[[float], float], vs: np.ndarray, bound: np.ndarray,
    slope: float, roots: np.ndarray,
) -> np.ndarray:
    """The values of the nodes vs (roots = sqrt(vs)) for the refine: the
    distance along(v) at every node the search evaluated, and its lower
    bound, which this raises in place, at every other.

    Each step evaluates the live node with the least bound and raises the
    bound of every live node to its cone d_k - slope*|sqrt(v) - sqrt(v_k)|
    (the triangle inequality along the line, Shubert's Lipschitz search);
    the search stops once the least live bound exceeds the level
    best*(1 + 1e-9), the best distance with a margin for rounding.  Each
    time the level falls, the live nodes whose bound lies above it are
    dropped: bounds only rise and the level only falls, so a dropped node
    would never be evaluated, and it never ties the least bound.  Every
    unevaluated node is returned above the final level, so the minimum and
    its node are those of the full grid of distances; a node dropped early
    carries only the cones of the steps before its drop."""
    import numpy as np

    live = np.arange(vs.size)  # the indices of the live nodes,
    lb, lr = bound, roots  # their bounds and their sqrt(v)
    ds = np.empty_like(vs)
    done = np.zeros(vs.size, dtype=bool)
    best = level = math.inf
    for _ in range(vs.size):
        if not live.size:
            break
        j = int(lb.argmin())
        if lb[j] > level:
            break
        k = int(live[j])
        d = ds[k] = along(float(vs[k]))
        done[k], lb[j] = True, math.inf
        # a nan or infinite distance bounds nothing
        if math.isfinite(d):
            np.fmax(lb, d - slope * np.abs(lr - lr[j]), out=lb)
        if d < best:
            best, level = d, d * (1.0 + 1e-9)
            bound[live] = lb
            keep = lb <= level
            live, lb, lr = live[keep], lb[keep], lr[keep]
    bound[live] = lb
    return np.where(done, ds, bound)


def _oracle(
    frame: CorrelationFrame, p0: tuple[float, float], beta: float, gamma: float
) -> tuple[SolveReport, float]:
    """Formula-free distance from p0 (v0 > 0) to the line x = beta + gamma*v
    under the frame's metric, and the report whose value is the v of the
    argmin: the first minimum of the point distance over a v-grid, then
    the root of its slope along the line in the cell pair around it
    (solvers._refine_root on pointmetric._line_dist_fn's distance and slope).
    Every point is sheared on its own; the line reduction of
    dist_to_line_correlated, which this referees, is not used.

    Each grid's first minimum is found by _branch_and_bound from the node
    bounds of _lower_bounds and cones of slope _line_slope(frame, gamma).
    Every value the search and the refine compare is dist_correlated's:
    _line_dist_fn forms it by the same _reduce and _dist_base calls, and
    its slope only places the refine's points; an infinite end slope (at
    v = 0) brackets the root by its sign.  A cell pair whose end slopes do
    not change sign, or where one is nan, keeps the best node.

    The best node d1 of the grid on [0, _ORACLE_HORIZON] certifies the
    horizon H* = (sqrt(v0) + c*d1/2)^2 by the horizontal bound: the argmin
    lies in [0, H*], which is searched again when it reaches beyond the
    first grid.  A non-finite H* raises ConvergenceError, and a non-finite
    beta, gamma, x0 or v0 raises DomainError."""
    x0, v0 = p0
    if not all(map(math.isfinite, (beta, gamma, x0, v0))):
        raise DomainError("line parameters must be finite")
    if not v0 > 0.0:
        raise DomainError("the source point must have v0 > 0")
    slope = _line_slope(frame, gamma)

    def along(v: float) -> float:
        return dist_correlated(frame, p0, (beta + gamma * v, v))

    def grid(horizon: float) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        vs = np.linspace(0.0, horizon, _ORACLE_CELLS + 1)
        roots = np.sqrt(vs)
        bound = _lower_bounds(frame, p0, beta + gamma * vs, vs, roots)
        return vs, _branch_and_bound(along, vs, bound, slope, roots)

    vs, ds = grid(_ORACLE_HORIZON)
    root = math.sqrt(v0) + 0.5 * frame.c * float(ds.min())
    horizon = root * root * (1.0 + 1e-9)  # a margin for the rounding of d1
    if not math.isfinite(horizon):
        raise ConvergenceError(
            f"oracle horizon is not finite for the line ({beta!r}, {gamma!r})"
        )
    if horizon > _ORACLE_HORIZON:
        vs, ds = grid(horizon)
    return _refine_root(_line_dist_fn(frame, p0, beta, gamma), vs, ds)


def oracle_dist(beta: float, gamma: float) -> DistanceSolution:
    """Formula-free reference distance from (0, 1) to the line: the best
    node of a certified v-grid, refined at the root of the distance's
    slope along the line (report.method "derivative-root"; "endpoint" or
    "scan-node", the best node, where that root is not bracketed).
    Raises ConvergenceError where the certified grid horizon is not
    finite."""
    report, value = _oracle(CorrelationFrame(1.0, 0.0), (0.0, 1.0), beta, gamma)
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
) -> float:
    """Brute-force distance from p0 to the line under the correlated
    metric; raises ConvergenceError where the certified grid horizon is not
    finite."""
    return _oracle(frame, p0, beta, gamma)[1]
