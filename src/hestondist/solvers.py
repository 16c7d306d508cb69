"""Bracketed scalar root finding and one-dimensional minimization.

Every "solve the equation" and "minimize over the interval" step in the
distance formulas funnels through these two routines.  The minimizer never
assumes unimodality: a coarse uniform scan localizes the best cell before
golden-section refinement, which keeps it robust on objectives whose
interior critical-point structure is only known empirically.  Every
interval is scanned and refined, however narrow: a near-diagonal line's
tangency window can be 6e-13 wide at theta ~ 2e-4 and still hold a
minimum well below its lower end's value.  A zero-width interval scans
257 copies of lo, and the refine returns lo with 0 iterations.
Every index map (the arc index; psi, eta and eta_alpha) has a slope at
hand, and ``newton_to_two_pi`` inverts it below its ceiling by Newton
steps inside a bracket that every value tightens, to ``arc_index_tol``
of a certified lower bound (small indices need a relative stop).

Every other root solve is a pure-Python port of SciPy's ``brentq.c``: it
visits the same iterates and reports the same iteration count as
``scipy.optimize.brentq``, but evaluates the function once per iteration
(n + 1 calls for n iterations, endpoints included), never re-evaluating the
endpoints or the root.  The package has no SciPy dependency.  The
library's Brent solves run ``_solve``, ``solve_monotone`` without its
report, on the caller's one-frame objective; ``_brent`` subtracts the target.

``minimize_on_interval`` scans by calling ``fn`` on each node, then
refines by golden section (``_refine``).

``_refine_root`` refines at the root of the objective's derivative, on
one closure of (objective, slope).  It serves the line rows of
``_minimize_rows`` (below) and the oracle, which hands it a grid from its
branch and bound and the distance along the line: the scalar distance at
the nodes it evaluated and, at the others, a lower bound above the grid's
minimum, so that the refine settles on the same cell as on the full grid.

``_minimize_rows`` runs many minimizations with the scan and the errors of
``minimize_on_interval``.  It scans the rows as 2-D blocks of
``SCAN_BLOCK_ROWS`` rows (16 rows of 257 nodes, about 4096 nodes), one
array call per block, which bounds its memory.  One ``argmin`` and one
finiteness check pick every row's best node in a block; a block that
holds a non-finite value picks row by row (``_best_cell``), so each row
raises its own first non-finite node.  It then refines each row on its
own closure from that cell, as ``_refine_root`` does: an end node whose
derivative points out of the interval is the answer ("endpoint"); where
the derivative changes sign across the cell pair around the best node,
Brent's root solve of the derivative finds the minimizer in a few steps
("derivative-root"); any other row takes the golden refine and returns
exactly what ``minimize_on_interval`` returns ("grid-refine").  Errors
stay per row.
The line solver minimizes every line's rows through it.

numpy is imported by the functions that build or reduce arrays
(``minimize_on_interval``, ``_best_cell``, ``_scan_nodes``,
``_minimize_rows`` and ``_scan_rows``), not by this module, and the first
scan builds ``_SCAN_STEPS``: the scalar solves behind the point,
level-set and horizontal-line distances never load it.  The package's
``__init__`` still imports every submodule eagerly, because the
benchmark's tracer looks the modules it wraps up in ``sys.modules``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    HestonDistError,
    NonFiniteSampleError,
)

if TYPE_CHECKING:
    import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

ROOT_TOL = 1e-12
INDEX_TOL = 1e-13  # absolute tolerance of the index-map inversions
# Smallest stop width of the arc-index solve: about 20 subnormal ulps.  On
# a subnormal lower bound INDEX_TOL*lo rounds to 0, and so does 4 ulp of a
# subnormal root: a solve with no width could never stop.
_TOL_FLOOR = 1e-322
_RTOL = 4.0 * math.ulp(1.0)  # brentq's smallest admissible rtol
MIN_TOL = 1e-9
SCAN_CELLS = 256
# The derivative-root refine stops at this fraction of the golden stop
# width.  Near the tangency end of small, nearly diagonal lines the line
# objective is so sharply curved that golden's own width is too coarse:
# on the line (1.494e-4, 1.218e-4) the derivative runs from -11 to +12 (in
# units of lambda/theta) across 6e-13 in theta, and a root solved to the
# golden width came out 9.8e-10 above golden's minimum (a real gap: mpmath
# agrees).  The factor costs about 0.5 more derivative evaluations per
# line.
_ROOT_XTOL_SCALE = 1e-3
# Brent's finite stand-in for an infinite end slope of the refine's cell
_SLOPE_CAP = 1e300
_GROW_STEPS = 200


class Bracket(NamedTuple):
    lo: float
    hi: float


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a scalar solve: the located argument, the iteration count,
    the residual achieved and which method produced it.

    ``method`` is "bisection-hybrid" for a root solve and "closed-form" for
    an exact formula.  A minimization reports the refine that settled it:
    "derivative-root" (Brent on the objective's derivative; iterations are
    Brent's and residual is its stop width), "endpoint" (an interval end
    whose derivative points outward; no iterations) or "grid-refine" (the
    golden section; residual is its final bracket width)."""

    value: float
    iterations: int
    residual: float
    method: str


def solve_monotone(
    fn: Callable[[float], float],
    bracket: Bracket | tuple[float, float],
    target: float = 0.0,
    tol: float = ROOT_TOL,
    max_iter: int = 200,
) -> SolveReport:
    """Find the argument where a monotone function attains ``target``.

    The bracket must straddle the target: fn(lo)-target and fn(hi)-target
    must be finite and either one of them zero or of opposite signs
    (compared by sign bit, so values whose product underflows still
    count), otherwise BracketError.  ``tol`` must be positive, otherwise
    DomainError.  Uses Brent's bisection/interpolation hybrid (``_brent``)
    with absolute tolerance ``tol`` and relative tolerance 4 ulp; a NaN
    value of fn inside the bracket or an exhausted iteration budget raises
    ConvergenceError.  Deterministic for identical inputs.
    """
    lo, hi = bracket
    root, froot, iterations = _solve(fn, lo, hi, target, tol, max_iter, None, None)
    return SolveReport(root, iterations, abs(froot), "bisection-hybrid")


def _solve(
    fn: Callable[[float], float], lo: float, hi: float, target: float,
    tol: float, max_iter: int, fn_lo: float | None, fn_hi: float | None,
) -> tuple[float, float, int]:
    """solve_monotone without its report: returns (root, fn(root) - target,
    iterations), with the same checks and errors.  The library's own root
    solves call this, so that none builds a report it does not keep."""
    if not (lo < hi):
        raise BracketError(f"bracket must have lo < hi, got [{lo!r}, {hi!r}]")
    if not tol > 0.0:
        raise DomainError(f"root tolerance must be positive, got {tol!r}")
    flo = (fn(lo) if fn_lo is None else fn_lo) - target
    fhi = (fn(hi) if fn_hi is None else fn_hi) - target
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise BracketError("function is not finite at the bracket endpoints")
    if flo == 0.0:
        return lo, 0.0, 0
    if fhi == 0.0:
        return hi, 0.0, 0
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"no sign change: fn(lo)-target={flo!r}, fn(hi)-target={fhi!r}"
        )
    return _brent(fn, lo, hi, flo, fhi, tol, _RTOL, max_iter, target)


def _brent(
    f: Callable[[float], float], xpre: float, xcur: float, fpre: float,
    fcur: float, xtol: float, rtol: float, maxiter: int, target: float = 0.0,
) -> tuple[float, float, int]:
    """Brent's root solve of f(x) = target on [xpre, xcur]; returns (root,
    f(root) - target, iterations).

    A line-for-line port of ``brentq.c`` from SciPy (BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. and 2003 onward the SciPy
    Developers), so it visits the same iterates as ``scipy.optimize.brentq``
    and reports the same iteration count.  Unlike SciPy it takes the
    endpoint values fpre and fcur the caller has already computed, target
    subtracted, and returns the value at the root, so it calls ``f`` once
    in every iteration but the last.  It subtracts the target in its own
    frame, so ``f`` is the caller's one-frame objective.  The caller
    guarantees finite, nonzero endpoint values of opposite sign.

    C semantics are kept where Python differs: ``signbit`` is compared as
    ``x < 0.0``, which agrees with it on the nonzero, non-NaN values it
    is asked about (fpre is never zero: the caller's value first, then a
    value that passed the convergence test), the ``MIN`` macro is
    ``a if a < b else b``, and an extrapolation that divides by zero (inf
    or NaN in C) takes the bisection step that C's comparison would.
    """
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, maxiter + 1):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        afcur, afblk = abs(fcur), abs(fblk)
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afcur = afblk

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        asbis = abs(sbis)
        if fcur == 0.0 or asbis < delta:
            return xcur, fcur, iterations

        aspre = abs(spre)
        if aspre > delta and afcur < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (
                        -fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre))
                    )
                except ZeroDivisionError:
                    stry = math.inf
            b = 3 * asbis - delta
            if 2 * abs(stry) < (aspre if aspre < b else b):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur) - target
        if fcur != fcur:  # NaN
            raise ConvergenceError(
                f"root solve met a NaN function value at x={xcur!r}"
            )
    raise ConvergenceError(
        f"root solve did not converge in {maxiter} iterations; "
        f"best bracket around {xcur!r}"
    )


def _golden_width(tol: float, a: float, b: float) -> float:
    """The golden refine's stop width on [a, b]: tol, scaled down by the
    argument magnitude when the whole bracket lies within (-1, 1), and at
    least the smallest subnormal."""
    return max(tol * min(1.0, max(abs(a), abs(b))), 5e-324)


def _golden(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_iter: int,
) -> tuple[float, float, int, float]:
    """Golden-section descent on [a, b]; returns (argmin, value, iters, width).

    The stop width is tol scaled down by the argument magnitude when the
    whole bracket is small, so sub-unit intervals are refined to relative
    rather than absolute precision.
    """
    tol = _golden_width(tol, a, b)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    it = 0
    while b - a > tol and it < max_iter:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        it += 1
    if fc <= fd:
        return c, fc, it, b - a
    return d, fd, it, b - a


_INF, _NAN = math.inf, math.nan


def newton_to_two_pi(
    fn: Callable[[float], tuple[float, float]],
    target: float,
    start: float,
    tol: float,
    ceiling: float = math.tau,
) -> float:
    """The angle in (0, ceiling) where an increasing fn reaches target > 0,
    by Newton steps from ``start`` (clipped to the cap, the largest double
    below the ceiling) inside a bracket that every value tightens; fn
    returns (value, slope) and ``tol`` is positive.

    The bracket starts as [0, cap] (fn(0) = 0 < target) and each value
    moves one end: a value below target the lower, any other, an
    overflowed inf included, the upper, as does a DomainError of fn (a
    rounded ceiling can sit just past fn's domain).  A Newton step below
    half the stop width, or above half the step before last (the test of
    rtsafe in Numerical Recipes: the iteration has stopped converging
    quadratically, as rounding noise in fn makes it do next to the root),
    probes past the Newton root instead: by half a stop width the first
    time, which closes the bracket as Brent's smallest step does, and
    twice as far each time after, which gets past a stretch where rounding
    makes fn flat or backward.  A step that leaves the bracket, or that a
    slope which is not positive and finite cannot take, is a bisection: at
    the geometric mean of the ends where they are more than a factor 4
    apart, so that a root many decades below the upper end is reached in a
    few steps, else at their midpoint.  The solve stops once the bracket
    is no wider than ``tol`` + 4 ulp of the iterate (adjacent doubles
    always are) and returns the secant point of its ends (the lower end
    where the upper one raised), the cap where fn stays below target, and
    the smallest subnormal, never 0, below it.  No angle is evaluated twice."""
    cap = math.nextafter(ceiling, 0.0)
    lo, hi = 0.0, cap
    r_lo = r_hi = _INF  # |fn - target| at the ends; inf: never taken
    top = False  # whether fn(hi) is known
    reach = 0.5  # of the stop width: how far past its root a probe lands
    last = prior = cap  # the lengths of the last two steps
    d = start if start < cap else cap
    for _ in range(_GROW_STEPS):
        try:
            f, slope = fn(d)
        except DomainError:  # past fn's domain: an upper end
            f = slope = _INF
        r = f - target
        if r < 0.0:
            lo, r_lo = d, -r
            if lo == cap:
                return lo  # saturated one ulp below the ceiling
        elif r == 0.0:
            return d
        else:
            hi, r_hi, top = d, r, True
        width = tol + _RTOL * d
        if hi - lo <= width:
            # an inf residual (the lower end 0, an upper end never
            # evaluated, overflowed or past the domain) gives the other end
            return lo + (hi - lo) / (1.0 + r_hi / r_lo)
        nxt = _NAN
        if 0.0 < slope < _INF:
            step = -r / slope
            if -0.5 * width < step < 0.5 * width or abs(step + step) > prior:
                probe = reach * width
                step = step + probe if step > 0.0 else step - probe
                reach += reach
            nxt = d + step
            if nxt >= hi and not top:
                nxt = hi  # the target may lie beyond the top end
        if not (lo < nxt < hi or nxt == hi and not top):
            if 0.0 < 4.0 * lo < hi:  # bisect in the exponent
                nxt = math.sqrt(lo) * math.sqrt(hi)
            else:
                nxt = lo + 0.5 * (hi - lo)
        prior, last = last, abs(nxt - d)
        d = nxt
    raise ConvergenceError(f"target {target!r}: no root in {_GROW_STEPS} steps")


def arc_index_tol(lo: float) -> float:
    """Stop width of the arc-index solve whose certified lower end is lo:
    INDEX_TOL scaled down by lo below 1, so that a small index is solved
    to relative rather than absolute precision, and floored at
    _TOL_FLOOR."""
    tol = INDEX_TOL * lo if lo < 1.0 else INDEX_TOL
    return tol if tol > _TOL_FLOOR else _TOL_FLOOR


def _check_interval(lo: float, hi: float, tol: float) -> None:
    """BracketError or DomainError where minimize_on_interval rejects the
    interval [lo, hi] or tol."""
    if hi < lo:
        raise BracketError(f"bracket must have lo <= hi, got [{lo!r}, {hi!r}]")
    if not 0.0 <= tol < math.inf:
        raise DomainError(
            f"minimizer tolerance must be finite and >= 0, got {tol!r}"
        )


def minimize_on_interval(
    fn: Callable[[float], float],
    bracket: Bracket | tuple[float, float],
    tol: float = MIN_TOL,
) -> tuple[SolveReport, float]:
    """Minimize fn over a closed interval; returns (argmin report, value).

    Two stages: a uniform scan over ``SCAN_CELLS`` cells (the sample points
    include both endpoints and the midpoint) localizes the best cell, then
    golden-section refines within the bracketing cell pair.  Endpoint
    minima are legitimate answers and are returned as-is.  Every node is
    evaluated before a non-finite sample aborts the scan with the first
    offending node; ties go to the first node attaining the minimum.  A
    zero-width interval (lo == hi) is scanned like any other and returns
    (lo, fn(lo)) with 0 iterations and residual 0; lo > hi raises
    BracketError.

    ``tol`` must be finite and nonnegative, otherwise DomainError; 0 asks
    the refine for the smallest width a double can hold, so it usually runs
    its whole budget of 200 steps.
    """
    import numpy as np

    lo, hi = bracket
    _check_interval(lo, hi, tol)
    nodes = _scan_nodes(lo, hi)
    # Python floats, so that fn divides as it does in the refine: a numpy
    # scalar would warn where a float raises ZeroDivisionError
    fs = np.array([fn(x) for x in nodes.tolist()], dtype=float)
    return _refine(fn, nodes, fs, tol)


def _refine(
    fn: Callable[[float], float], nodes: np.ndarray, fs: np.ndarray, tol: float
) -> tuple[SolveReport, float]:
    """minimize_on_interval after its scan, given the nodes and their
    values: NonFiniteSampleError at the first non-finite node, otherwise
    the golden refine, 200 steps at most, in the cell pair around the
    first minimum."""
    i, a, b = _best_cell(nodes, fs)
    return _golden_refine(fn, a, b, float(nodes[i]), float(fs[i]), tol)


def _best_cell(nodes: np.ndarray, fs: np.ndarray) -> tuple[int, float, float]:
    """The first minimum's node index i and the ends of the cell pair
    around it, [nodes[i - 1], nodes[i + 1]] clipped to the scan;
    NonFiniteSampleError at the first non-finite node."""
    import numpy as np

    finite = np.isfinite(fs)
    if not finite.all():
        i = int(finite.argmin())
        raise NonFiniteSampleError(i, float(nodes[i]), float(fs[i]))
    return _cell(nodes, int(fs.argmin()))


def _cell(nodes: np.ndarray, i: int) -> tuple[int, float, float]:
    """The node index i and the ends of the cell pair around it,
    [nodes[i - 1], nodes[i + 1]] clipped to the scan."""
    return i, float(nodes[max(i - 1, 0)]), float(nodes[min(i + 1, nodes.size - 1)])


def _golden_refine(
    fn: Callable[[float], float], a: float, b: float, best_x: float,
    best_f: float, tol: float,
) -> tuple[SolveReport, float]:
    """The golden refine on [a, b], keeping the node (best_x, best_f)
    where the refine finds nothing lower."""
    gx, gf, iters, width = _golden(fn, a, b, tol, 200)
    if gf < best_f:
        best_x, best_f = gx, gf
    # residual reports the final bracket width reached by the refinement
    return SolveReport(best_x, iters, width, "grid-refine"), best_f


def _refine_root(
    fn: Callable[[float], tuple[float, float]],
    nodes: np.ndarray, fs: np.ndarray, tol: float,
) -> tuple[SolveReport, float]:
    """_refine's answer through the root of the slope, where fn returns
    (value, slope), with the same node check and cell pair [a, b] around
    the first minimum node i.

    An end node i whose slope points out of the interval is the answer
    ("endpoint", 0 iterations).  Otherwise, where slope(a) < 0 < slope(b),
    infinite ones included, Brent solves slope = 0 on [a, b] to
    _ROOT_XTOL_SCALE times the golden stop width; it returns a point whose
    slope it took, whose value is kept where it is lower than the node's
    ("derivative-root", Brent's iterations, the stop width as residual).
    Every other row (a nan end slope included), and a root solve that
    meets a nan, takes the golden refine of _refine on the value."""
    return _refine_cell(fn, nodes, fs, _best_cell(nodes, fs), tol)


def _refine_cell(
    fn: Callable[[float], tuple[float, float]],
    nodes: np.ndarray, fs: np.ndarray, cell: tuple[int, float, float], tol: float,
) -> tuple[SolveReport, float]:
    """_refine_root from the best node's cell (i, a, b), as _best_cell
    gives it, on nodes whose values fs are finite."""
    i, a, b = cell
    best_x, best_f = float(nodes[i]), float(fs[i])
    values = {}  # fn's value at every point whose slope was taken

    def slope(x: float) -> float:
        values[x], d = fn(x)
        return d

    db = None
    if i == nodes.size - 1:
        db = slope(b)
        if db < 0.0:
            return SolveReport(best_x, 0, 0.0, "endpoint"), best_f
    da = slope(a)
    if i == 0 and da > 0.0:
        return SolveReport(best_x, 0, 0.0, "endpoint"), best_f
    if da < 0.0:
        db = slope(b) if db is None else db
        if db > 0.0:
            xtol = max(_ROOT_XTOL_SCALE * _golden_width(tol, a, b), 5e-324)
            ends = max(da, -_SLOPE_CAP), min(db, _SLOPE_CAP)
            try:
                root, _, iters = _solve(slope, a, b, 0.0, xtol, 200, *ends)
            except ConvergenceError:
                pass
            else:
                froot = values[root]
                if froot < best_f:
                    best_x, best_f = root, froot
                return SolveReport(best_x, iters, xtol, "derivative-root"), best_f
    return _golden_refine(lambda x: fn(x)[0], a, b, best_x, best_f, tol)


# The node indices 0, 1, ..., SCAN_CELLS of every scan, as floats; the
# first scan builds them.
_SCAN_STEPS = None


def _scan_nodes(lo, hi) -> np.ndarray:
    """The SCAN_CELLS + 1 scan nodes lo + i*h, h = (hi - lo)/SCAN_CELLS,
    the last one replaced by hi; a row of nodes for each entry when lo and
    hi are columns."""
    global _SCAN_STEPS
    if _SCAN_STEPS is None:
        import numpy as np

        _SCAN_STEPS = np.arange(SCAN_CELLS + 1.0)
    nodes = _SCAN_STEPS * ((hi - lo) / SCAN_CELLS)
    nodes += lo
    nodes[..., -1:] = hi
    return nodes


# ---------------------------------------------------------------------------
# many minimizations at once
# ---------------------------------------------------------------------------

# Rows per 2-D scan block: 16 rows of SCAN_CELLS + 1 = 257 nodes (4112
# nodes).  On 50-strike smile ladders (about 68 rows each; 2-core x86-64,
# Python 3.11, numpy 2.4; bench/run.py smile-ladder, 10 s runs, seeds 1-10
# in alternating pairs) 16-row blocks ran at a median 178 ladders/s
# against 164 for 8-row blocks (8 rows won 2 of 10 pairs), and at 181
# against 182 for 32-row blocks (32 rows won 5 of 10): larger blocks gain
# nothing measurable and hold more memory (one block per ladder took
# 1.9 MB of traced peak memory against 0.5 MB for 16 rows).
SCAN_BLOCK_ROWS = 16

def _minimize_rows(
    fns: list[Callable[[float], tuple[float, float]]],
    scan: Callable[[list[int], np.ndarray], np.ndarray],
    los: list[float],
    his: list[float],
    tol: float = MIN_TOL,
) -> list[tuple[SolveReport, float] | HestonDistError]:
    """The minimum of the objective f_i on [los[i], his[i]] for every row
    i, or the error minimize_on_interval(f_i, (los[i], his[i]), tol)
    raises: the same scan of every interval, zero-width ones included, and
    the same errors.  fns[i] returns (f_i, its slope).

    ``scan(rows, nodes)`` evaluates the rows (a list of indices) at a 2-D
    block of nodes, one row of nodes each, and must equal their
    objectives bit for bit.  The scan evaluates SCAN_BLOCK_ROWS rows per
    call; a block that raises a HestonDistError is evaluated again row by
    row, so the error fails only the rows that raise it on their own.
    Where every value of a block is finite, one argmin over the block
    gives every row's first minimum node, and its cell is gathered by
    scalar indexing; a block with a non-finite value (a row that raised
    included) takes each row's node by _best_cell, which raises the row's
    NonFiniteSampleError at its first non-finite node.  Each row is then
    refined on its own on ``fns[i]`` from that cell, by the code
    ``_refine_root`` runs after ``_best_cell``; a row that falls back to
    the golden refine returns what minimize_on_interval returns."""
    import numpy as np

    out: list = [None] * len(fns)
    live = []
    for i, (lo, hi) in enumerate(zip(los, his)):
        try:
            _check_interval(lo, hi, tol)
            live.append(i)
        except HestonDistError as exc:
            out[i] = exc
    for start in range(0, len(live), SCAN_BLOCK_ROWS):
        rows = live[start:start + SCAN_BLOCK_ROWS]
        if len(rows) == 1:  # floats broadcast faster than 1x1 columns
            nodes = _scan_nodes(los[rows[0]], his[rows[0]])[None, :]
        else:
            lo = np.array([[los[i]] for i in rows])
            hi = np.array([[his[i]] for i in rows])
            nodes = _scan_nodes(lo, hi)
        fs, errors = _scan_rows(scan, rows, nodes)
        finite = np.isfinite(fs).all()
        best = fs.argmin(axis=1)
        for k, i in enumerate(rows):
            if k in errors:
                out[i] = errors[k]
                continue
            row_nodes, row_fs = nodes[k], fs[k]
            try:
                cell = (_cell(row_nodes, int(best[k])) if finite
                        else _best_cell(row_nodes, row_fs))
                out[i] = _refine_cell(fns[i], row_nodes, row_fs, cell, tol)
            except HestonDistError as exc:
                out[i] = exc
    return out


def _scan_rows(
    scan: Callable[[list[int], np.ndarray], np.ndarray],
    rows: list[int],
    nodes: np.ndarray,
) -> tuple[np.ndarray, dict[int, HestonDistError]]:
    """The rows' objectives at their nodes, and the error of every row (by
    position in rows) that raises one on its own."""
    import numpy as np

    try:
        return np.asarray(scan(rows, nodes), dtype=float), {}
    except HestonDistError:
        pass
    vals = np.full(nodes.shape, math.nan)
    errors = {}
    for k, i in enumerate(rows):
        try:
            vals[k] = scan([i], nodes[k:k + 1])[0]
        except HestonDistError as exc:
            errors[k] = exc
    return vals, errors
