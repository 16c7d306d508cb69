"""Bracketed scalar root finding and one-dimensional minimization.

Every "solve the equation" and "minimize over the interval" step in the
distance formulas funnels through these two routines.  The minimizer never
assumes unimodality: a coarse uniform scan localizes the best cell before
golden-section refinement, which keeps it robust on objectives whose
interior critical-point structure is only known empirically.
``invert_to_two_pi`` inverts an increasing function of an angle in
(0, 2*pi) (the arc index and the psi and eta maps): it grows the root
bracket toward 2*pi, saturates one ulp below 2*pi when the target is out of
reach, and otherwise solves to ``INDEX_TOL``.

The root solve is a pure-Python port of SciPy's ``brentq.c``: it visits the
same iterates and reports the same iteration count as
``scipy.optimize.brentq``, but evaluates the function once per iteration
(n + 1 calls for n iterations, endpoints included), never re-evaluating the
endpoints or the root.  The package has no SciPy dependency.

The scan is one array call: ``fn_many`` where the caller has an array
form of the objective, otherwise ``fn`` on each node.  The golden-section
refine stays scalar; the two forms of the objective must agree bit for bit
on every node, so the result does not depend on which one ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NonFiniteSampleError,
    ScanShapeError,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

ROOT_TOL = 1e-12
INDEX_TOL = 1e-13  # absolute tolerance of every angle-index inversion
_RTOL = 4.0 * math.ulp(1.0)  # brentq's smallest admissible rtol
MIN_TOL = 1e-9
SCAN_CELLS = 256
_GROW_STEPS = 200


class Bracket(NamedTuple):
    lo: float
    hi: float


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a scalar solve: the located argument, the iteration count,
    the residual achieved and which method produced it."""

    value: float
    iterations: int
    residual: float
    method: str  # bisection-hybrid | golden-section | grid-refine | closed-form


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
    if not (lo < hi):
        raise BracketError(f"bracket must have lo < hi, got [{lo!r}, {hi!r}]")
    if not tol > 0.0:
        raise DomainError(f"root tolerance must be positive, got {tol!r}")
    flo = fn(lo) - target
    fhi = fn(hi) - target
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise BracketError("function is not finite at the bracket endpoints")
    if flo == 0.0:
        return SolveReport(lo, 0, 0.0, "bisection-hybrid")
    if fhi == 0.0:
        return SolveReport(hi, 0, 0.0, "bisection-hybrid")
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise BracketError(
            f"no sign change: fn(lo)-target={flo!r}, fn(hi)-target={fhi!r}"
        )
    root, froot, iterations = _brent(
        lambda x: fn(x) - target, lo, hi, flo, fhi, tol, _RTOL, max_iter
    )
    return SolveReport(root, iterations, abs(froot), "bisection-hybrid")


def _brent(
    f: Callable[[float], float],
    xpre: float,
    xcur: float,
    fpre: float,
    fcur: float,
    xtol: float,
    rtol: float,
    maxiter: int,
) -> tuple[float, float, int]:
    """Brent's root solve on [xpre, xcur]; returns (root, f(root), iterations).

    A line-for-line port of ``brentq.c`` from SciPy (BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. and 2003 onward the SciPy
    Developers), so it visits the same iterates as ``scipy.optimize.brentq``
    and reports the same iteration count.  Unlike SciPy it takes the
    endpoint values the caller has already computed and returns the value
    at the root, so it calls ``f`` once in every iteration but the last,
    which stops at the convergence test.  The caller guarantees finite,
    nonzero endpoint values of opposite sign.

    C semantics are kept where Python differs: ``signbit`` is compared via
    ``math.copysign``, the ``MIN`` macro is ``a if a < b else b``, and an
    extrapolation that divides by zero (inf or NaN in C) takes the
    bisection step that C's comparison would.
    """
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, maxiter + 1):
        if (
            fpre != 0.0
            and fcur != 0.0
            and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur, iterations

        if abs(spre) > delta and abs(fcur) < abs(fpre):
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
            a, b = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (a if a < b else b):
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
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ConvergenceError(
                f"root solve met a NaN function value at x={xcur!r}"
            )
    raise ConvergenceError(
        f"root solve did not converge in {maxiter} iterations; "
        f"best bracket around {xcur!r}"
    )


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
    tol = tol * min(1.0, max(abs(a), abs(b)))
    tol = max(tol, 5e-324)
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


def invert_to_two_pi(
    fn: Callable[[float], float], target: float, lo: float
) -> float:
    """The angle in (lo, 2*pi) where an increasing fn reaches target, given
    fn(lo) <= target.

    Marches from lo toward 2*pi, halving the gap, until fn reaches target,
    then solves on [lo, hi] to INDEX_TOL.  Returns the largest double below
    2*pi when the target is out of reach at double resolution; the gap
    shrinks to one ulp of 2*pi within about 54 halvings, so the step budget
    is never exhausted."""
    cap = math.nextafter(math.tau, 0.0)  # math.tau == corefuncs.TWO_PI
    hi = lo
    for _ in range(_GROW_STEPS):
        nxt = math.tau - 0.5 * (math.tau - hi)
        if nxt >= cap or nxt <= hi:
            hi = cap
            break
        hi = nxt
        if fn(hi) >= target:
            break
    else:
        raise ConvergenceError(f"target {target!r} not reached below 2*pi")
    if fn(hi) < target:
        return hi  # saturated one ulp below 2*pi
    return solve_monotone(fn, (lo, hi), target=target, tol=INDEX_TOL).value


def minimize_on_interval(
    fn: Callable[[float], float],
    bracket: Bracket | tuple[float, float],
    tol: float = MIN_TOL,
    scan_cells: int = SCAN_CELLS,
    max_iter: int = 200,
    *,
    fn_many: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[SolveReport, float]:
    """Minimize fn over a closed interval; returns (argmin report, value).

    Two stages: a uniform scan over ``scan_cells`` cells (the sample points
    include both endpoints and the midpoint) localizes the best cell, then
    golden-section refines within the bracketing cell pair.  Endpoint
    minima are legitimate answers and are returned as-is.  Every node is
    evaluated before a non-finite sample aborts the scan with the first
    offending node; ties go to the first node attaining the minimum.

    ``fn_many``, when given, is the array form of ``fn``: it maps the
    read-only array of scan nodes to the array of their values in one
    call, and must equal ``fn`` bit for bit on every node.  It replaces
    only the scan; the refine always calls ``fn``.  Without it the scan
    calls ``fn`` on each node.  A result whose shape differs from the node
    array raises ScanShapeError.

    ``tol`` must be finite and nonnegative, otherwise DomainError; 0 asks
    the refine for the smallest width a double can hold, so it usually runs
    ``max_iter`` steps.
    """
    lo, hi = bracket
    if hi < lo:
        raise BracketError(f"bracket must have lo <= hi, got [{lo!r}, {hi!r}]")
    if not 0.0 <= tol < math.inf:
        raise DomainError(
            f"minimizer tolerance must be finite and >= 0, got {tol!r}"
        )
    if hi == lo or hi - lo <= tol * 1e-3:
        val = fn(lo)
        if not math.isfinite(val):
            raise NonFiniteSampleError(0, lo, val)
        return SolveReport(lo, 0, 0.0, "grid-refine"), val

    n = scan_cells + 1
    h = (hi - lo) / scan_cells
    if fn_many is None:
        # Python floats, so that fn divides as it does in the refine: a
        # numpy scalar would warn where a float raises ZeroDivisionError
        fn_many = lambda nodes: [fn(x) for x in nodes.tolist()]
    best_i, xs, best_f = _scan_many(fn_many, lo, hi, h, n)
    best_x = float(xs[best_i])

    a = float(xs[max(best_i - 1, 0)])
    b = float(xs[min(best_i + 1, n - 1)])
    gx, gf, iters, width = _golden(fn, a, b, tol, max_iter)
    if gf < best_f:
        best_x, best_f = gx, gf
    # residual reports the final bracket width reached by the refinement
    return SolveReport(best_x, iters, width, "grid-refine"), best_f


def _scan_many(
    fn_many: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    h: float,
    n: int,
) -> tuple[int, np.ndarray, float]:
    """The scan of minimize_on_interval as one array call; returns (index of
    the first minimum, the nodes, the minimum value).  The nodes are
    lo + i*h and hi."""
    nodes = lo + np.arange(n) * h
    nodes[-1] = hi
    nodes.flags.writeable = False
    fs = np.asarray(fn_many(nodes), dtype=float)
    if fs.shape != nodes.shape:
        raise ScanShapeError(
            f"array objective returned shape {fs.shape}, expected {nodes.shape}"
        )
    finite = np.isfinite(fs)
    if not finite.all():
        i = int(finite.argmin())
        raise NonFiniteSampleError(i, float(nodes[i]), float(fs[i]))
    i = int(fs.argmin())
    return i, nodes, float(fs[i])
