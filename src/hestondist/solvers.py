"""Bracketed scalar root finding and one-dimensional minimization.

Every "solve the equation" and "minimize over the interval" step in the
distance formulas funnels through these two routines.  The minimizer never
assumes unimodality: a coarse uniform scan localizes the best cell before
golden-section refinement, which keeps it robust on objectives whose
interior critical-point structure is only known empirically.

The scan may be evaluated as one array call (``fn_many``) while the
golden-section refine stays scalar; the two forms of the objective must
agree bit for bit on every node, so the result does not depend on which
one ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import (
    BracketError,
    ConvergenceError,
    NonFiniteSampleError,
    ScanShapeError,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

ROOT_TOL = 1e-12
MIN_TOL = 1e-9
SCAN_CELLS = 256


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


def report_closed_form(value: float) -> SolveReport:
    """Report for results obtained from an exact formula, no iteration."""
    return SolveReport(value=value, iterations=0, residual=0.0, method="closed-form")


def solve_monotone(
    fn: Callable[[float], float],
    bracket: Bracket | tuple[float, float],
    target: float = 0.0,
    tol: float = ROOT_TOL,
    max_iter: int = 200,
) -> SolveReport:
    """Find the argument where a monotone function attains ``target``.

    The bracket must straddle the target: (fn(lo)-target)*(fn(hi)-target)
    <= 0, otherwise BracketError.  Uses Brent's bisection/interpolation
    hybrid; deterministic for identical inputs.
    """
    lo, hi = bracket
    if not (lo < hi):
        raise BracketError(f"bracket must have lo < hi, got [{lo!r}, {hi!r}]")
    flo = fn(lo) - target
    fhi = fn(hi) - target
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise BracketError("function is not finite at the bracket endpoints")
    if flo == 0.0:
        return SolveReport(lo, 0, 0.0, "bisection-hybrid")
    if fhi == 0.0:
        return SolveReport(hi, 0, 0.0, "bisection-hybrid")
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change: fn(lo)-target={flo!r}, fn(hi)-target={fhi!r}"
        )
    root, res = brentq(
        lambda x: fn(x) - target,
        lo,
        hi,
        xtol=tol,
        rtol=4.0 * math.ulp(1.0),
        maxiter=max_iter,
        full_output=True,
    )
    if not res.converged:
        raise ConvergenceError(
            f"root solve did not converge in {max_iter} iterations; "
            f"best bracket around {root!r}"
        )
    residual = abs(fn(root) - target)
    return SolveReport(root, res.iterations, residual, "bisection-hybrid")


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
    minima are legitimate answers and are returned as-is.  A non-finite
    sample aborts with the first offending node; ties go to the first
    node attaining the minimum.

    ``fn_many``, when given, is the array form of ``fn``: it maps the
    read-only array of scan nodes to the array of their values in one
    call, and must equal ``fn`` bit for bit on every node.  It replaces
    only the scan; the refine always calls ``fn``.  A result whose shape
    differs from the node array raises ScanShapeError.
    """
    lo, hi = bracket
    if hi < lo:
        raise BracketError(f"bracket must have lo <= hi, got [{lo!r}, {hi!r}]")
    if hi == lo or hi - lo <= tol * 1e-3:
        val = fn(lo)
        if not math.isfinite(val):
            raise NonFiniteSampleError(0, lo, val)
        return SolveReport(lo, 0, 0.0, "grid-refine"), val

    n = scan_cells + 1
    h = (hi - lo) / scan_cells
    if fn_many is None:
        best_i, best_x, best_f = -1, lo, math.inf
        xs = [lo + i * h for i in range(n - 1)] + [hi]
        for i, x in enumerate(xs):
            fx = fn(x)
            if not math.isfinite(fx):
                raise NonFiniteSampleError(i, x, fx)
            if fx < best_f:
                best_i, best_x, best_f = i, x, fx
    else:
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
    lo + i*h and hi, the same doubles the scalar scan visits."""
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
