"""The lockstep root solves and the array arc index built on them.

``solvers._brent_rows`` and ``solvers._invert_to_two_pi_rows`` must return,
lane for lane and bit for bit, what ``_brent`` and ``invert_to_two_pi``
return.  The lane objectives here call the scalar function of each lane on
Python floats, so the scalar and array forms of the objective agree bit for
bit and any difference comes from the lockstep arithmetic.
``pointmetric._dist_base_grid`` runs ``_f_arr``, which may differ from
``f_of`` by an ulp, so it is held to the scalar distance within 1e-14.
"""

import math
import random
import sys

import numpy as np
import pytest

import hestondist as hd
from hestondist import ConvergenceError, cli, solvers
from hestondist import corefuncs as cf
from hestondist import linedist as ld
from hestondist import pointmetric as pm

from test_root_solve import _monotone_cases

RTOL = 4.0 * math.ulp(1.0)
CAP = math.nextafter(math.tau, 0.0)


def lane_objective(fns):
    """The RowObjective of the scalar functions fns, one per lane."""
    every = np.arange(len(fns))

    def bind(rows):
        sel = every[rows].tolist()

        def fn(x):
            return np.array([fns[i](xi) for i, xi in zip(sel, x.tolist())])

        return fn

    return bind


def brent_rows(fns, los, his, xtols, rtol, maxiter):
    """_brent_rows on lanes [los[k], his[k]] of the scalar functions fns,
    given the state arrays it takes: rows pre = lo and cur = hi."""
    x = np.array([los, his, [0.0] * len(los)])
    f = np.array([[fn(a) for fn, a in zip(fns, los)],
                  [fn(b) for fn, b in zip(fns, his)],
                  [0.0] * len(los)])
    return solvers._brent_rows(
        lane_objective(fns), x, f, np.array(xtols), rtol, maxiter
    )


def zero_divisions(run) -> int:
    """How many ZeroDivisionErrors are raised, and caught, inside run()."""
    seen = []

    def trace(frame, event, arg):
        if event == "exception" and arg[0] is ZeroDivisionError:
            seen.append(frame.f_code.co_name)
        return trace

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return len(seen)


class TestBrentRows:
    def lanes(self):
        fns = [fn for _, _, fn in _monotone_cases()]
        fns.append(lambda t: t - 0.5)  # the first secant step is the root
        xtols = [(1e-3, 1e-8, 1e-12, 1e-300)[k % 4] for k in range(len(fns))]
        return fns, xtols

    def test_matches_brent_lane_for_lane(self):
        fns, xtols = self.lanes()
        lo, hi = -6.0, 7.0
        want = [
            solvers._brent(fn, lo, hi, fn(lo), fn(hi), tol, RTOL, 200)
            for fn, tol in zip(fns, xtols)
        ]
        got = brent_rows(
            fns, [lo] * len(fns), [hi] * len(fns), xtols, RTOL, 200
        )
        rows = [(float(r).hex(), float(f).hex(), int(i)) for r, f, i in zip(*got)]
        assert rows == [(r.hex(), f.hex(), i) for r, f, i in want]
        iters = [i for _, _, i in want]
        assert len(set(iters)) > 5  # lanes leave at many different steps
        assert want[-1] == (0.5, 0.0, 2)  # an exact zero stops the lane

    @pytest.mark.parametrize("u", [0.03, 0.25, 0.5, 0.8, 0.999])
    def test_target_is_subtracted_in_the_solve(self, u):
        # _brent(f, ..., target=t) solves f = t exactly as _brent solves
        # f - t = 0: the same root, f(root) - t and iteration count, for a
        # target a fraction u of the way from f(lo) to f(hi)
        fns, xtols = self.lanes()
        lo, hi = -6.0, 7.0
        for fn, tol in zip(fns, xtols):
            t = fn(lo) + u * (fn(hi) - fn(lo))
            flo, fhi = fn(lo) - t, fn(hi) - t
            assert flo < 0.0 < fhi
            shifted = solvers._brent(
                lambda x, fn=fn, t=t: fn(x) - t, lo, hi, flo, fhi, tol, RTOL, 200
            )
            got = solvers._brent(fn, lo, hi, flo, fhi, tol, RTOL, 200, t)
            assert [got[0].hex(), got[1].hex(), got[2]] == [
                shifted[0].hex(), shifted[1].hex(), shifted[2]
            ], t

    def test_extrapolation_dividing_by_zero(self):
        # f-values near 1e-160 make the extrapolation's denominator
        # underflow to zero: _brent catches the ZeroDivisionError and
        # bisects, and the lockstep form must take the same step
        fns = [lambda t, c=c: 1e-160 * (t - c) ** 3 for c in (-2.0, 0.3, 1.7)]
        args = (-6.0, 7.0)
        calls = [
            lambda fn=fn: solvers._brent(fn, *args, fn(-6.0), fn(7.0), 1e-12, RTOL, 200)
            for fn in fns
        ]
        assert all(zero_divisions(call) for call in calls)
        got = brent_rows(fns, [-6.0] * 3, [7.0] * 3, [1e-12] * 3, RTOL, 200)
        assert [tuple(map(float, g)) for g in zip(*got)] == [c() for c in calls]

    def test_trial_step_is_inf_where_it_divides_by_zero(self):
        # rows pre, cur, blk: lane 0 secant, lane 1 pre == cur, lane 2 a
        # flat pair fpre == fblk, lane 3 a proper extrapolation
        x = np.array([[0.0, 1.0, 1.0, 0.0],
                      [1.0, 1.0, 2.0, 1.0],
                      [0.0, 3.0, 0.0, 3.0]])
        f = np.array([[-1.0, -1.0, -1.0, -2.0],
                      [0.5, 0.5, 0.5, 0.5],
                      [-1.0, 2.0, -1.0, 3.0]])
        stry = solvers._brent_try(x, f)
        assert stry[0] == -0.5 * (1.0 - 0.0) / (0.5 + 1.0)
        assert stry[1] == math.inf and stry[2] == math.inf
        assert math.isfinite(stry[3])

    def test_nan_lane_raises(self):
        fns = [lambda t: t - 0.1, lambda t: math.nan if 0.25 < t < 0.75 else t - 0.5]
        with pytest.raises(ConvergenceError):
            solvers._brent(fns[1], 0.0, 1.0, -0.5, 0.5, 1e-12, RTOL, 200)
        with pytest.raises(ConvergenceError):
            brent_rows(fns, [0.0, 0.0], [1.0, 1.0], [1e-12] * 2, RTOL, 200)

    def test_iteration_budget(self):
        with pytest.raises(ConvergenceError):
            brent_rows([math.atan], [-1.0], [3.0], [1e-12], RTOL, 2)


class TestInvertRows:
    def lanes(self):
        """(fn, target, lo) per lane: general targets of f_of, one out of
        reach (saturates one ulp below 2*pi), one met exactly at lo and one
        met exactly at the first march point."""
        rng = random.Random(8)
        lanes = []
        for _ in range(30):
            v = rng.choice((0.0, 10.0 ** rng.uniform(-6, 3)))
            x = 10.0 ** rng.uniform(-12, 14)
            lo = min(max(cf.h_lower(x, v), 5e-324), cf.TWO_PI * (1.0 - 1e-16)) * 0.5
            lanes.append((lambda d, v=v: cf.f_of(v, d), x, lo))
        fn = lambda d: cf.f_of(0.3, d)
        lanes.append((fn, 1e40, 1.0))
        lanes.append((fn, fn(0.7), 0.7))
        lanes.append((fn, fn(math.tau - 0.5 * (math.tau - 0.7)), 0.7))
        return lanes

    def test_matches_invert_to_two_pi(self):
        lanes = self.lanes()
        fns, targets, los = (list(z) for z in zip(*lanes))
        tols = [solvers.arc_index_tol(lo) for lo in los]
        fn_los = [fn(lo) for fn, lo in zip(fns, los)]
        want = [
            solvers.invert_to_two_pi(fn, t, lo, tol=tol, fn_lo=f_lo)
            for fn, t, lo, tol, f_lo in zip(fns, targets, los, tols, fn_los)
        ]
        got = solvers._invert_to_two_pi_rows(
            lane_objective(fns), np.array(targets), np.array(los),
            np.array(tols), np.array(fn_los),
        )
        assert [float(g).hex() for g in got] == [w.hex() for w in want]
        saturated, at_lo, at_hi = want[-3:]
        assert saturated == CAP
        assert at_lo == 0.7
        assert at_hi == math.tau - 0.5 * (math.tau - 0.7)


def test_dist_base_grid_matches_scalar():
    rng = random.Random(2026)
    xs = [0.0, 5e-324, 1e-26] + [10.0 ** rng.uniform(-300, 12) for _ in range(1500)]
    vs = [0.0, 1.0] + [10.0 ** rng.uniform(-8, 8) for _ in range(1500)]
    pairs = [(x, rng.choice(vs)) for x in xs] + [(1e-26, 1.0), (5e-324, 0.0)]
    x, v = (np.array(z) for z in zip(*pairs))
    grid = pm._dist_base_grid(x, v)
    for (xi, vi), g in zip(pairs, grid.tolist()):
        want = pm._dist_base(xi, vi)
        assert abs(g - want) <= 1e-14 * want, (xi, vi, g, want)


def test_grid_mirrors_negative_abscissas():
    x = np.array([-3.0, 3.0, -1e-20, 0.0])
    v = np.array([0.5, 0.5, 2.0, 4.0])
    grid = pm._dist_base_grid(x, v)
    assert grid[0] == grid[1]
    assert grid.tolist() == [pm._dist_base(abs(a), b) for a, b in zip(x, v)]


def oracle_sweep_lines():
    """The lines of `oracle compare --grid` and the far lines of the
    oracle-sweep benchmark, whose minimizers lie beyond the first horizon."""
    grid = [
        (b, g)
        for b in cli._ORACLE_GRID_BETA
        for g in cli._ORACLE_GRID_GAMMA
        if b + g != 0.0
    ]
    far = [(10.0, -0.5), (8.0, -0.2), (40.0, -2.0),
           (5.0, 0.05), (30.0, -1.0), (50.0, -1.0)]
    return grid + far


def test_grid_pass_count(monkeypatch):
    # A pass is one evaluation of every node the grid solves: the lockstep
    # solve evaluates only its live lanes, so a call on a few lanes is a
    # fraction of a pass.  The bisection this replaced made 92 passes per
    # grid.
    nodes, per_grid = [0], []
    f_arr, grid = pm._f_arr, ld._dist_base_grid

    def counted(s, d):
        nodes[0] += d.size
        return f_arr(s, d)

    def counting(x, v):
        before = nodes[0]
        out = grid(x, v)
        per_grid.append((nodes[0] - before) / x.size)
        return out

    monkeypatch.setattr(pm, "_f_arr", counted)
    monkeypatch.setattr(ld, "_dist_base_grid", counting)
    sweep = oracle_sweep_lines()
    lines = sweep + [(1e12, 0.0)]
    grids, evals = [], []
    for beta, gamma in lines:
        before, evaluated = len(per_grid), nodes[0]
        hd.oracle_dist(beta, gamma)
        grids.append(len(per_grid) - before)
        evals.append(nodes[0] - evaluated)
    # the far lines scan a second grid out to their certified horizon
    assert len(per_grid) > len(lines)
    assert max(grids) <= 2
    assert max(per_grid) <= 30
    # one pass of the sweep lines takes 47 grids, as before the oracle
    # pruned its grids, and at most 45% of the 1,716,770 _f_arr lane
    # evaluations its full grids made (659,814 when pruning came in)
    assert sum(grids[:len(sweep)]) == 47
    assert sum(evals[:len(sweep)]) <= 0.45 * 1_716_770
