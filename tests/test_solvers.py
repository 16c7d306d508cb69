import math
import sys

import numpy as np
import pytest

import hestondist as hd
from hestondist import (
    BracketError,
    ConvergenceError,
    DomainError,
    HestonDistError,
    NonFiniteSampleError,
)
from hestondist import levelsets as ls
from hestondist import linedist as ld
from hestondist import solvers
from hestondist.solvers import minimize_on_interval, solve_monotone

from test_root_solve import _monotone_cases

PI = math.pi


class TestSolveMonotone:
    def test_identity(self):
        rep = solve_monotone(lambda x: x, (0.0, 1.0), target=0.5)
        assert rep.value == pytest.approx(0.5, abs=1e-12)
        assert rep.method == "bisection-hybrid"
        assert rep.residual <= 1e-12

    def test_inverts_psi(self):
        rep = solve_monotone(hd.psi, (1e-6, 2 * PI - 1e-9), target=PI / 2)
        assert rep.value == pytest.approx(PI, abs=1e-10)

    def test_inverts_f_of(self):
        rep = solve_monotone(lambda d: hd.f_of(1.0, d), (1e-6, 2 * PI - 1e-9),
                             target=PI + 2.0)
        assert rep.value == pytest.approx(PI, abs=1e-10)

    def test_affine_rescale_invariance(self):
        fn = lambda x: math.expm1(x) - 0.7
        r1 = solve_monotone(fn, (0.0, 2.0))
        r2 = solve_monotone(lambda x: 1e6 * fn(x), (0.0, 2.0))
        assert r1.value == pytest.approx(r2.value, abs=1e-11)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            solve_monotone(lambda x: x * x + 1.0, (0.0, 1.0), target=0.0)

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            solve_monotone(lambda x: x, (1.0, 0.0))

    def test_exact_endpoint(self):
        rep = solve_monotone(lambda x: x, (0.5, 1.0), target=0.5)
        assert rep.value == 0.5 and rep.iterations == 0

    def test_same_sign_with_underflowing_product(self):
        # 1e-200 * 1e-200 underflows to 0: the signs decide, not the product
        with pytest.raises(HestonDistError) as exc:
            solve_monotone(lambda x: 1e-200, (0.0, 1.0))
        assert isinstance(exc.value, BracketError)

    def test_nan_inside_bracket(self):
        fn = lambda x: math.nan if 0.25 < x < 0.75 else x - 0.5
        with pytest.raises(HestonDistError) as exc:
            solve_monotone(fn, (0.0, 1.0))
        assert isinstance(exc.value, ConvergenceError)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_bad_tolerance(self, tol):
        with pytest.raises(HestonDistError) as exc:
            solve_monotone(lambda x: x - 0.5, (0.0, 1.0), tol=tol)
        assert isinstance(exc.value, DomainError)

    def test_iteration_budget(self):
        with pytest.raises(ConvergenceError):
            solve_monotone(math.atan, (-1.0, 3.0), max_iter=2)

    def test_one_evaluation_per_iteration(self):
        calls = []

        def fn(x):
            calls.append(x)
            return math.expm1(x) - 0.7

        rep = solve_monotone(fn, (0.0, 2.0))
        # both endpoints, then one call per iteration but the last, which
        # stops at the convergence test; the residual is not re-evaluated
        assert len(calls) == rep.iterations + 1
        assert rep.residual == abs(fn(rep.value))


RTOL = 4.0 * math.ulp(1.0)


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


class TestBrent:
    @pytest.mark.parametrize("u", [0.03, 0.25, 0.5, 0.8, 0.999])
    def test_target_is_subtracted_in_the_solve(self, u):
        # _brent(f, ..., target=t) solves f = t exactly as _brent solves
        # f - t = 0: the same root, f(root) - t and iteration count, for a
        # target a fraction u of the way from f(lo) to f(hi)
        fns = [fn for _, _, fn in _monotone_cases()]
        fns.append(lambda t: t - 0.5)  # the first secant step is the root
        xtols = [(1e-3, 1e-8, 1e-12, 1e-300)[k % 4] for k in range(len(fns))]
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
        # underflow to zero: _brent catches the ZeroDivisionError, bisects
        # and still converges
        for c in (-2.0, 0.3, 1.7):
            fn = lambda t, c=c: 1e-160 * (t - c) ** 3
            out = []

            def call(fn=fn):
                out.append(
                    solvers._brent(fn, -6.0, 7.0, fn(-6.0), fn(7.0), 1e-12, RTOL, 200)
                )

            assert zero_divisions(call), c
            root, _, _ = out[0]
            assert abs(root - c) <= 1e-11, (c, root)

    def test_exact_zero_stops_the_solve(self):
        # the first secant step of t - 0.5 on [-6, 7] is the root itself
        fn = lambda t: t - 0.5
        got = solvers._brent(fn, -6.0, 7.0, fn(-6.0), fn(7.0), 1e-12, RTOL, 200)
        assert got == (0.5, 0.0, 2)


def _recorded(fn, seen):
    """fn, appending every argument it is called at to seen."""

    def record(t):
        seen.append(t)
        return fn(t)

    return record


class TestInvertBelow:
    """newton_to_two_pi below a ceiling, as it inverts every index map."""

    def test_ends(self):
        # out of reach: the cap one ulp below the ceiling; met exactly at
        # the start: the start
        f_v = ls.cf._f_of_fn(0.3)
        cap = math.nextafter(math.tau, 0.0)
        newton = solvers.newton_to_two_pi
        assert newton(f_v, 1e40, 1.0, 1e-13) == cap
        assert newton(f_v, f_v(0.7)[0], 0.7, 1e-13) == 0.7
        assert newton(f_v, 1e40, 1.0, 1e-13, 0.5) == math.nextafter(0.5, 0.0)

    def test_saturation_returns_the_last_point_evaluated(self, monkeypatch):
        # psi(t) stays below 1e40 up to the largest double below 2*pi:
        # the solve evaluates that double last and returns it
        seen = []
        monkeypatch.setattr(ls.cf, "_psi_fn", _recorded(ls.cf._psi_fn, seen))
        got = ls.psi_inv(1e40)
        assert got == math.nextafter(math.tau, 0.0)
        assert seen[-1] == got
        assert len(seen) == len(set(seen))

    def test_nothing_to_march_returns_lo(self):
        # a start at or past the ceiling is the cap; where fn stays below
        # the target there, the cap is the lower end and the answer, and
        # the only point evaluated
        seen = []
        fn = lambda t: seen.append(t) or (t, 1.0)
        cap = math.nextafter(0.5, 0.0)
        assert solvers.newton_to_two_pi(fn, 1.0, 0.75, 1e-13, 0.5) == cap
        assert seen == [cap]

    def test_domain_error_returns_the_last_point_evaluated(self):
        # fn's domain ends at 1.0, below the ceiling 1.5: the points past it
        # raise and are upper ends, and the answer is the lower end, the
        # largest point evaluated in the domain, 1.0 less one ulp
        seen = []

        def fn(t):
            seen.append(t)
            if t > 1.0:
                raise DomainError(f"t={t!r} is past the domain")
            return t, 1.0

        got = solvers.newton_to_two_pi(fn, 2.0, 0.5, 1e-13, 1.5)
        assert got == max(t for t in seen if t <= 1.0) == math.nextafter(1.0, 0.0)
        assert seen[:2] == [0.5, math.nextafter(1.5, 0.0)]
        assert len(seen) == len(set(seen))

    # (alpha, y) and the answer of eta_alpha_inv near a rounded ceiling
    # psi_inv(alpha): the first two stay below the target up to the cap one
    # ulp below the ceiling, and return it; in the last the cap lies past
    # eta_alpha's domain, raises and is an upper end
    ROUNDED_CEILINGS = [
        (8.638724563399447e29, 8.638724563399447e29, 6.283185307179581),
        (8.594372647533829e29, 8.594372507171565e29, 6.283185307179581),
        (0.22869128061395577, 1e20, 0.6756236614931617),
    ]

    @pytest.mark.parametrize("alpha, y, want", ROUNDED_CEILINGS)
    def test_rounded_ceiling(self, monkeypatch, alpha, y, want):
        seen, raised = [], []
        factory = ls.cf._eta_alpha_fn

        def recording(a):
            fn = factory(a)

            def record(t):
                seen.append(t)
                try:
                    return fn(t)
                except DomainError:
                    raised.append(t)
                    raise

            return record

        cap = math.nextafter(ls.psi_inv(alpha), 0.0)
        monkeypatch.setattr(ls.cf, "_eta_alpha_fn", recording)
        got = ls.eta_alpha_inv(alpha, y)
        assert got == want
        assert raised == ([cap] if y > alpha else []) and cap in seen
        assert len(seen) == len(set(seen))
        assert hd.eta_alpha(alpha, got) < y  # in the domain, below the target

    @pytest.mark.parametrize("name, factory, args", [
        ("psi_inv", "_psi_fn", [(1e-9,), (0.3,), (3.0,), (1e6,), (1e40,)]),
        ("eta_inv", "_eta_fn", [(1e-9,), (0.3,), (3.0,), (1e6,), (1e40,)]),
        ("eta_alpha_inv", "_eta_alpha_fn",
         [(1e6, 3.0), (0.01, 0.009), (8.638724563399447e29, 8.638724563399447e29),
          (0.22869128061395577, 1e20)]),
    ])
    def test_no_point_is_evaluated_twice(self, monkeypatch, name, factory, args):
        seen = []
        fn = getattr(ls.cf, factory)
        if factory == "_eta_alpha_fn":
            patched = lambda alpha: _recorded(fn(alpha), seen)
        else:
            patched = _recorded(fn, seen)
        monkeypatch.setattr(ls.cf, factory, patched)
        for a in args:
            seen.clear()
            getattr(ls, name)(*a)
            assert seen and len(seen) == len(set(seen)), a

    def test_smallest_subnormal_target(self):
        # eta_inv(5e-324): its certified bracket [y, 2y] is narrower than
        # the stop width, and its lower end is the answer
        assert ls.eta_inv(5e-324) == 5e-324


class TestMinimizeOnInterval:
    def test_quadratic(self):
        rep, val = minimize_on_interval(lambda t: (t - 1.0) ** 2, (0.0, 2.0))
        assert rep.value == pytest.approx(1.0, abs=1e-8)
        assert val == pytest.approx(0.0, abs=1e-15)
        assert rep.method == "grid-refine"

    def test_cosine(self):
        rep, val = minimize_on_interval(math.cos, (0.0, 2 * PI))
        assert rep.value == pytest.approx(PI, abs=1e-8)
        assert val == pytest.approx(-1.0, abs=1e-14)

    def test_endpoint_minimum(self):
        rep, val = minimize_on_interval(lambda t: t, (2.0, 5.0))
        assert rep.value == pytest.approx(2.0, abs=1e-9)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_never_above_probe_points(self):
        fn = lambda t: math.sin(3 * t) + 0.1 * t
        lo, hi = 0.3, 6.0
        _, val = minimize_on_interval(fn, (lo, hi))
        assert val <= min(fn(lo), fn(hi), fn(0.5 * (lo + hi))) + 1e-15

    def test_kp_objective_matches_oracle(self):
        # the vertical-line objective on its standard interval, against the
        # dense-grid reference
        beta = 1.0
        _, half_sq = minimize_on_interval(
            lambda t: hd.lambda_big(beta, t), hd.vertical_bracket(beta)
        )
        reference = hd.oracle_dist(beta, 0.0)
        assert math.sqrt(2 * half_sq) == pytest.approx(reference.value, abs=1e-7)

    def test_non_finite_sample(self):
        with pytest.raises(NonFiniteSampleError) as exc:
            minimize_on_interval(lambda t: math.inf if t > 0.5 else t, (0.0, 1.0))
        assert exc.value.node_index > 0

    def test_degenerate_interval(self):
        rep, val = minimize_on_interval(lambda t: (t - 3.0) ** 2, (1.0, 1.0))
        assert rep.value == 1.0
        assert val == 4.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            minimize_on_interval(lambda t: (t - 1.0) ** 2, (0.0, 2.0), tol=tol)

    def test_zero_tolerance_refines_to_the_budget(self):
        rep, val = minimize_on_interval(lambda t: (t - 1.0) ** 2, (0.0, 2.0), tol=0.0)
        assert rep.iterations == 200
        assert rep.value == pytest.approx(1.0, abs=1e-8)


class TestArrayScan:
    """The scan of a line row (_minimize_rows, ROW_CELLS + 1 nodes in
    Python floats) and minimize_on_interval's 257-node array scan each
    reject the first non-finite node of their own nodes, and keep the
    first of tied minima."""

    def test_non_finite_node_matches_scalar_scan(self):
        fn = lambda t: math.inf if t > 0.5 else t
        with pytest.raises(NonFiniteSampleError) as scalar:
            minimize_on_interval(fn, (0.0, 1.0))
        (row,) = solvers._minimize_rows([_no_derivative(fn)], [0.0], [1.0])
        assert scalar.value.node_index == 129
        assert (row.node_index, row.x) == (5, 0.625) == (5, row_nodes(0.0, 1.0)[5])
        assert type(scalar.value.x) is float and type(row.x) is float

    def test_nan_node_is_rejected(self):
        with pytest.raises(NonFiniteSampleError) as exc:
            minimize_on_interval(lambda t: math.nan if t == 0.25 else t, (0.0, 1.0))
        assert exc.value.node_index == 64
        (row,) = solvers._minimize_rows(
            [_no_derivative(lambda t: math.nan if t == 0.25 else t)], [0.0], [1.0]
        )
        assert row.node_index == 2 and math.isnan(row.value)

    def test_tie_goes_to_lowest_index(self):
        # equal minima at the nodes 0.25 and 0.75 of both scans
        fn = lambda t: abs(abs(t - 0.5) - 0.25)
        rep, val = minimize_on_interval(fn, (0.0, 1.0))
        ((row, row_val),) = solvers._minimize_rows([_no_derivative(fn)], [0.0], [1.0])
        assert (row.value, row_val) == (rep.value, val) == (0.25, 0.0)
        assert (row.iterations, row.method) == (0, "scan-node")
        assert type(row.value) is float and type(row_val) is float

    def test_zero_width_interval_returns_lo(self):
        # every node is lo, and the refine stays there
        fn = lambda t: (t - 3.0) ** 2
        rows = solvers._minimize_rows(
            [_no_derivative(fn), _with_slope(fn, lambda t: 2.0 * (t - 3.0))],
            [1.0, 1.0], [1.0, 1.0],
        )
        for rep, val in [minimize_on_interval(fn, (1.0, 1.0)), *rows]:
            assert (rep.value, rep.iterations, rep.residual) == (1.0, 0, 0.0)
            assert val == 4.0

    def test_narrow_interval_is_scanned(self):
        # a window as narrow as a near-diagonal line's tangency window, with
        # its minimum at hi: the scan finds it, fn(lo) alone would not
        lo = 1e-4
        hi = lo + 6e-13
        fn = lambda t: hi - t
        rows = solvers._minimize_rows(
            [_no_derivative(fn), _with_slope(fn, lambda t: -1.0)], [lo, lo], [hi, hi],
        )
        for rep, val in [minimize_on_interval(fn, (lo, hi)), *rows]:
            assert (rep.value, val) == (hi, 0.0)


def row_nodes(lo, hi):
    """The nodes of a line row's scan, lo + j*(hi - lo)/ROW_CELLS with the
    last one hi, as _minimize_row builds them."""
    h = (hi - lo) / solvers.ROW_CELLS
    return [lo + j * h for j in range(solvers.ROW_CELLS)] + [hi]


def _with_slope(fn, dfn):
    """The one closure the refine takes: t -> (fn(t), dfn(t))."""
    return lambda t: (fn(t), dfn(t))


def _no_derivative(fn):
    """fn's closure with a slope that is nan everywhere: every row keeps
    its best scan node."""
    return lambda t: (fn(t), math.nan)


def _objective_rows():
    """Rows of (objective, bracket, derivative) for _minimize_rows:
    interior, endpoint and tied minima, zero-width and narrow intervals,
    rejected brackets, a non-finite node and an objective that raises."""
    rows = []
    for k in range(12):
        # up to two local minima, more than a cell apart, as the scan of a
        # row needs (test_wiggle_within_a_cell_keeps_the_best_node)
        c = -1.0 + 0.37 * k
        rows.append((lambda t, c=c: (t - c) ** 2 + 0.3 * math.cos(3.0 * t),
                     (-2.0 + 0.1 * k, 3.0 - 0.05 * k),
                     lambda t, c=c: 2.0 * (t - c) - 0.9 * math.sin(3.0 * t)))
    rows += [
        (lambda t: t * t, (0.5, 4.0), lambda t: 2.0 * t),             # endpoint
        (lambda t: abs(abs(t - 0.5) - 0.25), (0.0, 1.0), lambda t: math.nan),  # tie
        (lambda t: (t - 3.0) ** 2, (1.0, 1.0), lambda t: 2.0 * (t - 3.0)),
        (lambda t: t, (2.0, 2.0 + 1e-14), lambda t: 1.0),             # flat
        (lambda t: t, (1.0, 0.0), lambda t: 1.0),                     # reversed
        (lambda t: math.inf if t > 0.5 else t, (0.0, 1.0), lambda t: 1.0),  # inf node
        (lambda t: math.nan, (3.0, 3.0), lambda t: math.nan),
    ]

    def raising(t):
        raise DomainError(f"no value at {t!r}")

    rows.append((raising, (0.0, 1.0), raising))
    rows.append((raising, (0.25, 0.25), raising))
    rows += [(lambda t: (t - 0.3) ** 4, (0.0, 2.0 ** k), lambda t: 4.0 * (t - 0.3) ** 3)
             for k in range(-3, 9)]
    return rows


def _minimize_rows(rows, derivatives=False):
    """_minimize_rows on the rows, with their derivatives, or with none, so
    that every row keeps its best scan node."""
    return solvers._minimize_rows(
        [_with_slope(r[0], r[2]) if derivatives else _no_derivative(r[0]) for r in rows],
        [r[1][0] for r in rows], [r[1][1] for r in rows],
    )


def _golden_on_row_scan(fn, bracket, tol):
    """minimize_on_interval on the nodes of a line row's scan: the golden
    refine in the cell pair around the first minimum of row_nodes."""
    solvers._check_interval(*bracket)
    nodes = np.array(row_nodes(*bracket))
    return solvers._refine(fn, nodes, np.array([fn(x) for x in nodes.tolist()]), tol)


def _result(call):
    try:
        rep, val = call()
    except HestonDistError as exc:
        return type(exc).__name__, exc.args, getattr(exc, "node_index", None)
    return rep.value.hex(), rep.iterations, rep.residual.hex(), rep.method, val.hex()


class TestMinimizeRows:
    """_minimize_rows scans every row at ROW_CELLS + 1 nodes and raises
    minimize_on_interval's errors; a row keeps the first minimum node where
    its slope brackets no root, and every other row's minimum lies within
    the row gate of the golden refine's from the same nodes."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.0, -1.0])
    def test_matches_minimize_on_interval(self, tol):
        # the rows raise the errors of minimize_on_interval, at the first
        # bad node of their own scan; the rows take no tolerance, so the
        # one minimize_on_interval rejects moves none
        rows = _objective_rows()
        if tol < 0.0:
            with pytest.raises(DomainError):
                minimize_on_interval(rows[0][0], rows[0][1], tol=tol)
            tol = solvers.MIN_TOL
        want = [
            _result(lambda r=r: _golden_on_row_scan(r[0], r[1], tol)) for r in rows
        ]
        scalar = [
            _result(lambda r=r: minimize_on_interval(r[0], r[1], tol=tol))[0]
            for r in rows
        ]
        for r, g, w, kind in zip(rows, _minimize_rows(rows), want, scalar):
            if isinstance(g, HestonDistError):
                assert _result(lambda g=g: _raise_or(g)) == w
                assert type(g).__name__ == kind
                continue
            rep, val = g
            # the first minimum node of the row's scan and its cell pair
            nodes = np.array(row_nodes(*r[1]))
            fs = np.array([r[0](x) for x in nodes.tolist()])
            i, a, b = solvers._best_cell(nodes, fs)
            assert (rep.value, rep.iterations, rep.residual, rep.method, val) == (
                nodes[i], 0, b - a, "scan-node", fs[i]
            )
            assert float.fromhex(w[4]) <= val
        methods = set()
        for g, w in zip(_minimize_rows(rows, derivatives=True), want):
            if isinstance(g, HestonDistError):
                assert _result(lambda g=g: _raise_or(g)) == w
                continue
            rep, val = g
            methods.add(rep.method)
            assert _within_gate(val, float.fromhex(w[4])), (rep, w)
        assert methods == {"derivative-root", "endpoint", "scan-node"}

    def test_wiggle_within_a_cell_keeps_the_best_node(self):
        # the scan resolves only minima more than a cell apart: where the
        # cell after the best node holds a lower minimum and a maximum,
        # the slopes at the nodes bracket no root, and the row keeps its
        # best node above the minimum a 257-node scan finds.  The line
        # rows have one minimum each (README, "Numerical notes").
        fn = lambda t: (t + 1.0) ** 2 + 0.1 * math.cos(7.0 * t)
        dfn = lambda t: 2.0 * (t + 1.0) - 0.7 * math.sin(7.0 * t)
        ((rep, val),) = solvers._minimize_rows([_with_slope(fn, dfn)], [-2.0], [3.0])
        nodes = row_nodes(-2.0, 3.0)
        i = nodes.index(rep.value)
        assert rep.method == "scan-node" and fn(nodes[i + 1]) > val
        assert all(dfn(t) < 0.0 for t in nodes[i - 1:i + 2])
        assert minimize_on_interval(fn, (-2.0, 3.0))[1] < val - 0.05

    def test_non_finite_node(self):
        err = _minimize_rows(_objective_rows(), derivatives=True)[17]
        assert isinstance(err, NonFiniteSampleError)
        assert (err.node_index, err.x, err.value) == (5, 0.625, math.inf)
        assert type(err.x) is float

    def test_every_scanned_row_fails(self):
        rows = [_objective_rows()[i] for i in (17, 19)]  # inf node, raises
        got = _minimize_rows(rows, derivatives=True)
        assert [type(g) for g in got] == [NonFiniteSampleError, DomainError]

    def test_refine_is_golden_on_the_scalar_objective(self):
        # the reference of the row gate, minimize_on_interval, calls the
        # objective after its scan exactly at the points _golden visits in
        # the cell pair around the scan's minimum
        fn = lambda t: math.cos(3.0 * t) + 0.01 * t
        seen, visited = [], []
        rep, val = minimize_on_interval(lambda t: seen.append(t) or fn(t), (0.0, 2.5))
        nodes = solvers._scan_nodes(0.0, 2.5)
        i, a, b = solvers._best_cell(nodes, np.cos(3.0 * nodes) + 0.01 * nodes)
        gx, gf, iters, width = solvers._golden(
            lambda t: visited.append(t) or fn(t), a, b, solvers.MIN_TOL, 200
        )
        assert seen == [*nodes.tolist(), *visited]
        assert (rep, val) == ((gx, iters, width, "grid-refine"), gf)

    def test_no_sign_change_keeps_the_scan_node(self):
        # where the derivative gives no sign change, the closure is called
        # at the scan's nodes alone, and the row keeps the first minimum
        # node, with its cell pair's width as residual
        fn = lambda t: math.cos(3.0 * t) + 0.01 * t
        seen = []
        ((rep, val),) = solvers._minimize_rows(
            [_no_derivative(lambda t: seen.append(t) or fn(t))], [0.0], [2.5]
        )
        nodes = row_nodes(0.0, 2.5)
        assert seen == nodes
        assert (rep.value, rep.iterations, rep.residual, rep.method) == (
            nodes[3], 0, nodes[4] - nodes[2], "scan-node"
        )
        assert val == fn(rep.value) == min(map(fn, nodes))
        assert minimize_on_interval(fn, (0.0, 2.5))[1] <= val

    def test_refine_solves_the_derivative_root(self):
        # the slope changes sign between the best node and its upper
        # neighbour: Brent on the slope in that cell, from the slopes the
        # scan took, and the objective at the root is the value the
        # closure gave with the slope there
        fn = lambda t: math.cos(3.0 * t) + 0.01 * t
        dfn = lambda t: -3.0 * math.sin(3.0 * t) + 0.01
        seen = []
        ((rep, val),) = solvers._minimize_rows(
            [_with_slope(fn, lambda t: seen.append(t) or dfn(t))], [0.0], [2.5],
        )
        nodes = row_nodes(0.0, 2.5)
        a, b = nodes[3], nodes[4]
        assert dfn(a) < 0.0 < dfn(b) and dfn(nodes[2]) < 0.0
        root, _, iters = solvers._solve(
            dfn, a, b, 0.0, solvers._ROOT_XTOL_SCALE * solvers.MIN_TOL, 200, None, None
        )
        assert rep.method == "derivative-root"
        assert (rep.value, rep.iterations) == (root, iters)
        assert rep.residual == solvers._ROOT_XTOL_SCALE * solvers.MIN_TOL
        assert root in seen and val == fn(root)
        # each node's slope once, then one per Brent iteration but the last
        assert seen[:9] == nodes and len(seen) == 9 + iters - 1
        assert rep.value == pytest.approx((PI - math.asin(0.01 / 3.0)) / 3.0, abs=1e-12)
        _, golden = minimize_on_interval(fn, (0.0, 2.5))
        assert _within_gate(val, golden)

    def test_sign_change_below_the_best_node(self):
        # the slope changes sign between the best node and its lower
        # neighbour: the cell [i - 1, i] brackets the root
        fn = lambda t: (t - 0.36) ** 2
        dfn = lambda t: 2.0 * (t - 0.36)
        ((rep, val),) = solvers._minimize_rows([_with_slope(fn, dfn)], [0.0], [1.0])
        nodes = row_nodes(0.0, 1.0)
        assert min(map(fn, nodes)) == fn(nodes[3]) and dfn(nodes[2]) < 0.0 < dfn(nodes[3])
        assert rep.method == "derivative-root"
        assert rep.value == pytest.approx(0.36, abs=1e-12) and val == fn(rep.value)
        assert rep.residual == solvers._ROOT_XTOL_SCALE * solvers._golden_width(
            solvers.MIN_TOL, nodes[2], nodes[3]
        )

    @pytest.mark.parametrize("end, slope", [(1, -math.inf), (2, math.inf)])
    def test_infinite_end_slope_brackets_the_root(self, end, slope):
        # an infinite slope at an end of the cell pair (a line row's
        # tangency end, v = 0 on the oracle's line) brackets the root by
        # its sign, as a finite one does
        fn = lambda t: math.cos(3.0 * t) + 0.01 * t
        dfn = lambda t: -3.0 * math.sin(3.0 * t) + 0.01
        nodes = solvers._scan_nodes(0.0, 2.5)
        fs = np.array([fn(t) for t in nodes.tolist()])
        x = solvers._best_cell(nodes, fs)[end]
        pair = lambda t: (fn(t), slope if t == x else dfn(t))
        rep, val = solvers._refine_root(pair, nodes, fs)
        assert rep.method == "derivative-root"
        assert rep.value == pytest.approx((PI - math.asin(0.01 / 3.0)) / 3.0, abs=1e-12)
        assert val == fn(rep.value)
        # and on a row, at the end of the cell its scan brackets
        x = row_nodes(0.0, 2.5)[2 + end]
        ((rep, val),) = solvers._minimize_rows([pair], [0.0], [2.5])
        assert rep.method == "derivative-root"
        assert rep.value == pytest.approx((PI - math.asin(0.01 / 3.0)) / 3.0, abs=1e-12)

    @pytest.mark.parametrize("end", [1, 2])
    def test_nan_end_slope_keeps_the_scan_node(self, end):
        fn = lambda t: math.cos(3.0 * t) + 0.01 * t
        dfn = lambda t: -3.0 * math.sin(3.0 * t) + 0.01
        nodes = solvers._scan_nodes(0.0, 2.5)
        fs = np.array([fn(t) for t in nodes.tolist()])
        i, a, b = solvers._best_cell(nodes, fs)
        x = (a, b)[end - 1]
        pair = lambda t: (fn(t), math.nan if t == x else dfn(t))
        got = solvers._refine_root(pair, nodes, fs)
        assert got == ((nodes[i], 0, b - a, "scan-node"), fs[i])
        # the node the golden reference starts from, and keeps where it
        # finds nothing lower
        assert minimize_on_interval(fn, (0.0, 2.5))[1] <= fs[i]
        # a row whose best node's neighbours both have a nan slope
        rn = row_nodes(0.0, 2.5)
        pair = lambda t: (fn(t), math.nan if t in (rn[2], rn[4]) else dfn(t))
        ((rep, val),) = solvers._minimize_rows([pair], [0.0], [2.5])
        assert (rep, val) == ((rn[3], 0, rn[4] - rn[2], "scan-node"), fn(rn[3]))

    def test_endpoint_with_an_outward_derivative(self):
        # the first node is lowest and the derivative rises into the interval:
        # the node is the answer, and the closure is called at the nodes alone
        fn, dfn = (lambda t: t * t), (lambda t: 2.0 * t)
        seen = []
        ((rep, val),) = solvers._minimize_rows(
            [_with_slope(lambda t: seen.append(t) or fn(t), dfn)], [0.5], [4.0],
        )
        assert (rep.value, rep.iterations, rep.residual, rep.method) == (0.5, 0, 0.0, "endpoint")
        assert val == 0.25 and seen == row_nodes(0.5, 4.0)
        # the last node, falling toward it
        ((rep, val),) = solvers._minimize_rows([_with_slope(fn, dfn)], [-4.0], [-0.5])
        assert (rep.value, rep.method, val) == (-0.5, "endpoint", 0.25)

    def test_refine_evaluation_count(self):
        # the closure is called once for every slope the refine takes and
        # never again for a value: on a derivative-root row the two end
        # slopes and one per Brent iteration but the last, the value at the
        # root read from Brent's own call there; on an endpoint row once
        def counted(fn, dfn):
            return lambda t: calls.append(t) or (fn(t), dfn(t))

        calls = []
        fn = lambda t: math.cos(3.0 * t) + 0.01 * t
        nodes = solvers._scan_nodes(0.0, 2.5)
        rep, val = solvers._refine_root(
            counted(fn, lambda t: -3.0 * math.sin(3.0 * t) + 0.01),
            nodes, np.cos(3.0 * nodes) + 0.01 * nodes,
        )
        assert rep.method == "derivative-root" and rep.iterations > 1
        assert len(calls) == rep.iterations + 1 and val == fn(rep.value)
        calls.clear()
        nodes = solvers._scan_nodes(0.5, 4.0)
        rep, _ = solvers._refine_root(
            counted(lambda t: t * t, lambda t: 2.0 * t), nodes, nodes * nodes
        )
        assert rep.method == "endpoint" and calls == [0.5]
        # the rows of the line solver, every branch: each scan node once,
        # then one call per Brent iteration but the last
        methods = set()
        for line in ((2.0, 0.5), (0.5, 2.0), (1.0, -0.5), (0.5, -2.0), (0.01, 0.0),
                     (3.0, 0.0), (0.9, 0.9), (0.0, 1.5), (2e-3, 1e-3)):
            for row in ld._searches(*line, {}):
                calls.clear()
                pair = ld._row_fn(row)
                ((rep, val),) = solvers._minimize_rows(
                    [lambda t: calls.append(t) or pair(t)], [row.lo], [row.hi]
                )
                methods.add(rep.method)
                assert calls[:9] == row_nodes(row.lo, row.hi)
                want = 9 + (rep.iterations - 1 if rep.method == "derivative-root" else 0)
                assert len(calls) == want, (line, row, rep)
                assert len(set(calls)) == len(calls)
        assert methods == {"derivative-root", "endpoint"}

    def test_block_pick_matches_one_row_blocks(self):
        # each row's answer is the one it gets alone, bit for bit, whatever
        # rows it is minimized with, and each bad row fails alone with the
        # error type minimize_on_interval raises
        rows = _objective_rows()
        # twelve interior minima and one at an end, an inf node, a raising scan
        good, inf, raising = rows[:13], rows[17], rows[19]
        tie = (lambda t: abs(abs(t - 0.5) - 0.25), (0.0, 1.0),
               lambda t: math.copysign(1.0, (t - 0.5) * (abs(t - 0.5) - 0.25)))
        nan = (lambda t: math.nan if t > 0.6 else (t - 0.3) ** 2, (0.0, 1.0),
               lambda t: 2.0 * (t - 0.3))
        blocks = (good[:12] + [tie, nan, inf, raising], good + [tie, nan, inf],
                  [tie] + good)
        for block in blocks:
            got = _minimize_rows(block, derivatives=True)
            for row, result in zip(block, got):
                (alone,) = _minimize_rows([row], derivatives=True)
                assert _bits(result) == _bits(alone)
                if row in (nan, inf, raising):
                    with pytest.raises(HestonDistError) as want:
                        minimize_on_interval(row[0], row[1])
                    assert type(result) is type(want.value)
            # the first of the two minimum nodes
            assert got[block.index(tie)][0].value == 0.25
        errors = _minimize_rows([nan, inf, raising], derivatives=True)
        assert [(type(e), getattr(e, "node_index", None)) for e in errors] == [
            (NonFiniteSampleError, 5), (NonFiniteSampleError, 5),
            (DomainError, None),
        ]
        assert errors[0].x == 0.625 and math.isnan(errors[0].value)

    def test_an_inward_endpoint_derivative_is_solved(self):
        # the first node is lowest but the derivative points into the
        # interval: the root lies in the first cell
        fn = lambda t: (t - 1e-3) ** 2
        dfn = lambda t: 2.0 * (t - 1e-3)
        ((rep, val),) = solvers._minimize_rows([_with_slope(fn, dfn)], [0.0], [1.0])
        assert rep.method == "derivative-root"
        assert rep.value == pytest.approx(1e-3, abs=1e-15)


def _within_gate(value, golden):
    """At most 8 ulp of 1 above the golden refine's minimum: the terms of
    these objectives are of order 1, so a minimum near 0 carries their
    rounding, not its own."""
    return value <= golden + 8 * math.ulp(1.0)


def _bits(result):
    """A row's (report, value) with every float as float.hex, or its error's
    type, message and node fields."""
    if isinstance(result, Exception):
        fields = [getattr(result, k, None) for k in ("node_index", "x", "value")]
        return type(result), str(result), *(
            f.hex() if isinstance(f, float) else f for f in fields
        )
    rep, val = result
    return rep.value.hex(), rep.iterations, rep.residual.hex(), rep.method, val.hex()


def _raise_or(result):
    if isinstance(result, Exception):
        raise result
    return result
