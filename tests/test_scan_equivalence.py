"""The block kernel of every line-solver objective equals the row's
one-frame scalar objective bit for bit on the scan nodes and at the points
either refine visits, so the 2-D scan changes no answer."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hestondist as hd
from conftest import line_objective
from hestondist import corefuncs as cf
from hestondist import linedist as ld
from hestondist import solvers
from hestondist.solvers import SCAN_BLOCK_ROWS, SCAN_CELLS, minimize_on_interval


def scan_nodes(lo, hi, cells=SCAN_CELLS):
    """The nodes of the scalar scan, built as minimize_on_interval does."""
    h = (hi - lo) / cells
    return [lo + i * h for i in range(cells)] + [hi]


def assert_same_bits(scalar_values, array_values):
    want = np.array(scalar_values, dtype=float)
    got = np.asarray(array_values, dtype=float)
    assert got.shape == want.shape
    diff = np.flatnonzero(want.view(np.int64) != got.view(np.int64))
    assert diff.size == 0, (
        f"{diff.size} nodes differ; first at {diff[0]}: "
        f"{want[diff[0]]!r} vs {got[diff[0]]!r}"
    )


def check_objective(objective, nodes):
    fn, fn_many = objective
    xs = np.array(nodes)
    xs.flags.writeable = False
    assert_same_bits([fn(x) for x in nodes], fn_many(xs))


def seeded_lines():
    rng = random.Random(20261018)
    lines = [
        (1.0, 0.0), (0.01, 0.0), (3.0, 0.0),   # vertical, both kp brackets
        (0.9, 0.9), (2.0, 5.0),                 # beta == gamma, losing minus
        (0.5, 2.0), (2.0, 0.5),                 # two branches, both orders
        (0.0, 1.5), (0.0, 4e-3),                # axis node, minus branch
        (1.0, -0.5), (0.5, -2.0),               # left-slanted, both sides
        (2e-3, -1e-3), (1e-3, -4e-3),           # left-slanted, small angles
        (17.0, -49.0),                          # best node next to the axis node
    ]
    for _ in range(40):
        beta = math.copysign(10.0 ** rng.uniform(-4.0, 2.0), rng.choice((-1, 1)))
        gamma = math.copysign(10.0 ** rng.uniform(-4.0, 2.0), rng.choice((-1, 1)))
        lines.append((beta, gamma))
    return lines


@pytest.fixture(scope="module")
def captured():
    """Every row _solve_many minimizes for dist_to_line on the seeded lines,
    as a dict: the row, its one-frame closure fn of (objective, slope), the
    block scan and the row's index in it, the row's result and every row of
    its batch."""
    found, tables = [], []
    minimize_rows, searches = ld._minimize_rows, ld._searches

    def record_rows(beta, gamma, memo):
        rows = searches(beta, gamma, memo)
        tables.append(rows)
        return rows

    def record(fns, scan, los, his):
        results = minimize_rows(fns, scan, los, his)
        rows = [r for table in tables for r in table]
        tables.clear()
        assert [(r.lo, r.hi) for r in rows] == list(zip(los, his))
        for i, row in enumerate(rows):
            found.append(dict(row=row, fn=fns[i], scan=scan, index=i,
                              result=results[i], batch=(fns, los, his)))
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ld, "_searches", record_rows)
        mp.setattr(ld, "_minimize_rows", record)
        for beta, gamma in seeded_lines():
            ld.dist_to_line(beta, gamma)
    return found


def row_block(call):
    """The 2-D scan block of _minimize_rows that holds a captured row: the
    indices of its rows and their nodes."""
    fns, los, his = call["batch"]
    live = [i for i in range(len(fns)) if his[i] > los[i]]
    start = live.index(call["index"]) // SCAN_BLOCK_ROWS * SCAN_BLOCK_ROWS
    rows = live[start:start + SCAN_BLOCK_ROWS]
    lo, hi = np.array([[los[i]] for i in rows]), np.array([[his[i]] for i in rows])
    return rows, solvers._scan_nodes(lo, hi)


class TestObjectivesOnScanNodes:
    def test_every_call_site_passes_an_array_form(self, captured):
        # every branch is minimized through the block scan
        assert {c["row"].branch for c in captured} == {
            "vertical-kp", "slanted-plus", "slanted-minus", "left-slanted"
        }
        assert all(c["row"].hi > c["row"].lo for c in captured)
        # the theta = 0 axis node is scanned on every axis-bounded branch
        assert {c["row"].branch for c in captured if c["row"].lo == 0.0} == {
            "slanted-minus", "left-slanted"
        }

    def test_array_form_matches_scalar_form(self, captured):
        axis_nodes = 0
        for call in captured:
            rows, nodes = row_block(call)
            values = call["scan"](rows, nodes)
            k = rows.index(call["index"])
            assert nodes[k].tolist() == scan_nodes(call["row"].lo, call["row"].hi)
            assert_same_bits([call["fn"](x)[0] for x in nodes[k].tolist()], values[k])
            axis_nodes += nodes[k, 0] == 0.0
        assert axis_nodes > 0

    def test_minimizer_result_is_unchanged(self, captured):
        # every row lies within the row gate of minimize_on_interval's
        # answer, the rows that start at the theta = 0 axis node included:
        # their closed-form slope there brackets the root of the slope
        methods, axis_roots = set(), 0
        for call in captured:
            fn, row = call["fn"], call["row"]
            want = minimize_on_interval(lambda t: fn(t)[0], (row.lo, row.hi))
            report, value = call["result"]
            methods.add(report.method)
            assert within_row_gate(value, report.value, want[1]), (row, report)
            axis_roots += row.axis is not None and report.method == "derivative-root"
        assert methods == {"derivative-root", "endpoint"}
        assert axis_roots > 0

    def test_nodes_straddle_small_angle(self):
        nodes = scan_nodes(*hd.vertical_bracket(0.01))
        assert nodes[0] < cf.SMALL_ANGLE < nodes[-1]
        check_objective(line_objective(0.01, 0.0), nodes)
        check_objective(line_objective(0.004, 0.006, minus=True), nodes)

    def test_coefficients(self):
        # the kernel's A and B (the direct forms, the series below
        # SMALL_ANGLE) and sin(theta/2) equal cf._coefs and math.sin: on the
        # objective of each root of two lines, which both coefficients and
        # the sine move
        nodes = scan_nodes(1e-300, 2.0 * math.pi - 1e-9) + scan_nodes(1e-4, 0.03)
        assert min(nodes) < cf.SMALL_ANGLE < max(nodes)
        for beta, gamma in ((0.5, 2.0), (2.0, 0.5)):
            for minus in (False, True):
                check_objective(line_objective(beta, gamma, minus=minus), nodes)

    def test_smallest_subnormals(self):
        # below theta = 2e-323 the series' theta*p3 underflows to 0 and B is
        # inf in both forms
        nodes = [5e-324, 1e-323, 1.5e-323, 2e-323, 1e-300]
        for beta, gamma in ((1.0, 0.5), (0.5, 2.0), (0.01, 0.0)):
            for minus in (False, True):
                check_objective(line_objective(beta, gamma, minus=minus), nodes)
        row = ld._Search("", 1.0, 0.5, False, 5e-324, 5e-324)
        assert_same_bits([ld._row_fn(row)(5e-324)[0]],
                         ld._scan_block([row], np.array([[5e-324]]))[0])

    def test_coefficients_reject_the_first_node_outside_the_domain(self):
        objective = line_objective(1.0, 0.5)[1]
        with pytest.raises(hd.DomainError, match="got 0.0"):
            objective(np.array([0.5, 0.0, -1.0]))
        with pytest.raises(hd.DomainError):
            objective(np.array([0.5, math.nan]))
        # an axis node is inside; the first node outside is named
        with pytest.raises(hd.DomainError, match="got -1.0"):
            line_objective(1.0, -0.5, axis=2.0)[1](np.array([0.5, 0.0, -1.0]))
        # in a block, theta = 0 is an axis node only in a row with an axis
        rows = [ld._Search("", 1.0, -0.5, False, 0.0, 1.0, 2.0),
                ld._Search("", 1.0, 0.5, False, 0.0, 1.0)]
        with pytest.raises(hd.DomainError, match="got 0.0"):
            ld._scan_block(rows, np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert ld._scan_block(rows, np.array([[0.0, 0.5], [0.5, 0.25]]))[0, 0] == (
            ld._axis_value(2.0)
        )

    def test_minus_branch_pole(self):
        # a node where 1 - gamma*B is exactly zero: the scalar root is +inf
        theta = next(
            t for t in scan_nodes(0.5, 2.0) if 1.0 - (1.0 / cf.coef_B(t)) * cf.coef_B(t) == 0.0
        )
        gamma = 1.0 / cf.coef_B(theta)
        beta = 0.5 * gamma
        nodes = scan_nodes(theta - 0.25, theta) + [theta + 1e-3]
        assert cf._s_minus_raw(beta, gamma, theta) == math.inf
        fn, fn_many = line_objective(beta, gamma, minus=True)
        assert_same_bits(
            [lam(t, cf._s_minus_raw(beta, gamma, t)) for t in nodes],
            fn_many(np.array(nodes)),
        )
        check_objective((fn, fn_many), nodes)

    def test_clamped_negative_discriminant(self):
        beta, gamma = 2.0, 0.5
        lo = hd.eta_alpha_inv(beta, gamma)
        nodes = scan_nodes(0.5 * lo, hd.psi_inv(gamma) - 1e-9)
        assert any(cf.discriminant(beta, gamma, t) < 0.0 for t in nodes)
        check_objective(line_objective(beta, gamma), nodes)
        check_objective(line_objective(beta, gamma, minus=True), nodes)

    def test_overflow_saturates(self):
        beta, gamma = 1e300, 2e300
        nodes = scan_nodes(0.1, 3.0)
        fn, _ = line_objective(beta, gamma)
        assert any(fn(t) == ld._HUGE for t in nodes)
        check_objective(line_objective(beta, gamma), nodes)
        check_objective(line_objective(beta, gamma, minus=True), nodes)

    def test_root_clamps(self):
        # one node for each clamp of a raw root: (theta, beta, gamma, minus)
        # and the root it reaches.  A zero root is -0.0: p = 1 - beta*B is
        # +0.0 where it vanishes, and p/(A - root) has the sign of A < 0.
        recip_1 = 1.0 / cf.coef_B(1.0)
        recip_small = 1.0 / cf.coef_B(1e-3)
        assert 1.0 - recip_1 * cf.coef_B(1.0) == 0.0
        assert 1.0 - recip_small * cf.coef_B(1e-3) == 0.0
        cases = [
            # p = 1 - beta*B = 0 and 1 - gamma*B = inf: a nan discriminant
            (1.0, recip_1, -1e308, False, math.isnan),
            (1.0, -1e308, 0.0, False, lambda s: s == -math.inf),
            (2.5, 0.0, 0.0, False, lambda s: -math.inf < s < 0.0),
            (6.0, 1e300, -1.0, False, lambda s: 1e148 < s < ld._ROOT_HUGE),
            (1e-3, recip_small, 0.0, False, lambda s: s == 0.0 and math.copysign(1.0, s) < 0.0),
            (3.0, 2.0, 0.5, False, lambda s: 0.0 < s < 1.0),
            (1.0, recip_1, 0.0, False, lambda s: s == 0.0 and math.copysign(1.0, s) < 0.0),
            (6.2, 1e300, 1e5, False, lambda s: ld._ROOT_HUGE < s < math.inf),
            (2.0, 1e200, 1e5, False, lambda s: ld._ROOT_HUGE < s < math.inf),
            (1.0, 0.5 * recip_1, recip_1, True, lambda s: s == math.inf),
            (1.0, -1e308, 1e308, False, math.isnan),
        ]
        rows = [ld._Search("", beta, gamma, minus, t, t) for t, beta, gamma, minus, _ in cases]
        roots = []
        for t, beta, gamma, minus, kind in cases:
            roots.append((cf._s_minus_raw if minus else cf._s_plus_raw)(beta, gamma, t))
            assert kind(roots[-1]), (t, beta, gamma, roots[-1])
        thetas = [c[0] for c in cases]
        got = ld._scan_block(rows, np.array(thetas)[:, None])[:, 0]
        assert_same_bits([lam(t, s) for t, s in zip(thetas, roots)], got)
        assert_same_bits([ld._row_fn(r)(t)[0] for r, t in zip(rows, thetas)], got)
        assert got[-3] == got[-4] == ld._HUGE

    def test_block_matches_each_row(self):
        # one 16-row block that mixes plus and minus rows, axis rows, a row
        # across SMALL_ANGLE, all-series rows, the minus pole, a clamped
        # discriminant and saturated values, against each row's scalar
        # objective node by node and against the row scanned alone
        pole = next(
            t for t in scan_nodes(0.5, 2.0) if 1.0 - (1.0 / cf.coef_B(t)) * cf.coef_B(t) == 0.0
        )
        gamma = 1.0 / cf.coef_B(pole)
        tangency = hd.eta_alpha_inv(2.0, 0.5)
        rows = [
            ld._Search("slanted-minus", 0.5 * gamma, gamma, True, pole - 0.25, pole),
            ld._Search("slanted-plus", 2.0, 0.5, False, 0.5 * tangency, hd.psi_inv(0.5) - 1e-9),
            ld._Search("slanted-minus", 2.0, 0.5, True, 0.5 * tangency, hd.psi_inv(0.5) - 1e-9),
        ]
        for line in ((2.0, 0.5), (0.5, 2.0), (1.0, -0.5), (0.5, -2.0), (0.0, 1.5),
                     (0.01, 0.0), (1e-3, 0.0), (2e-3, -1e-3), (1e300, 2e300), (0.9, 0.9),
                     (50.0, 80.0)):
            beta, gamma, _ = ld._prelude(*line)
            rows += ld._searches(beta, gamma, {})
        assert len(rows) == 16
        small = cf.SMALL_ANGLE
        assert {r.minus for r in rows} == {False, True}
        assert any(r.lo == 0.0 and r.axis is not None for r in rows)
        assert any(r.lo < small < r.hi for r in rows)
        assert any(r.hi < small for r in rows)
        assert cf._s_minus_raw(rows[0].beta, rows[0].gamma, rows[0].hi) == math.inf
        assert any(cf.discriminant(2.0, 0.5, t) < 0.0 for t in scan_nodes(rows[1].lo, rows[1].hi))
        nodes = np.array([scan_nodes(r.lo, r.hi) for r in rows])
        before = nodes.copy()
        values = ld._scan_block(rows, nodes)
        assert_same_bits(before, nodes)
        assert (values == ld._HUGE).any()
        for k, row in enumerate(rows):
            fn = ld._row_fn(row)
            assert_same_bits([fn(t)[0] for t in nodes[k].tolist()], values[k])
            assert_same_bits(values[k], ld._scan_block([row], nodes[k:k + 1])[0])

    def test_axis_node(self):
        for v_axis, beta, gamma in ((2.0, 1.0, -0.5), (0.0, 0.0, 1.5)):
            objective = line_objective(beta, gamma, axis=v_axis)
            check_objective(objective, scan_nodes(0.0, 1.5))
            assert objective[1](np.array([0.0]))[0] == ld._axis_value(v_axis)


def within_row_gate(value, theta, golden):
    """The row gate of the derivative-root refine against the golden refine
    on the same scan: at most 8 ulp above golden's minimum where
    |theta| >= 1, at most 5e-11 relative above it elsewhere (the band
    where the objective's cancellation puts up to ~1e-11 relative noise on
    a single value)."""
    if abs(theta) >= 1.0:
        return value <= golden + 8 * math.ulp(golden)
    return value <= golden * (1.0 + 5e-11)


def lam(theta, s):
    """The clamps of linedist._row_fn on a root s: a negative root counts as
    0, a non-finite one as _ROOT_HUGE, an overflowing value as _HUGE."""
    if s < 0.0:
        s = 0.0
    elif not math.isfinite(s):
        s = ld._ROOT_HUGE
    val = cf._half_sq_from_root(theta, s)
    return val if math.isfinite(val) else ld._HUGE


signed_magnitudes = st.tuples(
    st.floats(min_value=-4.0, max_value=2.0), st.sampled_from((-1.0, 1.0))
).map(lambda m: m[1] * 10.0 ** m[0])


@settings(max_examples=60, deadline=None)
@given(signed_magnitudes, signed_magnitudes)
def test_row_objective_matches_the_kernel(beta, gamma):
    """On log-uniform lines of both signs the one-frame objective of every
    row equals the kernel at the scan nodes of the line's 2-D block, at
    every point the golden refine visits and at every point the
    derivative-root refine evaluates."""
    line = ld._prelude(beta, gamma)
    assume(not isinstance(line, hd.DistanceSolution))
    rows = ld._searches(line[0], line[1], {})
    lo, hi = np.array([[r.lo] for r in rows]), np.array([[r.hi] for r in rows])
    assume((hi > lo).all())
    nodes = solvers._scan_nodes(lo, hi)
    block = ld._scan_block(rows, nodes)
    for k, row in enumerate(rows):
        pair = ld._row_fn(row)
        fn = lambda t: pair(t)[0]
        assert_same_bits([fn(x) for x in nodes[k].tolist()], block[k])
        visited = []
        i = int(block[k].argmin())
        a = float(nodes[k, max(i - 1, 0)])
        b = float(nodes[k, min(i + 1, SCAN_CELLS)])
        solvers._golden(lambda t: visited.append(t) or fn(t), a, b, 1e-9, 200)
        assert len(visited) >= 2
        solvers._refine_root(lambda t: visited.append(t) or pair(t), nodes[k], block[k])
        assert_same_bits(
            [fn(t) for t in visited], ld._scan_block([row], np.array([visited]))[0]
        )


def search_kind(beta, gamma, rows, row):
    """Which row of the case split in linedist._searches this is."""
    if gamma == 0.0:
        return "vertical, beta < pi/2" if beta < 0.5 * math.pi else "vertical, beta >= pi/2"
    if gamma < 0.0:
        return "left-slanted" if row.sign > 0.0 else "left-slanted, mirrored"
    if beta == 0.0:
        return "corner"
    if beta == gamma:
        return "diagonal"
    if gamma > beta:
        return "gamma > beta, plus only" if len(rows) == 1 else f"gamma > beta, {row.branch}"
    return f"beta > gamma, {row.branch}"


SEARCH_KINDS = {
    "vertical, beta < pi/2", "vertical, beta >= pi/2", "left-slanted",
    "left-slanted, mirrored", "corner", "diagonal", "gamma > beta, plus only",
    "gamma > beta, slanted-plus", "gamma > beta, slanted-minus",
    "beta > gamma, slanted-plus", "beta > gamma, slanted-minus",
}


def table_lines():
    """The seeded lines plus a log-uniform draw that reaches every row kind."""
    rng = random.Random(20261019)
    lines = seeded_lines()
    for _ in range(300):
        lines.append((10.0 ** rng.uniform(-4.0, 2.5),
                      math.copysign(10.0 ** rng.uniform(-4.0, 2.5), rng.choice((-1, 1)))))
    for _ in range(40):
        x = 10.0 ** rng.uniform(-4.0, 2.5)
        lines += [(x, 0.0), (0.0, x), (x, x), (x, x * (1.0 + rng.uniform(-1e-6, 1e-6)))]
    return lines


class TestSearchTable:
    """Every minimization of dist_to_line searches inside the paper's
    admissible index set for its root (all of it on a left-slanted line)."""

    def test_rows_lie_in_the_admissible_sets(self):
        kinds, outside, rows_seen = set(), [], 0
        for beta, gamma in table_lines():
            if beta < 0.0 or (beta == 0.0 and gamma < 0.0):
                beta, gamma = -beta, -gamma  # dist_to_line reflects first
            intervals = ld.admissible_intervals(beta, gamma)
            rows = ld._searches(beta, gamma, {})
            assert rows[0].branch != "slanted-minus" or len(rows) == 1
            for row in rows:
                rows_seen += 1
                kinds.add(search_kind(beta, gamma, rows, row))
                lo, hi = sorted((row.sign * row.lo, row.sign * row.hi))
                minus = row.branch == "slanted-minus"
                allowed = [
                    iv for iv in intervals
                    if gamma < 0.0 or (iv.branch_minus if minus else iv.branch_plus)
                ]
                if not (min(iv.lo for iv in allowed) <= lo <= hi
                        <= max(iv.hi for iv in allowed)):
                    outside.append((beta, gamma, row.branch, lo, hi, intervals))
        assert outside == []
        assert kinds == SEARCH_KINDS
        assert rows_seen > 600


# dist_to_line outputs, as float.hex(): (value, half_squared,
# theta_at_argmin, argmin.x, argmin.v) and the report's (value, iterations,
# residual, method).  Recorded when the derivative-root refine replaced the
# golden refine: the values moved by at most 1.6e-15 relative and theta* by
# at most 1.9e-8, and the iterations fell from 29-38 to 4-6.  The lines stay
# clear of the near-diagonal band beta ~ gamma <~ 1e-3.  When eta_inv moved
# to the Newton-bisection solve, the row of (0.9, 0.9), which starts at
# eta_inv(0.9), moved theta* by 3 ulp and kept its value bit for bit; when
# psi_inv did, the rows of (1.0, -0.5) and (-1.0, 0.3), which end at
# psi_inv(1.0), moved their values by 14 ulp and 1 ulp (1.8e-15 and
# 1.7e-16 relative) and theta* by 17 and 4 ulp.  When theta_crit moved to
# Brent's 4-ulp floor, the minus row of (0.001, 0.005), which ends at
# theta_crit(0.001, 0.005), moved theta* by 1 ulp and its value by 1 ulp up,
# to the correctly rounded minimum of a 60-digit mpmath golden search.
PINNED = [
    ((0.01, 0.0), "vertical-kp", ("0x1.47adbb00dfdf7p-7", "0x1.a36d49a283b5ap-15", "0x1.47acae941e275p-7",
        "0x1.47ae147ae147bp-7", "0x1.0001a36c64949p+0"), ("0x1.47acae941e275p-7", 6, "0x1.6b3b0cbd1f0f7p-47", "derivative-root")),
    ((1.0, 0.0), "vertical-kp", ("0x1.ee25534de7fd7p-1", "0x1.dcea0978ed7b7p-2", "0x1.bfabd562c1b96p-1",
        "0x1.0000000000000p+0", "0x1.37e96cbe6ac60p+0"), ("0x1.bfabd562c1b96p-1", 6, "0x1.f02dfafb71e6fp-41", "derivative-root")),
    ((3.0, 0.0), "vertical-kp", ("0x1.42143ac4aa586p+1", "0x1.9536e56ff8beap+1", "0x1.ae038068af1b5p+0",
        "0x1.8000000000000p+1", "0x1.1f3af6edd1ef4p+1"), ("0x1.ae038068af1b5p+0", 5, "0x1.19799812dea12p-40", "derivative-root")),
    ((0.9, 0.9), "slanted-plus", ("0x1.a1f4079353c84p+0", "0x1.552e74a63401bp+0", "0x1.a096a76f4b9e8p+0",
        "0x1.668738b4ac606p+0", "0x1.1cbab6e6d4646p-1"), ("0x1.a096a76f4b9e8p+0", 6, "0x1.19799812dea12p-40", "derivative-root")),
    ((2.0, 5.0), "slanted-plus", ("0x1.aed5c4eda14a0p+1", "0x1.6a896a07ca5fdp+2", "0x1.a0e4bda074c9fp+1",
        "0x1.1a4a0cf6d13d7p+1", "0x1.5080a5f0dcabbp-5"), ("0x1.a0e4bda074c9fp+1", 6, "0x1.19799812dea12p-40", "derivative-root")),
    ((0.5, 2.0), "slanted-minus", ("0x1.9e5cdd2a686e8p+0", "0x1.4f583e826fa96p+0", "0x1.85d7e83990a21p+0",
        "0x1.e75f431978634p-1", "0x1.cebe8632f0c67p-3"), ("0x1.85d7e83990a21p+0", 5, "0x1.19799812dea12p-40", "derivative-root")),
    ((2.0, 0.5), "slanted-plus", ("0x1.2f88831aa8905p+1", "0x1.67e46f24aa7d1p+1", "0x1.030be12adcf74p+1",
        "0x1.464ba43ce31abp+1", "0x1.192e90f38c6adp+0"), ("0x1.030be12adcf74p+1", 6, "0x1.19799812dea12p-40", "derivative-root")),
    ((0.0, 1.5), "slanted-minus", ("0x1.07c78d1c30f84p+0", "0x1.0fcb9f7c9c3a4p-1", "0x1.c428228e93ff0p-1",
        "0x1.41b173306753dp-1", "0x1.acec9995df1a7p-2"), ("0x1.c428228e93ff0p-1", 5, "0x1.f56096e19c8efp-41", "derivative-root")),
    ((1.0, -0.5), "left-slanted", ("0x1.b2edca27b2b63p-2", "0x1.71758f27438aap-4", "0x1.5e3c7b2449e87p-2",
        "0x1.885a7380228d2p-2", "0x1.3bd2c63feeb97p+0"), ("0x1.5e3c7b2449e87p-2", 6, "0x1.88804688a8254p-42", "derivative-root")),
    ((0.5, -2.0), "left-slanted", ("0x1.9f53e98b09c09p-1", "0x1.50e89559076a8p-2", "-0x1.16cadef826408p-1",
        "-0x1.8d088e68c3070p-2", "0x1.c684473461838p-2"), ("0x1.16cadef826408p-1", 5, "0x1.3c507a3732f33p-41", "derivative-root")),
    ((-1.0, 0.3), "left-slanted", ("0x1.441becbbac42ep-1", "0x1.9a56b246d68a3p-3", "-0x1.12a89372a76b0p-1",
        "-0x1.3bc5a04272c32p-1", "0x1.470bf4e696102p+0"), ("0x1.12a89372a76b0p-1", 6, "0x1.33a2cf7fddbc5p-41", "derivative-root")),
    ((0.001, 0.005), "slanted-minus", ("0x1.8936a4464f628p-8", "0x1.2dfc6804cb680p-16", "0x1.893670bc79478p-8",
        "0x1.893588d086107p-8", "0x1.fffd3f5f6b134p-1"), ("0x1.893670bc79478p-8", 4, "0x1.b057f76502b1dp-48", "derivative-root")),
    ((50.0, 80.0), "slanted-plus", ("0x1.7099292ed8aacp+4", "0x1.095c590477c4fp+8", "0x1.7037186604199p+2",
        "0x1.919a63790b0afp+5", "0x1.484f9408d5910p-9"), ("0x1.7037186604199p+2", 5, "0x1.19799812dea12p-40", "derivative-root")),
]


@pytest.mark.parametrize("line, branch, fields, report", PINNED)
def test_pinned_outputs(line, branch, fields, report):
    sol = hd.dist_to_line(*line)
    assert sol.branch == branch
    got = (sol.value, sol.half_squared, sol.theta_at_argmin, sol.argmin.x, sol.argmin.v)
    assert tuple(x.hex() for x in got) == fields
    rep = sol.report
    assert (rep.value.hex(), rep.iterations, rep.residual.hex(), rep.method) == report
