"""What the rows of dist_to_line search and what they return: every row
lies in the paper's admissible index set, each row's scan-and-refine lands
within the row gate of minimize_on_interval on the same objective, and the
outputs on a fixed set of lines are pinned bit for bit."""

import math
import random

import pytest

import hestondist as hd
from hestondist import linedist as ld
from hestondist import solvers


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


def within_row_gate(value, theta, golden):
    """The row gate of the derivative-root refine against the golden refine
    on the same scan: at most 8 ulp above golden's minimum where
    |theta| >= 1, at most 5e-11 relative above it elsewhere (the band
    where the objective's cancellation puts up to ~1e-11 relative noise on
    a single value)."""
    if abs(theta) >= 1.0:
        return value <= golden + 8 * math.ulp(golden)
    return value <= golden * (1.0 + 5e-11)


def test_rows_are_within_the_row_gate():
    # every row of the seeded lines lies within the row gate of
    # minimize_on_interval's answer on the row's objective, the rows that
    # start at the theta = 0 axis node included: their closed-form slope
    # there brackets the root of the slope
    methods, axis_roots, branches = set(), 0, set()
    for beta, gamma in seeded_lines():
        line = ld._prelude(beta, gamma)
        if isinstance(line, hd.DistanceSolution):
            continue
        rows = ld._searches(line[0], line[1], {})
        results = solvers._minimize_rows(
            [ld._row_fn(r) for r in rows], [r.lo for r in rows], [r.hi for r in rows]
        )
        for row, (report, value) in zip(rows, results):
            fn = ld._row_fn(row)
            want = hd.minimize_on_interval(lambda t: fn(t)[0], (row.lo, row.hi))
            methods.add(report.method)
            branches.add(row.branch)
            assert within_row_gate(value, report.value, want[1]), (row, report)
            axis_roots += row.axis is not None and report.method == "derivative-root"
    assert methods == {"derivative-root", "endpoint"}
    assert branches == {"vertical-kp", "slanted-plus", "slanted-minus", "left-slanted"}
    assert axis_roots > 0


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
# When the rows moved from the 257-node scan to the 9-node scan, whose cells
# are 32 times wider, Brent started from other brackets: the values moved
# by at most 9 ulp (1.6e-15 relative, (-1.0, 0.3)) and half_squared by at
# most 23 ulp (3.2e-15); theta* by at most 9.8e-14 relative ((0.0, 1.5));
# the iterations rose from 4-6 to 5-9 and the residuals of (0.01, 0.0),
# (1.0, 0.0), (0.0, 1.5), (1.0, -0.5), (0.5, -2.0) and (-1.0, 0.3) moved
# with their cells.
PINNED = [
    ((0.01, 0.0), "vertical-kp", ("0x1.47adbb00dfdf6p-7", "0x1.a36d49a283b59p-15", "0x1.47acae941e251p-7",
        "0x1.47ae147ae147bp-7", "0x1.0001a36c6497fp+0"), ("0x1.47acae941e251p-7", 7, "0x1.78aa29862ad98p-47", "derivative-root")),
    ((1.0, 0.0), "vertical-kp", ("0x1.ee25534de7fd9p-1", "0x1.dcea0978ed7bap-2", "0x1.bfabd562c1b97p-1",
        "0x1.0000000000000p+0", "0x1.37e96cbe6ac55p+0"), ("0x1.bfabd562c1b97p-1", 8, "0x1.19799812dea12p-40", "derivative-root")),
    ((3.0, 0.0), "vertical-kp", ("0x1.42143ac4aa586p+1", "0x1.9536e56ff8beap+1", "0x1.ae038068af1b5p+0",
        "0x1.8000000000000p+1", "0x1.1f3af6edd1ef4p+1"), ("0x1.ae038068af1b5p+0", 7, "0x1.19799812dea12p-40", "derivative-root")),
    ((0.9, 0.9), "slanted-plus", ("0x1.a1f4079353c84p+0", "0x1.552e74a63401bp+0", "0x1.a096a76f4b9e8p+0",
        "0x1.668738b4ac606p+0", "0x1.1cbab6e6d4646p-1"), ("0x1.a096a76f4b9e8p+0", 9, "0x1.19799812dea12p-40", "derivative-root")),
    ((2.0, 5.0), "slanted-plus", ("0x1.aed5c4eda14a0p+1", "0x1.6a896a07ca5fdp+2", "0x1.a0e4bda074c9ep+1",
        "0x1.1a4a0cf6d13d9p+1", "0x1.5080a5f0dcad5p-5"), ("0x1.a0e4bda074c9ep+1", 9, "0x1.19799812dea12p-40", "derivative-root")),
    ((0.5, 2.0), "slanted-minus", ("0x1.9e5cdd2a686e8p+0", "0x1.4f583e826fa95p+0", "0x1.85d7e83990a22p+0",
        "0x1.e75f431978636p-1", "0x1.cebe8632f0c6dp-3"), ("0x1.85d7e83990a22p+0", 6, "0x1.19799812dea12p-40", "derivative-root")),
    ((2.0, 0.5), "slanted-plus", ("0x1.2f88831aa8906p+1", "0x1.67e46f24aa7d2p+1", "0x1.030be12adcf75p+1",
        "0x1.464ba43ce31aap+1", "0x1.192e90f38c6a7p+0"), ("0x1.030be12adcf75p+1", 8, "0x1.19799812dea12p-40", "derivative-root")),
    ((0.0, 1.5), "slanted-minus", ("0x1.07c78d1c30f83p+0", "0x1.0fcb9f7c9c3a3p-1", "0x1.c428228e93ce7p-1",
        "0x1.41b17330671a5p-1", "0x1.acec9995decdcp-2"), ("0x1.c428228e93ce7p-1", 7, "0x1.19799812dea12p-40", "derivative-root")),
    ((1.0, -0.5), "left-slanted", ("0x1.b2edca27b2b64p-2", "0x1.71758f27438acp-4", "0x1.5e3c7b2449e93p-2",
        "0x1.885a7380228dap-2", "0x1.3bd2c63feeb93p+0"), ("0x1.5e3c7b2449e93p-2", 7, "0x1.5375dc2329a3ap-41", "derivative-root")),
    ((0.5, -2.0), "left-slanted", ("0x1.9f53e98b09c04p-1", "0x1.50e89559076a0p-2", "-0x1.16cadef826400p-1",
        "-0x1.8d088e68c3070p-2", "0x1.c684473461838p-2"), ("0x1.16cadef826400p-1", 7, "0x1.edc24e62a6f25p-41", "derivative-root")),
    ((-1.0, 0.3), "left-slanted", ("0x1.441becbbac437p-1", "0x1.9a56b246d68bap-3", "-0x1.12a89372a76aep-1",
        "-0x1.3bc5a04272c2bp-1", "0x1.470bf4e69610ep+0"), ("0x1.12a89372a76aep-1", 7, "0x1.5375dc2329a3ap-41", "derivative-root")),
    ((0.001, 0.005), "slanted-minus", ("0x1.8936a4464f629p-8", "0x1.2dfc6804cb682p-16", "0x1.893670bc79598p-8",
        "0x1.893588d0863d4p-8", "0x1.fffd3f5f6b594p-1"), ("0x1.893670bc79598p-8", 5, "0x1.b057f76502b1dp-48", "derivative-root")),
    ((50.0, 80.0), "slanted-plus", ("0x1.7099292ed8aacp+4", "0x1.095c590477c50p+8", "0x1.70371866041a4p+2",
        "0x1.919a63790b097p+5", "0x1.484f9408d45c0p-9"), ("0x1.70371866041a4p+2", 6, "0x1.19799812dea12p-40", "derivative-root")),
]


@pytest.mark.parametrize("line, branch, fields, report", PINNED)
def test_pinned_outputs(line, branch, fields, report):
    sol = hd.dist_to_line(*line)
    assert sol.branch == branch
    got = (sol.value, sol.half_squared, sol.theta_at_argmin, sol.argmin.x, sol.argmin.v)
    assert tuple(x.hex() for x in got) == fields
    rep = sol.report
    assert (rep.value.hex(), rep.iterations, rep.residual.hex(), rep.method) == report
