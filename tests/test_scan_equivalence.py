"""The array form of every line-solver objective equals its scalar form bit
for bit on the scan nodes, so passing ``fn_many`` changes no answer."""

import math
import random

import numpy as np
import pytest

import hestondist as hd
from hestondist import corefuncs as cf
from hestondist import linedist as ld
from hestondist.solvers import SCAN_CELLS, minimize_on_interval


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
    ]
    for _ in range(40):
        beta = math.copysign(10.0 ** rng.uniform(-4.0, 2.0), rng.choice((-1, 1)))
        gamma = math.copysign(10.0 ** rng.uniform(-4.0, 2.0), rng.choice((-1, 1)))
        lines.append((beta, gamma))
    return lines


@pytest.fixture(scope="module")
def captured():
    """Every minimize_on_interval call dist_to_line makes on the seeded
    lines: (branch of the answer, fn, bracket, fn_many)."""
    calls = []
    orig = ld.minimize_on_interval

    def record(fn, bracket, *args, **kwargs):
        calls.append([None, fn, bracket, kwargs.get("fn_many")])
        return orig(fn, bracket, *args, **kwargs)

    ld.minimize_on_interval = record
    try:
        for beta, gamma in seeded_lines():
            start = len(calls)
            branch = ld.dist_to_line(beta, gamma).branch
            for call in calls[start:]:
                call[0] = branch
    finally:
        ld.minimize_on_interval = orig
    return calls


class TestObjectivesOnScanNodes:
    def test_every_call_site_passes_an_array_form(self, captured):
        assert {c[0] for c in captured} == {
            "vertical-kp", "slanted-plus", "slanted-minus", "left-slanted"
        }
        assert all(fn_many is not None for _, _, _, fn_many in captured)
        # the theta = 0 axis node is scanned on every axis-bounded branch
        assert {c[0] for c in captured if c[2][0] == 0.0} == {
            "slanted-minus", "left-slanted"
        }

    def test_array_form_matches_scalar_form(self, captured):
        for _, fn, (lo, hi), fn_many in captured:
            if hi > lo:
                check_objective((fn, fn_many), scan_nodes(lo, hi))

    def test_minimizer_result_is_unchanged(self, captured):
        for _, fn, bracket, fn_many in captured:
            assert minimize_on_interval(fn, bracket) == minimize_on_interval(
                fn, bracket, fn_many=fn_many
            )

    def test_nodes_straddle_small_angle(self):
        nodes = scan_nodes(*hd.vertical_bracket(0.01))
        assert nodes[0] < cf.SMALL_ANGLE < nodes[-1]
        check_objective(ld._plus_objective(0.01, 0.0), nodes)
        check_objective(ld._minus_objective(0.004, 0.006), nodes)

    def test_coefficients(self):
        nodes = scan_nodes(1e-300, 2.0 * math.pi - 1e-9) + scan_nodes(1e-4, 0.03)
        a, b = cf.coefs_many(np.array(nodes))
        assert_same_bits([cf.coef_A(t) for t in nodes], a)
        assert_same_bits([cf.coef_B(t) for t in nodes], b)

    def test_coefficients_reject_the_first_node_outside_the_domain(self):
        with pytest.raises(hd.DomainError, match="got 0.0"):
            cf.coefs_many(np.array([0.5, 0.0, -1.0]))
        with pytest.raises(hd.DomainError):
            cf.coefs_many(np.array([0.5, math.nan]))

    def test_minus_branch_pole(self):
        # a node where 1 - gamma*B is exactly zero: the scalar root is +inf
        theta = next(
            t for t in scan_nodes(0.5, 2.0) if 1.0 - (1.0 / cf.coef_B(t)) * cf.coef_B(t) == 0.0
        )
        gamma = 1.0 / cf.coef_B(theta)
        beta = 0.5 * gamma
        nodes = scan_nodes(theta - 0.25, theta) + [theta + 1e-3]
        assert ld._s_minus_raw(beta, gamma, theta) == math.inf
        assert_same_bits(
            [ld._s_minus_raw(beta, gamma, t) for t in nodes],
            ld._s_minus_many(beta, gamma, np.array(nodes)),
        )
        check_objective(ld._minus_objective(beta, gamma), nodes)

    def test_clamped_negative_discriminant(self):
        beta, gamma = 2.0, 0.5
        lo = hd.eta_alpha_inv(beta, gamma)
        nodes = scan_nodes(0.5 * lo, hd.psi_inv(gamma) - 1e-9)
        assert any(cf.discriminant(beta, gamma, t) < 0.0 for t in nodes)
        check_objective(ld._plus_objective(beta, gamma), nodes)
        check_objective(ld._minus_objective(beta, gamma), nodes)

    def test_overflow_saturates(self):
        beta, gamma = 1e300, 2e300
        nodes = scan_nodes(0.1, 3.0)
        fn, _ = ld._plus_objective(beta, gamma)
        assert any(fn(t) == ld._HUGE for t in nodes)
        check_objective(ld._plus_objective(beta, gamma), nodes)
        check_objective(ld._minus_objective(beta, gamma), nodes)

    def test_root_clamps(self):
        roots = [-math.inf, -1.0, -0.0, 0.0, 0.5, 1e150, 1e160, 1e200, math.inf, math.nan]
        thetas = [1.0, 2.5, 6.0, 1e-3, 3.0, 1.0, 6.2, 2.0, 1.0, 1.0]
        with np.errstate(over="ignore"):
            got = ld._lam_many(np.array(thetas), np.array(roots))
        assert_same_bits([ld._lam(t, s) for t, s in zip(thetas, roots)], got)
        assert got[-3] == ld._HUGE

    def test_axis_node(self):
        for v_axis, beta, gamma in ((2.0, 1.0, -0.5), (0.0, 0.0, 1.5)):
            objective = ld._with_axis(v_axis, ld._plus_objective(beta, gamma))
            check_objective(objective, scan_nodes(0.0, 1.5))
            assert objective[1](np.array([0.0]))[0] == ld._axis_value(v_axis)


# dist_to_line outputs recorded before the array scan existed, as float.hex():
# (value, half_squared, theta_at_argmin, argmin.x, argmin.v) and the report's
# (value, iterations, residual).  The lines stay clear of the near-diagonal
# band beta ~ gamma <~ 1e-3.
PINNED = [
    ((0.01, 0.0), "vertical-kp", ("0x1.47adbb00dfdf7p-7", "0x1.a36d49a283b5bp-15", "0x1.47acae940af3ep-7",
        "0x1.47ae147ae147bp-7", "0x1.0001a36c82955p+0"), ("0x1.47acae940af3ep-7", 35, "0x1.fca9600000000p-38")),
    ((1.0, 0.0), "vertical-kp", ("0x1.ee25534de7fd1p-1", "0x1.dcea0978ed7aap-2", "0x1.bfabd58f42761p-1",
        "0x1.0000000000000p+0", "0x1.37e96c806726ap+0"), ("0x1.bfabd58f42761p-1", 35, "0x1.8d64540000000p-31")),
    ((3.0, 0.0), "vertical-kp", ("0x1.42143ac4aa584p+1", "0x1.9536e56ff8be5p+1", "0x1.ae03807405913p+0",
        "0x1.8000000000000p+1", "0x1.1f3af6deac803p+1"), ("0x1.ae03807405913p+0", 36, "0x1.81c8680000000p-31")),
    ((0.9, 0.9), "slanted-plus", ("0x1.a1f4079353c82p+0", "0x1.552e74a634018p+0", "0x1.a096a774e75ebp+0",
        "0x1.668738885eb9ap+0", "0x1.1cbab68460b8fp-1"), ("0x1.a096a774e75ebp+0", 30, "0x1.ba9e700000000p-31")),
    ((2.0, 5.0), "slanted-plus", ("0x1.aed5c4eda149fp+1", "0x1.6a896a07ca5fcp+2", "0x1.a0e4bd9b49b99p+1",
        "0x1.1a4a0d09463e9p+1", "0x1.5080a6dd1cba2p-5"), ("0x1.a0e4bd9b49b99p+1", 31, "0x1.92f2400000000p-31")),
    ((0.5, 2.0), "slanted-minus", ("0x1.9e5cdd2a686e8p+0", "0x1.4f583e826fa95p+0", "0x1.85d7e85c1695cp+0",
        "0x1.e75f43959ec02p-1", "0x1.cebe872b3d805p-3"), ("0x1.85d7e85c1695cp+0", 32, "0x1.6a02c80000000p-31")),
    ((2.0, 0.5), "slanted-plus", ("0x1.2f88831aa8905p+1", "0x1.67e46f24aa7d0p+1", "0x1.030be1419cd1fp+1",
        "0x1.464ba4202f600p+1", "0x1.192e9080bd800p+0"), ("0x1.030be1419cd1fp+1", 35, "0x1.ca2d600000000p-31")),
    ((0.0, 1.5), "slanted-minus", ("0x1.07c78d1c30f81p+0", "0x1.0fcb9f7c9c39fp-1", "0x1.c4282251fa21cp-1",
        "0x1.41b172e891ac0p-1", "0x1.acec993617900p-2"), ("0x1.c4282251fa21cp-1", 36, "0x1.81f2100000000p-31")),
    ((1.0, -0.5), "left-slanted", ("0x1.b2edca27b2b49p-2", "0x1.71758f274387fp-4", "0x1.5e3c7b7b3a2ebp-2",
        "0x1.885a73c9f4244p-2", "0x1.3bd2c61b05edep+0"), ("0x1.5e3c7b7b3a2ebp-2", 38, "0x1.da19500000000p-33")),
    ((0.5, -2.0), "left-slanted", ("0x1.9f53e98b09bffp-1", "0x1.50e8955907698p-2", "-0x1.16cadf4eb61c7p-1",
        "-0x1.8d088eff50258p-2", "0x1.c684477fa812cp-2"), ("0x1.16cadf4eb61c7p-1", 37, "0x1.16f28c0000000p-31")),
    ((-1.0, 0.3), "left-slanted", ("0x1.441becbbac425p-1", "0x1.9a56b246d688bp-3", "-0x1.12a8934c0a06ap-1",
        "-0x1.3bc5a02a220ecp-1", "0x1.470bf50f1c922p+0"), ("0x1.12a8934c0a06ap-1", 37, "0x1.7f8dd00000000p-32")),
    ((0.001, 0.005), "slanted-minus", ("0x1.8936a4464f62dp-8", "0x1.2dfc6804cb689p-16", "0x1.893670bbf2004p-8",
        "0x1.893588cf33df2p-8", "0x1.fffd3f5d5aa64p-1"), ("0x1.893670bbf2004p-8", 31, "0x1.2102bc0000000p-38")),
    ((50.0, 80.0), "slanted-plus", ("0x1.7099292ed8aabp+4", "0x1.095c590477c4ep+8", "0x1.7037186625f6cp+2",
        "0x1.919a6378c0ce4p+5", "0x1.484f93cd71c7dp-9"), ("0x1.7037186625f6cp+2", 29, "0x1.fb21a00000000p-31")),
]


@pytest.mark.parametrize("line, branch, fields, report", PINNED)
def test_pinned_outputs(line, branch, fields, report):
    sol = hd.dist_to_line(*line)
    assert sol.branch == branch
    got = (sol.value, sol.half_squared, sol.theta_at_argmin, sol.argmin.x, sol.argmin.v)
    assert tuple(x.hex() for x in got) == fields
    rep = sol.report
    assert (rep.value.hex(), rep.iterations, rep.residual.hex()) == report
