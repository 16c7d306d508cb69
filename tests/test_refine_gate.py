"""The row gate of the line solver's minimization: on seeded line-mix-like
lines and 50-strike smile ladders, every row's minimum is within the gate
of minimize_on_interval's, a 257-node scan and a golden refine
(scripts/refine_gate.py holds the comparison and prints it for a whole
seed)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "refine_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("refine_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rows(gate):
    out = gate.compare(gate.line_mix(7, 1200))
    for ladder in gate.ladders(7, 20):
        out += gate.compare(ladder)
    return out


# Lines with rows that keep their best scan node: tangency windows about
# 3e-13 wide, where the objective's rounding outweighs its slope, so that
# the slopes at the nodes bracket no root.  The seeded sample above has
# none since the rows' ends have one-sided slopes in closed form.
SCAN_NODE_LINES = [
    (0.0052448240800975505, 0.005244829547027076),
    (-0.006544911509197225, -0.006544983851639132),
    (-0.00747526198761752, -0.0074754236624621755),
]


@pytest.fixture(scope="module")
def kept(gate):
    return [r for r in gate.compare(SCAN_NODE_LINES) if r.method == "scan-node"]


def test_rows_cover_every_method(gate, rows, kept):
    assert len(rows) >= 2000
    assert {r.method for r in rows} == {"derivative-root", "endpoint"}
    assert {r.method for r in rows + kept} == set(gate.METHODS)
    assert {r.row.branch for r in rows} == {
        "vertical-kp", "slanted-plus", "slanted-minus", "left-slanted"
    }


def test_every_row_is_within_the_gate(gate, rows):
    """At most ULP_GATE ulp above golden where |theta*| >= 1, at most
    BAND_RTOL relative above it elsewhere.  Golden's minimum is the lowest
    of some thirty values that each carry a few ulp of rounding, so it may
    sit that far below the exact minimum; a row beyond ULP_GATE ulp must
    then be no higher than golden's in exact arithmetic."""
    over = [r for r in rows if not r.passes()]
    assert all(abs(r.theta) >= 1.0 for r in over)
    assert all(r.ulps() <= 4 * gate.ULP_GATE for r in over)
    if over:
        mpmath = pytest.importorskip("mpmath")
        assert max(gate.exact_gap(r, mpmath) for r in over) <= 0.0


def test_golden_rows_equal_the_golden_refine(gate, rows):
    # the reference of the gate is minimize_on_interval's answer, bit for
    # bit, on every row of a few lines of each branch
    branches = {}
    for r in rows:
        branches.setdefault(r.row.branch, []).append(r)
    for sample in branches.values():
        for r in sample[:20]:
            fn = gate.ld._row_fn(r.row)
            rep, val = gate.solvers.minimize_on_interval(
                lambda t: fn(t)[0], (r.row.lo, r.row.hi)
            )
            assert (rep.value, val) == (r.golden_theta, r.golden)


def test_scan_node_rows_keep_the_best_node(gate, kept):
    # a row whose slope brackets no root keeps its first minimum node, one
    # of its scan nodes (all of them nodes of minimize_on_interval's scan
    # too), which the golden refine never lies above; its refine calls the
    # closure no more after the scan
    assert {r.line for r in kept} == set(SCAN_NODE_LINES)
    for r in kept:
        nodes = gate.solvers._scan_nodes(r.row.lo, r.row.hi).tolist()
        assert r.theta in nodes and r.golden <= r.value and r.evals == 0


def test_derivative_evaluations(gate, rows):
    # beyond the 9 scan nodes of every row, about 5 calls of the row's
    # closure per line-mix line in the refines, and none on an endpoint row
    lines = {r.line for r in rows}
    evals = sum(r.evals for r in rows)
    assert evals <= 8 * len(lines)
    assert all(r.evals == 0 for r in rows if r.method == "endpoint")
