"""The row gate of the derivative-root refine: on seeded line-mix-like lines
and 50-strike smile ladders, every row's minimum is within the gate of the
golden refine's minimum on the same scan (scripts/refine_gate.py holds the
comparison and prints it for a whole seed)."""

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


def test_rows_cover_every_method(gate, rows):
    assert len(rows) >= 2000
    assert {r.method for r in rows} == set(gate.METHODS)
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


def test_golden_rows_equal_the_golden_refine(rows):
    # a row that falls back to golden has golden's answer, bit for bit
    golden = [r for r in rows if r.method == "grid-refine"]
    assert golden
    assert all(
        (r.value, r.theta) == (r.golden, r.golden_theta) for r in golden
    )


def test_derivative_evaluations(gate, rows):
    # about 7 calls of the row's closure per line-mix line, the golden
    # refine's calls on its few rows included (golden spends ~32 objective
    # evaluations per row)
    lines = {r.line for r in rows}
    evals = sum(r.evals for r in rows)
    assert evals <= 8 * len(lines)
    assert all(r.evals == 1 for r in rows if r.method == "endpoint")
