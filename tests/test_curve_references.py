"""The level-curve functions against committed high-precision references.

``curve_references.txt`` is written by ``scripts/curve_references.py``
(mpmath, which this test does not need): theta log-uniform in bands from
1e-300 to 2*pi - 1e-3, x = psi(theta)*(1 + 10^U) with U in [-3, 3].  Each
function's worst relative error in each band must stay within its bound.
[1e-2, 1) is the cancellation band of the direct forms (theta - sin theta
is formed directly above SMALL_ANGLE), so its bounds are wider.

A value beyond the double range (the curvature near the curve start below
theta ~ 1e-154) is recorded as inf, and the function must return inf.
"""

import math
from pathlib import Path

import pytest

import hestondist as hd

BANDS = (1e-300, 1e-154, 1e-100, 1e-46, 1e-2, 1.0, 2.0 * math.pi)

# worst relative error allowed per band of BANDS
BOUNDS = {
    "v": (1e-12, 1e-12, 1e-12, 1e-12, 2e-8, 3e-12),
    "slope": (5e-13, 5e-13, 5e-13, 5e-13, 1e-8, 2e-12),
    "curvature": (5e-15, 5e-15, 5e-15, 5e-15, 3e-10, 2e-14),
    "lambda": (1e-10, 1e-10, 1e-10, 1e-10, 1e-9, 1e-14),
    "xi": (1e-15, 1e-15, 1e-15, 1e-15, 1e-11, 1e-15),
}

FUNCTIONS = {
    "v": lambda t, x: hd.curve_v(t, x),
    "slope": lambda t, x: hd.curve_slope(t, x),
    "curvature": lambda t, x: hd.curve_curvature(t, x),
    "lambda": lambda t, x: hd.lambda_big(x, t),
    "xi": lambda t, x: hd.xi(t),
}


def _rows():
    path = Path(__file__).with_name("curve_references.txt")
    with path.open() as fh:
        return [
            [float.fromhex(v) for v in line.split()]
            for line in fh
            if not line.startswith("#")
        ]


ROWS = _rows()


def _band(theta: float) -> int:
    return next(i for i, hi in enumerate(BANDS[1:]) if theta < hi)


def test_every_band_is_covered():
    assert len(ROWS) == 1800
    assert {_band(t) for t, *_ in ROWS} == set(range(len(BANDS) - 1))


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_worst_error_per_band(name):
    fn, col = FUNCTIONS[name], 2 + list(FUNCTIONS).index(name)
    worst = [0.0] * (len(BANDS) - 1)
    beyond = 0
    for row in ROWS:
        theta, x, ref = row[0], row[1], row[col]
        got = fn(theta, x)
        if math.isinf(ref):
            assert got == ref, (theta, x, got)
            beyond += 1
            continue
        band = _band(theta)
        worst[band] = max(worst[band], abs(got - ref) / abs(ref))
    assert all(w <= b for w, b in zip(worst, BOUNDS[name])), worst
    # only the curvature leaves the double range on these points
    assert (beyond > 0) == (name == "curvature")
