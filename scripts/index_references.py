#!/usr/bin/env python3
"""Record mpmath references for the arc index delta_of.

    PYTHONPATH=src python scripts/index_references.py > tests/index_references.txt

Each row is one point (x, v) and the root delta in (0, 2*pi) of the exact
equation f_of(v, delta) = |x| with x and v the doubles given, solved in 50
digits from the double answer and checked against a solve in 80 digits (a
row is written only if the two agree to 1e-40 relative).  The points are
those of ``tests/test_root_solve.py``'s pins, x = f_of(v, delta) for
v in (1, 0.25, 4, 37) at the small-angle deltas 1e-5, 3e-4, 2e-3, 9e-3,
the near-2*pi deltas 2*pi - (1e-3, 1e-6, 1e-9) and the mid-range deltas
0.7, 2.5, 4.1 (both signs of x at v = 1), then for v -> 0 (1e-6, 1e-10,
1e-14, 0) at deltas 0.01, 1.3, 3.0, 5.9; and the point (1e308, 1e308),
where f_of overflows before it reaches 2*pi.  Values are written as
``float.hex``; the tests read the file, so they need no mpmath.
"""

from __future__ import annotations

import math

import mpmath

import hestondist as hd


def points() -> list[tuple[float, float]]:
    """The (x, v) of every row, in the order of the pins."""
    out = []
    near = [2.0 * math.pi - e for e in (1e-3, 1e-6, 1e-9)]
    for v in (1.0, 0.25, 4.0, 37.0):
        for delta in (1e-5, 3e-4, 2e-3, 9e-3, *near, 0.7, 2.5, 4.1):
            out.append((hd.f_of(v, delta), v))
            if v == 1.0 and delta in (0.7, 2.5, 4.1):
                out.append((-hd.f_of(v, delta), v))
    for v in (1e-6, 1e-10, 1e-14, 0.0):
        for delta in (0.01, 1.3, 3.0, 5.9):
            out.append((hd.f_of(v, delta), v))
    out.append((1e308, 1e308))
    return out


def exact_root(x: float, v: float, guess: float, dps: int) -> mpmath.mpf:
    """The root of f(v, delta)/|x| = 1 in dps digits, from guess."""
    with mpmath.workdps(dps):
        s = mpmath.sqrt(mpmath.mpf(v))
        xa = abs(mpmath.mpf(x))

        def f(t):
            sh, q4 = mpmath.sin(t / 2), mpmath.sin(t / 4)
            num = (s - 1) ** 2 * (t - mpmath.sin(t)) + 4 * s * q4**2 * (t + 2 * sh)
            return num / (2 * sh**2) / xa - 1

        return mpmath.findroot(f, mpmath.mpf(abs(guess)))


def main() -> int:
    print("# PYTHONPATH=src python scripts/index_references.py")
    print("# x v delta")
    for x, v in points():
        guess = hd.delta_of(x, v)
        ref, check = exact_root(x, v, guess, 50), exact_root(x, v, guess, 80)
        if abs(ref - check) <= 1e-40 * abs(check):
            print(" ".join(a.hex() for a in (x, v, math.copysign(float(ref), x))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
