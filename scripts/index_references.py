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

Rows that begin with a name are the inverse index maps: ``psi_inv y
theta``, ``eta_inv y theta`` and ``eta_alpha_inv alpha y theta``, theta
the root in (0, 2*pi) (below psi^-1(alpha) for eta_alpha) of the exact
equation psi(theta) = y, eta(theta) = y or eta_alpha(alpha, theta) = y.
They are solved by bisection, in log(theta) below half the ceiling and in
log(ceiling - theta) above it, to 50 digits and again to 80 (the ceiling
psi^-1(alpha) is solved first, the same way, to 200 more digits), and
written if the two agree to 1e-40 relative.  The arguments are those of
the inverse-map pins of ``tests/test_root_solve.py``, plus small, large
and saturating ones.  The script takes about a minute on one core.
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


# (name, args) of every inverse-map row
INVERSES = [
    *[(name, (y,)) for name in ("psi_inv", "eta_inv") for y in (
        5e-324, 1e-300, 1e-9, 0.001, 0.3, 1.0, 0.5 * math.pi, 3.0, 40.0,
        1e4, 1e8, 1e40)],
    *[("eta_alpha_inv", args) for args in (
        (0.5, 0.2), (1.0, 0.9), (2.0, 1.5), (0.1, 0.05), (3.0, 2.9),
        (1.0, 0.0001), (1e-6, 5e-7), (1e-6, 1e-12), (0.01, 0.009),
        (1e6, 3.0), (1e6, 9e5), (1e-300, 1e-301), (1e300, 1e299),
        (8.638724563399447e29, 8.638724563399447e29))],
]


def _exact(f):
    """f evaluated with three more digits for every decade of theta below
    1, which the theta^3 cancellations of psi and A need."""

    def at(t):
        with mpmath.extradps(3 * max(0, -int(mpmath.log10(t)))):
            return +f(t)

    return at


@_exact
def _psi(t):
    return (t - mpmath.sin(t)) / (1 - mpmath.cos(t))


@_exact
def _coef_a(t):
    return (t * mpmath.cos(t / 2) - 2 * mpmath.sin(t / 2)) / (t - mpmath.sin(t))


def exact_map(name: str, args: tuple, dps: int):
    """(increasing map of theta, its target, its ceiling) in dps digits."""
    with mpmath.workdps(dps + 350):
        two_pi = 2 * mpmath.pi
    if name == "psi_inv":
        return _psi, mpmath.mpf(args[0]), two_pi
    if name == "eta_inv":
        return lambda t: _psi(t) * (1 - _coef_a(t)), mpmath.mpf(args[0]), two_pi
    alpha = mpmath.mpf(args[0])
    # to 200 more digits, so that the bisection can come within 1e-170 of it
    ceiling = bisect(_psi, alpha, two_pi, dps + 200)

    def eta_alpha(t):
        ps = _psi(t)
        return ps * ps * _coef_a(t) ** 2 / (alpha - ps) + ps

    return eta_alpha, mpmath.mpf(args[1]), ceiling


def bisect(f, target, ceiling, dps: int) -> mpmath.mpf:
    """The root of the increasing f = target in (0, ceiling), to dps digits:
    bisection in log(theta) below ceiling/2, else in log(ceiling - theta).
    A theta within 1e-170 of 2*pi needs 340 digits to hold, and as many
    more for the cancellation of 1 - cos(theta)."""
    with mpmath.workdps(dps + 350):
        half = ceiling / 2
        low = f(half) >= target
        a, b = mpmath.log(mpmath.mpf("1e-330" if low else "1e-170")), mpmath.log(half)

        def point(w):
            return mpmath.exp(w) if low else ceiling - mpmath.exp(w)

        while b - a > mpmath.mpf(10) ** -(dps + 5):
            w = (a + b) / 2
            if (f(point(w)) < target) == low:
                a = w
            else:
                b = w
        return point((a + b) / 2)


def main() -> int:
    print("# PYTHONPATH=src python scripts/index_references.py")
    print("# x v delta")
    for x, v in points():
        guess = hd.delta_of(x, v)
        ref, check = exact_root(x, v, guess, 50), exact_root(x, v, guess, 80)
        if abs(ref - check) <= 1e-40 * abs(check):
            print(" ".join(a.hex() for a in (x, v, math.copysign(float(ref), x))))
    print("# name args... theta")
    for name, args in INVERSES:
        ref = bisect(*exact_map(name, args, 50), 50)
        check = bisect(*exact_map(name, args, 80), 80)
        if abs(ref - check) <= 1e-40 * abs(check):
            print(" ".join([name, *(a.hex() for a in (*args, float(ref)))]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
