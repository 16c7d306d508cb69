#!/usr/bin/env python3
"""Record mpmath references for the level-curve functions.

    python scripts/curve_references.py > tests/curve_references.txt

Each row is one point of a level curve: the index theta, drawn log-uniform
within each band of ``BANDS``, and the abscissa x = psi(theta)*(1 + 10^U)
with U uniform in [-3, 3], both rounded to doubles.  The references are
curve_v(theta, x), curve_slope, curve_curvature, lambda_big(x, theta) and
xi(theta), from the direct formulas in 60 + 3*|log10 theta| digits: theta -
sin(theta) cancels about 2*|log10 theta| digits, so at 60 digits it would
be 0 at theta = 1e-300.  Every value is also computed with 30 more digits,
and a row is kept only if the two agree to 1e-40 relative.  Values are
written as ``float.hex``; a value beyond the double range is written
``inf``.  ``tests/test_curve_references.py`` reads the file, so the test
needs no mpmath.  Runs in about half a minute.
"""

from __future__ import annotations

import argparse
import math
import random

import mpmath

# theta bands: the top one ends 1e-3 below 2*pi, where psi is about 1.3e7
BANDS = (1e-300, 1e-154, 1e-100, 1e-46, 1e-2, 1.0, 2.0 * math.pi - 1e-3)
FUNCTIONS = ("v", "slope", "curvature", "lambda", "xi")


def exact(theta: float, x: float, dps: int) -> tuple:
    """(v, slope, curvature, lambda, xi) at (theta, x) in dps digits."""
    with mpmath.workdps(dps):
        t, x = mpmath.mpf(theta), mpmath.mpf(x)
        sh, ch = mpmath.sin(t / 2), mpmath.cos(t / 2)
        p = t - mpmath.sin(t)
        u = 2 * sh - t * ch
        r = 2 * p * x + (2 * sh - t) * (2 * sh + t)
        root_n = sh * mpmath.sqrt(r)  # sqrt(N), N = sin(t/2)^2 * radicand
        s = (root_n - u) / p
        c = 2 * sh * sh
        return (
            s * s,
            c / p * (1 - u / root_n),
            u * c * c / (2 * root_n**3),
            (t / p) ** 2 * (p * x + 2 * sh * u - c * mpmath.sqrt(r)),
            t * t / p,
        )


def exact_psi(theta: float) -> mpmath.mpf:
    with mpmath.workdps(60 + 3 * int(abs(math.log10(theta)))):
        t = mpmath.mpf(theta)
        return (t - mpmath.sin(t)) / (1 - mpmath.cos(t))


def rows(seed: int, per_band: int):
    rng = random.Random(seed)
    for lo, hi in zip(BANDS, BANDS[1:]):
        kept = 0
        while kept < per_band:
            theta = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
            x = float(exact_psi(theta) * (1 + mpmath.mpf(10) ** rng.uniform(-3, 3)))
            dps = 60 + 3 * int(abs(math.log10(theta)))
            ref, check = exact(theta, x, dps), exact(theta, x, dps + 30)
            if all(abs(a - b) <= 1e-40 * abs(b) for a, b in zip(ref, check)):
                kept += 1
                yield theta, x, [float(a) for a in ref]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--per-band", type=int, default=200)
    args = ap.parse_args()
    print(f"# scripts/curve_references.py --seed {args.seed} --per-band {args.per_band}")
    print("# theta x " + " ".join(FUNCTIONS))
    for theta, x, ref in rows(args.seed, args.per_band):
        print(" ".join(a.hex() for a in (theta, x, *ref)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
