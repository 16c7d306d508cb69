#!/usr/bin/env python3
"""Compare the line solver's minimization with the golden refine, row by
row, on seeded line-mix-like lines and 50-strike smile ladders.

    PYTHONPATH=src python scripts/refine_gate.py --seed 1
    PYTHONPATH=src python scripts/refine_gate.py --seed 1 --exact 40

Every row of every line's search table, zero-width rows included, is
minimized twice: by the line solver (``solvers._minimize_row`` on the
row's closure ``linedist._row_fn``, which gives the objective and its
derivative: a scan of 9 nodes, then the refine from the best one), and by
``minimize_on_interval``, whose 257-node scan and golden refine are the
reference.  The script prints, per workload, the rows each refine method
settled, the calls of the closure per line in the 9-node scans and in the
refines after them (those of the rows that keep their best scan node
apart), the derivative-root rows whose best scan node is the row's lower
end (the ones whose root solve stops at Brent's floor) with their refine
calls per row, and the gap of the line solver's minimum above golden's by
band of |theta*|.
With ``--exact N`` it evaluates, for the N rows where the line solver's
minimum lies furthest above golden's, for every row beyond the gate and
for every row that keeps its scan node ("scan-node"), both argmins on the
objective in 60-digit arithmetic (mpmath, which is not a dependency of the
package).

``tests/test_refine_gate.py`` runs the same comparison on fewer lines and
holds every row to the gate: at most ``ULP_GATE`` ulp above golden where
|theta*| >= 1, at most ``BAND_RTOL`` relative above it elsewhere.  Golden's
minimum is the lowest of some thirty rounded values, so it can sit a few
ulp below the exact minimum; a row beyond ``ULP_GATE`` ulp must then be no
higher than golden's in exact arithmetic.
"""

from __future__ import annotations

import argparse
import math
import random
from typing import NamedTuple

import hestondist as hd
from hestondist import corefuncs as cf
from hestondist import linedist as ld
from hestondist import solvers
from hestondist.smile import reduced_line

ULP_GATE = 8  # above golden's minimum, where |theta*| >= 1
# elsewhere, relative: the cancellation band of the objective below
# |theta| = 1, where one value carries up to ~1e-11 relative noise
BAND_RTOL = 5e-11
BANDS = ((0.0, cf.SMALL_ANGLE), (cf.SMALL_ANGLE, 1.0), (1.0, math.inf))
METHODS = ("derivative-root", "endpoint", "scan-node")
SCAN_NODES = solvers.ROW_CELLS + 1  # the closure calls of a row's scan
STRIKES = tuple(100.0 * math.exp(-1.0 + 2.0 * j / 49.0) for j in range(50))


class Row(NamedTuple):
    """One compared row: its line, branch and refine method, the closure
    calls its refine made after the scan, the two minima and their
    argmins, and whether the scan's best node is the row's lower end lo."""

    line: tuple[float, float]
    row: ld._Search
    method: str
    evals: int
    value: float
    theta: float
    golden: float
    golden_theta: float
    from_lower: bool

    def gap(self) -> float:
        """How far the line solver's minimum lies above golden's, relative
        to golden's."""
        return (self.value - self.golden) / self.golden if self.golden else 0.0

    def ulps(self) -> float:
        return (self.value - self.golden) / math.ulp(self.golden)

    def passes(self) -> bool:
        if abs(self.theta) >= 1.0:
            return self.ulps() <= ULP_GATE
        return self.gap() <= BAND_RTOL


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def line_mix(seed: int, n: int) -> list[tuple[float, float]]:
    """n lines drawn as the line-mix benchmark draws them: log-uniform
    magnitudes in [1e-4, 1e2] with random signs, and 2% each of vertical,
    near-diagonal, equal and axis (beta = 0) lines."""
    rng = random.Random(f"refine-gate/lines/{seed}")
    out = []
    for k in range(n):
        sign = rng.choice((-1.0, 1.0))
        mag = _log_uniform(rng, 1e-4, 1e2)
        family = k % 50
        if family == 0:
            out.append((sign * mag, 0.0))
        elif family == 1:
            beta = _log_uniform(rng, 1e-4, 1e-2)
            off = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-6, 1e-2)
            out.append((sign * beta, sign * beta * (1.0 + off)))
        elif family == 2:
            out.append((sign * mag, sign * mag))
        elif family == 3:
            out.append((0.0, sign * mag))
        else:
            out.append((sign * mag, rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-4, 1e2)))
    return out


def ladders(seed: int, n: int) -> list[list[tuple[float, float]]]:
    """The reduced lines of n 50-strike smile ladders drawn as the
    smile-ladder benchmark draws them (c in [0.2, 2], rho in [-0.9, 0.9],
    rho = 0 for every fifth ladder, v0 in [0.01, 0.2])."""
    rng = random.Random(f"refine-gate/ladders/{seed}")
    out = []
    for k in range(n):
        c, v0 = rng.uniform(0.2, 2.0), rng.uniform(0.01, 0.2)
        rho = 0.0 if k % 5 == 0 else rng.uniform(-0.9, 0.9)
        frame = hd.CorrelationFrame(c, rho)
        out.append([reduced_line(hd.SmileQuery(100.0, k_, v0, frame)) for k_ in STRIKES])
    return out


def compare(lines: list[tuple[float, float]]) -> list[Row]:
    """Both minimizations of every row of every line's search table (the
    lines share one psi_inv memo, as a ladder does), zero-width rows
    included; rows whose scan or refine raises are left out."""
    memo: dict[float, float] = {}
    out = []
    for line in lines:
        try:
            prelude = ld._prelude(*line)
            if isinstance(prelude, hd.DistanceSolution):
                continue
            rows = ld._searches(prelude[0], prelude[1], memo)
        except hd.HestonDistError:
            continue
        for row in rows:
            fn = ld._row_fn(row)
            seen: list[float] = []

            def counted(t: float) -> tuple[float, float]:
                pair = fn(t)
                seen.append(pair[0])
                return pair

            try:
                rep, val = solvers._minimize_row(counted, row.lo, row.hi)
                gold, gval = solvers.minimize_on_interval(
                    lambda t: fn(t)[0], (row.lo, row.hi)
                )
            except hd.HestonDistError:
                continue
            scan = seen[:SCAN_NODES]  # the values at the scan's nodes
            out.append(Row(line, row, rep.method, len(seen) - SCAN_NODES, val,
                           rep.value, gval, gold.value, scan.index(min(scan)) == 0))
    return out


def summary(name: str, lines: int, rows: list[Row]) -> list[str]:
    """The report of one workload: methods, evaluations, gaps by band."""
    out = [f"{name}: {lines} lines, {len(rows)} rows"]
    for method in METHODS:
        out.append(f"  {method:16s} {sum(r.method == method for r in rows):7d} rows")
    evals = sum(r.evals for r in rows)
    kept = sum(r.evals for r in rows if r.method == "scan-node")
    out.append(f"  closure calls per line: {SCAN_NODES * len(rows) / max(lines, 1):.2f} "
               f"in scans, {evals / max(lines, 1):.2f} in refines "
               f"({kept / max(lines, 1):.2f} of them in scan-node rows)")
    lower = [r for r in rows if r.method == "derivative-root" and r.from_lower]
    out.append(f"  derivative-root rows refined from the lower end: {len(lower)}, "
               f"{sum(r.evals for r in lower) / max(len(lower), 1):.2f} "
               "refine calls per row")
    out.append("  gap above golden by |theta*|: rows, worst relative gap, "
               f"rows > {ULP_GATE} ulp, rows failing the gate")
    for lo, hi in BANDS:
        band = [r for r in rows if lo <= abs(r.theta) < hi]
        worst = max((r.gap() for r in band), default=0.0)
        over = sum(r.ulps() > ULP_GATE for r in band)
        failing = sum(not r.passes() for r in band)
        out.append(f"    [{lo:g}, {hi:g}): {len(band):6d} {worst:+.3g} {over:5d} {failing:5d}")
    return out


def exact_objective(row: ld._Search, t: float, mp) -> object:
    """The row's half-squared distance at the index t in mpmath: the
    direct coefficient formulas, the same root and discriminant clamp, and
    lambda = N t^2/(2 sin(t/2)^2)."""
    t = mp.mpf(t)
    sh, ch = mp.sin(t / 2), mp.cos(t / 2)
    p = t - mp.sin(t)
    a, b = -(2 * sh - t * ch) / p, 2 * sh * sh / p
    q, p = 1 - mp.mpf(row.gamma) * b, 1 - mp.mpf(row.beta) * b
    root = mp.sqrt(max(a * a - q * p, 0))
    s = (a - root) / q if row.minus else p / (a - root)
    s = max(s, 0)
    return (s * s - 2 * s * ch + 1) * t * t / (2 * sh * sh)


def exact_gap(r: Row, mpmath) -> float:
    """The exact objective's relative difference between the line solver's
    argmin and golden's, in 60-digit arithmetic: negative where the line
    solver's argmin is the lower one."""
    mp = mpmath.mp
    mp.dps = 60
    at_root = exact_objective(r.row, r.theta, mp)
    at_golden = exact_objective(r.row, r.golden_theta, mp)
    return float((at_root - at_golden) / at_golden) if at_golden else 0.0


def exact_report(rows: list[Row], worst: int) -> list[str]:
    """exact_gap of the worst rows by gap, of every row beyond the gate and
    of every row that keeps its scan node."""
    try:
        import mpmath
    except ImportError:
        return ["  --exact: mpmath is not importable; skipped"]
    out = []
    for label, chosen in (
        (f"the {worst} worst rows", sorted(rows, key=Row.gap, reverse=True)[:worst]),
        ("the rows beyond the gate", [r for r in rows if not r.passes()]),
        ("the scan-node rows", [r for r in rows if r.method == "scan-node"]),
    ):
        diffs = [exact_gap(r, mpmath) for r in chosen]
        out.append(f"  exact objective at {label} ({len(chosen)}), (line - golden)/"
                   f"golden: max {max(diffs, default=0.0):+.3g}, rows where line is "
                   f"higher: {sum(d > 0.0 for d in diffs)}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lines", type=int, default=3000)
    parser.add_argument("--ladders", type=int, default=60)
    parser.add_argument("--exact", type=int, default=0, metavar="N",
                        help="check the N worst rows per workload in mpmath")
    args = parser.parse_args(argv)
    mix = compare(line_mix(args.seed, args.lines))
    report = summary("line-mix", args.lines, mix)
    if args.exact:
        report += exact_report(mix, args.exact)
    ladder_rows = []
    for ladder in ladders(args.seed, args.ladders):
        ladder_rows += compare(ladder)
    report += summary("smile-ladder", args.ladders * len(STRIKES), ladder_rows)
    if args.exact:
        report += exact_report(ladder_rows, args.exact)
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
