#!/usr/bin/env python3
"""Print one sha256 per section of seeded library output.

A refactor that must not change any answer is checked by running this on
the commit before and after it and comparing the lines:

    PYTHONPATH=src python scripts/identity_digest.py > after.txt
    PYTHONPATH=../parent/src python scripts/identity_digest.py > before.txt
    diff before.txt after.txt

Every float is hashed as ``float.hex`` and every raised error as its type
name, so one changed bit, or a different error type, changes the digest of
its section.  The inputs are finite; NaN handling is not covered.  Runs in
about ten seconds on one core.
"""

import argparse
import contextlib
import hashlib
import io
import math
import random

import hestondist as hd
from hestondist.cli import main as cli_main


def _canon(obj) -> str:
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (str, int)):
        return repr(obj)
    return "(" + ",".join(_canon(x) for x in obj) + ")"


class Section:
    def __init__(self, name: str):
        self.name = name
        self.hash = hashlib.sha256()
        self.rows = 0

    def record(self, fn, *args) -> None:
        try:
            out = _canon(fn(*args))
        except hd.HestonDistError as exc:
            out = "!" + type(exc).__name__
        self.hash.update(f"{fn.__name__}{_canon(args)}={out}\n".encode())
        self.rows += 1

    def line(self) -> str:
        return f"{self.name:28s} {self.rows:6d} {self.hash.hexdigest()}"


def _mag(rng: random.Random, lo: float = -4.0, hi: float = 2.0) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


LINE_KINDS = (
    "vertical", "corner", "diagonal", "near-diagonal", "steep", "shallow",
    "left-far", "left-near", "near-membership", "flushed",
)


def _line(kind: str, r: random.Random) -> tuple[float, float]:
    """One (beta, gamma) of the given kind.  The sign of b is drawn, so the
    mirrored (beta < 0) path runs as well."""
    b = _sign(r) * _mag(r)
    ratio = _mag(r, 0.01, 2)
    return {
        "vertical": (b, 0.0),
        "corner": (0.0, b),
        "diagonal": (b, b),
        "near-diagonal": (b, b * (1.0 + _sign(r) * _mag(r, -9, -3))),
        "steep": (b, b * ratio),
        "shallow": (b, b / ratio),
        "left-far": (b, -b / ratio),
        "left-near": (b, -b * ratio),
        "near-membership": (b, -b + _sign(r) * _mag(r, -15, -11)),
        "flushed": (_sign(r) * _mag(r, -320, -300), b),
    }[kind]


CLI_COMMANDS = (
    "dist point --x0 0 --v0 1 --x1 0 --v1 4",
    "dist line --beta 0.7853981633974483 --gamma 1",
    "dist line --beta 1 --gamma 0.5 --c 2 --rho -0.5 --x0 0.1 --v0 0.04",
    "dist level-set --theta 1.5707963267948966",
    "dist horizontal --tau 4",
    "--format csv levelset emit --theta 1.2 --x-max 4 --samples 100",
    "smile --spot 100 --v0 0.04 --c 1 --rho 0 --strikes 80,90,110,120",
    "oracle compare --beta 2 --gamma 3",
    "oracle compare --grid",
)


def lines(seed: int, per_kind: int) -> list[Section]:
    out = []
    for kind in LINE_KINDS:
        rng = random.Random(f"{seed}-{kind}")
        sec = Section(f"lines.{kind}")
        for _ in range(per_kind):
            sec.record(hd.dist_to_line, *_line(kind, rng))
        out.append(sec)
    return out


def points(seed: int, n: int) -> Section:
    rng = random.Random(f"{seed}-points")
    sec = Section("delta_of+dist")
    for _ in range(n):
        x = _sign(rng) * _mag(rng, -6, 6)
        v = rng.choice((0.0, _mag(rng, -12, 4)))
        sec.record(hd.delta_of, x, v)
        p0 = (_sign(rng) * _mag(rng, -3, 2), _mag(rng, -3, 2))
        sec.record(hd.dist, p0, (x, v))
    return sec


def extremes(seed: int, n: int) -> Section:
    """The arc index and the inversions across the whole finite range:
    |x| log-uniform in [5e-324, 1e306], both signs, and v in {0, 5e-324}
    or log-uniform in [1e-300, 1e306].  The source point of dist keeps v0
    in [1, 100], so that the reduced coordinates stay finite too."""
    rng = random.Random(f"{seed}-extremes")
    sec = Section("delta_of.extremes")
    for _ in range(n):
        x = _sign(rng) * _mag(rng, -323.3, 306)
        v = rng.choice((0.0, 5e-324, _mag(rng, -300, 306), _mag(rng, -300, 306)))
        sec.record(hd.delta_of, x, v)
        p0 = (_sign(rng) * _mag(rng, -3, 2), _mag(rng, 0, 2))
        sec.record(hd.dist, p0, (x, v))
        y = abs(x)
        sec.record(hd.psi_inv, y)
        sec.record(hd.eta_alpha_inv, y, y * rng.uniform(1e-6, 1.0))
    return sec


def inverse_maps(seed: int, n: int) -> Section:
    rng = random.Random(f"{seed}-inverse")
    sec = Section("inverse-maps")
    for _ in range(n):
        y, alpha = _mag(rng, -6, 8), _mag(rng, -4, 3)
        sec.record(hd.psi_inv, y)
        sec.record(hd.eta_inv, y)
        sec.record(hd.eta_alpha_inv, alpha, alpha * rng.uniform(1e-6, 1.0))
        sec.record(hd.x_crit_inv, rng.uniform(0.0, 0.5 * math.pi))
        sec.record(hd.theta_crit, _mag(rng), _mag(rng))
    return sec


def intersections(seed: int, n: int, tiny: int) -> Section:
    """The line roots and the level-curve functions at n angles on both
    sides of the small-angle switch at 1e-2, then at `tiny` angles
    log-uniform in [1e-300, 1e-2]."""
    rng = random.Random(f"{seed}-intersections")
    sec = Section("intersections+curves")

    def record(theta: float) -> None:
        beta = _sign(rng) * _mag(rng)
        # 1/B(theta) often makes 1 - gamma*B exactly zero: the pole of s_minus
        gamma = rng.choice((_sign(rng) * _mag(rng), 1.0 / hd.coef_B(theta)))
        for fn in (
            hd.discriminant, hd.s_plus, hd.s_minus, hd.lambda_plus, hd.lambda_minus
        ):
            sec.record(fn, beta, gamma, theta)
        sec.record(hd.s_tangent, beta, theta)
        # left of the curve start, at it (where the radicand clamp acts), right
        x = hd.psi(theta) + rng.choice(
            (-_mag(rng, -6, 0), 0.0, -_mag(rng, -14, -10), _mag(rng, -8, 3))
        )
        sec.record(hd.lambda_big, x, theta)
        for fn in (hd.curve_v, hd.curve_slope, hd.curve_curvature):
            sec.record(fn, theta, x)
        sec.record(hd.dist_to_level_set, _sign(rng) * theta)

    for _ in range(n):
        record(rng.choice((rng.uniform(1e-6, 0.02), rng.uniform(1e-6, 2.0 * math.pi))))
    tiny_rng = random.Random(f"{seed}-tiny-angles")
    for _ in range(tiny):
        theta = _mag(tiny_rng, -300, -2)
        record(theta)
        sec.record(hd.xi, theta)
        x = hd.psi(theta) * (1.0 + _mag(tiny_rng, -3, 3))
        sec.record(hd.lambda_big, x, theta)
        for fn in (hd.curve_v, hd.curve_slope, hd.curve_curvature):
            sec.record(fn, theta, x)
    return sec


def smile_ladder(v0: float, c: float, rho: float, strikes: list[float]) -> list:
    """smile_table with each failure reduced to its error type."""
    table = hd.smile_table(100.0, v0, hd.CorrelationFrame(c=c, rho=rho), strikes)
    return [
        e.error.split(":")[0] if isinstance(e, hd.SmileFailure) else e for e in table
    ]


def smile_and_oracle(seed: int, ladders: int, oracles: int) -> list[Section]:
    rng = random.Random(f"{seed}-smile")
    smile = Section("smile-ladders")
    for _ in range(ladders):
        # the at-the-money strike 100 fails by design
        strikes = [100.0 * math.exp(rng.uniform(-1.0, 1.0)) for _ in range(20)]
        strikes.append(100.0)
        smile.record(smile_ladder, _mag(rng, -3, 0), _mag(rng, -1, 0.5),
                     rng.uniform(-0.95, 0.95), strikes)
    oracle = Section("oracle_dist")
    for _ in range(oracles):
        beta, gamma = _sign(rng) * _mag(rng, -2, 1), _sign(rng) * _mag(rng, -2, 1)
        oracle.record(hd.oracle_dist, beta, gamma)
    # far lines whose horizon the first grid does not certify
    for beta, gamma in ((1e7, 0.0), (1e9, 0.0), (1e12, 0.0), (1e12, 1e12)):
        oracle.record(hd.oracle_dist, beta, gamma)
    return [smile, oracle]


def correlated(seed: int, n: int, oracles: int) -> Section:
    """The correlated model: point distances, line distances through the
    shared reduction and the brute-force oracle on the first lines."""
    rng = random.Random(f"{seed}-correlated")
    sec = Section("correlated")
    for i in range(n):
        frame = hd.CorrelationFrame(_mag(rng, -1, 0.5), rng.uniform(-0.95, 0.95))
        p0 = (_sign(rng) * _mag(rng, -2, 1), _mag(rng, -2, 1))
        p1 = (_sign(rng) * _mag(rng, -2, 1), rng.choice((0.0, _mag(rng, -2, 1))))
        sec.record(hd.dist_correlated, frame, p0, p1)
        beta, gamma = _sign(rng) * _mag(rng, -2, 1), _sign(rng) * _mag(rng, -2, 1)
        sec.record(hd.dist_to_line_correlated, frame, p0, beta, gamma)
        if i < oracles:
            sec.record(hd.oracle_dist_correlated, frame, p0, beta, gamma)
    return sec


def cli() -> Section:
    sec = Section("cli")

    def run(argv: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv.split())
        return code, buf.getvalue()

    for argv in CLI_COMMANDS:
        sec.record(run, argv)
    return sec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sections = [
        *lines(args.seed, 400),
        points(args.seed, 3000),
        extremes(args.seed, 1500),
        inverse_maps(args.seed, 300),
        intersections(args.seed, 1500, 500),
        *smile_and_oracle(args.seed, 8, 40),
        correlated(args.seed, 500, 10),
        cli(),
    ]
    for sec in sections:
        print(sec.line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
