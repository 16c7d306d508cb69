"""The four benchmark workloads: seeded inputs, the public call each query
makes, and the output checks.

Every workload is a closed loop with one client: a query is sent only after
the previous one returned.  Inputs come only from the seed.  A run counts
the outcomes of the first ``Workload.counted`` queries of its timed stream:
those that carry ``verify=True`` are checked after the timed region, against
the oracle, an exact closed form or metric identities; the rest are only
checked for raising.  So a run's attempted and failed counts depend only on
the seed, not on how far the timed loop gets.

The inputs are not traffic from users; there is none to measure.  Each
workload draws the population its issue names ("general") and a few special
families that the general draw would (almost) never hit.  The shares follow
one rule, ``Workload.family_share``: each family gets the smallest share that
puts twice ``TAIL_MIN_BEYOND`` of its queries in every tail window, so a
family slower than the rest can set the tail latency on its own, and the
general draw sets the median and the throughput.  Queries come in shuffled
blocks with exactly one query of each family, and each stratum's parameters
follow a quasi-random sequence with a seeded offset (signs alternate
exactly), so every window of a run, and every seed, holds nearly the same
mix of branches and of known-defect cases.

The documented acceptance tolerance of the line and smile paths is 1e-6
relative (acceptance criteria 4, 5 and 10).  A known defect of the
right-slanted solver overestimates distances to lines with beta close to
gamma at small beta; ``known_defect`` names that region so those misses are
counted as failures without marking the whole run incorrect.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Iterator, NamedTuple

import hestondist as hd

TAIL_MIN_BEYOND = 10  # samples beyond the tail percentile in every window
LINE_RTOL = 1e-6
SYMMETRY_TOL = 1e-10  # acceptance criterion 7, times max(1, d)
ROUNDTRIP_RTOL = 1e-9


class Query(NamedTuple):
    stratum: str
    args: tuple
    verify: bool


def window_size(tail_pct: float) -> int:
    """Queries per latency window: TAIL_MIN_BEYOND beyond the tail percentile."""
    return round(TAIL_MIN_BEYOND / (1.0 - tail_pct / 100.0))


def quasi_random(rng: random.Random, dims: int) -> Iterator[tuple[float, ...]]:
    """Points of [0, 1)^dims from the additive recurrence with the
    generalised golden ratio, shifted by a seeded offset: any stretch of the
    sequence covers the cube evenly."""
    phi = 2.0
    for _ in range(60):  # the root of x**(dims + 1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    step = [phi ** -(j + 1) for j in range(dims)]
    x = [rng.random() for _ in range(dims)]
    while True:
        yield tuple(x)
        x = [(xi + a) % 1.0 for xi, a in zip(x, step)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _sign(k: int, bit: int = 0) -> float:
    return -1.0 if (k >> bit) & 1 else 1.0


def _rel_miss(value: float, ref: float, rtol: float) -> str | None:
    if not math.isfinite(value):
        return f"non-finite answer {value!r}"
    if abs(value - ref) > rtol * abs(ref):
        return f"answer {value!r} vs reference {ref!r} (rel {abs(value - ref) / abs(ref):.3g})"
    return None


def near_diagonal(beta: float, gamma: float) -> bool:
    """The region of the known tangency-endpoint defect: beta and gamma of
    one sign, within 1e-2 of each other relatively, the smaller below 1e-2."""
    if beta * gamma <= 0.0:
        return False
    return abs(gamma / beta - 1.0) <= 1e-2 and min(abs(beta), abs(gamma)) <= 1e-2


def _bits(x: float) -> str:
    return float(x).hex()


def _solution_bits(sol: hd.DistanceSolution) -> tuple:
    return (
        _bits(sol.value), _bits(sol.half_squared), _bits(sol.argmin.x),
        _bits(sol.argmin.v), _bits(sol.theta_at_argmin), sol.branch,
        _bits(sol.report.value), sol.report.iterations, _bits(sol.report.residual),
    )


class Workload:
    """Base class; subclasses fill in the inputs, the call and the checks."""

    name = ""
    tail_pct = 99.0  # fixed per workload so the tail metric keeps its meaning
    trace_size = 0  # queries in the fixed set of a traced run
    # head of the timed stream whose outcomes a run counts; a run reaches
    # it within --seconds at today's speed, and goes on until it does
    counted = 0
    cli_kind = ""
    families: tuple[str, ...] = ()  # special strata; "general" takes the rest
    dims = 4  # coordinates of each quasi-random point

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{purpose}")

    @classmethod
    def family_share(cls) -> float:
        """Share of each special family: the smallest that puts twice
        TAIL_MIN_BEYOND of its queries in every tail window."""
        return 2 * TAIL_MIN_BEYOND / window_size(cls.tail_pct)

    def stream(self, purpose: str = "timed") -> Iterator[Query]:
        rng = self.rng(purpose)
        block = [*self.families]
        block += ["general"] * (round(1.0 / self.family_share()) - len(block))
        points = {s: quasi_random(rng, self.dims) for s in dict.fromkeys(block)}
        index = {s: itertools.count() for s in points}
        while True:
            rng.shuffle(block)
            for stratum in block:
                yield self.draw(stratum, next(index[stratum]), next(points[stratum]), rng)

    def trace_queries(self, size: int | None = None) -> list[Query]:
        it = self.stream("trace")
        return [next(it) for _ in range(size or self.trace_size)]

    def draw(self, stratum: str, k: int, u: tuple[float, ...], rng: random.Random) -> Query:
        """The ``k``-th query of ``stratum``, at quasi-random point ``u``.
        Signs come from the bits of ``k``; ``rng`` decides only which
        queries are checked."""
        raise NotImplementedError

    def run(self, q: Query) -> Any:
        raise NotImplementedError

    def keep(self, q: Query, answer: Any) -> Any:
        """The part of an answer that ``check`` needs, kept small so the
        answers held for checking take little memory."""
        return answer

    def check(self, q: Query, kept: Any) -> str | None:
        """None when the answer (as ``keep`` left it) meets its tolerance,
        else the reason."""
        raise NotImplementedError

    def known_defect(self, q: Query) -> bool:
        return False

    def bits(self, answer: Any) -> tuple:
        """Exact representation of an answer, for bit-for-bit comparison."""
        raise NotImplementedError

    def cli_argv(self, q: Query) -> list[str]:
        raise NotImplementedError

    def cli_value(self, doc: dict) -> float:
        raise NotImplementedError

    def answer_value(self, answer: Any) -> float:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# line-mix: one dist_to_line per query, independent lines
# ---------------------------------------------------------------------------


class LineMix(Workload):
    name = "line-mix"
    tail_pct = 99.0
    trace_size = 600
    counted = 10_000  # 200 blocks: 200 near-diagonal lines
    cli_kind = "line-distance"

    # the line families that log-uniform magnitudes never hit, and the
    # near-diagonal band that they hit too rarely
    families = ("vertical", "near-diagonal", "tangent", "on-line", "equal", "axis")
    dims = 2
    # an oracle check costs about 30 queries: 0.2% adds about 6% to a run
    GENERAL_CHECK = 0.002
    ALWAYS_CHECKED = ("near-diagonal", "on-line", "tangent")

    def draw(self, stratum: str, k: int, u: tuple[float, ...], rng: random.Random) -> Query:
        mag = _log_uniform(u[0], 1e-4, 1e2)
        if stratum == "general":
            beta, gamma = _sign(k) * mag, _sign(k, 1) * _log_uniform(u[1], 1e-4, 1e2)
        elif stratum == "vertical":
            beta, gamma = _sign(k) * mag, 0.0
        elif stratum == "near-diagonal":
            beta = _log_uniform(u[0], 1e-4, 1e-2)
            gamma = beta * (1.0 + _sign(k) * _log_uniform(u[1], 1e-6, 1e-2))
            beta, gamma = _sign(k, 1) * beta, _sign(k, 1) * gamma
        elif stratum == "tangent":
            theta = _log_uniform(u[0], 1e-3, 3.1)
            beta, gamma = hd.tangent_line_params(theta)
            return Query(stratum, (beta, gamma, theta), True)
        elif stratum == "on-line":
            gamma = _sign(k) * mag
            # offset below the 1e-12 membership gauge, zero for a third
            off = 0.0 if k % 3 == 0 else (2.0 * u[1] - 1.0) * 5e-13 * math.hypot(1.0, gamma)
            beta = -gamma + off
        elif stratum == "equal":
            beta = _sign(k) * mag
            gamma = beta
        else:  # axis: beta = 0, the corner construction
            beta, gamma = 0.0, _sign(k) * mag
        verify = stratum in self.ALWAYS_CHECKED or rng.random() < self.GENERAL_CHECK
        return Query(stratum, (beta, gamma), verify)

    def run(self, q: Query) -> hd.DistanceSolution:
        return hd.dist_to_line(q.args[0], q.args[1])

    def keep(self, q: Query, sol: hd.DistanceSolution) -> float:
        return sol.value

    def check(self, q: Query, value: float) -> str | None:
        beta, gamma = q.args[0], q.args[1]
        if q.stratum == "tangent":
            return _rel_miss(value, q.args[2], LINE_RTOL)
        if q.stratum == "on-line":
            # the perpendicular foot is exact to O(d^2) at this distance
            return _rel_miss(value, abs(beta + gamma) / math.hypot(1.0, gamma), LINE_RTOL)
        return _rel_miss(value, hd.oracle_dist(beta, gamma).value, LINE_RTOL)

    def known_defect(self, q: Query) -> bool:
        return near_diagonal(q.args[0], q.args[1])

    def bits(self, sol: hd.DistanceSolution) -> tuple:
        return _solution_bits(sol)

    def cli_argv(self, q: Query) -> list[str]:
        return ["dist", "line", f"--beta={q.args[0]!r}", f"--gamma={q.args[1]!r}"]

    def cli_value(self, doc: dict) -> float:
        return doc["outputs"]["value"]

    def answer_value(self, sol: hd.DistanceSolution) -> float:
        return sol.value


# ---------------------------------------------------------------------------
# smile-ladder: one 50-strike smile_table per query
# ---------------------------------------------------------------------------


class SmileLadder(Workload):
    name = "smile-ladder"
    tail_pct = 90.0
    trace_size = 8
    counted = 100
    cli_kind = "smile"

    SPOT = 100.0
    # symmetric in log-moneyness out to +-1, no at-the-money strike
    MONEYNESS = tuple(-1.0 + 2.0 * j / 49.0 for j in range(50))
    STRIKES = tuple(map(SPOT.__mul__, map(math.exp, MONEYNESS)))
    # rho = 0 (vertical reduced lines), which the uniform rho never hits
    families = ("rho-zero",)
    # one oracle check costs about half a ladder: 20% adds about 10% to a run
    CHECK = 0.2

    def draw(self, stratum: str, k: int, u: tuple[float, ...], rng: random.Random) -> Query:
        c = 0.2 + 1.8 * u[0]
        rho = 0.0 if stratum == "rho-zero" else -0.9 + 1.8 * u[1]
        v0 = 0.01 + 0.19 * u[2]
        probe = min(int(u[3] * len(self.STRIKES)), len(self.STRIKES) - 1)
        verify = rng.random() < self.CHECK
        return Query(stratum, (c, rho, v0, self.STRIKES, probe), verify)

    def trace_queries(self, size: int | None = None) -> list[Query]:
        # the traced set is small: check one strike of every ladder
        return [q._replace(verify=True) for q in super().trace_queries(size)]

    def run(self, q: Query) -> list:
        c, rho, v0, strikes, _ = q.args
        return hd.smile_table(self.SPOT, v0, hd.CorrelationFrame(c, rho), strikes)

    @staticmethod
    def reduced_line(c: float, rho: float, v0: float, m: float) -> tuple[float, float]:
        root = math.sqrt(1.0 - rho * rho)
        return c * m / (v0 * root) + rho / root, -rho / root

    def keep(self, q: Query, table: list) -> tuple[str | None, float]:
        """(what is wrong with the table's shape or None, the probed iv_limit)."""
        strikes, probe = q.args[3], q.args[4]
        if len(table) != len(strikes):
            return f"{len(table)} entries for {len(strikes)} strikes", math.nan
        for k, entry in zip(strikes, table):
            if not isinstance(entry, hd.SmilePoint):
                return f"strike {k!r} failed: {entry.error}", math.nan
            if entry.strike != k:
                return f"entry for strike {entry.strike!r} where {k!r} was asked", math.nan
        return None, table[probe].iv_limit

    def check(self, q: Query, kept: tuple[str | None, float]) -> str | None:
        problem, iv = kept
        if problem is not None:
            return problem
        c, rho, v0, strikes, probe = q.args
        m = math.log(strikes[probe] / self.SPOT)
        beta, gamma = self.reduced_line(c, rho, v0, m)
        ref = c * abs(m) / (math.sqrt(v0) * hd.oracle_dist(beta, gamma).value)
        return _rel_miss(iv, ref, LINE_RTOL)

    def known_defect(self, q: Query) -> bool:
        c, rho, v0, strikes, probe = q.args
        m = math.log(strikes[probe] / self.SPOT)
        return near_diagonal(*self.reduced_line(c, rho, v0, m))

    def bits(self, table: list) -> tuple:
        return tuple(
            (_bits(e.iv_limit), _bits(e.distance), _bits(e.line_beta), _bits(e.line_gamma))
            if isinstance(e, hd.SmilePoint) else (e.strike, e.error)
            for e in table
        )

    def cli_argv(self, q: Query) -> list[str]:
        c, rho, v0, strikes, _ = q.args
        return [
            "smile", f"--spot={self.SPOT!r}", f"--v0={v0!r}", f"--c={c!r}",
            f"--rho={rho!r}", "--strikes=" + ",".join(repr(k) for k in strikes),
        ]

    def cli_value(self, doc: dict) -> float:
        return doc["outputs"]["points"][0]["iv_limit"]

    def answer_value(self, table: list) -> float:
        return table[0].iv_limit


# ---------------------------------------------------------------------------
# point-pairs: one dist (or dist_correlated) per query
# ---------------------------------------------------------------------------


def _bound_t(p0: tuple[float, float], p1: tuple[float, float]) -> float:
    """The comparison quantity T of the two-sided estimate T <= d <= 12 T."""
    rho2 = (p0[0] - p1[0]) ** 2 + (p0[1] - p1[1]) ** 2
    return math.sqrt(rho2) / (math.sqrt(p0[1]) + math.sqrt(p1[1]) + rho2**0.25)


class PointPairs(Workload):
    name = "point-pairs"
    # p99 sits on the edge of the garbage collector's pauses: about 1.2% of
    # queries pay for one (0.2 ms against 0.05 ms), so p99 flips between them
    tail_pct = 99.5
    trace_size = 8000
    counted = 50_000
    cli_kind = "point-distance"

    # dist_correlated, an end point on v = 0 and the small-angle series
    # branch (delta < 1e-2), which the general draw never or rarely reaches
    families = ("correlated", "v-zero", "small-angle")
    dims = 6
    # a check costs about four queries: 3% adds about 12% to a run
    CHECK = 0.03

    def draw(self, stratum: str, k: int, u: tuple[float, ...], rng: random.Random) -> Query:
        x0 = -5.0 + 10.0 * u[0]
        v0 = _log_uniform(u[1], 1e-3, 1e1)
        v1 = 0.0 if stratum == "v-zero" else _log_uniform(u[2], 1e-3, 1e1)
        if stratum == "small-angle":
            delta = _log_uniform(u[3], 1e-5, 1e-2)
        else:  # up to the 2*pi end of the chart
            delta = 1e-2 + u[3] * (hd.TWO_PI - 1e-3 - 1e-2)
        x1 = x0 + _sign(k) * v0 * hd.f_of(v1 / v0, delta)
        verify = rng.random() < self.CHECK
        if stratum == "correlated":
            c, rho = 0.2 + 1.8 * u[4], -0.9 + 1.8 * u[5]
            root = math.sqrt(1.0 - rho * rho)
            # undo the shear so the correlated pair maps onto (p0, p1)
            unshear = lambda x, v: ((x * root + rho * v) / c, v)
            return Query(stratum, (c, rho, unshear(x0, v0), unshear(x1, v1)), verify)
        return Query(stratum, ((x0, v0), (x1, v1)), verify)

    def run(self, q: Query) -> float:
        if q.stratum != "correlated":
            return hd.dist(*q.args)
        c, rho, p0, p1 = q.args
        return hd.dist_correlated(hd.CorrelationFrame(c, rho), p0, p1)

    def check(self, q: Query, d: float) -> str | None:
        if q.stratum != "correlated":
            p0, p1 = q.args
        else:
            c, rho, q0, q1 = q.args
            root = math.sqrt(1.0 - rho * rho)
            shear = lambda p: ((c * p[0] - rho * p[1]) / root, p[1])
            p0, p1 = shear(q0), shear(q1)
            if (miss := _rel_miss(d * c, hd.dist(p0, p1), 1e-12)) is not None:
                return "correlated reduction: " + miss
            d = d * c
        if not math.isfinite(d):
            return f"non-finite distance {d!r}"
        back = hd.dist(p1, p0)
        if abs(d - back) > SYMMETRY_TOL * max(1.0, d):
            return f"asymmetric: {d!r} vs {back!r}"
        t = _bound_t(p0, p1)
        if not (t * (1.0 - 1e-12) <= d <= 12.0 * t * (1.0 + 1e-12)):
            return f"distance {d!r} outside [T, 12T] with T={t!r}"
        (x0, v0), (x1, v1) = (p1, p0) if p0[1] == 0.0 else (p0, p1)
        x, v = (x1 - x0) / v0, v1 / v0
        delta = hd.delta_of(x, v)
        if x != 0.0 and abs(hd.f_of(v, delta) - x) > ROUNDTRIP_RTOL * abs(x):
            return f"round trip f_of(v, delta_of(x, v)) = {hd.f_of(v, delta)!r} for x={x!r}"
        return None

    def bits(self, d: float) -> tuple:
        return (_bits(d),)

    def cli_argv(self, q: Query) -> list[str]:
        if q.stratum != "correlated":
            (x0, v0), (x1, v1) = q.args
            extra: list[str] = []
        else:
            c, rho, (x0, v0), (x1, v1) = q.args
            extra = [f"--c={c!r}", f"--rho={rho!r}"]
        return ["dist", "point", f"--x0={x0!r}", f"--v0={v0!r}", f"--x1={x1!r}", f"--v1={v1!r}", *extra]

    def cli_value(self, doc: dict) -> float:
        return doc["outputs"]["value"]

    def answer_value(self, d: float) -> float:
        return d


# ---------------------------------------------------------------------------
# oracle-sweep: one oracle_dist per query
# ---------------------------------------------------------------------------


class OracleSweep(Workload):
    name = "oracle-sweep"
    tail_pct = 90.0
    trace_size = 44
    counted = 132  # three passes
    cli_kind = "oracle-compare"

    # the lines of `heston-dist oracle compare --grid`, on-line ones skipped
    GRID_BETA = (0.1, 0.5, 1.0, 2.0, 4.0)
    GRID_GAMMA = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
    # minimizers beyond the initial v-horizon of 16: the scan doubles it
    FAR = ((10.0, -0.5), (8.0, -0.2), (40.0, -2.0), (5.0, 0.05), (30.0, -1.0), (50.0, -1.0))

    def lines(self) -> list[tuple[float, float]]:
        rng = self.rng("far-lines")
        grid = [(b, g) for b in self.GRID_BETA for g in self.GRID_GAMMA if b + g != 0.0]
        far = [(b * (1.0 + 0.05 * rng.random()), g) for b, g in self.FAR]
        return grid + far

    def stream(self, purpose: str = "timed") -> Iterator[Query]:
        rng = self.rng(purpose)
        lines = self.lines()
        while True:  # each pass visits every line once, in a fresh order
            order = list(range(len(lines)))
            rng.shuffle(order)
            for i in order:
                yield Query("far" if i >= len(lines) - len(self.FAR) else "grid", lines[i], True)

    def run(self, q: Query) -> hd.DistanceSolution:
        return hd.oracle_dist(*q.args)

    def keep(self, q: Query, sol: hd.DistanceSolution) -> float:
        return sol.value

    def check(self, q: Query, value: float) -> str | None:
        return _rel_miss(value, hd.dist_to_line(*q.args).value, LINE_RTOL)

    def bits(self, sol: hd.DistanceSolution) -> tuple:
        return _solution_bits(sol)

    def cli_argv(self, q: Query) -> list[str]:
        return ["oracle", "compare", f"--beta={q.args[0]!r}", f"--gamma={q.args[1]!r}"]

    def cli_value(self, doc: dict) -> float:
        return doc["outputs"]["rows"][0]["oracle"]

    def answer_value(self, sol: hd.DistanceSolution) -> float:
        return sol.value


WORKLOADS = {w.name: w for w in (LineMix, SmileLadder, PointPairs, OracleSweep)}
