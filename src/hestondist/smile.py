"""Small-maturity implied-volatility limit of the correlated model.

For a strike K != S0 the zero-maturity limit of the Black-Scholes implied
volatility equals

    I_H = c * |log(S0/K)| / (sqrt(v0) * Dhat),

where Dhat is the distance from (0, 1) to the line with

    beta  = (c*log(K/S0) + rho*v0)/(v0*sqrt(1-rho^2)),
    gamma = -rho/sqrt(1-rho^2)

in the uncorrelated base geometry: CorrelationFrame's reduction of the
vertical line x = log(K/S0) seen from (0, v0).  SmileQuery.__new__ holds
the checks of a query: it rejects a log(K/S0) that is not finite, and
at-the-money queries, where the limit is qualitatively different.
The validity conditions of the underlying asymptotic formula itself are a
literature question; this module computes its right-hand side
unconditionally.

All strikes of a smile share gamma, so smile_table solves the reduced
lines of a ladder as one batch (linedist._solve_many), which minimizes
the rows of a long ladder together and returns each line's distance
without building the DistanceSolution that iv_limit's dist_to_line
assembles: each entry equals iv_limit for its strike bit for bit, or
records the error iv_limit raises.  Neither takes a tolerance: the line
solver sets its own stop widths.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AtTheMoneyError, DomainError, HestonDistError
from .linedist import _solve_many, dist_to_line
from .pointmetric import CorrelationFrame


class SmileQuery(NamedTuple("SmileQuery", [
    ("spot", float), ("strike", float), ("v0", float), ("frame", CorrelationFrame)
])):
    """One implied-vol-limit evaluation: spot, strike, starting variance
    and the model frame.  v0 = 0 is rejected; the reduction requires a
    positive starting variance and a finite log-moneyness log(K/S0).
    __new__ checks the fields; _make, and so _replace, builds through it."""

    __slots__ = ()

    def __new__(
        cls, spot: float, strike: float, v0: float, frame: CorrelationFrame
    ) -> SmileQuery:
        if not (spot > 0.0):
            raise DomainError(f"spot must be positive, got {spot!r}")
        if not (strike > 0.0):
            raise DomainError(f"strike must be positive, got {strike!r}")
        if not (v0 > 0.0):
            raise DomainError(f"v0 must be positive, got {v0!r}")
        if strike == spot:
            raise AtTheMoneyError(
                "strike equals spot: the small-maturity limit is undefined "
                "at the money"
            )
        if v0 == math.inf or not 0.0 < strike / spot < math.inf:
            raise DomainError(
                f"v0 and log(strike/spot) must be finite, got spot={spot!r}, "
                f"strike={strike!r}, v0={v0!r}"
            )
        return super().__new__(cls, spot, strike, v0, frame)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # runs __new__


class SmilePoint(NamedTuple):
    strike: float
    log_moneyness: float  # log(K/S0)
    iv_limit: float
    line_beta: float
    line_gamma: float
    distance: float


class SmileFailure(NamedTuple):
    """A strike whose evaluation raised; collected, not fail-fast."""

    strike: float
    error: str


def reduced_line(q: SmileQuery) -> tuple[float, float]:
    """(beta, gamma) of the base-geometry line encoding the query: the
    correlated model's line x = log(K/S0) seen from (0, v0)."""
    return _reduced(q)[1:]


def _reduced(q: SmileQuery) -> tuple[float, float, float]:
    """The query's log-moneyness m = log(K/S0) and its reduced line
    (beta, gamma)."""
    m = math.log(q.strike / q.spot)
    beta, gamma, _ = q.frame._reduce_line((0.0, q.v0), m, 0.0)
    return m, beta, gamma


def _smile_point(
    q: SmileQuery, m: float, beta: float, gamma: float, distance: float
) -> SmilePoint:
    """The entry of the query whose log-moneyness is m, at the distance
    to its reduced line (beta, gamma)."""
    if not distance > 0.0:
        # (0,1) on the reduced line is impossible for K != S0
        raise HestonDistError(
            "degenerate reduction: zero distance for an off-the-money query"
        )
    return SmilePoint(
        strike=q.strike,
        log_moneyness=m,
        iv_limit=q.frame.c * abs(m) / (math.sqrt(q.v0) * distance),
        line_beta=beta,
        line_gamma=gamma,
        distance=distance,
    )


def iv_limit(q: SmileQuery) -> SmilePoint:
    """Zero-maturity implied-volatility limit for one query."""
    m, beta, gamma = _reduced(q)
    return _smile_point(q, m, beta, gamma, dist_to_line(beta, gamma).value)


def _failure(strike: float, exc: HestonDistError) -> SmileFailure:
    return SmileFailure(strike=strike, error=f"{type(exc).__name__}: {exc}")


def smile_table(
    spot: float,
    v0: float,
    frame: CorrelationFrame,
    strikes: list[float],
) -> list[SmilePoint | SmileFailure]:
    """Evaluate a ladder of strikes; entries for failing strikes record the
    error instead of aborting the ladder.  Order is preserved.

    Every entry equals what iv_limit gives for its strike, bit for bit, or
    records the error iv_limit raises.  The reduced lines of the whole
    ladder are solved as one batch (linedist._solve_many), and each entry
    reads only its line's distance from it: no DistanceSolution is built
    for a searched line."""
    queries: list[SmileQuery | SmileFailure] = []
    for k in strikes:
        try:
            queries.append(SmileQuery(spot, k, v0, frame))
        except HestonDistError as exc:
            queries.append(_failure(k, exc))
    reduced = [_reduced(q) for q in queries if isinstance(q, SmileQuery)]
    answers = iter(zip(reduced, _solve_many([r[1:] for r in reduced])))
    out: list[SmilePoint | SmileFailure] = []
    for q in queries:
        if isinstance(q, SmileQuery):
            (m, beta, gamma), found = next(answers)
            try:
                if isinstance(found, HestonDistError):
                    raise found
                q = _smile_point(q, m, beta, gamma, found.value)
            except HestonDistError as exc:
                q = _failure(q.strike, exc)
        out.append(q)
    return out
