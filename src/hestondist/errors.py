"""Exception types raised across the package.

Every numerical routine raises a typed error instead of propagating NaN:
callers that assemble minimization intervals rely on trustworthy domain
signals.
"""

from __future__ import annotations


class HestonDistError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HestonDistError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class BoundaryPairError(DomainError):
    """Both points sit on the variance boundary v = 0 at different x.

    The explicit distance formula excludes this configuration and provides
    no substitute, so it is rejected rather than answered wrongly.
    """


class DegenerateLineError(DomainError):
    """The two-root intersection formulas were called in the tangent
    configuration 1 - gamma*B(theta) = 0, where only the single-root
    formula applies."""


class AtTheMoneyError(DomainError):
    """strike == spot: the small-maturity implied-vol limit is undefined
    at the money."""


class BracketError(HestonDistError, ValueError):
    """A root bracket does not straddle the target value."""


class ScanShapeError(HestonDistError, ValueError):
    """An array objective returned a result whose shape differs from the
    array of scan nodes it was given."""


class ConvergenceError(HestonDistError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class NonFiniteSampleError(ConvergenceError):
    """A scan node produced a non-finite objective value."""

    def __init__(self, node_index: int, x: float, value: float):
        self.node_index = node_index
        self.x = x
        self.value = value
        super().__init__(
            f"objective is not finite at scan node {node_index} (x={x!r}: {value!r})"
        )
