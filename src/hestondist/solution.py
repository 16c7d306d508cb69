"""Result record shared by the distance solvers: a NamedTuple that checks
no field (CorrelationFrame and SmileQuery check theirs in __new__)."""

from __future__ import annotations

from typing import NamedTuple

from .pointmetric import ManifoldPoint
from .solvers import SolveReport


class DistanceSolution(NamedTuple):
    """A computed distance together with where and how it was attained.

    ``value`` is the distance, ``half_squared`` its half-square (value =
    sqrt(2*half_squared) identically), ``argmin`` the nearest point of the
    queried set and ``theta_at_argmin`` its arc index.  ``branch`` says how
    it was obtained: "on-line", "vertical-kp", "slanted-plus",
    "slanted-minus", "left-slanted", "tangent-exact", "level-set" or
    "oracle".
    """

    value: float
    half_squared: float
    argmin: ManifoldPoint
    theta_at_argmin: float
    branch: str
    report: SolveReport

    @classmethod
    def closed_form(
        cls, value: float, argmin: ManifoldPoint, theta_at_argmin: float, branch: str
    ) -> DistanceSolution:
        """An answer given by an exact formula: no iteration, zero residual."""
        return cls(
            value=value,
            half_squared=0.5 * value * value,
            argmin=argmin,
            theta_at_argmin=theta_at_argmin,
            branch=branch,
            report=SolveReport(value, 0, 0.0, "closed-form"),
        )
