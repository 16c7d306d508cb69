import math
from pathlib import Path

import pytest
from hypothesis import strategies as st

import hestondist as hd
from hestondist import cli
from hestondist import linedist as ld
from hestondist import solvers

# angles safely inside (0, 2*pi): the formulas blow up toward both ends
angles_open = st.floats(min_value=1e-3, max_value=2.0 * math.pi - 1e-3,
                        allow_nan=False, allow_infinity=False)

variances = st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False)

positive_variances = st.floats(min_value=1e-3, max_value=100.0,
                               allow_nan=False, allow_infinity=False)

abscissas = st.floats(min_value=-20.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False)


@pytest.fixture
def rng():
    import random

    return random.Random(20260810)


# ---------------------------------------------------------------------------
# alternative vertical-line brackets
# ---------------------------------------------------------------------------
#
# dist_to_line searches a vertical line x = beta over hd.vertical_bracket
# (the parameter-free bounds).  These three other intervals provably contain
# the same minimizer; the tests minimize the same objective over them and
# require the same distance.

VERTICAL_VARIANTS = ("reduction", "finnal", "record")


def vertical_variant_bracket(beta: float, variant: str) -> tuple[float, float]:
    """'reduction' uses the sharpest bounds, 'finnal' the simplified ones,
    'record' the full admissible set (0, psi_inv(beta)], left end clipped."""
    half_pi = 0.5 * math.pi
    if variant == "reduction":
        if beta < half_pi:
            hi = hd.x_crit_inv(beta)
            tau = (0.5 * hi + 1.0) ** 2
            return hd.delta_of(beta, tau), hi
        z = math.sqrt(
            2.0 * math.pi * beta
            + 8.0
            - 4.0 * math.sqrt(2.0 * math.pi * beta + 4.0 - math.pi**2)
        )
        tau_hat = (0.5 * z + 1.0) ** 2
        return hd.delta_of(beta, tau_hat), math.pi
    if variant == "finnal":
        if beta < half_pi:
            return hd.delta_of(beta, (beta + 1.0) ** 2), 2.0 * beta
        return hd.delta_of(beta, 5.0 * beta), math.pi
    if variant == "record":
        hi = hd.psi_inv(beta)
        return min(ld.EDGE_CLIP, 0.5 * hi), hi
    raise ValueError(f"unknown variant {variant!r}")


def vertical_objective(beta: float):
    """The line solvers' objective of the vertical line x = beta: the
    value of linedist._row_fn on its plus root."""
    fn = ld._row_fn(ld._Search("", beta, 0.0, False, 0.0, 0.0))
    return lambda t: fn(t)[0]


def vertical_variant_distance(beta: float, variant: str, tol: float = 1e-9) -> float:
    """The vertical-line distance minimized over a variant bracket, as
    dist_to_line minimizes it over vertical_bracket."""
    fn = vertical_objective(beta)
    _, half_sq = hd.minimize_on_interval(
        fn, vertical_variant_bracket(beta, variant), tol=tol
    )
    return math.sqrt(2.0 * half_sq)


def oracle_sweep_lines():
    """The lines of `oracle compare --grid` and the far lines of the
    oracle-sweep benchmark, whose minimizers lie beyond the first horizon."""
    grid = [
        (b, g)
        for b in cli._ORACLE_GRID_BETA
        for g in cli._ORACLE_GRID_GAMMA
        if b + g != 0.0
    ]
    far = [(10.0, -0.5), (8.0, -0.2), (40.0, -2.0),
           (5.0, 0.05), (30.0, -1.0), (50.0, -1.0)]
    return grid + far


# ---------------------------------------------------------------------------
# arc-index references
# ---------------------------------------------------------------------------


def _reference_rows() -> dict[tuple[str, tuple[float, ...]], float]:
    """{(name, args): root} of every row of index_references.txt, which
    scripts/index_references.py records; a row without a name is the arc
    index, named delta_of here."""
    rows = {}
    with Path(__file__).with_name("index_references.txt").open() as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            fields = line.split()
            name = "delta_of" if "0x" in fields[0] else fields.pop(0)
            *args, root = map(float.fromhex, fields)
            rows[(name, tuple(args))] = root
    return rows


def index_references() -> dict[tuple[float, float], float]:
    """{(x, v): delta}: the 50-digit roots of f_of(v, delta) = x."""
    return {args: d for (name, args), d in _reference_rows().items() if name == "delta_of"}


def inverse_references() -> dict[tuple[str, tuple[float, ...]], float]:
    """{(name, args): theta}: the 50-digit roots of the inverse index maps
    psi_inv, eta_inv and eta_alpha_inv."""
    return {key: t for key, t in _reference_rows().items() if key[0] != "delta_of"}


def inverse_width(name: str, args: tuple[float, ...], theta: float) -> float:
    """The stop width of the inverse map name(*args) at its answer theta:
    arc_index_tol of the map's certified lower bound (2y for psi_inv, y
    for eta_inv, 2*alpha*y/(alpha + y) for eta_alpha_inv), plus 4 ulp of
    theta."""
    if name == "eta_alpha_inv":
        small, large = sorted(args)
        lo = 2.0 * small / (1.0 + small / large)
    else:
        lo = (2.0 if name == "psi_inv" else 1.0) * args[0]
    return solvers.arc_index_tol(lo) + 4.0 * math.ulp(1.0) * theta


def arc_index_width(x: float, v: float, delta: float) -> float:
    """The stop width of delta_of(x, v) at its answer delta: arc_index_tol
    of the clipped certified lower bound, plus 4 ulp of delta."""
    lo = min(max(hd.h_lower(abs(x), v), 5e-324), hd.TWO_PI * (1.0 - 1e-16))
    return solvers.arc_index_tol(lo) + 4.0 * math.ulp(1.0) * abs(delta)
