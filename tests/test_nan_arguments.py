"""A NaN argument, an infinite vol-of-vol, a non-finite coordinate of a
point, or finite arguments whose result would be NaN raise DomainError
instead of returning NaN or a number."""

import math

import pytest

import hestondist as hd

NAN = math.nan

# (function, argument position, arguments with the NaN in that position)
CASES = [
    (hd.dist, "p1.v", ((0.0, 1.0), (0.0, NAN))),
    (hd.f_of, "v", (NAN, 1.0)),
    (hd.from_delta, "d.v", ((1.0, NAN),)),
    (hd.lambda_big, "x", (NAN, 1.0)),
    (hd.curve_v, "x", (1.0, NAN)),
    (hd.curve_slope, "x", (1.0, NAN)),
    (hd.curve_curvature, "x", (1.0, NAN)),
    (hd.sample_curve, "x_max", (1.0, NAN, 2)),
    (hd.dist_to_horizontal, "tau", (NAN,)),
    (hd.t_bound, "p0.x", ((NAN, 1.0), (0.5, 2.0))),
    (hd.t_bound, "p0.v", ((0.0, NAN), (0.5, 2.0))),
    (hd.t_bound, "p1.x", ((0.0, 1.0), (NAN, 2.0))),
    (hd.t_bound, "p1.v", ((0.0, 1.0), (0.5, NAN))),
    (hd.h_lower, "x", (NAN, 1.0)),
    (hd.h_lower, "v", (1.0, NAN)),
    (hd.g_major, "v", (NAN, 1.0)),
    (hd.eta_alpha, "alpha", (NAN, 0.5)),
    (hd.zeta, "gamma", (NAN, 1.0)),
    (hd.s_tangent, "beta", (NAN, 1.0)),
    *[
        (fn, name, args)
        for fn in (
            hd.discriminant, hd.s_plus, hd.s_minus, hd.lambda_plus, hd.lambda_minus
        )
        for name, args in (("beta", (NAN, 1.0, 1.0)), ("gamma", (1.0, NAN, 1.0)))
    ],
    (hd.eta_alpha_inv, "y", (2.0, NAN)),
    (hd.vertical_bracket, "beta", (NAN,)),
    (hd.psi_inv, "y", (NAN,)),
    (hd.eta_inv, "y", (NAN,)),
    (hd.theta_crit, "beta", (NAN, 1.0)),
    (hd.CorrelationFrame, "c=inf", (math.inf, 0.0)),
    # an infinite line parameter or abscissa gave NaN (-inf for the
    # discriminant) where these functions now raise
    (hd.lambda_big, "x=inf", (math.inf, 1.0)),
    (hd.lambda_big, "x=-inf", (-math.inf, -1.0)),
    (hd.s_plus, "beta=-inf", (-math.inf, 1.0, 1.0)),
    (hd.s_minus, "gamma=-inf", (1.0, -math.inf, 1.0)),
    (hd.lambda_plus, "beta=-inf", (-math.inf, 1.0, 1.0)),
    (hd.lambda_minus, "gamma=inf", (1.0, math.inf, 4.0)),
    (hd.discriminant, "beta=inf, gamma=inf", (math.inf, math.inf, 1.0)),
]


@pytest.mark.parametrize(
    "fn, position, args", CASES, ids=[f"{fn.__name__}-{pos}" for fn, pos, _ in CASES]
)
def test_nan_argument_raises_domain_error(fn, position, args):
    with pytest.raises(hd.DomainError):
        fn(*args)


# Finite line parameters so large, at angles so small, that beta*B or
# gamma*B overflows: the public roots came out NaN (inf/inf, 0*inf).  A
# vol-of-vol below about 1e-308 overflows the reduction's scale
# sqrt(v0)/c, and the reduced line passes through (0, 1): 0*inf.
NAN_RESULTS = [
    (hd.s_plus, (1.28e189, 1e-308, 6.79e-285), "no representable root"),
    (hd.s_minus, (-5e-324, 7.93e209, 1.95e-205), "no representable root"),
    (hd.s_tangent, (0.0, 1e-308), "no representable root"),
    (hd.lambda_plus, (3.12e300, -1.59e76, 6.46e-60), "no representable root"),
    (hd.lambda_minus, (2.47e281, -1.7e308, 7.01e-97), "no representable root"),
    (hd.dist_to_line_correlated,
     (hd.CorrelationFrame(1e-310, 0.5), (0.0, 1.0), 1.0, 0.5), "overflows"),
]


@pytest.mark.parametrize(
    "fn, args, message", NAN_RESULTS,
    ids=[f"{fn.__name__}-{args}" for fn, args, _ in NAN_RESULTS],
)
def test_nan_result_raises_domain_error(fn, args, message):
    with pytest.raises(hd.DomainError, match=message):
        fn(*args)


INF = math.inf
FRAME = hd.CorrelationFrame(c=1.5, rho=-0.4)

# (function, coordinate, arguments with the non-finite value there)
NON_FINITE = [
    *[
        case
        for bad in (INF, -INF, NAN)
        for case in (
            (hd.dist, f"p0.x={bad}", ((bad, 1.0), (0.5, 2.0))),
            (hd.dist, f"p1.x={bad}", ((0.0, 1.0), (bad, 2.0))),
            (hd.dist, f"p1.x={bad}, v1=0", ((0.0, 1.0), (bad, 0.0))),
            (hd.delta_of, f"x={bad}", (bad, 1.0)),
            (hd.dist_correlated, f"p1.x={bad}", (FRAME, (0.0, 1.0), (bad, 2.0))),
            (hd.to_delta, f"p.x={bad}", ((bad, 1.0),)),
        )
    ],
    (hd.dist, "p0.v=inf", ((0.0, INF), (0.5, 2.0))),
    (hd.dist, "p1.v=inf", ((0.0, 1.0), (0.5, INF))),
    (hd.dist, "both on the boundary at x=inf", ((INF, 0.0), (INF, 0.0))),
    (hd.delta_of, "v=inf", (1.0, INF)),
    (hd.dist_correlated, "p1.v=inf", (FRAME, (0.0, 1.0), (0.5, INF))),
    (hd.to_delta, "p.v=inf", ((1.0, INF),)),
]


@pytest.mark.parametrize(
    "fn, coordinate, args",
    NON_FINITE,
    ids=[f"{fn.__name__}-{coordinate}" for fn, coordinate, _ in NON_FINITE],
)
def test_non_finite_coordinate_raises_domain_error(fn, coordinate, args):
    with pytest.raises(hd.DomainError, match="coordinates must be finite"):
        fn(*args)


# The oracles reject a non-finite line parameter or source coordinate up
# front, as dist_to_line does, instead of failing in the grid (a
# ConvergenceError on the horizon, a DomainError naming a sheared point, or
# a numpy RuntimeWarning).
ORACLE = [
    *[
        case
        for bad in (INF, -INF, NAN)
        for case in (
            (hd.oracle_dist, f"beta={bad}", (bad, 1.0)),
            (hd.oracle_dist, f"gamma={bad}", (1.0, bad)),
            (hd.oracle_dist, f"beta={bad}, gamma=0", (bad, 0.0)),
            (hd.oracle_dist_correlated, f"beta={bad}", (FRAME, (0.0, 0.04), bad, 0.5)),
            (hd.oracle_dist_correlated, f"gamma={bad}", (FRAME, (0.0, 0.04), 1.0, bad)),
            (hd.oracle_dist_correlated, f"p0.x={bad}", (FRAME, (bad, 0.04), 1.0, 0.5)),
        )
    ],
    (hd.oracle_dist_correlated, "p0.v=inf", (FRAME, (0.0, INF), 1.0, 0.5)),
    (hd.oracle_dist_correlated, "p0.v=nan", (FRAME, (0.0, NAN), 1.0, 0.5)),
]


@pytest.mark.parametrize(
    "fn, argument, args",
    ORACLE,
    ids=[f"{fn.__name__}-{argument}" for fn, argument, _ in ORACLE],
)
def test_oracle_rejects_non_finite_parameters(fn, argument, args):
    with pytest.raises(hd.DomainError, match="line parameters must be finite"):
        fn(*args)
