import math

import numpy as np
import pytest

import hestondist as hd
from hestondist import BracketError, HestonDistError, NonFiniteSampleError
from hestondist.errors import ScanShapeError
from hestondist.solvers import minimize_on_interval, solve_monotone

PI = math.pi


class TestSolveMonotone:
    def test_identity(self):
        rep = solve_monotone(lambda x: x, (0.0, 1.0), target=0.5)
        assert rep.value == pytest.approx(0.5, abs=1e-12)
        assert rep.method == "bisection-hybrid"
        assert rep.residual <= 1e-12

    def test_inverts_psi(self):
        rep = solve_monotone(hd.psi, (1e-6, 2 * PI - 1e-9), target=PI / 2)
        assert rep.value == pytest.approx(PI, abs=1e-10)

    def test_inverts_f_of(self):
        rep = solve_monotone(lambda d: hd.f_of(1.0, d), (1e-6, 2 * PI - 1e-9),
                             target=PI + 2.0)
        assert rep.value == pytest.approx(PI, abs=1e-10)

    def test_affine_rescale_invariance(self):
        fn = lambda x: math.expm1(x) - 0.7
        r1 = solve_monotone(fn, (0.0, 2.0))
        r2 = solve_monotone(lambda x: 1e6 * fn(x), (0.0, 2.0))
        assert r1.value == pytest.approx(r2.value, abs=1e-11)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            solve_monotone(lambda x: x * x + 1.0, (0.0, 1.0), target=0.0)

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            solve_monotone(lambda x: x, (1.0, 0.0))

    def test_exact_endpoint(self):
        rep = solve_monotone(lambda x: x, (0.5, 1.0), target=0.5)
        assert rep.value == 0.5 and rep.iterations == 0


class TestMinimizeOnInterval:
    def test_quadratic(self):
        rep, val = minimize_on_interval(lambda t: (t - 1.0) ** 2, (0.0, 2.0))
        assert rep.value == pytest.approx(1.0, abs=1e-8)
        assert val == pytest.approx(0.0, abs=1e-15)
        assert rep.method == "grid-refine"

    def test_cosine(self):
        rep, val = minimize_on_interval(math.cos, (0.0, 2 * PI))
        assert rep.value == pytest.approx(PI, abs=1e-8)
        assert val == pytest.approx(-1.0, abs=1e-14)

    def test_endpoint_minimum(self):
        rep, val = minimize_on_interval(lambda t: t, (2.0, 5.0))
        assert rep.value == pytest.approx(2.0, abs=1e-9)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_never_above_probe_points(self):
        fn = lambda t: math.sin(3 * t) + 0.1 * t
        lo, hi = 0.3, 6.0
        _, val = minimize_on_interval(fn, (lo, hi))
        assert val <= min(fn(lo), fn(hi), fn(0.5 * (lo + hi))) + 1e-15

    def test_kp_objective_matches_oracle(self):
        # the vertical-line objective on its standard interval, against the
        # dense-grid reference
        beta = 1.0
        _, half_sq = minimize_on_interval(
            lambda t: hd.lambda_big(beta, t), hd.vertical_bracket(beta, "kp")
        )
        reference = hd.oracle_dist(beta, 0.0)
        assert math.sqrt(2 * half_sq) == pytest.approx(reference.value, abs=1e-7)

    def test_scan_density_stability(self):
        # doubling the scan never materially changes the result
        beta, gamma = 0.8, 1.9
        lo = hd.eta_alpha_inv(gamma, beta) + 1e-9
        hi = hd.psi_inv(beta) - 1e-9
        fn = lambda t: hd.lambda_plus(beta, gamma, t)
        _, v1 = minimize_on_interval(fn, (lo, hi), scan_cells=256)
        _, v2 = minimize_on_interval(fn, (lo, hi), scan_cells=512)
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))

    def test_non_finite_sample(self):
        with pytest.raises(NonFiniteSampleError) as exc:
            minimize_on_interval(lambda t: math.inf if t > 0.5 else t, (0.0, 1.0))
        assert exc.value.node_index > 0

    def test_degenerate_interval(self):
        rep, val = minimize_on_interval(lambda t: (t - 3.0) ** 2, (1.0, 1.0))
        assert rep.value == 1.0
        assert val == 4.0


class TestArrayScan:
    """The fn_many contract: the array scan behaves exactly like the scalar one."""

    def test_non_finite_node_matches_scalar_scan(self):
        fn = lambda t: math.inf if t > 0.5 else t
        fn_many = lambda ts: np.where(ts > 0.5, math.inf, ts)
        with pytest.raises(NonFiniteSampleError) as scalar:
            minimize_on_interval(fn, (0.0, 1.0))
        with pytest.raises(NonFiniteSampleError) as array:
            minimize_on_interval(fn, (0.0, 1.0), fn_many=fn_many)
        assert array.value.node_index == scalar.value.node_index == 129
        assert array.value.x == scalar.value.x
        assert type(array.value.x) is float

    def test_nan_node_is_rejected(self):
        fn_many = lambda ts: np.where(ts == 0.25, math.nan, ts)
        with pytest.raises(NonFiniteSampleError) as exc:
            minimize_on_interval(lambda t: t, (0.0, 1.0), fn_many=fn_many)
        assert exc.value.node_index == 64

    def test_tie_goes_to_lowest_index(self):
        # equal minima at the nodes 0.25 and 0.75 (indices 64 and 192)
        fn = lambda t: abs(abs(t - 0.5) - 0.25)
        fn_many = lambda ts: np.abs(np.abs(ts - 0.5) - 0.25)
        rep, val = minimize_on_interval(fn, (0.0, 1.0), fn_many=fn_many)
        assert (rep, val) == minimize_on_interval(fn, (0.0, 1.0))
        assert rep.value == 0.25 and val == 0.0
        assert type(rep.value) is float and type(val) is float

    def test_degenerate_interval_never_calls_fn_many(self):
        def fn_many(ts):
            raise AssertionError("fn_many called on a degenerate interval")

        rep, val = minimize_on_interval(
            lambda t: (t - 3.0) ** 2, (1.0, 1.0), fn_many=fn_many
        )
        assert rep.value == 1.0 and val == 4.0

    def test_nodes_are_read_only(self):
        def fn_many(ts):
            with pytest.raises(ValueError):
                ts[0] = 5.0
            return ts * ts

        fn = lambda t: t * t
        got = minimize_on_interval(fn, (-1.0, 2.0), fn_many=fn_many)
        assert got == minimize_on_interval(fn, (-1.0, 2.0))

    @pytest.mark.parametrize(
        "fn_many",
        [
            lambda ts: ts[:-1],
            lambda ts: 0.0,
            lambda ts: ts[:, None],
            lambda ts: np.concatenate([ts, ts]),
        ],
        ids=["short", "scalar", "column", "long"],
    )
    def test_wrong_shape_raises(self, fn_many):
        with pytest.raises(ScanShapeError) as exc:
            minimize_on_interval(lambda t: t, (0.0, 1.0), fn_many=fn_many)
        assert isinstance(exc.value, HestonDistError)
