import math
import re

import pytest

import hestondist as hd
from conftest import VERTICAL_VARIANTS, vertical_variant_bracket, vertical_variant_distance
from hestondist import DomainError

PI = math.pi
BASE = (0.0, 1.0)

# reference values computed once with oracle_dist as of commit 133a571,
# called with cells=8192 and tol=1e-12 (tuning arguments it had then)
DHAT_1_0 = 0.965128520259887
DHAT_2_3 = 3.236616925604146


class TestAdmissibleIntervals:
    def test_vertical(self):
        (iv,) = hd.admissible_intervals(2.0, 0.0)
        assert iv.lo == 0.0
        assert iv.hi == pytest.approx(hd.psi_inv(2.0))
        assert iv.branch_plus and not iv.branch_minus and not iv.hi_open

    def test_through_origin(self):
        (iv,) = hd.admissible_intervals(0.0, 1.5)
        assert iv.lo == 0.0
        assert iv.hi == pytest.approx(hd.psi_inv(1.5))
        assert iv.branch_minus and not iv.branch_plus and iv.hi_open

    def test_diagonal(self):
        (iv,) = hd.admissible_intervals(0.9, 0.9)
        assert iv.lo == pytest.approx(hd.eta_inv(0.9))
        assert iv.hi == pytest.approx(hd.psi_inv(0.9))
        assert iv.branch_plus and iv.branch_minus

    def test_steep(self):
        both, tail = hd.admissible_intervals(0.5, 2.0)
        assert both.lo == pytest.approx(hd.eta_alpha_inv(2.0, 0.5))
        assert both.hi == pytest.approx(hd.psi_inv(0.5))
        assert both.branch_plus and both.branch_minus
        assert tail.lo == both.hi and tail.hi == pytest.approx(hd.psi_inv(2.0))
        assert tail.branch_minus and not tail.branch_plus and tail.hi_open

    def test_shallow(self):
        both, tail = hd.admissible_intervals(2.0, 0.5)
        assert both.lo == pytest.approx(hd.eta_alpha_inv(2.0, 0.5))
        assert both.hi == pytest.approx(hd.psi_inv(0.5))
        assert tail.hi == pytest.approx(hd.psi_inv(2.0))
        assert tail.branch_plus and not tail.branch_minus

    def test_left_slanted(self):
        (iv,) = hd.admissible_intervals(1.0, -2.0)
        assert iv.lo == pytest.approx(-hd.psi_inv(2.0))
        assert iv.hi == pytest.approx(hd.psi_inv(1.0))
        assert iv.branch_plus

    def test_requires_reflected_input(self):
        with pytest.raises(DomainError):
            hd.admissible_intervals(-1.0, 0.0)

    def test_membership_consistency(self, rng):
        # every interval index really does intersect the line
        for beta, gamma in ((0.9, 0.9), (0.5, 2.0), (2.0, 0.5), (1.0, -2.0)):
            for iv in hd.admissible_intervals(beta, gamma):
                span = iv.hi - iv.lo
                for frac in (0.25, 0.5, 0.75):
                    t = iv.lo + frac * span
                    if t <= 0.0:
                        continue
                    assert hd.discriminant(beta, gamma, t) >= -1e-9


class TestDistToLine:
    def test_tangent_line_value(self):
        sol = hd.dist_to_line(PI / 4, 1.0)
        assert sol.value == pytest.approx(PI / 2, abs=1e-8)

    def test_membership(self):
        sol = hd.dist_to_line(0.7, -0.7)
        assert sol.value == 0.0
        assert sol.branch == "on-line"
        assert hd.dist_to_line(0.0, 0.0).value == 0.0

    def test_frozen_vertical_reference(self):
        assert hd.dist_to_line(1.0, 0.0).value == pytest.approx(DHAT_1_0, abs=1e-9)

    def test_frozen_slanted_reference(self):
        assert hd.dist_to_line(2.0, 3.0).value == pytest.approx(DHAT_2_3, abs=1e-9)

    def test_against_oracle(self):
        for beta, gamma in ((1.0, 0.0), (2.0, 3.0)):
            o = hd.oracle_dist(beta, gamma)
            f = hd.dist_to_line(beta, gamma)
            assert abs(f.value - o.value) <= 1e-7

    @pytest.mark.parametrize("line", [
        (1.1445945236416332e-4, 1.1446902545269265e-4),
        (-1.5425772158292659e-4, -1.5426024420367207e-4),
        (2.065323992930172e-4, 2.0653263642554895e-4),
    ])
    def test_narrow_tangency_window_against_oracle(self, line):
        # near-diagonal lines whose tangency window is at most 6e-13 wide
        # at theta ~ 2e-4, with the minimum away from the window's lower end
        o = hd.oracle_dist(*line)
        assert hd.dist_to_line(*line).value == pytest.approx(o.value, rel=1e-9)

    def test_reflection_is_exact(self, rng):
        for _ in range(25):
            beta = rng.uniform(-4.0, 4.0)
            gamma = rng.uniform(-3.0, 3.0)
            a = hd.dist_to_line(beta, gamma)
            b = hd.dist_to_line(-beta, -gamma)
            assert a.value == b.value
            assert a.argmin.x == -b.argmin.x or beta == gamma == 0.0

    def test_synge_relation(self, rng):
        for _ in range(20):
            sol = hd.dist_to_line(rng.uniform(0.1, 4.0), rng.uniform(-2.0, 3.0))
            assert sol.value == math.sqrt(2.0 * sol.half_squared)

    def test_solution_invariants(self, rng):
        for _ in range(25):
            beta = rng.uniform(0.05, 4.0)
            gamma = rng.uniform(-3.0, 3.0)
            if beta + gamma == 0.0:
                continue
            sol = hd.dist_to_line(beta, gamma)
            x, v = sol.argmin
            assert abs(x - (beta + gamma * v)) <= 1e-9 * max(1.0, abs(x))
            assert hd.dist(BASE, sol.argmin) == pytest.approx(sol.value, abs=1e-8)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            hd.dist_to_line(math.nan, 0.0)

    @pytest.mark.parametrize(
        "line", [(1e300, 2e300), (1e200, 1e200), (1e308, 0.0), (-1e308, 0.0)]
    )
    def test_saturated_distance_raises(self, line):
        # the half-squared distance saturates at the largest double: a typed
        # error that names the line, never an infinite distance
        with pytest.raises(hd.ConvergenceError, match=re.escape(repr(line))):
            hd.dist_to_line(*line)

    def test_saturated_strike_is_a_smile_failure(self):
        # v0 = 1e-308 reduces the strikes 50 and 200 to vertical lines near
        # +-6.9e307, beyond the range of the half-squared distance
        entries = hd.smile_table(100.0, 1e-308, hd.CorrelationFrame(1.0, 0.0),
                                 [50.0, 101.0, 200.0])
        assert [type(e) for e in entries] == [hd.SmileFailure, hd.SmilePoint,
                                              hd.SmileFailure]
        assert entries[0].error.startswith("ConvergenceError: the distance to the line")
        assert math.isfinite(entries[1].distance)


class TestVerticalVariants:
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, PI / 2, 2.0, 5.0, 20.0])
    def test_variants_agree(self, beta):
        ref = hd.dist_to_line(beta, 0.0).value
        for variant in VERTICAL_VARIANTS:
            alt = vertical_variant_distance(beta, variant)
            assert abs(alt - ref) <= 1e-9

    def test_monotone_tail(self):
        # widening to the whole admissible set never lowers the minimum
        for beta in (2.0, 5.0, 11.0):
            kp = hd.dist_to_line(beta, 0.0).value
            full = vertical_variant_distance(beta, "record")
            assert full >= kp - 1e-9

    def test_bracket_shapes(self):
        lo, hi = hd.vertical_bracket(1.0)
        assert (lo, hi) == (1.0 / 11.0, 2.0)
        lo, hi = hd.vertical_bracket(3.0)
        assert (lo, hi) == (1.0 / 7.0, PI)
        lo, hi = vertical_variant_bracket(1.0, "reduction")
        assert lo > 0 and hi == pytest.approx(hd.x_crit_inv(1.0))
        with pytest.raises(DomainError):
            hd.vertical_bracket(0.0)


class TestTangentLines:
    def test_exact_path(self):
        sol = hd.dist_to_tangent_line(PI / 2)
        assert sol.value == PI / 2
        assert sol.argmin.x == pytest.approx((PI / 2 + 1.0) / 2.0)
        assert sol.argmin.v == pytest.approx(0.5)
        assert sol.branch == "tangent-exact"

    def test_small_angle(self):
        assert hd.dist_to_tangent_line(1e-6).value == 1e-6

    def test_general_path_agreement(self):
        theta = 2.0
        beta, gamma = hd.tangent_line_params(theta)
        assert (beta, gamma) == (1.0, math.tan(1.0))
        assert hd.dist_to_line(beta, gamma).value == pytest.approx(theta, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            hd.dist_to_tangent_line(PI)


class TestCorrelatedLine:
    def test_identity_reduction(self):
        frame = hd.CorrelationFrame(1.0, 0.0)
        for beta, gamma in ((1.0, 0.0), (0.5, 2.0), (2.0, -0.5)):
            assert hd.dist_to_line_correlated(frame, BASE, beta, gamma) == (
                hd.dist_to_line(beta, gamma).value
            )
            assert hd.oracle_dist_correlated(frame, BASE, beta, gamma) == (
                hd.oracle_dist(beta, gamma).value
            )

    def test_membership_preserved(self, rng):
        for _ in range(10):
            frame = hd.CorrelationFrame(rng.uniform(0.5, 2.0), rng.uniform(-0.8, 0.8))
            gamma = rng.uniform(-1.0, 1.0)
            v0 = rng.uniform(0.2, 3.0)
            beta = rng.uniform(-2.0, 2.0)
            x0 = beta + gamma * v0  # p0 on the line
            d = hd.dist_to_line_correlated(frame, (x0, v0), beta, gamma)
            assert d == pytest.approx(0.0, abs=1e-7)

    def test_against_correlated_oracle(self, rng):
        for _ in range(8):
            frame = hd.CorrelationFrame(rng.uniform(0.5, 2.5), rng.uniform(-0.8, 0.8))
            p0 = (rng.uniform(-2.0, 2.0), rng.uniform(0.1, 4.0))
            beta = rng.uniform(-2.0, 2.0)
            gamma = rng.uniform(-2.0, 2.0)
            fast = hd.dist_to_line_correlated(frame, p0, beta, gamma)
            slow = hd.oracle_dist_correlated(frame, p0, beta, gamma)
            assert abs(fast - slow) <= 1e-6 * max(1.0, slow)

    def test_boundary_source_rejected(self):
        frame = hd.CorrelationFrame(1.0, 0.0)
        with pytest.raises(DomainError):
            hd.dist_to_line_correlated(frame, (0.0, 0.0), 1.0, 0.0)


class TestOracle:
    def test_tangent_line(self):
        assert hd.oracle_dist(PI / 4, 1.0).value == pytest.approx(PI / 2, abs=1e-6)

    def test_membership(self):
        assert hd.oracle_dist(0.8, -0.8).value == pytest.approx(0.0, abs=1e-9)

    def test_frozen_reference(self):
        assert hd.oracle_dist(1.0, 0.0).value == pytest.approx(DHAT_1_0, abs=1e-9)

    def test_solution_fields(self):
        sol = hd.oracle_dist(1.5, 0.5)
        assert sol.branch == "oracle"
        x, v = sol.argmin
        assert x == pytest.approx(1.5 + 0.5 * v)
        assert hd.dist(BASE, sol.argmin) == pytest.approx(sol.value, abs=1e-9)

    def test_far_minimizer_horizon_growth(self):
        # the minimizer (v = 21.2) sits beyond the initial horizon v = 16
        sol = hd.oracle_dist(100.0, 1.0)
        f = hd.dist_to_line(100.0, 1.0)
        assert sol.argmin.v > 16.0
        assert abs(sol.value - f.value) <= 1e-6 * max(1.0, sol.value)

    @pytest.mark.parametrize("beta", [1e7, 1e9, 1e12])
    def test_far_vertical_line(self, beta):
        # the argmin (v ~ 0.64*beta) lies far beyond the first grid's v = 16;
        # the horizontal-line bound certifies the horizon of the second grid
        sol = hd.oracle_dist(beta, 0.0)
        want = hd.dist_to_line(beta, 0.0).value
        assert abs(sol.value - want) <= 1e-12 * want

    @pytest.mark.parametrize("beta", [1e3, 1e6, 1e9, 1e12])
    def test_far_diagonal_line(self, beta):
        sol = hd.oracle_dist(beta, beta)
        want = hd.dist_to_line(beta, beta).value
        assert abs(sol.value - want) <= 1e-9 * want

    @pytest.mark.parametrize("x", [1e7, 1e9])
    def test_far_correlated_line(self, x):
        frame, p0 = hd.CorrelationFrame(0.5, -0.7), (0.0, 0.04)
        got = hd.oracle_dist_correlated(frame, p0, x, 0.0)
        want = hd.dist_to_line_correlated(frame, p0, x, 0.0)
        assert abs(got - want) <= 1e-12 * want

    def test_horizon_bound_beyond_the_squared_range(self):
        # the lower bound at the first horizon squares a separation above
        # 1e154; the answer itself is the far-field saturation of delta_of
        sol = hd.oracle_dist(1e160, 1.0)
        assert sol.branch == "oracle"
        assert math.isfinite(sol.value) and sol.value > 0.0


class TestBranchLaw:
    def test_winning_branch_obeys_comparison(self, rng):
        # wherever both branch minima exist, the reported winner matches the
        # sign of gamma*cot(theta/2) - 1 at its argmin
        done = 0
        while done < 40:
            beta = rng.uniform(0.1, 3.0)
            gamma = rng.uniform(0.1, 3.0)
            if abs(beta - gamma) < 1e-6:
                continue
            sol = hd.dist_to_line(beta, gamma)
            t = sol.theta_at_argmin
            if t <= 0.0 or t >= 2 * PI:
                continue
            marker = gamma / math.tan(0.5 * t) - 1.0
            if abs(marker) < 1e-9:
                continue
            if (
                sol.branch == "slanted-plus"
                and t < hd.psi_inv(gamma) - 1e-6  # minus root on the physical branch
                and hd.discriminant(beta, gamma, t) > 1e-9
                and hd.s_minus(beta, gamma, t) >= 0.0
            ):
                # plus branch can only win where it is no worse than minus
                lp = hd.lambda_plus(beta, gamma, t)
                lm = hd.lambda_minus(beta, gamma, t)
                assert lp <= lm + 1e-9 * max(1.0, lm)
            done += 1


@pytest.mark.parametrize("line", [
    (0.00010767238624940404, 0.00010767189315060647),
    (0.00014098351297987718, 0.0001409833676576981),
    (-0.00022579613302717833, -0.00022579571514624988),
    (0.00015583862023028837, 0.00015583831468805504),
    (-0.00010755576381973211, -0.00010755554041624564),
    (0.0001034368601108212, 0.00010343672950475314),
    (0.00017630564521144162, 0.00017630533661294005),
    (0.0003306857862669418, 0.0003306854019799227),
    (-0.0013804337897579018, -0.0013804337897579018),
    (-0.0010542693756237745, -0.0010542693756237745),
])
def test_tangency_end_minimum(line):
    # near-diagonal and equal lines whose minimum lies 2e-16 to 2e-15 above
    # a row's tangency end lo, at theta ~ 2e-4, where the slope is -inf or
    # about 1e6: a root solve stopped at a width of 1e-12*theta reads 1e-7
    # to 1.5e-5 high
    o = hd.oracle_dist(*line)
    assert hd.dist_to_line(*line).value == pytest.approx(o.value, rel=1e-10)


@pytest.mark.parametrize("line", [
    (-0.002151894335005844, -0.002151902337444505),
    (0.001996168269921842, 0.001996175796396249),
    (0.0017530252660861727, 0.0017530306902791705),
    (-3.284462519645894e-05, -3.2845605304321946e-05),
    (-3.1222577306924596e-05, -3.122320731197973e-05),
])
def test_nearest_point_cap_keeps_the_row_open(line):
    # gamma slightly above beta: the rows end at the cap theta_crit(beta,
    # gamma), which lies just above the tangency index.  Solved to an
    # absolute 1e-13 the cap fell below it and the rows collapsed onto
    # their lower end, 1.1e-6 to 0.39 relative above the oracle
    o = hd.oracle_dist(*line)
    assert hd.dist_to_line(*line).value == pytest.approx(o.value, rel=1e-10)
