import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hestondist as hd
from hestondist import BoundaryPairError, DomainError

from conftest import (
    abscissas,
    arc_index_width,
    index_references,
    positive_variances,
    variances,
)

INDEX_REFERENCES = index_references()

PI = math.pi
BASE = (0.0, 1.0)


class TestDeltaOf:
    def test_axis_is_zero(self):
        for v in (0.0, 0.5, 1.0, 42.0):
            assert hd.delta_of(0.0, v) == 0.0

    def test_boundary_inverts_psi(self):
        for t in (0.3, 1.5, 3.0, 5.0):
            assert hd.delta_of(hd.psi(t), 0.0) == pytest.approx(t, abs=1e-10)

    def test_known_value(self):
        assert hd.delta_of(PI + 2.0, 1.0) == pytest.approx(PI, abs=1e-10)

    @given(st.floats(min_value=0.01, max_value=50.0), variances)
    @settings(max_examples=100)
    def test_defining_equation_and_sign(self, x, v):
        d = hd.delta_of(x, v)
        assert 0.0 < d < 2 * PI
        assert hd.f_of(v, d) == pytest.approx(x, rel=1e-10, abs=1e-10)
        assert hd.delta_of(-x, v) == -d

    @pytest.mark.parametrize("v0", [1.0, 4.0])
    @pytest.mark.parametrize("ratio", [1e-300, 1e-100, 1e-20, 1e-14, 1e-13, 1e-12])
    def test_small_index_is_solved_to_relative_precision(self, v0, ratio):
        # an index below the absolute INDEX_TOL once stopped on the
        # certified lower bound, 59.5% low; the horizontal step h has
        # f_of(v0, delta) = h/v0 and distance h/sqrt(v0) to first order
        h = ratio * v0
        d = hd.delta_of(ratio, 1.0)
        assert hd.f_of(1.0, d) == pytest.approx(ratio, rel=1e-13, abs=0.0)
        if ratio > 1e-150:  # below, sin(delta/4)^2 underflows in dist
            assert hd.dist((0.0, v0), (h, v0)) == pytest.approx(
                h / math.sqrt(v0), rel=1e-13, abs=0.0
            )

    def test_subnormal_index(self):
        # the stop width is floored: INDEX_TOL times a subnormal lower bound
        # rounds to 0, and a solve with no width could never stop.  A
        # nonzero x keeps its sign, and an index below the smallest
        # subnormal is that subnormal.  At these indices f_of(v, delta) is
        # delta*(v + sqrt(v) + 1)/3 to all digits; the root is formed
        # scaled up, so that it is rounded once.
        assert hd.dist(BASE, (5e-324, 0.0)) == 2.0
        for v in (0.0, 0.5, 2.0, 1e6):
            slope = (v + math.sqrt(v) + 1.0) / 3.0
            for x in (5e-324, 1e-320, 1e-310):
                want = max(x * 2.0**200 / slope * 2.0**-200, 5e-324)
                for sign in (1.0, -1.0):
                    delta = hd.delta_of(sign * x, v)
                    assert delta != 0.0 and math.copysign(1.0, delta) == sign
                    assert abs(abs(delta) - want) <= 2e-322, (x, v, delta)

    def test_objective_overflow(self):
        # f_of(1e308, .) overflows to inf before it reaches 2*pi; an inf
        # value only tightens the bracket (the root is about psi_inv(1))
        x = v = 1e308
        delta = hd.delta_of(x, v)
        assert abs(delta - INDEX_REFERENCES[(x, v)]) <= arc_index_width(x, v, delta)

    def test_no_angle_is_evaluated_twice(self, monkeypatch):
        seen = []
        factory = hd.corefuncs._f_of_fn

        def record_factory(v):
            f_v = factory(v)

            def record(d):
                seen.append(d)
                return f_v(d)

            return record

        monkeypatch.setattr(hd.corefuncs, "_f_of_fn", record_factory)
        for x, v in ((3.0, 0.5), (1e-3, 2.0), (1e12, 1.0), (1e-20, 0.0)):
            seen.clear()
            hd.delta_of(x, v)
            assert seen and len(seen) == len(set(seen)), (x, v)

    def test_solves_leave_no_reference_cycle(self):
        # a cycle per solve (a closure that calls itself) is freed only by
        # the garbage collector, whose pauses then set the tail latency
        gc.collect()
        gc.disable()
        try:
            for x, v in ((3.0, 0.5), (-1e-3, 2.0), (1e12, 1.0), (1e-20, 0.0)):
                hd.delta_of(x, v)
                hd.dist((0.1, 1.0), (x, v))
            hd.f_of(0.5, -1.0)
            hd.eta_alpha_inv(2.0, 0.5)
            hd.theta_crit(0.5, 2.0)
            hd.x_crit_inv(0.8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(st.floats(min_value=0.01, max_value=50.0), variances)
    @settings(max_examples=100)
    def test_certified_lower_bound(self, x, v):
        assert hd.h_lower(x, v) <= hd.delta_of(x, v) + 1e-12


class TestDist:
    def test_vertical_pair(self):
        assert hd.dist(BASE, (0.0, 4.0)) == pytest.approx(2.0, abs=1e-14)

    def test_far_pair_exact(self):
        assert hd.dist(BASE, (PI + 2.0, 1.0)) == pytest.approx(
            PI * math.sqrt(2.0), abs=1e-10
        )

    def test_scaled_vertical_pair(self):
        for a in (0.25, 1.0, 9.0):
            assert hd.dist((0.0, a), (0.0, 4.0 * a)) == pytest.approx(
                2.0 * math.sqrt(a), rel=1e-14
            )

    def test_boundary_start_swaps(self):
        assert hd.dist((1.0, 0.0), (1.0, 4.0)) == hd.dist((1.0, 4.0), (1.0, 0.0))

    def test_swapped_pairs_are_symmetric_bit_for_bit(self):
        # where v1 > 1e12*v0 (and where v0 = 0) both orders normalize by
        # v1, so they give the same double; below the swap each order
        # normalizes by its own first variance and may differ in the last
        # bits, at v1 = 1e12*v0 too
        v0 = 0.3
        for x0, x1 in ((0.0, 1.0), (-2.5, 7.0), (1e3, -1e-3)):
            for v1 in (math.nextafter(v0 * 1e12, math.inf), 7e15, 1e30):
                assert hd.dist((x0, v0), (x1, v1)) == hd.dist((x1, v1), (x0, v0))
        for p0, p1 in (((0.5, 0.0), (-1.0, 2.0)), ((-4.0, 0.0), (1e5, 1e-3))):
            assert hd.dist(p0, p1) == hd.dist(p1, p0)

    def test_swap_keeps_the_reduced_abscissa_finite(self):
        # normalized by v0, the abscissa would be 1e10/1e-300 = 1e310 and
        # raise; normalized by v1 it is 1e-10
        d = hd.dist((0.0, 1e-300), (1e10, 1e10))
        assert d == 258190.4512827772
        assert d == hd.dist((1e10, 1e10), (0.0, 1e-300))

    def test_boundary_pair_rejected(self):
        with pytest.raises(BoundaryPairError):
            hd.dist((0.0, 0.0), (1.0, 0.0))
        assert hd.dist((1.0, 0.0), (1.0, 0.0)) == 0.0

    @pytest.mark.parametrize("p0, p1", [
        ((0.0, 1e-10), (1e300, 1e-10)),
        ((-1e308, 1.0), (1e308, 1.0)),
    ])
    def test_reduced_abscissa_overflow(self, p0, p1):
        # (x1 - x0)/v0 overflows: the error names the given points
        with pytest.raises(DomainError, match="overflows") as err:
            hd.dist(p0, p1)
        assert f"{p0!r}, {p1!r}" in str(err.value)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            hd.dist((0.0, -0.1), (0.0, 1.0))

    @given(abscissas, positive_variances, abscissas, variances)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x0, v0, x1, v1):
        d01 = hd.dist((x0, v0), (x1, v1))
        d10 = hd.dist((x1, v1), (x0, v0))
        assert abs(d01 - d10) <= 1e-10 * max(1.0, d01)

    @given(abscissas, variances)
    @settings(max_examples=100)
    def test_mirror(self, x, v):
        assert hd.dist(BASE, (x, v)) == hd.dist(BASE, (-x, v))

    @given(abscissas, positive_variances, abscissas, variances,
           st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_translation_and_scaling(self, x0, v0, x1, v1, a):
        d = hd.dist((x0, v0), (x1, v1))
        shifted = hd.dist((0.0, v0), (x1 - x0, v1))
        assert abs(d - shifted) <= 1e-10 * max(1.0, d)
        scaled = hd.dist((a * x0, a * v0), (a * x1, a * v1))
        assert abs(scaled - math.sqrt(a) * d) <= 1e-10 * max(1.0, scaled)

    def test_two_sided_bound(self, rng):
        for _ in range(500):
            p0 = (rng.uniform(-50, 50), rng.uniform(0, 100))
            p1 = (rng.uniform(-50, 50), rng.uniform(0, 100))
            d = hd.dist(p0, p1)
            t = hd.t_bound(p0, p1)
            assert t <= d <= 12.0 * t

    def test_horizontal_monotonicity(self):
        for v in (0.0, 0.5, 1.0, 3.0):
            xs = [0.1 * k for k in range(30)]
            ds = [hd.dist(BASE, (x, v)) for x in xs]
            assert all(a <= b + 1e-12 for a, b in zip(ds, ds[1:]))

    TINY = [1e-140, 1e-150, 1e-154, 1.5e-154, 1e-155, 1e-160, 1e-165, 1e-200,
            1e-250, 1e-300]

    @pytest.mark.parametrize("h", TINY)
    def test_tiny_separation(self, h):
        # the metric is Euclidean at (0, 1), and the distance's correction
        # is O(h^3); sin(delta/4)**2 underflows below an index of ~1e-154
        for x, v, scale in ((h, 1.0, 1.0), (-h, 1.0, 1.0), (4.0 * h, 4.0, 2.0)):
            want = scale * h
            assert abs(hd.dist((0.0, v), (x, v)) - want) <= 1e-15 * want
        assert abs(hd.dist(BASE, (h, 1.0)) - h) <= 1e-15 * h

    def test_growth_limit(self):
        for beta in (0.0, 1.0, 10.0):
            ratio = hd.dist(BASE, (beta, 1e8)) / math.sqrt(1e8)
            assert abs(ratio - 2.0) <= 1e-3

    def test_level_consistency(self, rng):
        # squared half-distance through the level-curve formula
        for _ in range(200):
            x = rng.choice([-1, 1]) * rng.uniform(0.1, 20.0)
            v = rng.uniform(0.0, 20.0)
            d = hd.dist(BASE, (x, v))
            lam = hd.lambda_big(x, hd.delta_of(x, v))
            assert d * d / 2.0 == pytest.approx(lam, rel=1e-9)


class TestCorrelated:
    def test_identity_frame(self):
        frame = hd.CorrelationFrame(1.0, 0.0)
        p0, p1 = (0.3, 0.8), (1.4, 2.0)
        assert hd.dist_correlated(frame, p0, p1) == hd.dist(p0, p1)

    def test_vol_of_vol_scaling_on_axis(self):
        frame = hd.CorrelationFrame(2.0, 0.0)
        assert hd.dist_correlated(frame, BASE, (0.0, 4.0)) == pytest.approx(1.0)

    def test_reduction_paths_agree(self, rng):
        # full shear vs base-point normalization applied after the shear
        for _ in range(50):
            frame = hd.CorrelationFrame(rng.uniform(0.3, 3.0), rng.uniform(-0.9, 0.9))
            p0 = (rng.uniform(-5, 5), rng.uniform(0.05, 10.0))
            p1 = (rng.uniform(-5, 5), rng.uniform(0.0, 10.0))
            direct = hd.dist_correlated(frame, p0, p1)
            root = math.sqrt(1.0 - frame.rho**2)
            xt = (frame.c * (p1[0] - p0[0]) - frame.rho * (p1[1] - p0[1])) / (
                p0[1] * root
            )
            via_base = (
                math.sqrt(p0[1]) / frame.c * hd.dist(BASE, (xt, p1[1] / p0[1]))
            )
            assert direct == pytest.approx(via_base, rel=1e-10, abs=1e-12)

    def test_frame_validation(self):
        with pytest.raises(DomainError):
            hd.CorrelationFrame(0.0, 0.0)
        with pytest.raises(DomainError):
            hd.CorrelationFrame(1.0, 1.0)

    def test_frame_checked_on_every_route(self):
        frame = hd.CorrelationFrame(c=1.5, rho=-0.6)
        assert frame == (1.5, -0.6)
        for build in (
            lambda: hd.CorrelationFrame(c=0.0, rho=0.0),
            lambda: frame._replace(rho=1.0),
            lambda: hd.CorrelationFrame._make([1.0, 1.0]),
        ):
            with pytest.raises(DomainError):
                build()


class TestChart:
    def test_axis_points(self):
        assert hd.to_delta((0.0, 7.0)) == (0.0, 7.0)

    def test_known_point(self):
        x, v = hd.from_delta((PI, 1.0))
        assert x == pytest.approx(PI + 2.0, abs=1e-13)
        assert v == 1.0

    @given(st.floats(min_value=-6.2, max_value=6.2), variances)
    @settings(max_examples=100)
    def test_round_trip(self, theta, v):
        p = hd.from_delta((theta, v))
        back = hd.to_delta(p)
        assert back.theta == pytest.approx(theta, abs=1e-10)
        assert back.v == v

    def test_componentwise_monotonicity(self):
        # distance from the base grows with either chart coordinate
        pairs = [(0.0, 1.0), (0.5, 1.1), (1.5, 2.0), (3.0, 2.5), (5.0, 7.0)]
        ds = [hd.dist(BASE, hd.from_delta(c)) for c in pairs]
        assert all(a <= b + 1e-12 for a, b in zip(ds, ds[1:]))
