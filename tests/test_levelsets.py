import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hestondist as hd
from hestondist import DomainError

PI = math.pi
BASE = (0.0, 1.0)


def curve_v_split(theta, x):
    """curve_v by the equal-value decomposition v1 - v2 (affine minus
    root-of-affine), which subtracts two positive quantities."""
    t = abs(theta)
    sh = math.sin(0.5 * t)
    p = t - math.sin(t)
    u = 2.0 * sh - t * math.cos(0.5 * t)
    r = 2.0 * p * x + (2.0 * sh - t) * (2.0 * sh + t)
    v1 = 2.0 * sh * sh / p * x + 2.0 * u * u / (p * p) - 1.0
    v2 = 2.0 * sh * u / (p * p) * math.sqrt(r)
    return v1 - v2


class TestCurve:
    def test_starts_on_boundary(self):
        for t in (0.4, 1.1, 2.8, 5.2):
            assert hd.curve_v(t, hd.psi(t)) == pytest.approx(0.0, abs=1e-12)

    def test_critical_ordinate(self):
        for t in (0.5, 1.2, 2.5, 3.0):
            x0 = 0.5 * (t + math.sin(t))
            assert hd.curve_v(t, x0) == pytest.approx(
                math.cos(0.5 * t) ** 2, rel=1e-10
            )

    def test_mirror(self):
        assert hd.curve_v(-1.3, 2.0) == hd.curve_v(1.3, 2.0)

    def test_split_form_agrees(self):
        for t in (0.7, 1.9, 4.0):
            for x in (hd.psi(t) + 0.2, hd.psi(t) + 3.0, hd.psi(t) + 40.0):
                assert curve_v_split(t, x) == pytest.approx(
                    hd.curve_v(t, x), rel=1e-8
                )

    def test_membership(self, rng):
        for _ in range(100):
            t = rng.uniform(0.05, 2 * PI - 0.05)
            x = hd.psi(t) + rng.uniform(0.0, 10.0)
            v = hd.curve_v(t, x)
            assert hd.delta_of(x, v) == pytest.approx(t, abs=1e-9)

    def test_increasing_convex(self):
        for t in (0.6, 1.8, 3.9):
            xs = [hd.psi(t) + 0.05 * k for k in range(200)]
            vs = [hd.curve_v(t, x) for x in xs]
            d1 = [b - a for a, b in zip(vs, vs[1:])]
            assert all(d > 0 for d in d1)
            assert all(b > a for a, b in zip(d1, d1[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            hd.curve_v(1.0, hd.psi(1.0) - 0.1)
        with pytest.raises(DomainError):
            hd.curve_v(0.0, 1.0)


class TestDerivatives:
    def test_flat_start(self):
        for t in (0.5, 2.0, 4.8):
            assert hd.curve_slope(t, hd.psi(t)) == pytest.approx(0.0, abs=1e-9)

    def test_tangent_slope_at_critical_point(self):
        for t in (0.5, 1.3, 2.4):
            x0 = 0.5 * (t + math.sin(t))
            assert hd.curve_slope(t, x0) == pytest.approx(
                1.0 / math.tan(0.5 * t), rel=1e-10
            )

    def test_slope_matches_finite_difference(self, rng):
        for _ in range(50):
            t = rng.uniform(0.2, 2 * PI - 0.2)
            x = hd.psi(t) + rng.uniform(0.1, 8.0)
            h = 1e-6 * max(1.0, abs(x))
            fd = (hd.curve_v(t, x + h) - hd.curve_v(t, x - h)) / (2 * h)
            assert hd.curve_slope(t, x) == pytest.approx(fd, rel=1e-6)

    def test_curvature_matches_finite_difference(self, rng):
        for _ in range(30):
            t = rng.uniform(0.3, 5.5)
            x = hd.psi(t) + rng.uniform(0.2, 5.0)
            h = 1e-4 * max(1.0, abs(x))
            fd = (
                hd.curve_v(t, x + h) - 2.0 * hd.curve_v(t, x) + hd.curve_v(t, x - h)
            ) / (h * h)
            assert hd.curve_curvature(t, x) == pytest.approx(fd, rel=1e-5)

    def test_curvature_finite_and_positive_at_start(self):
        # N = u^2 > 0 at the curve start, so the curvature is finite there
        for t in (0.8, 2.2, 4.4):
            c = hd.curve_curvature(t, hd.psi(t))
            assert math.isfinite(c) and c > 0.0

    def test_positive_in_domain(self, rng):
        for _ in range(50):
            t = rng.uniform(0.2, 2 * PI - 0.2)
            x = hd.psi(t) + rng.uniform(0.01, 10.0)
            assert hd.curve_slope(t, x) > 0.0
            assert hd.curve_curvature(t, x) > 0.0


class TestDistToLevelSet:
    def test_close_regime(self):
        sol = hd.dist_to_level_set(PI / 2)
        assert sol.value == pytest.approx(PI / 2, abs=1e-15)
        assert sol.argmin.x == pytest.approx((PI / 2 + 1.0) / 2.0, abs=1e-15)
        assert sol.argmin.v == pytest.approx(0.5, abs=1e-15)
        assert sol.branch == "level-set"

    def test_far_regime(self):
        sol = hd.dist_to_level_set(PI)
        assert sol.value == pytest.approx(PI, abs=1e-15)
        assert sol.argmin.x == pytest.approx(PI / 2, abs=1e-14)
        assert sol.argmin.v == 0.0

    def test_zero(self):
        sol = hd.dist_to_level_set(0.0)
        assert sol.value == 0.0
        assert sol.argmin == (0.0, 1.0)

    def test_negative_mirrors(self):
        pos = hd.dist_to_level_set(1.1)
        neg = hd.dist_to_level_set(-1.1)
        assert neg.value == pos.value
        assert neg.argmin.x == -pos.argmin.x
        assert neg.argmin.v == pos.argmin.v

    @pytest.mark.parametrize("t", [0.5, 1.5, 2.7, 3.6, 5.0])
    def test_matches_direct_minimization(self, t):
        xs = np.linspace(hd.psi(t), hd.psi(t) + 12.0, 4001)
        ds = np.array([hd.dist(BASE, (x, hd.curve_v(t, x))) for x in xs.tolist()])
        i = int(np.argmin(ds))
        _, refined = hd.minimize_on_interval(
            lambda x: hd.dist(BASE, (x, hd.curve_v(t, x))),
            (xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]),
        )
        dmin = min(refined, float(ds[i]))
        assert hd.dist_to_level_set(t).value == pytest.approx(dmin, abs=1e-6)

    def test_interior_boundary_switch(self):
        # the interior critical point wins exactly on the close side
        for t in (0.5, 1.5, 3.0):
            x0 = 0.5 * (t + math.sin(t))
            assert hd.lambda_big(x0, t) < hd.lambda_big(hd.psi(t), t)
        for t in (3.3, 4.5, 6.0):
            assert 0.5 * (t + math.sin(t)) < hd.psi(t)


class TestHorizontal:
    def test_values(self):
        assert hd.dist_to_horizontal(4.0) == pytest.approx(2.0, abs=1e-15)
        assert hd.dist_to_horizontal(1.0) == 0.0
        assert hd.dist_to_horizontal(0.0) == 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            hd.dist_to_horizontal(-0.5)


class TestCriticalCurve:
    def test_endpoints(self):
        assert hd.critical_point(0.0) == (0.0, 1.0)
        p = hd.critical_point(PI)
        assert p.x == pytest.approx(PI / 2) and p.v == pytest.approx(0.0, abs=1e-30)

    def test_decreasing_concave(self):
        pts = [hd.critical_point(PI * k / 40) for k in range(41)]
        vs = [p.v for p in pts]
        assert all(a > b for a, b in zip(vs, vs[1:]))
        # concavity via second differences on an x-uniform resample
        xs = np.linspace(0.0, PI / 2 - 1e-9, 41)
        vals = [hd.critical_point(hd.x_crit_inv(x)).v for x in xs]
        d2 = np.diff(vals, 2)
        assert (d2 < 1e-10).all()

    def test_theta_crit_midline(self):
        for g in (0.0, 0.3, 2.0):
            assert hd.theta_crit(PI / 2, g) == pytest.approx(PI, abs=1e-9)

    def test_theta_crit_routes(self):
        # zeta route below pi/2, boundary-index route above
        t = hd.theta_crit(0.4, 1.0)
        assert hd.zeta(1.0, t) == pytest.approx(0.4, abs=1e-11)
        t = hd.theta_crit(2.5, 1.0)
        assert hd.psi(t) == pytest.approx(2.5, abs=1e-10)


class TestInverses:
    def test_round_trips(self, rng):
        for _ in range(50):
            t = rng.uniform(1e-2, 2 * PI - 1e-2)
            assert hd.psi_inv(hd.psi(t)) == pytest.approx(t, abs=1e-10)
            assert hd.eta_inv(hd.eta(t)) == pytest.approx(t, abs=1e-10)
        for _ in range(30):
            alpha = rng.uniform(0.1, 5.0)
            t = rng.uniform(0.05, 1.0) * hd.psi_inv(alpha)
            y = hd.eta_alpha(alpha, t)
            assert hd.eta_alpha_inv(alpha, y) == pytest.approx(t, abs=1e-9)
        for _ in range(30):
            t = rng.uniform(0.0, PI)
            assert hd.x_crit_inv(hd.x_crit(t)) == pytest.approx(t, abs=1e-9)

    def test_arctan_bound(self, rng):
        # 2*arctan(g) stays below both eta_inv(g) and pi
        for _ in range(50):
            g = rng.uniform(0.01, 20.0)
            assert 2.0 * math.atan(g) < min(hd.eta_inv(g), PI)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan])
    def test_eta_alpha_inv_checks_alpha_given_a_ceiling(self, alpha):
        # psi_inv(alpha) checks alpha when it sets the ceiling; a given
        # ceiling once let eta_alpha's alpha error pass for "past the
        # ceiling", and the inversion returned about 1e-12
        with pytest.raises(DomainError, match="alpha must be positive"):
            hd.eta_alpha_inv(alpha, 0.5, ceiling=2.0)


class TestSampling:
    def test_shape_and_columns(self):
        rows = hd.sample_curve(1.2, 4.0, 25)
        assert len(rows) == 25
        assert rows[0].x == pytest.approx(hd.psi(1.2))
        assert rows[0].v == pytest.approx(0.0, abs=1e-12)
        assert rows[-1].x == pytest.approx(4.0, rel=1e-15)
        assert all(r.theta == 1.2 for r in rows)

    def test_negative_theta_mirrors(self):
        pos = hd.sample_curve(1.2, 4.0, 10)
        neg = hd.sample_curve(-1.2, 4.0, 10)
        for p, n in zip(pos, neg):
            assert n.x == -p.x and n.v == p.v and n.slope == -p.slope


# theta over the whole of (0, 2*pi), down to the smallest subnormal, and x
# from the curve start to the top of the double range: a draw from the
# full float range, or log-uniform, so that every decade is reached
tiny_to_two_pi = st.one_of(
    st.floats(min_value=5e-324, max_value=2.0 * PI, exclude_max=True),
    st.floats(min_value=-323.3, max_value=0.798).map(lambda e: 10.0**e),
)


@st.composite
def curve_points(draw):
    t = draw(tiny_to_two_pi)
    x0 = hd.psi(t)
    x = draw(st.one_of(
        st.floats(min_value=x0, max_value=1.7e308),
        st.floats(min_value=-3.0, max_value=308.0).map(
            lambda e: min(x0 * (1.0 + 10.0**e), 1.7e308)
        ),
    ))
    return t, x


class TestWholeRange:
    """Every level-curve function returns a float that is not NaN, or
    raises a typed error, over theta in [5e-324, 2*pi) and x from psi(theta)
    to 1.7e308.  A value beyond the double range is inf (never an
    exception); the nonnegative quantities stay nonnegative."""

    @staticmethod
    def _value(fn, *args):
        try:
            out = fn(*args)
        except hd.HestonDistError:
            return None
        assert isinstance(out, float) and not math.isnan(out), (fn.__name__, args, out)
        return out

    @settings(max_examples=400, deadline=None)
    @given(curve_points())
    def test_no_nan(self, point):
        t, x = point
        for fn in (hd.curve_v, hd.curve_curvature):
            value = self._value(fn, t, x)
            assert value is None or value >= 0.0
        self._value(hd.curve_slope, t, x)
        self._value(hd.lambda_big, x, t)
        assert self._value(hd.xi, t) > 0.0
        try:
            rows = hd.sample_curve(t, x, 3)
        except hd.HestonDistError:
            return
        for row in rows:
            assert not any(map(math.isnan, (row.x, row.v, row.slope, row.curvature)))

    def test_beyond_the_double_range_is_inf(self):
        assert hd.lambda_big(1.7e308, 4.07) == math.inf
        assert hd.xi(1e-308) == math.inf
        assert hd.curve_slope(5e-324, 1.0) == math.inf
        assert hd.curve_curvature(1e-160, hd.psi(1e-160)) == math.inf
        assert hd.curve_v(1e-300, 1e10) == math.inf
