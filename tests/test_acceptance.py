"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; a failed assert
keeps the line unprinted and fails the suite.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion report.
"""

import itertools
import math
import random

import numpy as np
import pytest

import hestondist as hd
from conftest import vertical_variant_distance

PI = math.pi
BASE = (0.0, 1.0)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS — {text}")


def test_criterion_01_tangent_line_exactness():
    thetas = [0.1 * k for k in range(1, 32)]
    worst = 0.0
    for t in thetas:
        got = hd.dist_to_line(t / 2.0, math.tan(t / 2.0)).value
        worst = max(worst, abs(got - t))
    assert worst <= 1e-8, worst
    _report(1, f"tangent lines exact on 31 angles (worst |err| = {worst:.2e})")


def test_criterion_02_level_set_distances():
    close = [0.2, 0.7, 1.2, 1.9, 2.6, 3.1]
    far = [PI, 3.6, 4.4, 5.2, 2 * PI - 0.1]
    for t in close:
        sol = hd.dist_to_level_set(t)
        assert sol.value == pytest.approx(t, abs=1e-12)
        assert sol.argmin.x == pytest.approx(0.5 * (t + math.sin(t)), abs=1e-12)
        assert sol.argmin.v == pytest.approx(math.cos(0.5 * t) ** 2, abs=1e-12)
    for t in far:
        sol = hd.dist_to_level_set(t)
        assert sol.value == pytest.approx(t / math.sin(0.5 * t), abs=1e-12)
        assert sol.argmin.x == pytest.approx(hd.psi(t), abs=1e-12)
        assert sol.argmin.v == 0.0
    # independent check: dense sampling of each curve plus local refinement
    for t in close + far:
        xs = np.linspace(hd.psi(t), hd.psi(t) + 12.0, 4001)
        ds = np.array([hd.dist(BASE, (x, hd.curve_v(t, x))) for x in xs.tolist()])
        i = int(np.argmin(ds))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        _, sampled = hd.minimize_on_interval(
            lambda x: hd.dist(BASE, (x, hd.curve_v(t, x))), (lo, hi),
        )
        sampled = min(sampled, float(ds[i]))
        assert abs(hd.dist_to_level_set(t).value - sampled) <= 1e-6
    _report(2, f"level-set distances on {len(close) + len(far)} indices, "
               "formula exact and within 1e-6 of direct sampling")


def test_criterion_03_horizontal_lines():
    taus = [0.0, 0.25, 1.0, 4.0, 100.0]
    for tau in taus:
        val = hd.dist_to_horizontal(tau)
        assert val == pytest.approx(2.0 * abs(math.sqrt(tau) - 1.0), abs=1e-12)
        xs = np.linspace(0.0, 50.0, 20001)
        sampled = min(hd.dist(BASE, (x, tau)) for x in xs.tolist())
        assert abs(val - sampled) <= 1e-6
    _report(3, "horizontal-line distances exact and match x-sweeps on 5 levels")


def test_criterion_04_vertical_formula_vs_oracle():
    betas = [0.1, 0.5, 1.0, PI / 2, 2.0, 5.0, 20.0]
    worst = 0.0
    for b in betas:
        formula = hd.dist_to_line(b, 0.0)
        reference = hd.oracle_dist(b, 0.0)
        worst = max(worst, abs(formula.value - reference.value))
        assert abs(formula.value - reference.value) <= 1e-6
        values = [formula.value] + [
            vertical_variant_distance(b, v) for v in ("reduction", "finnal")
        ]
        for v1, v2 in itertools.combinations(values, 2):
            assert abs(v1 - v2) <= 1e-9
    _report(4, f"vertical lines match the oracle on 7 offsets "
               f"(worst |err| = {worst:.2e}); interval variants agree to 1e-9")


def test_criterion_05_slanted_formula_vs_oracle():
    betas = [0.0, 0.25, 1.0, 2.0, 4.0]
    gammas = [-3.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0]
    worst = 0.0
    count = 0
    for b, g in itertools.product(betas, gammas):
        if b + g == 0.0:
            continue
        formula = hd.dist_to_line(b, g)
        reference = hd.oracle_dist(b, g)
        rel = abs(formula.value - reference.value) / max(1.0, reference.value)
        worst = max(worst, rel)
        assert rel <= 1e-6, (b, g, formula.value, reference.value)
        count += 1
    _report(5, f"slanted lines match the oracle on {count} parameter pairs "
               f"(worst rel err = {worst:.2e})")


def test_criterion_06_two_sided_estimate():
    rng = random.Random(606)
    for k in range(1000):
        v0 = 0.0 if k % 20 == 0 else rng.uniform(0.0, 100.0)
        v1 = rng.uniform(0.01, 100.0) if v0 == 0.0 else rng.uniform(0.0, 100.0)
        p0 = (rng.uniform(-50.0, 50.0), v0)
        p1 = (rng.uniform(-50.0, 50.0), v1)
        d = hd.dist(p0, p1)
        t = hd.t_bound(p0, p1)
        assert t <= d <= 12.0 * t
    _report(6, "two-sided comparison bound holds on 1000 random pairs")


def test_criterion_07_metric_identities():
    rng = random.Random(707)
    for _ in range(1000):
        x0, x1 = rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)
        v0, v1 = rng.uniform(0.05, 50.0), rng.uniform(0.0, 50.0)
        a = rng.uniform(0.2, 5.0)
        d = hd.dist((x0, v0), (x1, v1))
        tol = 1e-10 * max(1.0, d)
        assert abs(d - hd.dist((x1, v1), (x0, v0))) <= tol
        assert abs(hd.dist(BASE, (x1, v1)) - hd.dist(BASE, (-x1, v1))) <= tol
        assert abs(d - hd.dist((0.0, v0), (x1 - x0, v1))) <= tol
        assert abs(hd.dist((a * x0, a * v0), (a * x1, a * v1))
                   - math.sqrt(a) * d) <= 10 * tol
    for _ in range(200):
        theta = rng.uniform(-6.2, 6.2)
        v = rng.uniform(0.0, 50.0)
        back = hd.to_delta(hd.from_delta((theta, v)))
        assert abs(back.theta - theta) <= 1e-10
        assert back.v == v
    _report(7, "symmetry, mirror, translation, scaling and chart round-trip "
               "hold to 1e-10 on 1000 random instances")


def test_criterion_08_delta_consistency():
    rng = random.Random(808)
    for _ in range(1000):
        x = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 20.0)
        v = rng.uniform(0.0, 20.0)
        d = hd.dist(BASE, (x, v))
        lam = hd.lambda_big(x, hd.delta_of(x, v))
        assert abs(d * d / 2.0 - lam) <= 1e-9 * max(abs(lam), 1e-300)
    _report(8, "half-squared distance equals the level-curve formula to "
               "1e-9 relative on 1000 random points")


def test_criterion_09_branch_comparison_law():
    rng = random.Random(909)
    done = 0
    while done < 500:
        beta = rng.uniform(0.05, 4.0)
        gamma = beta * rng.uniform(1.05, 5.0)
        lo = hd.eta_alpha_inv(gamma, beta)
        hi = min(hd.psi_inv(beta), hd.psi_inv(gamma) - 1e-6)
        if hi <= lo:
            continue
        t = rng.uniform(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo))
        if hd.discriminant(beta, gamma, t) <= 0.0:
            continue
        diff = hd.lambda_plus(beta, gamma, t) - hd.lambda_minus(beta, gamma, t)
        marker = gamma / math.tan(0.5 * t) - 1.0
        if abs(diff) <= 1e-12:
            done += 1  # tie: either sign acceptable
            continue
        assert diff * marker > 0.0, (beta, gamma, t)
        done += 1
    _report(9, "branch comparison law holds on 500 admissible triples")


def test_criterion_10_implied_vol_reduction():
    rng = random.Random(1010)
    worst = 0.0
    for _ in range(50):
        c = rng.uniform(0.5, 3.0)
        rho = rng.uniform(-0.9, 0.9)
        v0 = rng.uniform(0.01, 1.0)
        m = rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 1.0)
        frame = hd.CorrelationFrame(c, rho)
        point = hd.iv_limit(hd.SmileQuery(1.0, math.exp(m), v0, frame))
        denom = hd.oracle_dist_correlated(frame, (-m, v0), 0.0, 0.0)
        reference = abs(m) / denom
        rel = abs(point.iv_limit - reference) / reference
        worst = max(worst, rel)
        assert rel <= 1e-6
    frame = hd.CorrelationFrame(1.7, 0.0)
    ms = [0.03 * k for k in range(1, 11)]
    ups = hd.smile_table(1.0, 0.09, frame, [math.exp(m) for m in ms])
    dns = hd.smile_table(1.0, 0.09, frame, [math.exp(-m) for m in ms])
    for up, dn in zip(ups, dns):
        assert abs(up.iv_limit - dn.iv_limit) <= 1e-8
    _report(10, f"implied-vol reduction matches the brute force on 50 queries "
                f"(worst rel err = {worst:.2e}); uncorrelated smiles symmetric")


def test_criterion_11_growth_limit():
    for beta in (0.0, 1.0, 10.0):
        ratio = hd.dist(BASE, (beta, 1e8)) / math.sqrt(1e8)
        assert abs(ratio - 2.0) <= 1e-3
    _report(11, "large-variance growth ratio within 1e-3 of its limit")
