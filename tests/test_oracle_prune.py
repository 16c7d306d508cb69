"""The oracle's branch and bound answers exactly as full grids do.

``linedist._oracle`` evaluates the scalar distance only at the grid nodes
that its lower bounds cannot rule out: those of ``linedist._lower_bounds``
(the horizontal-line bound (2/c)|sqrt(v) - sqrt(v0)| and a bound from the
sheared abscissas) and, from every evaluated node v_k, the cone
d(v_k) - L|sqrt(v) - sqrt(v_k)| with L = ``linedist._line_slope``.  The
reference, ``full_oracle``, evaluates every node of the same grids with
the scalar ``dist_correlated`` and refines as the oracle does, with
``solvers._refine_root`` on ``pointmetric._line_dist_fn``, the distance
and its slope along the line.
``scripts/oracle_references.py`` runs it once on every ``CASES`` line and
records value, report, argmin and each grid's minimum d1 in
``oracle_references.txt``.  The oracle must agree with that file bit for
bit, and every node its search left out must carry a lower bound above
the recorded d1, so that the search cannot move the minimum, the
certified horizon or the refined cell.  The bounds are checked on their
own on seeded frames, source points and lines.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest

import hestondist as hd
from hestondist import linedist as ld
from hestondist import pointmetric as pm
from hestondist import solvers

from conftest import oracle_sweep_lines

IDENTITY, BASE = hd.CorrelationFrame(1.0, 0.0), (0.0, 1.0)
P0 = (0.3, 0.04)


def seeded_lines(n=300, seed=13):
    """|beta| log-uniform in [1e-3, 1e2], both signs; gamma = 0 for 20% of
    the lines, otherwise |gamma| log-uniform in [1e-3, 30], both signs."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 2.0)
        gamma = 0.0
        if rng.random() >= 0.2:
            gamma = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        lines.append((beta, gamma))
    return lines


FAR = [(10.0**k, 0.0) for k in range(3, 13)] + [(1e9, 1e9)]

CASES = {
    "sweep": (IDENTITY, BASE, oracle_sweep_lines()),
    "seeded": (IDENTITY, BASE, seeded_lines()),
    "far": (IDENTITY, BASE, FAR),
    "frame-0.5,-0.7": (hd.CorrelationFrame(0.5, -0.7), P0, oracle_sweep_lines()),
    "frame-1.7,0.6": (hd.CorrelationFrame(1.7, 0.6), P0, oracle_sweep_lines()),
    "frame-0.5,-0.7-p0-1.7,0.6": (
        hd.CorrelationFrame(0.5, -0.7), (1.7, 0.6), oracle_sweep_lines()
    ),
}


def full_oracle(frame, p0, beta, gamma):
    """The oracle on full grids: ((report, value), grids), every node of
    each grid evaluated by the scalar distance."""
    def along(v):
        return pm.dist_correlated(frame, p0, (beta + gamma * v, v))

    def grid(horizon):
        vs = np.linspace(0.0, horizon, ld._ORACLE_CELLS + 1)
        return vs, np.array([along(v) for v in vs.tolist()])

    grids = [grid(ld._ORACLE_HORIZON)]
    root = math.sqrt(p0[1]) + 0.5 * frame.c * float(grids[0][1].min())
    horizon = root * root * (1.0 + 1e-9)
    if horizon > ld._ORACLE_HORIZON:
        grids.append(grid(horizon))
    vs, ds = grids[-1]
    refined = solvers._refine_root(pm._line_dist_fn(frame, p0, beta, gamma), vs, ds)
    return refined, grids


def bits(report, value):
    return (report.value.hex(), report.iterations, report.residual.hex(),
            report.method, value.hex())


def references():
    """{case: [(beta, gamma, bits, [d1 of each grid])]} from
    oracle_references.txt, the full-grid oracle that
    scripts/oracle_references.py records, in the order of CASES."""
    out = {}
    with Path(__file__).with_name("oracle_references.txt").open() as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            name, beta, gamma, v_star, iterations, residual, method, value, *d1 = line.split()
            out.setdefault(name, []).append((
                float.fromhex(beta), float.fromhex(gamma),
                (v_star, int(iterations), residual, method, value),
                [float.fromhex(d) for d in d1],
            ))
    return out


def count_evaluations(monkeypatch):
    """Patch the oracle's distance to record the ordinate of every point
    it evaluates; returns that list."""
    seen = []

    def counted(frame, p0, p1):
        seen.append(p1[1])
        return pm.dist_correlated(frame, p0, p1)

    monkeypatch.setattr(ld, "dist_correlated", counted)
    return seen


def record_searches(monkeypatch):
    """Patch the oracle's branch and bound to record, for each grid it
    searches, its nodes, the values it returns (a distance or a lower
    bound) and the ordinates it evaluated; returns that list."""
    seen = count_evaluations(monkeypatch)
    searches = []
    search = ld._branch_and_bound

    def recording(along, vs, bound, slope, roots):
        start = len(seen)
        ds = search(along, vs, bound, slope, roots)
        searches.append((vs, ds, seen[start:]))
        return ds

    monkeypatch.setattr(ld, "_branch_and_bound", recording)
    return searches


# the live-set search itself, which some tests below patch over
live_set_search = ld._branch_and_bound


def full_array_search(along, vs, bound, slope):
    """The branch and bound as it was before its live set, verbatim: the
    argmin and the cone update run over every node of the grid at every
    step."""
    roots = np.sqrt(vs)
    ds = np.empty_like(vs)
    done = np.zeros(vs.size, dtype=bool)
    best = math.inf
    for _ in range(vs.size):
        k = int(bound.argmin())
        if bound[k] > best * (1.0 + 1e-9):
            break
        d = ds[k] = along(float(vs[k]))
        done[k], bound[k] = True, math.inf
        best = min(best, d)
        # a nan or infinite distance bounds nothing
        if math.isfinite(d):
            np.fmax(bound, d - slope * np.abs(roots - roots[k]), out=bound)
    return np.where(done, ds, bound)


def assert_same_search(along, vs, bound, slope):
    """The live-set search and full_array_search evaluate the same
    ordinates in the same order and return the same values there; every
    node the live-set search left out is returned above the level
    best*(1 + 1e-9), so it lies above the grid's minimum.  Returns the
    live-set search's values and the evaluated indices."""
    traces = [], []

    def tracing(trace):
        def at(v):
            trace.append(v)
            return along(v)

        return at

    got = live_set_search(tracing(traces[0]), vs, bound.copy(), slope, np.sqrt(vs))
    want = full_array_search(tracing(traces[1]), vs, bound.copy(), slope)
    assert traces[0] == traces[1]
    index = {v: i for i, v in enumerate(vs.tolist())}
    evaluated = np.zeros(vs.size, dtype=bool)
    evaluated[[index[v] for v in traces[0]]] = True
    assert np.array_equal(got[evaluated], want[evaluated], equal_nan=True)
    finite = got[evaluated][np.isfinite(got[evaluated])]
    best = finite.min() if finite.size else math.inf
    assert (got[~evaluated] > best * (1.0 + 1e-9)).all()
    return got, np.flatnonzero(evaluated)


@pytest.mark.parametrize("name", list(CASES))
def test_live_set_search_traces_the_full_array_search(monkeypatch, name):
    # on every grid the oracle searches, the live-set branch and bound
    # evaluates what the full-array one does, in the same order
    frame, p0, lines = CASES[name]
    grids = [0]

    def checked(along, vs, bound, slope, roots):
        assert np.array_equal(roots, np.sqrt(vs))
        assert_same_search(along, vs, bound, slope)
        grids[0] += 1
        return live_set_search(along, vs, bound, slope, roots)

    monkeypatch.setattr(ld, "_branch_and_bound", checked)
    for beta, gamma in lines:
        ld._oracle(frame, p0, beta, gamma)
    assert grids[0] >= len(lines)


def tabled(vs, ds):
    """along over the nodes vs, from the table of their values ds."""
    table = dict(zip(vs.tolist(), ds))
    return table.__getitem__


def test_live_set_search_on_synthetic_grids():
    vs = np.linspace(0.0, 4.0, 17)
    roots = np.sqrt(vs)
    # two exact ties at the minimum, 1.0 at nodes 4 and 12: both are
    # evaluated and the first wins
    tent = 1.0 + 0.5 * np.minimum(abs(roots - roots[4]), abs(roots - roots[12]))
    got, evaluated = assert_same_search(tabled(vs, tent.tolist()), vs, np.zeros(17), 0.5)
    assert {4, 12} <= set(evaluated.tolist())
    assert solvers._best_cell(vs, got)[0] == 4
    # a nan and an infinite distance raise no cone, and the nan is returned
    ds = (0.2 + abs(roots - roots[6])).tolist()
    ds[5], ds[7] = math.nan, math.inf
    got, evaluated = assert_same_search(tabled(vs, ds), vs, np.zeros(17), 3.0)
    assert {5, 7} <= set(evaluated.tolist()) and math.isnan(got[5])
    # nothing but nan: every node is evaluated once
    got, evaluated = assert_same_search(tabled(vs, [math.nan] * 17), vs, np.zeros(17), 1.0)
    assert evaluated.size == 17 and np.isnan(got).all()
    # constant bounds: the first node goes first, and the cones order the rest
    ds = (0.2 + abs(roots - 1.3)).tolist()
    assert_same_search(tabled(vs, ds), vs, np.full(17, 0.1), 1.0)
    # a zero at the first node drops every other node at once
    two = np.array([1.0, 2.0])
    got, evaluated = assert_same_search(tabled(two, [0.0, 1.0]), two, np.array([0.0, 0.5]), 1.0)
    assert evaluated.tolist() == [0] and got.tolist() == [0.0, 0.5]
    # a bound exactly at the level best*(1 + 1e-9) is still evaluated
    got, evaluated = assert_same_search(
        tabled(two, [1.0, 2.0]), two, np.array([0.0, 1.0 * (1.0 + 1e-9)]), 0.0
    )
    assert evaluated.tolist() == [0, 1]
    # a one-node grid
    one = np.array([2.0])
    got, evaluated = assert_same_search(tabled(one, [0.7]), one, np.zeros(1), 1.0)
    assert got.tolist() == [0.7]


@pytest.mark.parametrize("name", list(CASES))
def test_pruned_oracle_matches_full_grids(monkeypatch, name):
    frame, p0, lines = CASES[name]
    recorded = references()[name]
    assert [r[:2] for r in recorded] == lines
    searches = record_searches(monkeypatch)
    evaluated = nodes = 0
    for beta, gamma, want, minima in recorded:
        searches.clear()
        if frame is IDENTITY:
            sol = hd.oracle_dist(beta, gamma)
            got = sol.report, sol.value
        else:
            got = ld._oracle(frame, p0, beta, gamma)
        assert bits(*got) == want, (beta, gamma)
        # each grid's least distance is the full grid's minimum d1, and
        # every node its search left out has a lower bound above d1
        assert len(searches) == len(minima), (beta, gamma)
        for (vs, ds, seen), d1 in zip(searches, minima):
            done = np.isin(vs, seen)
            assert float(ds[done].min()) == d1, (beta, gamma)
            assert (ds[~done] > d1).all(), (beta, gamma)
            evaluated += int(done.sum())
            nodes += vs.size
        if frame is IDENTITY:
            v_star = got[0].value
            assert (sol.argmin.x.hex(), sol.argmin.v.hex()) == (
                (beta + gamma * v_star).hex(), v_star.hex()
            ), (beta, gamma)
    # the search is not vacuous: it evaluates a small share of the nodes
    # (about 2%)
    assert evaluated < 0.2 * nodes, (evaluated, nodes)


@pytest.mark.parametrize("beta, gamma", [(1e9, 1e9), (1e12, 1e12)])
def test_far_steep_lines_evaluate_few_nodes(monkeypatch, beta, gamma):
    # far from p0 on a steep line each cone covers only its own node and
    # the horizontal bound lies far below the distance; the bound from the
    # abscissas leaves the search 147 of the first grid's 4,097 nodes and
    # one of the second's; the full grids take 8,194 distances
    searches = record_searches(monkeypatch)
    sol = hd.oracle_dist(beta, gamma)
    first, second = (len(seen) for _, _, seen in searches)
    assert first <= 200 and second <= 10, (first, second)
    want, _ = full_oracle(IDENTITY, BASE, beta, gamma)
    assert bits(sol.report, sol.value) == bits(*want)


def test_grid_pass_count(monkeypatch):
    # one pass of the sweep lines takes 47 grids, as before, and at most
    # 4,000 branch-and-bound evaluations (3,478 today); the full
    # grids held 192,559 nodes
    searches = record_searches(monkeypatch)
    for beta, gamma in oracle_sweep_lines():
        hd.oracle_dist(beta, gamma)
    assert len(searches) == 47
    assert sum(len(seen) for _, _, seen in searches) <= 4000
    # a far line searches a second grid out to its certified horizon
    searches.clear()
    hd.oracle_dist(1e12, 0.0)
    assert len(searches) == 2


def test_the_search_bounds_hold():
    # the node bounds and the cone slope, on seeded frames, source points
    # and lines; half of the lines pass through the source point, where
    # the cone is tight, and a quarter lie far from it, where the bound
    # from the abscissas is within a factor 1.26 of the distance.  The
    # cone is not checked on the far lines: there the arc index lies
    # within about 1e-5 of 2*pi and is solved to 1e-13, so the scalar
    # distance itself is good to about 1e-8 relative, not 1e-12
    rng = random.Random(2027)
    checked = far = 0
    for i in range(400):
        frame = hd.CorrelationFrame(rng.uniform(0.2, 5.0), rng.uniform(-0.95, 0.95))
        x0, v0 = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2.0, 1.0)
        gamma = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 1.0)
        if i % 2:
            beta = x0 - gamma * v0
        elif i % 4:
            beta = rng.uniform(-5.0, 5.0)
        else:
            beta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(2.0, 12.0)
        slope = ld._line_slope(frame, gamma)

        def d(v):
            return hd.dist_correlated(frame, (x0, v0), (beta + gamma * v, v))

        for _ in range(5):
            v1 = 10.0 ** rng.uniform(-4.0, 2.0)
            v2 = rng.choice((v0, v1 * (1.0 + rng.uniform(-0.5, 0.5)),
                             10.0 ** rng.uniform(-4.0, 2.0)))
            d1, d2 = d(v1), d(v2)
            vs = np.array([v1, v2])
            bounds = ld._lower_bounds(frame, (x0, v0), beta + gamma * vs, vs)
            for v, dv, bound in zip((v1, v2), (d1, d2), bounds.tolist()):
                horizontal = (2.0 / frame.c) * abs(math.sqrt(v) - math.sqrt(v0))
                assert horizontal <= bound <= dv * (1.0 + 1e-12), (frame, v0, v, dv)
                far += bound > max(2.0 * horizontal, 0.5 * dv)
            cone = slope * abs(math.sqrt(v1) - math.sqrt(v2))
            assert i % 4 == 0 or abs(d1 - d2) <= cone + 1e-12 * max(d1, d2), (
                frame, (x0, v0), (beta, gamma), v1, v2
            )
            checked += 1
    assert checked == 2000
    # the bound from the abscissas is the larger, and within a factor 2 of
    # the distance, at more than half of the 4000 nodes
    assert far > 2000, far


def test_line_points_beyond_double_range():
    # x = -1e308 + 1e308*v passes through (0, 1) and its abscissa
    # overflows beyond v = 2.8: an overflowed node bounds nothing, and the
    # search stops at the zero at v = 1 before it evaluates one; where the
    # first node evaluated overflows, the distance raises
    with np.errstate(over="ignore", invalid="ignore"):
        sol = hd.oracle_dist(-1e308, 1e308)
        assert (sol.value, sol.argmin) == (0.0, (0.0, 1.0))
        with pytest.raises(hd.DomainError):
            hd.oracle_dist(1e308, 1e308)
