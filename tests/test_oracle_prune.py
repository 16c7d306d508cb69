"""The oracle's pruned grids answer exactly as full grids do.

``linedist._oracle`` solves the arc index only at the grid nodes whose
horizontal-line bound (2/c)|sqrt(v) - sqrt(v0)| is within the best of its
probes (every 256th node, by the scalar distance); each other node keeps
its bound as its value.  The reference here solves every node of the same
grids with ``_dist_base_grid`` and refines with ``solvers._refine``, as
the oracle did before it pruned.  Value, report and argmin must agree bit
for bit, and every pruned node's solved value must lie above the grid's
minimum d1, so that pruning cannot move the minimum, the certified
horizon or the refined cell.
"""

import math
import random

import numpy as np
import pytest

import hestondist as hd
from hestondist import linedist as ld
from hestondist import pointmetric as pm
from hestondist import solvers

from test_root_rows import oracle_sweep_lines

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
    """The oracle without pruning: ((report, value), grids), every node of
    each grid solved."""
    x0, v0 = p0
    sx0, _ = frame.shear(x0, v0)
    scale = math.sqrt(v0) / frame.c

    def grid(horizon):
        vs = np.linspace(0.0, horizon, ld._ORACLE_CELLS + 1)
        sxs, _ = frame.shear(beta + gamma * vs, vs)
        return vs, scale * pm._dist_base_grid((sxs - sx0) / v0, vs / v0)

    grids = [grid(ld._ORACLE_HORIZON)]
    root = math.sqrt(v0) + 0.5 * frame.c * float(grids[0][1].min())
    horizon = root * root * (1.0 + 1e-9)
    if horizon > ld._ORACLE_HORIZON:
        grids.append(grid(horizon))
    vs, ds = grids[-1]

    def along(v):
        return hd.dist_correlated(frame, p0, (beta + gamma * v, v))

    return solvers._refine(along, vs, ds, 1e-9), grids


def bits(report, value):
    return (report.value.hex(), report.iterations, report.residual.hex(),
            report.method, value.hex())


@pytest.mark.parametrize("name", list(CASES))
def test_pruned_oracle_matches_full_grids(monkeypatch, name):
    frame, p0, lines = CASES[name]
    sent = []  # the ordinates v/v0 each grid solves
    grid = pm._dist_base_grid

    def recording(x, v):
        sent.append(v)
        return grid(x, v)

    monkeypatch.setattr(ld, "_dist_base_grid", recording)
    pruned = nodes = 0
    for beta, gamma in lines:
        sent.clear()
        if frame is IDENTITY:
            sol = hd.oracle_dist(beta, gamma)
            got = sol.report, sol.value
        else:
            got = ld._oracle(frame, p0, beta, gamma)
        want, grids = full_oracle(frame, p0, beta, gamma)
        assert bits(*got) == bits(*want), (beta, gamma)
        # one _dist_base_grid call per grid; the pruned nodes lie above d1
        assert len(sent) == len(grids), (beta, gamma)
        for (vs, ds), solved in zip(grids, sent):
            off = ~np.isin(vs / p0[1], solved)
            assert (ds[off] > ds.min()).all(), (beta, gamma)
            pruned += int(off.sum())
            nodes += vs.size
        if frame is IDENTITY:
            v_star = want[0].value
            assert (sol.argmin.x.hex(), sol.argmin.v.hex()) == (
                (beta + gamma * v_star).hex(), v_star.hex()
            ), (beta, gamma)
    # pruning is not vacuous: most lines leave out a share of their nodes
    assert pruned > 0.2 * nodes, (pruned, nodes)
