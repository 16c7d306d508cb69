"""The batched line solver behind smile_table answers every line exactly as
dist_to_line does: the same bits in every field, or the same error.
dist_to_line is a batch of one line; the helpers below solve each line
inside a batch of 50 lines, whose rows fill several scan blocks."""

import math

import pytest

import hestondist as hd
from hestondist import linedist as ld
from hestondist import solvers
from hestondist.solvers import minimize_on_interval
from hestondist.smile import reduced_line
from test_scan_equivalence import SEARCH_KINDS, search_kind, table_lines

# a near-diagonal line whose two rows share one tangency window, 6e-13 wide
# at theta ~ 2.3e-4, with the minimum at the window's upper end
NARROW = (1.1445945236416332e-4, 1.1446902545269265e-4)


def outcome(call):
    """Every field of a DistanceSolution as float.hex, or the error."""
    try:
        sol = call()
    except hd.HestonDistError as exc:
        return type(exc).__name__, str(exc)
    rep = sol.report
    floats = (sol.value, sol.half_squared, sol.theta_at_argmin, *sol.argmin,
              rep.value, rep.residual)
    return tuple(x.hex() for x in floats) + (sol.branch, rep.iterations, rep.method)


BATCH = 50


def solve_batched(lines):
    """_solve_many on the lines in groups of BATCH, each group padded to
    BATCH lines with other lines."""
    filler = table_lines()[::5][:BATCH]
    out = []
    for start in range(0, len(lines), BATCH):
        group = lines[start:start + BATCH]
        out += ld._solve_many(group + filler[:BATCH - len(group)])[:len(group)]
    return out


def batched(lines):
    """Every line's answer from the batch, as dist_to_line assembles it."""
    return [outcome(lambda s=s: ld._solution(s)) for s in solve_batched(lines)]


def single(lines):
    return [outcome(lambda b=b, g=g: hd.dist_to_line(b, g)) for b, g in lines]


def special_lines():
    lines = [
        (0.0, 0.0), (1.0, -1.0), (-2.5, 2.5),                 # on the line
        (0.3, -0.3 * (1.0 + 1e-13)), (1e3, -1e3 + 1e-10),     # near-membership
        (1e-310, 2.0), (2.0, 1e-310), (-3e-320, -0.5),        # subnormal flush
        (0.0, -1.5), (-0.4, 2.0), (-1.0, -0.3),               # mirrored
        NARROW, (-NARROW[0], -NARROW[1]),
        (1e300, 2e300), (1e200, 1e200), (1e308, 0.0),         # saturation
        (math.inf, 1.0), (1.0, math.nan),                     # rejected
    ]
    return lines + table_lines()


def test_batch_matches_each_line():
    lines = special_lines()
    kinds = set()
    for beta, gamma in table_lines():
        if beta < 0.0 or (beta == 0.0 and gamma < 0.0):
            beta, gamma = -beta, -gamma
        rows = ld._searches(beta, gamma, {})
        kinds |= {search_kind(beta, gamma, rows, row) for row in rows}
    assert kinds == SEARCH_KINDS
    assert batched(lines) == single(lines)


def test_batch_scans_the_narrow_window():
    sol = ld._solution(*solve_batched([NARROW]))
    (row, _) = ld._searches(*NARROW, {})
    assert (sol.theta_at_argmin, sol.report.method) == (row.hi, "endpoint")
    assert outcome(lambda: sol) == outcome(lambda: hd.dist_to_line(*NARROW))


def test_empty_batch():
    assert ld._solve_many([]) == []
    assert solve_batched([]) == []


@pytest.mark.parametrize("n", [4, 50])
def test_no_line_calls_minimize_on_interval(monkeypatch, n):
    # every row is scanned and refined by _minimize_rows, for a single line
    # as for a ladder; linedist does not bind the minimizer
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return minimize_on_interval(*args, **kwargs)

    assert not hasattr(ld, "minimize_on_interval")
    monkeypatch.setattr(solvers, "minimize_on_interval", record)
    frame = hd.CorrelationFrame(0.8, -0.4)
    strikes = [100.0 * math.exp(-1.0 + 2.0 * j / (n - 1)) for j in range(n)]
    entries = hd.smile_table(100.0, 0.05, frame, strikes)
    assert all(isinstance(e, hd.SmilePoint) for e in entries)
    for beta, gamma in special_lines()[: 4 * n]:
        outcome(lambda: hd.dist_to_line(beta, gamma))
    assert calls == []


@pytest.mark.parametrize("batch", [False, True])
def test_ladder_shares_psi_inv_through_the_bindings(monkeypatch, batch):
    # gamma > 0 and a ladder whose betas stay below pi/2 (theta_crit then
    # needs no psi_inv of its own): the shared psi_inv(gamma) is solved once,
    # and eta_alpha_inv still runs through its module binding
    calls = {"psi_inv": [], "eta_alpha_inv": []}
    for name in calls:
        original = getattr(ld.ls, name)

        def record(*args, _name=name, _fn=original, **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ld.ls, name, record)
    frame = hd.CorrelationFrame(1.0, -0.6)
    strikes = [100.0 * math.exp(0.13 + 0.008 * j) for j in range(30)]
    lines = [reduced_line(hd.SmileQuery(100.0, k, 0.2, frame)) for k in strikes]
    gamma = lines[0][1]
    assert gamma > 0.0 and all(0.0 < b < 0.5 * math.pi for b, _ in lines)
    # the ladder alone, or inside a batch padded with other lines
    sols = solve_batched(lines) if batch else ld._solve_many(lines)
    assert all(isinstance(s, ld._Found) for s in sols)
    assert calls["eta_alpha_inv"]
    assert calls["psi_inv"].count((gamma,)) == 1
    assert len(set(calls["psi_inv"])) == len(calls["psi_inv"])


def test_theta_crit_cap_comes_from_the_memo(monkeypatch):
    # gamma > beta > pi/2 below the plus-only cutoff: theta_crit equals
    # psi_inv(beta) there, so each psi_inv argument is solved once
    calls = []
    original = ld.ls.psi_inv

    def record(y):
        calls.append(y)
        return original(y)

    monkeypatch.setattr(ld.ls, "psi_inv", record)
    plus, minus = ld._searches(2.0, 3.0, {})
    assert sorted(calls) == [2.0, 3.0]
    assert plus.hi == minus.hi == original(2.0)


@pytest.mark.parametrize("rho", [0.0, -0.6, 0.45, -0.95])
def test_ladders_match_iv_limit(rho):
    frame = hd.CorrelationFrame(1.3, rho)
    strikes = [100.0 * math.exp(-1.5 + 3.0 * j / 40.0) for j in range(41)]
    strikes[20] = 100.0  # at the money: rejected before the batch
    entries = hd.smile_table(100.0, 0.07, frame, strikes)
    assert [type(e) for e in entries].count(hd.SmileFailure) == 1
    for k, entry in zip(strikes, entries):
        try:
            want = hd.iv_limit(hd.SmileQuery(100.0, k, 0.07, frame))
        except hd.HestonDistError as exc:
            assert entry.error == f"{type(exc).__name__}: {exc}"
            continue
        assert entry == want
        assert (entry.iv_limit.hex(), entry.distance.hex()) == (
            want.iv_limit.hex(), want.distance.hex()
        )
        assert (entry.line_beta, entry.line_gamma) == reduced_line(
            hd.SmileQuery(100.0, k, 0.07, frame)
        )


def test_every_line_failing(monkeypatch):
    def broken(t):
        raise hd.DomainError("objective unavailable")

    monkeypatch.setattr(ld, "_row_fn", lambda row: broken)
    lines = [(0.5, 2.0), (1.0, -1.0), (3.0, 0.0), (-1.0, 0.3), NARROW]
    assert batched(lines) == single(lines)
    assert batched(lines)[1][0] != "DomainError"  # the on-line answer
