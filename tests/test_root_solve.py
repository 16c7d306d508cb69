"""The root solves, pinned bit for bit.

``delta_of``, ``psi_inv``, ``eta_inv`` and ``eta_alpha_inv`` are pinned as
their Newton-bisection solves' values and numbers of evaluations, and each
pinned value is checked against a 50-digit mpmath root
(``index_references.txt``, written by ``scripts/index_references.py``) to
within the solve's stop width.  ``x_crit_inv`` and ``theta_crit`` are
pinned as every SolveReport (value, iterations, residual) of their Brent
solves, which were recorded with the scipy-backed solve that ``_brent``
replaced, as ``float.hex`` strings; the theta_crit solves that now stop at
Brent's 4-ulp floor were re-recorded with ``_brent``, and every zeta root of
theta_crit lies within one ulp of a 60-digit mpmath root.  The differential
test against scipy's brentq runs only where scipy is installed; the
package itself does not need it.
"""

import math
import random

import pytest

import hestondist.levelsets as ls
from hestondist import DomainError
import hestondist.pointmetric as pm
import hestondist.solvers as solvers
from hestondist.solvers import INDEX_TOL, ROOT_TOL, solve_monotone

from conftest import arc_index_width, index_references, inverse_references, inverse_width

INDEX_REFERENCES = index_references()
INVERSE_REFERENCES = inverse_references()
NEWTON_MAPS = ("psi_inv", "eta_inv", "eta_alpha_inv")

# delta_of(x, v) with x = f_of(v, delta): for v in (1, 0.25, 4, 37) the
# small-angle deltas 1e-5, 3e-4, 2e-3, 9e-3, the near-2*pi deltas
# 2*pi - (1e-3, 1e-6, 1e-9) and the mid-range deltas 0.7, 2.5, 4.1 (both
# signs of x at v = 1); then v -> 0 (1e-6, 1e-10, 1e-14, 0) at deltas
# 0.01, 1.3, 3.0, 5.9.  Row: x, v, the answer of the Brent solve that
# delta_of ran before its Newton-bisection solve, and the Newton-bisection
# solve's report [(delta_of(x, v), evaluations)].  Each answer is within
# one stop width of the root, so the two answers are within two.
DELTA_OF_PINS = [
    (1.0000000000041668e-05, 1.0, '0x1.4f8b588e368ffp-17',
     [('0x1.4f8b588e368f1p-17', 1)]),
    (0.000300000001125, 1.0, '0x1.3a92a30553261p-12',
     [('0x1.3a92a30553261p-12', 1)]),
    (0.002000000333333384, 1.0, '0x1.0624dd2f1a9fdp-9',
     [('0x1.0624dd2f1a9fcp-9', 2)]),
    (0.009000030375092264, 1.0, '0x1.26e978d4fdf37p-7',
     [('0x1.26e978d4fdf3bp-7', 2)]),
    (50265483.504242726, 1.0, '0x1.920f52f66fde5p+2',
     [('0x1.920f52f66fdfdp+2', 2)]),
    (50265482418762.76, 1.0, '0x1.921fb11284e95p+2',
     [('0x1.921fb11284e95p+2', 1)]),
    (5.026544951649868e+19, 1.0, '0x1.921fb5432ff0bp+2',
     [('0x1.921fb5432ff0cp+2', 1)]),
    (0.7145586847389862, 1.0, '0x1.6666666666666p-1',
     [('0x1.6666666666666p-1', 3)]),
    (-0.7145586847389862, 1.0, '-0x1.6666666666666p-1',
     [('-0x1.6666666666666p-1', 3)]),
    (3.3436436302217567, 1.0, '0x1.4000000000001p+1',
     [('0x1.4000000000000p+1', 5)]),
    (-3.3436436302217567, 1.0, '-0x1.4000000000001p+1',
     [('-0x1.4000000000000p+1', 5)]),
    (10.900773895228998, 1.0, '0x1.0666666666665p+2',
     [('0x1.0666666666666p+2', 5)]),
    (-10.900773895228998, 1.0, '-0x1.0666666666665p+2',
     [('-0x1.0666666666666p+2', 5)]),
    (5.833333333356945e-06, 0.25, '0x1.4f8b588e36904p-17',
     [('0x1.4f8b588e368f1p-17', 1)]),
    (0.0001750000006375, 0.25, '0x1.3a92a30553261p-12',
     [('0x1.3a92a30553261p-12', 1)]),
    (0.001166666855555584, 0.25, '0x1.0624dd2f1a9fdp-9',
     [('0x1.0624dd2f1a9fcp-9', 2)]),
    (0.00525001721255199, 0.25, '0x1.26e978d4fdf38p-7',
     [('0x1.26e978d4fdf3bp-7', 2)]),
    (28274334.667423587, 0.25, '0x1.920f52f66fdeep+2',
     [('0x1.920f52f66fdfdp+2', 2)]),
    (28274333860554.246, 0.25, '0x1.921fb11284e95p+2',
     [('0x1.921fb11284e95p+2', 1)]),
    (2.8274315353030504e+19, 0.25, '0x1.921fb5432ff0bp+2',
     [('0x1.921fb5432ff0cp+2', 1)]),
    (0.4165824037032378, 0.25, '0x1.6666666666666p-1',
     [('0x1.6666666666666p-1', 3)]),
    (1.9357552182391218, 0.25, '0x1.4000000000000p+1',
     [('0x1.4000000000000p+1', 5)]),
    (6.2311531281598285, 0.25, '0x1.0666666666665p+2',
     [('0x1.0666666666666p+2', 5)]),
    (2.333333333342778e-05, 4.0, '0x1.4f8b588e36904p-17',
     [('0x1.4f8b588e368f1p-17', 1)]),
    (0.00070000000255, 4.0, '0x1.3a92a30553261p-12',
     [('0x1.3a92a30553261p-12', 1)]),
    (0.004666667422222336, 4.0, '0x1.0624dd2f1a9fdp-9',
     [('0x1.0624dd2f1a9fcp-9', 2)]),
    (0.02100006885020796, 4.0, '0x1.26e978d4fdf38p-7',
     [('0x1.26e978d4fdf3bp-7', 2)]),
    (113097338.66969435, 4.0, '0x1.920f52f66fdeep+2',
     [('0x1.920f52f66fdfdp+2', 2)]),
    (113097335442216.98, 4.0, '0x1.921fb11284e95p+2',
     [('0x1.921fb11284e95p+2', 1)]),
    (1.1309726141212202e+20, 4.0, '0x1.921fb5432ff0bp+2',
     [('0x1.921fb5432ff0cp+2', 1)]),
    (1.6663296148129512, 4.0, '0x1.6666666666666p-1',
     [('0x1.6666666666666p-1', 3)]),
    (7.743020872956487, 4.0, '0x1.4000000000000p+1',
     [('0x1.4000000000000p+1', 5)]),
    (24.924612512639314, 4.0, '0x1.0666666666665p+2',
     [('0x1.0666666666666p+2', 5)]),
    (0.00014694254176820121, 37.0, '0x1.4f8b588e36916p-17',
     [('0x1.4f8b588e368f0p-17', 1)]),
    (0.004408276267623272, 37.0, '0x1.3a92a30553261p-12',
     [('0x1.3a92a30553261p-12', 1)]),
    (0.02938851267751806, 37.0, '0x1.0624dd2f1a9fdp-9',
     [('0x1.0624dd2f1a9fcp-9', 2)]),
    (0.13224868161522008, 37.0, '0x1.26e978d4fdf38p-7',
     [('0x1.26e978d4fdf3bp-7', 2)]),
    (630398613.387663, 37.0, '0x1.920f52f66fdfap+2',
     [('0x1.920f52f66fdfdp+2', 2)]),
    (630398579490373.4, 37.0, '0x1.921fb11284e95p+2',
     [('0x1.921fb11284e95p+2', 1)]),
    (6.303981668505148e+20, 37.0, '0x1.921fb5432fefcp+2',
     [('0x1.921fb5432ff0cp+2', 1)]),
    (10.474744600655642, 37.0, '0x1.6666666666663p-1',
     [('0x1.6666666666665p-1', 4)]),
    (47.61291374373564, 37.0, '0x1.4000000000000p+1',
     [('0x1.4000000000001p+1', 5)]),
    (146.9895563004805, 37.0, '0x1.0666666666666p+2',
     [('0x1.0666666666666p+2', 5)]),
    (0.003336681130614941, 1e-06, '0x1.47ae147ae4eb4p-7',
     [('0x1.47ae147ae4ec7p-7', 12)]),
    (0.45978503780266194, 1e-06, '0x1.4cccccccccccdp+0',
     [('0x1.4cccccccccccdp+0', 5)]),
    (1.4384217088489168, 1e-06, '0x1.8000000000000p+1',
     [('0x1.8000000000000p+1', 6)]),
    (86.68081482220205, 1e-06, '0x1.799999999999ap+2',
     [('0x1.799999999999ap+2', 4)]),
    (0.003333377778353772, 1e-10, '0x1.47ae147ae4e19p-7',
     [('0x1.47ae147ae4e89p-7', 10)]),
    (0.45931028787595973, 1e-10, '0x1.4cccccccccccdp+0',
     [('0x1.4cccccccccccep+0', 4)]),
    (1.4366464459928079, 1e-10, '0x1.8000000000000p+1',
     [('0x1.8000000000000p+1', 6)]),
    (86.51219475242539, 1e-10, '0x1.799999999999ap+2',
     [('0x1.799999999999ap+2', 4)]),
    (0.0033333447778279707, 1e-14, '0x1.47ae147ae4e1ap-7',
     [('0x1.47ae147ae4e8ep-7', 10)]),
    (0.4593055449233624, 1e-14, '0x1.4cccccccccccep+0',
     [('0x1.4cccccccccccdp+0', 4)]),
    (1.436628707585447, 1e-14, '0x1.8000000000000p+1',
     [('0x1.8000000000000p+1', 6)]),
    (86.51050940809584, 1e-14, '0x1.799999999999ap+2',
     [('0x1.799999999999ap+2', 4)]),
    (0.003333344444492659, 0.0, '0x1.47ae147ae4e1ap-7',
     [('0x1.47ae147ae4e91p-7', 10)]),
    (0.45930549701520956, 0.0, '0x1.4cccccccccccep+0',
     [('0x1.4cccccccccccdp+0', 4)]),
    (1.4366285284110516, 0.0, '0x1.8000000000000p+1',
     [('0x1.8000000000000p+1', 6)]),
    (86.51049238450226, 0.0, '0x1.799999999999ap+2',
     [('0x1.799999999999ap+2', 4)]),
]
# The inverse index maps: name, arguments, value, reports.  x_crit_inv and
# theta_crit run Brent: value is the answer and the reports are every
# SolveReport (value, iterations, residual) of their solves.  psi_inv,
# eta_inv and eta_alpha_inv run the Newton-bisection solve of delta_of:
# the reports are (value, evaluations) of each solve, the ceiling
# psi_inv(alpha) first for eta_alpha_inv, and value is the answer of the
# Brent solve they ran before it.  theta_crit beyond pi/2 is psi_inv.
INVERSE_MAP_PINS = [
    ('psi_inv', (0.001,), '0x1.8937440b89456p-9',
     [('0x1.8937440b89456p-9', 2)]),
    ('eta_inv', (0.001,), '0x1.0624da5218b49p-9',
     [('0x1.0624da5218b4ap-9', 3)]),
    ('psi_inv', (0.3,), '0x1.c0f7d31b351acp-1',
     [('0x1.c0f7d31b351c3p-1', 4)]),
    ('eta_inv', (0.3,), '0x1.2ebb4e2feee47p-1',
     [('0x1.2ebb4e2feee59p-1', 5)]),
    ('psi_inv', (1.0,), '0x1.34bcc7fa591b2p+1',
     [('0x1.34bcc7fa591b3p+1', 6)]),
    ('eta_inv', (1.0,), '0x1.bfabd562c1b97p+0',
     [('0x1.bfabd562c1b96p+0', 6)]),
    ('psi_inv', (1.5707963267948966,), '0x1.921fb54442d18p+1',
     [('0x1.921fb54442d18p+1', 5)]),
    ('eta_inv', (1.5707963267948966,), '0x1.33eb8317dd4c2p+1',
     [('0x1.33eb8317dd4bbp+1', 6)]),
    ('psi_inv', (3.0,), '0x1.034ddfa0c8f5ep+2',
     [('0x1.034ddfa0c8f5ep+2', 5)]),
    ('eta_inv', (3.0,), '0x1.ae038068af1aap+1',
     [('0x1.ae038068af1b5p+1', 5)]),
    ('psi_inv', (40.0,), '0x1.6dda932676cadp+2',
     [('0x1.6dda932676cadp+2', 4)]),
    ('eta_inv', (40.0,), '0x1.5f2430775864fp+2',
     [('0x1.5f2430775864fp+2', 5)]),
    ('psi_inv', (10000.0,), '0x1.8fdae15cdfdc7p+2',
     [('0x1.8fdae15cdfdc9p+2', 3)]),
    ('eta_inv', (10000.0,), '0x1.8eea50a116664p+2',
     [('0x1.8eea50a116664p+2', 4)]),
    ('eta_alpha_inv', (0.5, 0.2), '0x1.0b9d083119c62p-1',
     [('0x1.66c0cdd4632c7p+0', 5),
      ('0x1.0b9d083119c6cp-1', 5)]),
    ('eta_alpha_inv', (1.0, 0.9), '0x1.ac9b29cdfcd00p+0',
     [('0x1.34bcc7fa591b3p+1', 6),
      ('0x1.ac9b29cdfcd01p+0', 5)]),
    ('eta_alpha_inv', (2.0, 1.5), '0x1.437bb97b593b2p+1',
     [('0x1.c1123a518f69dp+1', 5),
      ('0x1.437bb97b593bcp+1', 7)]),
    ('eta_alpha_inv', (0.1, 0.05), '0x1.0382f6dfe64dfp-3',
     [('0x1.3248a03d8732bp-2', 4),
      ('0x1.0382f6dfe63f6p-3', 4)]),
    ('eta_alpha_inv', (3.0, 2.9), '0x1.aaf8be4ead2bbp+1',
     [('0x1.034ddfa0c8f5ep+2', 5),
      ('0x1.aaf8be4ead2bcp+1', 7)]),
    ('eta_alpha_inv', (1.0, 0.0001), '0x1.3a909f8972462p-12',
     [('0x1.34bcc7fa591b3p+1', 6),
      ('0x1.3a909f897ffc3p-12', 2)]),
    ('x_crit_inv', (0.0001,), '0x1.a36e2eb7a165fp-14',
     [('0x1.a36e2eb7a165fp-14', 5, '0x1.0000000000000p-66')]),
    ('x_crit_inv', (0.2,), '0x1.9af9f353d39a2p-3',
     [('0x1.9af9f353d39a2p-3', 7, '0x1.2000000000000p-52')]),
    ('x_crit_inv', (0.8,), '0x1.b2ce1df7473c5p-1',
     [('0x1.b2ce1df7473c5p-1', 9, '0x1.0000000000000p-53')]),
    ('x_crit_inv', (1.5,), '0x1.17024790e0d93p+1',
     [('0x1.17024790e0d93p+1', 11, '0x0.0p+0')]),
    ('x_crit_inv', (1.5707,), '0x1.84b01ffdc01fap+1',
     [('0x1.84b01ffdc01fap+1', 17, '0x0.0p+0')]),
    ('theta_crit', (0.1, 0.5), '0x1.2695abc1b518dp-1',
     [('0x1.2695abc1b518dp-1', 8, '0x1.0000000000000p-55')]),
    ('theta_crit', (0.5, 2.0), '0x1.b7c29312ea97cp+0',
     [('0x1.b7c29312ea97cp+0', 9, '0x1.8000000000000p-52')]),
    ('theta_crit', (1.0, 1.0), '0x1.cca56bdb2eed5p+0',
     [('0x1.cca56bdb2eed5p+0', 9, '0x0.0p+0')]),
    ('theta_crit', (1.5, 0.1), '0x1.22a4e2891d557p+1',
     [('0x1.22a4e2891d557p+1', 12, '0x0.0p+0')]),
    ('theta_crit', (2.0, 3.0), '0x1.c1123a518f69dp+1',
     [('0x1.c1123a518f69dp+1', 5)]),
    ('theta_crit', (0.001, 0.001), '0x1.0624da5218c08p-9',
     [('0x1.0624da5218c08p-9', 6, '0x1.0000000000000p-62')]),
    ('theta_crit', (0.7853981633974483, 1.0), '0x1.921fb54442d18p+0',
     [('0x1.921fb54442d18p+0', 10, '0x1.0000000000000p-53')]),
]


def _recording(monkeypatch, module):
    """Record (value, iterations, residual) of every Brent solve of the
    module, as the SolveReport of solve_monotone would hold them, and
    (value, evaluations) of every Newton-bisection solve, in call order."""
    reports = []
    solve, newton = solvers._solve, solvers.newton_to_two_pi

    def record(*args, **kwargs):
        root, froot, iterations = out = solve(*args, **kwargs)
        reports.append((root.hex(), iterations, abs(froot).hex()))
        return out

    def record_newton(fn, *args):
        evaluations = []
        root = newton(lambda d: evaluations.append(d) or fn(d), *args)
        reports.append((root.hex(), len(evaluations)))
        return root

    monkeypatch.setattr(module, "_solve", record)
    monkeypatch.setattr(module, "newton_to_two_pi", record_newton)
    return reports


@pytest.mark.parametrize("x, v, brent, reports", DELTA_OF_PINS)
def test_delta_of_pins(monkeypatch, x, v, brent, reports):
    evaluations = []
    factory = pm.cf._f_of_fn

    def counting(v):
        f_v = factory(v)

        def counted(d):
            evaluations.append(d)
            return f_v(d)

        return counted

    monkeypatch.setattr(pm.cf, "_f_of_fn", counting)
    delta = pm.delta_of(x, v)
    assert [(delta.hex(), len(evaluations))] == reports
    width = arc_index_width(x, v, delta)
    assert abs(delta - INDEX_REFERENCES[(x, v)]) <= width
    assert abs(delta - float.fromhex(brent)) <= 2.0 * width


@pytest.mark.parametrize("name, args, value, reports", INVERSE_MAP_PINS)
def test_inverse_map_pins(monkeypatch, name, args, value, reports):
    seen = _recording(monkeypatch, ls)
    got = getattr(ls, name)(*args)
    assert seen == reports
    if name not in NEWTON_MAPS:
        assert got.hex() == value
        return
    # value is the parent Brent solve's answer, within INDEX_TOL + 4 ulp
    width = inverse_width(name, args, got)
    assert got.hex() == reports[-1][0]
    assert abs(got - INVERSE_REFERENCES[(name, args)]) <= width
    assert abs(got - float.fromhex(value)) <= width + INDEX_TOL + 4.0 * math.ulp(1.0) * got


# theta_crit's zeta roots (beta <= pi/2) rounded to the nearest double,
# from a 60-digit mpmath bisection of zeta(gamma, theta) = beta on [0, pi].
THETA_CRIT_ROOTS = [
    ((0.1, 0.5), '0x1.2695abc1b518dp-1'),
    ((0.5, 2.0), '0x1.b7c29312ea97cp+0'),
    ((1.0, 1.0), '0x1.cca56bdb2eed5p+0'),
    ((1.5, 0.1), '0x1.22a4e2891d557p+1'),
    ((0.001, 0.001), '0x1.0624da5218c09p-9'),
    ((0.7853981633974483, 1.0), '0x1.921fb54442d18p+0'),
]


@pytest.mark.parametrize("args, root", THETA_CRIT_ROOTS)
def test_theta_crit_within_one_ulp_of_the_root(args, root):
    # Brent stops at its 4-ulp floor; an absolute stop of INDEX_TOL left
    # theta_crit(0.001, 0.001) 767 ulp below its root
    root = float.fromhex(root)
    assert abs(ls.theta_crit(*args) - root) <= math.ulp(root)


@pytest.mark.parametrize(
    "name, args, theta", [(*key, theta) for key, theta in INVERSE_REFERENCES.items()]
)
def test_inverse_map_references(name, args, theta):
    got = getattr(ls, name)(*args)
    width = inverse_width(name, args, got) + _map_error(name, args, theta)
    assert abs(got - theta) <= width, got.hex()


def _map_error(name, args, theta):
    """|map(theta) - y|/map'(theta) at the exact root theta: how far from
    it the map, as evaluated in doubles, can reach the target.  Near
    SMALL_ANGLE it exceeds the stop width (psi's theta - sin(theta)
    cancels); 0 where theta rounds to 2*pi or the slope is 0."""
    objective = {"psi_inv": ls.cf._psi_fn, "eta_inv": ls.cf._eta_fn}.get(name)
    try:
        value, slope = (objective or ls.cf._eta_alpha_fn(args[0]))(theta)
        return abs(value - args[-1]) / slope
    except (DomainError, ZeroDivisionError):
        return 0.0


def _monotone_cases():
    """Seeded increasing functions with a root in (-6, 7).

    The smooth ones let the solver interpolate and extrapolate almost every
    step; the saturating, kinked, flat-rooted and underflowing ones force
    it to reject steps and bisect."""
    rng = random.Random(20261018)
    cases = []
    for i in range(40):
        k = rng.uniform(0.2, 8.0)
        c = rng.uniform(-4.0, 4.0)
        p = rng.choice((3, 5, 9))
        smooth = [
            lambda t, k=k, c=c: math.expm1(k * (t - c) / 8.0),
            lambda t, k=k, c=c: (t - c) + 0.1 * k * (t - c) ** 3,
            lambda t, k=k, c=c: math.atan(k * (t - c)),
        ]
        rough = [
            lambda t, k=k, c=c: math.tanh(50.0 * k * (t - c)),
            lambda t, c=c, p=p: (t - c) ** p,
            lambda t, c=c: math.copysign(abs(t - c) ** 0.1, t - c),
            lambda t, k=k, c=c: (t - c) if t < c else k * 1e3 * (t - c),
            lambda t, c=c, p=p: 1e-160 * (t - c) ** p,
        ]
        cases += [("interpolation", i, fn) for fn in smooth]
        cases += [("bisection", i, fn) for fn in rough]
    return cases


@pytest.mark.parametrize("xtol", [1e-3, 1e-8, ROOT_TOL, 1e-13, 1e-300])
def test_matches_scipy_brentq(xtol):
    brentq = pytest.importorskip("scipy.optimize").brentq
    rtol = 4.0 * math.ulp(1.0)
    for kind, i, fn in _monotone_cases():
        got = solve_monotone(fn, (-6.0, 7.0), tol=xtol)
        root, res = brentq(
            fn, -6.0, 7.0, xtol=xtol, rtol=rtol, maxiter=200, full_output=True
        )
        assert res.converged, (kind, i)
        assert got.value.hex() == root.hex(), (kind, i)
        assert got.iterations == res.iterations, (kind, i)
        assert got.residual == abs(fn(root)), (kind, i)


@pytest.mark.parametrize(
    "target",
    [1e-9, 0.3, 3.0, 1e6, 1e40],  # the last saturates one ulp below 2*pi
)
def test_inversion_evaluates_no_point_twice(target):
    seen = []
    f_v = pm.cf._f_of_fn(0.7)

    def fn(d):
        seen.append(d)
        return f_v(d)

    solvers.newton_to_two_pi(fn, target, 1e-12, solvers.arc_index_tol(1e-12))
    assert len(seen) == len(set(seen))


def test_eta_alpha_inv_evaluates_no_point_twice(monkeypatch):
    seen = []
    factory = ls.cf._eta_alpha_fn

    def record_factory(alpha):
        eta_alpha = factory(alpha)

        def record(t):
            seen.append(t)
            return eta_alpha(t)

        return record

    monkeypatch.setattr(ls.cf, "_eta_alpha_fn", record_factory)
    ls.eta_alpha_inv(2.0, 0.5)
    assert seen and len(seen) == len(set(seen))
