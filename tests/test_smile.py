import math
import random

import pytest

import hestondist as hd
from hestondist import AtTheMoneyError, DomainError
from hestondist import linedist as ld
from hestondist.smile import SmileFailure, reduced_line
from hestondist.solution import DistanceSolution

# frozen vertical-line reference (see test_linedist)
DHAT_1_0 = 0.965128520259887


class TestReducedLine:
    def test_uncorrelated_unit_query(self):
        q = hd.SmileQuery(1.0, math.e, 1.0, hd.CorrelationFrame(1.0, 0.0))
        beta, gamma = reduced_line(q)
        assert beta == pytest.approx(1.0, rel=1e-15)
        assert gamma == 0.0

    def test_slope_depends_only_on_rho(self):
        frame = hd.CorrelationFrame(2.0, 0.5)
        q = hd.SmileQuery(100.0, 120.0, 0.04, frame)
        _, gamma = reduced_line(q)
        assert gamma == pytest.approx(-0.5 / math.sqrt(0.75))


class TestIvLimit:
    def test_uncorrelated_unit_query(self):
        q = hd.SmileQuery(1.0, math.e, 1.0, hd.CorrelationFrame(1.0, 0.0))
        p = hd.iv_limit(q)
        assert p.iv_limit == pytest.approx(1.0 / DHAT_1_0, rel=1e-9)
        assert p.log_moneyness == 1.0
        assert p.distance == pytest.approx(DHAT_1_0, rel=1e-9)

    def test_uncorrelated_mirror_symmetry(self):
        frame = hd.CorrelationFrame(1.3, 0.0)
        for m in (0.05, 0.4, 1.0):
            up = hd.iv_limit(hd.SmileQuery(1.0, math.exp(m), 0.2, frame))
            dn = hd.iv_limit(hd.SmileQuery(1.0, math.exp(-m), 0.2, frame))
            assert up.iv_limit == pytest.approx(dn.iv_limit, abs=1e-8)

    def test_general_query_against_brute_force(self):
        frame = hd.CorrelationFrame(2.0, 0.5)
        q = hd.SmileQuery(1.0, 1.1, 0.04, frame)
        p = hd.iv_limit(q)
        m = math.log(1.1)
        denom = hd.oracle_dist_correlated(frame, (-m, 0.04), 0.0, 0.0)
        assert p.iv_limit == pytest.approx(m / denom, rel=1e-6)

    def test_moved_coordinate_symmetry(self, rng):
        # the infimum is the same whether the log-moneyness sits on the
        # source point or on the target line (x-translation invariance)
        for _ in range(5):
            frame = hd.CorrelationFrame(rng.uniform(0.5, 2.0), rng.uniform(-0.8, 0.8))
            v0 = rng.uniform(0.02, 1.0)
            m = rng.choice([-1, 1]) * rng.uniform(0.05, 0.8)
            a = hd.oracle_dist_correlated(frame, (-m, v0), 0.0, 0.0)
            b = hd.oracle_dist_correlated(frame, (0.0, v0), m, 0.0)
            assert a == pytest.approx(b, rel=1e-6)

    def test_at_the_money_rejected(self):
        with pytest.raises(AtTheMoneyError):
            hd.SmileQuery(100.0, 100.0, 0.04, hd.CorrelationFrame(1.0, 0.0))

    def test_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            hd.SmileQuery(100.0, 110.0, 0.0, hd.CorrelationFrame(1.0, 0.0))

    def test_query_checked_on_every_route(self):
        frame = hd.CorrelationFrame(1.0, 0.0)
        q = hd.SmileQuery(spot=100.0, strike=110.0, v0=0.04, frame=frame)
        with pytest.raises(AtTheMoneyError):
            q._replace(strike=q.spot)
        with pytest.raises(DomainError):
            hd.SmileQuery._make([100.0, 110.0, 0.0, frame])
        for field in ("spot", "strike", "v0"):
            with pytest.raises(DomainError, match="must be finite"):
                hd.SmileQuery(**{**q._asdict(), field: math.inf})


class TestSmileTable:
    def test_empty(self):
        assert hd.smile_table(1.0, 0.1, hd.CorrelationFrame(1.0, 0.0), []) == []

    def test_singleton_matches_pointwise(self):
        frame = hd.CorrelationFrame(1.5, -0.3)
        (entry,) = hd.smile_table(100.0, 0.09, frame, [120.0])
        assert entry == hd.iv_limit(hd.SmileQuery(100.0, 120.0, 0.09, frame))

    def test_ladder_symmetric_when_uncorrelated(self):
        frame = hd.CorrelationFrame(2.0, 0.0)
        ms = [0.05 * k for k in range(1, 11)]
        strikes = [100.0 * math.exp(m) for m in ms] + [
            100.0 * math.exp(-m) for m in ms
        ]
        entries = hd.smile_table(100.0, 0.25, frame, strikes)
        assert all(isinstance(e, hd.SmilePoint) for e in entries)
        for up, dn in zip(entries[:10], entries[10:]):
            assert up.iv_limit == pytest.approx(dn.iv_limit, abs=1e-8)
        assert all(e.iv_limit > 0 and math.isfinite(e.iv_limit) for e in entries)

    def test_errors_collected_not_fatal(self):
        frame = hd.CorrelationFrame(1.0, 0.0)
        entries = hd.smile_table(100.0, 0.04, frame, [90.0, 100.0, 110.0])
        assert isinstance(entries[0], hd.SmilePoint)
        assert isinstance(entries[1], SmileFailure)
        assert "AtTheMoney" in entries[1].error
        assert isinstance(entries[2], hd.SmilePoint)

    def test_log_moneyness_out_of_range_fails_its_strike(self):
        # 1e-300/1e300 underflows to 0, so log(K/S0) is -inf
        frame = hd.CorrelationFrame(1.0, 0.3)
        bad, good = hd.smile_table(1e300, 0.04, frame, [1e-300, 80.0])
        assert isinstance(bad, SmileFailure)
        assert bad.error.startswith("DomainError")
        want = hd.iv_limit(hd.SmileQuery(1e300, 80.0, 0.04, frame))
        assert _entry_bits(good) == _entry_bits(want)
        with pytest.raises(DomainError):
            hd.iv_limit(hd.SmileQuery(1e300, 1e-300, 0.04, frame))

    def test_infinite_spot_fails_strike_by_strike(self):
        frame = hd.CorrelationFrame(1.0, 0.3)
        entries = hd.smile_table(math.inf, 0.04, frame, [80.0, 100.0, 1e308])
        assert [e.strike for e in entries] == [80.0, 100.0, 1e308]
        assert all(
            isinstance(e, SmileFailure) and e.error.startswith("DomainError")
            and "must be finite" in e.error
            for e in entries
        )

    @pytest.mark.parametrize("failure", ["non-finite", "domain"])
    def test_one_failing_strike(self, monkeypatch, failure):
        # force the objective of one strike's line to fail in the scan; the
        # batch must fail that strike alone, as iv_limit does
        frame = hd.CorrelationFrame(1.4, -0.5)
        strikes = [100.0 * math.exp(-0.775 + 0.05 * j) for j in range(32)]
        broken = 21
        target, _ = reduced_line(hd.SmileQuery(100.0, strikes[broken], 0.06, frame))
        row_fn = ld._row_fn

        def forced(row):
            fn = row_fn(row)
            if abs(row.beta) != abs(target):
                return fn

            def broken_fn(t):
                if failure == "domain":
                    raise DomainError(f"forced failure at beta={target!r}")
                return math.inf, fn(t)[1]

            return broken_fn

        monkeypatch.setattr(ld, "_row_fn", forced)
        entries = hd.smile_table(100.0, 0.06, frame, strikes)
        for j, (k, entry) in enumerate(zip(strikes, entries)):
            q = hd.SmileQuery(100.0, k, 0.06, frame)
            if j != broken:
                assert entry == hd.iv_limit(q)
                continue
            assert isinstance(entry, SmileFailure)
            with pytest.raises(hd.HestonDistError) as exc:
                hd.iv_limit(q)
            assert entry.error == f"{type(exc.value).__name__}: {exc.value}"
            assert entry.error.startswith(
                "NonFiniteSampleError" if failure == "non-finite" else "DomainError"
            )


def _entry_bits(entry):
    """A smile entry with every float as float.hex, or a failure's text."""
    if isinstance(entry, SmileFailure):
        return entry.strike.hex(), entry.error
    return tuple(getattr(entry, f).hex() for f in (
        "strike", "log_moneyness", "iv_limit", "line_beta", "line_gamma", "distance"
    ))


def _iv_limit_entry(spot, v0, frame, strike):
    """iv_limit's entry for one strike, or the failure smile_table records."""
    try:
        return hd.iv_limit(hd.SmileQuery(spot, strike, v0, frame))
    except hd.HestonDistError as exc:
        return SmileFailure(strike, f"{type(exc).__name__}: {exc}")


def _ladders():
    """(spot, v0, frame, strikes): seeded ladders with rho < 0, rho = 0 and
    rho > 0, each holding an at-the-money strike, and a ladder at v0 =
    1e-306 whose reduced lines lie at |beta| ~ 8e305, where the plus
    root's discriminant overflows."""
    rng = random.Random(20091206)
    out = []
    for rho in (-0.9, -0.45, 0.0, 0.3, 0.85):
        for _ in range(2):
            c, v0 = rng.uniform(0.2, 2.0), rng.uniform(0.01, 0.2)
            ms = sorted(rng.uniform(-1.0, 1.0) for _ in range(24))
            strikes = [100.0 * math.exp(m) for m in ms]
            strikes.insert(12, 100.0)
            out.append((100.0, v0, hd.CorrelationFrame(c, rho), strikes))
    out.append((100.0, 1e-306, hd.CorrelationFrame(1.0, 0.5), [50.0, 200.0]))
    return out


def test_smile_table_is_iv_limit_strike_by_strike(monkeypatch):
    built = []
    new = DistanceSolution.__new__

    def counted(cls, *args, **kwargs):
        built.append(new(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(DistanceSolution, "__new__", counted)
    mirrored = 0
    for spot, v0, frame, strikes in _ladders():
        entries = hd.smile_table(spot, v0, frame, strikes)
        assert built == []
        want = [_iv_limit_entry(spot, v0, frame, k) for k in strikes]
        assert len(built) == sum(isinstance(w, hd.SmilePoint) for w in want)
        built.clear()
        assert list(map(_entry_bits, entries)) == list(map(_entry_bits, want))
        mirrored += sum(
            isinstance(e, hd.SmilePoint) and e.line_beta < 0.0 for e in entries
        )
        if v0 > 1e-300:
            failures = [e for e in entries if isinstance(e, SmileFailure)]
            assert [f.strike for f in failures] == [100.0]
            assert failures[0].error.startswith("AtTheMoneyError")
    assert mirrored > 0
