"""Checks of the benchmark itself: traced counts, and a timed run's
attempted and failed counts, repeat exactly for one seed; another seed runs
clean; the input mix and the latency windows follow their
rules, and the command refuses to run without sources.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from workloads import TAIL_MIN_BEYOND, WORKLOADS, window_size  # noqa: E402

# smaller traced sets than a benchmark run; the default where it is small
SIZES = {"line-mix": 120, "smile-ladder": None, "point-pairs": 1000, "oracle-sweep": None}
EXACT_UNITS = ("count", "evals/call")


def _traced(name: str, seed: int) -> dict:
    return harness.traced_run(None, WORKLOADS[name](seed), size=SIZES[name])


def _counts(record: dict) -> dict:
    return {k: m["value"] for k, m in record["metrics"].items() if m["unit"] in EXACT_UNITS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name):
    a, b = _traced(name, 1), _traced(name, 1)
    assert a["detail"]["inputs_sha256"] == b["detail"]["inputs_sha256"]
    assert a["detail"]["bit_identical"] and b["detail"]["bit_identical"]
    assert _counts(a) == _counts(b)
    assert a["failed"] == b["failed"]
    assert a["correct"] and b["correct"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_runs_clean(name):
    first, second = _traced(name, 1), _traced(name, 2)
    assert second["detail"]["inputs_sha256"] != first["detail"]["inputs_sha256"]
    assert second["correct"] and second["detail"]["bit_identical"]
    assert second["detail"]["checked"] > 0
    assert all(f["known_defect"] for f in second["detail"]["failures"])


def test_window_sizes_are_exact():
    assert [window_size(p) for p in (90.0, 99.0, 99.9)] == [100, 1000, 10000]


def test_remainder_joins_the_last_window():
    from array import array

    windows = harness.LatencyWindows(90.0)
    lat = array("q", range(1, 251))
    windows.add(lat, 130, 0.02, 0.02)
    windows.add(lat[130:], 120, 0.02, 0.02)
    tail = windows.finish()
    assert windows.count == 250 and tail["windows"] == 2
    assert windows.tails == [90.0, 235.0]  # the last window holds queries 101..250
    assert tail["min_beyond_per_window"] >= TAIL_MIN_BEYOND


@pytest.mark.parametrize("name", ["line-mix", "smile-ladder", "point-pairs"])
def test_every_block_holds_one_query_of_each_family(name):
    wl = WORKLOADS[name](1)
    block = round(1.0 / wl.family_share())
    assert block * 2 * TAIL_MIN_BEYOND == window_size(wl.tail_pct)
    it = wl.stream()
    for _ in range(3):
        strata = [next(it).stratum for _ in range(block)]
        assert sorted(s for s in strata if s != "general") == sorted(wl.families)


class _Probe:
    """A workload stand-in whose answers are their own check."""

    def keep(self, q, answer):
        return answer

    def check(self, q, answer):
        return None if answer else "miss"

    def known_defect(self, q):
        return True


def test_fail_frac_is_estimated_per_stratum():
    outcomes = harness.Outcomes(_Probe(), 400)
    q = lambda stratum, verify: harness.Query(stratum, (), verify)
    for i in range(100):  # 10 checked, 5 of them miss: half of 100 fail
        outcomes.add(q("a", i < 10), i % 2 == 0)
    for i in range(300):  # never checked
        outcomes.add(q("b", False), True)
    outcomes.verify()
    assert outcomes.failed == 5
    assert outcomes.fail_frac() == pytest.approx(50 / 400)
    assert outcomes.correct()


def test_only_the_counted_queries_count():
    outcomes = harness.Outcomes(_Probe(), 10)
    q = harness.Query("a", (), True)
    for i in range(25):  # every third answer misses
        outcomes.add(q, i % 3 != 0)
    assert outcomes.full
    outcomes.verify()
    assert sum(outcomes.attempted.values()) == 10 and outcomes.failed == 4
    assert outcomes.correct()
    outcomes.add_raised(q, ValueError("late"))  # after the counted queries
    assert outcomes.failed == 4 and not outcomes.correct()


def test_timed_counts_repeat_for_one_seed():
    def timed(seed):
        wl = WORKLOADS["line-mix"](seed)
        wl.counted = 300  # 6 near-diagonal lines
        return harness.timed_run(ROOT, wl, 1)

    a, b = timed(1), timed(1)
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]) == (300, b["failed"])
    assert a["metrics"]["ok_frac"] == b["metrics"]["ok_frac"]
    assert a["correct"] and b["correct"]
    assert a["detail"]["queries"] >= 300


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "line-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
