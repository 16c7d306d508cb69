"""One benchmark run: set-up timing, the timed closed loop or the traced
run, output checks, and the result record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from importlib import metadata
from pathlib import Path
from typing import Any, Sequence

import hestondist as hd
from tracer import LAYER_METRICS, Tracer
from workloads import TAIL_MIN_BEYOND, Query, Workload, window_size

SETUP_SPAWNS = 5
CLI_SPAWNS = 3
WARMUP_S = 0.5
# timings are scaled to the speed at which the calibration loop takes
# CAL_REFERENCE_S; the raw figures stay in the record
CAL_ITERS = 100_000
CAL_REFERENCE_S = 0.020
CAL_EVERY_NS = 250_000_000
# latencies buffered between calibration samples; a full buffer takes one
# early, so the loop's memory does not grow with the program's speed
LAT_BUFFER = 1 << 15
SPAWN_TIMEOUT_S = 60
FAILURES_KEPT = 50
CLI_CODE = "import sys; from hestondist.cli import main; sys.exit(main())"

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_tail_us": "us",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "hestondist": hd.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def child_env(root: Path) -> dict:
    """The current environment (thread pins included) with the checkout's
    sources first on the import path."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def _spawn(root: Path, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=root, env=child_env(root),
        capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


def at_reference(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibration samples, at reference speed."""
    return seconds * CAL_REFERENCE_S / (0.5 * (before + after))


def _spawn_walls_at_reference(walls: list[float], cals: list[float]) -> list[float]:
    # cals[i] follows spawn i; the timed spawns are 1.., so spawn i sits
    # between cals[i - 1] and cals[i]
    return [at_reference(w, b, a) for w, b, a in zip(walls, cals, cals[1:])]


def time_setup(root: Path, cals: list[float]) -> list[float]:
    """Wall times of fresh interpreters importing hestondist.  The first,
    untimed spawn fills the bytecode cache; a calibration sample follows
    every spawn, so ``cals`` ends one longer than the returned list."""
    walls = []
    for i in range(SETUP_SPAWNS + 1):
        wall, proc = _spawn(root, ["-c", "import hestondist"])
        if proc.returncode != 0:
            raise RuntimeError(f"import hestondist failed: {proc.stderr.strip()}")
        cals.append(calibration_s())
        if i:
            walls.append(wall)
    return walls


def time_cli(root: Path, wl: Workload, q: Query, expected: float, cals: list[float]) -> list[float]:
    """Wall times of whole heston-dist processes answering query q; each
    must exit 0 and print the in-process answer.  As in ``time_setup``, a
    calibration sample follows every spawn, the untimed first one too."""
    walls = []
    for i in range(CLI_SPAWNS + 1):
        wall, proc = _spawn(root, ["-c", CLI_CODE, *wl.cli_argv(q)])
        if proc.returncode != 0:
            raise RuntimeError(f"heston-dist exited {proc.returncode}: {proc.stdout}{proc.stderr}")
        doc = json.loads(proc.stdout)
        if doc.get("kind") != wl.cli_kind or wl.cli_value(doc) != expected:
            raise RuntimeError(f"heston-dist printed an unexpected record: {proc.stdout}")
        cals.append(calibration_s())
        if i:
            walls.append(wall)
    return walls


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _safe_run(wl: Workload, q: Query):
    try:
        return wl.run(q), None
    except Exception as exc:  # a failed query is counted, the loop goes on
        return None, _raised(exc)


def _warm_up(wl: Workload) -> None:
    it = wl.stream("warmup")
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        _safe_run(wl, next(it))


def verify(wl: Workload, items: list[tuple[Query, Any]]) -> list[dict]:
    """Failures among (query, kept answer) pairs; each notes whether the
    query lies in the known-defect region."""
    failures = []
    for q, kept in items:
        try:
            reason = wl.check(q, kept)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(_failure(wl, q, reason, raised=False))
    return failures


def _failure(wl: Workload, q: Query, reason: str, raised: bool) -> dict:
    """A failed query; only a tolerance miss can be the known defect."""
    return {"stratum": q.stratum, "args": repr(q.args)[:300], "reason": reason,
            "known_defect": not raised and wl.known_defect(q)}


def _correct(checked: int, failures: list[dict]) -> bool:
    return checked > 0 and all(f["known_defect"] for f in failures)


class Outcomes:
    """What a run learns about answers.  Only the first ``size`` queries of
    the timed stream count: their number per stratum, those that raised,
    and the kept answers of those to check after the loop.  Those queries
    depend only on the seed, so two runs of one seed count the same
    failures however far their loops get.  A later query is only watched
    for raising, which makes the run incorrect.  ``fail_frac`` estimates
    the failed share of the counted queries stratum by stratum, from the
    checked ones."""

    def __init__(self, wl: Workload, size: int) -> None:
        self.wl = wl
        self.size = size
        self.seen = 0
        self.attempted: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.raised_after = 0  # raised after the counted queries
        self.checked: Counter[str] = Counter()
        self.missed: Counter[str] = Counter()
        self.kept: list[tuple[Query, Any]] = []
        self.failures: list[dict] = []  # the first FAILURES_KEPT
        self.known_defect = 0  # failures in the known-defect region

    @property
    def full(self) -> bool:
        return self.seen >= self.size

    def add(self, q: Query, answer: Any) -> None:
        self.seen += 1
        if self.seen > self.size:
            return
        self.attempted[q.stratum] += 1
        if q.verify:
            self.checked[q.stratum] += 1
            self.kept.append((q, self.wl.keep(q, answer)))

    def add_raised(self, q: Query, exc: Exception) -> None:
        self.seen += 1
        failure = _failure(self.wl, q, _raised(exc), raised=True)
        if self.seen > self.size:
            self.raised_after += 1
            failure["after_counted"] = True
        else:
            self.attempted[q.stratum] += 1
            self.raised[q.stratum] += 1
        self._note(failure)

    def _note(self, failure: dict) -> None:
        self.known_defect += failure["known_defect"]
        if len(self.failures) < FAILURES_KEPT:
            self.failures.append(failure)

    def verify(self) -> None:
        for f in verify(self.wl, self.kept):
            self.missed[f["stratum"]] += 1
            self._note(f)
        self.kept = []

    @property
    def failed(self) -> int:
        """Counted queries that failed: raised, or missed their check."""
        return sum(self.raised.values()) + sum(self.missed.values())

    def fail_frac(self) -> float:
        est = float(sum(self.raised.values()))
        for stratum, n in self.attempted.items():
            if self.checked[stratum]:
                returned = n - self.raised[stratum]
                est += returned * self.missed[stratum] / self.checked[stratum]
        return est / sum(self.attempted.values())

    def correct(self) -> bool:
        return (sum(self.checked.values()) > 0 and self.raised_after == 0
                and self.known_defect == self.failed)

    def record(self) -> dict:
        return {"counted": sum(self.attempted.values()),
                "checked": sum(self.checked.values()),
                "raised_after_counted": self.raised_after,
                "per_stratum": {s: {"attempted": n, "raised": self.raised[s], "checked": self.checked[s],
                                    "missed": self.missed[s]} for s, n in sorted(self.attempted.items())},
                "failures": self.failures,
                "failures_known_defect": self.known_defect}


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        acc += math.sin(i * 1e-3) * 0.5 + (i % 7)
    return time.perf_counter() - t0


def tail_rank(n: int, pct: float) -> int:
    """1-based rank of the pct-th percentile among n sorted samples."""
    return max(math.ceil(round(pct * n / 100.0, 6)), 1)


class LatencyWindows:
    """Median and tail latency at reference machine speed, each the median
    over consecutive windows of ``window_size`` queries of that percentile
    within the window, so a burst of load from elsewhere moves one window
    and not the result.  Each full window is reduced to its two percentiles
    at once, so memory does not grow with the number of queries; the
    queries after the last full window join it."""

    def __init__(self, tail_pct: float) -> None:
        self.tail_pct = tail_pct
        self.size = window_size(tail_pct)
        self.pending = array("d")
        self.p50s: list[float] = []
        self.tails: list[float] = []
        self.min_beyond = math.inf
        self.count = 0
        self.busy_ns = 0.0  # at reference speed
        self.raw_busy_ns = 0

    def add(self, lat: array, n: int, cal_before: float, cal_after: float) -> None:
        """The first n raw latencies of ``lat``, taken between the two
        calibration samples."""
        factor = at_reference(1.0, cal_before, cal_after)
        part = lat[:n]
        raw = sum(part)
        self.count += n
        self.raw_busy_ns += raw
        self.busy_ns += raw * factor
        self.pending.extend(x * factor for x in part)
        while len(self.pending) >= 2 * self.size:
            self._reduce(self.pending[:self.size])
            del self.pending[:self.size]

    def _reduce(self, window: Sequence[float]) -> None:
        w = sorted(window)
        rank = tail_rank(len(w), self.tail_pct)
        self.p50s.append(statistics.median(w))
        self.tails.append(w[rank - 1])
        self.min_beyond = min(self.min_beyond, len(w) - rank)

    def finish(self) -> dict:
        if self.pending:
            self._reduce(self.pending)
            self.pending = array("d")
        if self.min_beyond < TAIL_MIN_BEYOND:
            raise RuntimeError(f"only {self.min_beyond} samples beyond p{self.tail_pct:g} in a window")
        return {"percentile": self.tail_pct, "windows": len(self.p50s), "window_queries": self.size,
                "min_beyond_per_window": self.min_beyond}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(root: Path, wl: Workload, seconds: int) -> dict:
    """The closed loop for ``seconds``, and on until one latency window is
    full and the workload's counted queries have run.  Timings are reported
    at reference machine speed: the machine is shared and its speed drifts
    by tens of percent within minutes, so a calibration sample is taken
    every quarter second and every time is scaled by the samples around it.
    Raw figures stay in the record.  ``attempted`` and ``failed`` cover the
    counted queries only, so they repeat exactly for one seed."""
    setup_cals: list[float] = []
    setup_raw = time_setup(root, setup_cals)
    _warm_up(wl)
    stream = wl.stream("timed")
    run, perf = wl.run, time.perf_counter_ns
    outcomes = Outcomes(wl, wl.counted)
    windows = LatencyWindows(wl.tail_pct)
    lat = array("q", bytes(8 * LAT_BUFFER))
    n = 0
    cals = [calibration_s()]
    start = perf()
    deadline, next_cal = start + int(seconds * 1e9), start + CAL_EVERY_NS
    while True:
        q = next(stream)
        t0 = perf()
        try:
            answer = run(q)
        except Exception as exc:  # a failed query is counted, the loop goes on
            t1 = perf()
            outcomes.add_raised(q, exc)
        else:
            t1 = perf()
            outcomes.add(q, answer)
        lat[n] = t1 - t0
        n += 1
        done = t1 >= deadline and windows.count + n >= windows.size and outcomes.full
        if done or t1 >= next_cal or n == LAT_BUFFER:
            cals.append(calibration_s())
            windows.add(lat, n, cals[-2], cals[-1])
            n = 0
            if done:
                break
            next_cal = perf() + CAL_EVERY_NS
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes.verify()

    tail = windows.finish()
    setup = _spawn_walls_at_reference(setup_raw, setup_cals)
    metrics = {
        "setup_s": statistics.median(setup),
        "queries_per_s": windows.count / (windows.busy_ns / 1e9),
        "query_p50_us": statistics.median(windows.p50s) / 1e3,
        "query_tail_us": statistics.median(windows.tails) / 1e3,
        "ok_frac": 1.0 - outcomes.fail_frac(),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "queries_per_s": windows.count / (windows.raw_busy_ns / 1e9),
    }
    return {
        "correct": outcomes.correct(),
        "attempted": outcomes.size,
        "failed": outcomes.failed,
        "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "detail": {
            "closed_loop_clients": 1,
            "queries": windows.count,
            "raw": raw,
            "calibration_s": cals,
            "setup_calibration_s": setup_cals,
            "setup_walls_s": setup_raw,
            "tail": tail,
            **outcomes.record(),
        },
    }


def _bits(wl: Workload, outcome: tuple) -> tuple:
    answer, error = outcome
    return ("raised", error) if error is not None else wl.bits(answer)


def traced_run(root: Path | None, wl: Workload, size: int | None = None,
               spans_path: Path | None = None) -> dict:
    """Untraced then traced pass over a fixed query set.  Counts repeat
    exactly for one seed; answers must match bit for bit.  With root None
    the CLI spawn is skipped."""
    queries = wl.trace_queries(size)
    _warm_up(wl)
    cals = [calibration_s()]
    t0 = time.perf_counter()
    plain = [_safe_run(wl, q) for q in queries]
    untraced_s = time.perf_counter() - t0
    cals.append(calibration_s())

    tracer = Tracer()
    traced = []
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, q in enumerate(queries):
            tracer.query_id = i
            traced.append(_safe_run(wl, q))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    cals.append(calibration_s())
    # times at reference machine speed, as in timed_run
    traced_factor = at_reference(1.0, cals[1], cals[2])

    identical = all(_bits(wl, a) == _bits(wl, b) for a, b in zip(plain, traced))
    failures = [_failure(wl, q, err, raised=True) for q, (_, err) in zip(queries, plain) if err is not None]
    checked = [(q, wl.keep(q, ans)) for q, (ans, err) in zip(queries, plain) if err is None and q.verify]
    failures += verify(wl, checked)

    metrics = {k: v * traced_factor if k.endswith("_s") else v for k, v in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = traced_s * traced_factor / at_reference(untraced_s, cals[0], cals[1]) - 1.0
    metrics["verify.checked"] = len(checked)
    metrics["verify.failed"] = len(failures)
    cli = []
    if root is not None:
        cli_cals: list[float] = []
        cli = time_cli(root, wl, queries[0], wl.answer_value(plain[0][0]), cli_cals)
        metrics["cli.process_wall_s"] = statistics.median(_spawn_walls_at_reference(cli, cli_cals))
    if spans_path is not None:
        tracer.write(spans_path)
    return {
        "correct": identical and _correct(len(checked), failures),
        "attempted": len(queries),
        "failed": len(failures),
        "metrics": {k: _metric(metrics[k], unit) for k, (unit, _) in LAYER_METRICS.items() if k in metrics},
        "detail": {
            "inputs_sha256": hashlib.sha256(repr(queries).encode()).hexdigest(),
            "bit_identical": identical,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "calibration_s": cals,
            "cli_walls_s": cli,
            "checked": len(checked),
            "failures": failures[:FAILURES_KEPT],
            "failures_known_defect": sum(f["known_defect"] for f in failures),
        },
    }
