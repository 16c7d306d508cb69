#!/usr/bin/env python3
"""Time the oracle per query and split out its branch and bound's own time,
optionally against another source tree in the same process.

    PYTHONPATH=src python scripts/oracle_timing.py
    PYTHONPATH=src python scripts/oracle_timing.py --against ../parent/src

The queries are the 44 lines of the benchmark's oracle-sweep workload
(``bench/workloads.py``, ``--seed`` sets the far lines' jitter).  For each
line the script prints:

* the mean time of one ``oracle_dist`` call over ``--passes`` passes;
* the grids the query searched and the branch and bound's steps per grid
  (one distance each);
* the refine's evaluations apart: the distances it evaluated (calls to
  ``dist_correlated`` outside the search, 0 where the refine takes its
  values from the closure) and the calls of the closure of
  ``pointmetric._line_dist_fn``, which gives the distance and its slope
  (0 on a tree without it, which refines by golden section);
* the branch and bound's own time per query: its wall time less the time
  inside its ``dist_correlated`` calls.  It comes from a separate pass with
  both functions wrapped, so the wrappers' own cost (a few tenths of a us
  per distance) counts as the search's.

The last row gives the means over the lines.

``--against SRC`` loads the package under ``SRC/hestondist`` as a second
package (``scan_timing.load_tree``) and times it call by call, alternating
with the package on ``PYTHONPATH``, so that both see the same load on a
shared machine.  Its counts and its split come through its own
``linedist._branch_and_bound``, ``linedist.dist_correlated`` and, where it
has one, ``linedist._line_dist_fn``, whatever their arguments, so it may
be an older tree.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

import hestondist as hd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from scan_timing import load_tree, mean_us  # noqa: E402


class Split:
    """Wraps a package's branch and bound, the distance it evaluates and
    the refine's closure, and accumulates, per query, the grids, the
    distances inside the search, the refine's distances and closure calls,
    and the search's time less its distances' time."""

    def __init__(self, package):
        self.ld = importlib.import_module(package.__name__ + ".linedist")
        self.search, self.dist = self.ld._branch_and_bound, self.ld.dist_correlated
        self.slope_fn = getattr(self.ld, "_line_dist_fn", None)
        self.oracle_dist = package.oracle_dist
        self.reset()

    def reset(self) -> None:
        self.grids = self.steps = self.values = self.calls = 0
        self.inside = False
        self.search_s = self.dist_s = 0.0

    def __enter__(self) -> Split:
        clock = time.perf_counter

        def counted_slope_fn(*args):
            fn = self.slope_fn(*args)

            def counted(v):
                self.calls += 1
                return fn(v)

            return counted

        def timed_dist(*args):
            if not self.inside:
                self.values += 1
                return self.dist(*args)
            self.steps += 1
            start = clock()
            try:
                return self.dist(*args)
            finally:
                self.dist_s += clock() - start

        def timed_search(*args):
            self.grids += 1
            self.inside = True
            start = clock()
            try:
                return self.search(*args)
            finally:
                self.search_s += clock() - start
                self.inside = False

        self.ld._branch_and_bound, self.ld.dist_correlated = timed_search, timed_dist
        if self.slope_fn is not None:
            self.ld._line_dist_fn = counted_slope_fn
        return self

    def __exit__(self, *exc) -> None:
        self.ld._branch_and_bound, self.ld.dist_correlated = self.search, self.dist
        if self.slope_fn is not None:
            self.ld._line_dist_fn = self.slope_fn


def split_line(splits: list[Split], line: tuple, passes: int) -> list[tuple]:
    """(grids, steps per grid, the refine's distances, the refine's closure
    calls, search's own us) per query of line, for each split's package; the
    packages take turns on every pass, in reverse order on every other
    pass."""
    for s in splits:
        s.reset()
    turns = [splits, splits[::-1]]
    for i in range(passes):
        for s in turns[i % 2]:
            with s:
                s.oracle_dist(*line)
    return [
        (s.grids / passes, s.steps / s.grids, s.values / passes, s.calls / passes,
         (s.search_s - s.dist_s) / passes * 1e6)
        for s in splits
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--against", type=Path, metavar="SRC")
    args = parser.parse_args()

    packages = [hd]
    errors: tuple = (hd.HestonDistError,)
    if args.against:
        packages.append(load_tree(args.against))
        errors += (packages[1].HestonDistError,)
    splits = [Split(p) for p in packages]
    lines = workloads.WORKLOADS["oracle-sweep"](args.seed).lines()

    rows = []
    for line in lines:
        times = [mean_us([p.oracle_dist for p in packages], [line], args.passes, errors)]
        rows.append((line, times[0], split_line(splits, line, args.passes)))

    against = " / against" if args.against else ""
    print(f"{'line':30s} grids steps/grid refine d refine fn   oracle us{against}"
          f"   search own us{against}")
    for line, times, counts in rows:
        label = f"({line[0]!r}, {line[1]!r})"
        grids, steps, values, calls, _ = counts[0]
        oracle = " / ".join(f"{t:7.1f}" for t in times)
        own = " / ".join(f"{c[4]:7.1f}" for c in counts)
        print(f"{label:30s} {grids:5.0f} {steps:10.1f} {values:8.0f} {calls:9.0f}"
              f"   {oracle}   {own}")
    n = len(rows)
    for k, name in enumerate(["this tree", "against"][: len(packages)]):
        oracle = statistics.fmean(r[1][k] for r in rows)
        own = statistics.fmean(r[2][k][4] for r in rows)
        grids = sum(r[2][k][0] for r in rows)
        steps = sum(r[2][k][0] * r[2][k][1] for r in rows) / grids
        values = statistics.fmean(r[2][k][2] for r in rows)
        calls = statistics.fmean(r[2][k][3] for r in rows)
        search = steps * grids / n
        print(f"{name:9s} mean over {n} lines: oracle_dist {oracle:7.1f} us, search own "
              f"{own:7.1f} us, {grids:.0f} grids, {steps:.1f} steps per grid; per query "
              f"{search:.1f} search distances, {values:.1f} refine distances, "
              f"{calls:.1f} refine closure calls")
    if len(packages) > 1:
        ratio = statistics.fmean(r[1][1] for r in rows) / statistics.fmean(r[1][0] for r in rows)
        print(f"speed-up of oracle_dist x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
