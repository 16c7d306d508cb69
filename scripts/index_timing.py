#!/usr/bin/env python3
"""Time the point distance and the arc-index solve per call and count the
solve's evaluations, optionally against another source tree in the same
process.

    PYTHONPATH=src python scripts/index_timing.py
    PYTHONPATH=src python scripts/index_timing.py --against ../parent/src

The inputs are recorded by running the first ``--queries`` queries of the
benchmark's point-pairs stream (``bench/workloads.py``) once for each of
``--seeds``: the arguments of every ``dist`` call, through the package
binding or through ``dist_correlated``, and the (x, v) pairs that ``dist``
hands to ``delta_of``.  The 4096 nodes of the oracle's grid on the line
x = 0.1, v in (0, 16], are a further set of solves.  For each set of
``dist`` calls the script prints the mean time of one call over
``--passes`` passes; for each set of solves, the mean time of one
``delta_of`` call and the mean and maximum number of evaluations of
``corefuncs._f_of_fn(v)`` per solve.

``--against SRC`` loads the package under ``SRC/hestondist`` as a second
package (``scan_timing.load_tree``) and times its ``dist`` and ``delta_of``
call by call, alternating with the package on ``PYTHONPATH``, so that both
see the same load on a shared machine.  Its evaluations are counted through
its own ``corefuncs._f_of_fn``, so it may be an older tree.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from pathlib import Path

import numpy as np

import hestondist as hd
from hestondist import pointmetric

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from scan_timing import load_tree, mean_us  # noqa: E402


def point_pair_inputs(seed: int, queries: int) -> tuple[list, list]:
    """The arguments of every dist call on the first queries of the
    point-pairs stream of seed, and of every delta_of call that dist
    makes."""
    pairs, solves = [], []
    dist, solve = pointmetric.dist, pointmetric.delta_of

    def record_dist(p0, p1):
        pairs.append((p0, p1))
        return dist(p0, p1)

    def record_solve(x, v):
        solves.append((x, v))
        return solve(x, v)

    load = workloads.WORKLOADS["point-pairs"](seed)
    stream = load.stream("timed")
    # dist_correlated calls pointmetric.dist, the workload calls hd.dist
    hd.dist = pointmetric.dist = record_dist
    pointmetric.delta_of = record_solve
    try:
        for _ in range(queries):
            load.run(next(stream))
    finally:
        hd.dist = pointmetric.dist = dist
        pointmetric.delta_of = solve
    return pairs, solves


def evaluations(package, inputs: list) -> list[int]:
    """The number of evaluations of package's f_of objective per solve."""
    cf = importlib.import_module(package.__name__ + ".corefuncs")
    factory = cf._f_of_fn
    count = [0]

    def counting(v):
        fn = factory(v)

        def counted(d):
            count[0] += 1
            return fn(d)

        return counted

    out = []
    cf._f_of_fn = counting
    try:
        for x, v in inputs:
            count[0] = 0
            package.delta_of(x, v)
            out.append(count[0])
    finally:
        cf._f_of_fn = factory
    return out


def speed_up(times: list[float]) -> None:
    if len(times) > 1:
        print(f"  speed-up x{times[1] / times[0]:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--queries", type=int, default=20_000)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--against", type=Path, metavar="SRC")
    args = parser.parse_args()

    packages = [hd]
    if args.against:
        packages.append(load_tree(args.against))
    errors = tuple(p.HestonDistError for p in packages)
    calls, sets = {}, {}
    for seed in args.seeds:
        label = f"point-pairs seed {seed}"
        calls[label], sets[label] = point_pair_inputs(seed, args.queries)
    sets["oracle grid x = 0.1"] = [
        (0.1, v) for v in np.linspace(0.0, 16.0, 4097)[1:].tolist()
    ]
    names = ["this tree", "against"][: len(packages)]
    for label, pairs in calls.items():
        times = mean_us([p.dist for p in packages], pairs, args.passes, errors)
        print(f"{label} ({len(pairs)} dist calls)")
        for name, us in zip(names, times):
            print(f"  {name:9s} {us:6.2f} us/call")
        speed_up(times)
    for label, inputs in sets.items():
        times = mean_us([p.delta_of for p in packages], inputs, args.passes, ())
        print(f"{label} ({len(inputs)} solves)")
        for name, package, us in zip(names, packages, times):
            evals = evaluations(package, inputs)
            print(
                f"  {name:9s} {us:6.2f} us/solve   evaluations per solve: "
                f"mean {statistics.fmean(evals):5.2f}, max {max(evals)}"
            )
        speed_up(times)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
