#!/usr/bin/env python3
"""Time the arc-index solve per call and count its evaluations, optionally
against another source tree in the same process.

    PYTHONPATH=src python scripts/index_timing.py
    PYTHONPATH=src python scripts/index_timing.py --against ../parent/src

The inputs are the (x, v) pairs that ``dist`` hands to ``delta_of`` on the
first ``--queries`` queries of the benchmark's point-pairs stream
(``bench/workloads.py``) for each of ``--seeds``, recorded by running the
queries once, and the 4096 nodes of the oracle's grid on the line x = 0.1,
v in (0, 16].  For each set the script prints the mean time of one
``delta_of`` call over ``--passes`` passes, and the mean and maximum number
of evaluations of ``corefuncs._f_of_fn(v)`` per solve.

``--against SRC`` loads the package under ``SRC/hestondist`` as a second
package (``scan_timing.load_tree``) and times its ``delta_of`` call by
call, alternating with the package on ``PYTHONPATH``, so that both see the
same load on a shared machine.  Its evaluations are counted through its own
``corefuncs._f_of_fn``, so it may be an older tree.
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


def point_pair_inputs(seed: int, queries: int) -> list[tuple[float, float]]:
    """The arguments of every delta_of call that dist makes on the first
    queries of the point-pairs stream of seed."""
    seen = []
    solve = pointmetric.delta_of

    def record(x, v):
        seen.append((x, v))
        return solve(x, v)

    load = workloads.WORKLOADS["point-pairs"](seed)
    stream = load.stream("timed")
    pointmetric.delta_of = record
    try:
        for _ in range(queries):
            load.run(next(stream))
    finally:
        pointmetric.delta_of = solve
    return seen


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
    sets = {
        f"point-pairs seed {seed}": point_pair_inputs(seed, args.queries)
        for seed in args.seeds
    }
    sets["oracle grid x = 0.1"] = [
        (0.1, v) for v in np.linspace(0.0, 16.0, 4097)[1:].tolist()
    ]
    names = ["this tree", "against"][: len(packages)]
    for label, inputs in sets.items():
        times = mean_us([p.delta_of for p in packages], inputs, args.passes, ())
        print(f"{label} ({len(inputs)} solves)")
        for name, package, us in zip(names, packages, times):
            evals = evaluations(package, inputs)
            print(
                f"  {name:9s} {us:6.2f} us/solve   evaluations per solve: "
                f"mean {statistics.fmean(evals):5.2f}, max {max(evals)}"
            )
        if len(times) > 1:
            print(f"  speed-up x{times[1] / times[0]:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
