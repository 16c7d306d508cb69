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

``--inverses`` times the inverse index maps instead: the arguments of every
``psi_inv``, ``eta_inv`` and ``eta_alpha_inv`` call that the first
``--lines`` queries of the line-mix stream and the first ``--ladders``
ladders of the smile-ladder stream make, for each of ``--seeds``.  For
each map it prints the mean time of one call and the mean and maximum
number of evaluations of the map's objective per call.

``--against SRC`` loads the package under ``SRC/hestondist`` as a second
package (``scan_timing.load_tree``) and times its ``dist`` and ``delta_of``
(or its inverse maps) call by call, alternating with the package on
``PYTHONPATH``, so that both see the same load on a shared machine.  Its
evaluations are counted through its own ``corefuncs`` objectives
(``_f_of_fn``; ``psi`` or ``_psi_fn``, ``eta`` or ``_eta_fn``,
``_eta_alpha_fn``), so it may be an older tree.

    PYTHONPATH=src python scripts/index_timing.py --inverses --against ../parent/src
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from pathlib import Path

import numpy as np

import hestondist as hd
from hestondist import levelsets, pointmetric

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


# each inverse map and the corefuncs objectives it may evaluate, in this
# tree or an older one; _eta_alpha_fn is a factory
INVERSES = {"psi_inv": ("psi", "_psi_fn"), "eta_inv": ("eta", "_eta_fn"),
            "eta_alpha_inv": ("_eta_alpha_fn",)}


def inverse_inputs(workload: str, seed: int, queries: int) -> dict[str, list]:
    """{map: [the arguments of each call]} on the first queries of the
    workload's stream of seed; eta_alpha_inv's ceiling, which the line
    searches always pass, is a third argument."""
    calls = {name: [] for name in INVERSES}
    originals = {name: getattr(levelsets, name) for name in INVERSES}

    def recorder(name):
        def record(*args, **kwargs):
            calls[name].append((*args, *kwargs.values()))
            return originals[name](*args, **kwargs)

        return record

    load = workloads.WORKLOADS[workload](seed)
    stream = load.stream("timed")
    for name in INVERSES:
        setattr(levelsets, name, recorder(name))
    try:
        for _ in range(queries):
            try:
                load.run(next(stream))
            except hd.HestonDistError:
                pass
    finally:
        for name, fn in originals.items():
            setattr(levelsets, name, fn)
    return calls


def inverse_evaluations(package, name: str, inputs: list) -> list[int]:
    """The number of evaluations of the map's objective in package per
    call."""
    cf = importlib.import_module(package.__name__ + ".corefuncs")
    count = [0]

    def counted(fn):
        def call(t):
            count[0] += 1
            return fn(t)

        return call

    saved = {f: getattr(cf, f) for f in INVERSES[name] if hasattr(cf, f)}
    for f, fn in saved.items():
        factory = f == "_eta_alpha_fn"
        setattr(cf, f, (lambda a, fn=fn: counted(fn(a))) if factory else counted(fn))
    out = []
    try:
        for args in inputs:
            count[0] = 0
            _inverse(package, name)(*args)
            out.append(count[0])
    finally:
        for f, fn in saved.items():
            setattr(cf, f, fn)
    return out


def time_inverses(packages: list, args) -> None:
    names = ["this tree", "against"][: len(packages)]
    for workload, queries in (("line-mix", args.lines), ("smile-ladder", args.ladders)):
        for seed in args.seeds:
            calls = inverse_inputs(workload, seed, queries)
            for name, inputs in calls.items():
                if not inputs:
                    continue
                fns = [_inverse(p, name) for p in packages]
                times = mean_us(fns, inputs, args.passes, ())
                print(f"{workload} seed {seed}: {name} ({len(inputs)} calls)")
                for label, package, us in zip(names, packages, times):
                    evals = inverse_evaluations(package, name, inputs)
                    print(
                        f"  {label:9s} {us:6.2f} us/call   evaluations per call: "
                        f"mean {statistics.fmean(evals):5.2f}, max {max(evals)}"
                    )
                speed_up(times)


def _inverse(package, name: str):
    """package's inverse map name, taking eta_alpha_inv's ceiling as a
    third argument."""
    fn = getattr(package, name)
    if name != "eta_alpha_inv":
        return fn
    return lambda alpha, y, ceiling: fn(alpha, y, ceiling=ceiling)


def speed_up(times: list[float]) -> None:
    if len(times) > 1:
        print(f"  speed-up x{times[1] / times[0]:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--queries", type=int, default=20_000)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--against", type=Path, metavar="SRC")
    parser.add_argument("--inverses", action="store_true")
    parser.add_argument("--lines", type=int, default=2000)
    parser.add_argument("--ladders", type=int, default=20)
    args = parser.parse_args()

    packages = [hd]
    if args.against:
        packages.append(load_tree(args.against))
    if args.inverses:
        time_inverses(packages, args)
        return 0
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
