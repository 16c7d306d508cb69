#!/usr/bin/env python3
"""Time the line rows' minimization on seeded line-mix lines and smile
ladders, optionally against another source tree in the same process.

    PYTHONPATH=src python scripts/scan_timing.py --seed 1
    PYTHONPATH=src python scripts/scan_timing.py --seed 1 --against ../parent/src
    PYTHONPATH=src python scripts/scan_timing.py --lines 0 --ladders 40 --against ../parent/src

The lines are the first ``--lines`` lines of the benchmark's line-mix
stream (``bench/workloads.py``).  The script prints the mean time of one
``linedist._solve_many`` call on one line (the line's search table and
the minimization of its rows, without the DistanceSolution) and of one
``dist_to_line`` call, over ``--passes`` passes.  ``--ladders N`` adds the
mean time of one ``_solve_many`` call on the reduced lines of each of the
first N ladders of the smile-ladder stream, and of one ``smile_table``
call as the benchmark makes it; ``--lines 0`` leaves the line timings
out.  Each tree answers one line before the timings start.

``--against SRC`` loads the package under ``SRC/hestondist`` as a second
package and times it call by call, alternating with the package on
``PYTHONPATH``, so that both see the same load on a shared machine.  Only
``_solve_many``, ``dist_to_line``, ``smile_table``, ``CorrelationFrame``
and ``smile.reduced_line`` of that package are called, so it may be an
older tree.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import hestondist as hd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


def load_tree(src: Path):
    """The package under src/hestondist, imported as hestondist_against."""
    init = src / "hestondist" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "hestondist_against", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def mean_us(fns: list, calls: list, passes: int, errors: tuple) -> list[float]:
    """The mean time of one call of each fn on the calls' arguments, in us;
    the fns take turns on every call, in reverse order on every other call
    (the fn called first on an argument runs about 5% slower), and a call
    that raises one of errors is timed as well."""
    total = [0.0] * len(fns)
    clock = time.perf_counter
    turns = [list(enumerate(fns)), list(enumerate(fns))[::-1]]
    for _ in range(passes):
        for i, args in enumerate(calls):
            for k, fn in turns[i % 2]:
                start = clock()
                try:
                    fn(*args)
                except errors:
                    pass
                total[k] += clock() - start
    return [t / (passes * len(calls)) * 1e6 for t in total]


def ladder(package):
    """smile_table of a package, called on a smile-ladder query's arguments
    as the benchmark calls it."""
    spot = workloads.SmileLadder.SPOT

    def call(c, rho, v0, strikes, _probe):
        return package.smile_table(spot, v0, package.CorrelationFrame(c, rho), strikes)

    return call


def report(label: str, times: list[float]) -> None:
    line = f"{label:36s} {times[0]:7.1f} us"
    if len(times) > 1:
        line += f"   against {times[1]:7.1f} us: x{times[1] / times[0]:.3f}"
    print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lines", type=int, default=4000)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--ladders", type=int, default=0)
    parser.add_argument("--against", type=Path, metavar="SRC")
    args = parser.parse_args()

    packages = [hd]
    errors: tuple = (hd.HestonDistError,)
    if args.against:
        packages.append(load_tree(args.against))
        errors += (packages[1].HestonDistError,)
    for package in packages:  # a tree that scans with numpy imports it here
        package.dist_to_line(1.0, 0.5)

    stream = workloads.WORKLOADS["line-mix"](args.seed).stream("timed")
    lines = [next(stream).args[:2] for _ in range(args.lines)]
    if lines:
        batches = [([line],) for line in lines]
        report(f"_solve_many, one line ({len(lines)} lines)",
               mean_us([p.linedist._solve_many for p in packages], batches,
                       args.passes, errors))
        report(f"dist_to_line ({len(lines)} lines)",
               mean_us([p.dist_to_line for p in packages], lines, args.passes, errors))
    if args.ladders:
        stream = workloads.WORKLOADS["smile-ladder"](args.seed).stream("timed")
        queries = [next(stream).args for _ in range(args.ladders)]
        report(f"_solve_many, one ladder ({len(queries)} ladders)",
               mean_us([reduced_ladder(p) for p in packages], queries, args.passes, errors))
        report(f"smile_table ({len(queries)} ladders)",
               mean_us([ladder(p) for p in packages], queries, args.passes, errors))
    return 0


def reduced_ladder(package):
    """_solve_many of a package on the reduced lines of a smile-ladder
    query's arguments."""
    spot, reduced = workloads.SmileLadder.SPOT, package.smile.reduced_line

    def call(c, rho, v0, strikes, _probe):
        frame = package.CorrelationFrame(c, rho)
        lines = [reduced(package.SmileQuery(spot, k, v0, frame)) for k in strikes if k != spot]
        return package.linedist._solve_many(lines)

    return call


if __name__ == "__main__":
    raise SystemExit(main())
