#!/usr/bin/env python3
"""Time the line scan kernel per block, on the rows of seeded line-mix
lines, and smile ladders, optionally against another source tree in the
same process.

    PYTHONPATH=src python scripts/scan_timing.py --seed 1
    PYTHONPATH=src python scripts/scan_timing.py --seed 1 --against ../parent/src
    PYTHONPATH=src python scripts/scan_timing.py --lines 0 --ladders 40 --against ../parent/src

The rows are those of the first ``--lines`` lines of the benchmark's
line-mix stream (``bench/workloads.py``), each line's search table built
on its own.  The script prints the mean time of one
``linedist._scan_block`` call on blocks of 1 row (every row alone), 2 rows
(the lines with two rows) and 16 rows (consecutive rows), over
``--passes`` passes, and the mean time of one ``dist_to_line`` call on the
same lines.  ``--ladders N`` adds the mean time of one ``smile_table`` call
on the first N ladders of the smile-ladder stream, each call as the
benchmark makes it; ``--lines 0`` leaves the line timings out.

``--against SRC`` loads the package under ``SRC/hestondist`` as a second
package and times it call by call, alternating with the package on
``PYTHONPATH``, so that both see the same load on a shared machine.  Only
``_scan_block``, ``dist_to_line``, ``smile_table`` and ``CorrelationFrame``
of that package are called, with the rows and nodes built here, so it may
be an older tree.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

import hestondist as hd
from hestondist import linedist as ld

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


def block(rows: list) -> tuple[list, np.ndarray]:
    """The rows and their scan nodes, lo + i*(hi - lo)/256 with the last
    node hi, as solvers._minimize_rows builds them."""
    lo = np.array([[r.lo] for r in rows])
    hi = np.array([[r.hi] for r in rows])
    nodes = lo + np.arange(257.0) * ((hi - lo) / 256)
    nodes[:, -1:] = hi
    return rows, nodes


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

    kernels, solvers = [ld._scan_block], [ld.dist_to_line]
    smiles = [ladder(hd)]
    errors: tuple = (hd.HestonDistError,)
    if args.against:
        package = load_tree(args.against)
        other = package.linedist
        kernels.append(other._scan_block)
        solvers.append(other.dist_to_line)
        smiles.append(ladder(package))
        errors += (other.HestonDistError,)

    stream = workloads.WORKLOADS["line-mix"](args.seed).stream("timed")
    lines = [next(stream).args[:2] for _ in range(args.lines)]
    tables = []
    for beta, gamma in lines:
        try:
            line = ld._prelude(beta, gamma)
        except hd.HestonDistError:
            continue
        if not isinstance(line, hd.DistanceSolution):
            tables.append(ld._searches(line[0], line[1], {}))
    rows = [r for table in tables for r in table]
    blocks = {
        1: [block([r]) for r in rows],
        2: [block(t) for t in tables if len(t) == 2],
        16: [block(rows[i:i + 16]) for i in range(0, len(rows) - 15, 16)],
    }
    for size, group in blocks.items():
        if group:
            label = f"_scan_block, {size:2d}-row blocks ({len(group)})"
            report(label, mean_us(kernels, group, args.passes, errors))
    if lines:
        report(f"dist_to_line ({len(lines)} lines)",
               mean_us(solvers, lines, args.passes, errors))
    if args.ladders:
        stream = workloads.WORKLOADS["smile-ladder"](args.seed).stream("timed")
        queries = [next(stream).args for _ in range(args.ladders)]
        report(f"smile_table ({len(queries)} ladders)",
               mean_us(smiles, queries, args.passes, errors))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
