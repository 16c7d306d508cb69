#!/usr/bin/env python3
"""Time whole fresh interpreters that import the package or answer one
``heston-dist`` command, optionally against another source tree.

    PYTHONPATH=src python scripts/process_timing.py
    PYTHONPATH=src python scripts/process_timing.py --against ../parent/src

Each spawn is ``python -c CODE [ARGS]`` with ``PYTHONPATH`` set to the
tree's source directory: ``import hestondist``, ``import hestondist.cli``,
and the CLI (``hestondist.cli:main``, as the ``heston-dist`` entry point
runs it) on ``dist point``, ``dist level-set``, ``dist line`` and
``smile``.  Every spawn must exit 0.  One untimed spawn per tree and
command fills the bytecode cache, where bytecode is written at all: the
first line printed says whether it is (``sys.flags.dont_write_bytecode``;
the spawns inherit this environment, ``PYTHONDONTWRITEBYTECODE``
included), and where it is not every spawn compiles the package anew.
Then ``--spawns`` timed spawns follow for each, the trees taking turns
in an order that flips on every round, so that both see the same load
on a shared machine.  For each command
and tree the script prints the median wall and its quartiles q1-q3 in
ms, and with ``--against`` the ratio of the medians (against / this
tree) and the number of rounds this tree was faster.  Both trees must
print the same output.

The tree on ``PYTHONPATH`` is the one ``import hestondist`` finds here;
``--against SRC`` is the directory that holds the other ``hestondist``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hestondist

CLI = "import sys; from hestondist.cli import main; sys.exit(main())"

COMMANDS = {
    "import hestondist": ["-c", "import hestondist"],
    "import hestondist.cli": ["-c", "import hestondist.cli"],
    "dist point": ["-c", CLI, "dist", "point", "--x0", "0.3", "--v0", "1",
                   "--x1", "-1.2", "--v1", "0.5"],
    "dist level-set": ["-c", CLI, "dist", "level-set", "--theta", "1.5707963267948966"],
    "dist line": ["-c", CLI, "dist", "line", "--beta", "1", "--gamma", "0.5"],
    "smile": ["-c", CLI, "smile", "--spot", "100", "--v0", "0.04", "--c", "1.3",
              "--rho", "-0.6", "--strikes", "80,90,110,120"],
}


def spawn(src: Path, argv: list[str]) -> tuple[float, str]:
    """The wall time and the output of one interpreter on argv."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=src, env=env,
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {argv} exited {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spawns", type=int, default=15,
                        help="timed spawns per tree and command (at least 9)")
    parser.add_argument("--against", type=Path, metavar="SRC")
    args = parser.parse_args()
    if args.spawns < 9:
        parser.error("--spawns must be at least 9")

    trees = [Path(hestondist.__file__).resolve().parent.parent]
    if args.against:
        trees.append(args.against.resolve())
    names = ["this tree", "against"][: len(trees)]
    writes = "do not write" if sys.flags.dont_write_bytecode else "write"
    print(f"spawns {writes} bytecode (sys.flags.dont_write_bytecode)")
    for label, argv in COMMANDS.items():
        outputs = [spawn(src, argv)[1] for src in trees]
        if any(out != outputs[0] for out in outputs):
            raise SystemExit(f"{label}: the trees print different outputs")
        walls: list[list[float]] = [[] for _ in trees]
        for i in range(args.spawns):
            order = range(len(trees)) if i % 2 == 0 else reversed(range(len(trees)))
            for k in order:
                wall, out = spawn(trees[k], argv)
                if out != outputs[0]:
                    raise SystemExit(f"{label}: {trees[k]} printed another output")
                walls[k].append(wall)
        print(f"{label} ({args.spawns} spawns per tree)")
        for name, w in zip(names, walls):
            q1, med, q3 = statistics.quantiles(w, n=4)
            print(f"  {name:9s} median {1e3 * med:6.1f} ms  q1-q3 "
                  f"{1e3 * q1:6.1f}-{1e3 * q3:6.1f} ms")
        if len(trees) > 1:
            wins = sum(a < b for a, b in zip(*walls))
            ratio = statistics.median(walls[1]) / statistics.median(walls[0])
            print(f"  against / this tree x{ratio:.3f}, this tree faster in "
                  f"{wins} of {args.spawns}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
