#!/usr/bin/env python3
"""Record the full-grid oracle on every line of the oracle-prune test.

    PYTHONPATH=src python scripts/oracle_references.py > tests/oracle_references.txt

For every ``CASES`` line of ``tests/test_oracle_prune.py``, in order, this
runs that test's ``full_oracle``: every node of each grid evaluated by the
scalar ``dist_correlated``, then the oracle's refine.  Each row is the
case name, beta and gamma, the report (the argmin's v, iterations,
residual, method), the value and each grid's minimum d1 (one or two
grids).  Floats are written as ``float.hex``.  The test compares the
oracle with this file bit for bit instead of evaluating the full grids
again, so a change that moves the scalar distance or the oracle's refine
re-runs this script.  It takes about half a minute on one core.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import test_oracle_prune as prune  # noqa: E402


def main() -> int:
    print("# PYTHONPATH=src python scripts/oracle_references.py")
    print("# case beta gamma v_star iterations residual method value d1...")
    for name, (frame, p0, lines) in prune.CASES.items():
        for beta, gamma in lines:
            refined, grids = prune.full_oracle(frame, p0, beta, gamma)
            minima = [float(ds.min()).hex() for _, ds in grids]
            fields = [name, beta.hex(), gamma.hex(), *map(str, prune.bits(*refined)), *minima]
            print(" ".join(fields))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
