#!/usr/bin/env python3
"""hestondist benchmark: one seeded, closed-loop, single-process workload.

    python3 bench/run.py --workload line-mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the
last stdout line is the end-to-end result; with ``--trace 1`` it is the
per-layer result of a traced run over a fixed query set.  Both forms are

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``attempted`` and ``failed`` count the queries whose outcomes a run counts:
in a timed run the first ``counted`` queries of the seeded stream, in a
traced run its fixed set.  So both repeat exactly for one seed.

The full record (environment, tail percentile, failures, inputs digest) is
written to ``.bench_out/`` in the checkout, with the trace spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("line-mix", "smile-ladder", "point-pairs", "oracle-sweep")
OUT_DIR = ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "hestondist" / "__init__.py").is_file():
        print(f"error: no hestondist sources under {src}", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread, set before numpy loads; children inherit it
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(src))
    import hestondist

    if not Path(hestondist.__file__).resolve().is_relative_to(src):
        print(f"error: hestondist imported from {hestondist.__file__}, not {src}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS as CLASSES

    env = harness.environment()
    wl = CLASSES[args.workload](args.seed)
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record = harness.traced_run(ROOT, wl, spans_path=out / f"{stem}-spans.npz")
    else:
        record = harness.timed_run(ROOT, wl, args.seconds)
    detail = record.pop("detail")
    (out / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "detail": detail, "result": record},
        indent=1, default=str) + "\n")
    print(f"env: {json.dumps(env)}")
    if "tail" in detail:
        t = detail["tail"]
        print(f"tail: p{t['percentile']:g}, median of {t['windows']} windows of "
              f"{t['window_queries']} or more queries, at least {t['min_beyond_per_window']} "
              f"beyond it in each; raw timings {json.dumps(detail['raw'])}")
    if "queries" in detail:
        print(f"timed queries {detail['queries']}; outcomes counted for the first {record['attempted']}")
    print(f"checked {detail['checked']}, failed {record['failed']} "
          f"({detail['failures_known_defect']} in the known near-diagonal defect region)")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
