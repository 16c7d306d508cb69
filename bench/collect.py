#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads line-mix ...] [--trace-seed 1]
                             [--out bench/results/baseline.json]

Each (workload, seed) is one `bench/run.py` process, run one after another.
For every end-to-end metric the summary gives the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  ``--trace-seed`` adds one traced run per
workload for the per-layer numbers.  ``--out`` writes the whole summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record, "wall_s": wall}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--note", default="", help="free text stored in the summary, e.g. the commit measured")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary: dict = {"note": args.note, "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        runs = [run_once(wl, s, args.seconds, 0) for s in args.seeds]
        summary.setdefault("env", runs[0]["record"]["env"])
        entry: dict = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "tail": [r["record"]["detail"]["tail"] for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
            "end_to_end": {},
        }
        print(f"{wl}: correct={entry['correct']} attempted={entry['attempted']} failed={entry['failed']}")
        for name, bound in bounds.items():
            s = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:15s} median {s['median']:.6g}  spread {s['spread']:.4f}  bound {bound}{flag}")
        if args.trace_seed is not None:
            tr = run_once(wl, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "correct": tr["result"]["correct"],
                "inputs_sha256": tr["record"]["detail"]["inputs_sha256"],
                "metrics": {k: v["value"] for k, v in tr["result"]["metrics"].items()},
            }
            print(f"  traced: correct={tr['result']['correct']} "
                  f"overhead {entry['per_layer']['metrics']['trace.overhead_frac']:.3f}")
        print(f"  run walls: {[round(w, 1) for w in entry['run_wall_s']]}", flush=True)
        summary["workloads"][wl] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
