"""Per-layer spans and counts, recorded from outside the library.

``Tracer.install`` replaces each public function named in ``TARGETS`` at
every module binding that holds it (``hestondist.linedist.minimize_on_interval``,
``hestondist.pointmetric.solve_monotone``, ``hestondist.levelsets.solve_monotone``
and so on), so calls between modules and recursive calls inside a module go
through the wrapper.  ``uninstall`` puts the originals back.

Each call becomes a span (name, start, end, parent span, query id) kept in
flat arrays in memory and written out at the end of the run.  A layer's self
time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, function, what to count besides calls and time)
TARGETS = (
    ("corefuncs", "coef_A", None),
    ("corefuncs", "coef_B", None),
    ("corefuncs", "f_of", None),
    ("corefuncs", "psi", None),
    ("solvers", "minimize_on_interval", "evals"),
    ("solvers", "solve_monotone", "evals"),
    ("levelsets", "psi_inv", None),
    ("levelsets", "eta_inv", None),
    ("levelsets", "eta_alpha_inv", None),
    ("levelsets", "theta_crit", None),
    ("levelsets", "x_crit_inv", None),
    ("pointmetric", "delta_of", None),
    ("pointmetric", "dist", None),
    ("linedist", "dist_to_line", "branch"),
    ("linedist", "oracle_dist", None),
    ("smile", "smile_table", None),
    ("smile", "iv_limit", None),
)

BRANCHES = ("vertical-kp", "slanted-plus", "slanted-minus", "left-slanted", "on-line")

# name -> unit, better; the per-layer metrics every traced run reports
LAYER_METRICS = {
    "solvers.minimize_on_interval.calls": ("count", "lower"),
    "solvers.minimize_on_interval.evals": ("count", "lower"),
    "solvers.minimize_on_interval.evals_per_call": ("evals/call", "lower"),
    "solvers.minimize_on_interval.self_s": ("s", "lower"),
    "solvers.solve_monotone.calls": ("count", "lower"),
    "solvers.solve_monotone.evals": ("count", "lower"),
    "solvers.solve_monotone.failed": ("count", "lower"),
    "solvers.solve_monotone.self_s": ("s", "lower"),
    "levelsets.inverse_maps.calls": ("count", "lower"),
    "levelsets.inverse_maps.self_s": ("s", "lower"),
    "corefuncs.coef_A.calls": ("count", "lower"),
    "corefuncs.coef_B.calls": ("count", "lower"),
    "corefuncs.f_of.calls": ("count", "lower"),
    "corefuncs.psi.calls": ("count", "lower"),
    "corefuncs.self_s": ("s", "lower"),
    "pointmetric.delta_of.calls": ("count", "lower"),
    "pointmetric.delta_of.self_s": ("s", "lower"),
    "pointmetric.dist.calls": ("count", "lower"),
    "pointmetric.dist.self_s": ("s", "lower"),
    "linedist.dist_to_line.calls": ("count", "lower"),
    **{f"linedist.dist_to_line.calls.{b}": ("count", "lower") for b in BRANCHES},
    "linedist.dist_to_line.self_s": ("s", "lower"),
    "linedist.oracle_dist.calls": ("count", "lower"),
    "linedist.oracle_dist.self_s": ("s", "lower"),
    "smile.smile_table.self_s": ("s", "lower"),
    "smile.iv_limit.calls": ("count", "lower"),
    "smile.iv_limit.self_s": ("s", "lower"),
    "cli.process_wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "verify.checked": ("count", "higher"),
    "verify.failed": ("count", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.query = array("q")
        self.query_id = -1
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(x):
            counts[key] += 1
            return fn(x)

        return counted

    def _wrap(self, span: str, fn, extra: str | None):
        nid = len(self.names)
        self.names.append(span)
        start, end, parent, name, query = self.start, self.end, self.parent, self.name, self.query
        stack, counts, perf = self._stack, self.counts, time.perf_counter
        evals_key = span + ".evals"

        def wrapper(*args, **kwargs):
            if extra == "evals":
                if args:
                    args = (self._counted(evals_key, args[0]),) + args[1:]
                else:
                    kwargs["fn"] = self._counted(evals_key, kwargs["fn"])
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            query.append(self.query_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = perf()
                stack.pop()
                counts[span + ".raised"] += 1
                raise
            end[sid] = perf()
            stack.pop()
            if extra == "branch":
                p = parent[sid]
                if p < 0 or name[p] != nid:  # count a mirrored line once
                    counts[f"{span}.calls.{result.branch}"] += 1
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "hestondist" or k.startswith("hestondist.")]
        for module, func, extra in TARGETS:
            orig = getattr(sys.modules[f"hestondist.{module}"], func)
            wrapped = self._wrap(f"{module}.{func}", orig, extra)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            m, attr, orig = self._undo.pop()
            setattr(m, attr, orig)

    # -- aggregation -------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.name, dtype=np.int64),
        )

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        start, end, parent, name = self._arrays()
        dur = end - start
        cover = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(cover, parent[child], dur[child])
        own = dur - cover
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        """The span- and count-based entries of LAYER_METRICS."""
        tot = self.layer_totals()
        group = lambda prefix: [v for k, v in tot.items() if k.startswith(prefix)]
        out: dict[str, float] = {}
        for span in ("solvers.minimize_on_interval", "solvers.solve_monotone",
                     "pointmetric.delta_of", "pointmetric.dist",
                     "linedist.dist_to_line", "linedist.oracle_dist", "smile.iv_limit"):
            out[f"{span}.calls"], out[f"{span}.self_s"] = tot[span]
        for span in ("solvers.minimize_on_interval", "solvers.solve_monotone"):
            out[f"{span}.evals"] = self.counts[f"{span}.evals"]
        calls = out["solvers.minimize_on_interval.calls"]
        out["solvers.minimize_on_interval.evals_per_call"] = (
            out["solvers.minimize_on_interval.evals"] / calls if calls else 0.0
        )
        out["solvers.solve_monotone.failed"] = self.counts["solvers.solve_monotone.raised"]
        inv = group("levelsets.")
        out["levelsets.inverse_maps.calls"] = sum(c for c, _ in inv)
        out["levelsets.inverse_maps.self_s"] = sum(s for _, s in inv)
        for func in ("coef_A", "coef_B", "f_of", "psi"):
            out[f"corefuncs.{func}.calls"] = tot[f"corefuncs.{func}"][0]
        out["corefuncs.self_s"] = sum(s for _, s in group("corefuncs."))
        for b in BRANCHES:
            out[f"linedist.dist_to_line.calls.{b}"] = self.counts[f"linedist.dist_to_line.calls.{b}"]
        out["smile.smile_table.self_s"] = tot["smile.smile_table"][1]
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path: Path) -> None:
        start, end, parent, name = self._arrays()
        np.savez_compressed(
            path, start=start, end=end, parent=parent, name=name,
            query=np.frombuffer(self.query, dtype=np.int64), names=np.array(self.names),
        )
