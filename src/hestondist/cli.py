"""Non-interactive batch front-end.

Subcommands::

    heston-dist dist point --x0 X --v0 V --x1 X --v1 V [--c C --rho R]
    heston-dist dist line --beta B --gamma G [--c C --rho R --x0 X --v0 V]
    heston-dist dist level-set --theta T
    heston-dist dist horizontal --tau T
    heston-dist levelset emit --theta T --x-max X [--samples N]
    heston-dist smile --spot S --v0 V --c C --rho R --strikes k1,k2,...
    heston-dist oracle compare [--beta B --gamma G] [--grid]

Global flags: ``--format {json,csv}`` (default json) and
``--quiet-meta``.  Output is a single JSON document or CSV table on
stdout; identical argv yields byte-identical output.  Exit codes: 0 ok,
2 usage error, 1 computation error (with a machine-readable error record).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from typing import Any

from . import __version__
from .errors import HestonDistError
from .levelsets import dist_to_horizontal, dist_to_level_set, sample_curve
from .linedist import dist_to_line, dist_to_line_correlated, oracle_dist
from .pointmetric import CorrelationFrame, dist, dist_correlated
from .smile import SmileFailure, smile_table
from .solution import DistanceSolution

JSON_DIGITS = 17
CSV_DIGITS = 12

_ORACLE_GRID_BETA = (0.1, 0.5, 1.0, 2.0, 4.0)
_ORACLE_GRID_GAMMA = (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt(x: float, digits: int) -> str:
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            return json.dumps(str(x))
        return format(x, f".{digits}g")
    return json.dumps(x)


def _render_json(obj: Any, digits: int = JSON_DIGITS) -> str:
    """json.dumps with floats at a fixed significant-digit count."""
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {_render_json(v, digits)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v, digits) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj, digits)
    raise TypeError(f"cannot render {type(obj)!r}")


def _csv_cell(v: Any) -> str:
    if isinstance(v, float):
        return format(v, f".{CSV_DIGITS}g")
    return str(v)


def _emit(payload: dict, rows: list[dict] | None, args: argparse.Namespace) -> None:
    """Print the record: JSON document, or CSV when tabular rows exist."""
    if args.format == "csv" and rows is not None:
        out = io.StringIO()
        if not args.quiet_meta:
            out.write(f"# hestondist {__version__}\n")
        if rows:
            header = list(rows[0].keys())
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_csv_cell(row[k]) for k in header) + "\n")
        sys.stdout.write(out.getvalue())
        return
    if not args.quiet_meta:
        payload = {"meta": {"generator": "hestondist", "version": __version__}, **payload}
    sys.stdout.write(_render_json(payload) + "\n")


def _solution_outputs(sol: DistanceSolution) -> tuple[dict, dict]:
    outputs = {
        "value": sol.value,
        "half_squared": sol.half_squared,
        "argmin_x": sol.argmin.x,
        "argmin_v": sol.argmin.v,
        "theta_at_argmin": sol.theta_at_argmin,
    }
    diagnostics = {
        "branch": sol.branch,
        "method": sol.report.method,
        "iterations": sol.report.iterations,
        "residual": sol.report.residual,
    }
    return outputs, diagnostics


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dist_point(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    p0, p1 = (args.x0, args.v0), (args.x1, args.v1)
    if args.c == 1.0 and args.rho == 0.0:
        value = dist(p0, p1)
    else:
        value = dist_correlated(CorrelationFrame(args.c, args.rho), p0, p1)
    record = {
        "kind": "point-distance",
        "inputs": {
            "x0": args.x0, "v0": args.v0, "x1": args.x1, "v1": args.v1,
            "c": args.c, "rho": args.rho,
        },
        "outputs": {"value": value},
        "diagnostics": {},
    }
    return record, [{"kind": "point-distance", "value": value}]


def _cmd_dist_line(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    inputs = {
        "beta": args.beta, "gamma": args.gamma,
        "c": args.c, "rho": args.rho, "x0": args.x0, "v0": args.v0,
    }
    if args.c == 1.0 and args.rho == 0.0 and args.x0 == 0.0 and args.v0 == 1.0:
        sol = dist_to_line(args.beta, args.gamma)
        outputs, diagnostics = _solution_outputs(sol)
    else:
        frame = CorrelationFrame(args.c, args.rho)
        value = dist_to_line_correlated(frame, (args.x0, args.v0), args.beta, args.gamma)
        outputs, diagnostics = {"value": value}, {}
    record = {
        "kind": "line-distance",
        "inputs": inputs,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    return record, [{"kind": "line-distance", "value": outputs["value"]}]


def _cmd_dist_level_set(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    sol = dist_to_level_set(args.theta)
    outputs, diagnostics = _solution_outputs(sol)
    record = {
        "kind": "level-set",
        "inputs": {"theta": args.theta},
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    return record, [{"kind": "level-set", "value": sol.value}]


def _cmd_dist_horizontal(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    value = dist_to_horizontal(args.tau)
    record = {
        "kind": "horizontal",
        "inputs": {"tau": args.tau},
        "outputs": {"value": value},
        "diagnostics": {},
    }
    return record, [{"kind": "horizontal", "value": value}]


def _cmd_levelset_emit(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    samples = sample_curve(args.theta, args.x_max, args.samples)
    rows = [
        {"theta": s.theta, "x": s.x, "v": s.v, "slope": s.slope} for s in samples
    ]
    record = {
        "kind": "level-set",
        "inputs": {"theta": args.theta, "x_max": args.x_max, "samples": args.samples},
        "outputs": {"rows": rows},
        "diagnostics": {},
    }
    return record, rows


def _cmd_smile(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    frame = CorrelationFrame(args.c, args.rho)
    entries = smile_table(args.spot, args.v0, frame, args.strikes)
    out_entries: list[dict] = []
    rows: list[dict] = []
    for e in entries:
        if isinstance(e, SmileFailure):
            out_entries.append({"strike": e.strike, "error": e.error})
            continue
        out_entries.append(e._asdict())
        rows.append(
            {
                "strike": e.strike,
                "log_moneyness": e.log_moneyness,
                "beta": e.line_beta,
                "gamma": e.line_gamma,
                "distance": e.distance,
                "iv_limit": e.iv_limit,
            }
        )
    record = {
        "kind": "smile",
        "inputs": {
            "spot": args.spot, "v0": args.v0, "c": args.c, "rho": args.rho,
            "strikes": list(args.strikes),
        },
        "outputs": {"points": out_entries},
        "diagnostics": {},
    }
    return record, rows


def _compare_one(beta: float, gamma: float) -> dict:
    formula = dist_to_line(beta, gamma)
    reference = oracle_dist(beta, gamma)
    return {
        "beta": beta,
        "gamma": gamma,
        "formula": formula.value,
        "oracle": reference.value,
        "abs_diff": abs(formula.value - reference.value),
        "branch": formula.branch,
    }


def _cmd_oracle_compare(args: argparse.Namespace) -> tuple[dict, list[dict] | None]:
    if not args.grid and (args.beta is None or args.gamma is None):
        raise UsageError("oracle compare needs --beta and --gamma, or --grid")
    if args.grid:
        rows = [
            _compare_one(b, g)
            for b in _ORACLE_GRID_BETA
            for g in _ORACLE_GRID_GAMMA
            if b + g != 0.0
        ]
    else:
        rows = [_compare_one(args.beta, args.gamma)]
    record = {
        "kind": "oracle-compare",
        "inputs": {"beta": args.beta, "gamma": args.gamma, "grid": bool(args.grid)},
        "outputs": {"rows": rows},
        "diagnostics": {"max_abs_diff": max(r["abs_diff"] for r in rows)},
    }
    return record, rows


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _strike_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad strike list {text!r}: {exc}")


# A negative number, exponent form included.  argparse tells option values
# from options by a pattern of its own that, before Python 3.13, has no
# exponent form, so it would take "-1e-3" for an option name.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write "--opt -1e-3" as "--opt=-1e-3", which argparse reads as the
    option's value on every Python version."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_NUMBER.fullmatch(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heston-dist",
        description="Distances in the Heston manifold and the small-maturity "
        "implied-volatility limit.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--quiet-meta", action="store_true",
                        help="suppress the version banner in the output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance queries")
    dist_sub = p_dist.add_subparsers(dest="target", required=True)

    p_point = dist_sub.add_parser("point", help="distance between two points")
    p_point.add_argument("--x0", type=float, required=True)
    p_point.add_argument("--v0", type=float, required=True)
    p_point.add_argument("--x1", type=float, required=True)
    p_point.add_argument("--v1", type=float, required=True)
    p_point.add_argument("--c", type=float, default=1.0)
    p_point.add_argument("--rho", type=float, default=0.0)
    p_point.set_defaults(handler=_cmd_dist_point)

    p_line = dist_sub.add_parser("line", help="distance from a point to a line")
    p_line.add_argument("--beta", type=float, required=True)
    p_line.add_argument("--gamma", type=float, required=True)
    p_line.add_argument("--c", type=float, default=1.0)
    p_line.add_argument("--rho", type=float, default=0.0)
    p_line.add_argument("--x0", type=float, default=0.0)
    p_line.add_argument("--v0", type=float, default=1.0)
    p_line.set_defaults(handler=_cmd_dist_line)

    p_level = dist_sub.add_parser("level-set", help="distance to a level curve")
    p_level.add_argument("--theta", type=float, required=True)
    p_level.set_defaults(handler=_cmd_dist_level_set)

    p_horiz = dist_sub.add_parser("horizontal", help="distance to v = tau")
    p_horiz.add_argument("--tau", type=float, required=True)
    p_horiz.set_defaults(handler=_cmd_dist_horizontal)

    p_ls = sub.add_parser("levelset", help="level-curve utilities")
    ls_sub = p_ls.add_subparsers(dest="action", required=True)
    p_emit = ls_sub.add_parser("emit", help="sample a level curve")
    p_emit.add_argument("--theta", type=float, required=True)
    p_emit.add_argument("--x-max", type=float, required=True)
    p_emit.add_argument("--samples", type=int, default=100)
    p_emit.set_defaults(handler=_cmd_levelset_emit)

    p_smile = sub.add_parser("smile", help="implied-volatility limit ladder")
    p_smile.add_argument("--spot", type=float, required=True)
    p_smile.add_argument("--v0", type=float, required=True)
    p_smile.add_argument("--c", type=float, required=True)
    p_smile.add_argument("--rho", type=float, required=True)
    p_smile.add_argument("--strikes", type=_strike_list, required=True)
    p_smile.set_defaults(handler=_cmd_smile)

    p_oracle = sub.add_parser("oracle", help="formula-vs-oracle comparisons")
    oracle_sub = p_oracle.add_subparsers(dest="action", required=True)
    p_cmp = oracle_sub.add_parser("compare")
    p_cmp.add_argument("--beta", type=float, default=None)
    p_cmp.add_argument("--gamma", type=float, default=None)
    p_cmp.add_argument("--grid", action="store_true")
    p_cmp.set_defaults(handler=_cmd_oracle_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        record, rows = args.handler(args)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except HestonDistError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(_render_json(payload) + "\n")
        return 1
    _emit(record, rows, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
