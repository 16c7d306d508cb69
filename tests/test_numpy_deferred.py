"""numpy loads only where the oracle scans its grid, and ``dataclasses``
never: a child interpreter whose importer refuses every ``numpy`` module
and ``dataclasses`` imports the package and the CLI and answers every
command but the oracle's (points, level sets, horizontal lines,
level-curve samples, lines and smiles), and a child without the refusal
loads numpy only when an oracle comparison is asked for.  Each child must
print what this process prints."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import hestondist
from hestondist.cli import main

SRC = str(Path(hestondist.__file__).resolve().parent.parent)

CLOSED_FORM = [
    ["dist", "point", "--x0", "0.3", "--v0", "1", "--x1", "-1.2", "--v1", "0.5"],
    ["dist", "point", "--x0", "0.3", "--v0", "1", "--x1", "-1.2", "--v1", "0.5",
     "--c", "2", "--rho", "-0.5"],
    ["dist", "level-set", "--theta", "1.5707963267948966"],
    ["dist", "horizontal", "--tau", "4"],
    ["levelset", "emit", "--theta", "1.2", "--x-max", "3", "--samples", "7"],
    ["dist", "line", "--beta", "1", "--gamma", "0.5", "--c", "2", "--rho", "-0.5",
     "--x0", "0.1", "--v0", "0.04"],
    ["dist", "line", "--beta", "-1", "--gamma", "0.3"],
    ["smile", "--spot", "100", "--v0", "0.04", "--c", "1.3", "--rho", "-0.6",
     "--strikes", "80,90,100,110,120"],
]

ORACLE = ["oracle", "compare", "--beta", "2", "--gamma", "3"]

CHILD = """
import contextlib, io, json, sys

if sys.argv[2] == "refuse":
    class Refuse:
        def find_spec(self, name, path=None, target=None):
            if name in ("numpy", "dataclasses") or name.startswith("numpy."):
                raise ImportError(f"{name} is refused here")
            return None

    sys.meta_path.insert(0, Refuse())
import hestondist
import hestondist.cli
runs = [["numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hestondist.cli.main(argv)
    runs.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(runs))
"""


def _child(commands: list[list[str]], mode: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands), mode], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _here(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_closed_forms_run_with_numpy_refused():
    (loaded,), *runs = _child(CLOSED_FORM, "refuse")
    assert not loaded
    assert len(runs) == len(CLOSED_FORM)
    for argv, (code, out, _) in zip(CLOSED_FORM, runs):
        assert code == 0, argv
        assert out == _here(argv), argv


def test_numpy_loads_on_the_first_oracle_compare():
    commands = [CLOSED_FORM[0], CLOSED_FORM[5], ORACLE]
    (loaded,), point, line, oracle = _child(commands, "allow")
    assert not loaded  # after import hestondist.cli
    assert point == [0, _here(CLOSED_FORM[0]), False]
    assert line == [0, _here(CLOSED_FORM[5]), False]
    assert oracle == [0, _here(ORACLE), True]
