"""The package runs without scipy: a child interpreter whose importer refuses
every ``scipy`` module runs the CLI and must print what this process prints."""

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

COMMANDS = [
    ["dist", "point", "--x0", "0.3", "--v0", "1", "--x1", "-1.2", "--v1", "0.5"],
    ["dist", "line", "--beta", "1", "--gamma", "0.5", "--c", "2", "--rho", "-0.5",
     "--x0", "0.1", "--v0", "0.04"],
    ["smile", "--spot", "100", "--v0", "0.04", "--c", "1.3", "--rho", "-0.6",
     "--strikes", "80,90,110,120"],
    ["oracle", "compare", "--beta", "2", "--gamma", "3"],
]

CHILD = """
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is refused here: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
import hestondist.cli
assert "scipy" not in sys.modules
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hestondist.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def _child(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_cli_runs_with_scipy_refused():
    proc = _child("-c", CHILD, json.dumps(COMMANDS))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    for argv, (code, out) in zip(COMMANDS, runs):
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            assert main(argv) == 0
        assert code == 0, argv
        assert out == here.getvalue(), argv


def test_import_loads_no_scipy():
    proc = _child(
        "-c",
        "import sys, hestondist.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
