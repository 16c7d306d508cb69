"""The per-layer tracer of the benchmark wraps library functions by name;
a rename or removal in the library would silently drop its layer."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hestondist

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_targets():
    """(module, function) pairs of the TARGETS table, read without importing
    the benchmark."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(module, func) for module, func, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no TARGETS table in {TRACER}")


def test_every_traced_binding_resolves():
    targets = traced_targets()
    assert ("linedist", "dist_to_line") in targets
    missing = [
        f"{module}.{func}"
        for module, func in targets
        if not callable(getattr(importlib.import_module(f"hestondist.{module}"), func, None))
    ]
    assert missing == []


def test_import_loads_every_traced_module():
    """Tracer.install finds each target's module in sys.modules, so a bare
    ``import hestondist`` must load all of them (no lazy submodules)."""
    modules = sorted({module for module, _ in traced_targets()})
    src = str(Path(hestondist.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, hestondist; "
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('hestondist.'))))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in modules if f"hestondist.{m}" not in loaded] == []
