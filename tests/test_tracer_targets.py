"""The per-layer tracer of the benchmark wraps library functions by name;
a rename or removal in the library would silently drop its layer."""

import ast
import importlib
from pathlib import Path

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
