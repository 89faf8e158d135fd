"""The traced benchmark run (bench/tracing.py) wraps package functions that
it looks up by name.  Every (module, attribute) pair in its TARGETS must
resolve, or a deletion breaks the traced run while the rest of the suite
passes.  The list is read from the source; bench/ is not imported."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def trace_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TARGETS list in {TRACING}")


@pytest.mark.parametrize("module_name, attr", trace_targets())
def test_trace_target_resolves(module_name, attr):
    obj = importlib.import_module(f"toroidal.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
