"""The benchmark's traced run wraps each (module, attribute) listed in
TARGETS of perfbench/tracer.py and quietly skips one that is gone, so a
renamed or deleted target is caught here rather than as a missing
per-layer figure."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracer.py"


def traced_targets():
    """(module, attribute) of every TARGETS entry, read from the source
    without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError(f"{TRACER} assigns no TARGETS list")


def test_every_traced_target_exists():
    targets = traced_targets()
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert targets
    assert missing == []
