"""src/wtal holds what its commands run: every top-level function and
class there is named by code of the package that is itself reached, not
only by the tests."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wtal"

# the definitions that only tests reach, each kept for a reason
TEST_ONLY = {
    "average_precision": "the benchmark's tracer lists it in TARGETS",
    "run_experiment": "the acceptance suite runs every experiment by it",
}


def named(node):
    """Each name that the code of a node refers to: a bare name, an
    attribute or an imported name."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def top_level(source):
    """(module name, node) of each top-level statement of the package at
    ``source``."""
    for path in sorted(source.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path.stem, node


def is_definition(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def unreached(source, test_only):
    """``module.name`` of each top-level function and class of the
    package at ``source`` that no reached code names. Module-level code
    outside the definitions is reached, and so are the definitions named
    in ``test_only``; a definition named by reached code outside itself
    is reached in turn."""
    pending = {}
    reached = set(test_only)
    for module, node in top_level(source):
        if is_definition(node):
            pending[f"{module}.{node.name}"] = node
        else:
            reached.update(named(node))
    while True:
        newly = [key for key, node in pending.items() if node.name in reached]
        if not newly:
            return sorted(pending)
        for key in newly:
            reached.update(named(pending.pop(key)))


def test_every_definition_is_reached_from_the_package():
    assert unreached(SOURCE, TEST_ONLY) == []


def test_test_only_names_are_defined():
    defined = {node.name for _, node in top_level(SOURCE)
               if is_definition(node)}
    assert set(TEST_ONLY) <= defined
