"""src/wtal holds what its commands run: every top-level function and
class there is named by code of the package that is itself reached, not
only by the tests, and every parameter default there is left to by a
call of the package."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wtal"

# the definitions that only tests reach, each kept for a reason
TEST_ONLY = {
    "run_experiment": "the acceptance suite runs every experiment by it",
}

# the ``function.parameter`` defaults that no call of the package leaves
# to, each kept for a reason
UNUSED_DEFAULTS = {
    "load.split": "the tests and run_experiment on an on-disk dataset "
                  "load both splits",
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


def defaults(node):
    """(index among the positional parameters or None, name) of each
    parameter of a function node that has a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield index, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def callee(call):
    """The name a call calls: a bare name or an attribute."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def leaves_out(call, index, name):
    """Whether a call passes no value for the parameter ``name`` at
    positional ``index``; an unpacked argument counts as passing it."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or \
            any(keyword.arg in (None, name) for keyword in call.keywords):
        return False
    return index is None or len(call.args) <= index


def unused_defaults(source, allowed):
    """``function.parameter`` of each parameter default of the package
    at ``source`` (nested functions included) that no call of the
    package leaves out, apart from those in ``allowed``. Calls are
    matched by name, as in ``unreached``."""
    nodes = [node for _, top in top_level(source) for node in ast.walk(top)]
    calls = [node for node in nodes if isinstance(node, ast.Call)]
    unused = set()
    for node in nodes:
        if not isinstance(node, ast.FunctionDef):
            continue
        for index, name in defaults(node):
            if not any(callee(call) == node.name
                       and leaves_out(call, index, name) for call in calls):
                unused.add(f"{node.name}.{name}")
    return sorted(unused - set(allowed))


def test_every_default_is_left_to_by_a_call():
    assert unused_defaults(SOURCE, UNUSED_DEFAULTS) == []


def test_allowed_defaults_are_unused():
    assert set(UNUSED_DEFAULTS) <= set(unused_defaults(SOURCE, {}))
