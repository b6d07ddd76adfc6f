"""The benchmark against the program it runs. Its traced run wraps each
(module, attribute) listed in TARGETS of perfbench/tracer.py and quietly
skips one that is gone, and its workloads pass CLI flags, config files
and generator settings that the program must still accept; a change that
breaks either is caught here rather than as a missing per-layer figure
or a failed benchmark run."""

import ast
import importlib
import importlib.util
import json
import pathlib
import sys

import pytest

from wtal import cli, synthdata
from wtal.config import load_run_config

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_workloads():
    """perfbench/workloads.py, imported from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_input_is_accepted(name, tiny, tmp_path):
    """Each CLI stage's argv parses, each --config it passes loads, and
    each generate stage's settings build a GeneratorConfig."""
    workload = workloads.build(name, 1, str(tmp_path), tiny=tiny)
    parser = cli.build_parser()
    stages = workload.setup + workload.timed
    for stage in stages:
        if stage.name == "generate":
            synthdata.GeneratorConfig(**json.loads(stage.argv[0]))
            continue
        args = parser.parse_args(stage.argv)
        assert args.command == stage.name
        if getattr(args, "config", None) is not None:
            load_run_config(args.config)
    assert {stage.name for stage in stages} >= {"train", "localize", "eval",
                                                 "plot"}
