"""The tracer's accounting, and that a traced run leaves the program as it
found it."""

import importlib
import json
import os
import types

import child
import run
import workloads
from tracer import TARGETS, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _toy_module(clock):
    """top -> (mid -> leaf, leaf), plus leaf; each calls through the
    module attribute, as the program's modules do."""
    ns = types.SimpleNamespace()

    def leaf():
        clock.advance(1.0)
        return [1, 2]

    def mid():
        clock.advance(10.0)
        ns.leaf()
        ns.leaf()

    def top():
        ns.mid()
        clock.advance(100.0)
        ns.leaf()

    ns.leaf, ns.mid, ns.top = leaf, mid, top
    return ns


def test_self_time_on_nested_calls():
    clock = FakeClock()
    ns = _toy_module(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(ns, "leaf", "toy.leaf", hook=lambda r: ("items", len(r)))
    tracer.wrap(ns, "mid", "toy.mid")
    tracer.wrap(ns, "top", "toy.top")
    with tracer.span("stage"):
        ns.top()
    with tracer.span("other"):
        ns.leaf()
    tracer.restore()

    summary = tracer.summary()
    stage = summary["layers"]["stage"]
    assert stage["toy.leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert stage["toy.mid"] == {"calls": 1, "total_s": 12.0, "self_s": 10.0}
    assert stage["toy.top"] == {"calls": 1, "total_s": 113.0,
                                "self_s": 100.0}
    assert stage["stage"] == {"calls": 1, "total_s": 113.0, "self_s": 0.0}
    assert summary["layers"]["other"]["toy.leaf"]["calls"] == 1
    assert summary["counters"] == {"stage": {"items": 6},
                                   "other": {"items": 2}}
    assert tracer.span_count == 8


def test_restore_puts_back_the_originals():
    ns = _toy_module(FakeClock())
    originals = dict(vars(ns))
    tracer = Tracer()
    tracer.wrap(ns, "leaf", "toy.leaf")
    tracer.wrap(ns, "top", "toy.top")
    assert ns.leaf is not originals["leaf"]
    tracer.restore()
    assert vars(ns) == originals


def test_install_reports_missing_targets():
    tracer = Tracer()
    missing = tracer.install([("json", "no_such_function", "x", None),
                              ("json", "dumps", "json.dumps", None)])
    assert missing == ["json.no_such_function"]
    assert json.dumps is not _json_dumps
    tracer.restore()
    assert json.dumps is _json_dumps


_json_dumps = json.dumps


def test_traced_run_restores_every_target(tmp_path):
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _, _ in TARGETS}
    w = workloads.build("long-video-inference", 2, str(tmp_path / "work"),
                        tiny=True)
    for directory in w.dirs_of(run.traced_stages(w)):
        os.makedirs(directory, exist_ok=True)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(run.trace_plan(w)))
    summary_path = tmp_path / "summary.json"

    assert child.trace(str(plan_path), str(summary_path)) == 0

    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    summary = json.loads(summary_path.read_text())
    assert summary["missing"] == []
    assert [s["name"] for s in summary["stages"]] == [
        "generate", "train", "localize", "eval", "plot"]
    assert all(s["untraced_digest"] == s["traced_digest"]
               for s in summary["stages"])
    assert summary["layers"]["train"]["numkit.adam_step"]["calls"] == w.steps
