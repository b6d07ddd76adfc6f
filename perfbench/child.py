"""Child processes of the benchmark.

    python3 perfbench/child.py generate CONFIG_JSON OUT_DIR
        Build a dataset with wtal.synthdata.generate and save it.

    python3 perfbench/child.py trace PLAN_JSON SUMMARY_JSON
        The traced run. Import wtal.cli (timed), then run each stage of
        the plan in this process twice through wtal.cli.main: once plain
        and once with every tracer target wrapped. Writes per-stage
        times, digests and the tracer summary to SUMMARY_JSON.

Both need the program on PYTHONPATH.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import sha256  # noqa: E402
from tracer import Tracer  # noqa: E402


def generate(config_json, out_dir):
    from wtal import synthdata
    config = synthdata.GeneratorConfig(**json.loads(config_json))
    synthdata.save(synthdata.generate(config), out_dir)
    return 0


def _run_stage(cli, stage):
    if stage["name"] == "generate":
        return generate(*stage["argv"])
    return cli.main(list(stage["argv"]))


def _digest(path):
    return None if path is None else sha256(path)


def trace(plan_path, summary_path):
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    from wtal import cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    stages = []
    missing = []
    for stage in plan["stages"]:
        record = {"name": stage["name"]}
        stages.append(record)
        start = time.perf_counter()
        record["untraced_exit"] = _run_stage(cli, stage)
        record["untraced_s"] = time.perf_counter() - start
        record["untraced_digest"] = _digest(stage["digest"])
        if record["untraced_exit"] != 0:
            break
        missing = tracer.install()
        try:
            with tracer.span(stage["name"]):
                start = time.perf_counter()
                record["traced_exit"] = _run_stage(cli, stage)
                record["traced_s"] = time.perf_counter() - start
        finally:
            tracer.restore()
        record["traced_digest"] = _digest(stage["digest"])
        if record["traced_exit"] != 0:
            break

    summary = tracer.summary()
    summary.update(import_s=import_s, stages=stages, missing=missing,
                   spans=tracer.span_count)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    sys.exit({"generate": generate, "trace": trace}[command](*rest))
