"""Benchmark of the wtal CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/wtal``. With
``--trace 0`` it runs each stage of the workload as a ``wtal`` subprocess,
sets up and repeats the timed stages for about S seconds and reports the
end-to-end metrics. With ``--trace 1`` it makes one traced run in a child process
and reports the per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details: run context, every repeat's stage times, digests, work
counts and failures. README.md in this directory explains the metrics.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# pinned before anything here or in a stage imports numpy
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# a run must end within 180 s; no stage or repeat may start past this
DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "train_steps_per_s": "steps/s",
    "localize_s": "s",
    "localize_videos_per_s": "videos/s",
    "eval_s": "s",
    "plot_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "synthdata.generate_s": "s",
    "synthdata.save_s": "s",
    "synthdata.load_s": "s",
    "synthdata.feature_bytes_read": "bytes",
    "numkit.temporal_conv_forward.us_per_call": "us",
    "numkit.temporal_conv_forward.calls": "count",
    "numkit.temporal_conv_backward.us_per_call": "us",
    "numkit.temporal_conv_backward.calls": "count",
    "numkit.adam_step.us_per_call": "us",
    "numkit.adam_step.calls": "count",
    "numkit.softmax.us_per_call": "us",
    "numkit.softmax.calls": "count",
    "numkit.sigmoid.us_per_call": "us",
    "numkit.sigmoid.calls": "count",
    "numkit.elementwise.us_per_step": "us",
    "numkit.elementwise.calls": "count",
    "basemodel.forward.self_us": "us",
    "basemodel.forward.calls": "count",
    "basemodel.backward.self_us": "us",
    "basemodel.backward.calls": "count",
    "basemodel.save_checkpoint.ms": "ms",
    "basemodel.load_checkpoint.ms": "ms",
    "losses.attention_norm_loss.us_per_call": "us",
    "losses.attention_norm_loss.calls": "count",
    "losses.other.us_per_step": "us",
    "consensus.run_refinement.self_s": "s",
    "consensus.compute_pseudo_gt.ms": "ms",
    "consensus.steps": "count",
    "consensus.step_us": "us",
    "localization.localize.self_us_per_video": "us",
    "localization.upsample_linear.us_per_call": "us",
    "localization.extract_segments.us_per_call": "us",
    "localization.oic_score.calls": "count",
    "localization.proposals": "count",
    "localization.kept_ratio": "ratio",
    "localization.save_proposals.ms": "ms",
    "evaluation.evaluate_s": "s",
    "evaluation.map_at_s": "s",
    "evaluation.precision_recall_f_s": "s",
    "evaluation.iou.calls": "count",
    "evaluation.match_ratio": "ratio",
    "evaluation.gt_segments": "count",
    "evaluation.map_at_0.5": "mAP",
    "evaluation.average_map": "mAP",
    "evaluation.f_measure_at_0.5": "F",
    "pipeline.stream_outputs.us_per_video": "us",
    "pipeline.write_attention_csv.ms_per_video": "ms",
    "pipeline.write_attention_svg.ms_per_video": "ms",
    "trace_overhead.train_s": "s",
    "trace_overhead.localize_s": "s",
    "trace_overhead.eval_s": "s",
    "trace_overhead.plot_s": "s",
}

# relu, the fully connected layer and the backward passes of the
# nonlinearities; the convolutions are reported on their own
ELEMENTWISE = ("numkit.relu", "numkit.relu_backward", "numkit.fc_forward",
               "numkit.fc_backward", "numkit.sigmoid_backward",
               "numkit.softmax_backward")
# every loss term but the attention normalization, which has its own row
OTHER_LOSSES = ("losses.classification_loss",
                "losses.classification_loss_grad", "losses.pseudo_gt_loss",
                "losses.total_loss")


def run_context():
    """Machine facts that explain the numbers."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": "shared; nothing was pinned, tuned or traced "
                   "machine-wide; only the benchmark's own processes "
                   "were measured",
    }


class Run:
    """The operations of one benchmark run: every stage invocation is one
    and fails if it exits non-zero or its output fails a check."""

    def __init__(self, workload, work, deadline):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.peak_rss_kb = 0
        self.digests = {}

    @property
    def ok(self):
        return not self.failures

    def fail(self, message, operations=1):
        """Record a failure of ``operations`` operations."""
        self.failed += operations
        self.failures.append(message)

    def process(self, argv, log_name):
        """Run ``argv`` to completion or the deadline; returns (exit code,
        wall seconds). Peak RSS comes from this child's own rusage."""
        log = os.path.join(self.work, log_name)
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                # interrupted or terminated: leave no stage running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            with open(log, "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-400:].strip().replace("\n", " | ")
            self.fail(f"{' '.join(argv[1:4])}: exit {proc.returncode}: "
                      f"{tail}")
        return proc.returncode, seconds

    def check(self, stage_name):
        try:
            problems = checks.check_stage(stage_name, self.workload)
            digest = checks.digest_of(stage_name, self.workload)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems = [f"{stage_name}: malformed output: {exc!r}"]
            digest = None
        if problems:
            self.fail("; ".join(problems[:5]))
        if digest is not None:
            self.digests.setdefault(stage_name, []).append(digest)
        return not problems

    def clear(self, stages):
        """Empty the directories ``stages`` write into."""
        for directory in self.workload.dirs_of(stages):
            shutil.rmtree(directory, ignore_errors=True)
            os.makedirs(directory)

    def stages(self, stages):
        """Run ``stages`` once into cleared directories; returns a list of
        [stage name, seconds], or None once one fails."""
        self.clear(stages)
        times = []
        for stage in stages:
            if time.monotonic() > self.deadline:
                self.attempted += 1
                self.fail(f"{stage.name}: not started before the deadline")
                return None
            if stage.name == "generate":
                argv = [sys.executable, os.path.join(HERE, "child.py"),
                        "generate", *stage.argv]
            else:
                argv = [sys.executable, "-m", "wtal.cli", *stage.argv]
            self.attempted += 1
            code, seconds = self.process(argv, "stage.log")
            if code != 0 or not self.check(stage.name):
                return None
            times.append([stage.name, seconds])
        return times

    def check_digests(self):
        """The determinism contract: one digest per artifact per run."""
        for name, digests in self.digests.items():
            if len(set(digests)) > 1:
                self.fail(f"{name}: output differs between repeats of one "
                          f"run: {sorted(set(digests))}",
                          len(digests) - digests.count(digests[0]))
        return {name: digests[0] for name, digests in self.digests.items()}


def end_to_end(workload, setups, rounds, peak_rss_kb):
    """End-to-end metrics of one run: each stage's mean time over its
    runs in this run, set-up included; ``setup_s`` is the median set-up.
    ``pipeline_s`` sums the timed stages' means."""
    samples = {}
    for name, seconds in [t for r in setups + rounds for t in r]:
        samples.setdefault(name, []).append(seconds)
    mean = {name: statistics.fmean(v) for name, v in samples.items()}
    timed = {stage.name for stage in workload.timed}
    return {
        "setup_s": statistics.median(sum(t for _, t in r) for r in setups),
        "train_s": mean["train"],
        "train_steps_per_s": workload.steps / mean["train"],
        "localize_s": mean["localize"],
        "localize_videos_per_s": workload.test_videos / mean["localize"],
        "eval_s": mean["eval"],
        "plot_s": mean["plot"],
        "pipeline_s": sum(mean[name] for name in timed),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def measure(run, seconds):
    """Set up ``setup_repeats`` times, then run rounds of the timed stages
    (at least ``min_rounds``) while the next round still ends within
    ``seconds`` of the first set-up."""
    w = run.workload
    setups, rounds = [], []
    start = time.perf_counter()
    for _ in range(w.setup_repeats):
        times = run.stages(w.setup)
        if times is None:
            return setups, rounds
        setups.append(times)
    rounds_start = time.perf_counter()
    while True:
        times = run.stages(w.timed)
        if times is None:
            break
        rounds.append(times)
        now = time.perf_counter()
        per_round = (now - rounds_start) / len(rounds)
        if len(rounds) >= w.min_rounds and now - start + per_round > seconds:
            break
        if time.monotonic() + per_round > run.deadline:
            break
    return setups, rounds


def _per(amount, count):
    return amount / count if count else 0.0


def per_layer(summary, quality):
    """Per-layer metrics from the traced run's tracer summary."""
    layers, counters = summary["layers"], summary["counters"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def stat(stage, name):
        return layers.get(stage, {}).get(name, empty)

    def everywhere(name, field):
        return sum(stat(stage, name)[field] for stage in layers)

    def us_per_call(stage, name):
        s = stat(stage, name)
        return 1e6 * _per(s["self_s"], s["calls"])

    def ms_per_call(stage, name):
        s = stat(stage, name)
        return 1e3 * _per(s["total_s"], s["calls"])

    def counter(stage, name):
        return counters.get(stage, {}).get(name, 0)

    steps = stat("train", "numkit.adam_step")["calls"]
    elementwise = [stat("train", n) for n in ELEMENTWISE]
    other_losses = [stat("train", n) for n in OTHER_LOSSES]
    refinement = stat("train", "consensus.run_refinement")
    stream_outputs = [stat(s, "pipeline.stream_outputs")
                      for s in ("localize", "plot")]
    oic_calls = stat("localize", "localization.oic_score")["calls"]
    iou_calls = stat("eval", "evaluation.iou")["calls"]
    times = {s["name"]: s for s in summary["stages"]}

    values = {
        "cli.import_s": summary["import_s"],
        "synthdata.generate_s": everywhere("synthdata.generate", "total_s"),
        "synthdata.save_s": everywhere("synthdata.save", "total_s"),
        "synthdata.load_s": everywhere("synthdata.load", "total_s"),
        "synthdata.feature_bytes_read": sum(
            c.get("feature_bytes_read", 0) for c in counters.values()),
        "numkit.elementwise.us_per_step": 1e6 * _per(
            sum(s["self_s"] for s in elementwise), steps),
        "numkit.elementwise.calls": sum(s["calls"] for s in elementwise),
        "basemodel.forward.self_us": us_per_call("train",
                                                 "basemodel.forward"),
        "basemodel.backward.self_us": us_per_call("train",
                                                  "basemodel.backward"),
        "basemodel.save_checkpoint.ms": ms_per_call(
            "train", "basemodel.save_checkpoint"),
        "basemodel.load_checkpoint.ms": 1e3 * _per(
            everywhere("basemodel.load_checkpoint", "total_s"),
            everywhere("basemodel.load_checkpoint", "calls")),
        "losses.other.us_per_step": 1e6 * _per(
            sum(s["self_s"] for s in other_losses), steps),
        "consensus.run_refinement.self_s": refinement["self_s"],
        "consensus.compute_pseudo_gt.ms": ms_per_call(
            "train", "consensus.compute_pseudo_gt"),
        "consensus.steps": steps,
        "consensus.step_us": 1e6 * _per(refinement["total_s"], steps),
        "localization.localize.self_us_per_video": us_per_call(
            "localize", "localization.localize"),
        "localization.upsample_linear.us_per_call": us_per_call(
            "localize", "localization.upsample_linear"),
        "localization.extract_segments.us_per_call": us_per_call(
            "localize", "localization.extract_segments"),
        "localization.oic_score.calls": oic_calls,
        "localization.proposals": counter("localize", "proposals"),
        "localization.kept_ratio": _per(counter("localize", "proposals"),
                                        oic_calls),
        "localization.save_proposals.ms": ms_per_call(
            "localize", "localization.save_proposals"),
        "evaluation.evaluate_s": stat("eval",
                                      "evaluation.evaluate")["total_s"],
        "evaluation.map_at_s": stat("eval", "evaluation.map_at")["total_s"],
        "evaluation.precision_recall_f_s": stat(
            "eval", "evaluation.precision_recall_f")["total_s"],
        "evaluation.iou.calls": iou_calls,
        "evaluation.match_ratio": _per(counter("eval", "matches"),
                                       iou_calls),
        "evaluation.gt_segments": counter("eval", "gt_segments"),
        "pipeline.stream_outputs.us_per_video": 1e6 * _per(
            sum(s["total_s"] for s in stream_outputs),
            sum(s["calls"] for s in stream_outputs)),
        "pipeline.write_attention_csv.ms_per_video": ms_per_call(
            "plot", "pipeline.write_attention_csv"),
        "pipeline.write_attention_svg.ms_per_video": ms_per_call(
            "plot", "pipeline.write_attention_svg"),
    }
    for name in ("temporal_conv_forward", "temporal_conv_backward",
                 "adam_step", "softmax", "sigmoid"):
        values[f"numkit.{name}.us_per_call"] = us_per_call(
            "train", f"numkit.{name}")
        values[f"numkit.{name}.calls"] = stat("train",
                                              f"numkit.{name}")["calls"]
    for name in ("forward", "backward"):
        values[f"basemodel.{name}.calls"] = stat(
            "train", f"basemodel.{name}")["calls"]
    values["losses.attention_norm_loss.us_per_call"] = us_per_call(
        "train", "losses.attention_norm_loss")
    values["losses.attention_norm_loss.calls"] = stat(
        "train", "losses.attention_norm_loss")["calls"]
    for name, value in quality.items():
        values[f"evaluation.{name}"] = value
    for stage in ("train", "localize", "eval", "plot"):
        t = times.get(stage, {})
        values[f"trace_overhead.{stage}_s"] = (
            t.get("traced_s", 0.0) - t.get("untraced_s", 0.0))
    return values


def traced_stages(workload):
    """Every distinct set-up and timed stage, once each, in order."""
    stages = {}
    for stage in workload.setup + workload.timed:
        stages.setdefault(stage.name, stage)
    return list(stages.values())


def trace_plan(workload):
    """What the traced child runs, with the artifact whose digest must not
    change under tracing."""
    digest_paths = {"train": workload.training_log,
                    "localize": workload.proposals}
    return {"stages": [{"name": s.name, "argv": list(s.argv),
                        "digest": digest_paths.get(s.name)}
                       for s in traced_stages(workload)]}


def traced(run):
    """One traced run of every stage in a child process."""
    w = run.workload
    stages = traced_stages(w)
    run.clear(stages)
    plan_path = os.path.join(run.work, "trace_plan.json")
    summary_path = os.path.join(run.work, "trace_summary.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(trace_plan(w), fh)
    run.attempted += 2 * len(stages)
    code, _ = run.process([sys.executable, os.path.join(HERE, "child.py"),
                           "trace", plan_path, summary_path], "trace.log")
    if code != 0:
        return None
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    for record in summary["stages"]:
        for mode in ("untraced", "traced"):
            if record.get(f"{mode}_exit", 0) != 0:
                run.fail(f"{record['name']} ({mode}): exit "
                         f"{record[f'{mode}_exit']}")
        if record.get("untraced_digest") != record.get("traced_digest"):
            run.fail(f"{record['name']}: output differs with tracing on")
    if len(summary["stages"]) != len(stages):
        run.fail("traced run stopped early", 0)
    for stage in stages:
        if run.ok:
            run.check(stage.name)
    return summary


def run_workload(name, seed, seconds, trace, work, tiny=False):
    """Build, run and check one workload; returns (result, detail)."""
    deadline = time.monotonic() + DEADLINE_S
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "context": run_context(),
              "loadavg_start": os.getloadavg()}
    w = workloads.build(name, seed, work, tiny=tiny)
    run = Run(w, work, deadline)
    if trace:
        summary = traced(run)
    else:
        setups, rounds = measure(run, seconds)
        detail.update(setups=setups, rounds=rounds)
    detail["digests"] = run.check_digests()
    metrics = {}
    if run.ok:
        quality = checks.quality(w.report)
        if trace:
            metrics = {k: (v, PER_LAYER[k])
                       for k, v in per_layer(summary, quality).items()}
            detail.update(layers=summary["layers"],
                          counters=summary["counters"],
                          stages=summary["stages"], spans=summary["spans"],
                          missing_targets=summary["missing"])
        else:
            metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(
                w, setups, rounds, run.peak_rss_kb).items()}
        detail["quality"] = quality
        detail["counts"] = {
            "optimizer_steps": w.steps,
            "train_videos": w.train_videos,
            "test_videos": w.test_videos,
            "proposals": checks.count_proposals(w.proposals),
            "gt_segments": checks.count_gt(w.report),
        }
    attempted = max(run.attempted, 1)
    failed = min(run.failed, attempted)
    detail.update(failures=run.failures, loadavg_end=os.getloadavg(),
                  failed_share=failed / attempted)
    result = {"correct": run.ok, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so the running stage is stopped
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "wtal", "cli.py")):
        print(f"error: no program to measure: {ROOT}/src/wtal is missing",
              file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
