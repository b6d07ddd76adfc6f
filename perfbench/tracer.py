"""Span tracer that wraps module attributes from outside the program.

A wrapper is set on the module attribute a caller looks up, so a function
imported by name (``from .consensus import fuse_attention``) is wrapped at
the importing module. Each call records one span: name, start, end and
the span that was open when it began. Spans live in flat arrays until the
run ends; ``summary`` turns them into per-stage call counts, total time
and self time (span time minus the time of its child spans).

This module imports nothing from the program, so importing it does not
import numpy or ``wtal``.
"""

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager


def _feature_bytes(dataset):
    return sum(4 * (v.rgb.size + v.flow.size) for v in dataset.all_videos())


# (module, attribute looked up by the caller, span name, counter hook).
# A hook maps the call's result to (counter name, amount); counters are
# kept per stage like spans.
TARGETS = [
    ("wtal.cli", "run_refinement", "consensus.run_refinement", None),
    ("wtal.synthdata", "generate", "synthdata.generate", None),
    ("wtal.synthdata", "save", "synthdata.save", None),
    ("wtal.synthdata", "load", "synthdata.load",
     lambda ds: ("feature_bytes_read", _feature_bytes(ds))),
    ("wtal.numkit", "temporal_conv_forward", "numkit.temporal_conv_forward",
     None),
    ("wtal.numkit", "temporal_conv_backward",
     "numkit.temporal_conv_backward", None),
    ("wtal.numkit", "fc_forward", "numkit.fc_forward", None),
    ("wtal.numkit", "fc_backward", "numkit.fc_backward", None),
    ("wtal.numkit", "sigmoid", "numkit.sigmoid", None),
    ("wtal.numkit", "sigmoid_backward", "numkit.sigmoid_backward", None),
    ("wtal.numkit", "relu", "numkit.relu", None),
    ("wtal.numkit", "relu_backward", "numkit.relu_backward", None),
    ("wtal.numkit", "softmax", "numkit.softmax", None),
    ("wtal.numkit", "softmax_backward", "numkit.softmax_backward", None),
    ("wtal.numkit", "adam_init", "numkit.adam_init", None),
    ("wtal.numkit", "adam_step", "numkit.adam_step", None),
    ("wtal.basemodel", "forward", "basemodel.forward", None),
    ("wtal.basemodel", "backward", "basemodel.backward", None),
    ("wtal.basemodel", "save_checkpoint", "basemodel.save_checkpoint", None),
    ("wtal.basemodel", "load_checkpoint", "basemodel.load_checkpoint", None),
    ("wtal.losses", "classification_loss", "losses.classification_loss",
     None),
    ("wtal.losses", "classification_loss_grad",
     "losses.classification_loss_grad", None),
    ("wtal.losses", "attention_norm_loss", "losses.attention_norm_loss",
     None),
    ("wtal.losses", "pseudo_gt_loss", "losses.pseudo_gt_loss", None),
    ("wtal.losses", "total_loss", "losses.total_loss", None),
    ("wtal.consensus", "compute_pseudo_gt", "consensus.compute_pseudo_gt",
     None),
    ("wtal.consensus", "fuse_attention", "consensus.fuse_attention", None),
    ("wtal.consensus", "max_pool_smooth", "consensus.max_pool_smooth", None),
    ("wtal.consensus", "make_pseudo_gt", "consensus.make_pseudo_gt", None),
    ("wtal.localization", "fuse_attention", "consensus.fuse_attention",
     None),
    ("wtal.localization", "upsample_linear", "localization.upsample_linear",
     None),
    ("wtal.localization", "select_categories",
     "localization.select_categories", None),
    ("wtal.localization", "extract_segments",
     "localization.extract_segments", None),
    ("wtal.localization", "oic_score", "localization.oic_score", None),
    ("wtal.localization", "localize", "localization.localize",
     lambda proposals: ("proposals", len(proposals))),
    ("wtal.localization", "save_proposals", "localization.save_proposals",
     None),
    ("wtal.localization", "load_proposals", "localization.load_proposals",
     None),
    ("wtal.evaluation", "gt_from_videos", "evaluation.gt_from_videos",
     lambda gts: ("gt_segments", len(gts))),
    ("wtal.evaluation", "iou", "evaluation.iou", None),
    ("wtal.evaluation", "_match", "evaluation._match",
     lambda flags: ("matches", sum(flags))),
    ("wtal.evaluation", "average_precision", "evaluation.average_precision",
     None),
    ("wtal.evaluation", "map_at", "evaluation.map_at", None),
    ("wtal.evaluation", "precision_recall_f",
     "evaluation.precision_recall_f", None),
    ("wtal.evaluation", "evaluate", "evaluation.evaluate", None),
    ("wtal.evaluation", "save_report", "evaluation.save_report", None),
    ("wtal.pipeline", "fuse_attention", "consensus.fuse_attention", None),
    ("wtal.pipeline", "stream_outputs", "pipeline.stream_outputs", None),
    ("wtal.pipeline", "localize_dataset", "pipeline.localize_dataset", None),
    ("wtal.pipeline", "write_attention_csv", "pipeline.write_attention_csv",
     None),
    ("wtal.pipeline", "write_attention_svg", "pipeline.write_attention_svg",
     None),
    ("wtal.pipeline", "write_plot_bundle", "pipeline.write_plot_bundle",
     None),
]


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names = []
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._patches = []
        self._counters = Counter()

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(self._clock())
        return index

    def _close(self, index):
        self._end[index] = self._clock()
        self._stack.pop()

    @property
    def span_count(self):
        return len(self._start)

    @contextmanager
    def span(self, name):
        """An explicit span, e.g. one CLI stage; roots name the stage."""
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    def count(self, name, amount):
        """Add to a counter of the stage (root span) now open."""
        stage = self._names[self._name[self._stack[0]]] if self._stack \
            else ""
        self._counters[(stage, name)] += amount

    def wrap(self, owner, attr, name, hook=None):
        """Replace ``owner.attr`` with a recording wrapper."""
        original = getattr(owner, attr)
        name_id = self._intern(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                self.count(*hook(result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, targets=TARGETS):
        """Wrap every target; returns the ``module.attr`` names not found,
        so a program that renamed a function still runs traced."""
        missing = []
        for module_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self.wrap(module, attr, name, hook)
            else:
                missing.append(f"{module_name}.{attr}")
        return missing

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """{stage: {span name: {calls, total_s, self_s}}} plus counters.

        A span's stage is the name of its root span. Parents precede their
        children in the arrays, so one forward pass resolves roots.
        """
        n = len(self._start)
        duration = [self._end[i] - self._start[i] for i in range(n)]
        child_time = [0.0] * n
        root = list(range(n))
        for i in range(n):
            parent = self._parent[i]
            if parent >= 0:
                child_time[parent] += duration[i]
                root[i] = root[parent]
        layers = {}
        for i in range(n):
            stage = self._names[self._name[root[i]]]
            name = self._names[self._name[i]]
            entry = layers.setdefault(stage, {}).setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration[i]
            entry["self_s"] += duration[i] - child_time[i]
        counters = {}
        for (stage, name), amount in sorted(self._counters.items()):
            counters.setdefault(stage, {})[name] = amount
        return {"layers": layers, "counters": counters}
