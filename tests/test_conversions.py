"""Outside the readers, basemodel.forward is the one place an array is
converted: every numeric helper downstream of it takes the float64
arrays it is handed."""

import ast
import inspect
import json
import pathlib
import sys

import numpy as np

# every module is imported before the probe wraps a helper: one first
# imported under the probe would bind the wrapper and count calls twice
from wtal import (basemodel, cli, consensus, evaluation,  # noqa: F401
                  localization, losses, numkit, parallel, pipeline,
                  synthdata)

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wtal"


def asarray_sites(path):
    """(module:function, line) of each asarray attribute (np.asarray,
    numpy.asarray) in a module, and of any asarray imported from numpy;
    the function is the innermost one that holds it, None at module
    level."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "asarray":
                yield f"{path.stem}:{function}", child.lineno
            if (isinstance(child, ast.ImportFrom)
                    and child.module == "numpy"
                    and "asarray" in {a.name for a in child.names}):
                yield f"{path.stem}:{function}", child.lineno
            inner = (child.name if isinstance(child, ast.FunctionDef)
                     else function)
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), None)


def test_only_forward_converts_with_asarray():
    sites = [site for path in sorted(SOURCE.glob("*.py"))
             for site in asarray_sites(path)]
    assert [name for name, _ in sites] == ["basemodel:forward"], sites


# each helper that takes the arrays it is handed, and the names of its
# array parameters (_svg_polyline's x_fields are formatted bytes)
HELPERS = {
    losses.classification_loss: ("y", "y_hat"),
    losses.classification_loss_grad: ("y", "y_hat"),
    losses.attention_norm_loss: ("attention",),
    losses.pseudo_gt_loss: ("attention", "gt"),
    consensus.save_pseudo_gt: ("values",),
    consensus.max_pool_smooth: ("attention",),
    consensus.make_pseudo_gt: ("fused",),
    localization.upsample_linear: ("sequence",),
    localization.select_categories: ("probs",),
    localization.extract_segments: ("attention",),
    localization.oic_score: ("weights",),
    numkit.fuse_attention: ("rgb", "flow"),
    pipeline._shortest_digits: ("values",),
    pipeline._format_repr: ("values",),
    pipeline._format_2f: ("values",),
    pipeline._svg_polyline: ("values",),
}


def probe_helpers(monkeypatch):
    """Wrap each helper of HELPERS at every wtal module that binds it.
    Returns ({helper name: calls}, {each array argument that is not a
    float64 ndarray, as text})."""
    by_id = {id(helper): helper for helper in HELPERS}
    calls = {helper.__name__: 0 for helper in HELPERS}
    wrong = set()

    def wrap(helper):
        signature = inspect.signature(helper)

        def probed(*args, **kwargs):
            calls[helper.__name__] += 1
            given = signature.bind(*args, **kwargs).arguments
            for name in HELPERS[helper]:
                value = given[name]
                if not (type(value) is np.ndarray
                        and value.dtype == np.float64):
                    wrong.add(f"{helper.__name__}({name}: "
                              f"{type(value).__name__} "
                              f"{getattr(value, 'dtype', '')})")
            return helper(*args, **kwargs)
        return probed

    for module in [m for name, m in sys.modules.items()
                   if name == "wtal" or name.startswith("wtal.")]:
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                monkeypatch.setattr(module, attr, wrap(by_id[id(value)]))
    return calls, wrong


def test_helpers_get_float64_arrays(tmp_path, monkeypatch, set_cpus):
    """A tiny train (hard and soft pseudo GT, smoothed, dumped), localize
    in every mode and plot with pseudo GT, in this one process: every
    helper is called, each time with float64 ndarrays only."""
    set_cpus(1)
    calls, wrong = probe_helpers(monkeypatch)
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--videos", "4", "--test-videos", "2",
                     "--classes", "3", "--dim", "8", "--seed", "3",
                     "--out", str(data)]) == 0
    for kind in ("hard", "soft"):
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps({"refinement": {
            "kind": kind, "iterations": 1, "epochs_initial": 2,
            "epochs_refine": 1, "smoothing_kernel": 3}}))
        run = tmp_path / kind
        assert cli.main(["train", "--config", str(config),
                         "--dataset", str(data), "--out", str(run),
                         "--seed", "3", "--dump-pseudo-gt"]) == 0
    checkpoints = ["--checkpoint-rgb", str(run / "iter1_rgb.ckpt"),
                   "--checkpoint-flow", str(run / "iter1_flow.ckpt"),
                   "--dataset", str(data)]
    for mode in localization.MODES:
        assert cli.main(["localize", *checkpoints, "--mode", mode,
                         "--out", str(tmp_path / f"{mode}.json")]) == 0
    assert cli.main(["plot", *checkpoints, "--split", "train",
                     "--pseudo-gt-dir", str(run / "pseudo_gt" / "iter1"),
                     "--out", str(tmp_path / "plot")]) == 0
    assert [name for name, n in calls.items() if not n] == []
    assert wrong == set()
