"""Acceptance suite: every stated criterion runs here and emits one
PASS/FAIL line on the real stdout (visible even under pytest capture).

The heavy end-to-end trend (5 seeds, hard and soft pseudo ground truth)
runs once in a module-scoped fixture and feeds several criteria.
"""

import json
import time

import numpy as np
import pytest

from gradcheck import grad_check
from test_evaluation import ap_of, gt, oracle_average_precision, prop
from wtal import (basemodel, cli, consensus, localization, losses, numkit,
                  pipeline, synthdata)
from wtal.basemodel import StreamModel
from wtal.config import LossConfig, ModelConfig, resolved_config
from wtal.consensus import STREAMS
from wtal.localization import MODES

from test_basemodel import full_loss_and_grads


@pytest.fixture
def report(capsys):
    """Emit one PASS/FAIL line per criterion on the live stdout,
    bypassing pytest's capture, then enforce the verdict."""

    def _report(name, passed, detail=""):
        line = f"{'PASS' if passed else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert passed, line

    return _report


def experiment(seed, **sections):
    """pipeline.run_experiment on the default generator's dataset of the
    seed, with the config sections set as in a --config file."""
    dataset = synthdata.generate(synthdata.GeneratorConfig(seed=seed))
    sections = resolved_config(sections, dataset, None)
    return dataset, sections, *pipeline.run_experiment(dataset, sections,
                                                       seed)


@pytest.fixture(scope="module")
def trend_runs():
    """Full refinement training on the default generator, 5 seeds, hard
    and soft pseudo-GT variants; per run, the per-iteration test reports
    of every mode."""
    data = {"hard": [], "soft": [], "sample": None}
    for seed in range(1, 6):
        for kind in ("hard", "soft"):
            dataset, sections, result, reports = experiment(
                seed, refinement={"kind": kind})
            data[kind].append(reports)
            if kind == "hard" and seed == 1:
                data["sample"] = (result, dataset, sections["refinement"])
    return data


def mode_means(runs):
    """{mode: 5-seed mean mAP@0.5 per iteration}."""
    return {mode: np.mean([[iteration[mode].map_at_threshold[0.5]
                            for iteration in reports] for reports in runs],
                          axis=0)
            for mode in MODES}


class TestGradientSuite:
    def test_gradient_suite(self, report):
        start = time.time()
        worst = 0.0
        model_cfg = ModelConfig(feature_dim=4, num_classes=3, embed_dim=5)
        for seed in range(20):
            rng = np.random.default_rng(seed)

            # individual layers
            inp = rng.normal(size=(6, 3))
            target = rng.normal(size=(6, 4))
            conv_params = {"w": rng.normal(size=(3, 3, 4)),
                           "b": rng.normal(size=4)}

            def conv_fn(p):
                out = numkit.temporal_conv_forward(inp, p["w"], p["b"])
                diff = out - target
                _, d_w, d_b = numkit.temporal_conv_backward(
                    inp, p["w"], 2.0 * diff, need_input=True)
                return float((diff * diff).sum()), {"w": d_w, "b": d_b}

            rep = grad_check(conv_fn, conv_params)
            assert rep.passed
            worst = max(worst, rep.max_rel_error)

            # each loss on its own
            label = np.array([0.5, 0.5, 0.0])
            y_hat = {"y": rng.uniform(0.1, 0.9, size=3)}

            def cls_fn(p):
                return (losses.classification_loss(label, p["y"]),
                        {"y": losses.classification_loss_grad(label,
                                                              p["y"])})

            rep = grad_check(cls_fn, y_hat)
            assert rep.passed
            worst = max(worst, rep.max_rel_error)

            att = {"a": np.linspace(0.1, 0.9, 9) + rng.uniform(
                -0.01, 0.01, size=9)}

            def att_fn(p):
                val, grad = losses.attention_norm_loss(p["a"], 4)
                return val, {"a": grad}

            rep = grad_check(att_fn, att)
            assert rep.passed
            worst = max(worst, rep.max_rel_error)

            gt_target = rng.integers(0, 2, size=9).astype(float)

            def gt_fn(p):
                val, grad = losses.pseudo_gt_loss(p["a"], gt_target)
                return val, {"a": grad}

            rep = grad_check(gt_fn, {"a": rng.uniform(size=9)})
            assert rep.passed
            worst = max(worst, rep.max_rel_error)

            # composite objectives through the whole model: T=6, D=4,
            # D'=5, C=3; base objective on even seeds, full objective
            # with a pseudo-GT term on odd seeds
            model = StreamModel.initialize(model_cfg, "rgb",
                                           np.random.default_rng(seed))
            features = rng.normal(size=(6, 4))
            pseudo = (rng.integers(0, 2, size=6).astype(float)
                      if seed % 2 else None)

            # grad_check moves model.params in place, views into
            # model.flat
            def full_fn(params):
                return full_loss_and_grads(model, features, label,
                                           gt=pseudo)

            rep = grad_check(full_fn, model.params)
            assert rep.passed
            worst = max(worst, rep.max_rel_error)
        elapsed = time.time() - start
        report("gradient suite: 20 seeded instances of every layer, "
               "every loss, and the full-model composites at tol 1e-4",
               worst < 1e-4 and elapsed < 60.0,
               f"max rel error {worst:.2e}, {elapsed:.1f}s")


class TestLossOracles:
    def test_loss_value_oracles(self, report):
        checks = [
            abs(losses.classification_loss(np.array([1.0, 0.0]),
                                           np.array([0.25, 0.75]))
                - 1.3862943611198906),
            abs(losses.classification_loss(np.array([0.5, 0.5]),
                                           np.array([0.5, 0.5]))
                - np.log(2.0)),
            abs(losses.attention_norm_loss(
                np.array([0.9, 0.8, 0.1, 0.2]), 8)[0] - (-0.8)),
            abs(losses.attention_norm_loss(
                np.array([1.0, 1.0, 0.0, 0.0]), 2)[0] - (-1.0)),
            abs(losses.pseudo_gt_loss(np.array([0.2, 0.9, 0.4]),
                                      np.array([0.0, 1.0, 1.0]))[0]
                - 0.41 / 3.0),
            abs(losses.total_loss(1.0, -0.5, LossConfig(alpha=0.1),
                                  gt_value=None) - 0.95),
            abs(losses.total_loss(1.0, -1.0, LossConfig(alpha=0.1,
                                                        gamma=2.0),
                                  gt_value=0.25) - 1.4),
        ]
        worst = max(checks)
        report("loss-value oracles: all hand-derived values within 1e-9",
               worst <= 1e-9, f"max abs error {worst:.2e}")


class TestAttentionNormContract:
    def test_range_and_zero_condition(self, report):
        rng = np.random.default_rng(23)
        ok = True
        for _ in range(300):
            a = rng.uniform(size=rng.integers(1, 40))
            val, _ = losses.attention_norm_loss(a, 8)
            ok &= -1.0 < val <= 0.0
        val_const, _ = losses.attention_norm_loss(np.full(16, 0.37), 8)
        ok &= val_const == 0.0
        val_mixed, _ = losses.attention_norm_loss(
            np.array([0.37, 0.38] * 8), 8)
        ok &= val_mixed < 0.0
        report("attention normalization range: value in (-1, 0], zero "
               "exactly for constant attention", ok)

    def test_variance_increase_with_normalization_loss(self, report):
        variances = {0.0: [], 0.1: []}
        for seed in range(1, 6):
            for alpha in (0.0, 0.1):
                dataset, _, result, _ = experiment(
                    seed, loss={"alpha": alpha},
                    refinement={"iterations": 0, "epochs_initial": 30})
                per_video = [
                    basemodel.forward(result.models["rgb"],
                                      v.rgb).attention.var()
                    for v in dataset.train]
                variances[alpha].append(float(np.mean(per_video)))
        without = float(np.mean(variances[0.0]))
        with_norm = float(np.mean(variances[0.1]))
        report("attention normalization effect: training with the "
               "normalization term strictly increases attention variance "
               "versus training without it (5-seed mean, equal epochs)",
               with_norm > without,
               f"var {without:.4f} -> {with_norm:.4f}")


class TestPseudoGtContracts:
    def test_pseudo_gt_contracts(self, trend_runs, report):
        result, dataset, refine_cfg = trend_runs["sample"]
        ok = True
        # hard pseudo GT is binary with strict > at theta
        for pseudo in result.pseudo_gt[1:]:
            for gt_obj in pseudo.values():
                ok &= set(np.unique(gt_obj)) <= {0.0, 1.0}
        boundary = consensus.make_pseudo_gt(np.array([0.6, 0.5, 0.4]),
                                            "hard", 0.5)
        ok &= list(boundary) == [1.0, 0.0, 0.0]
        # soft pseudo GT equals the fused attention exactly
        fused = np.array([0.12, 0.5, 0.93])
        ok &= np.array_equal(
            consensus.make_pseudo_gt(fused, "soft", 0.5), fused)
        # recomputation from the frozen previous-iteration checkpoints
        # is bit-identical
        for iteration, pseudo in enumerate(result.pseudo_gt[1:]):
            recomputed = consensus.compute_pseudo_gt(
                result.checkpoints[iteration], dataset.train, refine_cfg)
            for vid, gt_obj in pseudo.items():
                ok &= np.array_equal(gt_obj, recomputed[vid])
        report("pseudo-GT contracts: hard binary with strict threshold, "
               "soft equals fused attention, recomputation from frozen "
               "checkpoints bit-identical", ok)


class TestEvaluatorOracle:
    def test_evaluator_matches_brute_force(self, report):
        worst = 0.0
        fixture = ap_of(
            [prop(start=0.0, end=1.0, score=0.9),
             prop(start=20.0, end=21.0, score=0.5),
             prop(start=10.0, end=11.0, score=0.1)],
            [gt(start=0.0, end=1.0), gt(start=10.0, end=11.0)], 0.5)
        worst = max(worst, abs(fixture - 0.8333333333333333))
        rng = np.random.default_rng(99)
        for trial in range(60):
            videos = ["v1", "v2", "v3"][:int(rng.integers(1, 4))]
            gts = []
            for v in videos:
                for _ in range(int(rng.integers(1, 3))):
                    s = float(rng.uniform(0, 20))
                    gts.append(gt(video=v, start=s,
                                  end=s + float(rng.uniform(1, 5))))
            props = []
            for _ in range(int(rng.integers(1, 7))):
                anchor = gts[int(rng.integers(len(gts)))]
                start = anchor.start + float(rng.uniform(-2, 2))
                end = max(start + 0.5,
                          anchor.end + float(rng.uniform(-2, 2)))
                props.append(prop(video=str(rng.choice(videos)),
                                  start=start, end=end,
                                  category=int(rng.integers(1, 3)),
                                  score=float(rng.uniform())))
            for threshold in (0.1, 0.3, 0.5, 0.7):
                for c in (1, 2):
                    sub_p = [p for p in props if p.category == c]
                    sub_g = [g for g in gts]
                    got = ap_of(sub_p, sub_g, threshold)
                    want = oracle_average_precision(sub_p, sub_g,
                                                    threshold)
                    worst = max(worst, abs(got - want))
        report("evaluator oracle: AP equals the brute-force "
               "precision/recall-curve oracle on all small fixtures "
               "within 1e-9", worst <= 1e-9,
               f"max abs error {worst:.2e}")


class TestOicContracts:
    def test_oic_contracts(self, report):
        ok = True
        # constant weights: inner and outer means agree, score 0
        ok &= abs(localization.oic_score(3, 6, np.full(16, 0.4))) < 1e-12
        # boxed example: unit weights exactly on the proposal
        w = np.zeros(16)
        w[4:8] = 1.0
        ok &= localization.oic_score(5, 8, w) == 1.0
        # homogeneity of degree 1 under positive scaling
        rng = np.random.default_rng(31)
        for _ in range(50):
            weights = rng.uniform(size=24)
            lam = float(rng.uniform(0.1, 10.0))
            base = localization.oic_score(6, 14, weights)
            scaled = localization.oic_score(6, 14, lam * weights)
            ok &= abs(scaled - lam * base) < 1e-9
        report("outer-inner contrastive score: zero on constant weights, "
               "one on the unit box, homogeneous under positive scaling",
               ok)


class TestEndToEndTrend:
    def test_refinement_improves_fused_map(self, trend_runs, report):
        fused = mode_means(trend_runs["hard"])["fused"]
        gain = fused[-1] - fused[0]
        report("end-to-end trend (a): fused mAP@0.5 gains at least 2 "
               "points from iteration 0 to the final iteration "
               "(hard pseudo GT, 5-seed mean)", gain >= 0.02,
               f"{fused[0]:.3f} -> {fused[-1]:.3f}, gain {gain:+.3f}")

    def test_fusion_beats_single_streams_every_iteration(self, trend_runs, report):
        means = mode_means(trend_runs["hard"])
        best_single = np.max([means[s] for s in STREAMS], axis=0)
        margins = means["fused"] - best_single
        report("end-to-end trend (b): fused mAP@0.5 is at least each "
               "single stream's at every iteration (5-seed mean)",
               bool(np.all(margins >= 0.0)),
               "margins " + " ".join(f"{m:+.3f}" for m in margins))

    def test_hard_close_to_soft(self, trend_runs, report):
        hard_final = mode_means(trend_runs["hard"])["fused"][-1]
        soft_final = mode_means(trend_runs["soft"])["fused"][-1]
        report("end-to-end trend (c): final hard-variant mAP is within "
               "1 point of the soft variant or better (5-seed mean)",
               hard_final >= soft_final - 0.01,
               f"hard {hard_final:.3f} vs soft {soft_final:.3f}")


class TestAttentionNormalizationGate:
    def test_alpha_zero_loses_to_default(self, trend_runs, report):
        """Without the attention normalization term (alpha 0), refinement
        collapses onto all-foreground pseudo GT; the final fused mAP@0.5
        must fall below that of the default alpha on each of seeds 1-3.
        The default runs are the hard-variant runs of trend_runs."""
        ok = True
        details = []
        for seed in (1, 2, 3):
            *_, reports = experiment(seed, loss={"alpha": 0.0})
            off, on = (runs[-1]["fused"].map_at_threshold[0.5]
                       for runs in (reports, trend_runs["hard"][seed - 1]))
            ok &= off < on
            details.append(f"seed {seed}: {off:.3f} vs {on:.3f}")
        report("attention normalization gate: final fused mAP@0.5 with "
               "alpha 0 is below alpha 0.1's on each of seeds 1-3",
               ok, "; ".join(details))


class TestPrecisionTrend:
    def test_rgb_f_measure_improves(self, trend_runs, report):
        first, final = (float(np.mean([reports[i]["rgb"].f_measure
                                       for reports in trend_runs["hard"]]))
                        for i in (0, -1))
        report("precision trend: pseudo-GT refinement improves the RGB "
               "stream's F-measure at IoU 0.5 (5-seed mean)",
               final > first, f"{first:.3f} -> {final:.3f}")


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, report):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--videos", "8", "--test-videos", "4",
                         "--classes", "3", "--dim", "8", "--seed", "11",
                         "--out", str(data_dir)]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "refinement": {"iterations": 1, "epochs_initial": 4,
                           "epochs_refine": 2}}))
        artifacts = []
        for name in ("run_a", "run_b"):
            run_dir = tmp_path / name
            assert cli.main(["train", "--config", str(config),
                             "--dataset", str(data_dir),
                             "--out", str(run_dir), "--seed", "11"]) == 0
            proposals = run_dir / "proposals.json"
            assert cli.main(["localize",
                             "--checkpoint-rgb",
                             str(run_dir / "iter1_rgb.ckpt"),
                             "--checkpoint-flow",
                             str(run_dir / "iter1_flow.ckpt"),
                             "--dataset", str(data_dir),
                             "--out", str(proposals)]) == 0
            artifacts.append(
                ((run_dir / "training_log.csv").read_bytes(),
                 proposals.read_bytes()))
        same_log = artifacts[0][0] == artifacts[1][0]
        same_props = artifacts[0][1] == artifacts[1][1]
        report("determinism: identical config and seed reproduce the "
               "training log CSV and proposals JSON byte-identically",
               same_log and same_props)
