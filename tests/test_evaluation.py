from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal import evaluation
from wtal.evaluation import (GroundTruthSegment, average_precision,
                             class_overlaps, evaluate, gt_from_videos, iou,
                             map_at, precision_recall_f)
from wtal.formats import ActionProposal


def prop(video="v", start=0.0, end=1.0, category=1, score=0.5):
    return ActionProposal(video, start, end, category, score)


def gt(video="v", start=0.0, end=1.0, category=1):
    return GroundTruthSegment(video, start, end, category)


def map_of(proposals, gts, thresholds, num_classes):
    """map_at with its own IoU pass."""
    return map_at(class_overlaps(proposals, gts), thresholds, num_classes)


def prf_at(proposals, gts, threshold):
    """precision_recall_f at one threshold, with its own IoU pass."""
    return precision_recall_f(class_overlaps(proposals, gts), len(proposals),
                              threshold)


def ap_of(proposals, gts, threshold):
    """average_precision of one class's proposals and its GT (at least
    one segment), with its own IoU pass."""
    return average_precision(evaluation._overlaps(proposals, gts), len(gts),
                             threshold)


def oracle_average_precision(proposals, gts, threshold):
    """Independent all-point AP oracle: build the precision/recall curve
    by re-matching every rank prefix from scratch, then integrate
    sum(delta_recall * precision)."""
    if not gts:
        return None
    ranked = sorted(proposals,
                    key=lambda p: (-p.score, p.start, p.video_id))

    def prefix_tp(k):
        matched = set()
        tp = 0
        for p in ranked[:k]:
            candidates = []
            for gi, g in enumerate(gts):
                if gi in matched or g.video_id != p.video_id:
                    continue
                overlap = iou((p.start, p.end), (g.start, g.end))
                if overlap >= threshold:
                    candidates.append((overlap, -gi))
            if candidates:
                best = max(candidates)
                matched.add(-best[1])
                tp += 1
        return tp

    ap = 0.0
    prev_recall = 0.0
    for k in range(1, len(ranked) + 1):
        tp = prefix_tp(k)
        recall = tp / len(gts)
        precision = tp / k
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def oracle_tp(proposals, gts, threshold):
    """Independent TP count: every proposal in one global score order
    scans the whole GT list for unmatched GT of its video and class."""
    matched = set()
    for p in sorted(proposals,
                    key=lambda p: (-p.score, p.start, p.video_id)):
        candidates = [(iou((p.start, p.end), (g.start, g.end)), -gi)
                      for gi, g in enumerate(gts)
                      if gi not in matched and g.video_id == p.video_id
                      and g.category == p.category]
        best = max((c for c in candidates if c[0] >= threshold),
                   default=None)
        if best is not None:
            matched.add(-best[1])
    return len(matched)


def tied_fixture(seed):
    """Several videos and classes on an integer grid, so that exact IoU
    ties are common; some GT segments are duplicated, some scores tie."""
    rng = np.random.default_rng(3000 + seed)
    videos = ["v1", "v2", "v3", "v4"]
    gts = []
    for _ in range(int(rng.integers(3, 10))):
        start = int(rng.integers(0, 12))
        gts.append(gt(video=str(rng.choice(videos)), start=float(start),
                      end=float(start + rng.integers(1, 6)),
                      category=int(rng.integers(1, 4))))
    gts += [gts[int(i)] for i in rng.integers(len(gts), size=2)]
    props = []
    for _ in range(int(rng.integers(4, 14))):
        anchor = gts[int(rng.integers(len(gts)))]
        start = anchor.start + int(rng.integers(-2, 3))
        end = max(start + 1.0, anchor.end + int(rng.integers(-2, 3)))
        props.append(prop(video=anchor.video_id, start=start, end=end,
                          category=int(rng.integers(1, 4)),
                          score=float(rng.choice([0.2, 0.5, 0.8]))))
    return props, gts


class TestIou:
    def test_identical(self):
        assert iou((2.0, 5.0), (2.0, 5.0)) == 1.0

    def test_hand_geometry(self):
        assert abs(iou((2.0, 6.0), (4.0, 8.0)) - 1.0 / 3.0) < 1e-12

    def test_disjoint(self):
        assert iou((0.0, 1.0), (2.0, 3.0)) == 0.0

    def test_touching_is_zero(self):
        assert iou((0.0, 2.0), (2.0, 4.0)) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = np.sort(rng.uniform(0, 10, size=2))
            b = np.sort(rng.uniform(0, 10, size=2))
            v = iou(tuple(a), tuple(b))
            assert 0.0 <= v <= 1.0
            assert v == iou(tuple(b), tuple(a))


class TestAveragePrecision:
    def test_single_match(self):
        ap = ap_of([prop(score=0.9)], [gt()], 0.5)
        assert ap == 1.0

    def test_tp_above_fp(self):
        props = [prop(start=0.0, end=1.0, score=0.9),
                 prop(start=5.0, end=6.0, score=0.1)]
        assert ap_of(props, [gt(start=0.0, end=1.0)], 0.5) == 1.0

    def test_fp_between_two_tps(self):
        props = [prop(start=0.0, end=1.0, score=0.9),
                 prop(start=20.0, end=21.0, score=0.5),
                 prop(start=10.0, end=11.0, score=0.1)]
        gts = [gt(start=0.0, end=1.0), gt(start=10.0, end=11.0)]
        ap = ap_of(props, gts, 0.5)
        assert abs(ap - (1.0 / 1.0 + 2.0 / 3.0) / 2.0) < 1e-9
        assert abs(ap - 0.8333333333333333) < 1e-9

    def test_rank_only_score_dependence(self):
        rng = np.random.default_rng(18)
        props = [prop(start=float(i), end=float(i) + 1.0,
                      score=float(s))
                 for i, s in enumerate(rng.permutation(6))]
        gts = [gt(start=0.0, end=1.0), gt(start=3.0, end=4.0)]
        base = ap_of(props, gts, 0.5)
        squashed = [prop(p.video_id, p.start, p.end, p.category,
                         np.tanh(p.score)) for p in props]
        assert abs(ap_of(squashed, gts, 0.5) - base) < 1e-12

    def test_lowest_score_fp_never_increases_ap(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            props = [prop(start=float(i * 3), end=float(i * 3) + 2.0,
                          score=float(rng.uniform(0.5, 1.0)))
                     for i in range(4)]
            gts = [gt(start=0.0, end=2.0), gt(start=3.0, end=5.0)]
            base = ap_of(props, gts, 0.5)
            worse = props + [prop(start=50.0, end=51.0, score=0.01)]
            assert ap_of(worse, gts, 0.5) <= base + 1e-12

    def test_matching_is_per_video(self):
        props = [prop(video="a", score=0.9)]
        gts = [gt(video="b")]
        assert ap_of(props, gts, 0.5) == 0.0

    def test_each_gt_matched_once(self):
        props = [prop(start=0.0, end=1.0, score=0.9),
                 prop(start=0.0, end=1.0, score=0.8)]
        ap = ap_of(props, [gt(start=0.0, end=1.0)], 0.5)
        assert ap == 1.0  # the duplicate is an FP after the first match

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(2000 + seed)
        videos = ["v1", "v2", "v3"][:rng.integers(1, 4)]
        gts = []
        for v in videos:
            for _ in range(rng.integers(1, 3)):
                start = float(rng.uniform(0, 20))
                gts.append(gt(video=v, start=start,
                              end=start + float(rng.uniform(1, 5))))
        props = []
        for _ in range(rng.integers(1, 7)):
            anchor = gts[rng.integers(len(gts))]
            jitter = rng.uniform(-2, 2, size=2)
            start = anchor.start + jitter[0]
            end = max(start + 0.5, anchor.end + jitter[1])
            props.append(prop(video=rng.choice(videos), start=float(start),
                              end=float(end),
                              score=float(rng.uniform())))
        for threshold in (0.1, 0.3, 0.5, 0.7):
            got = ap_of(props, gts, threshold)
            want = oracle_average_precision(props, gts, threshold)
            assert abs(got - want) < 1e-9, (seed, threshold)


class TestMapAt:
    def test_perfect_proposals(self):
        gts = [gt(start=0.0, end=2.0, category=1),
               gt(video="w", start=1.0, end=4.0, category=2)]
        props = [prop(start=0.0, end=2.0, category=1, score=0.9),
                 prop(video="w", start=1.0, end=4.0, category=2,
                      score=0.8)]
        _, map_values, notes = map_of(props, gts, [0.5, 0.9], 2)
        assert map_values[0.5] == 1.0
        assert map_values[0.9] == 1.0
        assert notes == []

    def test_empty_proposals_zero(self):
        _, map_values, _ = map_of([], [gt()], [0.5], 1)
        assert map_values[0.5] == 0.0

    def test_class_without_gt_excluded_with_note(self):
        gts = [gt(category=1)]
        props = [prop(category=1, score=0.9),
                 prop(category=2, start=5.0, end=6.0, score=0.8)]
        per_class, map_values, notes = map_of(props, gts, [0.5], 2)
        assert per_class[0.5][2] is None
        assert map_values[0.5] == 1.0
        assert any("class 2" in note for note in notes)

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            map_of([prop()], [], [0.5], 1)

    def test_two_class_fixture_matches_oracle(self):
        gts = [gt(video="v1", start=0.0, end=4.0, category=1),
               gt(video="v1", start=10.0, end=14.0, category=2),
               gt(video="v2", start=2.0, end=6.0, category=1),
               gt(video="v3", start=0.0, end=3.0, category=2)]
        props = [prop(video="v1", start=0.5, end=4.0, category=1,
                      score=0.9),
                 prop(video="v2", start=2.0, end=5.5, category=1,
                      score=0.7),
                 prop(video="v1", start=10.0, end=13.0, category=2,
                      score=0.6),
                 prop(video="v3", start=5.0, end=8.0, category=2,
                      score=0.5),
                 prop(video="v1", start=20.0, end=22.0, category=1,
                      score=0.4)]
        per_class, map_values, _ = map_of(props, gts, [0.3, 0.5], 2)
        for threshold in (0.3, 0.5):
            for c in (1, 2):
                want = oracle_average_precision(
                    [p for p in props if p.category == c],
                    [g for g in gts if g.category == c], threshold)
                assert abs(per_class[threshold][c] - want) < 1e-9
            mean = (per_class[threshold][1] + per_class[threshold][2]) / 2
            assert abs(map_values[threshold] - mean) < 1e-12


    @pytest.mark.parametrize("seed", range(20))
    def test_tied_multi_class_fixture_matches_oracle(self, seed):
        props, gts = tied_fixture(seed)
        thresholds = [0.1, 1 / 3, 0.5, 2 / 3, 0.9]
        per_class, _, _ = map_of(props, gts, thresholds, 3)
        for threshold in thresholds:
            for c in (1, 2, 3):
                want = oracle_average_precision(
                    [p for p in props if p.category == c],
                    [g for g in gts if g.category == c], threshold)
                got = per_class[threshold][c]
                assert (got is None) if want is None \
                    else abs(got - want) < 1e-9, (seed, threshold, c)


class TestPrecisionRecallF:
    def test_half_and_half(self):
        props = [prop(start=0.0, end=1.0, score=0.9),
                 prop(start=50.0, end=51.0, score=0.8)]
        gts = [gt(start=0.0, end=1.0), gt(start=10.0, end=11.0)]
        p, r, f, tp = prf_at(props, gts, 0.5)
        assert (p, r, f, tp) == (0.5, 0.5, 0.5, 1)

    def test_perfect(self):
        props = [prop(score=0.9)]
        p, r, f, tp = prf_at(props, [gt()], 0.5)
        assert (p, r, f, tp) == (1.0, 1.0, 1.0, 1)

    def test_zero_proposals(self):
        assert prf_at([], [gt()], 0.5) == (0.0, 0.0, 0.0, 0)

    def test_matching_is_per_class(self):
        props = [prop(category=2, score=0.9)]
        gts = [gt(category=1)]
        p, r, f, tp = prf_at(props, gts, 0.5)
        assert (p, r, f, tp) == (0.0, 0.0, 0.0, 0)


    def test_iou_tie_goes_to_first_gt_of_the_video(self):
        # the first proposal has IoU 0.5 with both GT of video v; only
        # the first of them is left for the second proposal if the first
        # proposal took the other
        first = gt(video="v", start=0.0, end=4.0)
        second = gt(video="v", start=2.0, end=6.0)
        other = gt(video="w", start=0.0, end=4.0)
        props = [prop(video="v", start=2.0, end=4.0, score=0.9),
                 prop(video="v", start=0.0, end=3.0, score=0.5)]
        assert prf_at(props, [first, other, second], 0.5)[3] == 1
        assert prf_at(props, [second, other, first], 0.5)[3] == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_tied_multi_class_fixture_matches_oracle(self, seed):
        props, gts = tied_fixture(seed)
        for threshold in (0.1, 1 / 3, 0.5, 2 / 3, 0.9):
            tp = oracle_tp(props, gts, threshold)
            assert prf_at(props, gts, threshold)[3] == tp, \
                (seed, threshold)


class TestEvaluateReport:
    def fixture(self):
        gts = [gt(start=0.0, end=2.0, category=1),
               gt(start=5.0, end=7.0, category=2)]
        props = [prop(start=0.0, end=2.0, category=1, score=0.9),
                 prop(start=20.0, end=22.0, category=2, score=0.1)]
        return props, gts

    def test_report_fields(self):
        props, gts = self.fixture()
        report = evaluate(props, gts, [0.3, 0.5], 2)
        assert report.tp == 1
        assert report.fp == 1
        assert report.num_gt == 2
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert abs(report.average_map - 0.5) < 1e-12

    def test_json_and_text_emission(self, tmp_path):
        props, gts = self.fixture()
        report = evaluate(props, gts, [0.5], 2)
        json_path = tmp_path / "report.json"
        text_path = tmp_path / "report.txt"
        evaluation.save_report(json_path, text_path, report)
        payload = json_path.read_text()
        assert '"mAP"' in payload
        text = text_path.read_text()
        assert "average mAP" in text
        assert "precision@0.5" in text

    def test_gt_from_videos_real_line_convention(self):
        class FakeVideo:
            id = "v"
            gt_segments = [(3, 7, 2)]

        (segment,) = gt_from_videos([FakeVideo()])
        assert (segment.start, segment.end) == (2.0, 7.0)
        assert segment.category == 2

    def test_gt_from_videos_rejects_missing_gt(self):
        class FakeVideo:
            id = "v"
            gt_segments = None

        with pytest.raises(ValueError):
            gt_from_videos([FakeVideo()])


def reference_match(proposals, gts, threshold):
    """The greedy matcher as a per-threshold loop that computes every IoU
    itself: each proposal in score order takes the unmatched same-video
    GT with highest IoU >= threshold, the first in gts order on a tie."""
    pools = defaultdict(list)
    for g in gts:
        pools[g.video_id].append(g)
    flags = []
    for p in sorted(proposals, key=lambda p: (-p.score, p.start, p.video_id)):
        pool = pools[p.video_id]
        best = -1
        best_iou = 0.0
        for gi, g in enumerate(pool):
            overlap = iou((p.start, p.end), (g.start, g.end))
            if overlap >= threshold and overlap > best_iou:
                best = gi
                best_iou = overlap
        if best >= 0:
            del pool[best]
        flags.append(best >= 0)
    return flags


def reference_ap(proposals, gts, threshold):
    if not gts:
        return None
    tp = 0
    total = 0.0
    for rank, flag in enumerate(reference_match(proposals, gts, threshold),
                                start=1):
        if flag:
            tp += 1
            total += tp / rank
    return total / len(gts)


# an integer grid, few videos and classes and three scores, so that
# tied scores, tied IoUs and duplicate segments are common
SEGMENTS = st.tuples(st.sampled_from(["v1", "v2", "v3"]),
                     st.integers(0, 6), st.integers(1, 4),
                     st.sampled_from([1, 1, 2, 3]))
THRESHOLD_LISTS = st.lists(st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.6,
                                            2 / 3, 0.75, 0.9, 1.0]),
                           min_size=1, max_size=5, unique=True)


class TestSharedOverlaps:
    @settings(max_examples=200, deadline=None)
    @given(gt_specs=st.lists(SEGMENTS, min_size=1, max_size=10),
           prop_specs=st.lists(st.tuples(SEGMENTS,
                                         st.sampled_from([0.2, 0.5, 0.8])),
                               max_size=14),
           thresholds=THRESHOLD_LISTS)
    def test_equal_to_per_threshold_reference(self, gt_specs, prop_specs,
                                              thresholds):
        gts = [gt(video=v, start=float(s), end=float(s + n), category=c)
               for v, s, n, c in gt_specs]
        props = [prop(video=v, start=float(s), end=float(s + n),
                      category=c, score=score)
                 for (v, s, n, c), score in prop_specs]
        per_class, map_values, _ = map_of(props, gts, thresholds, 3)
        for threshold in thresholds:
            want = {c: reference_ap([p for p in props if p.category == c],
                                    [g for g in gts if g.category == c],
                                    threshold) for c in (1, 2, 3)}
            assert per_class[threshold] == want
            valid = [ap for ap in want.values() if ap is not None]
            assert map_values[threshold] == sum(valid) / len(valid)
            tp = sum(sum(reference_match(
                [p for p in props if p.category == c],
                [g for g in gts if g.category == c], threshold))
                for c in {g.category for g in gts})
            assert prf_at(props, gts, threshold)[3] == tp
        report = evaluate(props, gts, thresholds, 3)
        assert report.map_at_threshold == map_values
        assert report.tp == prf_at(props, gts, 0.5)[3]

    def test_each_iou_computed_once(self, monkeypatch):
        props, gts = tied_fixture(0)
        pairs = sum(p.video_id == g.video_id and p.category == g.category
                    for p in props for g in gts)
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return iou(a, b)

        monkeypatch.setattr(evaluation, "iou", counted)
        evaluate(props, gts, [0.1, 0.5, 0.9], 3)
        assert len(calls) == pairs
