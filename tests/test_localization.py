import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtal import localization
from wtal.basemodel import ForwardPass
from wtal.config import LocalizationConfig, RefinementConfig
from wtal.formats import (ActionProposal, proposals_from_json,
                          proposals_to_json)
from wtal.localization import (extract_segments, localize, oic_score,
                               select_categories, upsample_linear)
from wtal.numkit import fuse_attention


def two_branch_upsample(sequence, factor):
    """The upsample_linear that branched on the input's rank, kept as its
    oracle."""
    t = sequence.shape[0]
    j = np.arange(t * factor)
    p = np.clip((j + 0.5) / factor - 0.5, 0.0, t - 1.0)
    i0 = np.floor(p).astype(int)
    i1 = np.minimum(i0 + 1, t - 1)
    frac = p - i0
    if sequence.ndim == 1:
        return (1.0 - frac) * sequence[i0] + frac * sequence[i1]
    return ((1.0 - frac)[:, None] * sequence[i0]
            + frac[:, None] * sequence[i1])


class TestUpsampleLinear:
    def test_factor_one_identity(self):
        a = np.array([0.1, 0.7, 0.3])
        np.testing.assert_array_equal(upsample_linear(a, 1), a)

    def test_constant_sequence(self):
        out = upsample_linear(np.full(4, 0.6), 8)
        np.testing.assert_allclose(out, np.full(32, 0.6))

    def test_hand_coordinate_map(self):
        out = upsample_linear(np.array([0.0, 1.0]), 8)
        assert abs(out[11] - 0.9375) < 1e-12
        assert out[0] == 0.0
        # last index clamps to the final source value
        assert abs(out[15] - 1.0) < 1e-12

    def test_output_length(self):
        for t, f in ((1, 8), (5, 3), (10, 1)):
            assert upsample_linear(np.zeros(t), f).shape == (t * f,)

    def test_preserves_min_max(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = rng.uniform(size=rng.integers(1, 12))
            out = upsample_linear(a, 8)
            assert out.min() >= a.min() - 1e-12
            assert out.max() <= a.max() + 1e-12

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matrix_per_column(self, t, factor, k, seed):
        m = np.random.default_rng(seed).normal(scale=4.0, size=(t, k))
        out = upsample_linear(m, factor)
        assert out.shape == (t * factor, k)
        assert out.tobytes() == two_branch_upsample(m, factor).tobytes()
        for c in range(k):
            column = upsample_linear(m[:, c], factor)
            assert column.tobytes() == out[:, c].tobytes()
            assert column.tobytes() == \
                two_branch_upsample(m[:, c], factor).tobytes()


class TestSelectCategories:
    def test_top_two_above_floor(self):
        assert select_categories(np.array([0.7, 0.2, 0.1]), 2, 0.1) == [1, 2]

    def test_floor_rejects_weak_second(self):
        assert select_categories(np.array([0.95, 0.03, 0.02]), 2,
                                 0.1) == [1]

    def test_uniform_tie_breaks_by_index(self):
        third = 1.0 / 3.0
        assert select_categories(np.full(3, third), 2, 0.1) == [1, 2]

    def test_floor_is_not_strict(self):
        assert select_categories(np.array([0.9, 0.1]), 2, 0.1) == [1, 2]

    def test_may_be_empty(self):
        assert select_categories(np.array([0.05, 0.05, 0.9]), 2,
                                 0.95) == []


def reference_segments(attention, threshold):
    """The per-step loop extract_segments replaced."""
    mask = np.asarray(attention, dtype=np.float64) > threshold
    segments = []
    start = None
    for i, on in enumerate(mask):
        if on and start is None:
            start = i
        elif not on and start is not None:
            segments.append((start + 1, i))
            start = None
    if start is not None:
        segments.append((start + 1, len(mask)))
    return segments


class TestExtractSegments:
    # values drawn from a few levels, so runs, values equal to the
    # threshold and all-on/all-off masks come up often
    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
                    | st.floats(0.0, 1.0), min_size=0, max_size=40),
           st.sampled_from([0.25, 0.5, 0.75]))
    def test_matches_reference_loop(self, values, threshold):
        segs = extract_segments(np.array(values), threshold)
        assert segs == reference_segments(values, threshold)
        for pair in segs:
            assert type(pair) is tuple
            assert all(type(i) is int for i in pair)

    @pytest.mark.parametrize("values", [
        np.array(values) for values in ([0.6], [0.5], [0.4], [0.9] * 7,
                                        [0.1] * 7, [])])
    def test_edge_masks_match_reference_loop(self, values):
        assert extract_segments(values, 0.5) == \
            reference_segments(values, 0.5)

    def test_two_runs(self):
        segs = extract_segments(np.array([0.2, 0.7, 0.8, 0.3, 0.9]), 0.5)
        assert segs == [(2, 3), (5, 5)]

    def test_all_below(self):
        assert extract_segments(np.array([0.1, 0.2, 0.3]), 0.5) == []

    def test_all_above(self):
        assert extract_segments(np.array([0.9, 0.8, 0.7]), 0.5) == [(1, 3)]

    def test_threshold_is_strict(self):
        assert extract_segments(np.array([0.5, 0.6, 0.5]), 0.5) == [(2, 2)]

    def test_runs_disjoint_sorted_maximal(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a = rng.uniform(size=30)
            segs = extract_segments(a, 0.5)
            for s, e in segs:
                assert 1 <= s <= e <= 30
                assert np.all(a[s - 1:e] > 0.5)
                if s > 1:
                    assert a[s - 2] <= 0.5
                if e < 30:
                    assert a[e] <= 0.5
            for (_, e1), (s2, _) in zip(segs, segs[1:]):
                assert e1 + 1 < s2  # maximal runs never touch

    def test_self_concatenation_shifts_runs(self):
        a = np.array([0.2, 0.7, 0.8, 0.3, 0.1])
        base = extract_segments(a, 0.5)
        doubled = extract_segments(np.concatenate([a, a]), 0.5)
        expected = base + [(s + 5, e + 5) for s, e in base]
        assert doubled == expected


class TestOicScore:
    def test_constant_weights_zero(self):
        assert abs(oic_score(3, 6, np.full(16, 0.4))) < 1e-12

    def test_boxed_example(self):
        w = np.zeros(16)
        w[4:8] = 1.0  # snippets 5..8 (1-based)
        assert oic_score(5, 8, w) == 1.0

    def test_inverted_box_is_minus_one(self):
        w = np.ones(16)
        w[4:8] = 0.0
        assert oic_score(5, 8, w) == -1.0

    def test_homogeneity(self):
        rng = np.random.default_rng(15)
        w = rng.uniform(size=20)
        base = oic_score(4, 11, w)
        np.testing.assert_allclose(oic_score(4, 11, 3.5 * w), 3.5 * base)

    def test_outer_clamped_to_sequence(self):
        # proposal covering everything leaves no margin: score is the
        # inner mean
        w = np.array([0.2, 0.4, 0.6])
        assert abs(oic_score(1, 3, w) - 0.4) < 1e-12

    def test_single_snippet_proposal(self):
        w = np.zeros(10)
        w[4] = 1.0
        # L=0: outer region equals inner region, so the outer term is 0
        assert oic_score(5, 5, w) == 1.0


def make_outputs(attention, tcam, prediction):
    attention = np.asarray(attention, dtype=np.float64)
    tcam = np.asarray(tcam, dtype=np.float64)
    return ForwardPass(attention=attention, tcam=tcam,
                       video_prediction=np.asarray(prediction),
                       embedded=np.zeros((attention.shape[0], 1)),
                       foreground_feature=np.zeros(1))


class TestLocalize:
    def setup_method(self):
        self.config = LocalizationConfig()
        self.beta = RefinementConfig().beta

    def outputs_with_box(self, hot_class=0):
        t = 12
        attention = np.full(t, 0.05)
        attention[4:8] = 0.95
        tcam = np.full((t, 3), 1.0 / 3.0)
        tcam[4:8] = [0.05, 0.05, 0.9] if hot_class == 2 else \
            [0.9, 0.05, 0.05]
        prediction = np.zeros(3)
        prediction[hot_class] = 0.9
        prediction[(hot_class + 1) % 3] = 0.1
        return make_outputs(attention, tcam, prediction)

    def test_low_attention_gives_no_proposals(self):
        out = make_outputs(np.full(10, 0.2), np.full((10, 3), 1.0 / 3.0),
                           [0.5, 0.3, 0.2])
        assert localize("v", out, out, self.config, self.beta, "fused") == []

    def test_single_box_yields_overlapping_proposal(self):
        out = self.outputs_with_box()
        proposals = localize("v", out, out, self.config, self.beta, "fused")
        assert proposals
        best = max(proposals, key=lambda p: p.score)
        assert best.category == 1
        # planted box spans snippets 5..8, i.e. [4, 8] on the real line
        assert best.start < 5.0 and best.end > 7.0

    def test_categories_share_segments_scores_differ(self):
        t = 12
        attention = np.full(t, 0.05)
        attention[4:8] = 0.95
        tcam = np.full((t, 3), 1.0 / 3.0)
        tcam[4:8] = [0.6, 0.3, 0.1]
        out = make_outputs(attention, tcam, [0.5, 0.5, 0.0])
        proposals = localize("v", out, out, self.config, self.beta, "fused")
        by_cat = {}
        for p in proposals:
            by_cat.setdefault(p.category, []).append(p)
        assert set(by_cat) == {1, 2}
        for p1, p2 in zip(by_cat[1], by_cat[2]):
            assert (p1.start, p1.end) == (p2.start, p2.end)
            assert p1.score != p2.score

    def test_only_selected_categories_positive_scores(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            t = 10
            attention = rng.uniform(size=t)
            logits = rng.normal(size=(t, 4))
            tcam = np.exp(logits)
            tcam /= tcam.sum(axis=1, keepdims=True)
            pred = np.exp(rng.normal(size=4))
            pred /= pred.sum()
            out = make_outputs(attention, tcam, pred)
            allowed = set(select_categories(pred, self.config.top_k,
                                            self.config.class_score_floor))
            for p in localize("v", out, out, self.config, self.beta, "fused"):
                assert p.category in allowed
                assert p.score > 0.0

    def test_mode_selects_stream(self):
        rgb = self.outputs_with_box(hot_class=0)
        flow = make_outputs(np.full(12, 0.05),
                            np.full((12, 3), 1.0 / 3.0),
                            [1.0 / 3.0] * 3)
        assert localize("v", rgb, flow, self.config, self.beta, mode="rgb")
        assert localize("v", rgb, flow, self.config, self.beta,
                        mode="flow") == []

    def test_boundaries_in_snippet_units(self):
        out = self.outputs_with_box()
        proposals = localize("v", out, out, self.config, self.beta, "fused")
        for p in proposals:
            assert 0.0 <= p.start < p.end <= 12.0


def reference_localize(video_id, rgb_out, flow_out, config, beta):
    """localize in fused mode with the whole T-CAM upsampled."""
    attention, tcam, prediction = (
        fuse_attention(getattr(rgb_out, name), getattr(flow_out, name), beta)
        for name in ("attention", "tcam", "video_prediction"))
    factor = config.upsample_factor
    att_up = upsample_linear(attention, factor)
    tcam_up = upsample_linear(tcam, factor)
    segments = extract_segments(att_up, config.attention_threshold)
    proposals = []
    for category in select_categories(prediction, config.top_k,
                                      config.class_score_floor):
        weights = att_up * tcam_up[:, category - 1]
        for seg_start, seg_end in segments:
            score = oic_score(seg_start, seg_end, weights)
            if score > 0.0:
                proposals.append(ActionProposal(
                    video_id, (seg_start - 1) / factor, seg_end / factor,
                    category, score))
    return proposals


class TestLocalizeScoredColumns:
    """localize upsamples only the T-CAM columns of the categories it
    scores; each proposal keeps its bits."""

    # top_k runs past C (at most 6); a floor of 1.0 lets no category of a
    # random prediction through
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 30),
           c=st.integers(2, 6), top_k=st.integers(1, 8),
           floor=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
           factor=st.sampled_from([1, 3, 8]))
    def test_matches_full_tcam_reference(self, seed, t, c, top_k, floor,
                                         factor):
        rng = np.random.default_rng(seed)
        rgb, flow = (make_outputs(rng.uniform(size=t),
                                  rng.dirichlet(np.ones(c), size=t),
                                  rng.dirichlet(np.ones(c)))
                     for _ in range(2))
        config = LocalizationConfig(upsample_factor=factor, top_k=top_k,
                                    class_score_floor=floor)
        beta = RefinementConfig().beta
        assert localize("v", rgb, flow, config, beta, "fused") == \
            reference_localize("v", rgb, flow, config, beta)

    def test_no_category_above_floor(self):
        out = make_outputs(np.full(6, 0.9), np.full((6, 3), 1.0 / 3.0),
                           [0.4, 0.3, 0.3])
        config = LocalizationConfig(class_score_floor=0.5)
        assert localize("v", out, out, config, 0.5, "fused") == []


class TestProposalJson:
    def test_round_trip(self, tmp_path):
        proposals = [
            ActionProposal("vid_b", 1.0, 3.5, 2, 0.7),
            ActionProposal("vid_a", 0.0, 2.0, 1, 0.9),
            ActionProposal("vid_a", 4.0, 6.0, 1, 0.2),
        ]
        names = ["walk", "run"]
        path = tmp_path / "proposals.json"
        localization.save_proposals(path, proposals, names)
        loaded = localization.load_proposals(path, names)
        assert sorted((p.video_id, p.start, p.end, p.category, p.score)
                      for p in loaded) == \
            sorted((p.video_id, p.start, p.end, p.category, p.score)
                   for p in proposals)

    def test_export_shape(self):
        payload = proposals_to_json(
            [ActionProposal("v1", 0.5, 2.0, 1, 0.8)], ["walk"])
        assert payload == {"results": {"v1": [
            {"label": "walk", "score": 0.8, "segment": [0.5, 2.0]}]}}

    def test_entries_sorted_by_descending_score(self):
        payload = proposals_to_json(
            [ActionProposal("v", 0.0, 1.0, 1, 0.2),
             ActionProposal("v", 2.0, 3.0, 1, 0.9)], ["walk"])
        scores = [e["score"] for e in payload["results"]["v"]]
        assert scores == sorted(scores, reverse=True)

    def test_from_json_maps_labels(self):
        payload = {"results": {"v": [
            {"label": "run", "score": 0.5, "segment": [1.0, 2.0]}]}}
        (p,) = proposals_from_json(payload, ["walk", "run"], "proposals")
        assert p.category == 2
