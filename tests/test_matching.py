import numpy as np
import pytest
from conftest import random_mask
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hedgeval.mask import iou_matrix
from hedgeval.matching import (
    agnostic_match_from_ious,
    confidence_order,
    greedy_match,
    greedy_match_from_ious,
)
from hedgeval.oracles import match_bruteforce


def square(h, w, r0, c0, size):
    m = np.zeros((h, w), dtype=bool)
    m[r0 : r0 + size, c0 : c0 + size] = True
    return m


class TestConfidenceOrder:
    def test_descending(self):
        assert confidence_order([0.1, 0.9, 0.5]).tolist() == [1, 2, 0]

    def test_ties_keep_ingestion_order(self):
        assert confidence_order([0.5, 0.9, 0.5, 0.9]).tolist() == [1, 3, 0, 2]


class TestGreedyMatch:
    def test_single_identical_pair(self):
        m = square(8, 8, 2, 2, 4)
        res = greedy_match([m], [0.7], [m], 0.5)
        assert res.det_to_gt == [0]
        assert res.det_iou == [1.0]
        assert res.gt_to_det == [0]
        assert res.n_tp == 1

    def test_second_duplicate_is_fp(self):
        # one-to-one: the higher-confidence copy claims the only gt
        m = square(8, 8, 2, 2, 4)
        res = greedy_match([m, m], [0.9, 0.8], [m], 0.5)
        assert res.det_to_gt == [0, None]
        assert res.gt_to_det == [0]

    def test_confidence_order_decides_not_ingestion(self):
        m = square(8, 8, 2, 2, 4)
        res = greedy_match([m, m], [0.8, 0.9], [m], 0.5)
        assert res.det_to_gt == [None, 0]

    def test_below_threshold_unmatched(self):
        a = square(10, 10, 0, 0, 4)
        b = square(10, 10, 0, 2, 4)  # IoU 2/6 with a
        res = greedy_match([a], [0.9], [b], 0.5)
        assert res.det_to_gt == [None]
        assert res.det_iou == [0.0]
        assert res.gt_to_det == [None]

    def test_equal_iou_prefers_lowest_gt_index(self):
        det = square(12, 12, 4, 4, 4)
        up = square(12, 12, 2, 4, 4)
        down = square(12, 12, 6, 4, 4)  # same IoU with det as `up`
        res = greedy_match([det], [0.9], [up, down], 0.1)
        assert res.det_to_gt == [0]

    def test_perfect_detections_no_fp_no_fn(self, rng):
        gts = [square(16, 16, 4 * i, 4 * i, 4) for i in range(4)]
        scores = rng.random(4)
        for t in (0.5, 0.75, 1.0):
            res = greedy_match(gts, scores, gts, t)
            assert res.n_tp == 4
            assert None not in res.gt_to_det

    def test_order_invariance_distinct_confidences(self, rng):
        masks = [random_mask(rng, 12, 12, 0.4) for _ in range(5)]
        gts = [random_mask(rng, 12, 12, 0.4) for _ in range(4)]
        scores = [0.9, 0.7, 0.5, 0.3, 0.1]
        base = greedy_match(masks, scores, gts, 0.3)
        perm = [3, 0, 4, 2, 1]
        shuffled = greedy_match([masks[i] for i in perm], [scores[i] for i in perm], gts, 0.3)
        for new_pos, old_pos in enumerate(perm):
            assert shuffled.det_to_gt[new_pos] == base.det_to_gt[old_pos]

    def test_matches_bruteforce_oracle(self, rng):
        for trial in range(50):
            n_det = int(rng.integers(0, 6))
            n_gt = int(rng.integers(0, 5))
            dets = [random_mask(rng, 9, 9, 0.5) for _ in range(n_det)]
            gts = [random_mask(rng, 9, 9, 0.5) for _ in range(n_gt)]
            scores = rng.random(n_det)
            thr = float(rng.uniform(0.1, 0.9))
            got = greedy_match(dets, scores, gts, thr)
            ref = match_bruteforce(dets, scores, gts, thr)
            assert got.det_to_gt == ref.det_to_gt, f"trial {trial}"
            assert got.gt_to_det == ref.gt_to_det
            assert got.det_iou == pytest.approx(ref.det_iou, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_bruteforce_oracle_on_ties(self, data):
        # 3x3 masks make IoUs repeat, and the threshold is one of the IoUs
        # the drawn masks realize, so pairs sit exactly on it
        grid = arrays(bool, (3, 3))
        dets = data.draw(st.lists(grid, max_size=6))
        gts = data.draw(st.lists(grid, max_size=5))
        scores = data.draw(st.lists(st.sampled_from((0.2, 0.5, 0.8)),
                                    min_size=len(dets), max_size=len(dets)))
        realized = sorted({np.count_nonzero(d & g) / np.count_nonzero(d | g)
                           for d in dets for g in gts if (d | g).any()})
        thr = data.draw(st.sampled_from(realized or [0.5]))
        got = greedy_match(dets, scores, gts, thr)
        ref = match_bruteforce(dets, scores, gts, thr)
        assert got.det_to_gt == ref.det_to_gt
        assert got.det_iou == ref.det_iou
        assert got.gt_to_det == ref.gt_to_det

    def test_matched_iou_meets_threshold(self, rng):
        dets = [random_mask(rng, 10, 10, 0.5) for _ in range(6)]
        gts = [random_mask(rng, 10, 10, 0.5) for _ in range(6)]
        res = greedy_match(dets, rng.random(6), gts, 0.4)
        for g, v in zip(res.det_to_gt, res.det_iou):
            if g is not None:
                assert v >= 0.4


class TestPrefixMatch:
    """Matching a prefix of the confidence order gives the full match cut to
    that prefix: each detection is decided only by those ranked above it.
    Both the per-image ``max_dets`` cap and the ``min_score`` floor keep
    such a prefix, so evaluation reads them off one match."""

    LEVELS = (0.3, 0.5, 0.7, 1.0)  # IoUs land exactly on every threshold

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_prefix_match_is_the_full_match_cut(self, data):
        n_det, n_gt = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 4))
        ious = data.draw(arrays(np.float64, (n_det, n_gt),
                                elements=st.sampled_from((0.0, *self.LEVELS))))
        s = data.draw(arrays(np.float64, n_det, elements=st.sampled_from((0.2, 0.5, 0.8))))
        thr = data.draw(st.sampled_from(self.LEVELS))
        full = greedy_match_from_ious(ious, s, thr)
        cuts = [np.sort(confidence_order(s)[:k]) for k in range(n_det + 1)]
        cuts += [np.flatnonzero(s >= v) for v in (0.0, 0.2, 0.5, 0.8, 0.9)]
        for p in cuts:
            got = greedy_match_from_ious(ious[p], s[p], thr)
            assert got.det_iou == [full.det_iou[d] for d in p]
            assert got.det_to_gt == [full.det_to_gt[d] for d in p]
            position = {int(d): j for j, d in enumerate(p)}
            assert got.gt_to_det == [position.get(d) for d in full.gt_to_det]


class TestAgnosticMatch:
    def test_exact_mask_picks_its_gt(self):
        gts = [square(12, 12, 0, 0, 4), square(12, 12, 0, 6, 4), square(12, 12, 6, 0, 4)]
        assert agnostic_match_from_ious(iou_matrix([gts[2]], gts)) == [2]

    def test_just_below_half_is_none(self):
        ious = np.array([[0.49]])
        assert agnostic_match_from_ious(ious) == [None]
        assert agnostic_match_from_ious(np.array([[0.5]])) == [0]

    def test_argmax_tie_lowest_index(self):
        det = square(12, 12, 4, 4, 4)
        up = square(12, 12, 3, 4, 4)  # IoU 3/5
        down = square(12, 12, 5, 4, 4)  # same
        assert agnostic_match_from_ious(iou_matrix([det], [up, down])) == [0]
        assert agnostic_match_from_ious(iou_matrix([det], [down, up])) == [0]

    def test_many_to_one_allowed(self):
        m = square(8, 8, 2, 2, 4)
        assert agnostic_match_from_ious(iou_matrix([m, m, m], [m])) == [0, 0, 0]

    def test_no_gts(self):
        m = square(8, 8, 2, 2, 4)
        assert agnostic_match_from_ious(iou_matrix([m], [])) == [None]

    def test_consistent_with_iou_matrix(self, rng):
        dets = [random_mask(rng, 10, 10, 0.5) for _ in range(5)]
        gts = [random_mask(rng, 10, 10, 0.5) for _ in range(3)]
        ious = iou_matrix(dets, gts)
        got = agnostic_match_from_ious(ious)
        for j, gi in enumerate(got):
            if gi is None:
                assert ious[j].max() < 0.5
            else:
                assert ious[j, gi] == ious[j].max() >= 0.5
