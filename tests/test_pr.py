import numpy as np
import pytest
from conftest import random_mask

from hedgeval.oracles import ap_naive
from hedgeval.pr import (
    PrCurve,
    average_precision,
    build_pr_curve,
    f1_from_counts,
    f1_score,
    fp_tp_ratio_curve,
    mean_ap,
)

# ten ground truths, one spurious detection: the canonical ranking pair
FP_FIRST = np.array([False] + [True] * 9)
FP_LAST = np.array([True] * 9 + [False])


def curve_from_flags(flags, n_gt):
    scores = np.linspace(0.99, 0.5, len(flags))
    return build_pr_curve(scores, flags, n_gt)


class TestBuildPrCurve:
    def test_nine_tp_then_fp(self):
        c = curve_from_flags(FP_LAST, 10)
        assert c.precision[-1] == pytest.approx(0.9)
        assert c.recall[-1] == pytest.approx(0.9)
        assert c.recall.max() == pytest.approx(0.9)

    def test_empty(self):
        c = build_pr_curve([], [], 5)
        assert len(c) == 0
        assert average_precision(c) == 0.0

    def test_all_fp_precision_zero_throughout(self):
        c = curve_from_flags(np.zeros(6, dtype=bool), 4)
        assert (c.precision == 0).all()
        assert (c.recall == 0).all()
        assert average_precision(c) == 0.0

    def test_sorts_by_descending_score(self):
        c = build_pr_curve([0.2, 0.9, 0.5], [False, True, True], 2)
        assert c.scores.tolist() == [0.9, 0.5, 0.2]
        assert c.is_tp.tolist() == [True, True, False]

    def test_ties_keep_ingestion_order(self):
        c = build_pr_curve([0.5, 0.5, 0.5], [True, False, True], 2)
        assert c.is_tp.tolist() == [True, False, True]

    def test_recall_monotone_precision_consistent(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 40))
            c = build_pr_curve(rng.random(n), rng.random(n) < 0.5, int(rng.integers(1, 20)))
            assert (np.diff(c.recall) >= 0).all()
            tp = np.cumsum(c.is_tp)
            assert c.precision == pytest.approx(tp / np.arange(1, n + 1))
            assert (c.recall <= 1.0 + 1e-12).all() or tp[-1] > c.n_gt

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_pr_curve([0.5], [True, False], 1)


class TestAveragePrecision:
    def test_fp_ranked_first(self):
        ap = average_precision(curve_from_flags(FP_FIRST, 10))
        assert ap == pytest.approx(0.9 * 91 / 101, abs=1e-12)
        assert round(ap, 2) == 0.81

    def test_fp_ranked_last(self):
        ap = average_precision(curve_from_flags(FP_LAST, 10))
        assert ap == pytest.approx(91 / 101, abs=1e-12)
        assert round(ap, 2) == 0.90

    def test_fp_position_changes_ap(self):
        # identical detection sets, confidence order alone moves AP
        first = average_precision(curve_from_flags(FP_FIRST, 10))
        last = average_precision(curve_from_flags(FP_LAST, 10))
        assert last > first

    def test_perfect_detections(self):
        ap = average_precision(curve_from_flags(np.ones(7, dtype=bool), 7))
        assert ap == 1.0

    def test_no_ground_truth_undefined(self):
        assert average_precision(curve_from_flags(np.array([False]), 0)) is None

    def test_matches_naive_recount(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 30))
            n_gt = int(rng.integers(1, 25))
            flags = rng.random(n) < rng.uniform(0.2, 0.8)
            flags[np.cumsum(flags) > n_gt] = False  # cap TPs at n_gt
            c = curve_from_flags(flags, n_gt)
            assert average_precision(c) == pytest.approx(ap_naive(c.is_tp, n_gt), abs=1e-12)

    def test_invariant_to_score_values_given_rank_flags(self, rng):
        flags = np.array([True, False, True, True, False])
        a = build_pr_curve(np.linspace(0.9, 0.1, 5), flags, 4)
        b = build_pr_curve(np.array([0.99, 0.5, 0.49, 0.2, 0.01]), flags, 4)
        assert average_precision(a) == average_precision(b)

    def test_trailing_fps_are_free(self, rng):
        # the hedging loophole: junk below the lowest confidence costs nothing
        for _ in range(25):
            n = int(rng.integers(1, 20))
            n_gt = int(rng.integers(1, 15))
            scores = rng.uniform(0.5, 1.0, size=n)
            flags = rng.random(n) < 0.6
            flags[np.cumsum(flags) > n_gt] = False
            base = average_precision(build_pr_curve(scores, flags, n_gt))
            extra = int(rng.integers(1, 50))
            scores2 = np.concatenate([scores, rng.uniform(0.0, 0.4, size=extra)])
            flags2 = np.concatenate([flags, np.zeros(extra, dtype=bool)])
            hedged = average_precision(build_pr_curve(scores2, flags2, n_gt))
            assert hedged == base

    def test_low_ranked_duplicates_never_decrease_ap(self, rng):
        # one FP copy per detection, every copy ranked below the originals
        for _ in range(25):
            n = int(rng.integers(1, 20))
            n_gt = int(rng.integers(1, 15))
            scores = rng.uniform(0.5, 1.0, size=n)
            flags = rng.random(n) < 0.6
            flags[np.cumsum(flags) > n_gt] = False
            dup_scores = scores - 0.5  # below min(scores), order preserved
            base = average_precision(build_pr_curve(scores, flags, n_gt))
            hedged = average_precision(
                build_pr_curve(
                    np.concatenate([scores, dup_scores]),
                    np.concatenate([flags, np.zeros(n, dtype=bool)]),
                    n_gt,
                )
            )
            assert hedged >= base

    def test_interleaved_duplicates_can_decrease_ap(self):
        # a duplicate ranked between two originals acts like a leading FP
        # for everything after it, so per-detection duplication is not free
        base = average_precision(curve_from_flags(np.array([True, True]), 2))
        hedged = average_precision(
            curve_from_flags(np.array([True, False, True, False]), 2)
        )
        assert base == 1.0
        assert hedged < base


class TestMeanAp:
    def test_skips_undefined_cells(self):
        assert mean_ap([0.5, None, 1.0]) == pytest.approx(0.75)

    def test_all_undefined(self):
        assert mean_ap([None, None]) is None
        assert mean_ap([]) is None


class TestF1:
    def test_counts(self):
        assert f1_from_counts(10, 10, 0) == pytest.approx(2 / 3)
        assert f1_from_counts(0, 5, 3) == 0.0
        assert f1_from_counts(0, 0, 0) == 0.0
        assert f1_from_counts(4, 0, 0) == 1.0

    def test_perfect_detections(self, rng):
        gts = [random_mask(rng, 8, 8, 0.4) for _ in range(3)]
        assert f1_score(gts, [0.9, 0.8, 0.7], gts, 0.5) == 1.0

    def test_duplicates_halve_precision(self, rng):
        gts = []
        for i in range(10):
            m = np.zeros((40, 40), dtype=bool)
            m[4 * (i // 2) : 4 * (i // 2) + 3, 20 * (i % 2) : 20 * (i % 2) + 10] = True
            gts.append(m)
        dets = gts + gts  # every mask emitted twice
        scores = np.concatenate([np.full(10, 0.9), np.full(10, 0.5)])
        assert f1_score(dets, scores, gts, 0.5) == pytest.approx(2 / 3)

    def test_no_detections(self):
        assert f1_score([], [], [np.ones((4, 4), dtype=bool)], 0.5) == 0.0

    def test_one_iff_exact(self, rng):
        dets = [random_mask(rng, 8, 8, 0.4) for _ in range(3)]
        gts = dets + [random_mask(rng, 8, 8, 0.4)]
        assert f1_score(dets, [0.9, 0.8, 0.7], gts, 0.5) < 1.0


class TestFpTpRatio:
    def test_hand_example(self):
        c = build_pr_curve([0.9, 0.8, 0.7], [True, False, True], 2)
        got = fp_tp_ratio_curve(c, recall_bins=[0.5, 1.0])
        assert got[0] == pytest.approx(0.0)
        assert got[1] == pytest.approx(0.5)

    def test_unreached_bins_undefined(self):
        c = build_pr_curve([0.9, 0.8, 0.7], [True, False, True], 4)
        got = fp_tp_ratio_curve(c, recall_bins=[0.5, 1.0])
        assert got == [pytest.approx(0.5), None]

    def test_leading_fp_bin_undefined(self):
        c = build_pr_curve([0.9], [False], 2)
        assert fp_tp_ratio_curve(c, recall_bins=[0.0]) == [None]

    def test_default_bins(self):
        c = build_pr_curve([0.9, 0.8], [True, True], 2)
        got = fp_tp_ratio_curve(c)
        assert len(got) == 11
        assert got[-1] == pytest.approx(0.0)

    def test_default_bins_are_exact_tenths(self):
        # ten GTs, an FP at rank 4: recall is exactly 0.3 at rank 3, 0.6 at
        # rank 7 and 0.7 at rank 8, and each bin reads that rank
        flags = [True] * 3 + [False] + [True] * 7
        c = build_pr_curve(np.linspace(0.99, 0.5, len(flags)), flags, 10)
        got = fp_tp_ratio_curve(c)
        assert got[3] == 0.0
        assert got[6] == 1 / 6
        assert got[7] == 1 / 7
