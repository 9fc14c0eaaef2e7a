import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import random_mask, sparse_scene
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgeval.coco import DERIVE_FROM_GT, Detection, SemanticMaskSet, load_semantic_masks
from hedgeval.mask import MaskTable, RleMask, decode, encode, encode_box, iou, iou_matrix
from hedgeval.nms import (
    NmsConfig,
    mask_nms,
    matrix_nms,
    run_nms,
    semantic_nms,
    semantic_sort,
    soft_nms,
)
from hedgeval.oracles import (
    mask_nms_bruteforce,
    semantic_nms_bruteforce,
    semantic_sort_bruteforce,
)


def box(h, w, r0, c0, rows, cols):
    m = np.zeros((h, w), dtype=bool)
    m[r0 : r0 + rows, c0 : c0 + cols] = True
    return m


def _table(masks):
    """The mask table of dense masks, built from their encoded runs."""
    return MaskTable.from_rles(map(encode, masks))


def disjoint_boxes(n, size=3, pitch=4):
    side = pitch * int(np.ceil(np.sqrt(n)))
    return [box(side, side, pitch * (i // (side // pitch)), pitch * (i % (side // pitch)), size, size)
            for i in range(n)]


class TestNmsConfig:
    def test_method_default_floors(self):
        assert NmsConfig(method="mask").score_floor == 0.0
        assert NmsConfig(method="matrix").score_floor == 0.05
        assert NmsConfig(method="soft").score_floor == 0.001
        assert NmsConfig(method="semantic").score_floor == 0.0

    def test_explicit_floor_wins(self):
        assert NmsConfig(method="matrix", score_floor=0.2).score_floor == 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "box"},
            {"decay": "cosine"},
            {"score_mode": "raw"},
            {"iou_thr": 1.5},
            {"occupancy_thr": -0.1},
            {"sigma": 0.0},
            {"sigma": float("nan")},
            {"sigma": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NmsConfig(**kwargs)


class TestMaskNms:
    def test_identical_same_category(self):
        m = box(8, 8, 2, 2, 4, 4)
        assert mask_nms(_table([m, m]), [0.9, 0.8], [1, 1], 0.5) == [0]

    def test_identical_lower_score_first_in_file(self):
        m = box(8, 8, 2, 2, 4, 4)
        assert mask_nms(_table([m, m]), [0.8, 0.9], [1, 1], 0.5) == [1]

    def test_identical_different_categories(self):
        m = box(8, 8, 2, 2, 4, 4)
        assert mask_nms(_table([m, m]), [0.9, 0.8], [1, 2], 0.5) == [0, 1]

    def test_disjoint_all_kept(self, rng):
        masks = disjoint_boxes(9)
        scores = rng.random(9)
        assert mask_nms(_table(masks), scores, [1] * 9, 0.5) == list(range(9))
        # a pair that shares no pixel never suppresses, even at threshold 0
        assert mask_nms(_table(masks), scores, [1] * 9, 0.0) == list(range(9))

    def test_below_threshold_overlap_survives(self):
        a = box(8, 8, 0, 0, 4, 4)
        b = box(8, 8, 0, 2, 4, 4)  # IoU 1/3
        assert mask_nms(_table([a, b]), [0.9, 0.8], [1, 1], 0.5) == [0, 1]
        assert mask_nms(_table([a, b]), [0.9, 0.8], [1, 1], 0.3) == [0]

    def test_matches_greedy_over_pairwise_iou(self, rng):
        # thresholds taken from the IoUs themselves, so ties with the
        # threshold suppress
        for _ in range(40):
            n = int(rng.integers(2, 9))
            masks = [random_mask(rng, 6, 6, rng.random()) for _ in range(n)]
            scores = rng.random(n)
            cats = rng.integers(1, 3, size=n)
            ious = iou_matrix(masks, masks)
            for thr in {float(v) for v in ious.ravel() if 0 < v < 1} or {0.5}:
                kept = []
                for k in np.argsort(-scores, kind="stable"):
                    if all(cats[j] != cats[k] or ious[j, k] < thr for j in kept):
                        kept.append(int(k))
                assert mask_nms(_table(masks), scores, cats, thr) == sorted(kept)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10),
           iou_thr=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    def test_matches_dense_bruteforce(self, seed, n, iou_thr):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(1, 10, size=2))
        # density 0 gives empty masks, small densities small boxes
        masks = [random_mask(rng, h, w, rng.choice([0.0, 0.05, 0.3, 0.7, 1.0])) for _ in range(n)]
        masks[n // 2] = masks[0]  # an exact copy: IoU 1
        scores = np.round(rng.random(n), 1)  # one decimal: tied scores
        cats = rng.integers(1, 3, size=n)
        got = mask_nms(_table(masks), scores, cats, iou_thr)
        assert got == mask_nms_bruteforce(masks, scores, cats, iou_thr)


class TestMatrixNms:
    def test_no_overlap_scores_unchanged(self, rng):
        masks = disjoint_boxes(5)
        scores = rng.random(5)
        got = matrix_nms(_table(masks), scores, [1] * 5)
        assert got == pytest.approx(scores)

    def test_identical_duplicate_gaussian_formula(self):
        m = box(8, 8, 2, 2, 4, 4)
        got = matrix_nms(_table([m, m]), [0.9, 0.8], [1, 1], decay="gaussian", sigma=2.0)
        # duplicate sees iou 1 against an unsuppressed leader (cmax 0)
        assert got[0] == pytest.approx(0.9)
        assert got[1] == pytest.approx(0.8 * np.exp(-0.5), abs=1e-12)

    def test_linear_decay_formula(self):
        a = box(8, 8, 0, 0, 4, 4)
        b = box(8, 8, 0, 2, 4, 4)  # IoU 1/3 with a
        got = matrix_nms(_table([a, b]), [0.9, 0.6], [1, 1], decay="linear")
        assert got[0] == pytest.approx(0.9)
        assert got[1] == pytest.approx(0.6 * (1 - 1 / 3), abs=1e-12)

    def test_matches_direct_formula_on_random_groups(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            masks = [random_mask(rng, 10, 10, 0.4) for _ in range(n)]
            scores = rng.random(n)
            decay = "gaussian" if rng.random() < 0.5 else "linear"
            got = matrix_nms(_table(masks), scores, [1] * n, decay=decay, sigma=2.0)
            order = np.argsort(-scores, kind="stable")
            ious = iou_matrix([masks[i] for i in order], [masks[i] for i in order])
            expected = scores.copy()
            for rk in range(n):  # rank of the detection being rescored
                best = 1.0
                for rj in range(rk):
                    cmax = max((ious[ri, rj] for ri in range(rj)), default=0.0)
                    if decay == "gaussian":
                        ratio = np.exp(-(ious[rj, rk] ** 2 - cmax**2) / 2.0)
                    else:
                        ratio = (1 - ious[rj, rk]) / (1 - cmax)
                    best = min(best, ratio)
                expected[order[rk]] = scores[order[rk]] * best
            assert got == pytest.approx(expected, abs=1e-9)

    def test_linear_decay_of_exact_copies_is_zero_not_nan(self):
        # the third copy's column holds 0/0 from the fully suppressed second
        # copy and 0 from the first; the minimum is 0
        m = box(8, 8, 2, 2, 4, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = matrix_nms(_table([m, m, m]), [0.9, 0.8, 0.7], [1, 1, 1], decay="linear")
        assert got.tolist() == [0.9, 0.0, 0.0]

    def test_categories_isolated(self):
        m = box(8, 8, 2, 2, 4, 4)
        got = matrix_nms(_table([m, m]), [0.9, 0.8], [1, 2])
        assert got == pytest.approx([0.9, 0.8])

    def test_permissive_floor_keeps_hedges_mask_nms_kills(self):
        m = box(8, 8, 2, 2, 4, 4)
        masks = [m] * 5
        scores = [0.9, 0.5, 0.4, 0.3, 0.2]
        survivors_mask = mask_nms(_table(masks), scores, [1] * 5, 0.5)
        rescored = matrix_nms(_table(masks), scores, [1] * 5)
        survivors_matrix = [i for i, s in enumerate(rescored) if s >= 0.05]
        assert len(survivors_mask) == 1
        assert len(survivors_matrix) > len(survivors_mask)

    def test_never_increases_scores(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            masks = [random_mask(rng, 10, 10, 0.4) for _ in range(n)]
            scores = rng.random(n)
            assert (matrix_nms(_table(masks), scores, [1] * n) <= scores + 1e-12).all()


class TestSoftNms:
    def test_identical_duplicate_gaussian(self):
        m = box(8, 8, 2, 2, 4, 4)
        got = soft_nms(_table([m, m]), [0.9, 0.8], [1, 1], sigma=2.0)
        assert got[0] == pytest.approx(0.9)
        assert got[1] == pytest.approx(0.8 * np.exp(-0.5), abs=1e-12)

    def test_linear_gated_by_threshold(self):
        a = box(8, 8, 0, 0, 4, 4)
        b = box(8, 8, 0, 2, 4, 4)  # IoU 1/3
        untouched = soft_nms(_table([a, b]), [0.9, 0.6], [1, 1], decay="linear", iou_thr=0.5)
        assert untouched == pytest.approx([0.9, 0.6])
        decayed = soft_nms(_table([a, b]), [0.9, 0.6], [1, 1], decay="linear", iou_thr=0.3)
        assert decayed[1] == pytest.approx(0.6 * (1 - 1 / 3), abs=1e-12)

    def test_sequential_compounding(self):
        # the third copy is decayed by both survivors in selection order
        m = box(8, 8, 2, 2, 4, 4)
        got = soft_nms(_table([m, m, m]), [0.9, 0.8, 0.7], [1, 1, 1], sigma=2.0)
        w = np.exp(-0.5)
        assert got[1] == pytest.approx(0.8 * w, abs=1e-12)
        assert got[2] == pytest.approx(0.7 * w * w, abs=1e-12)

    def test_never_increases_scores(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            masks = [random_mask(rng, 10, 10, 0.4) for _ in range(n)]
            scores = rng.random(n)
            for decay in ("gaussian", "linear"):
                assert (soft_nms(_table(masks), scores, [1] * n, decay=decay) <= scores + 1e-12).all()

    def test_categories_isolated(self):
        m = box(8, 8, 2, 2, 4, 4)
        assert soft_nms(_table([m, m]), [0.9, 0.8], [1, 2]) == pytest.approx([0.9, 0.8])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.sampled_from(["gaussian", "linear"]),
           st.floats(0.1, 0.9))
    def test_matches_per_step_transcription(self, seed, n, decay, iou_thr):
        rng = np.random.default_rng(seed)
        masks = [random_mask(rng, 10, 10, 0.4) for _ in range(n)]
        # an exact copy and one-decimal scores, so IoU 1 and ties both occur
        masks[n // 2] = masks[0]
        scores = np.round(rng.random(n), 1)
        categories = rng.integers(1, 3, n).tolist()
        got = soft_nms(_table(masks), scores, categories, decay=decay, sigma=2.0, iou_thr=iou_thr)

        expected = scores.copy()
        for c in set(categories):
            live = [i for i in range(n) if categories[i] == c]
            while live:
                top = max(live, key=lambda i: (expected[i], -i))
                live.remove(top)
                for i in live:
                    o = iou(masks[top], masks[i])
                    if decay == "gaussian":
                        expected[i] *= np.exp(-(o**2) / 2.0)
                    elif o >= iou_thr:
                        expected[i] *= 1.0 - o
        assert got == pytest.approx(expected, abs=1e-12)


class TestSemanticSort:
    def test_rescore_formula(self):
        det = box(8, 8, 0, 0, 2, 2)  # 4 px inside a 16 px region
        sem = {1: box(8, 8, 0, 0, 4, 4)}
        _, combined = semantic_sort(_table([det]), [0.5], [1], sem)
        assert combined[0] == pytest.approx(2.25, abs=1e-12)

    def test_disjoint_detection(self):
        det = box(8, 8, 6, 6, 2, 2)
        sem = {1: box(8, 8, 0, 0, 4, 4)}
        _, combined = semantic_sort(_table([det]), [0.4], [1], sem)
        assert combined[0] == pytest.approx(1.4, abs=1e-12)

    def test_missing_category_counts_as_empty(self):
        det = box(8, 8, 0, 0, 2, 2)
        _, combined = semantic_sort(_table([det]), [0.4], [7], {1: box(8, 8, 0, 0, 4, 4)})
        assert combined[0] == pytest.approx(1.4, abs=1e-12)

    def test_equal_masks_keep_tau_order(self):
        m = box(8, 8, 2, 2, 4, 4)
        sem = {1: m.copy()}
        order, _ = semantic_sort(_table([m, m]), [0.9, 0.3], [1, 1], sem)
        assert order.tolist() == [0, 1]
        order, _ = semantic_sort(_table([m, m]), [0.3, 0.9], [1, 1], sem)
        assert order.tolist() == [1, 0]

    def test_combined_tie_breaks_by_tau_then_ingestion(self):
        # inside: 0.25 + 1 + (1 - 4/16) = 2.0; outside: 1.0 + 0 + 1 = 2.0
        inside, outside = box(8, 8, 0, 0, 2, 2), box(8, 8, 6, 6, 2, 2)
        sem = {1: box(8, 8, 0, 0, 4, 4)}
        order, combined = semantic_sort(_table([inside, outside, inside]), [0.25, 1.0, 0.25],
                                        [1, 1, 1], sem)
        assert combined.tolist() == [2.0, 2.0, 2.0]
        assert order.tolist() == [1, 0, 2]

    def test_semantic_agreement_outranks_tau(self):
        # a tight in-region mask beats an inflated whole-region one
        tight = box(16, 16, 0, 0, 2, 2)
        whole = box(16, 16, 0, 0, 8, 8)
        sem = {1: whole.copy()}
        order, _ = semantic_sort(_table([whole, tight]), [0.99, 0.1], [1, 1], sem)
        assert order.tolist() == [1, 0]

    def test_sum_and_mean_give_same_order(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            masks = [random_mask(rng, 12, 12, 0.35) for _ in range(n)]
            scores = (rng.integers(1, 5, size=n) / 5.0).tolist()
            cats = rng.integers(1, 3, size=n).tolist()
            sem = {1: random_mask(rng, 12, 12, 0.5), 2: random_mask(rng, 12, 12, 0.5)}
            order, combined = semantic_sort(_table(masks), scores, cats, sem)
            mean_order = np.lexsort((np.arange(n), -np.asarray(scores), -combined / 3.0))
            assert order.tolist() == mean_order.tolist()


class TestSemanticNms:
    def test_duplicate_support_consumed(self):
        obj = box(8, 8, 2, 2, 4, 4)
        sem = {1: obj.copy()}
        keep = semantic_nms(_table([obj, obj.copy()]), [1, 1], sem, thr=0.5)
        assert keep == [True, False]
        assert not sem[1].any()

    def test_other_category_keeps_own_support(self):
        obj = box(8, 8, 2, 2, 4, 4)
        sem = {1: obj.copy(), 2: obj.copy()}
        keep = semantic_nms(_table([obj, obj.copy()]), [1, 2], sem, thr=0.5)
        assert keep == [True, True]

    def test_wrong_category_with_empty_support_discarded(self):
        obj = box(8, 8, 2, 2, 4, 4)
        sem = {1: obj.copy(), 2: np.zeros((8, 8), dtype=bool)}
        keep = semantic_nms(_table([obj, obj.copy()]), [1, 2], sem, thr=0.5)
        assert keep == [True, False]

    def test_missing_category_discarded(self):
        obj = box(8, 8, 2, 2, 4, 4)
        keep = semantic_nms(_table([obj]), [9], {1: obj.copy()}, thr=0.5)
        assert keep == [False]

    def test_threshold_boundary_inclusive(self):
        det = box(8, 8, 0, 0, 2, 2)  # 4 px, exactly half supported
        sem = {1: box(8, 8, 0, 0, 1, 2)}
        assert semantic_nms(_table([det]), [1], sem, thr=0.5) == [True]
        sem = {1: box(8, 8, 0, 0, 1, 2)}
        assert semantic_nms(_table([det]), [1], sem, thr=0.51) == [False]

    def test_kept_pairs_obey_occupancy_bound(self, rng):
        # anything kept after an earlier same-category keep had >= thr of its
        # pixels untouched, so overlap with each earlier keep is <= (1-thr)|D|
        thr = 0.5
        for _ in range(20):
            n = int(rng.integers(2, 10))
            masks = [random_mask(rng, 12, 12, 0.3) for _ in range(n)]
            union = np.zeros((12, 12), dtype=bool)
            for m in masks:
                union |= m
            sem = {1: union.copy()}
            order, _ = semantic_sort(_table(masks), rng.random(n).tolist(), [1] * n, sem)
            ordered = [masks[i] for i in order]
            keep = semantic_nms(_table(ordered), [1] * n, sem, thr=thr)
            kept = [m for m, k in zip(ordered, keep) if k]
            for later in range(1, len(kept)):
                removed = np.zeros((12, 12), dtype=bool)
                for earlier in range(later):
                    removed |= kept[earlier]
                inter = np.count_nonzero(kept[later] & removed)
                assert inter <= (1 - thr) * np.count_nonzero(kept[later]) + 1e-9

    def test_equal_area_duplicates_structurally_suppressed(self):
        a = box(8, 8, 2, 2, 4, 4)
        b = box(8, 8, 2, 4, 4, 4)  # same area, half overlapping
        sem = {1: (a | b)}
        keep = semantic_nms(_table([a, b]), [1, 1], sem, thr=0.5)
        if all(keep):
            inter = np.count_nonzero(a & b)
            assert inter <= 0.5 * min(a.sum(), b.sum())


class TestSemanticLayouts:
    @pytest.mark.parametrize("budget_order", ["C", "F"])
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           thr=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    def test_matches_dense_bruteforce(self, budget_order, seed, n, thr):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        # density 0 gives empty masks, small densities small boxes
        masks = [random_mask(rng, h, w, rng.choice([0.0, 0.05, 0.3, 0.7, 1.0])) for _ in range(n)]
        masks[n // 2] = masks[0]  # an exact copy
        scores = np.round(rng.random(n), 1)  # one decimal: tied scores
        cats = rng.integers(1, 4, size=n).tolist()  # category 3 has no semantic mask
        sem = {c: random_mask(rng, h, w, rng.random()) for c in (1, 2)}
        ref_order, ref_combined = semantic_sort_bruteforce(masks, scores, cats, sem)
        ordered_cats = [cats[i] for i in ref_order]
        ref_budget = {c: m.copy() for c, m in sem.items()}
        ref_keep = semantic_nms_bruteforce([masks[i] for i in ref_order], ordered_cats,
                                           ref_budget, thr)

        rles = []
        for m in masks:
            counts = list(encode(m).counts)
            if rng.random() < 0.5:  # zero-length runs hold no pixels
                at = int(rng.integers(0, len(counts) + 1))
                counts[at:at] = [0, 0]
            rles.append(RleMask(h, w, counts))
        for t in (MaskTable.from_rles(rles), _table(masks)):
            laid = {c: np.array(m, order=budget_order) for c, m in sem.items()}
            order, combined = semantic_sort(t, scores, cats, laid)
            assert order.tolist() == ref_order.tolist()
            assert combined.tolist() == ref_combined.tolist()
            assert semantic_nms(t.take(order), ordered_cats, laid, thr) == ref_keep
            for c in sem:  # consumed in place, layout kept
                assert np.array_equal(laid[c], ref_budget[c])
                assert laid[c].flags[f"{budget_order}_CONTIGUOUS"]

    def test_runs_of_another_shape_are_rejected(self):
        sem = {1: np.ones((4, 5), dtype=bool)}
        t = MaskTable.from_rles([RleMask(5, 4, (20,))])
        with pytest.raises(ValueError, match="differs from semantic mask shape"):
            semantic_sort(t, [0.5], [1], sem)
        with pytest.raises(ValueError, match="differs from semantic mask shape"):
            semantic_nms(t, [1], sem)

    def test_column_major_budget_consumed_in_place(self):
        obj = box(8, 8, 2, 2, 4, 4)
        sem = {1: decode(encode(obj))}
        assert sem[1].flags.f_contiguous and not sem[1].flags.c_contiguous
        assert semantic_nms(_table([obj, obj.copy()]), [1, 1], sem) == [True, False]
        assert not sem[1].any()


def det_of(mask, cat, score, image_id=1):
    return Detection(image_id, cat, score, encode(mask))


class TestRunNms:
    def test_semantic_requires_masks(self):
        with pytest.raises(ValueError, match="semantic"):
            run_nms({1: []}, NmsConfig(method="semantic"))

    def test_mask_subset_scores_untouched(self):
        m = box(8, 8, 2, 2, 4, 4)
        dets = {1: [det_of(m, 1, 0.9), det_of(m, 1, 0.8), det_of(box(8, 8, 0, 6, 2, 2), 1, 0.7)]}
        out = run_nms(dets, NmsConfig(method="mask"))
        assert out[1] == [dets[1][0], dets[1][2]]

    def test_matrix_floor_drops_decayed(self):
        m = box(8, 8, 2, 2, 4, 4)
        dets = {1: [det_of(m, 1, 0.9), det_of(m, 1, 0.07)]}
        out = run_nms(dets, NmsConfig(method="matrix"))
        # 0.07*exp(-0.5) = 0.042 falls under the 0.05 floor
        assert [d.score for d in out[1]] == [pytest.approx(0.9)]

    def test_soft_rescores(self):
        m = box(8, 8, 2, 2, 4, 4)
        dets = {1: [det_of(m, 1, 0.9), det_of(m, 1, 0.8)]}
        out = run_nms(dets, NmsConfig(method="soft"))
        assert [d.score for d in out[1]] == pytest.approx([0.9, 0.8 * np.exp(-0.5)])

    def test_semantic_default_scores_stay_in_unit_range(self):
        obj = box(8, 8, 2, 2, 4, 4)
        other = box(8, 8, 0, 6, 2, 2)
        sem = {1: SemanticMaskSet(1, {1: encode(obj | other)})}
        dets = {1: [det_of(obj, 1, 0.9), det_of(obj, 1, 0.85), det_of(other, 1, 0.8)]}
        out = run_nms(dets, NmsConfig(method="semantic"), sem)
        assert len(out[1]) == 2
        for d in out[1]:
            assert 0.0 <= d.score <= 1.0

    def test_semantic_score_modes(self):
        obj = box(8, 8, 0, 0, 2, 2)
        sem = {1: SemanticMaskSet(1, {1: encode(box(8, 8, 0, 0, 4, 4))})}
        dets = {1: [det_of(obj, 1, 0.5)]}
        for mode, expected in (("original", 0.5), ("sum", 2.25), ("averaged", 0.75)):
            out = run_nms(dets, NmsConfig(method="semantic", score_mode=mode), sem)
            assert out[1][0].score == pytest.approx(expected)

    def test_semantic_working_copies_repeatable(self):
        obj = box(8, 8, 2, 2, 4, 4)
        sem = {1: SemanticMaskSet(1, {1: encode(obj)})}
        dets = {1: [det_of(obj, 1, 0.9), det_of(obj, 1, 0.8)]}
        cfg = NmsConfig(method="semantic")
        first = run_nms(dets, cfg, sem)
        second = run_nms(dets, cfg, sem)
        assert first == second
        assert np.array_equal(decode(sem[1].masks[1]), obj)  # caller's masks untouched

    def test_semantic_holds_one_image_of_budgets(self):
        # a dozen 1024x1024 images with two categories each: the whole set's
        # dense budgets would need 24 * H * W bytes, one image's 2 * H * W
        h = w = 1024
        ds, dets = sparse_scene(12, h)
        tracemalloc.start()
        try:
            out = run_nms(dets, NmsConfig(method="semantic"), load_semantic_masks(DERIVE_FROM_GT, ds))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for image_id, gts in ds.gts_by_image.items():  # every block kept once, its copy dropped
            assert sorted(d.mask.counts for d in out[image_id]) == sorted(g.mask.counts for g in gts)
        assert peak < 3 * h * w

    def test_empty_image_passthrough(self):
        out = run_nms({1: []}, NmsConfig(method="mask"))
        assert out == {1: []}

    @pytest.mark.parametrize("method", ["mask", "matrix", "soft"])
    def test_memory_bounded_by_mask_area(self, method):
        # 40 small detections on a 2048x2048 image: a full-image mask per
        # detection would need 40 * H * W bytes
        h = w = 2048
        rng = np.random.default_rng(3)
        block = np.ones((24, 32), dtype=bool)
        dets = []
        for k in range(20):
            r0, c0 = (int(v) for v in rng.integers(0, h - 40, size=2))
            for dy, score in ((0, 0.9), (3, 0.6)):  # a base and a shifted duplicate
                dets.append(Detection(1, 1 + k % 2, score, encode_box(block, r0 + dy, c0, h, w)))
        tracemalloc.start()
        try:
            out = run_nms({1: dets}, NmsConfig(method=method))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out[1]) == (20 if method == "mask" else 40)
        assert peak < h * w
