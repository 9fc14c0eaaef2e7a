import numpy as np
import pytest
from conftest import random_mask
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hedgeval.lrp import LrpResult, lrp, lrp_from_matching, olrp, olrp_scan


def lrp_at_cutoff(dets, scores, gts, thr, cutoff):
    keep = [i for i, v in enumerate(scores) if v >= cutoff]
    return lrp([dets[i] for i in keep], [scores[i] for i in keep], gts, thr)


def olrp_value_recompute(dets, scores, gts, thr):
    """Best LRP value by re-matching from scratch at every distinct cutoff."""
    values = [lrp_at_cutoff(dets, scores, gts, thr, s).lrp for s in set(scores)]
    return min(values) if values else lrp([], [], gts, thr).lrp


def boxes(n, h=32, w=32, size=5):
    out = []
    for i in range(n):
        m = np.zeros((h, w), dtype=bool)
        r, c = divmod(i, w // size)
        m[r * size : r * size + size - 1, c * size : c * size + size - 1] = True
        out.append(m)
    return out


class TestLrpFormula:
    def test_perfect_detections(self):
        gts = boxes(4)
        res = lrp(gts, [0.9, 0.8, 0.7, 0.6], gts, 0.5)
        assert res.lrp == 0.0
        assert res.lrp_loc == 0.0
        assert res.lrp_fp == 0.0
        assert res.lrp_fn == 0.0
        assert (res.tp, res.fp, res.fn) == (4, 0, 0)

    def test_no_detections(self):
        res = lrp([], [], boxes(3), 0.5)
        assert res.lrp == 1.0
        assert res.lrp_fn == 1.0
        assert res.lrp_loc is None
        assert res.lrp_fp is None
        assert (res.tp, res.fp, res.fn) == (0, 0, 3)

    def test_one_tp_075_one_fp(self):
        # (1 - 0.75)/(1 - 0.5) = 0.5 loc error, plus one fp, over two
        res = lrp_from_matching([0.75], 1, 0, 0.5)
        assert res.lrp == pytest.approx(0.75, abs=1e-12)
        assert res.lrp_loc == pytest.approx(0.5)
        assert res.lrp_fp == pytest.approx(0.5)
        assert res.lrp_fn == 0.0

    def test_empty_scene_undefined(self):
        res = lrp([], [], [], 0.5)
        assert res == LrpResult(None, None, None, None, 0, 0, 0)

    def test_zero_iff_perfect(self, rng):
        res = lrp_from_matching([1.0, 1.0], 0, 0, 0.5)
        assert res.lrp == 0.0
        for imperfect in (
            lrp_from_matching([1.0, 0.9], 0, 0, 0.5),
            lrp_from_matching([1.0], 1, 0, 0.5),
            lrp_from_matching([1.0], 0, 1, 0.5),
        ):
            assert imperfect.lrp > 0.0

    def test_appending_fp_strictly_increases(self):
        gts = boxes(4)
        far = np.zeros((32, 32), dtype=bool)
        far[28:31, 28:31] = True
        base = lrp(gts, [0.9, 0.8, 0.7, 0.6], gts, 0.5)
        hedged = lrp(gts + [far], [0.9, 0.8, 0.7, 0.6, 0.01], gts, 0.5)
        assert hedged.lrp > base.lrp
        assert hedged.fp == base.fp + 1

    def test_components_in_unit_interval(self, rng):
        for _ in range(30):
            n_tp = int(rng.integers(0, 6))
            ious = rng.uniform(0.5, 1.0, size=n_tp)
            res = lrp_from_matching(ious, int(rng.integers(0, 5)), int(rng.integers(0, 5)), 0.5)
            for v in (res.lrp, res.lrp_loc, res.lrp_fp, res.lrp_fn):
                if v is not None:
                    assert 0.0 <= v <= 1.0 + 1e-12


class TestOlrp:
    def test_never_above_fixed_cutoff(self, rng):
        for _ in range(30):
            dets = [random_mask(rng, 12, 12, 0.4) for _ in range(int(rng.integers(1, 7)))]
            gts = [random_mask(rng, 12, 12, 0.4) for _ in range(int(rng.integers(1, 5)))]
            scores = rng.random(len(dets)).tolist()
            best, _ = olrp(dets, scores, gts, 0.5)
            fixed = lrp(dets, scores, gts, 0.5)
            assert best.lrp <= fixed.lrp + 1e-12

    def test_matches_recompute_oracle(self, rng):
        for trial in range(60):
            n_det = int(rng.integers(0, 8))
            dets = [random_mask(rng, 10, 10, 0.45) for _ in range(n_det)]
            gts = [random_mask(rng, 10, 10, 0.45) for _ in range(int(rng.integers(0, 5)))]
            # coarse scores force ties across cutoffs now and then
            scores = (rng.integers(1, 6, size=n_det) / 5.0).tolist()
            got, cutoff = olrp(dets, scores, gts, 0.5)
            ref_value = olrp_value_recompute(dets, scores, gts, 0.5)
            if ref_value is None:
                assert got.lrp is None and cutoff is None
                continue
            assert got.lrp == pytest.approx(ref_value, abs=1e-12), f"trial {trial}"
            if cutoff is not None:
                at_cut = lrp_at_cutoff(dets, scores, gts, 0.5, cutoff)
                assert (got.tp, got.fp, got.fn) == (at_cut.tp, at_cut.fp, at_cut.fn)
                assert got.lrp == pytest.approx(at_cut.lrp, abs=1e-12)

    def test_cutoff_drops_junk_tail(self):
        gts = boxes(2)
        far = np.zeros((32, 32), dtype=bool)
        far[28:31, 28:31] = True
        dets = gts + [far, far]
        scores = [0.9, 0.8, 0.2, 0.1]
        best, cutoff = olrp(dets, scores, gts, 0.5)
        assert best.lrp == 0.0
        assert cutoff == pytest.approx(0.8)
        assert (best.tp, best.fp, best.fn) == (2, 0, 0)

    def test_no_detections(self):
        best, cutoff = olrp([], [], boxes(2), 0.5)
        assert best.lrp == 1.0
        assert cutoff is None

    def test_scan_handles_ties_as_one_cutoff(self):
        res, cutoff = olrp_scan([0.5, 0.5], [True, False], [1.0, 0.0], 2, 0.5)
        # both detections share the cutoff, so the fp cannot be shed alone
        assert (res.tp, res.fp, res.fn) == (1, 1, 1)
        assert cutoff == pytest.approx(0.5)

    def test_tied_values_keep_the_highest_cutoff(self):
        # the second TP sits at IoU == thr: its loc error 1 trades one FN exactly
        res, cutoff = olrp_scan([0.9, 0.8], [True, True], [1.0, 0.5], 2, 0.5)
        assert res.lrp == 0.5
        assert cutoff == 0.9
        assert (res.tp, res.fp, res.fn) == (1, 0, 1)

    @settings(max_examples=150, deadline=None)
    @given(dets=st.lists(arrays(np.bool_, (6, 6)), max_size=7),
           gts=st.lists(arrays(np.bool_, (6, 6)), max_size=4),
           data=st.data())
    def test_scan_matches_recompute_oracle(self, dets, gts, data):
        # coarse scores force tied cutoffs
        scores = data.draw(st.lists(st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
                                    min_size=len(dets), max_size=len(dets)))
        got, cutoff = olrp(dets, scores, gts, 0.5)
        ref = olrp_value_recompute(dets, scores, gts, 0.5)
        if not dets:
            assert cutoff is None and got == lrp([], [], gts, 0.5)
            return
        assert got.lrp == pytest.approx(ref, abs=1e-12)
        at_cut = lrp_at_cutoff(dets, scores, gts, 0.5, cutoff)
        assert (got.tp, got.fp, got.fn) == (at_cut.tp, at_cut.fp, at_cut.fn)
        for name in ("lrp", "lrp_loc", "lrp_fp", "lrp_fn"):
            assert getattr(got, name) == pytest.approx(getattr(at_cut, name), abs=1e-12)
        # of the cutoffs reaching the minimum, the scan keeps the highest
        best = [s for s in set(scores) if lrp_at_cutoff(dets, scores, gts, 0.5, s).lrp <= ref + 1e-12]
        assert cutoff == max(best)
