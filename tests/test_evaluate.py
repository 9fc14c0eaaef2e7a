"""End-to-end evaluation pipeline over in-memory datasets."""

import dataclasses
import importlib
import json
from datetime import datetime

import numpy as np
import pytest

from hedgeval.coco import (
    CategoryInfo,
    Dataset,
    Detection,
    DetectionLoadResult,
    GroundTruthInstance,
    ImageInfo,
)
from hedgeval.evaluate import EvalConfig, build_report, evaluate
from hedgeval.hedging import DcConfig, duplicate_confusion
from hedgeval.lrp import lrp, olrp
from hedgeval.mask import MaskTable, decode, encode, iou_matrix
from hedgeval.synth import SynthConfig, generate, perfect_detector

H = W = 32


def box(r, c, hh=4, ww=4):
    m = np.zeros((H, W), dtype=bool)
    m[r:r + hh, c:c + ww] = True
    return encode(m)


def scene(gt_specs, det_specs, n_categories=1):
    """One-image dataset; specs are (mask, category) and (mask, category, score)."""
    cats = {i: CategoryInfo(i, f"c{i}") for i in range(1, n_categories + 1)}
    gts = [GroundTruthInstance(1, i + 1, cat, m) for i, (m, cat) in enumerate(gt_specs)]
    ds = Dataset({1: ImageInfo(1, H, W)}, cats, {1: gts})
    dets = {1: [Detection(1, cat, score, m) for m, cat, score in det_specs]}
    return ds, dets


class TestEvalConfig:
    def test_defaults_are_valid(self):
        cfg = EvalConfig()
        assert len(cfg.iou_thrs) == 10 and cfg.max_dets == 100

    @pytest.mark.parametrize("kwargs", [
        {"iou_thrs": ()},
        {"iou_thrs": (0.5, 1.0)},
        {"f1_iou_thr": 0.0},
        {"lrp_iou_thr": 1.2},
        {"dc_conf_thrs": (0.5, 1.5)},
        {"min_score": -0.1},
        {"max_dets": 0},
        {"verify_seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)

    @pytest.mark.parametrize("field", ["iou_thrs", "dc_iou_thrs", "dc_conf_thrs"])
    def test_rejects_repeated_thresholds(self, field):
        # a repeated threshold would count its AP flags or DC cells twice
        with pytest.raises(ValueError, match=f"^{field} lists 0.5 more than once"):
            EvalConfig(**{field: (0.5, 0.7, 0.5)})


@pytest.fixture(scope="module")
def synth():
    ds, _ = generate(SynthConfig(n_images=10, seed=42))
    return ds


class TestPerfectAndHedged:
    def test_perfect_identities(self, synth):
        metrics, _ = evaluate(synth, perfect_detector(synth))
        assert metrics["map"] == 1.0
        assert metrics["f1"] == 1.0
        assert metrics["dc"] == 0.0
        assert metrics["ne"] == 0.0
        assert metrics["lrp"] == 0.0
        assert metrics["olrp"] == 0.0
        assert metrics["lrp_loc"] == 0.0 and metrics["lrp_fp"] == 0.0
        assert all(v == 0.0 for v in metrics["fp_tp_curve"].values())

    def test_hedging_moves_everything_but_map(self, synth):
        metrics, _ = evaluate(synth, perfect_detector(synth, spatial_copies=5))
        assert metrics["map"] == 1.0
        assert metrics["dc"] > 0.0
        assert metrics["f1"] == pytest.approx(2 / 7)
        # every hedge is an extra FP at the fixed cutoff, but the optimal
        # cutoff sits above them and recovers the perfect prefix
        assert metrics["lrp"] > 0.0
        assert metrics["olrp"] == 0.0

    def test_verify_exercises_all_oracles(self, synth):
        _, verify = evaluate(synth, perfect_detector(synth, spatial_copies=2),
                             EvalConfig(verify=True))
        assert verify["ok"]
        assert verify["images_checked"] >= 1
        assert verify["matches_checked"] > 0
        assert verify["graphs_checked"] > 0

    def test_verify_checks_every_confidence_floor(self, synth, monkeypatch):
        # the package exports a function named evaluate over the submodule
        evaluate_mod = importlib.import_module("hedgeval.evaluate")

        dets = perfect_detector(synth, spatial_copies=2)
        _, clean = evaluate(synth, dets, EvalConfig(verify=True))
        whole_graph_only = evaluate_mod.dc_single

        def off_at_floors(g, floor=None):
            return whole_graph_only(g, floor) + (0.0 if floor is None else 1e-6)

        monkeypatch.setattr(evaluate_mod, "dc_single", off_at_floors)
        _, broken = evaluate(synth, dets, EvalConfig(verify=True))
        assert clean["ok"] and not broken["ok"]
        assert broken["graphs_checked"] == clean["graphs_checked"] > 0


    def test_verify_checks_the_mask_table(self, synth, monkeypatch):
        evaluate_mod = importlib.import_module("hedgeval.evaluate")

        dets = perfect_detector(synth, spatial_copies=2)
        _, clean = evaluate(synth, dets, EvalConfig(verify=True))
        right_table = evaluate_mod.image_table

        def one_pixel_off(gts, dets):
            # the first detection loses a pixel from its crop but not its area
            t = right_table(gts, dets)
            crops = list(t.crops)
            crops[0] = crops[0].copy()
            crops[0][tuple(np.argwhere(crops[0])[0])] = False
            return MaskTable(t.shape, t.boxes, t.areas, tuple(crops))

        monkeypatch.setattr(evaluate_mod, "image_table", one_pixel_off)
        _, broken = evaluate(synth, dets, EvalConfig(verify=True))
        assert clean["ok"] and not broken["ok"]
        assert broken["images_checked"] == clean["images_checked"]
        assert broken["graphs_checked"] == clean["graphs_checked"]

    @staticmethod
    def _verify_clean_and_broken(synth, monkeypatch, name, wrap):
        """Verify hedged detections, then again with ``evaluate``'s ``name``
        replaced by ``wrap`` of it: the second run must fail, with the same
        counts. Returns both runs' metrics."""
        evaluate_mod = importlib.import_module("hedgeval.evaluate")
        dets = perfect_detector(synth, spatial_copies=2)
        clean_metrics, clean = evaluate(synth, dets, EvalConfig(verify=True))
        monkeypatch.setattr(evaluate_mod, name, wrap(getattr(evaluate_mod, name)))
        metrics, broken = evaluate(synth, dets, EvalConfig(verify=True))
        assert clean["ok"] and not broken["ok"]
        for key in ("images_checked", "matches_checked", "graphs_checked"):
            assert broken[key] == clean[key]
        return clean_metrics, metrics

    @staticmethod
    def _each_record(change):
        """A ``ranked_image`` wrapper that applies ``change`` to every record."""
        def wrap(ranked_image):
            def corrupted(*args):
                *rest, rows = ranked_image(*args)
                return (*rest, {c: change(r) for c, r in rows.items()})
            return corrupted
        return wrap

    def test_verify_checks_the_record_scores(self, synth, monkeypatch):
        def reversed_scores(r):
            return dataclasses.replace(r, scores=r.scores[::-1].copy())

        clean, broken = self._verify_clean_and_broken(
            synth, monkeypatch, "ranked_image", self._each_record(reversed_scores))
        assert clean["map"] == 1.0 > broken["map"]

    def test_verify_checks_the_cap_marks(self, synth, monkeypatch):
        def first_flipped(r):
            capped = r.capped.copy()
            capped[0] = not capped[0]
            return dataclasses.replace(r, capped=capped)

        self._verify_clean_and_broken(synth, monkeypatch, "ranked_image",
                                      self._each_record(first_flipped))

    def test_verify_checks_the_dc_blocks(self, synth, monkeypatch):
        def one_entry_off(compute_slices):
            def corrupted(*args):
                slices = list(compute_slices(*args))
                for *_, kept in slices:  # the sampled images' blocks
                    for _, block in (kept[0].values() if kept else ()):
                        block[0, -1] = np.nextafter(block[0, -1], 2.0)  # crosses no threshold
                return slices
            return corrupted

        self._verify_clean_and_broken(synth, monkeypatch, "compute_slices", one_entry_off)

    def test_verify_checks_the_reported_dc_cells(self, synth, monkeypatch):
        def one_cell_off(compute_slices):
            def corrupted(*args):
                slices = list(compute_slices(*args))
                for _, grids, _, kept in slices:
                    if kept:  # a sampled image: its first group at the first DC IoU threshold
                        row = grids[0][0]
                        row[next(vi for vi, x in enumerate(row) if x is not None)] += 1e-6
                return slices
            return corrupted

        self._verify_clean_and_broken(synth, monkeypatch, "compute_slices", one_cell_off)

    def test_only_the_sampled_images_keep_their_blocks(self, synth, monkeypatch):
        # every other image leaves the pass as reduced values: no det x det
        # or det x GT block outlives it
        evaluate_mod = importlib.import_module("hedgeval.evaluate")
        outputs = []

        def recorded(compute_slices):
            def wrapper(*args):
                outputs.append(list(compute_slices(*args)))
                return outputs[-1]
            return wrapper

        monkeypatch.setattr(evaluate_mod, "compute_slices", recorded(evaluate_mod.compute_slices))
        dets = perfect_detector(synth, spatial_copies=2)
        evaluate(synth, dets)
        _, verify = evaluate(synth, dets, EvalConfig(verify=True))
        holding = [[any(a.ndim == 2 for a in _arrays(entry)) for entry in out] for out in outputs]
        assert len(holding[0]) == len(synth.images)
        assert sum(holding[0]) == 0
        assert sum(holding[1]) == verify["images_checked"] == 1


def _arrays(value):
    """Every numpy array inside ``value``: through dicts, sequences and
    dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _arrays(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


class TestPerCategory:
    def test_category_without_gt_is_null_in_ap(self):
        ds, dets = scene([(box(2, 2), 1)],
                         [(box(2, 2), 1, 0.9), (box(20, 20), 2, 0.8)],
                         n_categories=2)
        metrics, _ = evaluate(ds, dets)
        assert metrics["ap_per_category"] == {"1": 1.0, "2": None}
        assert metrics["map"] == 1.0  # the undefined category is skipped
        assert metrics["f1_per_category"]["2"] == 0.0

    def test_lrp_averages_over_categories_with_gt(self):
        # cat 1: perfect single TP; cat 2: one GT, no detections
        ds, dets = scene([(box(2, 2), 1), (box(20, 20), 2)],
                         [(box(2, 2), 1, 0.9)], n_categories=2)
        metrics, _ = evaluate(ds, dets)
        assert metrics["lrp"] == pytest.approx(0.5)  # (0 + 1) / 2
        assert metrics["lrp_fn"] == pytest.approx(0.5)
        # loc is undefined for cat 2 (no TP) and averages over cat 1 only
        assert metrics["lrp_loc"] == 0.0
        assert metrics["ne"] == 0.0

    @pytest.mark.parametrize("iou_thrs, lrp_thr", [
        ((0.5,), 0.8),  # the LRP threshold is no AP threshold
        ((0.5, 0.8), 0.8),  # it is one, not the first
        ((0.8, 0.5), 0.5),
    ])
    def test_lrp_reads_the_match_at_its_own_threshold(self, iou_thrs, lrp_thr):
        # the first detection overlaps its GT at IoU 0.6: a TP at 0.5, an FP at 0.8
        gts = [box(2, 2), box(20, 20)]
        det_specs = [(box(2, 3), 0.9), (box(20, 20), 0.8)]
        ds, dets = scene([(g, 1) for g in gts], [(m, 1, s) for m, s in det_specs])
        metrics, _ = evaluate(ds, dets, EvalConfig(iou_thrs=iou_thrs, lrp_iou_thr=lrp_thr))
        dm = [decode(m) for m, _ in det_specs]
        scores = [s for _, s in det_specs]
        want = lrp(dm, scores, [decode(g) for g in gts], lrp_thr)
        assert want.lrp == pytest.approx(0.4 if lrp_thr == 0.5 else 2 / 3)
        for name in ("lrp", "lrp_loc", "lrp_fp", "lrp_fn"):
            assert metrics[name] == pytest.approx(getattr(want, name), abs=1e-12)
        best, _ = olrp(dm, scores, [decode(g) for g in gts], lrp_thr)
        assert metrics["olrp"] == pytest.approx(best.lrp, abs=1e-12)


class TestDetectionSetSemantics:
    def test_max_dets_caps_ranked_metrics_only(self):
        gt = box(2, 2)
        far1, far2 = box(20, 20), box(26, 26)
        ds, dets = scene([(gt, 1)],
                         [(far1, 1, 0.9), (far2, 1, 0.8), (gt, 1, 0.7)])
        capped, _ = evaluate(ds, dets, EvalConfig(max_dets=2))
        assert capped["map"] == 0.0  # the TP fell off the ranked list
        assert capped["f1"] == pytest.approx(0.5)  # 1 TP, 2 FP, 0 FN
        full, _ = evaluate(ds, dets, EvalConfig(max_dets=3))
        assert full["map"] > 0.0

    def test_min_score_filters_the_f1_path(self):
        gt = box(2, 2)
        junk = [(box(20, 20), 1, 0.1), (box(26, 26), 1, 0.1)]
        ds, dets = scene([(gt, 1)], [(gt, 1, 0.9)] + junk)
        raw, _ = evaluate(ds, dets)
        cut, _ = evaluate(ds, dets, EvalConfig(min_score=0.2))
        assert raw["f1"] == pytest.approx(2 / 4)  # 1 TP, 2 FP
        assert cut["f1"] == 1.0
        assert raw["map"] == cut["map"] == 1.0  # junk ranks below the TP

    def test_fp_tp_curve_known_values(self):
        gt = box(2, 2)
        ds, dets = scene([(gt, 1)], [(box(20, 20), 1, 0.9), (gt, 1, 0.8)])
        metrics, _ = evaluate(ds, dets)
        curve = metrics["fp_tp_curve"]
        assert curve["0.00"] is None  # rank 1 has no TP yet
        assert all(curve[f"{b / 10:.2f}"] == 1.0 for b in range(1, 11))


    def test_f1_pool_is_image_major(self):
        # equal scores rank in pooling order: image 1's two TPs (one per
        # category) come before image 2's two FPs only if images go first
        cats = {1: CategoryInfo(1, "a"), 2: CategoryInfo(2, "b")}
        images = {1: ImageInfo(1, H, W), 2: ImageInfo(2, H, W)}
        gts = {1: [GroundTruthInstance(1, 1, 1, box(2, 2)), GroundTruthInstance(1, 2, 2, box(20, 20))],
               2: []}
        dets = {1: [Detection(1, 1, 0.9, box(2, 2)), Detection(1, 2, 0.9, box(20, 20))],
                2: [Detection(2, 1, 0.9, box(2, 2)), Detection(2, 2, 0.9, box(20, 20))]}
        metrics, _ = evaluate(Dataset(images, cats, gts), dets)
        # recall 1 at rank 2 with no FP; category-major pooling reaches it at rank 3 with one
        assert metrics["fp_tp_curve"]["1.00"] == 0.0
        assert metrics["fp_tp_curve"]["0.50"] == 0.0


class TestNamingErrorPath:
    def test_relabeled_copy_counts(self):
        a, b = box(2, 2), box(20, 20)
        ds, dets = scene([(a, 1), (b, 2)],
                         [(a, 1, 0.9), (b, 2, 0.9), (a, 2, 0.5)],
                         n_categories=2)
        metrics, _ = evaluate(ds, dets)
        assert metrics["ne"] == pytest.approx(0.5)
        assert metrics["ne_mismatch_count"] == 1
        assert metrics["n_gt"] == 2


class TestDuplicateConfusionPath:
    @pytest.mark.parametrize("grid", [
        {},
        {"dc_iou_thrs": (0.3, 0.6), "dc_conf_thrs": (0.2, 0.55, 0.95)},
    ])
    def test_pools_as_duplicate_confusion(self, grid):
        # same-category overlaps at IoU 0.6 and 0.75, a detection below
        # every floor, and records listed out of image and category order
        images = {i: ImageInfo(i, H, W) for i in (1, 2)}
        cats = {c: CategoryInfo(c, f"c{c}") for c in (1, 2)}
        gts = {1: [GroundTruthInstance(1, 1, 1, box(0, 0)), GroundTruthInstance(1, 2, 2, box(10, 10))],
               2: [GroundTruthInstance(2, 3, 2, box(20, 20))]}
        dets = {
            2: [Detection(2, 2, 0.7, box(20, 20)), Detection(2, 1, 0.4, box(5, 5)),
                Detection(2, 2, 0.96, box(20, 21, ww=3)), Detection(2, 2, 0.05, box(21, 20))],
            1: [Detection(1, 2, 0.8, box(10, 10)), Detection(1, 1, 0.9, box(0, 0)),
                Detection(1, 1, 0.6, box(1, 0)), Detection(1, 2, 0.5, box(10, 11)),
                Detection(1, 1, 0.3, box(0, 1))],
        }
        cfg = EvalConfig(**grid)
        metrics, _ = evaluate(Dataset(images, cats, gts), dets, cfg)

        groups = []
        for image_id in sorted(dets):
            for cat in sorted(cats):
                group = [d for d in dets[image_id] if d.category_id == cat]
                masks = [decode(d.mask) for d in group]
                groups.append((np.array([d.score for d in group]), iou_matrix(masks, masks)))
        want = duplicate_confusion(groups, DcConfig(cfg.dc_iou_thrs, cfg.dc_conf_thrs))
        assert want.dc > 0.0
        assert (metrics["dc"], metrics["dc_grid"], metrics["dc_cells"]) == (
            want.dc, want.grid, want.cells)


class TestDegenerateInputs:
    def test_no_detections_at_all(self):
        ds, _ = scene([(box(2, 2), 1)], [])
        metrics, _ = evaluate(ds, {})
        assert metrics["map"] == 0.0
        assert metrics["f1"] == 0.0
        assert metrics["dc"] == 0.0
        assert all(c == 0 for row in metrics["dc_cells"] for c in row)
        assert metrics["ne"] == 0.0
        assert metrics["lrp"] == 1.0 and metrics["lrp_fn"] == 1.0
        assert metrics["lrp_loc"] is None and metrics["lrp_fp"] is None
        assert metrics["olrp"] == 1.0

    def test_image_without_entries_is_fine(self):
        ds, dets = scene([(box(2, 2), 1)], [(box(2, 2), 1, 0.9)])
        ds.images[2] = ImageInfo(2, H, W)
        ds.gts_by_image[2] = []
        metrics, _ = evaluate(ds, dets)
        assert metrics["map"] == 1.0

    def test_no_ground_truth_anywhere(self):
        ds, dets = scene([], [(box(2, 2), 1, 0.9)])
        metrics, _ = evaluate(ds, dets)
        assert metrics["map"] is None
        assert metrics["ne"] is None
        assert metrics["lrp"] is None and metrics["olrp"] is None


class TestBuildReport:
    def test_structure_and_serializability(self):
        ds, _ = generate(SynthConfig(n_images=3, seed=1))
        result = DetectionLoadResult(perfect_detector(ds), rejected_bad_score=2,
                                     rejected_empty_mask=1)
        report = build_report(ds, result, EvalConfig(verify=True),
                              source={"gt": "a.json", "dt": "b.json"})
        for key in ("version", "created_at", "config", "counts", "metrics", "verify"):
            assert key in report
        assert report["counts"] == {
            "n_images": 3, "n_categories": 1,
            "n_ground_truths": ds.n_ground_truths,
            "n_detections": ds.n_ground_truths,
            "rejected_bad_score": 2, "rejected_empty_mask": 1,
        }
        assert report["config"]["gt"] == "a.json"
        assert report["config"]["iou_thrs"][0] == 0.5
        assert "threads" not in report["config"]
        datetime.fromisoformat(report["created_at"])
        json.dumps(report)  # everything must be plain JSON types

    def test_accepts_plain_mapping(self):
        ds, dets = scene([(box(2, 2), 1)], [(box(2, 2), 1, 1.0)])
        report = build_report(ds, dets)
        assert report["metrics"]["map"] == 1.0
        assert "verify" not in report
