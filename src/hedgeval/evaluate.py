"""Dataset-level evaluation: one pass over the images, one JSON report.

Metric paths and their detection sets:

- ``ranked_image`` matches every detection of each (image, category) once
  per distinct threshold of ``iou_thrs``, ``lrp_iou_thr`` and
  ``f1_iou_thr``, into one record (``_Rows``) that also marks the
  detections the image's ``max_dets`` cap keeps (top confidences, ties by
  file order).
- AP / mAP, LRP / oLRP and ``prcurve`` read the capped detections
  (``_Rows.ranked``); F1 and the FP:TP ratio curve read, uncapped, those
  with score >= ``min_score`` (``_Rows.floored``; default 0: all) at
  ``f1_iou_thr``. Both sets are prefixes of the category's confidence
  order, and the greedy match decides each detection only from those
  ranked above it, so each set's cut of the record is its own match.
- Duplicate confusion and naming error see the full unfiltered detection
  set; their own confidence grid does the thresholding.

One serial pass reduces each image to values (records, DC cell scores, NE
counts); only ``--verify``'s sampled images keep their IoU blocks. The
reduction concatenates each category's records over images, pools the F1
path image-major, then by category, and the DC and NE values by image.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .coco import Dataset, DetectionLoadResult
from .hedging import (
    DEFAULT_DC_CONF_THRS,
    DEFAULT_DC_IOU_THRS,
    DcConfig,
    DetectionGraph,
    _dc_result,
    _ne_result,
    check_distinct,
    dc_cell_scores,
    dc_single,
    naming_error,
)
from .lrp import lrp_from_matching, olrp_scan
from .mask import MaskTable, decode, iou, table_iou, table_pairwise_iou
from .matching import confidence_order, greedy_match_from_ious
from .pr import (
    average_precision,
    build_pr_curve,
    f1_from_counts,
    fp_tp_ratio_curve,
    mean_ap,
)

DEFAULT_AP_IOU_THRS = tuple(np.arange(50, 100, 5) / 100.0)  # 0.50 .. 0.95

VERIFY_TOL = 1e-9
VERIFY_MAX_GRAPH = 8  # path enumeration stays feasible up to here


@dataclass(frozen=True)
class EvalConfig:
    """Fully resolved evaluation parameters, echoed into every report."""

    iou_thrs: tuple[float, ...] = DEFAULT_AP_IOU_THRS
    dc_iou_thrs: tuple[float, ...] = DEFAULT_DC_IOU_THRS
    dc_conf_thrs: tuple[float, ...] = DEFAULT_DC_CONF_THRS
    f1_iou_thr: float = 0.5
    lrp_iou_thr: float = 0.5
    min_score: float = 0.0
    max_dets: int = 100
    verify: bool = False
    verify_seed: int = 0

    def __post_init__(self):
        if not self.iou_thrs:
            raise ValueError("iou_thrs must be non-empty")
        for t in (*self.iou_thrs, self.f1_iou_thr, self.lrp_iou_thr):
            if not 0.0 < t < 1.0:
                raise ValueError(f"IoU thresholds must lie in (0, 1), got {t}")
        for name in ("iou_thrs", "dc_iou_thrs", "dc_conf_thrs"):
            check_distinct(name, getattr(self, name))
        DcConfig(self.dc_iou_thrs, self.dc_conf_thrs)  # reuse its validation
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError("min_score must lie in [0, 1]")
        if self.max_dets < 1:
            raise ValueError("max_dets must be at least 1")
        if self.verify_seed < 0:
            raise ValueError("verify_seed must be non-negative")


@dataclass(frozen=True)
class _Rows:
    """One category's detections in one image, or pooled over images, in
    file order: their scores, whether the image's ``max_dets`` cap keeps
    each, and per IoU threshold their greedily matched IoUs (0.0 for an FP;
    a TP's reaches its threshold, which is positive)."""

    scores: np.ndarray
    capped: np.ndarray  # bool per detection
    ious: dict  # thr -> matched IoU per detection
    n_gt: int

    def where(self, keep) -> _Rows:
        """The detections ``keep`` selects, against every ground truth."""
        return _Rows(self.scores[keep], self.capped[keep],
                     {t: v[keep] for t, v in self.ious.items()}, self.n_gt)

    def ranked(self) -> _Rows:
        """The AP/LRP/prcurve detections: those the ``max_dets`` cap keeps."""
        return self.where(self.capped)

    def floored(self, min_score: float) -> _Rows:
        """The F1 detections: those with score >= ``min_score``, uncapped."""
        return self.where(self.scores >= min_score)

    def tp(self, thr) -> np.ndarray:
        return self.ious[thr] > 0


def image_table(gts, dets) -> MaskTable:
    """The one mask table of an image: its detections, then its ground
    truths, read from their RLE runs."""
    return MaskTable.from_rles([d.mask for d in dets] + [g.mask for g in gts])


def ranked_image(gts, dets, thrs, max_dets: int):
    """Build one image's mask table and match each of its categories once.

    Returns the ``image_table``, its det x GT IoU block, the detections' and
    the ground truths' categories and, per category with a detection or a
    ground truth, its ``_Rows``: one greedy match per threshold of ``thrs``
    over all its detections, and which of them the ``max_dets`` cap keeps.
    """
    table, n = image_table(gts, dets), len(dets)
    det_gt = table_iou(table.take(np.arange(n)), table.take(np.arange(n, len(table))))
    scores = np.array([d.score for d in dets], dtype=np.float64)
    det_cats = np.array([d.category_id for d in dets], dtype=np.int64)
    gt_cats = np.array([g.category_id for g in gts], dtype=np.int64)

    capped = np.zeros(n, dtype=bool)
    capped[confidence_order(scores)[:max_dets]] = True

    rows = {}
    for cat in sorted(set(det_cats.tolist()) | set(gt_cats.tolist())):
        d = np.flatnonzero(det_cats == cat)
        g = np.flatnonzero(gt_cats == cat)
        ious, s = det_gt[np.ix_(d, g)], scores[d]
        matched = {t: np.array(greedy_match_from_ious(ious, s, t).det_iou, dtype=np.float64)
                   for t in thrs}
        rows[cat] = _Rows(s, capped[d], matched, int(g.size))
    return table, det_gt, det_cats, gt_cats, rows


def compute_slices(dataset: Dataset, dets_by_image, cfg: EvalConfig, thrs, keep=()):
    """Yield per image, in image-id order: its records matched per ``thrs``,
    each DC group's ``dc_cell_scores`` (in the records' order), its ``NeResult``
    and, at the positions in ``keep`` only, the DC groups (scores, det x det
    IoU block) and NE item (det x GT block, labels) that these came from."""
    dc_cfg = DcConfig(cfg.dc_iou_thrs, cfg.dc_conf_thrs)
    for pos, image_id in enumerate(sorted(dataset.images)):
        table, det_gt, det_cats, gt_cats, rows = ranked_image(
            dataset.gts_by_image.get(image_id, []), dets_by_image.get(image_id, []),
            thrs, cfg.max_dets)
        groups = {c: (r.scores, table_pairwise_iou(table.take(np.flatnonzero(det_cats == c))))
                  for c, r in rows.items() if r.scores.size}
        ne_item = (det_gt, det_cats.tolist(), gt_cats.tolist())
        yield (rows, [dc_cell_scores(*g, dc_cfg) for g in groups.values()],
               naming_error([ne_item]), (groups, ne_item) if pos in keep else None)


def _concat(chunks, dtype=np.float64) -> np.ndarray:
    return np.concatenate([*chunks, np.zeros(0, dtype)])


def pool_rows(records, thrs) -> _Rows:
    """``_Rows`` records concatenated in the order given (one category's
    over images: image-major)."""
    return _Rows(_concat(r.scores for r in records), _concat((r.capped for r in records), bool),
                 {t: _concat(r.ious[t] for r in records) for t in thrs},
                 sum(r.n_gt for r in records))


def evaluate(dataset: Dataset, dets_by_image, cfg: EvalConfig | None = None
             ) -> tuple[dict, dict | None]:
    """Compute the report's ``metrics`` object (and ``verify``, if enabled).

    ``dets_by_image`` maps image id to its Detection list; images without an
    entry count as having no detections.
    """
    cfg = cfg or EvalConfig()
    thrs = dict.fromkeys((*cfg.iou_thrs, cfg.lrp_iou_thr, cfg.f1_iou_thr))
    rng, picks = None, []
    if cfg.verify:  # the sample is the RNG's first draw, known before the pass
        rng, n = np.random.default_rng(cfg.verify_seed), len(dataset.images)
        picks = sorted(rng.choice(n, size=min(n, max(1, round(0.01 * n))), replace=False).tolist())
    slices = list(compute_slices(dataset, dets_by_image, cfg, thrs, set(picks)))
    cats = sorted(dataset.categories)
    pooled = {c: pool_rows([r[c] for r, *_ in slices if c in r], thrs) for c in cats}
    ranked = {c: rows.ranked() for c, rows in pooled.items()}

    curves = {(c, t): build_pr_curve(r.scores, r.tp(t), r.n_gt, t, c)
              for c, r in ranked.items() for t in cfg.iou_thrs}
    ap = {c: {t: average_precision(curves[(c, t)]) for t in cfg.iou_thrs} for c in cats}

    lrp_by_cat, olrp_by_cat = {}, {}
    t = cfg.lrp_iou_thr
    for cat, rows in ranked.items():
        if rows.n_gt == 0:
            continue
        tp, ious = rows.tp(t), rows.ious[t]
        lrp_by_cat[cat] = lrp_from_matching(ious[tp], int((~tp).sum()),
                                            rows.n_gt - int(tp.sum()), t)
        olrp_by_cat[cat] = olrp_scan(rows.scores, tp, ious, rows.n_gt, t)[0].lrp

    t = cfg.f1_iou_thr
    f1_tp, f1_det = {}, {}
    for cat, rows in pooled.items():
        tp = rows.floored(cfg.min_score).tp(t)
        f1_tp[cat], f1_det[cat] = int(tp.sum()), tp.size
    total_gt = sum(r.n_gt for r in pooled.values())
    total_tp, total_det = sum(f1_tp.values()), sum(f1_det.values())
    # image-major, then category: build_pr_curve breaks score ties by input order
    plain = pool_rows([r for rows, *_ in slices for r in rows.values()], thrs).floored(cfg.min_score)
    curve = build_pr_curve(plain.scores, plain.tp(t), total_gt, t)
    bins = np.linspace(0.0, 1.0, 11)
    ratios = fp_tp_ratio_curve(curve, bins)

    dc_res = _dc_result([g for _, grids, *_ in slices for g in grids],
                        DcConfig(cfg.dc_iou_thrs, cfg.dc_conf_thrs))
    ne_res = _ne_result(sum(ne.mismatches for _, _, ne, _ in slices),
                        sum(ne.n_gt for _, _, ne, _ in slices))

    metrics = {
        "map": mean_ap([ap[c][t] for c in cats for t in cfg.iou_thrs]),
        "ap_per_category": {str(c): mean_ap(ap[c].values()) for c in cats},
        "f1": f1_from_counts(total_tp, total_det - total_tp, total_gt - total_tp),
        "f1_per_category": {
            str(c): f1_from_counts(f1_tp[c], f1_det[c] - f1_tp[c], pooled[c].n_gt - f1_tp[c])
            for c in cats
        },
        "dc": dc_res.dc,
        "dc_grid": dc_res.grid,
        "dc_cells": dc_res.cells,
        "ne": ne_res.ne,
        "ne_mismatch_count": ne_res.mismatches,
        "n_gt": ne_res.n_gt,
        "lrp": mean_ap(r.lrp for r in lrp_by_cat.values()),
        "lrp_loc": mean_ap(r.lrp_loc for r in lrp_by_cat.values()),
        "lrp_fp": mean_ap(r.lrp_fp for r in lrp_by_cat.values()),
        "lrp_fn": mean_ap(r.lrp_fn for r in lrp_by_cat.values()),
        "olrp": mean_ap(olrp_by_cat.values()),
        "fp_tp_curve": {f"{b:.2f}": r for b, r in zip(bins, ratios)},
    }
    verify = _verify(dataset, dets_by_image, slices, picks, rng, curves, cfg) if cfg.verify else None
    return metrics, verify


def _dense_iou(rows, cols) -> np.ndarray:
    return np.array([[iou(a, b) for b in cols] for a in rows]).reshape(len(rows), len(cols))


def _verify(dataset: Dataset, dets_by_image, slices, picks, rng, curves, cfg: EvalConfig) -> dict:
    """Check what ``evaluate`` reported for the image positions ``picks``
    (drawn by ``rng``) against the brute-force references, the decoded
    masks and the input detections' own scores. Nothing is rebuilt.

    Per sampled image, its ``compute_slices`` entry: each record's scores,
    ``max_dets`` marks (the image's top detections by score, ties in file
    order) and greedy match (TP flags and matched IoUs at the first AP IoU
    threshold, ``lrp_iou_thr`` and ``f1_iou_thr``); the det x GT block and
    each category's DC det x det block against ``iou``, entry for entry;
    the naming-error counts; duplicate confusion on small graphs read
    from those DC blocks (the whole graph and each confidence floor of
    ``cfg.dc_conf_thrs``); and each group's reported DC cells at the first
    DC IoU threshold, by path enumeration where the floor keeps at most
    ``VERIFY_MAX_GRAPH`` detections, else by ``dc_single`` on the whole
    block's graph. Then the 101-point AP of every category at the first
    IoU threshold.
    """
    from .oracles import (ap_naive, dc_bruteforce, induced_subgraph, match_bruteforce,
                          naming_error_bruteforce)

    ids = sorted(dataset.images)
    ok = True
    matches_checked = graphs_checked = 0

    t0 = cfg.iou_thrs[0]
    match_thrs = dict.fromkeys((t0, cfg.lrp_iou_thr, cfg.f1_iou_thr))
    dc_t, dc_v = cfg.dc_iou_thrs[0], cfg.dc_conf_thrs[0]
    for i in picks:
        rows, grids, ne, (dc_groups, (det_gt, *labels)) = slices[i]
        dc_cells = dict(zip(dc_groups, grids))
        gts, dets = dataset.gts_by_image.get(ids[i], []), dets_by_image.get(ids[i], [])
        det_masks, gt_masks = [decode(d.mask) for d in dets], [decode(g.mask) for g in gts]
        det_cats, gt_cats = [d.category_id for d in dets], [g.category_id for g in gts]
        scores = np.array([d.score for d in dets], dtype=np.float64)
        capped = np.zeros(len(dets), dtype=bool)
        capped[sorted(range(len(dets)), key=lambda j: (-scores[j], j))[:cfg.max_dets]] = True
        cats = sorted(set(det_cats) | set(gt_cats))
        if (labels != [det_cats, gt_cats] or list(rows) != cats
                or list(dc_groups) != [c for c in cats if c in det_cats]
                or not np.array_equal(det_gt, _dense_iou(det_masks, gt_masks))
                or (ne.mismatches, ne.n_gt) != (
                    naming_error_bruteforce(det_masks, det_cats, gt_masks, gt_cats), len(gts))):
            ok = False
        for cat, rec in rows.items():
            d = [j for j, c in enumerate(det_cats) if c == cat]
            dm, s = [det_masks[j] for j in d], scores[d]
            gm = [m for m, c in zip(gt_masks, gt_cats) if c == cat]
            matches_checked += len(d)
            if not (np.array_equal(rec.scores, s) and np.array_equal(rec.capped, capped[d])
                    and rec.n_gt == len(gm)):
                ok = False
            for t in match_thrs:
                want = match_bruteforce(dm, s, gm, t)
                if not (np.array_equal(rec.tp(t), [g is not None for g in want.det_to_gt])
                        and np.allclose(rec.ious[t], want.det_iou, atol=VERIFY_TOL)):
                    ok = False
            if cat not in dc_groups:
                continue
            dc_scores, block = dc_groups[cat]
            if not (np.array_equal(dc_scores, s) and np.array_equal(block, _dense_iou(dm, dm))):
                ok = False
            whole = DetectionGraph.from_ious(s, block, dc_t)
            for v, got in zip(cfg.dc_conf_thrs, dc_cells[cat][0]):  # the cells eval pooled
                n = np.count_nonzero(s >= v)
                if not n:
                    if got is not None:
                        ok = False
                    continue
                want = (dc_bruteforce(induced_subgraph(whole, v)) if n <= VERIFY_MAX_GRAPH
                        else dc_single(whole, v))
                if got is None or abs(got - want) > VERIFY_TOL:
                    ok = False
            keep = np.flatnonzero(s >= dc_v)
            if keep.size > VERIFY_MAX_GRAPH:
                # induced subgraph keeps path enumeration feasible while
                # still exercising the production algorithm on real data
                keep = np.sort(rng.choice(keep, size=VERIFY_MAX_GRAPH, replace=False))
            if keep.size >= 2:
                g = DetectionGraph.from_ious(s[keep], block[np.ix_(keep, keep)], dc_t)
                graphs_checked += 1
                if abs(dc_single(g) - dc_bruteforce(g)) > VERIFY_TOL:
                    ok = False
                for v in cfg.dc_conf_thrs:  # the floors duplicate_confusion reads
                    if abs(dc_single(g, v) - dc_bruteforce(induced_subgraph(g, v))) > VERIFY_TOL:
                        ok = False

    for cat in sorted(dataset.categories):
        curve = curves[(cat, t0)]
        want_ap = ap_naive(curve.is_tp, curve.n_gt)
        got_ap = average_precision(curve)
        if (want_ap is None) != (got_ap is None):
            ok = False
        elif want_ap is not None and abs(want_ap - got_ap) > VERIFY_TOL:
            ok = False

    return {"images_checked": len(picks), "graphs_checked": graphs_checked,
            "matches_checked": matches_checked, "ok": ok}


def build_report(dataset: Dataset, detections, cfg: EvalConfig | None = None,
                 source: dict | None = None) -> dict:
    """Assemble the full report dict (see schemas/report.schema.json).

    ``detections`` is a DetectionLoadResult or a plain image-id -> list
    mapping. ``source`` holds extra config entries to record (input paths,
    requested metric names); worker-count and other non-semantic run options
    stay out so identical inputs give identical reports.
    """
    cfg = cfg or EvalConfig()
    if isinstance(detections, DetectionLoadResult):
        by_image = detections.by_image
        rejected = (detections.rejected_bad_score, detections.rejected_empty_mask)
    else:
        by_image = detections
        rejected = (0, 0)
    metrics, verify = evaluate(dataset, by_image, cfg)
    report = {
        "version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            **(source or {}),
            "iou_thrs": [float(t) for t in cfg.iou_thrs],
            "dc_iou_thrs": [float(t) for t in cfg.dc_iou_thrs],
            "dc_conf_thrs": [float(v) for v in cfg.dc_conf_thrs],
            "f1_iou_thr": cfg.f1_iou_thr,
            "lrp_iou_thr": cfg.lrp_iou_thr,
            "min_score": cfg.min_score,
            "max_dets": cfg.max_dets,
        },
        "counts": {
            "n_images": len(dataset.images),
            "n_categories": len(dataset.categories),
            "n_ground_truths": dataset.n_ground_truths,
            "n_detections": sum(len(v) for v in by_image.values()),
            "rejected_bad_score": rejected[0],
            "rejected_empty_mask": rejected[1],
        },
        "metrics": metrics,
    }
    if verify is not None:
        report["verify"] = verify
    return report
