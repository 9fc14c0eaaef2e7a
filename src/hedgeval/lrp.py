"""Localization-Recall-Precision: a composite error that, unlike AP, charges
for every false positive regardless of its confidence rank.

LRP = [ sum_TP (1 - IoU)/(1 - t) + |FP| + |FN| ] / (|TP| + |FP| + |FN|)

with per-aspect components for localisation quality, FP rate, and FN rate.
oLRP is the minimum over confidence cutoffs taken from the distinct
detection scores. Everything here stays in [0, 1]; the conventional x100
scaling happens only when tables are printed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import confidence_order, greedy_match


@dataclass
class LrpResult:
    """LRP and its components; None marks an undefined ratio (0/0)."""

    lrp: float | None
    lrp_loc: float | None
    lrp_fp: float | None
    lrp_fn: float | None
    tp: int
    fp: int
    fn: int


def _components(loc, n_tp: int, n_fp: int, n_fn: int) -> LrpResult:
    """LRP and its components from the summed localisation error and counts."""
    total = n_tp + n_fp + n_fn
    if total == 0:
        return LrpResult(None, None, None, None, 0, 0, 0)
    return LrpResult(
        lrp=(loc + n_fp + n_fn) / total,
        lrp_loc=loc / n_tp if n_tp else None,
        lrp_fp=n_fp / (n_tp + n_fp) if n_tp + n_fp else None,
        lrp_fn=n_fn / (n_tp + n_fn) if n_tp + n_fn else None,
        tp=n_tp,
        fp=n_fp,
        fn=n_fn,
    )


def lrp_from_matching(tp_ious, n_fp: int, n_fn: int, iou_thr: float) -> LrpResult:
    """Assemble the error from matched-pair IoUs and FP/FN counts."""
    tp_ious = np.asarray(tp_ious, dtype=np.float64)
    # at t = 1 matched pairs are pixel-perfect, so the loc term vanishes
    loc = float(((1.0 - tp_ious) / (1.0 - iou_thr)).sum()) if iou_thr < 1.0 else 0.0
    return _components(loc, len(tp_ious), n_fp, n_fn)


def lrp(det_masks, det_scores, gt_masks, iou_thr: float = 0.5) -> LrpResult:
    """Fixed-cutoff LRP of one (image, category) group, every detection kept."""
    res = greedy_match(det_masks, det_scores, gt_masks, iou_thr)
    tp_ious = [v for g, v in zip(res.det_to_gt, res.det_iou) if g is not None]
    return lrp_from_matching(tp_ious, len(det_masks) - len(tp_ious),
                             len(gt_masks) - len(tp_ious), iou_thr)


def olrp_scan(scores, is_tp, tp_iou, n_gt: int, iou_thr: float) -> tuple[LrpResult, float | None]:
    """Minimum LRP over cutoffs drawn from the distinct detection scores.

    Inputs are per-detection, in any order: ``is_tp`` flags and, for TPs,
    the matched IoU in ``tp_iou`` (ignored for FPs). Greedy matching gives
    each detection's fate independently of anything ranked below it, so a
    cutoff at score s keeps exactly the ranking prefix with scores >= s and
    one cumulative pass covers every cutoff.

    Returns the best result and the cutoff score achieving it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_tp = np.asarray(is_tp, dtype=bool)
    tp_iou = np.asarray(tp_iou, dtype=np.float64)
    if len(scores) == 0:
        return lrp_from_matching([], 0, n_gt, iou_thr), None
    order = confidence_order(scores)
    scores, is_tp, tp_iou = scores[order], is_tp[order], tp_iou[order]
    tp_cum = np.cumsum(is_tp)
    scale = 1.0 / (1.0 - iou_thr) if iou_thr < 1.0 else 0.0
    loc_cum = np.cumsum(np.where(is_tp, (1.0 - tp_iou) * scale, 0.0))
    # last rank of each distinct score value = its cutoff prefix
    cuts = np.flatnonzero(np.diff(scores, append=-np.inf) != 0)
    n_tp = tp_cum[cuts]
    n_fp = cuts + 1 - n_tp
    n_fn = n_gt - n_tp
    # every prefix holds a detection, so no total is 0
    values = (loc_cum[cuts] + n_fp + n_fn) / (n_tp + n_fp + n_fn)
    b = cuts[np.argmin(values)]  # the first minimum: the highest such cutoff
    n_tp = int(tp_cum[b])
    return _components(float(loc_cum[b]), n_tp, int(b) + 1 - n_tp, n_gt - n_tp), float(scores[b])


def olrp(det_masks, det_scores, gt_masks, iou_thr: float = 0.5) -> tuple[LrpResult, float | None]:
    """oLRP of one (image, category) group."""
    res = greedy_match(det_masks, det_scores, gt_masks, iou_thr)
    flags = [g is not None for g in res.det_to_gt]
    return olrp_scan(det_scores, flags, res.det_iou, len(gt_masks), iou_thr)
