"""Precision-recall curves, interpolated AP, F1, and FP:TP ratio curves.

AP follows the 101-point interpolation convention: detections are ranked by
descending confidence dataset-wide, precision at a sampled recall r is the
maximum precision attained at any recall >= r, and the samples
{0.00, 0.01, ..., 1.00} are averaged. The construction is deliberately blind
to everything below the last true positive, which is what lets hedged
low-confidence output ride along for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import confidence_order, greedy_match

AP_RECALL_SAMPLES = np.arange(101) / 100.0
FP_TP_RECALL_BINS = np.arange(11) / 10  # k / 10 exactly as floats: 0.3, not 0.30000000000000004


@dataclass
class PrCurve:
    """Ranked detection flags of one category with cumulative P/R."""

    scores: np.ndarray  # descending confidence per rank
    is_tp: np.ndarray  # bool per rank
    precision: np.ndarray  # TP / (TP + FP) over the rank prefix
    recall: np.ndarray  # TP / n_gt over the rank prefix
    n_gt: int
    iou_thr: float = 0.5
    category: int | None = None

    def __len__(self) -> int:
        return len(self.scores)


def build_pr_curve(scores, is_tp, n_gt: int, iou_thr: float = 0.5,
                   category: int | None = None) -> PrCurve:
    """Rank dataset-wide detection flags into a PR curve.

    ``scores`` and ``is_tp`` are parallel per-detection sequences in
    ingestion order; ranking sorts by descending score with ties keeping
    ingestion order, so the caller controls tie behaviour through input
    order (images in file order, detections in file order).
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_tp = np.asarray(is_tp, dtype=bool)
    if scores.shape != is_tp.shape:
        raise ValueError("scores and is_tp must have equal length")
    order = confidence_order(scores)
    scores = scores[order]
    is_tp = is_tp[order]
    tp_cum = np.cumsum(is_tp)
    ranks = np.arange(1, len(scores) + 1)
    precision = tp_cum / ranks if len(scores) else np.zeros(0)
    recall = tp_cum / n_gt if n_gt else np.zeros(len(scores))
    return PrCurve(scores, is_tp, precision, recall, n_gt, iou_thr, category)


def average_precision(curve: PrCurve) -> float | None:
    """101-point interpolated AP; None when the category has no ground truth."""
    if curve.n_gt == 0:
        return None
    if len(curve) == 0:
        return 0.0
    # envelope: best precision achieved at this recall or beyond
    envelope = np.maximum.accumulate(curve.precision[::-1])[::-1]
    idx = np.searchsorted(curve.recall, AP_RECALL_SAMPLES, side="left")
    sampled = np.where(idx < len(envelope), envelope[np.minimum(idx, len(envelope) - 1)], 0.0)
    return float(sampled.mean())


def mean_ap(ap_values) -> float | None:
    """Mean over defined cells; None when every cell is undefined."""
    defined = [v for v in ap_values if v is not None]
    return float(np.mean(defined)) if defined else None


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if tp else 0.0


def f1_score(det_masks, det_scores, gt_masks, iou_thr: float) -> float:
    """F1 of one (image, category) group over every emitted detection."""
    res = greedy_match(det_masks, det_scores, gt_masks, iou_thr)
    tp = res.n_tp
    return f1_from_counts(tp, len(det_masks) - tp, len(gt_masks) - tp)


def fp_tp_ratio_curve(curve: PrCurve, recall_bins=None) -> list[float | None]:
    """Cumulative FP/TP ratio at the first rank reaching each recall bin.

    Bins the curve never reaches, or where the reaching prefix has no true
    positive yet, come back as None.
    """
    bins = FP_TP_RECALL_BINS if recall_bins is None else np.asarray(recall_bins, dtype=np.float64)
    tp_cum = np.cumsum(curve.is_tp)
    fp_cum = np.cumsum(~curve.is_tp)
    out: list[float | None] = []
    for r in bins:
        idx = int(np.searchsorted(curve.recall, r, side="left"))
        if idx >= len(curve) or tp_cum[idx] == 0:
            out.append(None)
        else:
            out.append(float(fp_cum[idx] / tp_cum[idx]))
    return out
