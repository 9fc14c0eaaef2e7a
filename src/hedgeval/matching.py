"""Detection-to-ground-truth matching primitives.

Two distinct protocols live here. ``greedy_match`` is the standard COCO
one-to-one, category-aware assignment used by AP, F1 and LRP. It is applied
per (image, category). ``agnostic_match_from_ious`` ignores categories and
confidence entirely and maps each detection to its highest-IoU ground truth;
it feeds the naming-error metric and deliberately allows many detections per
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mask import iou_matrix

AGNOSTIC_IOU_FLOOR = 0.5  # fixed by the naming-error definition


@dataclass
class MatchResult:
    """One-to-one assignment from a greedy confidence-ordered pass."""

    det_to_gt: list[int | None]  # per detection: matched gt index or None
    det_iou: list[float]  # IoU of the claimed match, 0.0 when unmatched
    gt_to_det: list[int | None]  # per ground truth: matching detection index

    @property
    def n_tp(self) -> int:
        return sum(g is not None for g in self.det_to_gt)


def confidence_order(scores) -> np.ndarray:
    """Indices by descending score; ties keep ingestion order."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.argsort(-scores, kind="stable")


def greedy_match_from_ious(ious: np.ndarray, det_scores, iou_thr: float) -> MatchResult:
    """COCO-protocol matching on a precomputed (n_det, n_gt) IoU matrix.

    Detections claim, in descending-confidence order, the still-unmatched
    ground truth of highest IoU, provided that IoU reaches ``iou_thr``.
    Equal-IoU candidates resolve to the lowest ground-truth index. Only the
    pairs at or above ``iou_thr`` are read: sorted once by (detection rank,
    -IoU, ground-truth index), each pair whose detection and ground truth
    are both still free is a match.
    """
    n_det, n_gt = ious.shape
    det_to_gt: list[int | None] = [None] * n_det
    det_iou = [0.0] * n_det
    gt_to_det: list[int | None] = [None] * n_gt
    rank = np.empty(n_det, dtype=np.intp)
    rank[confidence_order(det_scores)] = np.arange(n_det)
    dets, gts = np.nonzero(ious >= iou_thr)
    vals = ious[dets, gts]
    order = np.lexsort((gts, -vals, rank[dets]))
    for d, g, v in zip(dets[order].tolist(), gts[order].tolist(), vals[order].tolist()):
        if det_to_gt[d] is None and gt_to_det[g] is None:
            det_to_gt[d], det_iou[d], gt_to_det[g] = g, v, d
    return MatchResult(det_to_gt, det_iou, gt_to_det)


def greedy_match(det_masks, det_scores, gt_masks, iou_thr: float) -> MatchResult:
    """Match one (image, category) group of decoded masks at ``iou_thr``."""
    return greedy_match_from_ious(iou_matrix(det_masks, gt_masks), det_scores, iou_thr)


def agnostic_match_from_ious(ious: np.ndarray) -> list[int | None]:
    """Per-detection argmax ground truth when its IoU reaches 0.5.

    Many detections may map to the same ground truth; argmax ties resolve
    to the lowest ground-truth index.
    """
    n_det, n_gt = ious.shape
    if n_gt == 0:
        return [None] * n_det
    best = ious.argmax(axis=1)  # first maximum wins
    hit = ious[np.arange(n_det), best] >= AGNOSTIC_IOU_FLOOR
    return [int(b) if ok else None for b, ok in zip(best, hit)]
