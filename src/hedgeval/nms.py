"""Duplicate-removal algorithms: classical mask NMS, matrix NMS, soft NMS,
and semantic sorting + semantic NMS.

Every method reads the image's mask table (``mask.MaskTable``, as ``eval``
does), built once per image, so no detection is decoded to H x W. The
classical three compare detection pairs, so their per-image cost grows
quadratically with the number of detections; they read each category's
pairwise IoU from the table, and ``oracles.mask_nms_bruteforce`` is the
dense spec of mask NMS. Semantic NMS instead treats the per-category
semantic mask as an occupancy budget: a detection is kept iff at least
``thr`` of its pixels are still unclaimed, and keeping it subtracts its
pixels from the budget. One pass, no pairwise comparisons; each detection
touches only its own box window of the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coco import Detection, SemanticMaskSet
from .mask import MaskTable, decode, table_pairwise_iou
from .matching import confidence_order

METHODS = ("mask", "matrix", "soft", "semantic")
DECAYS = ("gaussian", "linear")
SCORE_MODES = ("averaged", "original", "sum")

# post-NMS floors: matrix/soft defaults are the permissive values whose
# long low-confidence tails semantic NMS is designed to avoid
DEFAULT_SCORE_FLOORS = {"mask": 0.0, "matrix": 0.05, "soft": 0.001, "semantic": 0.0}


@dataclass(frozen=True)
class NmsConfig:
    method: str = "semantic"
    iou_thr: float = 0.5
    score_floor: float | None = None  # None picks the method default
    occupancy_thr: float = 0.5
    decay: str = "gaussian"
    sigma: float = 2.0
    score_mode: str = "averaged"  # semantic output scores

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.decay not in DECAYS:
            raise ValueError(f"unknown decay {self.decay!r}")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"unknown score mode {self.score_mode!r}")
        if self.score_floor is None:
            object.__setattr__(self, "score_floor", DEFAULT_SCORE_FLOORS[self.method])
        for name in ("iou_thr", "score_floor", "occupancy_thr"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")


def _ranked_ious(table: MaskTable, scores, categories):
    """Per category, its detection indices by descending score (ties keep
    ingestion order) and their IoU matrix in that order."""
    scores, categories = np.asarray(scores, dtype=np.float64), np.asarray(categories)
    for c in sorted(set(categories.tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(categories == c)
        ranked = idx[confidence_order(scores[idx])]
        yield ranked, table_pairwise_iou(table.take(ranked))


def mask_nms(table: MaskTable, scores, categories, iou_thr: float = 0.5) -> list[int]:
    """Greedy pairwise suppression; returns kept indices in ingestion order.

    A detection survives iff its IoU with every already-kept detection of
    the same category stays below ``iou_thr`` or is 0: a pair that shares no
    pixel never suppresses. Spec: ``oracles.mask_nms_bruteforce``.
    """
    kept: list[int] = []
    for ranked, ious in _ranked_ious(table, scores, categories):
        suppresses = (ious >= iou_thr) & (ious > 0)
        alive = np.ones(len(ranked), dtype=bool)
        for k in range(len(ranked)):
            if alive[k]:  # kept: it suppresses what it overlaps below it
                alive[k + 1:] &= ~suppresses[k, k + 1:]
        kept.extend(ranked[alive].tolist())
    return sorted(kept)


def _decay_ratio(ious: np.ndarray, cmax: np.ndarray, decay: str, sigma: float) -> np.ndarray:
    if decay == "gaussian":
        return np.exp(-(ious**2 - cmax[:, None] ** 2) / sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (1.0 - ious) / (1.0 - cmax[:, None])
    # a row with cmax 1 is an exact copy of a higher-ranked detection, whose
    # own finite row bounds every column; the copy's x/0 adds nothing but a
    # 0/0 NaN, so the row is dropped from the minimum
    return np.where(cmax[:, None] < 1.0, ratio, np.inf)


def matrix_nms(table: MaskTable, scores, categories, decay: str = "gaussian",
               sigma: float = 2.0) -> np.ndarray:
    """Parallel rescoring: each score is decayed by the most suppressive
    higher-ranked same-category overlap, discounted by how suppressed that
    detection is itself. Returns the new score vector (ingestion order)."""
    scores = np.asarray(scores, dtype=np.float64)
    out = scores.copy()
    for ranked, ious in _ranked_ious(table, scores, categories):
        ious = np.triu(ious, k=1)
        cmax = ious.max(axis=0)  # per rank: worst overlap with anything above
        out[ranked] = scores[ranked] * _decay_ratio(ious, cmax, decay, sigma).min(axis=0)
    return out


def soft_nms(table: MaskTable, scores, categories, decay: str = "gaussian", sigma: float = 2.0,
             iou_thr: float = 0.5) -> np.ndarray:
    """Sequential rescoring: repeatedly commit the highest-scored remaining
    detection and decay what's left by overlap with it. ``iou_thr`` gates
    the linear decay only; gaussian decays every overlap."""
    scores = np.asarray(scores, dtype=np.float64)
    out = scores.copy()
    for ranked, pair in _ranked_ious(table, scores, categories):
        cur = scores[ranked]
        remaining = list(range(len(ranked)))
        while remaining:
            # ties go to the earliest detection in the file
            r = max(remaining, key=lambda i: (cur[i], -ranked[i]))
            remaining.remove(r)
            if not remaining:
                break
            ious = pair[r, remaining]
            if decay == "gaussian":
                weights = np.exp(-(ious**2) / sigma)
            else:
                weights = np.where(ious >= iou_thr, 1.0 - ious, 1.0)
            cur[remaining] *= weights
        out[ranked] = cur
    return out


def _check_shape(table: MaskTable, semantic: dict[int, np.ndarray]):
    for m in semantic.values():
        if table.shape is not None and m.shape != table.shape:
            raise ValueError(f"mask shape {table.shape} differs from semantic mask shape {m.shape}")


def semantic_sort(table: MaskTable, scores, categories, semantic: dict[int, np.ndarray]):
    """Rescore by agreement with the per-category semantic masks and reorder.

    combined = tau + precision-against-semantic + (1 - IoU-with-semantic);
    high precision rewards detections inside their class region, low IoU
    penalises ones pretending to be the whole region. Returns (order,
    combined) with ties broken by original tau, then ingestion order. A
    category with no semantic mask counts as an empty mask. Each detection
    is counted on its own box window of the semantic mask. Spec:
    ``oracles.semantic_sort_bruteforce``.
    """
    _check_shape(table, semantic)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    sem_areas = {c: np.count_nonzero(m) for c, m in semantic.items()}
    combined = np.empty(n)
    for k, ((r0, r1, c0, c1), area) in enumerate(zip(table.boxes.tolist(), table.areas.tolist())):
        sem = semantic.get(categories[k])
        pr, iou = 0.0, 0.0
        if sem is not None and area:
            inter = np.count_nonzero(sem[r0:r1, c0:c1] & table.crops[k])
            pr = inter / area
            iou = inter / (area + sem_areas[categories[k]] - inter)  # the union holds the area
        combined[k] = scores[k] + pr + (1.0 - iou)
    order = np.lexsort((np.arange(n), -scores, -combined))
    return order, combined


def semantic_nms(table: MaskTable, categories, semantic: dict[int, np.ndarray],
                 thr: float = 0.5) -> list[bool]:
    """Single-pass occupancy suppression over pre-sorted detections.

    ``semantic`` is the working budget and is consumed in place, in either
    memory layout; pass copies if the originals matter (``run_nms`` hands
    it each image's freshly decoded budgets). A detection is kept
    iff at least ``thr`` of its pixels are still free in its category's
    budget, and a kept one clears its pixels from the budget's window of its
    box. Returns per-detection keep flags in the table's order. No detection
    is ever compared against another one. Spec:
    ``oracles.semantic_nms_bruteforce``.
    """
    _check_shape(table, semantic)
    keep: list[bool] = []
    for k, ((r0, r1, c0, c1), area) in enumerate(zip(table.boxes.tolist(), table.areas.tolist())):
        budget = semantic.get(categories[k])
        if budget is None or not area:
            keep.append(False)
            continue
        window, crop = budget[r0:r1, c0:c1], table.crops[k]
        kept = np.count_nonzero(window & crop) / area >= thr
        if kept:
            window &= ~crop  # a view: the budget itself, in its own layout
        keep.append(bool(kept))
    return keep


def _semantic_pass(dets: list[Detection], table: MaskTable, sem_set: SemanticMaskSet,
                   cfg: NmsConfig) -> list[Detection]:
    scores = [d.score for d in dets]
    categories = [d.category_id for d in dets]
    # the image's budgets, decoded once: read by the sort, then consumed
    budgets = {c: decode(m) for c, m in sem_set.masks.items()}
    order, combined = semantic_sort(table, scores, categories, budgets)
    keep = semantic_nms(table.take(order), [categories[i] for i in order], budgets,
                        cfg.occupancy_thr)
    out = []
    for pos, i in enumerate(order):
        if not keep[pos]:
            continue
        if cfg.score_mode == "original":
            score = dets[i].score
        elif cfg.score_mode == "sum":
            score = float(combined[i])
        else:
            score = float(combined[i]) / 3.0
        if score >= cfg.score_floor:
            out.append(replace(dets[i], score=score))
    return out


def run_nms(dets_by_image: dict[int, list[Detection]], cfg: NmsConfig,
            semantic_sets: dict[int, SemanticMaskSet] | None = None) -> dict[int, list[Detection]]:
    """Apply the configured method image by image.

    Output preserves ingestion order for the pairwise methods (scores of
    mask NMS survivors are untouched; matrix/soft survivors carry decayed
    scores). The semantic method emits survivors in processing order with
    scores per cfg.score_mode: 'original' tau, the raw rescoring 'sum', or
    that sum 'averaged' into [0, 1] (default, keeps output files reloadable).
    It decodes one image's semantic masks at a time, so it holds one
    image's budgets, never the whole set's; ``semantic_sets`` is left as
    it was.
    """
    if cfg.method == "semantic" and semantic_sets is None:
        raise ValueError("semantic NMS requires semantic masks")
    out: dict[int, list[Detection]] = {}
    for image_id, dets in dets_by_image.items():
        if not dets:
            out[image_id] = []
            continue
        table = MaskTable.from_rles(d.mask for d in dets)
        if cfg.method == "semantic":
            out[image_id] = _semantic_pass(dets, table, semantic_sets[image_id], cfg)
            continue
        scores = np.array([d.score for d in dets], dtype=np.float64)
        categories = [d.category_id for d in dets]
        if cfg.method == "mask":
            kept = [dets[i] for i in mask_nms(table, scores, categories, cfg.iou_thr)]
        else:
            if cfg.method == "matrix":
                rescored = matrix_nms(table, scores, categories, cfg.decay, cfg.sigma)
            else:
                rescored = soft_nms(table, scores, categories, cfg.decay, cfg.sigma, cfg.iou_thr)
            kept = [replace(d, score=float(s)) for d, s in zip(dets, rescored)]
        out[image_id] = [d for d in kept if d.score >= cfg.score_floor]
    return out
