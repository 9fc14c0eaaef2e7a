"""Duplicate-removal algorithms: classical mask NMS, matrix NMS, soft NMS,
and semantic sorting + semantic NMS.

The classical three compare detection pairs, so their per-image cost grows
quadratically with the number of detections. They read each category's
pairwise IoU from the image's mask table (``mask.MaskTable``, as ``eval``
does), so no detection is decoded to H x W; ``oracles.mask_nms_bruteforce``
is the dense spec of mask NMS. Semantic NMS instead treats the
per-category semantic mask as an occupancy budget: a detection is kept iff at
least ``thr`` of its pixels are still unclaimed, and keeping it subtracts its
pixels from the budget. One pass, no pairwise comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coco import Detection, SemanticMaskSet
from .mask import MaskTable, RleMask, run_positions, table_pairwise_iou
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
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _ranked_ious(table: MaskTable, scores, categories):
    """Per category, its detection indices by descending score (ties keep
    ingestion order) and their IoU matrix in that order."""
    scores, categories = np.asarray(scores, dtype=np.float64), np.asarray(categories)
    for c in np.unique(categories):
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
    categories = np.asarray(categories)
    out = scores.copy()
    for c in np.unique(categories):
        # ingestion order: the (score, -position) tie-break depends on it
        idx = np.flatnonzero(categories == c)
        pair = table_pairwise_iou(table.take(idx))
        cur = scores[idx].copy()
        remaining = list(range(len(idx)))
        while remaining:
            r = max(remaining, key=lambda i: (cur[i], -i))
            remaining.remove(r)
            if not remaining:
                break
            ious = pair[r, remaining]
            if decay == "gaussian":
                weights = np.exp(-(ious**2) / sigma)
            else:
                weights = np.where(ious >= iou_thr, 1.0 - ious, 1.0)
            cur[remaining] *= weights
        out[idx] = cur
    return out


def _memory_order(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """``a`` flattened in its own memory order, a view unless ``a`` is not
    contiguous (then a C-order copy), and whether that order is
    column-major."""
    fortran = a.flags.f_contiguous and not a.flags.c_contiguous
    return a.ravel(order="F" if fortran else "C"), fortran


def _pixels(mask, shape, fortran: bool) -> np.ndarray:
    """Flat positions of the mask's pixels in a budget of ``shape`` and the
    given layout. A dense mask is scanned once in its own memory order, an
    ``RleMask`` is read from its foreground runs (column-major) with no
    decode; positions are converted only when the two layouts differ."""
    rle = isinstance(mask, RleMask)
    mask_shape = (mask.height, mask.width) if rle else mask.shape
    if mask_shape != shape:
        raise ValueError(f"mask shape {mask_shape} differs from semantic mask shape {shape}")
    if rle:
        idx, mask_fortran = run_positions(mask.counts), True
    else:
        flat, mask_fortran = _memory_order(mask)
        idx = np.flatnonzero(flat)
    if mask_fortran != fortran:
        h, w = shape
        if mask_fortran:
            col, row = np.divmod(idx, h)
            idx = row * w + col
        else:
            row, col = np.divmod(idx, w)
            idx = row + col * h
    return idx


def semantic_sort(masks, scores, categories, semantic: dict[int, np.ndarray]):
    """Rescore by agreement with the per-category semantic masks and reorder.

    combined = tau + precision-against-semantic + (1 - IoU-with-semantic);
    high precision rewards detections inside their class region, low IoU
    penalises ones pretending to be the whole region. Returns (order,
    combined) with ties broken by original tau, then ingestion order. A
    category with no semantic mask counts as an empty mask. ``masks`` are
    dense bool arrays or ``RleMask`` runs; each detection touches only its
    own pixels of the semantic mask.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    regions = {c: (*_memory_order(m), m.shape, np.count_nonzero(m)) for c, m in semantic.items()}
    combined = np.empty(n)
    for k in range(n):
        region = regions.get(categories[k])
        pr, iou = 0.0, 0.0
        if region is not None:
            flat, fortran, shape, sem_area = region
            idx = _pixels(masks[k], shape, fortran)
            if idx.size:
                inter = np.count_nonzero(flat[idx])
                pr = inter / idx.size
                union = idx.size + sem_area - inter
                iou = inter / union if union else 0.0
        combined[k] = scores[k] + pr + (1.0 - iou)
    order = np.lexsort((np.arange(n), -scores, -combined))
    return order, combined


def semantic_nms(masks, categories, semantic: dict[int, np.ndarray], thr: float = 0.5) -> list[bool]:
    """Single-pass occupancy suppression over pre-sorted detections.

    ``semantic`` is the working budget and is consumed in place, in either
    memory layout; pass copies if the originals matter. ``masks`` are dense
    bool arrays or ``RleMask`` runs. Returns per-detection keep flags in the
    given order. No detection is ever compared against another one, and each
    touches only its own pixels.
    """
    budgets = {c: (*_memory_order(m), m.shape) for c, m in semantic.items()}
    keep: list[bool] = []
    for k, m in enumerate(masks):
        entry = budgets.get(categories[k])
        if entry is None:
            keep.append(False)
            continue
        budget, fortran, shape = entry
        idx = _pixels(m, shape, fortran)
        if idx.size and np.count_nonzero(budget[idx]) / idx.size >= thr:
            keep.append(True)
            budget[idx] = False
        else:
            keep.append(False)
    for c, (budget, _, shape) in budgets.items():
        if not np.may_share_memory(budget, semantic[c]):  # a non-contiguous budget's copy
            semantic[c][...] = budget.reshape(shape)
    return keep


def _semantic_pass(dets: list[Detection], sem_set: SemanticMaskSet, cfg: NmsConfig) -> list[Detection]:
    masks = [d.mask for d in dets]  # read as runs, never decoded
    scores = [d.score for d in dets]
    categories = [d.category_id for d in dets]
    order, combined = semantic_sort(masks, scores, categories, sem_set.masks)
    working = {c: m.copy(order="K") for c, m in sem_set.masks.items()}
    ordered_masks = [masks[i] for i in order]
    ordered_cats = [categories[i] for i in order]
    keep = semantic_nms(ordered_masks, ordered_cats, working, cfg.occupancy_thr)
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
    """
    if cfg.method == "semantic" and semantic_sets is None:
        raise ValueError("semantic NMS requires semantic masks")
    out: dict[int, list[Detection]] = {}
    for image_id, dets in dets_by_image.items():
        if not dets:
            out[image_id] = []
            continue
        if cfg.method == "semantic":
            out[image_id] = _semantic_pass(dets, semantic_sets[image_id], cfg)
            continue
        table = MaskTable.from_rles(d.mask for d in dets)
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
