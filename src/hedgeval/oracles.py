"""Brute-force reference implementations.

Everything here restates a production computation from first principles,
with no shared acceleration structures, so the two can be checked against
each other. The test suite is the primary consumer; ``eval --verify``
compares a sample of user images with ``evaluate_image_bruteforce`` and
fails loudly on divergence; ``evaluate_bruteforce`` specifies the whole
``eval`` report. The NMS specs read dense masks over the whole image, where ``nms`` reads
each detection's box crop from the image's mask table. Performance is
deliberately not a concern.
"""

from __future__ import annotations

import numpy as np

from .evaluate import EvalConfig
from .hedging import DetectionGraph
from .mask import MalformedRleError, RleMask
from .matching import MatchResult


def bottleneck_bruteforce(g: DetectionGraph) -> np.ndarray:
    """All-pairs max-over-paths min-confidence by enumerating simple paths.

    Feasible for graphs up to ~8 vertices; the DFS walks every simple path
    from every source, tracking the running minimum vertex confidence.
    """
    m = len(g.confidences)
    taus = np.asarray(g.confidences, dtype=np.float64)
    adj = [np.flatnonzero(g.adjacency[i]).tolist() for i in range(m)]
    best = np.zeros((m, m))
    visited = [False] * m

    def walk(start: int, node: int, low: float):
        for nxt in adj[node]:
            if visited[nxt]:
                continue
            reach = min(low, taus[nxt])
            if reach > best[start, nxt]:
                best[start, nxt] = reach
            visited[nxt] = True
            walk(start, nxt, reach)
            visited[nxt] = False

    for s in range(m):
        visited[s] = True
        walk(s, s, taus[s])
        visited[s] = False
    return best


def induced_subgraph(g: DetectionGraph, floor: float) -> DetectionGraph:
    """A new graph on the detections of ``g`` with confidence >= floor and
    the edges among them; its connectivity is computed afresh on use."""
    keep = np.flatnonzero(g.confidences >= floor)
    return DetectionGraph(g.confidences[keep], g.adjacency[np.ix_(keep, keep)])


def bottleneck_closure(g: DetectionGraph) -> np.ndarray:
    """All-pairs max-over-paths min-confidence by the max-min closure.

    A pair joined by an edge starts at the smaller of its two confidences,
    every other pair at 0. Letting each vertex in turn be an intermediate
    stop, a pair keeps the better of its value and the weaker of its two
    legs through that vertex. Polynomial at any size; the diagonal is 0, as
    in ``bottleneck_bruteforce``.
    """
    taus = np.asarray(g.confidences, dtype=np.float64)
    c = np.where(g.adjacency, np.minimum.outer(taus, taus), 0.0)
    for k in range(len(taus)):
        c = np.maximum(c, np.minimum(c[:, k, None], c[None, k, :]))
    np.fill_diagonal(c, 0.0)
    return c


def _dc_terms(taus, c) -> float:
    """Mean over detections i of sum_{j != i} tau_j * c_ij / tau_i, term by term."""
    taus, c = np.asarray(taus, dtype=np.float64).tolist(), np.asarray(c).tolist()
    m = len(taus)
    if m == 0:
        return 0.0
    total = 0.0
    for i in range(m):
        for j in range(m):
            if j != i:
                total += taus[j] * c[i][j] / taus[i]
    return total / m


def dc_bruteforce(g: DetectionGraph) -> float:
    """Duplicate confusion of one graph, expanded term by term."""
    return _dc_terms(g.confidences, bottleneck_bruteforce(g))


def ap_naive(is_tp, n_gt: int) -> float | None:
    """101-point interpolated AP recomputed from scratch at each sample.

    ``is_tp`` is the TP/FP flag sequence in rank (descending confidence)
    order. For every recall sample the precision is re-counted directly
    over the prefix ranks, then the max over qualifying ranks is taken.
    """
    if n_gt == 0:
        return None
    flags = list(is_tp)
    total = 0.0
    for sample in range(101):
        r = sample / 100.0
        best = 0.0
        tp = 0
        for rank, flag in enumerate(flags, start=1):
            if flag:
                tp += 1
            if tp / n_gt >= r:
                best = max(best, tp / rank)
        total += best
    return total / 101.0


def match_bruteforce(det_masks, det_scores, gt_masks, iou_thr: float) -> MatchResult:
    """Literal transcription of the greedy matching definition.

    Selection sort over confidences, per-pair pixel counting for IoU,
    nothing shared with the production path.
    """
    n_det, n_gt = len(det_masks), len(gt_masks)
    remaining = list(range(n_det))
    det_to_gt: list[int | None] = [None] * n_det
    det_iou = [0.0] * n_det
    gt_to_det: list[int | None] = [None] * n_gt
    taken = set()
    while remaining:
        # highest confidence first; earliest ingestion wins ties
        d = max(remaining, key=lambda k: (det_scores[k], -k))
        remaining.remove(d)
        best_gt, best_iou = None, 0.0
        for gi in range(n_gt):
            if gi in taken:
                continue
            inter = int(np.count_nonzero(det_masks[d] & gt_masks[gi]))
            union = int(np.count_nonzero(det_masks[d] | gt_masks[gi]))
            v = inter / union if union else 0.0
            if v >= iou_thr and (best_gt is None or v > best_iou):
                best_gt, best_iou = gi, v
        if best_gt is not None:
            taken.add(best_gt)
            det_to_gt[d] = best_gt
            det_iou[d] = best_iou
            gt_to_det[best_gt] = d
    return MatchResult(det_to_gt, det_iou, gt_to_det)


def iou_bruteforce(rows, cols) -> np.ndarray:
    """IoU of each dense mask of ``rows`` against each of ``cols``, by pixel
    counting: the intersection per pair, the union as the two masks' areas
    less it; 0.0 when both are empty."""
    row_areas = [int(np.count_nonzero(a)) for a in rows]
    col_areas = [int(np.count_nonzero(b)) for b in cols]
    out = np.zeros((len(rows), len(cols)))
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            inter = int(np.count_nonzero(a & b))
            union = row_areas[i] + col_areas[j] - inter
            out[i, j] = inter / union if union else 0.0
    return out


def _naming_errors(det_gt, det_labels, gt_labels) -> int:
    """Wrong-label detections of one image from its det x GT IoU block."""
    mismatches = 0
    for row, label in zip(np.asarray(det_gt).tolist(), det_labels):
        best_gt = None
        for gi, v in enumerate(row):  # the first ground truth of highest IoU
            if best_gt is None or v > row[best_gt]:
                best_gt = gi
        if best_gt is not None and row[best_gt] >= 0.5 and gt_labels[best_gt] != label:
            mismatches += 1
    return mismatches


def naming_error_bruteforce(det_masks, det_labels, gt_masks, gt_labels) -> int:
    """Wrong-label detections of one image, by the naming-error definition.

    Ignoring categories and confidences, each detection takes the first
    ground truth of highest IoU, by pixel counting (``iou_bruteforce``). It
    is a naming error when that IoU reaches 0.5 and the two labels differ.
    Many detections may take the same ground truth.
    """
    return _naming_errors(iou_bruteforce(det_masks, gt_masks), det_labels, gt_labels)


def _dense(rle: RleMask) -> np.ndarray:
    """The bool image of COCO runs, painted one run at a time: runs alternate
    background and foreground in column-major order, background first."""
    flat = np.zeros(rle.height * rle.width, dtype=bool)
    pos = 0
    for k, n in enumerate(rle.counts):
        flat[pos:pos + n] = k % 2 == 1
        pos += n
    return flat.reshape((rle.width, rle.height)).T


def _greedy_bruteforce(det_gt, scores, iou_thr: float) -> np.ndarray:
    """Matched IoU per detection (0.0 for none) by the greedy definition, on
    a det x GT IoU block: by selection sort, highest confidence first and
    the earliest on ties, each detection takes the free ground truth of
    highest IoU reaching ``iou_thr``, the first on ties."""
    rows, scores = np.asarray(det_gt).tolist(), list(scores)
    remaining, taken = list(range(len(rows))), set()
    out = np.zeros(len(rows))
    while remaining:
        d = max(remaining, key=lambda k: (scores[k], -k))
        remaining.remove(d)
        best = None
        for gi, v in enumerate(rows[d]):
            if gi not in taken and v >= iou_thr and (best is None or v > rows[d][best]):
                best = gi
        if best is not None:
            taken.add(best)
            out[d] = rows[d][best]
    return out


def _indices(labels, cat) -> np.ndarray:
    return np.array([j for j, c in enumerate(labels) if c == cat], dtype=np.intp)


def evaluate_image_bruteforce(gts, dets, cfg: EvalConfig) -> dict:
    """What ``eval`` computes for one image, from its decoded masks.

    - ``det_gt``: the det x GT IoU block (``iou_bruteforce``); ``det_cats``
      and ``gt_cats``: the labels in file order.
    - Per category with a detection or a ground truth, ascending:
      ``records`` holds its detections' scores in file order, which of them
      the image's ``max_dets`` cap keeps (the image's top scores, ties in
      file order) and its ground-truth count; ``matched`` holds their
      greedily matched IoUs at each distinct threshold of ``iou_thrs``,
      ``lrp_iou_thr`` and ``f1_iou_thr``.
    - Per category with a detection: ``dc_blocks`` holds its scores and det
      x det IoU block, and ``dc_cells`` its duplicate confusion in each grid
      cell ``[ti][vi]``: that of the graph of IoU >= ``dc_iou_thrs[ti]``
      induced on the detections of score >= ``dc_conf_thrs[vi]``, with
      connectivity from ``bottleneck_closure``; None where none is kept.
    - ``ne``: the naming errors and the ground-truth count.
    """
    det_masks, gt_masks = [_dense(d.mask) for d in dets], [_dense(g.mask) for g in gts]
    det_cats, gt_cats = [d.category_id for d in dets], [g.category_id for g in gts]
    det_gt = iou_bruteforce(det_masks, gt_masks)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    capped = np.zeros(len(dets), dtype=bool)
    capped[sorted(range(len(dets)), key=lambda j: (-scores[j], j))[:cfg.max_dets]] = True
    thrs = dict.fromkeys((*cfg.iou_thrs, cfg.lrp_iou_thr, cfg.f1_iou_thr))
    out = {"det_gt": det_gt, "det_cats": det_cats, "gt_cats": gt_cats, "records": {},
           "matched": {}, "dc_blocks": {}, "dc_cells": {},
           "ne": (_naming_errors(det_gt, det_cats, gt_cats), len(gts))}
    for cat in sorted(set(det_cats) | set(gt_cats)):
        d, g = _indices(det_cats, cat), _indices(gt_cats, cat)
        s = scores[d]
        out["records"][cat] = (s, capped[d], int(g.size))
        out["matched"][cat] = {t: _greedy_bruteforce(det_gt[np.ix_(d, g)], s, t) for t in thrs}
        if not d.size:
            continue
        block = iou_bruteforce([det_masks[j] for j in d], [det_masks[j] for j in d])
        out["dc_blocks"][cat] = (s, block)
        cells = []
        for t in cfg.dc_iou_thrs:
            adj = block >= t
            np.fill_diagonal(adj, False)
            subs = [induced_subgraph(DetectionGraph(s, adj), v) for v in cfg.dc_conf_thrs]
            cells.append([_dc_terms(h.confidences, bottleneck_closure(h)) if len(h) else None
                          for h in subs])
        out["dc_cells"][cat] = cells
    return out


def _lrp(tp_ious, n_fp: int, n_gt: int, iou_thr: float) -> tuple:
    """LRP and its localisation, FP and FN components for ``n_gt`` > 0
    ground truths, by definition (Oksuz et al. 2018): the summed
    (1 - IoU) / (1 - t) of the TPs plus the FPs and the FNs, over TP + FP
    + FN; the summed term over TP, FP over TP + FP and FN over the ground
    truths, None where a ratio is 0/0."""
    n_tp = len(tp_ious)
    n_fn = n_gt - n_tp
    loc = sum((1.0 - v) / (1.0 - iou_thr) for v in tp_ious)
    return ((loc + n_fp + n_fn) / (n_tp + n_fp + n_fn), loc / n_tp if n_tp else None,
            n_fp / (n_tp + n_fp) if n_tp + n_fp else None, n_fn / n_gt)


def _mean(values) -> float | None:
    """Mean of the values that are not None; None when every one is."""
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def evaluate_bruteforce(dataset, dets_by_image, cfg: EvalConfig | None = None) -> dict:
    """The ``metrics`` object of ``eval``'s report, by brute force.

    Each image's ``evaluate_image_bruteforce`` part, in image-id order, is
    pooled per dataset category, image-major. A detection is (score,
    capped, matched IoU per threshold); ranking is by descending score,
    ties in pooled order.

    - AP: ``ap_naive`` of each category's capped detections at each
      ``iou_thrs`` threshold; mAP averages every defined (category,
      threshold) cell.
    - LRP at ``lrp_iou_thr`` over the capped detections of each category
      that has ground truth, averaged over those categories; oLRP: the
      least LRP over cutoffs at the distinct capped scores, each cutoff's
      detections matched afresh per image (1.0 with none).
    - F1 at ``f1_iou_thr`` over the uncapped detections of score >=
      ``min_score``, per category and summed; the FP:TP ratio at the first
      rank whose recall reaches k / 10, over those detections of every
      record pooled image-major, then by category.
    - DC: each grid cell's mean over the groups it holds a score for, 0.0
      for none; NE: naming errors over ground truths, None for none.
    """
    cfg = cfg or EvalConfig()
    parts = [evaluate_image_bruteforce(dataset.gts_by_image.get(i, []),
                                       dets_by_image.get(i, []), cfg) for i in sorted(dataset.images)]
    cats = sorted(dataset.categories)

    def rows(part, cat):
        scores, capped, _ = part["records"][cat]
        matched = part["matched"][cat]
        return [(s, k, {t: float(v[j]) for t, v in matched.items()})
                for j, (s, k) in enumerate(zip(scores.tolist(), capped.tolist()))]

    def ranked(pool):
        return sorted(pool, key=lambda r: -r[0])

    pooled = {c: [r for p in parts if c in p["records"] for r in rows(p, c)] for c in cats}
    n_gt = {c: sum(p["records"][c][2] for p in parts if c in p["records"]) for c in cats}
    ap = {c: [ap_naive([r[2][t] > 0 for r in ranked(pooled[c]) if r[1]], n_gt[c])
              for t in cfg.iou_thrs] for c in cats}

    t = cfg.lrp_iou_thr
    lrps, olrps = [], []
    for c in (c for c in cats if n_gt[c]):
        ious = [r[2][t] for r in pooled[c] if r[1]]
        lrps.append(_lrp([v for v in ious if v > 0], ious.count(0.0), n_gt[c], t))
        best = _lrp([], 0, n_gt[c], t)[0]
        for cut in sorted({r[0] for r in pooled[c] if r[1]}):
            tp_ious, n_fp = [], 0
            for p in parts:
                if c not in p["records"]:
                    continue
                scores, capped, _ = p["records"][c]
                d, g = _indices(p["det_cats"], c), _indices(p["gt_cats"], c)
                keep = capped & (scores >= cut)
                matched = _greedy_bruteforce(p["det_gt"][np.ix_(d[keep], g)], scores[keep], t)
                tp_ious += [v for v in matched.tolist() if v > 0]
                n_fp += int(np.count_nonzero(matched == 0))
            best = min(best, _lrp(tp_ious, n_fp, n_gt[c], t)[0])
        olrps.append(best)

    t = cfg.f1_iou_thr
    f1_counts = {}
    for c in cats:
        ious = [r[2][t] for r in pooled[c] if r[0] >= cfg.min_score]
        tp = sum(v > 0 for v in ious)
        f1_counts[c] = (tp, len(ious) - tp, n_gt[c] - tp)
    total_gt = sum(n_gt.values())
    flags = [r[2][t] > 0 for r in ranked(r for p in parts for c in p["records"] for r in rows(p, c)
                                        if r[0] >= cfg.min_score)]
    fp_tp = {}
    for k in range(11):
        tp = fp = 0
        fp_tp[f"{k / 10:.2f}"] = None
        for flag in flags:
            tp, fp = tp + flag, fp + (not flag)
            if (tp / total_gt if total_gt else 0.0) >= k / 10:
                fp_tp[f"{k / 10:.2f}"] = fp / tp if tp else None
                break

    groups = [cells for p in parts for cells in p["dc_cells"].values()]
    values = [[[x for cells in groups if (x := cells[ti][vi]) is not None]
               for vi in range(len(cfg.dc_conf_thrs))] for ti in range(len(cfg.dc_iou_thrs))]
    dc_grid = [[sum(v) / len(v) if v else 0.0 for v in row] for row in values]
    mismatches, ne_gt = (sum(p["ne"][k] for p in parts) for k in (0, 1))

    return {
        "map": _mean(v for c in cats for v in ap[c]),
        "ap_per_category": {str(c): _mean(ap[c]) for c in cats},
        "f1": _f1(*(sum(f[k] for f in f1_counts.values()) for k in range(3))),
        "f1_per_category": {str(c): _f1(*f1_counts[c]) for c in cats},
        "dc": _mean(v for row in dc_grid for v in row),
        "dc_grid": dc_grid,
        "dc_cells": [[len(v) for v in row] for row in values],
        "ne": mismatches / ne_gt if ne_gt else None,
        "ne_mismatch_count": mismatches,
        "n_gt": ne_gt,
        "lrp": _mean(x[0] for x in lrps),
        "lrp_loc": _mean(x[1] for x in lrps),
        "lrp_fp": _mean(x[2] for x in lrps),
        "lrp_fn": _mean(x[3] for x in lrps),
        "olrp": _mean(olrps),
        "fp_tp_curve": fp_tp,
    }


def agree(got, want, tol: float = 0.0) -> bool:
    """Whether ``got`` has the shape and values of ``want``: dicts with the
    same keys in the same order, sequences of the same length, None where
    it is None, arrays of the same shape and kind, and numbers within
    ``tol`` (0: exactly)."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(agree(got[k], v, tol) for k, v in want.items()))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(agree(a, b, tol) for a, b in zip(got, want)))
    if want is None or got is None:
        return got is want
    if isinstance(want, np.ndarray):
        got = np.asarray(got)
        return (got.shape == want.shape and got.dtype.kind == want.dtype.kind
                and bool(np.all(np.abs(got.astype(np.float64) - want) <= tol)))
    return abs(got - want) <= tol


def mask_nms_bruteforce(masks, scores, categories, iou_thr: float = 0.5) -> list[int]:
    """Greedy mask NMS over dense masks; kept indices in ingestion order.

    Candidates go by descending score, ties in ingestion order; each is
    suppressed by a kept one of its category that shares a pixel with it at
    IoU >= ``iou_thr``. The quadratic rescan is ``bench``'s pairwise baseline.
    """
    categories = np.asarray(categories)
    areas = [np.count_nonzero(m) for m in masks]
    kept: list[int] = []
    for k in np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable"):
        for j in kept:
            if categories[j] == categories[k]:
                inter = np.count_nonzero(masks[j] & masks[k])
                if inter and inter / (areas[j] + areas[k] - inter) >= iou_thr:
                    break
        else:
            kept.append(int(k))
    return sorted(kept)


def semantic_sort_bruteforce(masks, scores, categories, semantic):
    """Semantic rescoring of dense masks, counted over the whole image.

    For detection D of score tau and its category's semantic mask S,
    combined = tau + |D & S| / |D| + (1 - |D & S| / |D | S|); precision and
    IoU are 0 for an empty D or a category with no semantic mask. Returns
    (order, combined), the order by descending combined, then descending
    tau, then ingestion.
    """
    combined = []
    for k, m in enumerate(masks):
        pr = iou = 0.0
        sem = semantic.get(categories[k])
        area = int(np.count_nonzero(m))
        if sem is not None and area:
            inter = int(np.count_nonzero(m & sem))
            pr = inter / area
            iou = inter / int(np.count_nonzero(m | sem))
        combined.append(float(scores[k]) + pr + (1.0 - iou))
    order = sorted(range(len(masks)), key=lambda k: (-combined[k], -float(scores[k]), k))
    return np.array(order, dtype=np.intp), np.array(combined)


def semantic_nms_bruteforce(masks, categories, semantic, thr: float = 0.5) -> list[bool]:
    """Occupancy suppression of pre-sorted dense masks, over the whole image.

    Each detection, in the given order, is kept iff its category has a
    semantic mask, it is non-empty and at least ``thr`` of its pixels are
    still set in that mask; keeping it clears all its pixels there.
    ``semantic`` is consumed in place. Returns the keep flags.
    """
    keep = []
    for m, c in zip(masks, categories):
        budget = semantic.get(c)
        area = int(np.count_nonzero(m))
        kept = budget is not None and area > 0 and np.count_nonzero(m & budget) / area >= thr
        if kept:
            budget[m] = False
        keep.append(bool(kept))
    return keep


def compress_leb_naive(counts) -> str:
    """COCO counts string of run lengths ``counts``, one character at a time.

    From count 3 on, the value written is the delta against the count two
    positions earlier. Each value goes out in 5-bit groups, low groups
    first, as the group plus 48, with bit 5 set while more groups follow;
    emission stops once the rest of the value is its sign extension from
    bit 4 of the last group.
    """
    out = []
    for i, c in enumerate(counts):
        x = c - counts[i - 2] if i > 2 else c
        more = True
        while more:
            group = x & 0x1F
            x >>= 5
            more = (x != -1) if (group & 0x10) else (x != 0)
            if more:
                group |= 0x20
            out.append(chr(group + 48))
    return "".join(out)


def decompress_leb_naive(s: str) -> list[int]:
    """Run lengths of a COCO counts string, one character at a time.

    Each character less 48 is a 6-bit group: five payload bits, low groups
    first, and bit 5 set when the value continues. A value is sign-extended
    from bit 4 of its last group, and from count 3 on it is a delta against
    the count two positions earlier. The first fault by character position
    raises ``MalformedRleError``; the value cut off by a truncation is
    never sign-checked.
    """
    counts: list[int] = []
    i, n = 0, len(s)
    while i < n:
        x = 0
        k = 0
        group = 0
        more = True
        while more:
            if i >= n:
                raise MalformedRleError(f"truncated counts string of length {n}")
            group = ord(s[i]) - 48
            if not 0 <= group <= 63:
                raise MalformedRleError(f"counts character {s[i]!r} at position {i} out of range")
            x |= (group & 0x1F) << (5 * k)
            more = bool(group & 0x20)
            i += 1
            k += 1
        if group & 0x10:  # sign-extend from the last emitted group
            x |= -1 << (5 * k)
        if len(counts) > 2:
            x += counts[-2]
        if x < 0:
            raise MalformedRleError(f"negative run length {x} at count {len(counts)}")
        counts.append(x)
    return counts


def rasterize_polygon_naive(vertices, height: int, width: int) -> np.ndarray:
    """Even-odd scanline fill that tests every image row.

    A pixel (row, col) is inside when its center (col + 0.5, row + 0.5) is
    inside the polygon; an edge crosses a row when one end lies at or below
    the row center and the other above it, so a shared vertex counts once.
    """
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 2)
    if verts.shape[0] < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {verts.shape[0]}")
    mask = np.zeros((height, width), dtype=bool)
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    for row in range(height):
        yc = row + 0.5
        crosses = ((y1 <= yc) & (y2 > yc)) | ((y2 <= yc) & (y1 > yc))
        if not crosses.any():
            continue
        t = (yc - y1[crosses]) / (y2[crosses] - y1[crosses])
        xs = np.sort(x1[crosses] + t * (x2[crosses] - x1[crosses]))
        for xa, xb in zip(xs[0::2], xs[1::2]):
            lo = max(int(np.ceil(xa - 0.5)), 0)
            hi = min(int(np.ceil(xb - 0.5)), width)
            if hi > lo:
                mask[row, lo:hi] = True
    return mask
