"""Brute-force reference implementations.

Everything here restates a production computation from first principles,
with no shared acceleration structures, so the two can be checked against
each other. The test suite is the primary consumer; ``eval --verify``
reruns a sample of user data through these and fails loudly on divergence.
The NMS specs read dense masks over the whole image, where ``nms`` reads
each detection's box crop from the image's mask table. Performance is
deliberately not a concern.
"""

from __future__ import annotations

import numpy as np

from .hedging import DetectionGraph
from .mask import MalformedRleError
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


def dc_bruteforce(g: DetectionGraph) -> float:
    """Duplicate confusion of one graph, expanded term by term."""
    taus = np.asarray(g.confidences, dtype=np.float64)
    m = len(taus)
    if m == 0:
        return 0.0
    c = bottleneck_bruteforce(g)
    total = 0.0
    for i in range(m):
        for j in range(m):
            if j != i:
                total += taus[j] * c[i, j] / taus[i]
    return total / m


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


def naming_error_bruteforce(det_masks, det_labels, gt_masks, gt_labels) -> int:
    """Wrong-label detections of one image, by the naming-error definition.

    Ignoring categories and confidences, each detection takes the first
    ground truth of highest IoU, by per-pair pixel counting; it is a naming
    error when that IoU reaches 0.5 and the two labels differ. Many
    detections may take the same ground truth.
    """
    mismatches = 0
    for d, label in zip(det_masks, det_labels):
        best_gt, best_iou = None, 0.0
        for gi, g in enumerate(gt_masks):
            inter = int(np.count_nonzero(d & g))
            union = int(np.count_nonzero(d | g))
            v = inter / union if union else 0.0
            if best_gt is None or v > best_iou:
                best_gt, best_iou = gi, v
        if best_gt is not None and best_iou >= 0.5 and gt_labels[best_gt] != label:
            mismatches += 1
    return mismatches


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
