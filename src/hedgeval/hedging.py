"""Hedging measures: duplicate confusion and naming error.

Duplicate confusion looks at one (image, category) group of detections at a
time. Detections whose masks overlap at IoU >= t form a graph; the
connectivity c_ij of two detections is the best achievable "weakest link"
confidence over simple paths between them, and the per-graph score averages
the confidence-weighted, relatively-scaled connectivity over all ordered
pairs. The dataset-level number averages that over a grid of IoU and
confidence thresholds, mirroring how mAP averages over IoU thresholds.

Naming error counts detections that localise some ground truth (category-
agnostic IoU >= 0.5 argmax match) but carry the wrong label, averaged over
the total number of ground truths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matching import agnostic_match_from_ious

DEFAULT_DC_IOU_THRS = tuple(np.arange(50, 100, 5) / 100.0)  # 0.50 .. 0.95
DEFAULT_DC_CONF_THRS = tuple(np.arange(1, 10) / 10.0)  # 0.1 .. 0.9


def check_distinct(name: str, values) -> None:
    """Raise ``ValueError`` naming the first value ``values`` lists twice: a
    repeated threshold would weigh its grid cells twice."""
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError(f"{name} lists {v} more than once")
        seen.add(v)


@dataclass(frozen=True)
class DcConfig:
    """Threshold grids for duplicate confusion."""

    iou_thrs: tuple[float, ...] = DEFAULT_DC_IOU_THRS
    conf_thrs: tuple[float, ...] = DEFAULT_DC_CONF_THRS

    def __post_init__(self):
        for v in (*self.iou_thrs, *self.conf_thrs):
            if not 0.0 < v < 1.0:
                raise ValueError(f"thresholds must lie in (0, 1), got {v}")
        if not self.iou_thrs or not self.conf_thrs:
            raise ValueError("threshold grids must be non-empty")
        check_distinct("iou_thrs", self.iou_thrs)
        check_distinct("conf_thrs", self.conf_thrs)


class DetectionGraph:
    """Overlap graph of one (image, category) detection group.

    Vertices are detections weighted by confidence; the adjacency holds
    edges between detections whose masks overlap at or above the build
    threshold. Undirected, no self-edges.
    """

    def __init__(self, confidences, adjacency):
        confidences = np.asarray(confidences, dtype=np.float64)
        adjacency = np.asarray(adjacency, dtype=bool)
        m = confidences.shape[0]
        if adjacency.shape != (m, m):
            raise ValueError(f"adjacency shape {adjacency.shape} does not match {m} vertices")
        if m and (adjacency.diagonal().any() or not np.array_equal(adjacency, adjacency.T)):
            raise ValueError("adjacency must be symmetric with an empty diagonal")
        self.confidences = confidences
        self.adjacency = adjacency

    @classmethod
    def from_ious(cls, confidences, pair_ious, iou_thr: float) -> "DetectionGraph":
        """Build from a pairwise detection IoU matrix."""
        pair_ious = np.asarray(pair_ious, dtype=np.float64)
        adj = pair_ious >= iou_thr
        np.fill_diagonal(adj, False)
        return cls(confidences, adj)

    def __len__(self) -> int:
        return len(self.confidences)

    @cached_property
    def connectivity(self) -> np.ndarray:
        """``bottleneck_connectivity`` of this graph, computed on first use."""
        return bottleneck_connectivity(self)


def bottleneck_connectivity(g: DetectionGraph) -> np.ndarray:
    """All-pairs maximum-bottleneck connectivity over vertex confidences.

    The bottleneck of a path is the minimum confidence over all its
    vertices, endpoints included. For paths of length >= 1 that equals the
    minimum edge strength min(tau_u, tau_v) along the path, so the maximum
    over paths is realised on a maximum spanning forest of edge strengths:
    process edges strongest-first with union-find and record the merge
    strength for every newly connected pair. Unconnected pairs stay 0.

    A merge appends one member list to the other, so in the final member
    order every component ever formed is contiguous. Each merge therefore
    writes two contiguous blocks of the matrix in that order, which is
    permuted back to vertex order once at the end.
    """
    m = len(g)
    c = np.zeros((m, m))
    if m < 2:
        return c
    taus = g.confidences
    ii, jj = np.nonzero(np.triu(g.adjacency, k=1))
    if ii.size == 0:
        return c
    strength = np.minimum(taus[ii], taus[jj])
    order = np.argsort(-strength, kind="stable")

    parent = list(range(m))
    members: list[list[int]] = [[v] for v in range(m)]
    merges = []  # (first vertex of a, len(a), len(b), strength)

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    ii, jj, strength = ii.tolist(), jj.tolist(), strength.tolist()
    for e in order.tolist():
        ra, rb = find(ii[e]), find(jj[e])
        if ra == rb:
            continue
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        a, b = members[ra], members[rb]
        merges.append((a[0], len(a), len(b), strength[e]))
        parent[rb] = ra
        members[ra] = a + b
        members[rb] = []

    pos = np.empty(m, dtype=np.intp)  # vertex -> place in the final member order
    pos[[v for group in members for v in group]] = np.arange(m)
    at = pos.tolist()
    for head, na, nb, s in merges:
        p = at[head]
        c[p:p + na, p + na:p + na + nb] = s
        c[p + na:p + na + nb, p:p + na] = s
    return c.take(pos, 0).take(pos, 1)


def dc_single(g: DetectionGraph, floor: float | None = None) -> float:
    """Duplicate confusion of one graph: mean over detections i of
    sum_{j != i} tau_j * c_ij / tau_i.

    With a ``floor``, the score of the subgraph induced on the detections
    with tau >= floor. Every vertex on a path whose bottleneck is >= floor
    has tau >= floor, so that subgraph's connectivity is ``g.connectivity``
    sliced to the kept vertices, with entries below the floor zeroed; it is
    not recomputed.
    """
    taus = g.confidences
    c = g.connectivity
    if floor is not None:
        keep = np.flatnonzero(taus >= floor)
        taus = taus[keep]
        c = c.take(keep, 0).take(keep, 1)  # C order: the sum below rounds in memory order
        c = np.where(c >= floor, c, 0.0)
    m = len(taus)
    if m == 0:
        return 0.0
    return float((c * taus[None, :] / taus[:, None]).sum() / m)


@dataclass
class DcResult:
    """Grid breakdown of duplicate confusion.

    ``grid[ti][vi]`` is the mean per-cell score at iou_thrs[ti],
    conf_thrs[vi]; ``cells[ti][vi]`` counts the (image, category) cells
    that still held a detection there. A threshold combination with no
    populated cells scores 0 (emitting nothing trivially gives zero
    duplicate confusion).
    """

    dc: float
    grid: list[list[float]]
    cells: list[list[int]]


def duplicate_confusion(groups, cfg: DcConfig | None = None) -> DcResult:
    """Aggregate duplicate confusion over (image, category) groups.

    ``groups`` is an iterable of (confidences, pair_ious) pairs, one per
    (image, category) cell with at least one detection; ``pair_ious`` is the
    full pairwise IoU matrix of that cell's detection masks.

    The floors of one (group, IoU threshold) graph keep nested sets of
    detections, so how many they keep names the set, and ``dc_single`` runs
    once per distinct set; the result is bit-equal to one call per floor.
    If floors v < v' keep the same set, no connectivity among the kept
    detections lies in [v, v'): a connectivity is always some vertex's
    tau, and that vertex would be kept at v but not at v'. So both floors
    zero the same entries and sum the identical array. A graph with no
    edge, or a floor that keeps one detection, scores 0.0 without numpy.
    """
    cfg = cfg or DcConfig()
    values = [[[] for _ in cfg.conf_thrs] for _ in cfg.iou_thrs]
    for scores, ious in groups:
        scores = np.asarray(scores, dtype=np.float64)
        kept = [int(np.count_nonzero(scores >= v)) for v in cfg.conf_thrs]
        for ti, t in enumerate(cfg.iou_thrs):
            g = DetectionGraph.from_ious(scores, ious, t)  # one spanning forest per t
            edgeless = not g.adjacency.any()
            by_kept: dict[int, float] = {}  # detections kept -> score
            for vi, (v, k) in enumerate(zip(cfg.conf_thrs, kept)):
                if not k:
                    continue
                if k not in by_kept:
                    by_kept[k] = 0.0 if edgeless or k == 1 else dc_single(g, v)
                values[ti][vi].append(by_kept[k])
    return _dc_result(values)


def _dc_result(values) -> DcResult:
    """Pool each cell's per-group scores ``values[ti][vi]``; one score is its own mean."""
    grid = [[float(np.mean(v)) if len(v) > 1 else v[0] if v else 0.0 for v in row]
            for row in values]
    cells = [list(map(len, row)) for row in values]
    return DcResult(dc=float(np.mean(grid)), grid=grid, cells=cells)


@dataclass
class NeResult:
    ne: float | None  # None when the image set has no ground truths
    mismatches: int
    n_gt: int


def naming_error(image_items) -> NeResult:
    """Naming error over an image set.

    ``image_items`` yields (det_gt_ious, det_labels, gt_labels) per image,
    where ``det_gt_ious`` is the category-agnostic (n_det, n_gt) IoU matrix
    of all detections against all ground truths of that image.
    """
    mismatches = 0
    n_gt = 0
    for ious, det_labels, gt_labels in image_items:
        n_gt += len(gt_labels)
        assignment = agnostic_match_from_ious(np.asarray(ious, dtype=np.float64))
        for j, gi in enumerate(assignment):
            if gi is not None and det_labels[j] != gt_labels[gi]:
                mismatches += 1
    return _ne_result(mismatches, n_gt)


def _ne_result(mismatches: int, n_gt: int) -> NeResult:
    """Naming error from wrong-label and ground-truth counts summed over images."""
    return NeResult(ne=mismatches / n_gt if n_gt else None, mismatches=mismatches, n_gt=n_gt)
