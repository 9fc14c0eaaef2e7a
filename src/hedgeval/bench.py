"""Timing harness contrasting pairwise mask NMS with single-pass semantic NMS.

The scene is the pathological hedging case: disjoint base masks, each
cloned into identical lower-confidence duplicates. The pairwise baseline, the
dense reference ``oracles.mask_nms_bruteforce``, rescans every candidate
against the kept set (quadratic in the detection count at a fixed image
size), while the occupancy pass touches each detection's box window once,
reading the scene's mask table. Each scene's masks are encoded once, and
each timed call builds the table from those runs and sorts, as ``nms``
does per image. The image size stays constant across scene sizes so
per-operation pixel cost does not drift into the scaling measurement.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from .mask import MaskTable, encode
from .nms import semantic_nms, semantic_sort
from .oracles import mask_nms_bruteforce

SIDE = 128  # fixed canvas
CELL = 6  # px pitch between base masks
MASK = 4  # base mask square side
CATEGORY = 1
MIN_SAMPLE_S = 0.02  # a sample repeats its method this long: one stall weighs little


def build_hedged_scene(n: int, dup_factor: int = 4, seed: int = 0):
    """``n`` single-category detections on a fixed canvas.

    n/dup_factor disjoint base squares score in [0.9, 1.0); each base gets
    dup_factor-1 identical copies scoring in [0.1, 0.9). Ingestion order is
    shuffled. Returns (masks, rles, scores, categories, semantic): the dense
    masks, their RLE encodings, and semantic, which maps the category to the
    union of base masks.
    """
    if dup_factor < 1:
        raise ValueError(f"dup_factor must be at least 1, got {dup_factor}")
    if n < dup_factor or n % dup_factor:
        raise ValueError(f"n must be a positive multiple of dup_factor, got {n}")
    n_base = n // dup_factor
    per_row = (SIDE - 2) // CELL
    if n_base > per_row * per_row:
        raise ValueError(f"{n_base} base masks do not fit the {SIDE}x{SIDE} canvas")
    rng = np.random.default_rng(seed)

    base_masks = []
    for i in range(n_base):
        m = np.zeros((SIDE, SIDE), dtype=bool)
        r = 1 + (i // per_row) * CELL
        c = 1 + (i % per_row) * CELL
        m[r:r + MASK, c:c + MASK] = True
        base_masks.append(m)

    masks, rles, scores = [], [], []
    for base in base_masks:
        rle = encode(base)  # copies share their base's runs
        for copy in range(dup_factor):  # the base first, then its duplicates
            masks.append(base)
            rles.append(rle)
            scores.append(rng.uniform(0.1, 0.9) if copy else rng.uniform(0.9, 1.0))

    order = rng.permutation(n)
    masks = [masks[i] for i in order]
    rles = [rles[i] for i in order]
    scores = np.asarray(scores, dtype=np.float64)[order]
    categories = np.full(n, CATEGORY, dtype=np.int64)
    semantic = {CATEGORY: np.logical_or.reduce(base_masks)}
    return masks, rles, scores, categories, semantic


def _run_mask(masks, rles, scores, categories, semantic):
    return mask_nms_bruteforce(masks, scores, categories, iou_thr=0.5)


def _run_semantic(masks, rles, scores, categories, semantic):
    table = MaskTable.from_rles(rles)
    working = {c: m.copy() for c, m in semantic.items()}
    order, _ = semantic_sort(table, scores, categories, semantic)
    cats = [int(categories[i]) for i in order]
    return semantic_nms(table.take(order), cats, working, thr=0.5)


BENCH_METHODS = {"mask": _run_mask, "semantic": _run_semantic}


def run_bench(sizes=(100, 400, 1600), dup_factor: int = 4, seed: int = 0,
              repeats: int = 5) -> list[dict]:
    """Median over ``repeats`` samples of the wall time per call, per (size,
    method); rows ready for the CSV writer.

    Every scene is built first, then each repeat takes one sample of every
    (size, method) in turn, so a burst of load on the machine lands on all
    sizes alike rather than on one size's samples.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    scenes = {n: build_hedged_scene(n, dup_factor, seed) for n in sizes}
    times = {(n, name): [] for n in sizes for name in BENCH_METHODS}
    for _ in range(repeats):
        for n, scene in scenes.items():
            for name, fn in BENCH_METHODS.items():
                calls, start = 0, time.perf_counter()
                while not calls or time.perf_counter() - start < MIN_SAMPLE_S:
                    fn(*scene)
                    calls += 1
                times[n, name].append((time.perf_counter() - start) / calls)
    return [{"n": int(n), "method": name, "seconds": median(times[n, name])}
            for n in sizes for name in BENCH_METHODS]
