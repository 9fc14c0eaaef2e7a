"""Seeded benchmark inputs, written as the files `hedgeval` reads.

Two scenes, both built from the public generator:

- ``hedged``: the README scenario. 256x256 images, 10 parts, one category,
  every instance emitted once at confidence 1 plus ``SPATIAL_COPIES``
  jittered duplicates. Also writes the GT-union ``semantic/`` directory
  that ``nms --method semantic`` reads.
- ``coco``: COCO-like density. 640x480 images, 80 parts relabeled over
  ``CATEGORIES`` categories from the seed, and a wrong-label exact copy of
  an instance with probability ``CATEGORY_NOISE``. About 120 detections per
  image, so the ``max_dets=100`` cap, naming error and multi-category
  matching are all exercised.

The same (scene, n_images, seed) always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hedgeval.coco import CategoryInfo, Dataset, GroundTruthInstance, write_detections, write_ground_truth
from hedgeval.synth import SynthConfig, generate, perfect_detector

SPATIAL_COPIES = 4
CATEGORIES = 5
CATEGORY_NOISE = 0.5

GT_FILE = "annotations.json"
DT_FILE = "detections.json"
SEMANTIC_DIR = "semantic"


@dataclass(frozen=True)
class Inputs:
    """What was written, and the counts the known-answer checks need."""

    root: Path
    n_images: int
    n_gt: int
    n_dets: int
    spatial_copies: int  # jittered duplicates per instance
    relabeled: int  # wrong-category copies emitted


def _write_dets(dets, root: Path) -> int:
    flat = [d for image_id in sorted(dets) for d in dets[image_id]]
    write_detections(flat, root / DT_FILE)
    return len(flat)


def make_hedged(root: Path, n_images: int, seed: int) -> Inputs:
    root.mkdir(parents=True, exist_ok=True)
    dataset, _ = generate(SynthConfig(n_images=n_images, parts_per_image=10, seed=seed), root)
    dets = perfect_detector(dataset, spatial_copies=SPATIAL_COPIES, seed=seed)
    n_dets = _write_dets(dets, root)
    return Inputs(root, n_images, dataset.n_ground_truths, n_dets, SPATIAL_COPIES, 0)


def make_coco(root: Path, n_images: int, seed: int) -> Inputs:
    root.mkdir(parents=True, exist_ok=True)
    cfg = SynthConfig(n_images=n_images, parts_per_image=80, height=480, width=640, seed=seed)
    synth, _ = generate(cfg)
    rng = np.random.default_rng((seed, CATEGORIES))
    gts = {
        image_id: [GroundTruthInstance(g.image_id, g.instance_id,
                                       int(rng.integers(1, CATEGORIES + 1)), g.mask)
                   for g in instances]
        for image_id, instances in sorted(synth.gts_by_image.items())
    }
    categories = {c: CategoryInfo(c, f"part-{c}") for c in range(1, CATEGORIES + 1)}
    dataset = Dataset(synth.images, categories, gts)
    write_ground_truth(dataset, root / GT_FILE)
    dets = perfect_detector(dataset, category_noise=CATEGORY_NOISE, seed=seed)
    n_dets = _write_dets(dets, root)
    n_gt = dataset.n_ground_truths
    # without spatial copies every detection past the originals is a relabel
    return Inputs(root, n_images, n_gt, n_dets, 0, n_dets - n_gt)


SCENES = {"hedged": make_hedged, "coco": make_coco}
