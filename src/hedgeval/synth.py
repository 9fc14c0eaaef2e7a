"""Synthetic part-counting scenes for exercising the metrics end to end.

Each image drops a fixed number of rigid elongated parts (capsules: a
rectangle with semicircular caps) near the image center. Parts are placed
sequentially, so a later part occludes everything under it; a ground-truth
mask holds only the part's visible pixels, and parts occluded down to zero
pixels are dropped. All parts share the single category "nail".

``perfect_detector`` turns the ground truth back into detections, optionally
injecting controlled hedging: low-confidence spatially-jittered duplicates
and/or wrong-category copies of each instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .coco import (
    CategoryInfo,
    Dataset,
    Detection,
    GroundTruthInstance,
    ImageInfo,
    SemanticMaskSet,
    write_ground_truth,
    write_semantic_masks,
)
from .mask import MaskTable, RleMask, encode_box

CATEGORY_ID = 1
CATEGORY_NAME = "nail"

PLACEMENT_TRIES = 10_000

# A duplicate that no longer overlaps what it duplicates is just noise, and
# heavily occluded slivers can lose most of their pixels under a fixed-size
# shift. Jitter offsets are retried until the copy still resembles the
# original at this IoU, falling back to an exact copy.
JITTER_MIN_IOU = 0.55


@dataclass(frozen=True)
class SynthConfig:
    """Resolved generator parameters; echoed verbatim into config.json."""

    n_images: int = 100
    parts_per_image: int = 10
    height: int = 256
    width: int = 256
    sigma_frac: float = 1.0 / 6.0
    length_range: tuple[float, float] = (48.0, 72.0)
    width_range: tuple[float, float] = (6.0, 10.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_images < 1:
            raise ValueError("n_images must be at least 1")
        if self.parts_per_image < 1:
            raise ValueError("parts_per_image must be at least 1")
        if self.height < 1 or self.width < 1:
            raise ValueError("image size must be positive")
        if not (math.isfinite(self.sigma_frac) and self.sigma_frac > 0):
            raise ValueError(f"sigma_frac must be finite and positive, got {self.sigma_frac}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name, (lo, hi) in (("length_range", self.length_range),
                               ("width_range", self.width_range)):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or hi < lo:
                raise ValueError(f"{name} must be finite with 0 <= lo <= hi, got ({lo}, {hi})")
        if self.width_range[0] <= 0:
            raise ValueError("part width must be positive")
        # A capsule's total extent is length + width (the caps add width/2
        # at each end), so the largest part must fit inside the image.
        extent = self.length_range[1] + self.width_range[1]
        if extent >= min(self.height, self.width):
            raise ValueError(
                f"part larger than image: max extent {extent} does not fit "
                f"inside {self.height}x{self.width}"
            )


def _capsule_box(height: int, width: int, cx: float, cy: float,
                 length: float, cap_width: float, theta: float):
    """Rasterize a capsule, the pixels whose center lies within cap_width/2
    of a spine of the given length centered on (cx, cy) and rotated by theta
    radians, on its clipped bounding box: ``(r0, c0, local)``, where ``local``
    is the bool mask of the box whose top-left pixel is (r0, c0); it is empty
    when the box misses the image."""
    half, r = length / 2.0, cap_width / 2.0
    ux, uy = np.cos(theta), np.sin(theta)
    p0 = (cx - half * ux, cy - half * uy)
    p1 = (cx + half * ux, cy + half * uy)

    xmin, xmax = min(p0[0], p1[0]) - r, max(p0[0], p1[0]) + r
    ymin, ymax = min(p0[1], p1[1]) - r, max(p0[1], p1[1]) + r
    c0 = max(0, int(np.floor(xmin - 0.5)))
    c1 = min(width - 1, int(np.ceil(xmax + 0.5)))
    r0 = max(0, int(np.floor(ymin - 0.5)))
    r1 = min(height - 1, int(np.ceil(ymax + 0.5)))
    if c1 < c0 or r1 < r0:
        return 0, 0, np.zeros((0, 0), dtype=bool)

    xs = np.arange(c0, c1 + 1, dtype=np.float64) + 0.5
    ys = np.arange(r0, r1 + 1, dtype=np.float64) + 0.5
    px = xs[None, :] - p0[0]
    py = ys[:, None] - p0[1]
    vx, vy = p1[0] - p0[0], p1[1] - p0[1]
    seg_len2 = vx * vx + vy * vy
    if seg_len2 > 0:
        t = np.clip((px * vx + py * vy) / seg_len2, 0.0, 1.0)
    else:
        t = 0.0
    dx = px - t * vx
    dy = py - t * vy
    return r0, c0, dx * dx + dy * dy <= r * r


def _place(cfg: SynthConfig, rng: np.random.Generator,
           length: float, cap_width: float, theta: float) -> tuple[float, float]:
    """Sample a center from the truncated normal by rejection: resample until
    the whole capsule lies inside the image."""
    half, r = length / 2.0, cap_width / 2.0
    ext_x = half * abs(np.cos(theta)) + r
    ext_y = half * abs(np.sin(theta)) + r
    for _ in range(PLACEMENT_TRIES):
        cx = rng.normal(cfg.width / 2.0, cfg.sigma_frac * cfg.width)
        cy = rng.normal(cfg.height / 2.0, cfg.sigma_frac * cfg.height)
        if ext_x <= cx <= cfg.width - ext_x and ext_y <= cy <= cfg.height - ext_y:
            return cx, cy
    raise RuntimeError(
        f"could not place a part inside the {cfg.height}x{cfg.width} image "
        f"after {PLACEMENT_TRIES} tries"
    )


def _label_canvas(cfg: SynthConfig, image_index: int) -> np.ndarray:
    """One scene's parts painted in draw order: part k (from 1) writes label
    k over its pixels, so each pixel holds the label of the last part drawn
    on it, 0 for background. The canvas is F-ordered, so its column-major
    flat view is free, and its dtype is the smallest unsigned type that
    holds every label. Each image has its own RNG stream derived from
    (seed, image_index), so results do not depend on how images are
    scheduled."""
    rng = np.random.default_rng((cfg.seed, image_index))
    canvas = np.zeros((cfg.height, cfg.width), order="F",
                      dtype=np.min_scalar_type(cfg.parts_per_image))
    for part in range(cfg.parts_per_image):
        length = rng.uniform(*cfg.length_range)
        cap_width = rng.uniform(*cfg.width_range)
        theta = rng.uniform(0.0, np.pi)
        cx, cy = _place(cfg, rng, length, cap_width, theta)
        r0, c0, local = _capsule_box(cfg.height, cfg.width, cx, cy, length, cap_width, theta)
        canvas[r0:r0 + local.shape[0], c0:c0 + local.shape[1]][local] = part + 1
    return canvas


def _label_runs(canvas: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """The column-major runs of every label present on ``canvas`` but 0, in
    label order (which is draw order), and those of the union of every
    label but 0, from one scan of the canvas.

    The canvas splits into maximal runs of one label. A stable sort groups
    the foreground runs by label, in image order within a label; a label's
    counts are then each run's distance from the end of the label's
    previous run (from the image start for its first run) and its length,
    then the background to the image end, dropped when empty, as
    ``encode`` writes it. The union changes only where a run of label 0
    meets one of another label, so its counts are the distances between
    those run starts.
    """
    flat = canvas.ravel(order="F")  # a view: the canvas is F-ordered
    starts = np.concatenate(([0], np.flatnonzero(flat[1:] != flat[:-1]) + 1))
    ends = np.append(starts[1:], flat.size)
    labels = flat[starts]
    edges = starts[np.diff(labels > 0, prepend=False)]
    union = np.diff(edges, prepend=0, append=flat.size).tolist()
    fg = np.flatnonzero(labels)
    fg = fg[np.argsort(labels[fg], kind="stable")]
    labels, starts, ends = labels[fg], starts[fg], ends[fg]
    # new[i]: a label's runs end before run i and the next label's start at it
    new = np.ones(labels.size + 1, dtype=bool)
    new[1:-1] = labels[1:] != labels[:-1]
    first, last = new[:-1], new[1:]
    before = np.roll(ends, 1)  # where the label's previous run ended
    before[first] = 0
    runs = np.empty(2 * labels.size, dtype=np.int64)
    runs[0::2], runs[1::2] = starts - before, ends - starts
    runs = runs.tolist()
    bounds = np.flatnonzero(new).tolist()
    tails = (flat.size - ends[last]).tolist()
    return [runs[2 * a:2 * b] + ([tail] if tail else [])
            for a, b, tail in zip(bounds, bounds[1:], tails)], union


def generate(cfg: SynthConfig, out_dir=None) -> tuple[Dataset, dict[int, SemanticMaskSet]]:
    """Build the dataset and per-image semantic masks (union of GT pixels).

    A ground-truth mask holds a part's pixels on its image's label canvas,
    which one scan of the canvas encodes for every part and for their
    union; parts with no visible pixel are dropped. When ``out_dir`` is
    given, writes annotations.json, a semantic/ mask directory, and
    config.json there.
    """
    h, w = cfg.height, cfg.width
    images: dict[int, ImageInfo] = {}
    gts_by_image: dict[int, list[GroundTruthInstance]] = {}
    semantic: dict[int, SemanticMaskSet] = {}
    ann_id = 1
    for index in range(cfg.n_images):
        image_id = index + 1
        images[image_id] = ImageInfo(image_id, h, w)
        parts, union = _label_runs(_label_canvas(cfg, index))
        gts = []
        for counts in parts:
            rle = RleMask._unchecked(h, w, counts)
            gts.append(GroundTruthInstance(image_id, ann_id, CATEGORY_ID, rle))
            ann_id += 1
        gts_by_image[image_id] = gts
        masks = {CATEGORY_ID: RleMask._unchecked(h, w, union)} if gts else {}
        semantic[image_id] = SemanticMaskSet(image_id, masks)

    dataset = Dataset(images, {CATEGORY_ID: CategoryInfo(CATEGORY_ID, CATEGORY_NAME)},
                      gts_by_image)
    if out_dir is not None:
        _write_scene(out_dir, cfg, dataset, semantic)
    return dataset, semantic


def _write_scene(out_dir, cfg: SynthConfig, dataset: Dataset, semantic) -> None:
    """Write ``generate``'s output files into ``out_dir``."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    write_ground_truth(dataset, root / "annotations.json")
    write_semantic_masks(semantic.values(), root / "semantic")
    with open(root / "config.json", "w") as f:
        json.dump(asdict(cfg), f, indent=2)
        f.write("\n")


def _jittered(rle: RleMask, table: MaskTable, i: int, rng: np.random.Generator, offsets):
    """A copy of mask ``i`` of ``table`` (whose runs are ``rle``) moved by the
    first of the ``offsets``, taken in a random order, whose copy keeps IoU
    ``JITTER_MIN_IOU`` with the mask, pixels moved off the image dropped;
    the mask itself when no offset qualifies.

    Every try is scored on windows of the mask's box crop. The winner is
    encoded from its crop, unless it stays inside the image, where it is a
    pure translation in column-major order: the mask's own runs with the
    first (background) run lengthened and the last one shortened by the
    shift. Those runs are valid by construction, so the copy skips
    ``RleMask``'s checks, as ``encode_box``'s output does.
    """
    h, w = rle.height, rle.width
    r0, r1, c0, c1 = table.boxes[i].tolist()
    bh, bw = r1 - r0, c1 - c0
    area = int(table.areas[i])
    crop = table.crops[i]
    for k in rng.permutation(len(offsets)):
        dy, dx = offsets[k]
        inter = 0
        if abs(dy) < bh and abs(dx) < bw:
            inter = np.count_nonzero(
                crop[max(dy, 0):bh + min(dy, 0), max(dx, 0):bw + min(dx, 0)]
                & crop[max(-dy, 0):bh + min(-dy, 0), max(-dx, 0):bw + min(-dx, 0)])
        # the crop rows and columns that stay inside the image once moved
        y0, x0 = max(0, -(r0 + dy)), max(0, -(c0 + dx))
        y1, x1 = max(y0, min(bh, h - (r0 + dy))), max(x0, min(bw, w - (c0 + dx)))
        inside = (y0, y1, x0, x1) == (0, bh, 0, bw)
        kept = crop[y0:y1, x0:x1]
        union = area + (area if inside else np.count_nonzero(kept)) - inter
        if not (union and inter / union >= JITTER_MIN_IOU):
            continue
        if inside and 0 not in rle.counts[1:]:  # canonical runs translate exactly
            shift = dy + dx * h
            counts = list(rle.counts) + ([0] if len(rle.counts) % 2 == 0 else [])
            counts[0] += shift
            counts[-1] -= shift
            if counts[-1] == 0:
                counts.pop()
            return RleMask._unchecked(h, w, counts)
        return encode_box(kept, r0 + dy + y0, c0 + dx + x0, h, w)
    return encode_box(crop, r0, c0, h, w)


def perfect_detector(dataset: Dataset, spatial_copies: int = 0,
                     category_noise: float = 0.0, conf_step: float = 0.05,
                     jitter_px: int = 2, seed: int = 0) -> dict[int, list[Detection]]:
    """Emit every GT mask as a confidence-1.0 detection, plus optional hedges.

    Spatial hedging adds ``spatial_copies`` jittered duplicates per instance
    at confidence 1.0 - conf_step*rank (rank 1..k), all below every original.
    Category hedging adds, with probability ``category_noise`` per instance,
    one exact-mask copy relabeled to another category from the dataset table.
    """
    if spatial_copies < 0:
        raise ValueError("spatial_copies must be non-negative")
    if not 0.0 <= category_noise <= 1.0:
        raise ValueError("category_noise must lie in [0, 1]")
    if jitter_px < 1:
        raise ValueError("jitter_px must be at least 1")
    max_rank = spatial_copies + (1 if category_noise > 0 else 0)
    if not math.isfinite(conf_step) or conf_step <= 0 or conf_step * max_rank >= 1:
        raise ValueError(
            f"conf_step {conf_step} with {max_rank} hedges per instance pushes "
            "confidences out of (0, 1]"
        )
    if category_noise > 0 and len(dataset.categories) < 2:
        raise ValueError("category_noise requires at least two categories in the dataset")

    offsets = [(dy, dx)
               for dy in range(-jitter_px, jitter_px + 1)
               for dx in range(-jitter_px, jitter_px + 1)
               if (dy, dx) != (0, 0)]
    out: dict[int, list[Detection]] = {}
    for image_id in dataset.images:
        gts = dataset.gts_by_image.get(image_id, [])
        rng = np.random.default_rng((seed, image_id, 1))
        dets = [Detection(image_id, gt.category_id, 1.0, gt.mask) for gt in gts]
        table = MaskTable.from_rles(gt.mask for gt in gts) if spatial_copies else None
        for i, gt in enumerate(gts):
            rank = 0
            for _ in range(spatial_copies):
                rank += 1
                copy = _jittered(gt.mask, table, i, rng, offsets)
                dets.append(Detection(image_id, gt.category_id, 1.0 - conf_step * rank, copy))
            if category_noise > 0 and rng.random() < category_noise:
                rank += 1
                others = sorted(c for c in dataset.categories if c != gt.category_id)
                wrong = others[rng.integers(len(others))]
                dets.append(Detection(image_id, wrong, 1.0 - conf_step * rank, gt.mask))
        out[image_id] = dets
    return out
