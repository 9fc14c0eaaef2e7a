"""COCO-format file I/O: ground-truth annotations, detection results, and
per-category semantic masks.

All masks are validated at ingestion (dimensions, pixel-count consistency,
non-emptiness) so downstream metric code never sees malformed data, and
errors carry the offending annotation/record so bad files are debuggable.
Rejected detection records are counted rather than silently dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .mask import (
    RleMask,
    _decoded_rle,
    _foreground_runs,
    encode,
    leb_counts,
    rasterize_polygon,
)

DERIVE_FROM_GT = "derive-from-gt"
DERIVE_FROM_DT = "derive-from-dt"


class LoadError(ValueError):
    """A file failed structural validation at ingestion."""


@dataclass(frozen=True)
class ImageInfo:
    id: int
    height: int
    width: int


@dataclass(frozen=True)
class CategoryInfo:
    id: int
    name: str


@dataclass(frozen=True)
class GroundTruthInstance:
    image_id: int
    instance_id: int
    category_id: int
    mask: RleMask


@dataclass(frozen=True)
class Detection:
    image_id: int
    category_id: int
    score: float
    mask: RleMask


@dataclass
class SemanticMaskSet:
    """One run-length mask per category for a single image, like every other
    mask of the data model; ``decode`` gives a category's pixels. A category
    with no entry has an empty mask."""

    image_id: int
    masks: dict[int, RleMask]


@dataclass
class Dataset:
    images: dict[int, ImageInfo]
    categories: dict[int, CategoryInfo]
    gts_by_image: dict[int, list[GroundTruthInstance]]

    @property
    def n_ground_truths(self) -> int:
        return sum(len(v) for v in self.gts_by_image.values())


@dataclass
class DetectionLoadResult:
    by_image: dict[int, list[Detection]]
    rejected_bad_score: int = 0
    rejected_empty_mask: int = 0

    @property
    def n_loaded(self) -> int:
        return sum(len(v) for v in self.by_image.values())


def _require(record: dict, keys, what: str):
    if not isinstance(record, dict):
        raise LoadError(f"{what} must be a JSON object, got {type(record).__name__}")
    for k in keys:
        if k not in record:
            raise LoadError(f"{what} is missing required field '{k}'")


def _integer(value, name: str) -> int:
    """An integer JSON field: ints and integral floats pass; anything else
    (a bool, a fractional number, a string, null, a list or an object)
    raises ``LoadError`` naming the field."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise LoadError(f"field '{name}' must be an integer, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    """A numeric JSON field as a float: a bool, a string or any other
    non-number raises ``LoadError`` naming the field. NaN and infinities
    pass, for the caller's range check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LoadError(f"field '{name}' must be a number, got {value!r}")
    return float(value)


def _check_segmentation(seg, height: int, width: int):
    """Check a segmentation's fields without decoding it. Returns the counts
    string of compressed RLE, the run lengths of raw-counts RLE as a tuple,
    or the polygon list, whose coordinates are finite numbers."""
    if isinstance(seg, dict):
        _require(seg, ("size", "counts"), "segmentation object")
        if not isinstance(seg["size"], list) or len(seg["size"]) != 2:
            raise LoadError(f"field 'segmentation.size' must be a list of two integers, got {seg['size']!r}")
        h, w = (_integer(v, "segmentation.size") for v in seg["size"])
        if (h, w) != (height, width):
            raise LoadError(f"segmentation size {h}x{w} does not match image {height}x{width}")
        if isinstance(seg["counts"], str):
            return seg["counts"]
        if not isinstance(seg["counts"], list):
            raise LoadError(f"field 'segmentation.counts' must be a string or a list, got {seg['counts']!r}")
        return tuple(_integer(c, "segmentation.counts") for c in seg["counts"])
    if isinstance(seg, list):
        if not seg or not all(isinstance(p, list) for p in seg):
            raise LoadError("polygon segmentation must be a non-empty list of coordinate lists")
        for c in chain.from_iterable(seg):
            if not math.isfinite(_number(c, "segmentation")):
                raise LoadError(f"field 'segmentation' must hold finite coordinates, got {c!r}")
        return seg
    raise LoadError(f"unsupported segmentation of type {type(seg).__name__}")


def _read_json(path):
    """The JSON value of a file; text that is not JSON raises ``LoadError``
    naming the file and the decoder's message."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise LoadError(f"{path} is not valid JSON: {e}") from e


def _check_in_order(records, check):
    """``check`` each record in order, stopping at the first ``LoadError``
    (a field fault), which ``records`` may also raise while it is iterated.
    Returns the checked records and that fault, or None."""
    checked = []
    try:
        for rec in records:
            checked.append(check(rec))
    except LoadError as e:
        return checked, e
    return checked, None


def _with_masks(checked, fault):
    """Yield ``(label, mask, *fields)`` for each checked record ``(label,
    image, source, *fields)`` in order, where ``source`` is what
    ``_check_segmentation`` returned; the counts strings of all the records
    are decoded in batches. A mask fault raises ``LoadError`` prefixed with
    its record's label. ``fault`` is raised after every record before it
    has been built, so an error always names the first faulty record in
    file order."""
    leb = leb_counts([c[2] for c in checked if isinstance(c[2], str)])
    for label, img, source, *fields in checked:
        try:
            if isinstance(source, str):
                mask = _decoded_rle(img.height, img.width, next(leb))
            elif isinstance(source, tuple):
                mask = RleMask(img.height, img.width, source)
            else:
                dense = np.zeros((img.height, img.width), dtype=bool)
                for poly in source:
                    dense |= rasterize_polygon(poly, img.height, img.width)
                mask = encode(dense)
        except ValueError as e:
            raise LoadError(f"{label}: {e}") from e
        yield (label, mask, *fields)
    if fault is not None:
        raise fault


def load_ground_truth(path) -> Dataset:
    """Read a COCO annotation file into the validated domain model.

    Annotations are checked field by field first, then their masks are
    built with the counts strings decoded in batches; errors still name the
    first faulty annotation in file order.
    """
    raw = _read_json(path)
    _require(raw, ("images", "annotations", "categories"), f"annotation file {path}")
    for key in ("images", "annotations", "categories"):
        if not isinstance(raw[key], list):
            raise LoadError(f"annotation file {path}: '{key}' must be a list, got {type(raw[key]).__name__}")

    images: dict[int, ImageInfo] = {}
    for k, rec in enumerate(raw["images"]):
        _require(rec, ("id", "height", "width"), "image record")
        info = ImageInfo(*(_integer(rec[f], f"images[{k}].{f}") for f in ("id", "height", "width")))
        for f in ("height", "width"):
            if getattr(info, f) < 1:
                raise LoadError(f"field 'images[{k}].{f}' must be at least 1, got {getattr(info, f)}")
        if info.id in images:
            raise LoadError(f"images: duplicate id {info.id}")
        images[info.id] = info
    categories: dict[int, CategoryInfo] = {}
    for k, rec in enumerate(raw["categories"]):
        _require(rec, ("id", "name"), "category record")
        cat = CategoryInfo(_integer(rec["id"], f"categories[{k}].id"), rec["name"])
        if not isinstance(cat.name, str):
            raise LoadError(f"field 'categories[{k}].name' must be a string, got {cat.name!r}")
        if cat.id in categories:
            raise LoadError(f"categories: duplicate id {cat.id}")
        categories[cat.id] = cat

    gts_by_image: dict[int, list[GroundTruthInstance]] = {i: [] for i in images}
    ann_ids: set[int] = set()
    checked = _check_in_order(raw["annotations"], lambda rec: _check_annotation(rec, images, categories))
    for label, mask, instance_id, image_id, category_id in _with_masks(*checked):
        if mask.area == 0:
            raise LoadError(f"{label}: mask is empty")
        if instance_id in ann_ids:
            raise LoadError(f"annotations: duplicate id {instance_id}")
        ann_ids.add(instance_id)
        gts_by_image[image_id].append(
            GroundTruthInstance(image_id, instance_id, category_id, mask)
        )
    return Dataset(images, categories, gts_by_image)


def _check_annotation(rec, images, categories):
    _require(rec, ("id", "image_id", "category_id", "segmentation"), "annotation")
    label = f"annotation {rec['id']}"
    try:
        instance_id = _integer(rec["id"], "id")
        if _integer(rec.get("iscrowd", 0), "iscrowd"):
            raise LoadError("iscrowd annotations are not supported")
        image_id = _integer(rec["image_id"], "image_id")
        category_id = _integer(rec["category_id"], "category_id")
        if image_id not in images:
            raise LoadError(f"references unknown image {image_id}")
        if category_id not in categories:
            raise LoadError(f"references unknown category {category_id}")
        img = images[image_id]
        source = _check_segmentation(rec["segmentation"], img.height, img.width)
    except ValueError as e:
        raise LoadError(f"{label}: {e}") from e
    return label, img, source, instance_id, image_id, category_id


def load_detections(path, dataset: Dataset) -> DetectionLoadResult:
    """Read a COCO results array, validating against the dataset tables.

    Records are checked field by field first, then their masks are built
    with the counts strings decoded in batches; errors still name the first
    faulty record in file order.
    """
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise LoadError(f"detection file {path} must hold a JSON array")
    out = DetectionLoadResult({i: [] for i in dataset.images})
    checked = _check_in_order(enumerate(raw), lambda item: _check_detection(*item, dataset))
    for _, mask, image_id, category_id, score in _with_masks(*checked):
        if not 0.0 <= score <= 1.0:
            out.rejected_bad_score += 1
            continue
        if mask.area == 0:
            out.rejected_empty_mask += 1
            continue
        out.by_image[image_id].append(Detection(image_id, category_id, score, mask))
    return out


def _check_detection(idx: int, rec, dataset: Dataset):
    label = f"detection {idx}"
    _require(rec, ("image_id", "category_id", "score", "segmentation"), label)
    try:
        image_id = _integer(rec["image_id"], "image_id")
        category_id = _integer(rec["category_id"], "category_id")
        if image_id not in dataset.images:
            raise LoadError(f"references unknown image {image_id}")
        if category_id not in dataset.categories:
            raise LoadError(f"references unknown category {category_id}")
        score = _number(rec["score"], "score")
        img = dataset.images[image_id]
        source = _check_segmentation(rec["segmentation"], img.height, img.width)
    except ValueError as e:
        raise LoadError(f"{label}: {e}") from e
    return label, img, source, image_id, category_id, score


def _union_masks(image: ImageInfo, groups) -> dict[int, RleMask]:
    """Each category's union of its masks, merged from their foreground runs
    with no pixel painted, so it holds memory for runs, not for H x W.

    Every mask's runs sum to H x W, so a run's start modulo H x W is its
    first pixel in the image. Sorted by start, a run joins the union's
    current run unless it starts past the furthest end so far; the merged
    runs are disjoint and never touch, so their counts are the canonical
    ones ``encode`` writes for the painted union.
    """
    h, w = image.height, image.width
    masks: dict[int, RleMask] = {}
    for category_id, rles in groups.items():
        for r in rles:
            if (r.height, r.width) != (h, w):
                raise ValueError(f"mask size {(r.height, r.width)} differs from image size {(h, w)}")
        run, end = _foreground_runs(rles)
        start = (end - run) % (h * w)
        order = np.argsort(start, kind="stable")
        start = start[order]
        reach = np.maximum.accumulate(start + run[order])  # furthest end so far
        new = np.ones(start.size, dtype=bool)  # a merged run starts here
        new[1:] = start[1:] > reach[:-1]
        last = np.ones(start.size, dtype=bool)  # a merged run ends here
        last[:-1] = new[1:]
        edges = np.stack((start[new], reach[last]), axis=1).ravel()
        counts = np.diff(edges, prepend=0, append=h * w).tolist()
        if counts[-1] == 0:  # the last run is foreground and ends the image
            counts.pop()
        masks[category_id] = RleMask._unchecked(h, w, counts)
    return masks


def _semantic_files(root: Path, dataset: Dataset):
    """Yield ``(image_id, image, category_id, path)`` for each semantic-mask
    file present, in (image, category) order; a missing image directory or
    a file named after no dataset category raises ``LoadError``."""
    for image_id, img in dataset.images.items():
        img_dir = root / str(image_id)
        if not img_dir.is_dir():
            raise LoadError(f"semantic mask directory missing image entry {img_dir}")
        present = {fp.name for fp in img_dir.glob("*.json")}
        stray = present - {f"{c}.json" for c in dataset.categories}
        if stray:
            raise LoadError(f"semantic mask {img_dir / min(stray)}: no such category in the dataset")
        for category_id in dataset.categories:
            fp = img_dir / f"{category_id}.json"
            if fp.name in present:
                yield image_id, img, category_id, fp


def _check_semantic_file(entry):
    image_id, img, category_id, fp = entry
    label = f"semantic mask {fp}"
    try:
        with open(fp) as f:
            seg = json.load(f)
        source = _check_segmentation(seg, img.height, img.width)
    except (OSError, ValueError) as e:
        raise LoadError(f"{label}: {e}") from e
    return label, img, source, image_id, category_id


def load_semantic_masks(source, dataset: Dataset, detections: dict[int, list[Detection]] | None = None,
                        conf_floor: float = 0.5) -> dict[int, SemanticMaskSet]:
    """Produce one SemanticMaskSet per dataset image, its masks as runs.

    ``source`` is a directory path (layout semantic/<image_id>/<category_id>.json,
    one RLE object per file; absent files mean an empty mask, a JSON file
    named after no dataset category or a file that cannot be read raises
    ``LoadError``), or one of the modes 'derive-from-gt' (union of GT masks
    per category) and 'derive-from-dt' (union of detection masks per
    category with score >= conf_floor, requires ``detections``; those of
    images outside the dataset are ignored). A source that is neither a
    mode nor a directory raises ``LoadError``. Directory files are checked
    first, then their masks are built with the counts strings decoded in
    batches, as the two loaders do; errors name the first faulty file in
    (image, category) order. No mask is decoded to pixels: memory follows
    the masks' runs, not images x H x W. A ``conf_floor`` outside [0, 1],
    NaN included, raises ``ValueError``.
    """
    if not 0.0 <= conf_floor <= 1.0:
        raise ValueError(f"conf_floor must lie in [0, 1], got {conf_floor}")
    if source == DERIVE_FROM_DT and detections is None:
        raise ValueError("derive-from-dt requires detections")
    if source in (DERIVE_FROM_GT, DERIVE_FROM_DT):
        by_image = dataset.gts_by_image if source == DERIVE_FROM_GT else detections
        out: dict[int, SemanticMaskSet] = {}
        for image_id, img in dataset.images.items():
            groups: dict[int, list[RleMask]] = {}
            for inst in by_image.get(image_id, ()):
                if source == DERIVE_FROM_GT or inst.score >= conf_floor:
                    groups.setdefault(inst.category_id, []).append(inst.mask)
            out[image_id] = SemanticMaskSet(image_id, _union_masks(img, groups))
        return out

    root = Path(source)
    if not root.is_dir():
        raise LoadError(f"semantic mask source {source} is not a directory")
    out = {i: SemanticMaskSet(i, {}) for i in dataset.images}
    checked = _check_in_order(_semantic_files(root, dataset), _check_semantic_file)
    for _, rle, image_id, category_id in _with_masks(*checked):
        out[image_id].masks[category_id] = rle
    return out


def detection_to_json(det: Detection) -> dict:
    return {
        "image_id": det.image_id,
        "category_id": det.category_id,
        "score": det.score,
        "segmentation": det.mask.to_json(),
    }


_JSON_SLICE = 256  # records per json.dumps call


def _write_array(f, records) -> None:
    """Write the records as the JSON array ``json.dump`` writes, byte for
    byte. ``json.dump`` always runs the pure-Python encoder; ``json.dumps``
    runs the C one, and a slice at a time it never holds the whole file."""
    f.write("[")
    records = iter(records)
    sep = ""
    while batch := list(islice(records, _JSON_SLICE)):
        f.write(sep + json.dumps(batch)[1:-1])
        sep = ", "
    f.write("]")


def write_detections(dets, path) -> None:
    """Write detections as a COCO results array (load_detections inverse)."""
    with open(path, "w") as f:
        _write_array(f, map(detection_to_json, dets))


def write_ground_truth(dataset: Dataset, path) -> None:
    """Write a Dataset as a COCO annotation file (load_ground_truth inverse)."""
    images = [{"id": i.id, "height": i.height, "width": i.width}
              for i in dataset.images.values()]
    annotations = (
        {
            "id": gt.instance_id,
            "image_id": gt.image_id,
            "category_id": gt.category_id,
            "iscrowd": 0,
            "area": gt.mask.area,
            "segmentation": gt.mask.to_json(),
        }
        for gts in dataset.gts_by_image.values()
        for gt in gts
    )
    categories = [{"id": c.id, "name": c.name} for c in dataset.categories.values()]
    with open(path, "w") as f:
        f.write('{"images": ' + json.dumps(images) + ', "annotations": ')
        _write_array(f, annotations)
        f.write(', "categories": ' + json.dumps(categories) + "}")


def write_semantic_masks(sets, out_dir) -> None:
    """Write SemanticMaskSets in the directory layout load_semantic_masks reads.

    Each mask's runs are written as they are, never decoded. Empty category
    masks are skipped; absence and all-zero are equivalent on the read side.
    """
    root = Path(out_dir)
    for sem in sets:
        img_dir = root / str(sem.image_id)
        img_dir.mkdir(parents=True, exist_ok=True)
        for category_id in sorted(sem.masks):
            rle = sem.masks[category_id]
            if not rle.area:
                continue
            with open(img_dir / f"{category_id}.json", "w") as f:
                f.write(json.dumps(rle.to_json()))


def write_report(report: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
