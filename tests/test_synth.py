"""Synthetic scene generator and the hedging injector built on top of it."""

import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hedgeval.cli import main
from hedgeval.coco import (
    CategoryInfo,
    Dataset,
    GroundTruthInstance,
    ImageInfo,
    load_detections,
    load_ground_truth,
    load_semantic_masks,
    write_detections,
    write_ground_truth,
)
from hedgeval import mask as mask_module
from hedgeval import synth
from hedgeval.mask import RleMask, decode, encode, iou
from hedgeval.synth import SynthConfig, _label_canvas, _place, generate, perfect_detector

from _reference_synth import generate_image, render_capsule, shift_mask


def capsule_oracle(h, w, cx, cy, length, cap_width, theta):
    """Literal per-pixel transcription of the capsule definition."""
    out = np.zeros((h, w), dtype=bool)
    half, r = length / 2.0, cap_width / 2.0
    p0 = (cx - half * np.cos(theta), cy - half * np.sin(theta))
    p1 = (cx + half * np.cos(theta), cy + half * np.sin(theta))
    vx, vy = p1[0] - p0[0], p1[1] - p0[1]
    seg_len2 = vx * vx + vy * vy
    for row in range(h):
        for col in range(w):
            px, py = col + 0.5, row + 0.5
            if seg_len2 > 0:
                t = min(1.0, max(0.0, ((px - p0[0]) * vx + (py - p0[1]) * vy) / seg_len2))
            else:
                t = 0.0
            qx, qy = p0[0] + t * vx, p0[1] + t * vy
            if (px - qx) ** 2 + (py - qy) ** 2 <= r * r:
                out[row, col] = True
    return out


def render_capsule_full_canvas(height, width, cx, cy, length, cap_width, theta):
    """The capsule painted on a whole-image canvas, as the generator did
    before it worked on each part's box."""
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
    out = np.zeros((height, width), dtype=bool)
    if c1 < c0 or r1 < r0:
        return out
    xs = np.arange(c0, c1 + 1, dtype=np.float64) + 0.5
    ys = np.arange(r0, r1 + 1, dtype=np.float64) + 0.5
    px = xs[None, :] - p0[0]
    py = ys[:, None] - p0[1]
    vx, vy = p1[0] - p0[0], p1[1] - p0[1]
    seg_len2 = vx * vx + vy * vy
    t = np.clip((px * vx + py * vy) / seg_len2, 0.0, 1.0) if seg_len2 > 0 else 0.0
    dx = px - t * vx
    dy = py - t * vy
    out[r0:r1 + 1, c0:c1 + 1] = dx * dx + dy * dy <= r * r
    return out


def generate_image_full_canvas(cfg, image_index):
    """Every part painted over the whole canvas and every visible mask read
    by comparing the whole canvas: the generator before box painting."""
    rng = np.random.default_rng((cfg.seed, image_index))
    canvas = np.zeros((cfg.height, cfg.width), dtype=np.int32)
    for part in range(cfg.parts_per_image):
        length = rng.uniform(*cfg.length_range)
        cap_width = rng.uniform(*cfg.width_range)
        theta = rng.uniform(0.0, np.pi)
        cx, cy = _place(cfg, rng, length, cap_width, theta)
        canvas[render_capsule_full_canvas(cfg.height, cfg.width, cx, cy,
                                          length, cap_width, theta)] = part + 1
    visible = []
    for part in range(cfg.parts_per_image):
        m = canvas == part + 1
        if m.any():
            visible.append(m)
    return visible


def jittered_dense(dense, rng, jitter_px):
    """The jitter search on whole-image masks, as the detector ran it before
    it worked on boxes and runs: every try shifts the whole mask."""
    offsets = [(dy, dx)
               for dy in range(-jitter_px, jitter_px + 1)
               for dx in range(-jitter_px, jitter_px + 1)
               if (dy, dx) != (0, 0)]
    area = np.count_nonzero(dense)
    for i in rng.permutation(len(offsets)):
        dy, dx = offsets[i]
        shifted = shift_mask(dense, dy, dx)
        inter = np.count_nonzero(shifted & dense)
        union = area + np.count_nonzero(shifted) - inter
        if union and inter / union >= synth.JITTER_MIN_IOU:
            return shifted
    return dense.copy()


def spatial_copies_dense(dataset, spatial_copies, jitter_px, seed):
    """Per image, the runs of every jittered copy, from dense masks."""
    out = {}
    for image_id in dataset.images:
        rng = np.random.default_rng((seed, image_id, 1))
        out[image_id] = [encode(jittered_dense(decode(gt.mask), rng, jitter_px)).counts
                         for gt in dataset.gts_by_image.get(image_id, [])
                         for _ in range(spatial_copies)]
    return out


class TestSynthConfig:
    def test_defaults_are_valid(self):
        SynthConfig()

    @pytest.mark.parametrize("kwargs", [
        {"n_images": 0},
        {"parts_per_image": 0},
        {"sigma_frac": 0.0},
        {"seed": -1},
        {"height": 0},
        {"length_range": (72.0, 48.0)},
        {"width_range": (0.0, 4.0)},
        {"length_range": (-5.0, 10.0)},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("length_range", (float("nan"), float("nan"))),
        ("width_range", (6.0, float("inf"))),
        ("sigma_frac", float("inf")),
    ])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{field: value})

    def test_rejects_part_larger_than_image(self):
        with pytest.raises(ValueError, match="larger than image"):
            SynthConfig(height=64, width=64, length_range=(60.0, 60.0),
                        width_range=(6.0, 6.0))


class TestRenderCapsule:
    def test_matches_pixel_oracle(self, rng):
        for _ in range(20):
            length = rng.uniform(4.0, 20.0)
            cap_width = rng.uniform(2.0, 8.0)
            theta = rng.uniform(0.0, np.pi)
            cx, cy = rng.uniform(4.0, 36.0, size=2)
            got = render_capsule(40, 40, cx, cy, length, cap_width, theta)
            want = capsule_oracle(40, 40, cx, cy, length, cap_width, theta)
            assert np.array_equal(got, want)

    def test_area_close_to_geometry(self):
        got = render_capsule(64, 64, 32.0, 32.0, 40.0, 8.0, 0.0)
        expected = 40.0 * 8.0 + np.pi * 4.0 ** 2
        assert 0.9 < got.sum() / expected < 1.1

    def test_zero_length_is_a_disc(self):
        got = render_capsule(32, 32, 16.0, 16.0, 0.0, 10.0, 0.3)
        expected = np.pi * 5.0 ** 2
        assert 0.85 < got.sum() / expected < 1.15

    def test_far_outside_image_is_empty(self):
        got = render_capsule(32, 32, 200.0, 200.0, 10.0, 4.0, 0.0)
        assert not got.any()

    def test_matches_full_canvas_painting(self, rng):
        # centres inside, across the borders and far outside the image
        for _ in range(300):
            h, w = rng.integers(1, 60, size=2)
            length = rng.uniform(0.0, 40.0)
            cap_width = rng.uniform(0.5, 12.0)
            theta = rng.uniform(0.0, np.pi)
            cx, cy = rng.uniform(-30.0, w + 30.0), rng.uniform(-30.0, h + 30.0)
            got = render_capsule(h, w, cx, cy, length, cap_width, theta)
            want = render_capsule_full_canvas(h, w, cx, cy, length, cap_width, theta)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert np.array_equal(got, want)


class TestShiftMask:
    def test_known_shift(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1, 1] = True
        got = shift_mask(m, 1, 2)
        assert got[2, 3] and got.sum() == 1

    def test_content_falls_off_the_edge(self):
        m = np.ones((3, 3), dtype=bool)
        assert shift_mask(m, 2, 0).sum() == 3
        assert shift_mask(m, 3, 0).sum() == 0

    @pytest.mark.parametrize("dy, dx", [(4, 0), (-4, 0), (0, 5), (0, -5), (9, -9), (100, 1)])
    def test_shift_beyond_the_image_is_empty(self, dy, dx):
        m = np.ones((4, 5), dtype=bool)
        got = shift_mask(m, dy, dx)
        assert got.shape == m.shape and got.dtype == m.dtype and not got.any()

    def test_interior_round_trip(self, rng):
        m = np.zeros((12, 12), dtype=bool)
        m[4:8, 4:8] = rng.random((4, 4)) < 0.7
        assert np.array_equal(shift_mask(shift_mask(m, 2, -1), -2, 1), m)


class TestGenerateImage:
    def test_deterministic_per_index(self):
        cfg = SynthConfig(n_images=1, seed=7)
        a = generate_image(cfg, 3)
        b = generate_image(cfg, 3)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_indices_give_distinct_scenes(self):
        cfg = SynthConfig(n_images=2, seed=7)
        a, b = generate_image(cfg, 0), generate_image(cfg, 1)
        union_a = np.logical_or.reduce(a)
        union_b = np.logical_or.reduce(b)
        assert not np.array_equal(union_a, union_b)

    def test_visible_masks_are_pairwise_disjoint(self):
        cfg = SynthConfig(n_images=1, seed=11)
        for index in range(30):
            stack = np.array(generate_image(cfg, index))
            assert stack.sum(axis=0).max() <= 1

    def test_count_bounds_hold_across_many_images(self):
        cfg = SynthConfig(n_images=1, seed=5)
        counts = [len(generate_image(cfg, index)) for index in range(1000)]
        assert all(1 <= c <= cfg.parts_per_image for c in counts)

    def test_crowding_drops_fully_occluded_parts(self):
        cfg = SynthConfig(n_images=1, parts_per_image=30, height=96, width=96,
                          sigma_frac=0.08, length_range=(30.0, 40.0),
                          width_range=(8.0, 12.0), seed=3)
        counts = [len(generate_image(cfg, index)) for index in range(50)]
        assert min(counts) < cfg.parts_per_image
        assert all(c >= 1 for c in counts)


    @pytest.mark.parametrize("cfg", [
        SynthConfig(n_images=1, seed=0),
        SynthConfig(n_images=1, seed=13, parts_per_image=25, height=48, width=64,
                    length_range=(14.0, 22.0), width_range=(3.0, 5.0)),
        # COCO size with heavy occlusion: many parts are covered entirely
        SynthConfig(n_images=1, seed=3, parts_per_image=80, height=480, width=640),
        SynthConfig(n_images=1, seed=21, parts_per_image=80, height=96, width=96,
                    sigma_frac=0.08, length_range=(30.0, 40.0), width_range=(8.0, 12.0)),
    ])
    def test_matches_full_canvas_painting(self, cfg):
        for index in range(3):
            got = generate_image(cfg, index)
            want = generate_image_full_canvas(cfg, index)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.flags.c_contiguous
                assert np.array_equal(g, w)


@st.composite
def small_configs(draw):
    """Small scenes: crowded ones, where later parts cover earlier ones
    whole; long parts, which reach the image borders; and zero-length parts
    (discs). Placement may still run out of tries on a tight fit."""
    h, w = draw(st.integers(4, 40)), draw(st.integers(4, 40))
    room = min(h, w)
    cap_hi = room * draw(st.floats(0.05, 0.5))
    cap_lo = cap_hi * draw(st.floats(0.1, 1.0))
    length_hi = (room - cap_hi) * max(0.0, draw(st.floats(-0.3, 0.9)))
    length_lo = length_hi * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return SynthConfig(n_images=draw(st.integers(1, 2)), parts_per_image=draw(st.integers(1, 60)),
                       height=h, width=w, sigma_frac=draw(st.floats(0.02, 1.0)),
                       length_range=(length_lo, length_hi), width_range=(cap_lo, cap_hi),
                       seed=draw(st.integers(0, 2**16)))


# 300 parts on 24x24: the labels past 255 need a uint16 canvas
MANY_PARTS = SynthConfig(n_images=1, parts_per_image=300, height=24, width=24, sigma_frac=0.3,
                         length_range=(0.0, 8.0), width_range=(1.0, 4.0), seed=5)


class TestGenerate:
    @settings(max_examples=150, deadline=None)
    @given(small_configs())
    @example(MANY_PARTS)
    def test_matches_full_canvas_painting(self, cfg):
        # every visible part, as canonical runs, and the union, against the
        # generator that compared the whole int32 canvas with each label
        try:
            want = [generate_image_full_canvas(cfg, index) for index in range(cfg.n_images)]
        except RuntimeError:
            with pytest.raises(RuntimeError, match="could not place"):
                generate(cfg)
            return
        ds, semantic = generate(cfg)
        for index, visible in enumerate(want):
            gts = ds.gts_by_image[index + 1]
            assert [gt.mask.counts for gt in gts] == [encode(m).counts for m in visible]
            for gt, m in zip(gts, visible):
                assert gt.mask == RleMask(cfg.height, cfg.width, gt.mask.counts)
                assert np.array_equal(decode(gt.mask), m)
            if visible:
                union = np.logical_or.reduce(visible)
                assert semantic[index + 1].masks[1].counts == encode(union).counts
                assert np.array_equal(decode(semantic[index + 1].masks[1]), union)
            else:
                assert semantic[index + 1].masks == {}

    def test_labels_past_255_widen_the_canvas(self):
        canvas = _label_canvas(MANY_PARTS, 0)
        assert canvas.dtype == np.uint16 and canvas.flags.f_contiguous
        assert canvas.max() > 255
        assert _label_canvas(replace(MANY_PARTS, parts_per_image=255), 0).dtype == np.uint8

    def test_dataset_shape(self):
        cfg = SynthConfig(n_images=6, seed=1)
        ds, semantic = generate(cfg)
        assert set(ds.images) == set(range(1, 7)) == set(ds.gts_by_image) == set(semantic)
        assert list(ds.categories) == [1] and ds.categories[1].name == "nail"
        seen_ids = [gt.instance_id for gts in ds.gts_by_image.values() for gt in gts]
        assert seen_ids == sorted(seen_ids) and len(set(seen_ids)) == len(seen_ids)
        for gts in ds.gts_by_image.values():
            assert 1 <= len(gts) <= cfg.parts_per_image
            assert all(gt.mask.area > 0 for gt in gts)

    def test_semantic_is_union_of_ground_truth(self):
        ds, semantic = generate(SynthConfig(n_images=4, seed=9))
        for image_id, gts in ds.gts_by_image.items():
            union = np.zeros((256, 256), dtype=bool)
            for gt in gts:
                union |= decode(gt.mask)
            assert np.array_equal(decode(semantic[image_id].masks[1]), union)

    def test_written_files_reload(self, tmp_path):
        cfg = SynthConfig(n_images=3, seed=2)
        ds, semantic = generate(cfg, tmp_path)
        reloaded = load_ground_truth(tmp_path / "annotations.json")
        assert reloaded.images == ds.images
        assert reloaded.categories == ds.categories
        assert reloaded.gts_by_image == ds.gts_by_image
        sem_reloaded = load_semantic_masks(tmp_path / "semantic", reloaded)
        for image_id in ds.images:
            assert np.array_equal(decode(sem_reloaded[image_id].masks[1]),
                                  decode(semantic[image_id].masks[1]))
        with open(tmp_path / "config.json") as f:
            stored = json.load(f)
        assert stored["seed"] == 2 and stored["n_images"] == 3
        assert tuple(stored["length_range"]) == cfg.length_range

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        cfg = SynthConfig(n_images=4, seed=13)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        generate(cfg, dir_a)
        generate(cfg, dir_b)
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*.json"))
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*.json"))
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()


class TestWrittenOnce:
    def test_each_mask_object_is_compressed_once(self, tmp_path, monkeypatch):
        ds, _ = generate(SynthConfig(n_images=3, seed=4))
        dets = perfect_detector(ds, spatial_copies=1, seed=2)
        flat = [d for image_id in sorted(dets) for d in dets[image_id]]
        compressed = []
        compress = mask_module.compress_leb

        def counting(rle):
            compressed.append(id(rle))
            return compress(rle)

        monkeypatch.setattr(mask_module, "compress_leb", counting)
        write_ground_truth(ds, tmp_path / "gt.json")
        write_detections(flat, tmp_path / "dt.json")
        gt_masks = {id(gt.mask) for gts in ds.gts_by_image.values() for gt in gts}
        masks = gt_masks | {id(d.mask) for d in flat}
        # a perfect detection shares its ground truth's mask; a copy is new
        assert len(gt_masks) == ds.n_ground_truths and len(masks) == 2 * ds.n_ground_truths
        assert sorted(compressed) == sorted(masks)

        def fresh(m):
            return RleMask(m.height, m.width, m.counts)

        fresh_ds = Dataset(ds.images, ds.categories,
                           {i: [replace(gt, mask=fresh(gt.mask)) for gt in gts]
                            for i, gts in ds.gts_by_image.items()})
        write_ground_truth(fresh_ds, tmp_path / "fresh_gt.json")
        write_detections([replace(d, mask=fresh(d.mask)) for d in flat], tmp_path / "fresh_dt.json")
        for name in ("gt", "dt"):
            assert ((tmp_path / f"{name}.json").read_bytes()
                    == (tmp_path / f"fresh_{name}.json").read_bytes())
        for d in flat:
            m, f = d.mask, fresh(d.mask)
            assert m == f and hash(m) == hash(f) and repr(m) == repr(f)


def two_category_dataset():
    block = np.zeros((16, 16), dtype=bool)
    block[2:8, 2:8] = True
    other = np.zeros((16, 16), dtype=bool)
    other[10:14, 10:14] = True
    return Dataset(
        images={1: ImageInfo(1, 16, 16)},
        categories={1: CategoryInfo(1, "a"), 2: CategoryInfo(2, "b")},
        gts_by_image={1: [GroundTruthInstance(1, 1, 1, encode(block)),
                          GroundTruthInstance(1, 2, 2, encode(other))]},
    )


BORDERS = ("top", "bottom", "left", "right", "last pixel", "full height")


@st.composite
def jitter_datasets(draw):
    """One image of up to four random masks up to 11x11, each inside a
    random box, optionally touching chosen borders (the last pixel, every
    row), some with zero-length runs in their RLE."""
    h, w = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    gts = []
    for k in range(draw(st.integers(1, 4))):
        r0, r1 = sorted(draw(st.integers(0, h)) for _ in range(2))
        c0, c1 = sorted(draw(st.integers(0, w)) for _ in range(2))
        m = np.zeros((h, w), dtype=bool)
        m[r0:r1, c0:c1] = draw(arrays(bool, (r1 - r0, c1 - c0), elements=st.booleans()))
        row, col = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        for border in draw(st.sets(st.sampled_from(BORDERS))):
            if border == "top":
                m[0, col] = True
            elif border == "bottom":
                m[h - 1, col] = True
            elif border == "left":
                m[row, 0] = True
            elif border == "right":
                m[row, w - 1] = True
            elif border == "last pixel":
                m[h - 1, w - 1] = True
            else:
                m[0, col] = m[h - 1, draw(st.integers(0, w - 1))] = True
        counts = list(encode(m).counts)
        if draw(st.booleans()):  # the same pixels with zero-length runs
            at = draw(st.integers(0, len(counts)))
            counts[at:at] = [0, 0]
            if draw(st.booleans()):
                counts.append(0)
        gts.append(GroundTruthInstance(1, k + 1, 1, RleMask(h, w, counts)))
    return Dataset({1: ImageInfo(1, h, w)}, {1: CategoryInfo(1, "a")}, {1: gts})


class TestPerfectDetector:
    def test_plain_output_mirrors_ground_truth(self):
        ds, _ = generate(SynthConfig(n_images=3, seed=4))
        dets = perfect_detector(ds)
        for image_id, gts in ds.gts_by_image.items():
            got = dets[image_id]
            assert len(got) == len(gts)
            assert all(d.score == 1.0 for d in got)
            assert [d.mask for d in got] == [gt.mask for gt in gts]
            assert [d.category_id for d in got] == [gt.category_id for gt in gts]

    def test_spatial_copies_counts_and_scores(self):
        ds, _ = generate(SynthConfig(n_images=2, seed=4))
        k = 3
        dets = perfect_detector(ds, spatial_copies=k, conf_step=0.05)
        for image_id, gts in ds.gts_by_image.items():
            got = dets[image_id]
            assert len(got) == (k + 1) * len(gts)
            originals = [d for d in got if d.score == 1.0]
            copies = [d for d in got if d.score < 1.0]
            assert len(originals) == len(gts)
            assert sorted({round(d.score, 6) for d in copies}) == [0.85, 0.9, 0.95]

    def test_copies_overlap_their_source(self):
        ds, _ = generate(SynthConfig(n_images=2, seed=8))
        dets = perfect_detector(ds, spatial_copies=2)
        for image_id, gts in ds.gts_by_image.items():
            gt_masks = [decode(gt.mask) for gt in gts]
            for det in dets[image_id]:
                if det.score == 1.0:
                    continue
                d = decode(det.mask)
                assert max(iou(d, g) for g in gt_masks) >= 0.55

    def test_unshiftable_sliver_falls_back_to_exact_copy(self):
        dot = np.zeros((8, 8), dtype=bool)
        dot[4, 4] = True
        ds = Dataset(images={1: ImageInfo(1, 8, 8)},
                     categories={1: CategoryInfo(1, "a")},
                     gts_by_image={1: [GroundTruthInstance(1, 1, 1, encode(dot))]})
        dets = perfect_detector(ds, spatial_copies=2)
        assert all(d.mask == encode(dot) for d in dets[1])

    @settings(max_examples=300, deadline=None)
    @given(jitter_datasets(), st.integers(1, 14), st.integers(1, 3), st.integers(0, 2**16))
    def test_copies_match_dense_jitter(self, ds, jitter_px, copies, seed):
        # jitter_px reaches past the image size; every copy is a translated
        # run list, a clipped crop or the fallback, and all must equal the
        # canonical runs of the whole-image search
        dets = perfect_detector(ds, spatial_copies=copies, jitter_px=jitter_px, seed=seed)
        n = len(ds.gts_by_image[1])
        got = [d.mask.counts for d in dets[1][n:]]
        assert got == spatial_copies_dense(ds, copies, jitter_px, seed)[1]

    @settings(max_examples=200, deadline=None)
    @given(jitter_datasets(), st.integers(1, 14), st.integers(1, 3), st.integers(0, 2**16))
    def test_copies_pass_validation(self, ds, jitter_px, copies, seed):
        # copies are built without RleMask's checks; each must equal the
        # mask the checked constructor builds from the same runs
        dets = perfect_detector(ds, spatial_copies=copies, jitter_px=jitter_px, seed=seed)
        for d in dets[1]:
            m = d.mask
            assert m == RleMask(m.height, m.width, m.counts)
            assert type(m.counts) is tuple and all(type(c) is int for c in m.counts)

    def test_copies_that_reach_or_leave_the_last_pixel(self):
        # a block one row above the bottom-right corner moves onto it (its
        # last background run shrinks to nothing), a block on the corner
        # moves off it (a background run is appended), and a full-height
        # bar moves sideways
        h, w = 9, 7
        near, corner, bar = (np.zeros((h, w), dtype=bool) for _ in range(3))
        near[h - 5:h - 1, w - 4:] = True
        corner[h - 4:, w - 4:] = True
        bar[:, 2:4] = True
        gts = [GroundTruthInstance(1, k + 1, 1, encode(m)) for k, m in enumerate((near, corner, bar))]
        ds = Dataset({1: ImageInfo(1, h, w)}, {1: CategoryInfo(1, "a")}, {1: gts})
        holds_last = set()
        for seed in range(12):
            dets = perfect_detector(ds, spatial_copies=3, jitter_px=1, seed=seed)
            got = [d.mask.counts for d in dets[1][3:]]
            assert got == spatial_copies_dense(ds, 3, 1, seed)[1]
            holds_last |= {(k // 3, len(c) % 2 == 0) for k, c in enumerate(got)}
        assert {(0, True), (1, False)} <= holds_last

    def test_copies_match_dense_jitter_on_generated_scenes(self):
        for cfg, copies, jitter_px in [
                (SynthConfig(n_images=3, seed=8), 4, 2),
                (SynthConfig(n_images=2, parts_per_image=25, height=48, width=64, seed=13,
                             sigma_frac=1.0, length_range=(8.0, 12.0),
                             width_range=(3.0, 5.0)), 3, 5)]:
            ds, _ = generate(cfg)
            dets = perfect_detector(ds, spatial_copies=copies, jitter_px=jitter_px, seed=3)
            want = spatial_copies_dense(ds, copies, jitter_px, 3)
            for image_id, gts in ds.gts_by_image.items():
                assert [d.mask.counts for d in dets[image_id][len(gts):]] == want[image_id]

    def test_jitter_beyond_the_image_from_the_cli(self, tmp_path):
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            "synth", "--out", str(out), "--n-images", "1", "--parts", "3",
            "--height", "96", "--width", "96", "--length-range", "20,30",
            "--width-range", "4,6", "--spatial-copies", "1", "--jitter-px", "100"])
        assert result.exit_code == 0, result.output
        ds = load_ground_truth(out / "annotations.json")
        dets = load_detections(out / "detections.json", ds)
        assert dets.n_loaded == 2 * ds.n_ground_truths > 0

    def test_category_noise_adds_relabeled_copies(self):
        ds = two_category_dataset()
        dets = perfect_detector(ds, category_noise=1.0)
        assert len(dets[1]) == 4
        copies = [d for d in dets[1] if d.score < 1.0]
        assert len(copies) == 2
        by_mask = {gt.mask: gt.category_id for gt in ds.gts_by_image[1]}
        for copy in copies:
            assert copy.category_id != by_mask[copy.mask]

    def test_category_noise_needs_a_second_category(self):
        ds, _ = generate(SynthConfig(n_images=1, seed=4))
        with pytest.raises(ValueError, match="two categories"):
            perfect_detector(ds, category_noise=0.5)

    @pytest.mark.parametrize("kwargs", [
        {"spatial_copies": -1},
        {"category_noise": 1.5},
        {"jitter_px": 0},
        {"spatial_copies": 5, "conf_step": 0.2},
        {"conf_step": 0.0},
        {"spatial_copies": 1, "conf_step": float("nan")},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        ds, _ = generate(SynthConfig(n_images=1, seed=4))
        with pytest.raises(ValueError):
            perfect_detector(ds, **kwargs)

    def test_no_copies_decodes_nothing(self, monkeypatch):
        ds, _ = generate(SynthConfig(n_images=2, seed=4))

        def no_table(rles):
            raise AssertionError("mask table built without spatial copies")

        def no_decode(rle):
            raise AssertionError("decode called for a jittered copy")

        with monkeypatch.context() as patched:
            patched.setattr(synth.MaskTable, "from_rles", no_table)
            dets = perfect_detector(ds, spatial_copies=0)
            assert sum(map(len, dets.values())) == ds.n_ground_truths
            ds2 = two_category_dataset()
            assert len(perfect_detector(ds2, category_noise=1.0)[1]) == 4
        monkeypatch.setattr(mask_module, "decode", no_decode)
        monkeypatch.setattr(synth, "decode", no_decode, raising=False)
        dets = perfect_detector(ds, spatial_copies=2)
        assert sum(map(len, dets.values())) == 3 * ds.n_ground_truths

    def test_deterministic_for_fixed_seed(self):
        ds, _ = generate(SynthConfig(n_images=2, seed=6))
        a = perfect_detector(ds, spatial_copies=2, seed=5)
        b = perfect_detector(ds, spatial_copies=2, seed=5)
        assert a == b
