import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import random_mask, sparse_scene
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hedgeval.coco import (
    DERIVE_FROM_DT,
    DERIVE_FROM_GT,
    CategoryInfo,
    Dataset,
    Detection,
    ImageInfo,
    LoadError,
    SemanticMaskSet,
    load_detections,
    load_ground_truth,
    load_semantic_masks,
    write_detections,
    write_ground_truth,
    write_semantic_masks,
)
from hedgeval.mask import RleMask, decode, encode


def seg_of(mask):
    return encode(mask).to_json()


def block(h, w, r0, c0, rows, cols):
    m = np.zeros((h, w), dtype=bool)
    m[r0 : r0 + rows, c0 : c0 + cols] = True
    return m


@pytest.fixture
def gt_file(tmp_path):
    def build(annotations, images=None, categories=None):
        raw = {
            "images": images if images is not None else [{"id": 1, "height": 8, "width": 8}],
            "annotations": annotations,
            "categories": categories if categories is not None else [{"id": 1, "name": "thing"}],
        }
        p = tmp_path / "gt.json"
        p.write_text(json.dumps(raw))
        return p

    return build


class TestLoadGroundTruth:
    def test_minimal_file(self, gt_file):
        ann = {"id": 7, "image_id": 1, "category_id": 1, "segmentation": seg_of(block(8, 8, 2, 2, 3, 3))}
        ds = load_ground_truth(gt_file([ann]))
        assert list(ds.images) == [1]
        assert ds.images[1].height == 8
        assert ds.categories[1].name == "thing"
        gts = ds.gts_by_image[1]
        assert len(gts) == 1
        assert gts[0].instance_id == 7
        assert decode(gts[0].mask).sum() == 9
        assert ds.n_ground_truths == 1

    def test_raw_counts_segmentation(self, gt_file):
        ann = {"id": 1, "image_id": 1, "category_id": 1,
               "segmentation": {"size": [8, 8], "counts": [10, 4, 50]}}
        ds = load_ground_truth(gt_file([ann]))
        assert ds.gts_by_image[1][0].mask.area == 4

    def test_polygon_segmentation(self, gt_file):
        poly = [[2.0, 2.0, 6.0, 2.0, 6.0, 6.0, 2.0, 6.0]]
        ann = {"id": 1, "image_id": 1, "category_id": 1, "segmentation": poly}
        ds = load_ground_truth(gt_file([ann]))
        got = decode(ds.gts_by_image[1][0].mask)
        assert got.sum() == 16  # pixel centers strictly inside the 4x4 square

    @pytest.mark.parametrize("value", [None, True, float("nan"), float("inf"), -float("inf"), "1"])
    def test_polygon_coordinates_must_be_finite_numbers(self, gt_file, value):
        poly = [[0, 0, 8, 0, 8, 8, 0, 8]]
        ann = {"id": 4, "image_id": 1, "category_id": 1, "segmentation": poly}
        assert load_ground_truth(gt_file([ann])).gts_by_image[1][0].mask.area == 64
        poly[0][1] = value
        with pytest.raises(LoadError, match=r"^annotation 4: field 'segmentation' must "):
            load_ground_truth(gt_file([ann]))

    def test_bad_pixel_sum_names_annotation(self, gt_file):
        ann = {"id": 42, "image_id": 1, "category_id": 1,
               "segmentation": {"size": [8, 8], "counts": [10, 4, 49]}}
        with pytest.raises(LoadError, match="annotation 42"):
            load_ground_truth(gt_file([ann]))

    def test_iscrowd_rejected(self, gt_file):
        ann = {"id": 5, "image_id": 1, "category_id": 1, "iscrowd": 1,
               "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}
        with pytest.raises(LoadError, match="annotation 5.*iscrowd"):
            load_ground_truth(gt_file([ann]))

    @pytest.mark.parametrize("value", [0.7, True, False])
    def test_iscrowd_must_be_an_integer(self, gt_file, value):
        ann = {"id": 5, "image_id": 1, "category_id": 1, "iscrowd": 0.0,
               "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}
        assert load_ground_truth(gt_file([ann])).n_ground_truths == 1
        ann["iscrowd"] = value
        with pytest.raises(LoadError, match=rf"^annotation 5: field 'iscrowd' must be an integer, got {value!r}"):
            load_ground_truth(gt_file([ann]))

    def test_unknown_image(self, gt_file):
        ann = {"id": 1, "image_id": 99, "category_id": 1,
               "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}
        with pytest.raises(LoadError, match="unknown image 99"):
            load_ground_truth(gt_file([ann]))

    def test_unknown_category(self, gt_file):
        ann = {"id": 1, "image_id": 1, "category_id": 9,
               "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}
        with pytest.raises(LoadError, match="unknown category 9"):
            load_ground_truth(gt_file([ann]))

    def test_empty_mask_rejected(self, gt_file):
        ann = {"id": 3, "image_id": 1, "category_id": 1,
               "segmentation": {"size": [8, 8], "counts": [64]}}
        with pytest.raises(LoadError, match="annotation 3.*empty"):
            load_ground_truth(gt_file([ann]))

    def test_size_mismatch_rejected(self, gt_file):
        ann = {"id": 9, "image_id": 1, "category_id": 1,
               "segmentation": {"size": [4, 4], "counts": [0, 16]}}
        with pytest.raises(LoadError, match="annotation 9"):
            load_ground_truth(gt_file([ann]))

    def test_missing_top_level_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"images": [], "annotations": []}))
        with pytest.raises(LoadError, match="categories"):
            load_ground_truth(p)

    @pytest.mark.parametrize("key, value", [("annotations", None), ("images", 3),
                                            ("images", None), ("categories", None)])
    def test_top_level_tables_must_be_lists(self, tmp_path, key, value):
        raw = {"images": [], "annotations": [], "categories": [], key: value}
        p = tmp_path / "gt.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(LoadError, match=rf"'{key}' must be a list, got {type(value).__name__}$"):
            load_ground_truth(p)

    @pytest.mark.parametrize("value", [-3, 0])
    @pytest.mark.parametrize("field", ["height", "width"])
    def test_image_size_must_be_positive(self, gt_file, field, value):
        images = [{"id": 1, "height": 8, "width": 8, field: value}]
        with pytest.raises(LoadError, match=rf"^field 'images\[0\]\.{field}' must be at least 1, got {value}$"):
            load_ground_truth(gt_file([], images=images))

    def test_invalid_json_names_the_file(self, tmp_path):
        p = tmp_path / "gt.json"
        p.write_text('{"images": [')
        with pytest.raises(LoadError, match=rf"^{re.escape(str(p))} is not valid JSON: Expecting value"):
            load_ground_truth(p)

    def test_missing_annotation_field(self, gt_file):
        with pytest.raises(LoadError, match="segmentation"):
            load_ground_truth(gt_file([{"id": 1, "image_id": 1, "category_id": 1}]))

    @pytest.mark.parametrize("table", ["images", "categories", "annotations"])
    def test_duplicate_id_names_table_and_id(self, gt_file, table):
        ann = {"id": 1, "image_id": 1, "category_id": 1,
               "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}
        tables = {
            "images": [{"id": 1, "height": 8, "width": 8}],
            "categories": [{"id": 1, "name": "a"}],
            "annotations": [ann],
        }
        # the second record differs, so neither overwriting nor keeping
        # both would be a harmless merge
        second = {"images": {"id": 1, "height": 4, "width": 4},
                  "categories": {"id": 1, "name": "b"},
                  "annotations": {**ann, "segmentation": seg_of(block(8, 8, 4, 4, 2, 2))}}
        tables[table].append(second[table])
        path = gt_file(tables["annotations"], images=tables["images"],
                       categories=tables["categories"])
        with pytest.raises(LoadError, match=f"{table}: duplicate id 1$"):
            load_ground_truth(path)

    @pytest.mark.parametrize("field, value", [("id", 1.7), ("height", 8.5), ("width", True)])
    def test_image_fields_must_be_integers(self, gt_file, field, value):
        image = {"id": 1, "height": 8, "width": 8, field: value}
        with pytest.raises(LoadError, match=rf"'images\[0\]\.{field}' must be an integer, got {value}"):
            load_ground_truth(gt_file([], images=[image]))

    @pytest.mark.parametrize("value", [1.5, True])
    def test_category_id_must_be_an_integer(self, gt_file, value):
        with pytest.raises(LoadError, match=rf"'categories\[0\]\.id' must be an integer, got {value}"):
            load_ground_truth(gt_file([], categories=[{"id": value, "name": "a"}]))

    @pytest.mark.parametrize("field, value", [
        ("id", 2.9), ("image_id", 1.7), ("category_id", True),
        ("segmentation.size", [8.0, 8.5]),
        ("segmentation.counts", [5.9, 4, 55]), ("segmentation.counts", [True, 4, 59]),
    ])
    def test_annotation_fields_must_be_integers(self, gt_file, field, value):
        ann = {"id": 2, "image_id": 1, "category_id": 1,
               "segmentation": {"size": [8, 8], "counts": [10, 4, 50]}}
        if field.startswith("segmentation."):
            ann["segmentation"][field.split(".")[1]] = value
        else:
            ann[field] = value
        with pytest.raises(LoadError, match=rf"^annotation .*: field '{field}' must be an integer"):
            load_ground_truth(gt_file([ann]))

    @pytest.mark.parametrize("value", ["8", None, [8]])
    def test_image_and_category_fields_reject_non_numbers(self, gt_file, value):
        with pytest.raises(LoadError, match=rf"'images\[0\]\.height' must be an integer, got {re.escape(repr(value))}$"):
            load_ground_truth(gt_file([], images=[{"id": 1, "height": value, "width": 8}]))
        with pytest.raises(LoadError, match=rf"'categories\[0\]\.id' must be an integer, got {re.escape(repr(value))}$"):
            load_ground_truth(gt_file([], categories=[{"id": value, "name": "a"}]))

    @pytest.mark.parametrize("value", ["5", " 7 ", None, [1], {"id": 1}, float("inf")])
    @pytest.mark.parametrize("field", ["id", "image_id", "category_id", "segmentation.size",
                                       "segmentation.counts"])
    def test_annotation_integer_fields_reject_non_numbers(self, gt_file, field, value):
        ann = {"id": 2, "image_id": 1, "category_id": 1,
               "segmentation": {"size": [8, 8], "counts": [10, 4, 50]}}
        if field.startswith("segmentation."):
            ann["segmentation"][field.split(".")[1]][0] = value
        else:
            ann[field] = value
        with pytest.raises(LoadError, match=rf"^annotation .*: field '{field}' must be an integer, got {re.escape(repr(value))}$"):
            load_ground_truth(gt_file([ann]))

    @pytest.mark.parametrize("field, value", [("size", None), ("size", [8]), ("size", {"h": 8}),
                                              ("counts", None), ("counts", 64)])
    def test_segmentation_lists_must_be_lists(self, gt_file, field, value):
        ann = {"id": 2, "image_id": 1, "category_id": 1,
               "segmentation": {"size": [8, 8], "counts": [10, 4, 50], field: value}}
        with pytest.raises(LoadError, match=rf"^annotation 2: field 'segmentation\.{field}' must be"):
            load_ground_truth(gt_file([ann]))

    def test_integral_floats_load(self, gt_file):
        ann = {"id": 2.0, "image_id": 1.0, "category_id": 1.0,
               "segmentation": {"size": [8.0, 8.0], "counts": [10.0, 4, 50]}}
        ds = load_ground_truth(gt_file([ann], images=[{"id": 1.0, "height": 8.0, "width": 8}],
                                       categories=[{"id": 1.0, "name": "a"}]))
        gt = ds.gts_by_image[1][0]
        assert (gt.instance_id, gt.category_id, gt.mask.counts) == (2, 1, (10, 4, 50))

    def test_first_faulty_annotation_in_file_order(self, gt_file):
        good = seg_of(block(8, 8, 0, 0, 2, 2))
        anns = [{"id": 1, "image_id": 1, "category_id": 1, "segmentation": good},
                {"id": 2, "image_id": 1, "category_id": 1,
                 "segmentation": {"size": [8, 8], "counts": "1!"}},
                {"id": 3, "image_id": 1, "category_id": 9, "segmentation": good}]
        with pytest.raises(LoadError, match="annotation 2: counts character '!'"):
            load_ground_truth(gt_file(anns))
        # a mask error before a duplicate id, and a duplicate id before a
        # later record's field error
        anns[1] = {"id": 1, "image_id": 1, "category_id": 1, "segmentation": good}
        with pytest.raises(LoadError, match="annotations: duplicate id 1$"):
            load_ground_truth(gt_file(anns))

    def test_write_read_write_stable(self, tmp_path, rng):
        images = [{"id": i, "height": 10, "width": 12} for i in (1, 2)]
        cats = [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]
        anns = []
        for i in range(6):
            m = np.zeros((10, 12), dtype=bool)
            m[i : i + 3, 2 * i : 2 * i + 2] = True
            anns.append({"id": i + 1, "image_id": 1 + i % 2, "category_id": 1 + i % 2,
                         "segmentation": seg_of(m)})
        first = tmp_path / "first.json"
        first.write_text(json.dumps({"images": images, "annotations": anns, "categories": cats}))
        ds = load_ground_truth(first)
        second = tmp_path / "second.json"
        write_ground_truth(ds, second)
        third = tmp_path / "third.json"
        write_ground_truth(load_ground_truth(second), third)
        assert second.read_bytes() == third.read_bytes()


@pytest.fixture
def small_dataset(gt_file):
    anns = [
        {"id": 1, "image_id": 1, "category_id": 1, "segmentation": seg_of(block(8, 8, 0, 0, 3, 3))},
        {"id": 2, "image_id": 1, "category_id": 2, "segmentation": seg_of(block(8, 8, 4, 4, 3, 3))},
    ]
    cats = [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]
    return load_ground_truth(gt_file(anns, categories=cats))


class TestLoadDetections:
    def write_dt(self, tmp_path, records):
        p = tmp_path / "dt.json"
        p.write_text(json.dumps(records))
        return p

    def test_round_trip(self, tmp_path, small_dataset):
        dets = [
            Detection(1, 1, 0.9, encode(block(8, 8, 0, 0, 3, 3))),
            Detection(1, 2, 0.4, encode(block(8, 8, 4, 4, 2, 2))),
        ]
        p = tmp_path / "dt.json"
        write_detections(dets, p)
        got = load_detections(p, small_dataset)
        assert got.by_image[1] == dets
        assert got.rejected_bad_score == 0
        assert got.n_loaded == 2

    def test_bad_scores_counted(self, tmp_path, small_dataset):
        recs = [
            {"image_id": 1, "category_id": 1, "score": 1.5, "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))},
            {"image_id": 1, "category_id": 1, "score": -0.1, "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))},
            {"image_id": 1, "category_id": 1, "score": 0.5, "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))},
        ]
        got = load_detections(self.write_dt(tmp_path, recs), small_dataset)
        assert got.rejected_bad_score == 2
        assert got.n_loaded == 1

    @pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
    def test_score_must_be_a_number(self, tmp_path, small_dataset, value):
        good = {"image_id": 1, "category_id": 1, "score": 1,
                "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}
        assert load_detections(self.write_dt(tmp_path, [good]), small_dataset).n_loaded == 1
        rec = {**good, "score": value}
        with pytest.raises(LoadError, match=rf"^detection 1: field 'score' must be a number, got {re.escape(repr(value))}"):
            load_detections(self.write_dt(tmp_path, [good, rec]), small_dataset)

    def test_nan_score_counted_as_bad(self, tmp_path, small_dataset):
        rec = {"image_id": 1, "category_id": 1, "score": float("nan"),
               "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}
        got = load_detections(self.write_dt(tmp_path, [rec]), small_dataset)
        assert got.rejected_bad_score == 1 and got.n_loaded == 0

    @pytest.mark.parametrize("value", [None, True, float("nan"), float("inf"), -float("inf"), "1"])
    def test_polygon_coordinates_must_be_finite_numbers(self, tmp_path, small_dataset, value):
        good = {"image_id": 1, "category_id": 1, "score": 0.5,
                "segmentation": [[0, 0, 8, 0, 8, 8, 0, 8]]}
        assert load_detections(self.write_dt(tmp_path, [good]), small_dataset).n_loaded == 1
        rec = {**good, "segmentation": [[0, value, 8, 0, 8, 8, 0, 8]]}
        with pytest.raises(LoadError, match=r"^detection 1: field 'segmentation' must "):
            load_detections(self.write_dt(tmp_path, [good, rec]), small_dataset)

    def test_empty_masks_counted(self, tmp_path, small_dataset):
        recs = [{"image_id": 1, "category_id": 1, "score": 0.5,
                 "segmentation": {"size": [8, 8], "counts": [64]}}]
        got = load_detections(self.write_dt(tmp_path, recs), small_dataset)
        assert got.rejected_empty_mask == 1
        assert got.n_loaded == 0

    def test_unknown_image_is_error(self, tmp_path, small_dataset):
        recs = [{"image_id": 5, "category_id": 1, "score": 0.5,
                 "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}]
        with pytest.raises(LoadError, match="detection 0.*unknown image"):
            load_detections(self.write_dt(tmp_path, recs), small_dataset)

    @pytest.mark.parametrize("field, value", [
        ("image_id", 1.9), ("category_id", True),
        ("segmentation.size", [8, True]), ("segmentation.counts", [5.9, 4, 55]),
    ])
    def test_fields_must_be_integers(self, tmp_path, small_dataset, field, value):
        def record():
            return {"image_id": 1, "category_id": 1, "score": 0.5,
                    "segmentation": {"size": [8, 8], "counts": [10, 4, 50]}}
        rec = record()
        if field.startswith("segmentation."):
            rec["segmentation"][field.split(".")[1]] = value
        else:
            rec[field] = value
        with pytest.raises(LoadError, match=rf"^detection 1: field '{field}' must be an integer"):
            load_detections(self.write_dt(tmp_path, [record(), rec]), small_dataset)

    @pytest.mark.parametrize("value", ["5", None, [1], {"id": 1}])
    @pytest.mark.parametrize("field", ["image_id", "category_id", "segmentation.size",
                                       "segmentation.counts"])
    def test_integer_fields_reject_non_numbers(self, tmp_path, small_dataset, field, value):
        def record():
            return {"image_id": 1, "category_id": 1, "score": 0.5,
                    "segmentation": {"size": [8, 8], "counts": [10, 4, 50]}}
        rec = record()
        if field.startswith("segmentation."):
            rec["segmentation"][field.split(".")[1]][0] = value
        else:
            rec[field] = value
        with pytest.raises(LoadError, match=rf"^detection 1: field '{field}' must be an integer, got {re.escape(repr(value))}$"):
            load_detections(self.write_dt(tmp_path, [record(), rec]), small_dataset)

    def test_first_faulty_record_in_file_order(self, tmp_path, small_dataset):
        good = {"image_id": 1, "category_id": 1, "score": 0.5,
                "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))}
        bad_counts = {**good, "segmentation": {"size": [8, 8], "counts": "1!"}}
        bad_sum = {**good, "segmentation": {"size": [8, 8], "counts": [10, 4, 49]}}
        bad_field = {**good, "image_id": 5}
        cases = [
            ([good, bad_counts, bad_field], "detection 1: counts character '!'"),
            ([good, bad_sum, bad_counts], "detection 1: run lengths sum to 63"),
            ([bad_counts, bad_sum], "detection 0: counts character '!'"),
            ([good, bad_field, bad_counts], "detection 1: references unknown image 5"),
            ([good, 3], "detection 1 must be a JSON object"),
        ]
        for records, message in cases:
            with pytest.raises(LoadError, match=message):
                load_detections(self.write_dt(tmp_path, records), small_dataset)

    def test_invalid_json_names_the_file(self, tmp_path, small_dataset):
        p = tmp_path / "dt.json"
        p.write_text('[{"image_id": 1')
        with pytest.raises(LoadError, match=rf"^{re.escape(str(p))} is not valid JSON: Expecting"):
            load_detections(p, small_dataset)

    def test_not_an_array(self, tmp_path, small_dataset):
        p = tmp_path / "dt.json"
        p.write_text("{}")
        with pytest.raises(LoadError, match="array"):
            load_detections(p, small_dataset)


class TestSemanticMasks:
    def test_derive_from_gt_unions_categories(self, gt_file):
        anns = [
            {"id": 1, "image_id": 1, "category_id": 3, "segmentation": seg_of(block(8, 8, 0, 0, 2, 2))},
            {"id": 2, "image_id": 1, "category_id": 3, "segmentation": seg_of(block(8, 8, 4, 4, 2, 2))},
        ]
        ds = load_ground_truth(gt_file(anns, categories=[{"id": 3, "name": "c"}]))
        sem = load_semantic_masks(DERIVE_FROM_GT, ds)
        m3 = decode(sem[1].masks[3])
        assert m3.sum() == 8
        assert m3[0, 0] and m3[5, 5]

    def test_derive_from_gt_empty_image(self, gt_file):
        ds = load_ground_truth(gt_file([]))
        sem = load_semantic_masks(DERIVE_FROM_GT, ds)
        assert sem[1].masks == {}

    def test_derive_from_dt_applies_floor(self, gt_file):
        ds = load_ground_truth(gt_file([]))
        dets = {1: [
            Detection(1, 1, 0.9, encode(block(8, 8, 0, 0, 2, 2))),
            Detection(1, 1, 0.2, encode(block(8, 8, 4, 4, 2, 2))),
        ]}
        sem = load_semantic_masks(DERIVE_FROM_DT, ds, detections=dets, conf_floor=0.5)
        assert decode(sem[1].masks[1]).sum() == 4

    def test_derive_from_dt_ignores_images_outside_the_dataset(self, gt_file):
        images = [{"id": 1, "height": 8, "width": 8}, {"id": 2, "height": 8, "width": 8}]
        ds = load_ground_truth(gt_file([], images=images))
        dets = {1: [Detection(1, 1, 0.9, encode(block(8, 8, 0, 0, 2, 2)))],
                99: [Detection(99, 1, 0.9, encode(block(8, 8, 4, 4, 3, 3)))]}
        sem = load_semantic_masks(DERIVE_FROM_DT, ds, detections=dets)
        assert sorted(sem) == [1, 2]
        assert decode(sem[1].masks[1]).sum() == 4
        assert sem[2].masks == {}

    def test_derived_union_equals_or_of_decoded_masks(self, gt_file, rng):
        ds = load_ground_truth(gt_file([], images=[{"id": 1, "height": 7, "width": 9}]))
        masks = [random_mask(rng, 7, 9, 0.2) for _ in range(6)]
        dets = {1: [Detection(1, 1 + i % 2, 0.9, encode(m)) for i, m in enumerate(masks)]}
        sem = load_semantic_masks(DERIVE_FROM_DT, ds, detections=dets)
        for c in (1, 2):
            union = np.logical_or.reduce(masks[c - 1::2])
            assert np.array_equal(decode(sem[1].masks[c]), union)
            assert sem[1].masks[c].counts == encode(union).counts  # canonical runs

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda h: st.integers(1, 6).flatmap(
        lambda w: st.lists(arrays(bool, (h, w)), min_size=1, max_size=5))))
    def test_derived_union_is_the_encoded_painted_union(self, masks):
        # touching, nested, empty and image-end runs all merge to encode's runs
        h, w = masks[0].shape
        ds = Dataset({1: ImageInfo(1, h, w)}, {1: CategoryInfo(1, "a")}, {1: []})
        dets = {1: [Detection(1, 1, 1.0, encode(m)) for m in masks]}
        sem = load_semantic_masks(DERIVE_FROM_DT, ds, detections=dets)
        assert sem[1].masks[1] == encode(np.logical_or.reduce(masks))

    def test_derived_union_rejects_a_mask_of_another_size(self, gt_file):
        ds = load_ground_truth(gt_file([], images=[{"id": 1, "height": 4, "width": 5}]))
        dets = {1: [Detection(1, 1, 0.9, RleMask(5, 4, (3, 17)))]}
        with pytest.raises(ValueError, match="differs from image size"):
            load_semantic_masks(DERIVE_FROM_DT, ds, detections=dets)

    @pytest.mark.parametrize("floor", [float("nan"), -0.1, 1.5, float("inf")])
    @pytest.mark.parametrize("source", [DERIVE_FROM_GT, DERIVE_FROM_DT])
    def test_conf_floor_outside_unit_interval(self, gt_file, source, floor):
        ds = load_ground_truth(gt_file([]))
        with pytest.raises(ValueError, match=r"conf_floor must lie in \[0, 1\]"):
            load_semantic_masks(source, ds, detections={1: []}, conf_floor=floor)

    @pytest.mark.parametrize("floor", [0.0, 1.0])
    def test_conf_floor_bounds_are_valid(self, gt_file, floor):
        ds = load_ground_truth(gt_file([]))
        dets = {1: [Detection(1, 1, 1.0, encode(block(8, 8, 0, 0, 2, 2)))]}
        sem = load_semantic_masks(DERIVE_FROM_DT, ds, detections=dets, conf_floor=floor)
        assert decode(sem[1].masks[1]).sum() == 4

    def test_derive_from_dt_requires_detections(self, gt_file):
        ds = load_ground_truth(gt_file([]))
        with pytest.raises(ValueError, match="detections"):
            load_semantic_masks(DERIVE_FROM_DT, ds)

    def test_directory_round_trip(self, tmp_path, gt_file, rng):
        images = [{"id": 1, "height": 8, "width": 8}, {"id": 2, "height": 8, "width": 8}]
        cats = [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]
        ds = load_ground_truth(gt_file([], images=images, categories=cats))
        dense = [random_mask(rng, 8, 8), random_mask(rng, 8, 8)]
        sets = [
            SemanticMaskSet(1, {1: encode(dense[0]), 2: encode(np.zeros((8, 8), dtype=bool))}),
            SemanticMaskSet(2, {2: encode(dense[1])}),
        ]
        out = tmp_path / "semantic"
        write_semantic_masks(sets, out)
        got = load_semantic_masks(out, ds)
        assert np.array_equal(decode(got[1].masks[1]), dense[0])
        assert np.array_equal(decode(got[2].masks[2]), dense[1])
        # all-zero masks are stored as absence
        assert 2 not in got[1].masks

    def test_directory_rejects_unknown_category_file(self, tmp_path, gt_file):
        ds = load_ground_truth(gt_file([]))
        img_dir = tmp_path / "semantic" / "1"
        img_dir.mkdir(parents=True)
        (img_dir / "99.json").write_text(json.dumps(seg_of(block(8, 8, 0, 0, 2, 2))))
        with pytest.raises(LoadError, match=r"semantic/1/99\.json"):
            load_semantic_masks(tmp_path / "semantic", ds)

    def test_directory_first_faulty_file_in_order(self, tmp_path, gt_file, rng):
        images = [{"id": 1, "height": 8, "width": 8}, {"id": 2, "height": 8, "width": 8}]
        cats = [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]
        ds = load_ground_truth(gt_file([], images=images, categories=cats))
        out = tmp_path / "semantic"
        write_semantic_masks([SemanticMaskSet(1, {1: encode(random_mask(rng, 8, 8)),
                                                  2: encode(random_mask(rng, 8, 8))}),
                              SemanticMaskSet(2, {1: encode(random_mask(rng, 8, 8))})], out)
        assert sorted(load_semantic_masks(out, ds)[1].masks) == [1, 2]
        (out / "1" / "2.json").write_text(json.dumps({"size": [8, 8], "counts": "1!"}))
        (out / "2" / "1.json").write_text(json.dumps(seg_of(block(4, 8, 0, 0, 2, 2))))
        with pytest.raises(LoadError, match=r"^semantic mask \S*semantic/1/2\.json: counts character '!'"):
            load_semantic_masks(out, ds)
        (out / "1" / "2.json").write_text(json.dumps(seg_of(block(8, 8, 0, 0, 2, 2))))
        with pytest.raises(LoadError, match=r"^semantic mask \S*semantic/2/1\.json: segmentation size 4x8"):
            load_semantic_masks(out, ds)

    def test_directory_unreadable_file_names_it(self, tmp_path, gt_file):
        ds = load_ground_truth(gt_file([]))
        (tmp_path / "semantic" / "1" / "1.json").mkdir(parents=True)  # a directory, not a file
        with pytest.raises(LoadError, match=r"^semantic mask \S*semantic/1/1\.json: "):
            load_semantic_masks(tmp_path / "semantic", ds)

    @pytest.mark.parametrize("source", ["directory", DERIVE_FROM_GT])
    def test_memory_bounded_by_mask_area(self, tmp_path, source):
        # a dozen 1024x1024 images with two categories each: one dense mask
        # per (image, category) would need 24 * H * W bytes
        h = w = 1024
        ds, _ = sparse_scene(12, h)
        if source == "directory":
            source = tmp_path / "semantic"
            write_semantic_masks(load_semantic_masks(DERIVE_FROM_GT, ds).values(), source)
        tracemalloc.start()
        try:
            sem = load_semantic_masks(source, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(sorted(s.masks) == [1, 2] for s in sem.values())
        assert peak < h * w

    def test_directory_missing_image_entry(self, tmp_path, gt_file):
        ds = load_ground_truth(gt_file([]))
        out = tmp_path / "semantic"
        out.mkdir()
        with pytest.raises(LoadError, match="missing image entry"):
            load_semantic_masks(out, ds)


class TestFirstFaultInFileOrder:
    """Each file loader names the first faulty record in file order, whether
    it holds a mask fault, found only when its counts string is decoded, or
    a field fault, found when the record is checked."""

    FAULTS = {
        "mask": ({"size": [8, 8], "counts": "1!"}, "counts character '!'"),
        "field": ({"size": [4, 8], "counts": [32]}, "segmentation size 4x8"),
    }

    @pytest.mark.parametrize("order", [("mask", "field"), ("field", "mask")], ids=["mask-first", "field-first"])
    @pytest.mark.parametrize("loader", ["ground truth", "detections", "semantic directory"])
    def test_first_fault_wins(self, tmp_path, gt_file, loader, order):
        images = [{"id": 1, "height": 8, "width": 8}, {"id": 2, "height": 8, "width": 8}]
        cats = [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]
        segs = [seg_of(block(8, 8, 0, 0, 2, 2))] + [self.FAULTS[f][0] for f in order]
        message = self.FAULTS[order[0]][1]
        if loader == "ground truth":
            anns = [{"id": k + 1, "image_id": 1, "category_id": 1, "segmentation": seg}
                    for k, seg in enumerate(segs)]
            path = gt_file(anns, images=images, categories=cats)
            label, load = "annotation 2", lambda: load_ground_truth(path)
        else:
            ds = load_ground_truth(gt_file([], images=images, categories=cats))
            if loader == "detections":
                path = tmp_path / "dt.json"
                path.write_text(json.dumps([{"image_id": 1, "category_id": 1, "score": 0.5,
                                             "segmentation": seg} for seg in segs]))
                label, load = "detection 1", lambda: load_detections(path, ds)
            else:
                root = tmp_path / "semantic"
                files = [root / "1" / "1.json", root / "1" / "2.json", root / "2" / "1.json"]
                for fp, seg in zip(files, segs):  # in (image, category) order
                    fp.parent.mkdir(parents=True, exist_ok=True)
                    fp.write_text(json.dumps(seg))
                label, load = f"semantic mask {files[1]}", lambda: load_semantic_masks(root, ds)
        with pytest.raises(LoadError, match=f"^{re.escape(label)}: {re.escape(message)}"):
            load()


class TestSchemas:
    @pytest.fixture
    def validator_for(self):
        import hedgeval
        from jsonschema import Draft202012Validator
        from referencing import Registry, Resource

        schema_dir = Path(hedgeval.__file__).parent / "schemas"

        def build(name):
            resources = []
            for fp in schema_dir.glob("*.schema.json"):
                res = Resource.from_contents(json.loads(fp.read_text()))
                resources.append((res.id(), res))
            registry = Registry().with_resources(resources)
            schema = json.loads((schema_dir / name).read_text())
            return Draft202012Validator(schema, registry=registry)

        return build

    def test_annotation_schema_accepts_writer_output(self, tmp_path, small_dataset, validator_for):
        p = tmp_path / "out.json"
        write_ground_truth(small_dataset, p)
        validator_for("annotations.schema.json").validate(json.loads(p.read_text()))

    def test_detection_schema_accepts_writer_output(self, tmp_path, validator_for):
        p = tmp_path / "dt.json"
        write_detections([Detection(1, 1, 0.5, encode(block(8, 8, 0, 0, 2, 2)))], p)
        validator_for("detections.schema.json").validate(json.loads(p.read_text()))

    def test_semantic_schema_accepts_writer_output(self, tmp_path, validator_for):
        write_semantic_masks([SemanticMaskSet(1, {1: encode(block(8, 8, 0, 0, 2, 2))})], tmp_path)
        seg = json.loads((tmp_path / "1" / "1.json").read_text())
        validator_for("semantic_mask.schema.json").validate(seg)

    @pytest.mark.parametrize("extra", [[], ["--verify"]])
    def test_report_schema_matches_eval_reports(self, tmp_path, small_dataset, validator_for, extra):
        from click.testing import CliRunner
        from jsonschema import ValidationError

        from hedgeval.cli import main

        gt, dt, out = tmp_path / "gt.json", tmp_path / "dt.json", tmp_path / "report.json"
        write_ground_truth(small_dataset, gt)
        write_detections([Detection(1, 1, 0.9, encode(block(8, 8, 0, 0, 3, 3))),
                          Detection(1, 2, 0.4, encode(block(8, 8, 4, 4, 2, 2)))], dt)
        result = CliRunner().invoke(main, ["eval", "--gt", str(gt), "--dt", str(dt),
                                           "--out", str(out), *extra])
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        validator = validator_for("report.schema.json")
        validator.validate(report)
        schema = validator.schema["properties"]
        # every key a report writes is declared, and every metric is required
        assert set(schema["config"]["properties"]) == set(report["config"])
        assert set(schema["metrics"]["required"]) == set(report["metrics"])
        assert ("verify" in report) == bool(extra)
        del report["metrics"]["dc"]
        with pytest.raises(ValidationError, match="'dc' is a required property"):
            validator.validate(report)

    def test_detection_schema_rejects_missing_score(self, validator_for):
        from jsonschema import ValidationError

        bad = [{"image_id": 1, "category_id": 1, "segmentation": {"size": [2, 2], "counts": [4]}}]
        with pytest.raises(ValidationError):
            validator_for("detections.schema.json").validate(bad)
