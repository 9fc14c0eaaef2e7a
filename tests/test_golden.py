"""Golden outputs: two seeded scenes whose CLI outputs are pinned byte for byte.

A change meant to keep behaviour must keep every digest here. Each scene
pins the ``eval`` report (minus ``created_at``), ``prcurve`` CSVs, and the
files ``nms --method matrix``, ``soft``, ``mask`` and ``semantic
--semantic derive-from-gt`` keep; ``synth`` output and semantic NMS with
budgets read from a ``synth``-written ``semantic/`` directory are pinned
too. Each digest was recorded on the code before the change that it
guards (the IoU paths were consolidated, then the semantic path and RLE
ingestion were vectorised, then encoding and scene synthesis moved onto
mask boxes, then semantic NMS moved onto the mask table, then every
metric path came to read one greedy match per image and category);
regenerate them only for a change that is meant to alter an output.
"""

import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from hedgeval.cli import main
from hedgeval.coco import (
    CategoryInfo,
    Dataset,
    GroundTruthInstance,
    ImageInfo,
    write_detections,
    write_ground_truth,
)
from hedgeval.mask import encode
from hedgeval.synth import SynthConfig, generate, perfect_detector

from _reference_synth import render_capsule

SMALL_PARTS = {"length_range": (14.0, 22.0), "width_range": (3.0, 5.0)}


def hedged_scene():
    """One category, every instance plus three jittered low-confidence copies."""
    dataset, _ = generate(SynthConfig(n_images=3, parts_per_image=6, height=48, width=48,
                                      seed=7, **SMALL_PARTS))
    return dataset, perfect_detector(dataset, spatial_copies=3, seed=7)


def multi_category_scene():
    """Three categories, one jittered copy per instance and relabeled copies.

    About 35 detections per image over 14 instances, so ``--max-dets 10``
    caps the ranked paths while duplicate confusion and naming error see
    every detection.
    """
    synth, _ = generate(SynthConfig(n_images=3, parts_per_image=14, height=48, width=64,
                                    seed=9, **SMALL_PARTS))
    rng = np.random.default_rng(9)
    gts = {image_id: [GroundTruthInstance(g.image_id, g.instance_id,
                                          int(rng.integers(1, 4)), g.mask)
                      for g in instances]
           for image_id, instances in sorted(synth.gts_by_image.items())}
    categories = {c: CategoryInfo(c, f"part-{c}") for c in (1, 2, 3)}
    dataset = Dataset(synth.images, categories, gts)
    return dataset, perfect_detector(dataset, spatial_copies=1, category_noise=0.5, seed=9)


SCENES = {"hedged": hedged_scene, "multi": multi_category_scene}

# output name -> CLI arguments after the input files
COMMANDS = {
    "hedged": {
        "report.json": ["eval"],
        "pr.csv": ["prcurve"],
        "matrix.json": ["nms", "--method", "matrix"],
        "soft.json": ["nms", "--method", "soft"],
        "semantic.json": ["nms", "--method", "semantic", "--semantic", "derive-from-gt"],
        "mask.json": ["nms", "--method", "mask"],
    },
    "multi": {
        "report.json": ["eval", "--max-dets", "10"],
        # the cap binds, the floor drops the relabeled copies, and both
        # thresholds lie outside the AP grid
        "report-floor.json": ["eval", "--max-dets", "10", "--min-score", "0.92",
                              "--f1-iou-thr", "0.72", "--lrp-iou-thr", "0.62"],
        "pr.csv": ["prcurve"],
        "pr-cat2.csv": ["prcurve", "--category", "2"],
        "pr-capped.csv": ["prcurve", "--max-dets", "10", "--iou-thr", "0.75"],
        "matrix.json": ["nms", "--method", "matrix"],
        "soft.json": ["nms", "--method", "soft"],
        "semantic.json": ["nms", "--method", "semantic", "--semantic", "derive-from-gt"],
        "mask.json": ["nms", "--method", "mask"],
    },
}

GOLDEN = {
    "hedged": {
        "report.json": "fd59785e7563dc29208b9b86e47b811e653345d6b972f44c8bf1bfbe908d6e5e",
        "pr.csv": "8aa474258a30c27c794805ba82dab9348c614744eb6388ff62253d1c3e37c87a",
        "matrix.json": "1205e44a987b703614dbf3fc22d36a70502e346f2ad13c16520bcd46e05aeaa2",
        "soft.json": "00db9b446e9f0b9db9f3bb3d55347d97b24eb74b57c64a6456b2d9dbf156dd1b",
        "semantic.json": "8443ccdff8ce1ddd188e60f10d104be358d0da45aae23306ec0ecce2ae1e1d8a",
        "mask.json": "cb9625f64ca7f4a4792c9a4497baac058a1bfecce2a76916c4d0bc59aa0f0ae8",
    },
    "multi": {
        "report.json": "0014ec1f03e3d77841449020888340500b49c9d5e0a7d767ba48097bf5a73c95",
        "report-floor.json": "7b17f868c9acfd89eba6e1510544a10020937456930b72154e5fa3d27c177e0b",
        "pr.csv": "9a43160030c4ed9c2c6148d0ee5ba1a8df4c9fd3fc7fcd91abd07464ebd33d91",
        "pr-cat2.csv": "50f4aa1cdd083bb114934ac82a3cadb53cb5012755b489714759b792ae0bf6cb",
        "pr-capped.csv": "a8ba2f97f8b485857ebd40dff5e5de074f4d94fc754eceaec9afdbf95b3a9439",
        "matrix.json": "1cd0d94b2bba4d77c803668db52c48a3cedd4839eb72d6700e1b93867836d0c1",
        "soft.json": "ab6621c1160a520ec2cde7efbced4c2f12f271a84a898ec300bb8d4f9584b25a",
        "semantic.json": "fe6ad6a1f7596349258025cf32560aa671979edb98c0b37244b5b9689a1be1d4",
        "mask.json": "3adde17f9ac7e4067361f97c3b415e218395d8a9ae47e41b7e3fe4a7b553d339",
    },
}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name.startswith("report"):
        report = json.loads(data)
        del report["created_at"]
        data = json.dumps(report, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scene", list(SCENES))
def test_outputs_match_golden_digests(scene, tmp_path, monkeypatch):
    # relative paths keep the input names recorded in the report fixed
    monkeypatch.chdir(tmp_path)
    dataset, dets = SCENES[scene]()
    write_ground_truth(dataset, tmp_path / "gt.json")
    write_detections([d for image_id in sorted(dets) for d in dets[image_id]],
                     tmp_path / "dt.json")
    runner = CliRunner()
    digests = {}
    for name, args in COMMANDS[scene].items():
        result = runner.invoke(main, [args[0], "--gt", "gt.json", "--dt", "dt.json",
                                      "--out", name, *args[1:]])
        assert result.exit_code == 0, result.output
        digests[name] = _digest(tmp_path / name)
    assert digests == GOLDEN[scene]


# files `synth` writes for a COCO-size scene with two jittered copies per
# instance: 640x480 images of 80 parts, so occlusion is heavy and masks
# sit in boxes far smaller than the image
SYNTH_COCO_ARGS = ["--n-images", "2", "--parts", "80", "--height", "480", "--width", "640",
                   "--seed", "3", "--spatial-copies", "2"]
SYNTH_COCO_GOLDEN = {
    "annotations.json": "7adf492971c3465ef7a9ad0391fa52f862a85b5ce13d8359da33bcf3579c97c4",
    "config.json": "f3c52a5089bbba59ea87a554628cb857ecdebffe4e30bd9e14808cabce80a27c",
    "detections.json": "c02e2d5e932e035eae210006e9690d4c7a2c529b6eaebd5bfab48d5b2678bcb6",
    "semantic/1/1.json": "676bc037a942832b4bc2fc2c8e934c966cf8dd4e5a274dd321f7017729a24a56",
    "semantic/2/1.json": "77d2f93558f9fee3dcfa05c536947ad0f9ec8697d2bb9a06ed80e46a7b281e0f",
}


# files `synth` writes for the default 256x256 scene with four copies per
# instance jittered up to 3 px
SYNTH_HEDGED_ARGS = ["--n-images", "3", "--spatial-copies", "4", "--jitter-px", "3", "--seed", "5"]
SYNTH_HEDGED_GOLDEN = {
    "annotations.json": "3de88edd3698094082198a54698dc6d93db7b85c7e0d3f7b039f163dd306e42d",
    "config.json": "5a9a5b0da96c61e9b63429e843cdef7894b6be506d956b0943bc9949e551a0fb",
    "detections.json": "94b8652dcb0ab1784bed579578aaa78029c72e555bef8cc80bce9f1b2d932a84",
    "semantic/1/1.json": "d407c41d6cde2b7a586376bf4e9db73eaa903649941315e6b2d8b218c1a486f7",
    "semantic/2/1.json": "22de6a3c0b9f26e156fc87a7a1cef2d6a438a3ce9648b495bbfccc9708e44135",
    "semantic/3/1.json": "3bb9ed7e70cd87d12f90468b2b98aba40503b49e742033506e2c9076babdb6b4",
}


def _synth_digests(args, tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["synth", "--out", str(out), *args])
    assert result.exit_code == 0, result.output
    return {p.relative_to(out).as_posix(): _digest(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_synth_coco_size_matches_golden_digests(tmp_path):
    assert _synth_digests(SYNTH_COCO_ARGS, tmp_path) == SYNTH_COCO_GOLDEN


def test_synth_hedged_matches_golden_digests(tmp_path):
    assert _synth_digests(SYNTH_HEDGED_ARGS, tmp_path) == SYNTH_HEDGED_GOLDEN


# the file `nms --method semantic` keeps on the hedged scene above, with the
# budgets read from the `semantic/` directory `synth` wrote: the path that
# decodes each budget from its file rather than deriving it from masks
SEMANTIC_DIR_GOLDEN = "1f2575a9e7b8b71219d3e18929bf505d2430475477e4aed770b9bae00a331405"


def test_semantic_nms_from_directory_matches_golden_digest(tmp_path):
    _synth_digests(SYNTH_HEDGED_ARGS, tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "nms", "--gt", str(out / "annotations.json"), "--dt", str(out / "detections.json"),
        "--out", str(tmp_path / "kept.json"), "--method", "semantic",
        "--semantic", str(out / "semantic")])
    assert result.exit_code == 0, result.output
    assert _digest(tmp_path / "kept.json") == SEMANTIC_DIR_GOLDEN


def border_scene():
    """One 48x64 image whose parts sit on the image border, so most
    jittered copies are clipped by it: capsules centred on each edge and
    corner, a full-height bar and a part holding the last pixel."""
    h, w = 48, 64
    rng = np.random.default_rng(23)
    masks = []
    for _ in range(24):
        edge = rng.integers(4)
        t = rng.uniform(0.0, 1.0)
        cx, cy = ((t * w, 0.0), (t * w, h), (0.0, t * h), (w, t * h))[edge]
        masks.append(render_capsule(h, w, cx + rng.uniform(-2.0, 2.0), cy + rng.uniform(-2.0, 2.0),
                                    rng.uniform(4.0, 16.0), rng.uniform(2.0, 6.0),
                                    rng.uniform(0.0, np.pi)))
    bar = np.zeros((h, w), dtype=bool)
    bar[:, 30:33] = True
    corner = np.zeros((h, w), dtype=bool)
    corner[h - 5:, w - 4:] = True
    masks += [bar, corner]
    gts = [GroundTruthInstance(1, i + 1, 1, encode(m)) for i, m in enumerate(masks) if m.any()]
    dataset = Dataset({1: ImageInfo(1, h, w)}, {1: CategoryInfo(1, "part")}, {1: gts})
    return dataset, perfect_detector(dataset, spatial_copies=3, jitter_px=4, seed=23)


BORDER_GOLDEN = {
    "gt.json": "b99d69d415f8fa4812e231d8d0336612bce5262c5e3b27b3675fcee0e55fcb95",
    "dt.json": "81e604a2be2ad0e480519660cd6520c0f550c72099aaa687948cf2845ca314cf",
}


def test_border_scene_matches_golden_digests(tmp_path):
    dataset, dets = border_scene()
    write_ground_truth(dataset, tmp_path / "gt.json")
    write_detections(dets[1], tmp_path / "dt.json")
    assert {name: _digest(tmp_path / name) for name in ("gt.json", "dt.json")} == BORDER_GOLDEN
