import numpy as np
import pytest

from hedgeval.coco import CategoryInfo, Dataset, Detection, GroundTruthInstance, ImageInfo
from hedgeval.mask import encode_box


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_mask(rng, height, width, density=0.5):
    return rng.random((height, width)) < density


def sparse_scene(n_images, size, seed=0):
    """A dataset of ``n_images`` ``size`` x ``size`` images, each with eight
    disjoint 40x60 blocks spread over the whole image, one to each cell of a
    4x2 grid, in two alternating categories; and its detections: each block
    at 0.9 and a copy shifted down 3 rows at 0.6. No mask is painted at the
    full image size."""
    rng = np.random.default_rng(seed)
    block = np.ones((40, 60), dtype=bool)
    cell_h, cell_w = size // 4, size // 2
    images, gts, dets = {}, {}, {}
    for image_id in range(1, n_images + 1):
        images[image_id] = ImageInfo(image_id, size, size)
        gts[image_id], dets[image_id] = [], []
        for k in range(8):
            r0 = cell_h * (k // 2) + int(rng.integers(0, cell_h - 43))
            c0 = cell_w * (k % 2) + int(rng.integers(0, cell_w - 60))
            category = 1 + k % 2
            rle = encode_box(block, r0, c0, size, size)
            gts[image_id].append(GroundTruthInstance(image_id, 8 * image_id + k, category, rle))
            dets[image_id] += [Detection(image_id, category, 0.9, rle),
                               Detection(image_id, category, 0.6, encode_box(block, r0 + 3, c0, size, size))]
    categories = {c: CategoryInfo(c, f"c{c}") for c in (1, 2)}
    return Dataset(images, categories, gts), dets
