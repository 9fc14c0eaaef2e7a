"""Dense whole-image views of the synthetic generator, used only by tests.

The generator rasterises each part on its bounding box and encodes every
visible part from one scan of the scene's label canvas; these helpers
paint the boxes onto full H x W canvases, read each part's pixels off the
label canvas, and translate whole masks, so tests can compare the box and
run paths against pixel-level definitions.
"""

import numpy as np

from hedgeval.synth import SynthConfig, _capsule_box, _label_canvas


def render_capsule(height: int, width: int, cx: float, cy: float,
                   length: float, cap_width: float, theta: float) -> np.ndarray:
    """Rasterize a capsule: pixels whose center lies within cap_width/2 of
    the spine segment. The spine has the given length, is centered on
    (cx, cy), and is rotated by theta radians."""
    r0, c0, local = _capsule_box(height, width, cx, cy, length, cap_width, theta)
    out = np.zeros((height, width), dtype=bool)
    out[r0:r0 + local.shape[0], c0:c0 + local.shape[1]] = local
    return out


def generate_image(cfg: SynthConfig, image_index: int) -> list[np.ndarray]:
    """Visible-pixel masks of one scene, in draw order, empties dropped, each
    on a whole-image canvas: the pixels of each label of the scene's label
    canvas."""
    canvas = np.ascontiguousarray(_label_canvas(cfg, image_index))
    masks = (canvas == label for label in range(1, cfg.parts_per_image + 1))
    return [m for m in masks if m.any()]


def shift_mask(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate a mask by whole pixels, filling vacated space with zeros."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    if abs(dy) < h and abs(dx) < w:  # otherwise everything falls off the image
        out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
            mask[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    return out
