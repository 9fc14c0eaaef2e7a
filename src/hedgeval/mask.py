"""Binary mask primitives: COCO-compatible RLE, pixel set operations, rasterization.

A binary mask is a 2D ``numpy`` array of dtype ``bool`` with shape
``(height, width)``; 1/True marks instance pixels. RLE follows the COCO
convention: column-major (Fortran) pixel order, alternating runs starting
with background.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MalformedRleError(ValueError):
    """Raised when an RLE payload cannot describe a valid mask."""


def _as_mask(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"mask must be 2D with positive dimensions, got shape {a.shape}")
    return a.astype(bool, copy=False)


@dataclass(frozen=True)
class RleMask:
    """Run-length encoded mask, COCO uncompressed form.

    ``counts`` alternates background/foreground run lengths in column-major
    pixel order and always begins with a (possibly zero-length) background run.
    """

    height: int
    width: int
    counts: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise MalformedRleError(f"invalid mask size {self.height}x{self.width}")
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if any(c < 0 for c in counts):
            raise MalformedRleError(f"negative run length in {counts}")
        total = sum(counts)
        if total != self.height * self.width:
            raise MalformedRleError(
                f"run lengths sum to {total}, expected {self.height * self.width} "
                f"for a {self.height}x{self.width} mask"
            )

    @property
    def area(self) -> int:
        """Number of foreground pixels."""
        return sum(self.counts[1::2])

    def to_json(self) -> dict:
        """COCO segmentation object with a compressed counts string."""
        return {"size": [self.height, self.width], "counts": compress_leb(self)}


def encode(mask: np.ndarray) -> RleMask:
    """Encode a binary mask as column-major alternating runs."""
    mask = _as_mask(mask)
    flat = mask.flatten(order="F")
    # run boundaries = positions where the pixel value changes
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    counts = np.diff(bounds).tolist()
    if flat[0]:
        counts.insert(0, 0)  # first run always counts background
    return RleMask(mask.shape[0], mask.shape[1], tuple(counts))


def decode(rle: RleMask) -> np.ndarray:
    """Decode an RleMask back to a dense bool array (inverse of encode)."""
    values = np.arange(len(rle.counts)) % 2  # background, foreground, background, ...
    flat = np.repeat(values.astype(bool), rle.counts)
    return flat.reshape((rle.height, rle.width), order="F")


_LEB_CHAR_LO = 48
_LEB_CHAR_HI = 111  # 48 + 63, all 6-bit group values


def compress_leb(rle: RleMask) -> str:
    """Compress run lengths into the COCO counts string.

    Each value is emitted in 5-bit groups, low bits first, one printable
    character per group: bit 5 is the continuation flag and the character is
    the group value plus 48. From index 3 onward the stored value is the
    delta against the count two positions earlier (the reference scheme
    leaves the first three counts raw), so foreground/background runs are
    each delta-coded against their own parity.
    """
    counts = rle.counts
    out = []
    for i, c in enumerate(counts):
        x = c - counts[i - 2] if i > 2 else c
        more = True
        while more:
            group = x & 0x1F
            x >>= 5
            # bit 4 of the group is the sign bit once emission stops
            more = (x != -1) if (group & 0x10) else (x != 0)
            if more:
                group |= 0x20
            out.append(chr(group + _LEB_CHAR_LO))
    return "".join(out)


def decompress_leb(s: str, height: int, width: int) -> RleMask:
    """Decompress a COCO counts string (inverse of compress_leb)."""
    counts: list[int] = []
    i, n = 0, len(s)
    while i < n:
        x = 0
        k = 0
        group = 0
        more = True
        while more:
            if i >= n:
                raise MalformedRleError(f"truncated counts string of length {n}")
            group = ord(s[i]) - _LEB_CHAR_LO
            if not 0 <= group <= _LEB_CHAR_HI - _LEB_CHAR_LO:
                raise MalformedRleError(f"counts character {s[i]!r} at position {i} out of range")
            x |= (group & 0x1F) << (5 * k)
            more = bool(group & 0x20)
            i += 1
            k += 1
        if group & 0x10:  # sign-extend from the last emitted group
            x |= -1 << (5 * k)
        if len(counts) > 2:
            x += counts[-2]
        if x < 0:
            raise MalformedRleError(f"negative run length {x} at count {len(counts)}")
        counts.append(x)
    return RleMask(height, width, tuple(counts))


def _check_same_shape(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"mask dimensions differ: {a.shape} vs {b.shape}")


def iou(a: np.ndarray, b: np.ndarray) -> float:
    """|a∩b| / |a∪b|; 0.0 when both masks are empty."""
    a, b = _as_mask(a), _as_mask(b)
    _check_same_shape(a, b)
    inter = np.count_nonzero(a & b)
    union = np.count_nonzero(a | b)
    return inter / union if union else 0.0


def _mask_table(masks):
    """Bool masks of one shape, their half-open boxes (r0, r1, c0, c1) and
    exact areas. An empty mask gets the empty box (0, 0, 0, 0), which
    overlaps no box."""
    masks = [_as_mask(m) for m in masks]
    boxes = np.zeros((len(masks), 4), dtype=np.intp)
    areas = np.zeros(len(masks), dtype=np.int64)
    for k, m in enumerate(masks):
        _check_same_shape(masks[0], m)
        rows = np.flatnonzero(m.any(axis=1))
        if rows.size:
            cols = np.flatnonzero(m.any(axis=0))
            r0, r1, c0, c1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
            boxes[k] = r0, r1, c0, c1
            areas[k] = np.count_nonzero(m[r0:r1, c0:c1])
    return masks, boxes, areas


def _intersections(ma, ba, mb, bb, upper=False) -> np.ndarray:
    """Exact pixel counts |a∩b|, counted only on the overlap window of each
    pair whose boxes overlap (only pairs i < j when ``upper``)."""
    lo = np.maximum(ba[:, None, 0::2], bb[None, :, 0::2])  # (r0, c0) per pair
    hi = np.minimum(ba[:, None, 1::2], bb[None, :, 1::2])  # (r1, c1) per pair
    cand = (lo < hi).all(axis=2)
    if upper:
        cand = np.triu(cand, k=1)
    inter = np.zeros(cand.shape, dtype=np.int64)
    ii, jj = np.nonzero(cand)
    wins = np.concatenate((lo[ii, jj], hi[ii, jj]), axis=1).tolist()
    for i, j, (r0, c0, r1, c1) in zip(ii.tolist(), jj.tolist(), wins):
        inter[i, j] = np.count_nonzero(ma[i][r0:r1, c0:c1] & mb[j][r0:r1, c0:c1])
    return inter


def _iou_from_counts(inter, area_a, area_b) -> np.ndarray:
    union = (area_a[:, None] + area_b[None, :] - inter).astype(np.float64)
    return np.divide(inter.astype(np.float64), union,
                     out=np.zeros(union.shape), where=union > 0)


def iou_matrix(masks_a, masks_b) -> np.ndarray:
    """Pairwise IoU between two mask sequences, shape (len_a, len_b).

    Intersections are exact integer pixel counts at any mask size. Only
    pairs whose bounding boxes overlap are counted, each on the overlap
    window of the two boxes, so the work is proportional to the number of
    box-overlapping pairs times their window area, and no per-pixel array
    beyond the masks themselves is built. Every entry is bit-equal to
    ``iou`` of the same pair. Raises ``ValueError`` when the masks differ
    in shape.
    """
    ma, ba, aa = _mask_table(masks_a)
    mb, bb, ab = _mask_table(masks_b)
    if ma and mb:
        _check_same_shape(ma[0], mb[0])
    return _iou_from_counts(_intersections(ma, ba, mb, bb), aa, ab)


def pairwise_iou(masks) -> np.ndarray:
    """Symmetric IoU matrix of one mask sequence against itself; bit-equal to
    ``iou_matrix(masks, masks)`` but counts each unordered pair once."""
    m, boxes, areas = _mask_table(masks)
    inter = _intersections(m, boxes, m, boxes, upper=True)
    inter += inter.T
    inter[np.diag_indices_from(inter)] = areas
    return _iou_from_counts(inter, areas, areas)


def rasterize_polygon(vertices, height: int, width: int) -> np.ndarray:
    """Scanline-fill a polygon with the even-odd rule.

    A pixel (row, col) is inside when its center (col + 0.5, row + 0.5)
    is inside the polygon. Vertices are (x, y) subpixel coordinates.
    """
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 2)
    if verts.shape[0] < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {verts.shape[0]}")
    mask = np.zeros((height, width), dtype=bool)
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    for row in range(height):
        yc = row + 0.5
        # half-open crossing test so shared vertices count once
        crosses = ((y1 <= yc) & (y2 > yc)) | ((y2 <= yc) & (y1 > yc))
        if not crosses.any():
            continue
        t = (yc - y1[crosses]) / (y2[crosses] - y1[crosses])
        xs = np.sort(x1[crosses] + t * (x2[crosses] - x1[crosses]))
        for xa, xb in zip(xs[0::2], xs[1::2]):
            lo = max(int(np.ceil(xa - 0.5)), 0)
            hi = min(int(np.ceil(xb - 0.5)), width)
            if hi > lo:
                mask[row, lo:hi] = True
    return mask
