"""Binary mask primitives: COCO-compatible RLE, pixel set operations, rasterization.

A binary mask is a 2D ``numpy`` array of dtype ``bool`` with shape
``(height, width)``; 1/True marks instance pixels. RLE follows the COCO
convention: column-major (Fortran) pixel order, alternating runs starting
with background.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np


class MalformedRleError(ValueError):
    """Raised when an RLE payload cannot describe a valid mask. ``index``
    names the faulty string of a ``leb_counts`` batch."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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
    The constructor checks the runs, as raw counts from outside need; runs
    that ``encode`` derives, and decoded runs whose sum ``_decoded_rle``
    has checked, skip it (``_unchecked``).
    """

    height: int
    width: int
    counts: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise MalformedRleError(f"invalid mask size {self.height}x{self.width}")
        counts = tuple(map(int, self.counts))
        object.__setattr__(self, "counts", counts)
        if counts and min(counts) < 0:
            raise MalformedRleError(f"negative run length in {counts}")
        total = sum(counts)
        if total != self.height * self.width:
            raise MalformedRleError(
                f"run lengths sum to {total}, expected {self.height * self.width} "
                f"for a {self.height}x{self.width} mask"
            )

    @classmethod
    def _unchecked(cls, height: int, width: int, counts) -> "RleMask":
        """The mask of runs known to be valid (non-negative ``int`` lengths
        summing to height x width, height and width at least 1), built
        without the checks of ``__post_init__``: runs this package derives
        itself, or decoded runs whose sum ``_decoded_rle`` has checked."""
        rle = object.__new__(cls)
        object.__setattr__(rle, "height", height)  # plain attribute writes: no per-instance dict
        object.__setattr__(rle, "width", width)
        object.__setattr__(rle, "counts", tuple(counts))
        return rle

    @property
    def area(self) -> int:
        """Number of foreground pixels."""
        return sum(self.counts[1::2])

    @cached_property
    def _counts_string(self) -> str:
        # cached in the instance's __dict__, outside the fields that
        # ==, hash and repr read, so a mask is compressed once however
        # many files it is written to
        return compress_leb(self)

    def to_json(self) -> dict:
        """COCO segmentation object with a compressed counts string,
        computed on the mask's first call."""
        return {"size": [self.height, self.width], "counts": self._counts_string}


def encode(mask: np.ndarray) -> RleMask:
    """Encode a binary mask as column-major alternating runs.

    The mask's bounding box is found with two ``any`` reductions and only
    the box is scanned (``encode_box``), so the scan follows the box area,
    not H x W, in any memory layout.
    """
    mask = _as_mask(mask)
    h, w = mask.shape
    rows = np.flatnonzero(mask.any(axis=1))
    if not rows.size:
        return RleMask._unchecked(h, w, (h * w,))
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(mask[r0:r1].any(axis=0))
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    return encode_box(mask[r0:r1, c0:c1], r0, c0, h, w)


def encode_box(crop: np.ndarray, r0: int, c0: int, height: int, width: int) -> RleMask:
    """Encode the ``height`` x ``width`` mask whose pixels outside the box of
    ``crop``, with top-left pixel (r0, c0), are all background; the same
    runs as ``encode`` of the whole mask, at the cost of the box alone."""
    h, w = height, width
    bh, bw = crop.shape
    if r0 < 0 or c0 < 0 or r0 + bh > h or c0 + bw > w:
        raise ValueError(f"a {bh}x{bw} box at ({r0}, {c0}) does not fit a {h}x{w} mask")
    # scan the box with background before and after it in column-major
    # order, so its edges (where a run starts or ends) alternate, starting
    # with a start
    if bh == h:
        # the box's columns are one span of the image, where a run may cross
        # from one column into the next
        flat = np.zeros(h * bw + 2, dtype=bool)
        flat[1:-1].reshape((h, bw), order="F")[:] = crop  # a view
        edges = np.flatnonzero(flat[1:] != flat[:-1]) + c0 * h
    else:
        # one background row above and below the box: every run starts and
        # ends in its own column
        hp = bh + 2
        padded = np.zeros((hp, bw), dtype=bool, order="F")
        padded[1:-1] = crop
        flat = padded.ravel(order="F")
        col, row = np.divmod(np.flatnonzero(flat[1:] != flat[:-1]) + 1, hp)
        edges = (col + c0) * h + (row - 1 + r0)  # the same positions in the image
    counts = np.diff(np.concatenate(([0], edges, [h * w]))).tolist()
    if counts[-1] == 0:  # the last run is foreground and ends the image
        counts.pop()
    return RleMask._unchecked(h, w, counts)


def _paint(runs, height: int, width: int) -> np.ndarray:
    """Bool array of alternating background/foreground runs in column-major
    order, starting with background."""
    values = np.arange(len(runs)) % 2  # background, foreground, background, ...
    flat = np.repeat(values.astype(bool), runs)
    return flat.reshape((height, width), order="F")


def decode(rle: RleMask) -> np.ndarray:
    """Decode an RleMask back to a dense bool array (inverse of encode)."""
    return _paint(rle.counts, rle.height, rle.width)


_LEB_CHAR_LO = 48
_LEB_CHAR_HI = 111  # 48 + 63, all 6-bit group values
_LEB_MEMO_SPAN = 2048  # values in [-2048, 2048) are memoised: at most 4096 strings


class _LebText(dict):
    """The counts-string characters of one value, keyed by the value.

    A value in [-_LEB_MEMO_SPAN, _LEB_MEMO_SPAN), where most run-length
    deltas of real masks fall, is encoded on its first lookup and kept, so
    the memo never holds more than 2 * _LEB_MEMO_SPAN short strings. Any
    other value takes more than two groups; those two carry the
    continuation bit, and the rest of its characters are those of the value
    shifted right by 10 bits, so it is looked up ten bits at a time.
    """

    def __missing__(self, value):
        head = []
        while not -_LEB_MEMO_SPAN <= value < _LEB_MEMO_SPAN:
            head.append(chr(_LEB_CHAR_LO + 0x20 + (value & 0x1F))
                        + chr(_LEB_CHAR_LO + 0x20 + (value >> 5 & 0x1F)))
            value >>= 10
        if head:
            return "".join(head) + self[value]
        x, out = value, []
        more = True
        while more:
            group = x & 0x1F
            x >>= 5
            # bit 4 of the group is the sign bit once emission stops
            more = (x != -1) if (group & 0x10) else (x != 0)
            if more:
                group |= 0x20
            out.append(chr(group + _LEB_CHAR_LO))
        text = self[value] = "".join(out)
        return text


_LEB_TEXT = _LebText()


def compress_leb(rle: RleMask) -> str:
    """Compress run lengths into the COCO counts string.

    Each value is emitted in 5-bit groups, low bits first, one printable
    character per group: bit 5 is the continuation flag and the character is
    the group value plus 48. From index 3 onward the stored value is the
    delta against the count two positions earlier (the reference scheme
    leaves the first three counts raw), so foreground/background runs are
    each delta-coded against their own parity. ``oracles.compress_leb_naive``
    spells this out one character at a time; here the deltas are taken
    with one ``map`` and each value's characters are looked up in a bounded
    memo, so no Python loop runs per character.
    """
    counts = rle.counts
    deltas = map(operator.sub, counts[3:], counts[1:])
    return "".join(map(_LEB_TEXT.__getitem__, chain(counts[:3], deltas)))


_LEB_CHUNK = 1 << 12  # characters per numpy pass; its int64 temporaries stay at 32 KiB
_LEB_MAX_GROUPS = 12  # 60 bits: no valid mask below 2**59 pixels needs more


def leb_counts(strings):
    """Decode COCO counts strings (the inverse of ``compress_leb``).

    Yields one list of run lengths per string, in order. The strings are
    decoded in numpy, about ``_LEB_CHUNK`` characters at a time; a value
    ends at a group without the continuation bit and always at a string's
    last character, so no value straddles two strings. A malformed string
    raises ``MalformedRleError`` with ``index`` naming it, after every
    string before it has been yielded, and with the message of
    ``oracles.decompress_leb_naive`` for the fault at its earliest character
    position. The one fault the per-character loop lacks is a value of more
    than ``_LEB_MAX_GROUPS`` groups.
    """
    chunk: list[str] = []
    size = offset = 0
    for s in strings:
        chunk.append(s)
        size += len(s)
        if size >= _LEB_CHUNK:
            yield from _leb_chunk(chunk, offset)
            offset += len(chunk)
            chunk, size = [], 0
    if chunk:
        yield from _leb_chunk(chunk, offset)


def _leb_chunk(strings: list[str], offset: int):
    """Yield the run lengths of one chunk's strings; ``offset`` is the batch
    index of its first string."""
    lengths = np.fromiter(map(len, strings), dtype=np.intp, count=len(strings))
    text = "".join(strings).encode("utf-32-le", "surrogatepass")
    groups = np.frombuffer(text, dtype="<u4").astype(np.int64) - _LEB_CHAR_LO
    bad = (groups < 0) | (groups > _LEB_CHAR_HI - _LEB_CHAR_LO)
    groups[bad] = 0  # ends its value; the string faults there anyway
    more = (groups & 0x20) != 0
    str_end = np.cumsum(lengths)  # exclusive end of each string
    last = str_end[lengths > 0] - 1
    value_end = ~more
    value_end[last] = True
    ends = np.flatnonzero(value_end)  # last character of each value
    starts = np.concatenate(([0], ends + 1))[:-1]
    sizes = ends - starts + 1
    # shift-accumulate the 5-bit payloads, low groups first; a value of
    # more than _LEB_MAX_GROUPS groups faults, so clipping its shift is safe
    shift = 5 * np.minimum(np.arange(groups.size) - np.repeat(starts, sizes), _LEB_MAX_GROUPS - 1)
    values = np.add.reduceat((groups & 0x1F) << shift, starts)
    sign = (groups[ends] & 0x10) != 0  # sign-extend from the last group
    values -= np.where(sign, np.int64(1) << (5 * np.minimum(sizes, _LEB_MAX_GROUPS)), 0)
    # undo the stride-2 delta (from count 3 on) with one cumsum per parity,
    # segmented by string; int64 wrap-around cancels in the differences
    cut = np.searchsorted(ends, str_end)  # values up to each string's end
    first = np.concatenate(([0], cut[:-1]))
    base = np.repeat(first, cut - first)
    j = np.arange(values.size) - base  # index of each value in its string
    odd = (j & 1) == 1
    even = ~odd & (j >= 2)
    odd_sum = np.cumsum(np.where(odd, values, 0))
    even_sum = np.cumsum(np.where(even, values, 0))
    counts = np.where(odd, odd_sum - odd_sum[base],
                      np.where(even, even_sum - even_sum[base], values))
    # a negative count is a fault or an int64 overflow; both go to _leb_exact
    flagged = np.concatenate((np.flatnonzero(bad), last[more[last]],
                              ends[(sizes > _LEB_MAX_GROUPS) | (counts < 0)]))
    suspect = np.zeros(len(strings), dtype=bool)
    suspect[np.searchsorted(str_end, flagged, side="right")] = True
    flat = counts.tolist()
    for k, (s, exact, a, b) in enumerate(zip(strings, suspect.tolist(), first.tolist(), cut.tolist())):
        yield _leb_exact(s, offset + k) if exact else flat[a:b]


def _leb_exact(s: str, index: int) -> list[int]:
    """Run lengths of one string the vectorised pass flagged, read one
    character at a time in Python integers as ``oracles.decompress_leb_naive``
    does, plus the ``_LEB_MAX_GROUPS`` limit; the first fault by character
    position raises ``MalformedRleError`` with ``index``."""
    counts: list[int] = []
    i, n = 0, len(s)
    while i < n:
        start, x, k, more = i, 0, 0, True
        while more:
            if i >= n:
                raise MalformedRleError(f"truncated counts string of length {n}", index)
            group = ord(s[i]) - _LEB_CHAR_LO
            if not 0 <= group <= _LEB_CHAR_HI - _LEB_CHAR_LO:
                raise MalformedRleError(f"counts character {s[i]!r} at position {i} out of range", index)
            if k == _LEB_MAX_GROUPS:
                raise MalformedRleError(
                    f"counts value at position {start} has more than {_LEB_MAX_GROUPS} groups", index)
            x |= (group & 0x1F) << (5 * k)
            more = group & 0x20
            i += 1
            k += 1
        if group & 0x10:  # sign-extend from the last group
            x |= -1 << (5 * k)
        if len(counts) > 2:
            x += counts[-2]
        if x < 0:
            raise MalformedRleError(f"negative run length {x} at count {len(counts)}", index)
        counts.append(x)
    return counts


def _decoded_rle(height: int, width: int, counts: list[int]) -> RleMask:
    """The mask of runs ``leb_counts`` decoded (non-negative ints): only their
    sum is checked here, and a wrong size gets the constructor's message."""
    if height >= 1 and width >= 1 and sum(counts) == height * width:
        return RleMask._unchecked(height, width, counts)
    return RleMask(height, width, counts)


def decompress_leb(s: str, height: int, width: int) -> RleMask:
    """Decompress one COCO counts string (inverse of compress_leb)."""
    return _decoded_rle(height, width, next(leb_counts([s])))


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


def _foreground_runs(rles):
    """Length and end of every non-empty foreground run of the masks, with
    their counts laid end to end; the per-count arrays are freed on return."""
    lens = np.fromiter((len(r.counts) for r in rles), dtype=np.intp, count=len(rles))
    flat = np.fromiter(chain.from_iterable(r.counts for r in rles), dtype=np.int64,
                       count=int(lens.sum()))
    fg = (np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)) % 2 == 1
    run, end = flat[fg], np.cumsum(flat)[fg]
    keep = run > 0
    return run[keep], end[keep]


def _one_shape(shapes):
    """The shape all of ``shapes`` share, None when there are none."""
    shapes = iter(shapes)
    first = next(shapes, None)
    for s in shapes:
        if s != first:
            raise ValueError(f"mask dimensions differ: {first} vs {s}")
    return first


@dataclass(frozen=True)
class MaskTable:
    """Masks of one shape, each held as its half-open box (r0, r1, c0, c1),
    its exact area and a bool crop of that box.

    A table is built from RLE runs (``from_rles``); dense masks are
    encoded first. An empty mask gets the empty box (0, 0, 0, 0), which
    overlaps no box, and a 0x0 crop. Every crop is an F-order view of its
    own slice of one bool buffer of the total box area, so memory scales
    with the total box area, not with masks x H x W.
    """

    shape: tuple[int, int] | None  # None for a table of no masks
    boxes: np.ndarray  # (n, 4) intp
    areas: np.ndarray  # (n,) int64
    crops: tuple[np.ndarray, ...]

    @classmethod
    def from_rles(cls, rles) -> "MaskTable":
        """Table of RLE masks, read from their runs in one numpy pass over
        all of them, with no full-image decode.

        The masks' counts are concatenated. Every mask's runs sum to H x W,
        so mask m's pixels take the column-major positions [m*H*W,
        (m+1)*H*W) of one image of n*W columns, and one cumsum gives every
        foreground run's end. A box spans the rows its runs cover, or every
        row when a run crosses a column edge (it then holds the last row
        and the first). Each run stays contiguous in its crop's
        column-major order, since it lies in one column or the box spans
        every row, so one ``np.repeat`` paints every crop from the run
        boundaries into one bool buffer, with nothing else allocated per
        pixel.
        """
        rles = list(rles)
        shape = _one_shape((r.height, r.width) for r in rles)
        n = len(rles)
        if not n:
            return cls(None, np.zeros((0, 4), dtype=np.intp), np.zeros(0, dtype=np.int64), ())
        h, w = shape
        run, end = _foreground_runs(rles)
        col0, row0 = np.divmod(end - run, h)  # first pixel; columns count on from mask 0
        col1, row1 = np.divmod(end - 1, h)  # last pixel
        owner = col0 // w
        new = np.diff(owner, prepend=-1) != 0
        first = np.flatnonzero(new)  # each non-empty mask's first run
        seg = np.cumsum(new) - 1  # each run's non-empty mask
        who = owner[first]
        full = np.logical_or.reduceat(col0 != col1, first)
        r0 = np.where(full, 0, np.minimum.reduceat(row0, first))
        r1 = np.where(full, h, np.maximum.reduceat(row1, first) + 1)
        c0, c1 = col0[first], np.maximum.reduceat(col1, first) + 1
        bh, size = r1 - r0, (r1 - r0) * (c1 - c0)
        offset = np.cumsum(size) - size
        # each run's place in the buffer, whose runs alternate background
        # and foreground from its first pixel to its last
        edges = np.empty(2 * run.size + 2, dtype=np.int64)
        edges[0], edges[-1] = 0, size.sum()
        edges[1:-1:2] = offset[seg] + (col0 - c0[seg]) * bh[seg] + (row0 - r0[seg])
        edges[2:-1:2] = edges[1:-1:2] + run
        buf = np.repeat(np.arange(edges.size - 1) % 2 == 1, np.diff(edges))

        boxes = np.zeros((n, 4), dtype=np.intp)
        boxes[who] = np.stack((r0, r1, c0 - who * w, c1 - who * w), axis=1)
        areas = np.zeros(n, dtype=np.int64)
        areas[who] = np.add.reduceat(run, first)
        crops = [buf[:0].reshape((0, 0))] * n
        for m, o, hh, ww in zip(who.tolist(), offset.tolist(), bh.tolist(), (c1 - c0).tolist()):
            crops[m] = buf[o:o + hh * ww].reshape((hh, ww), order="F")
        return cls(shape, boxes, areas, tuple(crops))

    def __len__(self) -> int:
        return len(self.crops)

    def take(self, idx) -> "MaskTable":
        """The table of the masks at ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        return MaskTable(self.shape, self.boxes[idx], self.areas[idx],
                         tuple(self.crops[i] for i in idx.tolist()))


def _intersections(a: MaskTable, b: MaskTable, upper=False) -> np.ndarray:
    """Exact pixel counts |a∩b|, counted only on the overlap window of each
    pair whose boxes overlap (only pairs i < j when ``upper``)."""
    lo = np.maximum(a.boxes[:, None, 0::2], b.boxes[None, :, 0::2])  # (r0, c0) per pair
    hi = np.minimum(a.boxes[:, None, 1::2], b.boxes[None, :, 1::2])  # (r1, c1) per pair
    cand = (lo < hi).all(axis=2)
    if upper:
        cand = np.triu(cand, k=1)
    inter = np.zeros(cand.shape, dtype=np.int64)
    ii, jj = np.nonzero(cand)
    win = lo[ii, jj]
    # window origin in each crop, and window size
    wins = np.concatenate((win - a.boxes[ii][:, 0::2], win - b.boxes[jj][:, 0::2],
                           hi[ii, jj] - win), axis=1).tolist()
    for i, j, (ar, ac, br, bc, h, w) in zip(ii.tolist(), jj.tolist(), wins):
        inter[i, j] = np.count_nonzero(a.crops[i][ar:ar + h, ac:ac + w]
                                       & b.crops[j][br:br + h, bc:bc + w])
    return inter


def _iou_from_counts(inter, area_a, area_b) -> np.ndarray:
    union = (area_a[:, None] + area_b[None, :] - inter).astype(np.float64)
    return np.divide(inter.astype(np.float64), union,
                     out=np.zeros(union.shape), where=union > 0)


def table_iou(a: MaskTable, b: MaskTable) -> np.ndarray:
    """IoU of every mask of ``a`` against every mask of ``b``, shape
    (len(a), len(b)).

    Intersections are exact integer pixel counts at any mask size. Only
    pairs whose boxes overlap are counted, each on the overlap window of
    the two boxes, so the work is proportional to the number of
    box-overlapping pairs times their window area. Every entry is
    bit-equal to ``iou`` of the same pair of dense masks. Raises
    ``ValueError`` when the tables' mask shapes differ.
    """
    if len(a) and len(b) and a.shape != b.shape:
        raise ValueError(f"mask dimensions differ: {a.shape} vs {b.shape}")
    return _iou_from_counts(_intersections(a, b), a.areas, b.areas)


def table_pairwise_iou(t: MaskTable) -> np.ndarray:
    """Symmetric IoU matrix of a table against itself; bit-equal to
    ``table_iou(t, t)`` but counts each unordered pair once."""
    inter = _intersections(t, t, upper=True)
    inter += inter.T
    inter[np.diag_indices_from(inter)] = t.areas
    return _iou_from_counts(inter, t.areas, t.areas)


def iou_matrix(masks_a, masks_b) -> np.ndarray:
    """Pairwise IoU between two sequences of dense masks, shape
    (len_a, len_b): ``table_iou`` of the tables of their encoded runs."""
    return table_iou(MaskTable.from_rles(map(encode, masks_a)),
                     MaskTable.from_rles(map(encode, masks_b)))


def rasterize_polygon(vertices, height: int, width: int) -> np.ndarray:
    """Scanline-fill a polygon with the even-odd rule.

    A pixel (row, col) is inside when its center (col + 0.5, row + 0.5)
    is inside the polygon. Vertices are (x, y) subpixel coordinates. Only
    the polygon's own rows are visited.
    """
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 2)
    if verts.shape[0] < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {verts.shape[0]}")
    mask = np.zeros((height, width), dtype=bool)
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    # an edge crosses a row only when min y <= row + 0.5 < max y, so only
    # rows floor(min y) .. ceil(max y) - 1 can hold pixels (a NaN y crosses
    # no row)
    ys = y1[~np.isnan(y1)]
    if not ys.size:
        return mask
    row0 = int(np.clip(np.floor(ys.min()), 0, height))
    row1 = int(np.clip(np.ceil(ys.max()), 0, height))
    for row in range(row0, row1):
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
