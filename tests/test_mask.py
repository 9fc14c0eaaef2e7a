import json
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hedgeval import mask as mask_module
from hedgeval.mask import (
    MalformedRleError,
    MaskTable,
    RleMask,
    compress_leb,
    decode,
    decompress_leb,
    encode,
    encode_box,
    iou,
    iou_matrix,
    leb_counts,
    rasterize_polygon,
    table_iou,
    table_pairwise_iou,
)
from hedgeval.oracles import compress_leb_naive, decompress_leb_naive, rasterize_polygon_naive

from _reference_rle import (
    rle_to_string_reference,
    runs_from_mask_bruteforce,
    string_to_rle_reference,
)
from conftest import random_mask

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "rle_strings.json").read_text())


def masks_strategy(max_side=24):
    side = st.integers(min_value=1, max_value=max_side)
    return st.tuples(side, side).flatmap(
        lambda hw: arrays(dtype=bool, shape=hw, elements=st.booleans())
    )


class TestRleCodec:
    def test_encode_all_zero(self):
        assert encode(np.zeros((2, 2), dtype=bool)).counts == (4,)

    def test_encode_all_one(self):
        assert encode(np.ones((2, 2), dtype=bool)).counts == (0, 4)

    def test_roundtrip_random_13x7(self, rng):
        for _ in range(100):
            m = random_mask(rng, 13, 7)
            assert np.array_equal(decode(encode(m)), m)

    def test_encode_matches_perpixel_scan(self, rng):
        for _ in range(50):
            m = random_mask(rng, 9, 11, density=rng.random())
            assert list(encode(m).counts) == runs_from_mask_bruteforce(m)

    def test_decode_rejects_run_sum_mismatch(self):
        with pytest.raises(MalformedRleError):
            RleMask(2, 2, (1, 2))

    def test_rejects_negative_runs(self):
        with pytest.raises(MalformedRleError):
            RleMask(2, 2, (5, -1))

    @settings(max_examples=200, deadline=None)
    @given(masks_strategy())
    def test_roundtrip_property(self, m):
        assert np.array_equal(decode(encode(m)), m)

    def test_roundtrip_large(self, rng):
        for density in (0.02, 0.5, 0.98):
            m = random_mask(rng, 512, 512, density)
            rle = encode(m)
            assert np.array_equal(decode(rle), m)
            assert decompress_leb(compress_leb(rle), 512, 512) == rle


def _in_layout(m: np.ndarray, layout: str) -> np.ndarray:
    """The same pixels as ``m`` in another memory layout."""
    if layout == "C":
        return np.ascontiguousarray(m)
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "strided":  # a view with steps in both axes, neither C nor F
        h, w = m.shape
        big = np.zeros((2 * h, 3 * w), dtype=bool)
        big[::2, ::3] = m
        return big[::2, ::3]
    assert layout == "transposed"  # the transpose of a C array: F-contiguous
    return np.ascontiguousarray(m.T).T


LAYOUTS = ("C", "F", "strided", "transposed")


@st.composite
def boxed_masks(draw, max_side=20):
    """A mask of random pixels inside a random box of a larger image; the
    box may touch any border, span every row or cover the whole image."""
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    r0, r1 = sorted(draw(st.integers(0, h)) for _ in range(2))
    c0, c1 = sorted(draw(st.integers(0, w)) for _ in range(2))
    m = np.zeros((h, w), dtype=bool)
    m[r0:r1, c0:c1] = draw(arrays(bool, (r1 - r0, c1 - c0), elements=st.booleans()))
    return m


class TestEncodeLayouts:
    """``encode`` scans F-contiguous masks in place and every other layout
    on the mask's bounding box; both must give the per-pixel runs."""

    @settings(max_examples=400, deadline=None)
    @given(boxed_masks(), st.sampled_from(LAYOUTS))
    @example(np.zeros((5, 7), dtype=bool), "C")
    @example(np.ones((5, 7), dtype=bool), "C")
    @example(np.ones((1, 1), dtype=bool), "strided")
    @example(np.eye(6, 9, k=2, dtype=bool), "C")
    def test_matches_per_pixel_scan(self, m, layout):
        assert list(encode(_in_layout(m, layout)).counts) == runs_from_mask_bruteforce(m)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("r, c", [(0, 0), (0, 8), (5, 0), (5, 8), (2, 4)])
    def test_single_pixel(self, layout, r, c):
        m = np.zeros((6, 9), dtype=bool)
        m[r, c] = True
        assert list(encode(_in_layout(m, layout)).counts) == runs_from_mask_bruteforce(m)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_runs_across_column_edges(self, layout):
        # the box spans every row; runs wrap from the last row of one column
        # into the first row of the next, and the first and last pixels are set
        m = np.zeros((5, 6), dtype=bool)
        m[3:, 1] = m[:2, 2] = True
        m[4, 3] = m[:, 4] = m[0, 5] = True
        m[0, 0] = m[4, 5] = True
        assert list(encode(_in_layout(m, layout)).counts) == runs_from_mask_bruteforce(m)
        assert encode(_in_layout(m, layout)).counts == (0, 1, 7, 4, 7, 7, 3, 1)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_small_mask_in_large_image(self, layout, rng):
        m = np.zeros((480, 640), dtype=bool)
        m[200:230, 300:310] = random_mask(rng, 30, 10)
        assert list(encode(_in_layout(m, layout)).counts) == runs_from_mask_bruteforce(m)

    @settings(max_examples=300, deadline=None)
    @given(boxed_masks(), st.data())
    def test_box_encoder_on_any_enclosing_box(self, m, data):
        # any box that holds every foreground pixel gives the whole mask's
        # runs: tight, wider, every row or empty, touching any border
        h, w = m.shape
        rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
        lo_r = int(rows[0]) if rows.size else h
        lo_c = int(cols[0]) if cols.size else w
        r0 = data.draw(st.integers(0, lo_r))
        r1 = data.draw(st.integers(int(rows[-1]) + 1 if rows.size else r0, h))
        c0 = data.draw(st.integers(0, lo_c))
        c1 = data.draw(st.integers(int(cols[-1]) + 1 if cols.size else c0, w))
        crop = m[r0:r1, c0:c1]
        assert list(encode_box(crop, r0, c0, h, w).counts) == runs_from_mask_bruteforce(m)

    @settings(max_examples=300, deadline=None)
    @given(boxed_masks(), st.sampled_from(LAYOUTS))
    def test_built_masks_pass_validation(self, m, layout):
        # encode and encode_box skip RleMask's checks; each mask must equal
        # the one the checked constructor builds from the same runs
        h, w = m.shape
        rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
        r0, c0 = (int(rows[0]), int(cols[0])) if rows.size else (0, 0)
        r1, c1 = (int(rows[-1]) + 1, int(cols[-1]) + 1) if rows.size else (0, 0)
        for rle in (encode(_in_layout(m, layout)), encode_box(m[r0:r1, c0:c1], r0, c0, h, w)):
            assert rle == RleMask(h, w, rle.counts)
            assert type(rle.counts) is tuple and all(type(c) is int for c in rle.counts)

    @pytest.mark.parametrize("r0, c0, shape", [(-1, 0, (2, 2)), (0, -1, (2, 2)),
                                               (4, 0, (2, 2)), (0, 6, (2, 2)), (0, 0, (6, 1))])
    def test_box_outside_the_mask_rejected(self, r0, c0, shape):
        with pytest.raises(ValueError, match="does not fit"):
            encode_box(np.ones(shape, dtype=bool), r0, c0, 5, 7)

    def test_non_bool_masks(self, rng):
        m = random_mask(rng, 7, 9, density=0.3)
        for a in (m.astype(np.uint8), np.asfortranarray(m.astype(np.int32)), m.astype(float)[::-1, ::-1]):
            assert list(encode(a).counts) == runs_from_mask_bruteforce(np.asarray(a, dtype=bool))


class TestCountsString:
    def test_empty_1x1(self):
        assert compress_leb(RleMask(1, 1, (1,))) == "1"

    @pytest.mark.parametrize("fx", FIXTURES, ids=[f["name"] for f in FIXTURES])
    def test_fixture_decodes_pixel_exact(self, fx):
        h, w = fx["size"]
        rle = decompress_leb(fx["counts_string"], h, w)
        assert list(rle.counts) == fx["counts"]
        expected = np.array([[ch == "1" for ch in row] for row in fx["rows"]])
        assert np.array_equal(decode(rle), expected)

    @pytest.mark.parametrize("fx", FIXTURES, ids=[f["name"] for f in FIXTURES])
    def test_fixture_encodes_byte_exact(self, fx):
        h, w = fx["size"]
        mask = np.array([[ch == "1" for ch in row] for row in fx["rows"]])
        assert compress_leb(encode(mask)) == fx["counts_string"]

    @settings(max_examples=200, deadline=None)
    @given(masks_strategy())
    def test_string_roundtrip_property(self, m):
        rle = encode(m)
        assert decompress_leb(compress_leb(rle), *m.shape) == rle

    def test_agrees_with_reference_port(self, rng):
        for _ in range(100):
            m = random_mask(rng, 17, 23, density=rng.random())
            rle = encode(m)
            s = compress_leb(rle)
            assert s == rle_to_string_reference(list(rle.counts))
            assert string_to_rle_reference(s) == list(rle.counts)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3000, 3000) | st.integers(0, 2**20) | st.integers(-2**70, 2**70)
                    | st.integers(), max_size=40))
    @example([2**61, -(2**61), 2**61 + 5, 7, 0, -1, -(2**64)])
    def test_matches_per_character_oracle(self, counts):
        # any ints, not only valid masks: negative, past 2**60, past the memo
        s = compress_leb(SimpleNamespace(counts=counts))
        assert s == compress_leb_naive(counts)
        values = counts[:3] + [c - counts[i] for i, c in enumerate(counts[3:], 1)]
        if min(counts, default=0) >= 0 and all(abs(v) < 2**58 for v in values):
            assert next(leb_counts([s])) == counts

    def test_more_distinct_values_than_the_memo_holds(self):
        cap = 2 * mask_module._LEB_MEMO_SPAN
        values = list(range(-3 * cap, 3 * cap, 3)) + [2**61 + k for k in range(50)]
        counts = values[:3]  # the counts whose written values are ``values``
        for v in values[3:]:
            counts.append(v + counts[-2])
        s = compress_leb(SimpleNamespace(counts=counts))
        assert s == compress_leb_naive(counts)
        assert 0 < len(mask_module._LEB_TEXT) <= cap
        assert compress_leb(SimpleNamespace(counts=counts)) == s

    def test_truncated_string_rejected(self):
        # 81 background pixels need two 5-bit groups; cutting after the
        # first strands its continuation bit
        s = compress_leb(encode(np.zeros((9, 9), dtype=bool)))
        assert len(s) == 2 and ord(s[0]) - 48 & 0x20
        with pytest.raises(MalformedRleError):
            decompress_leb(s[:1], 9, 9)

    def test_character_out_of_range_rejected(self):
        with pytest.raises(MalformedRleError):
            decompress_leb("1!", 2, 1)
        with pytest.raises(MalformedRleError):
            decompress_leb(chr(112), 1, 1)

    def test_runs_off_the_mask_size_keep_the_constructor_message(self):
        # the runs of a 3x3 block at (2, 2) of an 8x8 mask, the last a pixel too long
        s = compress_leb(SimpleNamespace(counts=[18, 3, 5, 3, 5, 3, 28]))
        with pytest.raises(MalformedRleError, match=r"^run lengths sum to 65, expected 64 for a 8x8 mask$"):
            decompress_leb(s, 8, 8)
        with pytest.raises(MalformedRleError, match=r"^invalid mask size 0x5$"):
            decompress_leb("", 0, 5)


LEB_ALPHABET = [chr(c) for c in range(48, 112)]
OUT_OF_RANGE = ["!", "/", "p", "~", "\x00", "\u00e9", "\u20ac", "\ud800"]
# twelve continuation groups and one more group: a value the batch decoder
# rejects and the per-character loop accepts
LONG_VALUE = re.compile("[P-o]{12}[0-o]")

valid_strings = masks_strategy(max_side=16).map(lambda m: compress_leb(encode(m)))
counts_strings = st.one_of(
    valid_strings,
    st.just(""),
    # concatenated valid strings decode as longer (often faulty) streams
    st.lists(valid_strings, min_size=2, max_size=6).map("".join),
    st.text(alphabet=st.sampled_from(LEB_ALPHABET), max_size=40),
    st.text(alphabet=st.sampled_from(LEB_ALPHABET + OUT_OF_RANGE), max_size=40),
).filter(lambda s: not LONG_VALUE.search(s))


def oracle_batch(batch):
    """The per-character decoder's counts up to the first faulty string,
    and that fault as (message, index), or None."""
    counts = []
    for k, s in enumerate(batch):
        try:
            counts.append(decompress_leb_naive(s))
        except MalformedRleError as e:
            return counts, (str(e), k)
    return counts, None


def batch_decode(batch):
    counts = []
    try:
        for c in leb_counts(batch):
            counts.append(c)
    except MalformedRleError as e:
        return counts, (str(e), e.index)
    return counts, None


class TestLebCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(counts_strings, max_size=8), st.integers(min_value=1, max_value=64))
    def test_matches_per_character_oracle(self, batch, chunk):
        # small chunks put chunk boundaries at every position and make
        # most strings longer than a chunk
        with patch.object(mask_module, "_LEB_CHUNK", chunk):
            assert batch_decode(batch) == oracle_batch(batch)

    @settings(max_examples=300, deadline=None)
    @given(counts_strings)
    def test_exact_fallback_is_the_per_character_loop(self, s):
        # valid strings reach _leb_exact only on int64 overflow in a load,
        # so the fallback is checked here on every string directly
        try:
            expected = decompress_leb_naive(s)
        except MalformedRleError as e:
            with pytest.raises(MalformedRleError) as got:
                mask_module._leb_exact(s, 0)
            assert (str(got.value), got.value.index) == (str(e), 0)
        else:
            assert mask_module._leb_exact(s, 0) == expected

    def test_strings_longer_than_a_chunk(self, rng):
        batch = [compress_leb(encode(random_mask(rng, *shape, density)))
                 for shape, density in (((7, 9), 0.5), ((512, 512), 0.02), ((7, 9), 0.3),
                                        ((512, 512), 0.5))]
        assert len(batch[0]) < mask_module._LEB_CHUNK < min(len(batch[1]), len(batch[3]))
        assert batch_decode(batch) == oracle_batch(batch)
        assert batch_decode(batch + ["1!"]) == oracle_batch(batch + ["1!"])

    def test_value_of_more_than_twelve_groups_rejected(self):
        assert next(leb_counts(["P" * 11 + "0"])) == [0]  # twelve groups
        assert decompress_leb_naive("1" + "P" * 12 + "0") == [1, 0]
        with pytest.raises(MalformedRleError, match="position 1 has more than 12 groups") as e:
            list(leb_counts(["1", "1" + "P" * 12 + "0"]))
        assert e.value.index == 1
        # twelve groups cut short by a bad character or the string's end
        # fault as the per-character loop says
        for s in ("P" * 12 + "!", "1" + "P" * 12, "P" * 11 + "!0"):
            assert batch_decode([s]) == oracle_batch([s])

    def test_overflowing_counts_stay_exact(self):
        # each count exceeds the last of its parity by 2**57, so the later
        # ones pass 2**63; they stay exact Python integers
        counts = [1, 2, 3] + [(i // 2) << 57 for i in range(2, 200)]
        s = compress_leb(SimpleNamespace(counts=counts))  # no RleMask: no mask has these runs
        assert max(counts) > 2**63
        assert next(leb_counts([s])) == decompress_leb_naive(s) == counts


class TestPixelSetOps:
    def test_iou_identity(self, rng):
        m = random_mask(rng, 6, 6)
        m[0, 0] = True
        assert iou(m, m) == 1.0

    def test_iou_disjoint(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        assert iou(a, b) == 0.0

    def test_iou_hand_count(self):
        a = np.zeros((2, 2), dtype=bool)
        a[:, 0] = True  # left column
        b = np.zeros((2, 2), dtype=bool)
        b[0, :] = True  # top row
        assert iou(a, b) == pytest.approx(1 / 3)

    def test_iou_both_empty_is_zero(self):
        z = np.zeros((3, 3), dtype=bool)
        assert iou(z, z) == 0.0

    def test_iou_dimension_mismatch(self):
        with pytest.raises(ValueError):
            iou(np.zeros((2, 2), dtype=bool), np.zeros((2, 3), dtype=bool))

    def test_iou_symmetric(self, rng):
        for _ in range(20):
            a = random_mask(rng, 8, 8)
            b = random_mask(rng, 8, 8)
            assert iou(a, b) == iou(b, a)

    def test_iou_one_iff_equal(self, rng):
        for _ in range(20):
            a = random_mask(rng, 8, 8)
            b = random_mask(rng, 8, 8)
            if a.any() or b.any():
                assert (iou(a, b) == 1.0) == np.array_equal(a, b)

    def test_iou_matrix_matches_pairwise(self, rng):
        masks = [random_mask(rng, 7, 7) for _ in range(6)]
        mat = iou_matrix(masks, masks)
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                assert mat[i, j] == pytest.approx(iou(a, b), abs=1e-12)


def random_masks(seed, n, height=64, width=64):
    """n masks with a random fill each, from near-empty to near-full."""
    rng = np.random.default_rng(seed)
    density = rng.random((n, 1, 1))
    return list(rng.random((n, height, width)) < density)


def dense_pairwise_iou(masks) -> np.ndarray:
    """``table_pairwise_iou`` of the table of dense masks' encoded runs."""
    return table_pairwise_iou(MaskTable.from_rles(map(encode, masks)))


class TestIouExactness:
    """IoU entries are exact, so any block of a larger matrix is bit-equal
    to the same pairs computed on their own."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 9), st.integers(0, 9), st.data())
    def test_block_equals_sub_list_matrix(self, seed, n_a, n_b, data):
        a = random_masks((seed, 0), n_a)
        b = random_masks((seed, 1), n_b)
        i = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n_a, max_size=n_a)))
        j = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n_b, max_size=n_b)))
        alone = iou_matrix([a[k] for k in i], [b[k] for k in j])
        assert np.array_equal(iou_matrix(a, b)[np.ix_(i, j)], alone)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 12))
    def test_pairwise_equals_iou_matrix(self, seed, n):
        masks = random_masks(seed, n)
        assert np.array_equal(dense_pairwise_iou(masks), iou_matrix(masks, list(masks)))


@st.composite
def local_masks(draw, shape, max_n=8):
    """Up to max_n masks of one shape, each empty, a filled rectangle or a
    random blob inside a rectangle at a random offset, so boxes are disjoint,
    edge-touching, overlapping or nested."""
    h, w = shape
    out = []
    for _ in range(draw(st.integers(0, max_n))):
        r0 = draw(st.integers(0, h))
        r1 = draw(st.integers(r0, h))
        c0 = draw(st.integers(0, w))
        c1 = draw(st.integers(c0, w))
        m = np.zeros(shape, dtype=bool)
        if draw(st.booleans()):
            m[r0:r1, c0:c1] = True
        else:
            blob = np.random.default_rng(draw(st.integers(0, 2**32)))
            m[r0:r1, c0:c1] = blob.random((r1 - r0, c1 - c0)) < 0.5
        out.append(m)
    return out


class TestSparseIou:
    """The box-pruned kernel against ``iou`` of each pair on its own."""

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 24), st.integers(1, 24)).flatmap(
        lambda shape: st.tuples(local_masks(shape), local_masks(shape))))
    def test_entries_equal_single_pair_iou(self, masks):
        a, b = masks
        mat = iou_matrix(a, b)
        pair = dense_pairwise_iou(a)
        assert mat.shape == (len(a), len(b))
        assert np.array_equal(pair, pair.T)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert mat[i, j] == iou(x, y)
            for j, y in enumerate(a):
                assert pair[i, j] == iou(x, y)

    def test_exact_beyond_float32_counts(self):
        h = w = 4100  # h*w > 2**24: a float32 pixel count would round
        full = np.ones((h, w), dtype=bool)
        holed = full.copy()
        holed[h // 2, w // 2] = False
        want = (h * w - 1) / (h * w)
        assert iou_matrix([full], [holed])[0, 0] == want
        assert dense_pairwise_iou([full, holed])[0, 1] == want

    @pytest.mark.parametrize("other", [(3, 2), (2, 4)])
    def test_shape_mismatch_raises(self, other):
        a, b = np.ones((2, 3), dtype=bool), np.ones(other, dtype=bool)
        with pytest.raises(ValueError, match="dimensions differ"):
            iou_matrix([a], [b])
        with pytest.raises(ValueError, match="dimensions differ"):
            MaskTable.from_rles(map(encode, [a, b]))


def scanned_box(m: np.ndarray):
    """Half-open box of a dense mask by a full scan; (0, 0, 0, 0) if empty."""
    rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
    if not rows.size:
        return (0, 0, 0, 0)
    return (rows[0], rows[-1] + 1, cols[0], cols[-1] + 1)


def edge_cases(h=5, w=7):
    """Empty, one pixel, each border, a run across several columns, full."""
    out = [np.zeros((h, w), dtype=bool)]
    for r, c in ((2, 3), (0, 0), (h - 1, w - 1)):
        m = np.zeros((h, w), dtype=bool)
        m[r, c] = True
        out.append(m)
    for side in (np.s_[0, 1:4], np.s_[h - 1, 2:], np.s_[1:3, 0], np.s_[:, w - 1]):
        m = np.zeros((h, w), dtype=bool)
        m[side] = True
        out.append(m)
    m = np.zeros((h, w), dtype=bool)
    m.T.flat[h - 2:4 * h + 1] = True  # one column-major run over five columns
    out.append(m)
    out.append(np.ones((h, w), dtype=bool))
    return out


class TestMaskTable:
    """The table read from RLE runs against a dense decode and box scan."""

    def check_entries(self, masks):
        table = MaskTable.from_rles(encode(m) for m in masks)
        assert len(table) == len(masks)
        for m, box, area, crop in zip(masks, table.boxes, table.areas, table.crops):
            want = scanned_box(m)
            assert tuple(box) == want
            assert area == np.count_nonzero(m)
            r0, r1, c0, c1 = want
            assert crop.dtype == bool and np.array_equal(crop, m[r0:r1, c0:c1])
        # every crop views its own slice of one buffer of the total box area:
        # the crops hold their boxes' pixels only
        if masks:
            buffer = table.crops[0].base
            sides = table.boxes[:, 1::2] - table.boxes[:, 0::2]
            assert all(crop.base is buffer for crop in table.crops)
            assert buffer.size == int(sides.prod(axis=1).sum())
            for i, a in enumerate(table.crops):
                assert not any(np.shares_memory(a, b) for b in table.crops[i + 1:])

    def test_edge_cases(self):
        self.check_entries(edge_cases())

    def test_build_memory_is_the_table(self):
        # 30 large disks in a 2048x2048 image: the build allocates little
        # besides the table itself, nothing per box pixel but the buffer
        h = w = 2048
        rng = np.random.default_rng(5)
        rles = []
        for _ in range(30):
            r = int(rng.integers(150, 400))
            yy, xx = np.ogrid[-r:r + 1, -r:r + 1]
            r0, c0 = (int(v) for v in rng.integers(0, h - 2 * r - 1, size=2))
            rles.append(encode_box(yy * yy + xx * xx <= r * r, r0, c0, h, w))
        tracemalloc.start()
        try:
            table = MaskTable.from_rles(rles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = table.crops[0].base.nbytes + table.boxes.nbytes + table.areas.nbytes
        assert own > 30 * 300 * 300
        assert peak < 4 * own

    @pytest.mark.parametrize("counts, box", [
        ((1, 2, 0, 3, 3), (0, 3, 0, 2)),  # zero-length background between two runs
        ((0, 4, 5, 0), (0, 3, 0, 2)),  # zero-length last foreground run
        ((9,), (0, 0, 0, 0)),
    ])
    def test_zero_length_runs(self, counts, box):
        rle = RleMask(3, 3, counts)
        table = MaskTable.from_rles([rle])
        assert tuple(table.boxes[0]) == box == scanned_box(decode(rle))
        r0, r1, c0, c1 = box
        assert np.array_equal(table.crops[0], decode(rle)[r0:r1, c0:c1])

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 24), st.integers(1, 24)).flatmap(
        lambda shape: local_masks(shape, max_n=4) | st.lists(
            arrays(dtype=bool, shape=shape, elements=st.booleans()), max_size=3)))
    def test_entries_equal_dense_scan(self, masks):
        self.check_entries(masks)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(st.integers(1, 24), st.integers(1, 24)).flatmap(
        lambda shape: st.tuples(local_masks(shape), local_masks(shape))))
    def test_iou_equals_decoded_pair_iou(self, masks):
        a, b = masks
        ta = MaskTable.from_rles(encode(m) for m in a)
        tb = MaskTable.from_rles(encode(m) for m in b)
        mat, pair = table_iou(ta, tb), table_pairwise_iou(ta)
        assert mat.shape == (len(a), len(b)) and pair.shape == (len(a), len(a))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert mat[i, j] == iou(x, y)
            for j, y in enumerate(a):
                assert pair[i, j] == iou(x, y)

    def test_edge_case_ious_and_subtables(self):
        masks = edge_cases()
        table = MaskTable.from_rles(encode(m) for m in masks)
        want = np.array([[iou(x, y) for y in masks] for x in masks])
        assert np.array_equal(table_pairwise_iou(table), want)
        idx = np.array([9, 0, 4, 8])
        assert np.array_equal(table_iou(table.take(idx), table), want[idx])

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            MaskTable.from_rles([RleMask(2, 3, (6,)), RleMask(3, 2, (6,))])
        a = MaskTable.from_rles([RleMask(2, 3, (6,))])
        b = MaskTable.from_rles([RleMask(3, 2, (6,))])
        with pytest.raises(ValueError, match="dimensions differ"):
            table_iou(a, b)
        assert table_iou(a, MaskTable.from_rles([])).shape == (1, 0)


class TestRasterizePolygon:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            rasterize_polygon([(0, 0), (1, 1)], 4, 4)

    def test_axis_aligned_square(self):
        # covers pixel centers (1.5..3.5) x (1.5..3.5) -> cols/rows 1..3
        m = rasterize_polygon([(1, 1), (4, 1), (4, 4), (1, 4)], 6, 6)
        expected = np.zeros((6, 6), dtype=bool)
        expected[1:4, 1:4] = True
        assert np.array_equal(m, expected)

    def test_triangle_half_plane(self):
        # right triangle over the full 4x4 frame: below the main diagonal
        m = rasterize_polygon([(0, 0), (4, 4), (0, 4)], 4, 4)
        # pixel center (c+0.5, r+0.5) inside iff y > x, i.e. r > c
        expected = np.fromfunction(lambda r, c: r > c, (4, 4))
        assert np.array_equal(m, expected)

    def test_even_odd_ring(self):
        # outer square plus inner square traversed as one ring: even-odd
        # leaves the middle empty and keeps the frame between the rings
        outer = [(0, 0), (8, 0), (8, 8), (0, 8)]
        inner = [(2, 2), (2, 6), (6, 6), (6, 2)]
        m = rasterize_polygon(outer + [(0, 0)] + inner, 8, 8)
        assert m[7, 0] and m[7, 7] and m[3, 0] and m[3, 6]
        assert not m[4, 4] and not m[3, 3]

    def test_skips_rows_outside_the_polygon(self):
        # a thin band: only its own rows are filled, and the result is the
        # full-height scan's
        poly = [(10.2, 30.4), (50.7, 30.4), (50.7, 33.9), (10.2, 33.9)]
        m = rasterize_polygon(poly, 64, 64)
        assert np.flatnonzero(m.any(axis=1)).tolist() == [30, 31, 32, 33]
        assert np.array_equal(m, rasterize_polygon_naive(poly, 64, 64))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24),
           st.lists(st.tuples(st.sampled_from([-7.0, -0.5, 0.0, 2.5, 3.0, 11.25, 30.0]) | st.floats(-8, 32),
                              st.sampled_from([-7.0, -0.5, 0.0, 2.5, 3.0, 11.25, 30.0]) | st.floats(-8, 32)),
                    min_size=3, max_size=9))
    def test_matches_full_height_scan(self, h, w, verts):
        # vertices outside the image, and repeated y values that make
        # horizontal edges, are drawn often
        assert np.array_equal(rasterize_polygon(verts, h, w), rasterize_polygon_naive(verts, h, w))

    @pytest.mark.parametrize("ys", [(np.nan, 2.0, 5.0), (np.nan, np.nan, np.nan),
                                    (-np.inf, 2.0, 5.0), (1.0, 2.0, np.inf)])
    def test_non_finite_ys_match_full_height_scan(self, ys):
        verts = list(zip((1.0, 6.0, 3.0), ys))
        with np.errstate(invalid="ignore"):
            try:
                want = rasterize_polygon_naive(verts, 8, 8)
            except ValueError as e:
                with pytest.raises(type(e)):
                    rasterize_polygon(verts, 8, 8)
            else:
                assert np.array_equal(rasterize_polygon(verts, 8, 8), want)
