"""Geometry tests: rasterization, IoU, soft masks, KL.

Expected values for the fixed cases were derived with the loop oracles in
oracles.py and frozen here before the vectorized implementations existed.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge import geometry
from cotforge.errors import ValidationError
from cotforge.geometry import (
    BBox,
    ChunkedRuns,
    box_intersections,
    box_span,
    build_soft_mask,
    encode_runs,
    kl_rows,
    mask_iou,
)
from cotforge.forge import ImageRecord
from cotforge.jsonl import read_masks, rle_decode
from oracles import (
    SoftMask,
    oracle_average_pool,
    oracle_box_pixels,
    oracle_box_span,
    oracle_build_soft_mask,
    oracle_iou,
    oracle_kl,
    oracle_kl_divergence,
    rasterize_box,
)


def random_box(rng, min_side=0.05):
    x1 = rng.uniform(0.0, 1.0 - min_side)
    y1 = rng.uniform(0.0, 1.0 - min_side)
    x2 = rng.uniform(x1 + min_side, 1.0)
    y2 = rng.uniform(y1 + min_side, 1.0)
    return BBox(x1, y1, x2, y2)


def edge_case_boxes(rng):
    """(box, height, width) cases at the edges of the pixel-center rule.

    Boxes that fall between pixel centers (so cover none), boxes touching
    x2 = 1.0 or y2 = 1.0, edges exactly on pixel centers, and 1xN / Nx1
    rasters.
    """
    cases = []
    for _ in range(12):
        h = int(rng.integers(1, 24))
        w = int(rng.integers(1, 24))
        r = int(rng.integers(0, h))
        c = int(rng.integers(0, w))
        # strictly between two neighbouring centers, on one axis or both
        gap_x = ((c + 0.55) / w, (c + 0.95) / w)
        gap_y = ((r + 0.55) / h, (r + 0.95) / h)
        cases.append((BBox(gap_x[0], gap_y[0], gap_x[1], gap_y[1]), h, w))
        cases.append((BBox(gap_x[0], 0.0, gap_x[1], 1.0), h, w))
        cases.append((BBox(0.0, gap_y[0], 1.0, gap_y[1]), h, w))
        # touching the right or bottom edge
        x1, y1 = rng.uniform(0.0, 0.95, size=2)
        cases.append((BBox(x1, y1, 1.0, rng.uniform(y1 + 0.01, 1.0)), h, w))
        cases.append((BBox(x1, y1, rng.uniform(x1 + 0.01, 1.0), 1.0), h, w))
        cases.append((BBox(x1, y1, 1.0, 1.0), h, w))
        # edges exactly on pixel centers
        cases.append((BBox((c + 0.5) / w, (r + 0.5) / h, 1.0, 1.0), h, w))
        cases.append((BBox(0.0, 0.0, (c + 0.5) / w, (r + 0.5) / h), h, w))
    for n in (1, 2, 7, 30):
        for _ in range(3):
            cases.append((random_box(rng, min_side=0.01), 1, n))
            cases.append((random_box(rng, min_side=0.01), n, 1))
    return cases


EDGE_CASES = edge_case_boxes(np.random.default_rng(31))


class TestBBox:
    def test_valid_box_roundtrip(self):
        b = BBox(0.1, 0.2, 0.5, 0.9)
        assert (b.x1, b.y1, b.x2, b.y2) == (0.1, 0.2, 0.5, 0.9)

    @pytest.mark.parametrize(
        "coords",
        [
            (0.5, 0.1, 0.5, 0.9),  # zero width
            (0.6, 0.1, 0.5, 0.9),  # inverted x
            (0.1, 0.9, 0.5, 0.2),  # inverted y
            (-0.1, 0.1, 0.5, 0.9),  # out of range
            (0.1, 0.1, 1.5, 0.9),
        ],
    )
    def test_degenerate_rejected(self, coords):
        with pytest.raises(ValidationError):
            BBox(*coords)


class TestRasterize:
    def test_left_half_on_64(self):
        box = BBox(0.0, 0.0, 0.5, 1.0)
        raster = rasterize_box(box, 64, 64)
        assert raster.shape == (64, 64)
        assert raster[:, :32].all()
        assert not raster[:, 32:].any()

    def test_matches_oracle_pixel_sets(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            h = int(rng.integers(4, 40))
            w = int(rng.integers(4, 40))
            box = random_box(rng, min_side=0.1)
            raster = rasterize_box(box, h, w)
            expected = oracle_box_pixels(box, h, w)
            got = {(r, c) for r, c in zip(*np.nonzero(raster))}
            assert got == expected


    def test_edge_cases_match_oracle_pixel_sets(self):
        assert any(not oracle_box_pixels(*case) for case in EDGE_CASES)
        for box, h, w in EDGE_CASES:
            expected = oracle_box_pixels(box, h, w)
            raster = rasterize_box(box, h, w)
            assert raster.dtype == bool and raster.shape == (h, w)
            assert {(r, c) for r, c in zip(*np.nonzero(raster))} == expected
            r0, r1, c0, c1 = box_span(box, h, w)
            if expected:
                rows = {r for r, _ in expected}
                cols = {c for _, c in expected}
                assert (r0, r1, c0, c1) == (min(rows), max(rows) + 1,
                                            min(cols), max(cols) + 1)
                assert len(expected) == (r1 - r0) * (c1 - c0)
            else:
                assert (r0, r1, c0, c1) == (0, 0, 0, 0)


class TestBoxSpan:
    """The scalar box_span equals the pixel-center comparison, with ==."""

    SIDES = (1, 2, 3, 7, 64, 512, 8192)

    def test_matches_oracle_on_random_boxes(self):
        rng = np.random.default_rng(17)
        sides = rng.choice(self.SIDES, size=(20000, 2))
        sides[::3] = rng.integers(1, 600, size=sides[::3].shape)
        for h, w in sides.tolist():
            box = random_box(rng, min_side=float(rng.choice([1e-6, 0.01, 0.2])))
            assert box_span(box, h, w) == oracle_box_span(box, h, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 8192])
    def test_half_pixel_edges(self, n):
        # edges at k / (2n): every pixel center and every pixel edge
        rng = np.random.default_rng(n)
        if n <= 8:
            ks = [(k1, k2) for k1 in range(2 * n + 1) for k2 in range(k1 + 1, 2 * n + 1)]
        else:
            ks = [tuple(sorted(rng.choice(2 * n + 1, size=2, replace=False).tolist()))
                  for _ in range(300)]
        for k1, k2 in ks:
            lo, hi = k1 / (2 * n), k2 / (2 * n)
            for box, h, w in ((BBox(lo, 0.0, hi, 1.0), 5, n), (BBox(0.0, lo, 1.0, hi), n, 5),
                              (BBox(lo, lo, hi, hi), n, n)):
                assert box_span(box, h, w) == oracle_box_span(box, h, w)

    @pytest.mark.parametrize("h,w", [(1, 1), (2, 2), (8192, 8192), (1, 8192),
                                     (8192, 1), (1, 37), (37, 1)])
    def test_extreme_sides(self, h, w):
        rng = np.random.default_rng(h * 31 + w)
        boxes = [random_box(rng, min_side=1e-4) for _ in range(200)]
        boxes += [BBox(0.0, 0.0, 1.0, 1.0), BBox(0.5, 0.5, 1.0, 1.0),
                  BBox(0.0, 0.0, 1e-12, 1e-12), BBox(1.0 - 1e-12, 1.0 - 1e-12, 1.0, 1.0)]
        for box in boxes:
            assert box_span(box, h, w) == oracle_box_span(box, h, w)

    def test_edge_cases_match_oracle(self):
        for box, h, w in EDGE_CASES:
            assert box_span(box, h, w) == oracle_box_span(box, h, w)

    def test_non_positive_dims_rejected(self):
        with pytest.raises(ValidationError):
            box_span(BBox(0, 0, 1, 1), 0, 4)


def dense_intersections(spans, masks):
    """Each span's counts against each mask, span by span, as one int64 array."""
    return np.array([int(np.count_nonzero(m[r0:r1, c0:c1]))
                     for r0, r1, c0, c1 in spans for m in masks], dtype=np.int64)


def random_spans(rng, h, w, n):
    spans = []
    for _ in range(n):
        r0, r1 = sorted(rng.choice(h + 1, size=2, replace=False).tolist())
        c0, c1 = sorted(rng.choice(w + 1, size=2, replace=False).tolist())
        spans.append((r0, r1, c0, c1))
    return spans


def random_images(rng):
    """(spans, masks_runs, height, width) of 1-6 images of mixed dims, with
    0-4 masks and 0-3 spans each, and the dense counts of them all."""
    images, dense = [], []
    for _ in range(int(rng.integers(1, 7))):
        h, w = (int(v) for v in rng.integers(1, 25, size=2))
        masks = [rng.random((h, w)) < rng.uniform(0.0, 1.0)
                 for _ in range(int(rng.integers(0, 5)))]
        spans = random_spans(rng, h, w, int(rng.integers(0, 4)))
        images.append((spans, [encode_runs(m) for m in masks], h, w))
        dense.append(dense_intersections(spans, masks))
    return images, np.concatenate(dense)


class TestBoxIntersections:
    """Counts read from the runs equal counts over the decoded pixels."""

    def test_matches_dense_counts(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            h, w = (int(v) for v in rng.integers(1, 30, size=2))
            masks = [rng.random((h, w)) < rng.uniform(0.0, 1.0)
                     for _ in range(int(rng.integers(1, 6)))]
            spans = random_spans(rng, h, w, int(rng.integers(1, 6)))
            spans += [(0, h, 0, w), (h - 1, h, w - 1, w), (0, 1, 0, 1)]
            runs = [encode_runs(m) for m in masks]
            got = box_intersections([(spans, runs, h, w)])
            assert got.dtype == np.int64
            assert np.array_equal(got, dense_intersections(spans, masks))

    def test_odd_and_even_run_counts_in_one_image(self):
        full = np.ones((4, 6), dtype=bool)  # runs [0, 24]: even
        empty = np.zeros((4, 6), dtype=bool)  # runs [24]: odd
        inner = np.zeros((4, 6), dtype=bool)
        inner[1:3, 2:5] = True  # odd
        corner = np.zeros((4, 6), dtype=bool)
        corner[3, 5] = True  # ends on the last pixel: even
        masks = [empty, full, inner, empty, corner, full, inner]
        assert [len(encode_runs(m)) % 2 for m in masks] == [1, 0, 1, 1, 0, 0, 1]
        spans = [(0, 4, 0, 6), (1, 3, 2, 5), (3, 4, 5, 6), (0, 2, 0, 3)]
        got = box_intersections([(spans, [encode_runs(m) for m in masks], 4, 6)])
        assert np.array_equal(got, dense_intersections(spans, masks))

    def test_no_spans(self):
        runs = [encode_runs(np.ones((3, 3), dtype=bool))] * 2
        got = box_intersections([([], runs, 3, 3)])
        assert got.shape == (0,) and got.dtype == np.int64
        assert box_intersections([]).shape == (0,)

    def test_images_of_mixed_dims_in_one_pass(self):
        # each span's counts against its own image's masks, image by image
        rng = np.random.default_rng(31)
        for _ in range(30):
            images, expected = random_images(rng)
            got = box_intersections(images)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)


@pytest.fixture
def chunks_seen(monkeypatch):
    """The item costs and (start, stop) chunks of each call to
    `geometry._chunks`."""
    seen = []
    split = geometry._chunks

    def spy(costs):
        seen.append((costs, list(split(costs))))
        return iter(seen[-1][1])

    monkeypatch.setattr(geometry, "_chunks", spy)
    return seen


class TestChunkEdges:
    """The forge's passes split their inputs into chunks themselves and give
    the one-pass result at any budget: one item a chunk, a budget that
    splits the input mid-way, and the default."""

    def test_a_chunk_is_one_item_or_within_the_budget(self, chunk_budget):
        chunk_budget(6)
        assert list(geometry._chunks([3, 3, 1, 5, 9, 0, 6])) == [
            (0, 2), (2, 4), (4, 5), (5, 7)]
        assert list(geometry._chunks([])) == []

    def test_chunked_runs_pack_a_line_or_lines_within_the_budget(self, chunk_budget):
        chunk_budget(6)
        runs = ChunkedRuns()
        lines = [[1, 2, 3], [4, 5, 6], [7], [1] * 9, [], [2, 2], [3]]
        for line in lines:
            runs.add(line, sum(line))
        runs.flush()
        assert [array.tolist() for array in runs.arrays] == lines and not runs.faults
        assert runs.areas == [sum(line[1::2]) for line in lines]
        assert all(array.dtype == np.int64 for array in runs.arrays)
        # the lines of a chunk are views of one buffer
        bases = [id(array.base) for array in runs.arrays]
        chunks = [[k for k, base in enumerate(bases) if base == chunk]
                  for chunk in dict.fromkeys(bases)]
        assert chunks == [[0, 1], [2], [3], [4, 5, 6]]

    def assert_split(self, chunks_seen, budget):
        for costs, chunks in chunks_seen:
            assert [k for start, stop in chunks for k in range(start, stop)] == list(
                range(len(costs)))
            for start, stop in chunks:
                held = [cost for cost in costs[start:stop] if cost]
                assert len(held) <= 1 or sum(held) <= geometry.FORGE_CHUNK
                if budget == 1:  # an item that costs nothing may join one
                    assert len(held) <= 1
        if budget is None:
            assert all(len(chunks) == 1 for _, chunks in chunks_seen)
        elif budget > 1:  # chunk edges fall mid-input, and a chunk holds several items
            assert max(len(chunks) for _, chunks in chunks_seen) > 1
            assert max(stop - start for _, chunks in chunks_seen
                       for start, stop in chunks) > 1

    @pytest.mark.parametrize("budget", [1, 200, None])
    def test_box_intersections_equal_the_dense_counts(self, chunk_budget, chunks_seen,
                                                      budget):
        if budget is not None:
            chunk_budget(budget)
        rng = np.random.default_rng(41)
        for _ in range(30):
            images, expected = random_images(rng)
            assert np.array_equal(box_intersections(images), expected)
        self.assert_split(chunks_seen, budget)

    @pytest.mark.parametrize("budget", [1, 40, None])
    def test_chunked_runs_check_as_the_per_mask_reference(self, chunk_budget, budget):
        if budget is not None:
            chunk_budget(budget)
        rng = np.random.default_rng(43)
        buffers_seen = []  # per input, the good lines' count per buffer
        for _ in range(30):
            masks_runs, totals = [], []
            for _ in range(int(rng.integers(1, 12))):
                h, w = (int(v) for v in rng.integers(1, 12, size=2))
                runs = encode_runs(rng.random((h, w)) < rng.uniform(0.0, 1.0))
                if rng.random() < 0.2:
                    runs = runs[:-1]  # short: a fault
                masks_runs.append(runs)
                totals.append(h * w)
            runs = checked_runs(masks_runs, totals)
            assert outcomes(runs) == [reference_check(r, t)
                                      for r, t in zip(masks_runs, totals)]
            bases = [id(array.base) for array in runs.arrays if array is not None]
            buffers_seen.append([bases.count(base) for base in set(bases)])
        if budget == 1:  # a good line holds runs, so it has a buffer of its own
            assert all(count == 1 for counts in buffers_seen for count in counts)
        elif budget is None:
            assert all(len(counts) <= 1 for counts in buffers_seen)
        else:  # chunk edges fall mid-input, and a chunk holds several lines
            assert max(len(counts) for counts in buffers_seen) > 1
            assert max(count for counts in buffers_seen for count in counts) > 1


def reference_check(runs, total):
    """One run array's area, or the message of its first fault, in Python
    integers."""
    values = runs.tolist()
    if min(values, default=0) < 0:
        return "RLE runs must be non-negative integers"
    if sum(values) != total:
        return f"RLE runs sum to {sum(values)}, expected {total}"
    return sum(values[1::2])


def reference_line(line, total):
    """`reference_check` of a run list made an array by `runs_array`, or
    the message of the array's fault."""
    try:
        return reference_check(geometry.runs_array(line), total)
    except ValidationError as exc:
        return str(exc)


def outcomes(runs):
    """Each line's area, or its fault's message, from a flushed ChunkedRuns."""
    assert len(runs.arrays) == len(runs.areas)
    return [runs.faults.get(k, area) for k, area in enumerate(runs.areas)]


def checked_runs(masks_runs, totals, convert=geometry.runs_array):
    """A flushed ChunkedRuns of run arrays, each added as OrganMask adds one."""
    runs = ChunkedRuns()
    for mask_runs, total in zip(masks_runs, totals):
        runs.add(convert(mask_runs), total)
    runs.flush()
    return runs


class TestChunkedRunsCheck:
    """One pass over a chunk gives each array's own outcome."""

    def outcomes(self, masks_runs, totals):
        return outcomes(checked_runs(masks_runs, totals))

    def test_random_chunks_of_mixed_dtypes(self):
        rng = np.random.default_rng(37)
        dtypes = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                  np.uint32, np.uint64]
        for _ in range(60):
            masks_runs, totals = [], []
            for _ in range(int(rng.integers(1, 9))):
                h, w = (int(v) for v in rng.integers(1, 12, size=2))
                runs = encode_runs(rng.random((h, w)) < rng.uniform(0.0, 1.0))
                fault = int(rng.integers(4))
                if fault == 1:
                    runs = runs[:-1]  # short: odd or even count, maybe empty
                elif fault == 2:
                    runs = np.append(runs, 1)
                elif fault == 3 and len(runs) > 1:
                    runs = runs.copy()
                    runs[-1] -= h * w + 1  # negative
                dtype = dtypes[int(rng.integers(len(dtypes)))]
                if runs.min(initial=0) >= 0 and runs.max(initial=0) <= np.iinfo(dtype).max:
                    runs = runs.astype(dtype)
                masks_runs.append(runs)
                totals.append(h * w)
            assert self.outcomes(masks_runs, totals) == [
                reference_check(r, t) for r, t in zip(masks_runs, totals)]

    def test_runs_beyond_the_exact_int64_sum(self):
        # every total is the pixel count of two image sides, at most 8192**2
        big, most = 2**62, 8192 * 8192
        cases = [
            (np.array([2**63], dtype=np.uint64), 8),  # past int64: struct refuses it
            (np.array([2**64 - 1, 1], dtype=np.uint64), most),
            (np.array([big, big, big, big]), most),  # the int64 sum wraps to 0
            (np.array([big - 1, 2, 0, big - 1]), most),  # ... and to -2**63
            (np.array([2**63 - 1, 2**63 - 1]), most),  # ... and to -2
            (np.array([big, big, big, big + 8]), 8),  # ... and to the total itself
            (np.array([0, most]), most),
            (np.array([3, 5]), 8),
        ]
        masks_runs, totals = zip(*cases)
        got = self.outcomes(list(masks_runs), list(totals))
        assert got == [reference_check(r, t) for r, t in cases]
        assert got[-2:] == [most, 5] and all(type(g) is str for g in got[:-2])
        assert got[0] == f"RLE runs sum to {2**63}, expected 8"

    def test_an_empty_chunk_element_and_single_runs(self):
        got = self.outcomes([np.array([], dtype=np.int64), np.array([8]), np.array([0, 8]),
                             np.array([8, 0])], [8, 8, 8, 8])
        assert got == ["RLE runs sum to 0, expected 8", 0, 8, 0]


# a run that is no int64, or no int at all
ODD_RUNS = st.one_of(
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1]),
    st.floats(), st.text(max_size=2), st.none(), st.lists(st.integers(0, 9), max_size=2))


@st.composite
def run_lines(draw, total):
    """A JSON-like run list for a mask of `total` pixels, good or faulty."""
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=6)))
    line = [stop - start for start, stop in zip([0, *cuts], [*cuts, total])]
    kind = draw(st.sampled_from(
        ["good", "good", "sum", "wrap", "negative", "empty", "nested", "odd", "uint64"]))
    at = draw(st.integers(0, len(line) - 1))
    if kind == "sum":
        line[at] += draw(st.sampled_from([-1, 1]))
    elif kind == "wrap":  # the int64 sum wraps to the total
        line[at:at] = [2**62] * 4
    elif kind == "negative":
        line[at] = -draw(st.integers(1, 3))
    elif kind == "empty":
        line = []
    elif kind == "nested":
        line = [[run] for run in line]
    elif kind == "odd":
        line.insert(at, draw(ODD_RUNS))
    elif kind == "uint64":  # only runs past int64 make a uint64 array
        line = draw(st.lists(st.integers(2**63, 2**64 - 1), min_size=1, max_size=3))
    return line


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chunked_runs_check_each_line_as_alone(data):
    budget = data.draw(st.one_of(st.none(), st.integers(1, 30)), label="budget")
    totals = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=12), label="totals")
    lines = [data.draw(run_lines(total)) for total in totals]
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(geometry, "FORGE_CHUNK", budget)
        runs = checked_runs(lines, totals, convert=list)
        alone = [outcomes(checked_runs([line], [total], convert=list))[0]
                 for line, total in zip(lines, totals)]
    expected = [reference_line(line, total) for line, total in zip(lines, totals)]
    assert outcomes(runs) == alone == expected
    for array, line, outcome in zip(runs.arrays, lines, expected):
        assert (array is None) == (type(outcome) is str)
        if array is not None:  # a good line's array is read-only for good
            assert array.dtype == np.int64 and array.tolist() == line
            with pytest.raises(ValueError):
                array.flags.writeable = True


@pytest.mark.parametrize("bad", [None, [2.0, 6]], ids=["good", "fallback"])
def test_read_masks_joins_no_arrays(tmp_path, monkeypatch, chunk_budget, bad):
    # the runs are checked in the buffer each chunk is packed into
    joins = []
    concatenate = np.concatenate
    monkeypatch.setattr(np, "concatenate",
                        lambda *args, **kwargs: joins.append(args) or concatenate(*args, **kwargs))
    chunk_budget(7)
    lines = [[2, 3, 3], [0, 8], [1, 1, 1, 1, 1, 1, 1, 1], [2, 6]] * 4
    if bad is not None:
        lines[9] = bad
    path = tmp_path / "masks.jsonl"
    path.write_text("".join(
        f'{{"image_id": "a", "organ_label": "o{k}", "height": 2, "width": 4, '
        f'"rle": {line}}}\n' for k, line in enumerate(lines)), encoding="utf-8")
    images = {"a": ImageRecord("a", 4, 2, "CT", [])}
    if bad is None:
        masks = read_masks(path, images)["a"]
        assert [mask.runs.tolist() for mask in masks] == lines
    else:
        with pytest.raises(ValidationError,
                           match="line 10: RLE runs must be non-negative integers$"):
            read_masks(path, images)
    assert joins == []


class TestRuns:
    def test_encode_then_expand_roundtrips(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            h, w = (int(v) for v in rng.integers(1, 20, size=2))
            m = rng.random((h, w)) < rng.uniform(0.0, 1.0)
            runs = encode_runs(m)
            assert runs.dtype == np.int64 and runs.sum() == h * w
            assert (runs[1:] > 0).all()  # only the first run may be 0
            expanded = rle_decode(runs, h, w)
            assert expanded.dtype == bool and np.array_equal(expanded, m)


class TestMaskIou:
    def test_left_half_box_full_mask(self):
        # 64x64, mask = all pixels, box = left half -> exactly 0.5
        box = BBox(0.0, 0.0, 0.5, 1.0)
        mask = np.ones((64, 64), dtype=bool)
        assert mask_iou(box, mask) == 0.5

    def test_exact_cover_is_one(self):
        box = BBox(0.25, 0.25, 0.75, 0.75)
        mask = rasterize_box(box, 32, 32)
        assert mask_iou(box, mask) == 1.0

    def test_disjoint_is_zero(self):
        box = BBox(0.0, 0.0, 0.4, 0.4)
        mask = np.zeros((20, 20), dtype=bool)
        mask[15:, 15:] = True
        assert mask_iou(box, mask) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            h = int(rng.integers(8, 48))
            w = int(rng.integers(8, 48))
            box = random_box(rng, min_side=0.1)
            mask = rng.random((h, w)) < 0.4
            if not mask.any():
                mask[0, 0] = True
            assert mask_iou(box, mask) == oracle_iou(box, mask)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, float])
    def test_edge_cases_match_loop_oracle(self, dtype):
        rng = np.random.default_rng(13)
        for box, h, w in EDGE_CASES:
            for density in (0.0, 0.3, 1.0):
                mask = (rng.random((h, w)) < density).astype(dtype)
                expected = oracle_iou(box, mask.tolist())
                assert mask_iou(box, mask) == expected
                area = int(np.count_nonzero(mask))
                assert mask_iou(box, mask, area) == expected

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            mask_iou(BBox(0, 0, 1, 1), np.ones((4,), dtype=bool))


def soft_mask(box, image_dims, grid_dims, sigma, floor):
    """One box's soft mask, from a stacked build of one."""
    masks = build_soft_mask([box], image_dims, grid_dims, sigma=sigma, floor=floor)
    assert masks.shape == (1,) + tuple(grid_dims)
    return masks[0]


class TestBuildSoftMask:
    def test_quarter_box_on_2x2_grid(self):
        # 8x8 image, 4x4 box in the top-left, sigma 0, grid 2x2:
        # all mass lands in cell (0, 0) before the floor is applied
        box = BBox(0.0, 0.0, 0.5, 0.5)
        floor = 1e-6
        grid = soft_mask(box, (8, 8), (2, 2), sigma=0.0, floor=floor)
        expected_hot = (1.0 + floor) / (1.0 + 4 * floor)
        expected_cold = floor / (1.0 + 4 * floor)
        assert grid[0, 0] == pytest.approx(expected_hot, abs=1e-15)
        assert grid[0, 1] == pytest.approx(expected_cold, abs=1e-15)
        assert grid[1, 0] == pytest.approx(expected_cold, abs=1e-15)
        assert grid[1, 1] == pytest.approx(expected_cold, abs=1e-15)

    def test_full_image_box_is_uniform(self):
        grid = soft_mask(BBox(0, 0, 1, 1), (32, 32), (4, 4), sigma=0.0, floor=1e-6)
        assert np.allclose(grid, 1.0 / 16.0, atol=1e-12)
        grid = soft_mask(BBox(0, 0, 1, 1), (32, 32), (4, 4), sigma=3.0, floor=1e-6)
        assert np.allclose(grid, 1.0 / 16.0, atol=1e-12)

    def test_sigma_zero_grid_equals_image_dims(self):
        # identity pooling: the floored, normalized binary box mask
        box = BBox(0.25, 0.25, 0.75, 0.75)
        floor = 1e-4
        grid = soft_mask(box, (8, 8), (8, 8), sigma=0.0, floor=floor)
        raster = rasterize_box(box, 8, 8).astype(float)
        ref = raster / raster.sum() + floor
        ref /= ref.sum()
        assert np.allclose(grid, ref, atol=1e-15)

    def test_matches_reference_average_pool(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            box = random_box(rng, min_side=0.2)
            h, w = 24, 20
            gh, gw = 6, 5
            floor = 1e-6
            grid = soft_mask(box, (h, w), (gh, gw), sigma=0.0, floor=floor)
            raster = rasterize_box(box, h, w).astype(float)
            pooled = np.array(oracle_average_pool(raster.tolist(), gh, gw))
            ref = pooled / pooled.sum() + floor
            ref /= ref.sum()
            assert np.allclose(grid, ref, atol=1e-14)

    def test_translation_equivariance_cell_aligned(self):
        # sigma 0, shifting the box by exactly one grid-cell stride shifts
        # the soft mask by one cell
        base = BBox(0.0, 0.25, 0.25, 0.5)
        shifted = BBox(0.25, 0.25, 0.5, 0.5)
        a, b = build_soft_mask([base, shifted], (64, 64), (4, 4), sigma=0.0, floor=1e-6)
        assert np.allclose(np.roll(a, 1, axis=1), b, atol=1e-15)

    @given(
        x1=st.floats(0.0, 0.7),
        y1=st.floats(0.0, 0.7),
        wfrac=st.floats(0.2, 0.3),
        sigma=st.floats(0.0, 4.0),
        floor=st.floats(1e-8, 1e-3),
    )
    @settings(max_examples=60, deadline=None)
    def test_distribution_invariants(self, x1, y1, wfrac, sigma, floor):
        box = BBox(x1, y1, min(1.0, x1 + wfrac), min(1.0, y1 + wfrac))
        grid = soft_mask(box, (32, 32), (4, 4), sigma=sigma, floor=floor)
        assert abs(grid.sum() - 1.0) <= 1e-9
        lower = floor / (1.0 + 16 * floor)
        assert grid.min() >= lower - 1e-15

    def test_degenerate_raster_rejected(self):
        # with the same error as the full-raster oracle build, also when
        # the degenerate box comes after good ones in the stack
        box = BBox(10 / 64, 10 / 64, 10.4 / 64, 10.4 / 64)
        good = BBox(0.1, 0.1, 0.5, 0.5)
        for sigma in (0.0, 2.0):
            with pytest.raises(ValidationError) as want:
                oracle_build_soft_mask(box, (64, 64), (4, 4), sigma=sigma, floor=1e-6)
            for boxes in ([box], [good, good, box]):
                with pytest.raises(ValidationError) as got:
                    build_soft_mask(boxes, (64, 64), (4, 4), sigma=sigma, floor=1e-6)
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("grid_dims", [(9, 2), (2, 9)])
    def test_grid_dims_outside_one_to_the_image_dims_rejected(self, grid_dims):
        with pytest.raises(ValidationError, match=r"must be in \[1, image dims\]$"):
            build_soft_mask([BBox(0.0, 0.0, 0.5, 0.5)], (8, 8), grid_dims,
                            sigma=0.0, floor=1e-6)

    @pytest.mark.parametrize("grid_dims, fault", [
        ((0, 2), "grid_dims[0]' must be at least 1, got 0"),
        ((2, 0), "grid_dims[1]' must be at least 1, got 0"),
        ((2.0, 2.0), "grid_dims[0]' must be an integer, got a number"),
        ((True, 2), "grid_dims[0]' must be an integer, got true or false"),
        ((65, 64), "grid_dims' must have at most 4096 cells, got [65, 64]"),
    ], ids=["zero-rows", "zero-cols", "floats", "bool", "cells"])
    def test_grid_dims_follow_the_grid_rule(self, grid_dims, fault):
        # a float or a bool side once ended in numpy's TypeError
        with pytest.raises(ValidationError) as info:
            build_soft_mask([BBox(0.1, 0.1, 0.5, 0.5)], (128, 128), grid_dims)
        assert str(info.value) == f"field '{fault}"

    def test_floor_range_validated(self):
        box = BBox(0.0, 0.0, 0.5, 0.5)
        with pytest.raises(ValidationError):
            build_soft_mask([box], (8, 8), (2, 2), sigma=0.0, floor=0.0)
        with pytest.raises(ValidationError):
            build_soft_mask([box], (8, 8), (2, 2), sigma=0.0, floor=0.25)

    @pytest.mark.parametrize("floor, fault", [
        (None, "must be a number, got null"),
        ("0.01", "must be a number, got a string"),
        (True, "must be a number, got true or false"),
    ], ids=["null", "string", "bool"])
    def test_a_floor_that_is_not_a_number_is_rejected(self, floor, fault):
        # these once ended in a bare TypeError from the range test
        with pytest.raises(ValidationError) as info:
            build_soft_mask([BBox(0.0, 0.0, 0.5, 0.5)], (8, 8), (2, 2), floor=floor)
        assert str(info.value) == f"field 'floor' {fault}"

    @pytest.mark.parametrize("sigma", [-0.5, math.nan, math.inf, 1e308, 8192.5])
    def test_sigma_outside_zero_to_the_largest_image_side_rejected(self, sigma):
        # NaN used to build the sigma-0 mask; inf and 1e308 overflowed in scipy
        message = r"^field 'sigma' must (lie in \[0, 8192\]|be a finite number), got "
        with pytest.raises(ValidationError, match=message):
            build_soft_mask([BBox(0.0, 0.0, 0.5, 0.5)], (8, 8), (2, 2), sigma=sigma)

    def test_the_largest_sigma_builds_on_a_small_image(self):
        # a sigma far above the image's sides stays valid
        [mask] = build_soft_mask([BBox(0.0, 0.0, 0.5, 0.5)], (8, 8), (2, 2), sigma=8192.0)
        assert mask.shape == (2, 2) and mask.sum() == pytest.approx(1.0)

    def test_no_boxes_give_an_empty_stack(self):
        masks = build_soft_mask([], (64, 48), (8, 6), sigma=16.0, floor=1e-6)
        assert masks.shape == (0, 8, 6)


def assert_soft_masks_match_oracle(boxes, image_dims, grid_dims, sigma, floor=1e-6):
    """One stacked build equals the oracle's build of each box on its own."""
    got = build_soft_mask(boxes, image_dims, grid_dims, sigma=sigma, floor=floor)
    assert got.shape == (len(boxes),) + tuple(grid_dims)
    for box, mask in zip(boxes, got):
        want = oracle_build_soft_mask(box, image_dims, grid_dims, sigma=sigma, floor=floor)
        assert np.array_equal(mask, want.grid), (box, image_dims, grid_dims, sigma)


def random_boxes(rng, min_side, image_dims):
    """One to five random boxes that cover a pixel center at image_dims, the
    first repeated at the end."""
    boxes = []
    for _ in range(int(rng.integers(1, 6))):
        box = random_box(rng, min_side)
        while box_span(box, *image_dims)[1] == 0:
            box = random_box(rng, min_side)
        boxes.append(box)
    return boxes + boxes[:1]


class TestSoftMaskMatchesOracle:
    """One stacked build_soft_mask call equals the full-raster, 2-D blur,
    loop-pool build (`oracle_build_soft_mask`) of each box bit for bit, on
    each side of every condition that picks the block-mean pool. Every stack
    repeats its first box."""

    def test_random_boxes_grids_that_divide(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            gh, gw = (int(v) for v in rng.integers(1, 9, size=2))
            bh, bw = (int(v) for v in rng.integers(1, 13, size=2))
            sigma = float(rng.choice([0.0, 0.7, 2.5, 16.0]))
            image_dims = (gh * bh, gw * bw)
            assert_soft_masks_match_oracle(
                random_boxes(rng, 0.3, image_dims), image_dims, (gh, gw), sigma)

    def test_random_boxes_grids_that_do_not_divide(self):
        rng = np.random.default_rng(43)
        for _ in range(150):
            h, w = (int(v) for v in rng.integers(2, 80, size=2))
            gh = int(rng.integers(1, h + 1))
            gw = int(rng.integers(1, w + 1))
            sigma = float(rng.choice([0.0, 0.7, 2.5, 16.0]))
            assert_soft_masks_match_oracle(
                random_boxes(rng, 0.5, (h, w)), (h, w), (gh, gw), sigma)

    @pytest.mark.parametrize("bh", [7, 8, 16])
    def test_one_pixel_wide_blocks(self, bh):
        # bw == 1 (a grid as wide as the image): the block-mean form would
        # sum a strided view in another order, so the loop pool must run
        rng = np.random.default_rng(bh)
        for _ in range(60):
            gh = int(rng.integers(1, 5))
            gw = int(rng.integers(2, 9))
            sigma = float(rng.uniform(0.3, 3.0))
            assert_soft_masks_match_oracle(
                random_boxes(rng, 0.5, (gh * bh, gw)), (gh * bh, gw), (gh, gw), sigma)

    @pytest.mark.parametrize("image_dims, cells", [
        ((128, 256), 8192),   # 64 x 128 blocks: one numpy buffer exactly
        ((182, 182), 8281),   # 91 x 91 blocks: more than one buffer
        ((6, 8192), 12288),   # 3 x 4096 blocks: more than one buffer
    ])
    def test_blocks_at_the_buffer_size(self, image_dims, cells):
        assert (image_dims[0] // 2) * (image_dims[1] // 2) == cells
        assert cells >= np.getbufsize()
        rng = np.random.default_rng(cells)
        for _ in range(4):
            sigma = float(rng.uniform(0.5, 8.0))
            assert_soft_masks_match_oracle(
                random_boxes(rng, 0.3, image_dims), image_dims, (2, 2), sigma)

    @pytest.mark.parametrize("sigma", [0.0, 5e-324, 1e-16, 0.2, 16.0, 64.0])
    def test_sigma_edges(self, sigma):
        # 64 is the image's longer side; 5e-324 and 1e-16 are at or below
        # the 1e-15 under which gaussian_filter skips an axis
        rng = np.random.default_rng(47)
        for image_dims, grid_dims in (((64, 48), (8, 8)), ((64, 48), (5, 7)),
                                      ((64, 48), (8, 48))):
            for _ in range(10):
                assert_soft_masks_match_oracle(
                    random_boxes(rng, 0.1, image_dims), image_dims, grid_dims, sigma)

    @pytest.mark.parametrize("image_dims, grid_dims", [
        ((64, 64), (8, 8)),     # the default: the block mean
        ((50, 37), (8, 6)),     # a grid that does not divide: the loop
        ((16, 5), (2, 5)),      # bw == 1: the loop
    ])
    def test_a_stack_of_one(self, image_dims, grid_dims):
        rng = np.random.default_rng(53)
        for _ in range(10):
            assert_soft_masks_match_oracle(
                [random_box(rng, min_side=0.4)], image_dims, grid_dims, 4.0)

    def test_a_stack_of_one_box_repeated(self):
        box = BBox(0.2, 0.3, 0.7, 0.6)
        masks = build_soft_mask([box] * 5, (64, 64), (8, 8), sigma=16.0, floor=0.01)
        assert all(np.array_equal(mask, masks[0]) for mask in masks)
        assert_soft_masks_match_oracle([box] * 5, (64, 64), (8, 8), 16.0, floor=0.01)


class TestSoftMaskChunks:
    """A list of boxes longer than ``MAX_SOFT_MASK_PIXELS`` allows builds in
    chunks of at least one mask: every mask still equals the oracle's, and
    the build's memory follows the chunk, not the list."""

    @pytest.mark.parametrize("masks_per_chunk", [1, 2, 3, 7])
    def test_chunked_masks_equal_the_oracle(self, monkeypatch, masks_per_chunk):
        image_dims = (48, 40)
        monkeypatch.setattr(geometry, "MAX_SOFT_MASK_PIXELS", masks_per_chunk * 48 * 40)
        rng = np.random.default_rng(59)
        boxes = random_boxes(rng, 0.3, image_dims) + random_boxes(rng, 0.3, image_dims)
        for grid_dims, sigma in (((8, 5), 3.0), ((7, 6), 0.0), ((4, 4), 16.0)):
            assert_soft_masks_match_oracle(boxes, image_dims, grid_dims, sigma)

    @pytest.mark.parametrize("image_dims, fault", [
        ((8193, 1), r"image_dims\[0\]' must lie in \[1, 8192\], got 8193"),
        ((4096, 2048), r"image_dims' must hold at most 4194304 pixels, got \[4096, 2048\]"),
    ], ids=["side", "pixels"])
    def test_an_image_past_the_budget_is_rejected(self, image_dims, fault):
        # rejected before any buffer is allocated, not by a MemoryError
        with pytest.raises(ValidationError, match=rf"^field '{fault}$"):
            build_soft_mask([BBox(0.1, 0.1, 0.9, 0.9)], image_dims, (1, 1))

    def test_peak_memory_follows_the_chunk(self, monkeypatch):
        side = 256
        one_mask = side * side * 8  # bytes of one float64 image
        boxes = [BBox(0.1 + 0.01 * k, 0.2, 0.6, 0.9) for k in range(16)]

        def peak(budget):
            monkeypatch.setattr(geometry, "MAX_SOFT_MASK_PIXELS", budget)
            build_soft_mask(boxes[:1], (side, side), (8, 8), sigma=4.0, floor=1e-4)
            tracemalloc.start()
            try:
                masks = build_soft_mask(boxes, (side, side), (8, 8), sigma=4.0,
                                        floor=1e-4)
                return tracemalloc.get_traced_memory()[1], masks
            finally:
                tracemalloc.stop()

        chunked, a = peak(side * side)
        whole, b = peak(16 * side * side)
        assert np.array_equal(a, b)
        assert chunked < 4 * one_mask < 16 * one_mask < whole


def kl_one(attn, target):
    """kl_rows on one row: the divergence and its logit gradient, in attn's shape."""
    kl, grad = kl_rows(np.reshape(attn, (1, -1)), np.reshape(target, (1, -1)))
    return kl[0], grad[0].reshape(np.shape(attn))


class TestKlDivergence:
    def test_frozen_two_cell_values(self):
        # sum p*log(p/q) computed by hand:
        # KL([.5,.5] || [.9,.1]) = .5*ln(5/9) + .5*ln(5) = 0.5108256237659907
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        assert kl_one(p, q)[0] == pytest.approx(0.5108256237659907, abs=1e-12)

    def test_zero_cell_in_attn_allowed(self):
        # 0*log(0) := 0, so KL([1,0] || [.5,.5]) = ln 2
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert kl_one(p, q)[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        p = rng.random((4, 4)) + 0.01
        p /= p.sum()
        assert kl_one(p, p.copy())[0] == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.random(12) + 1e-3
            p /= p.sum()
            q = rng.random(12) + 1e-3
            q /= q.sum()
            assert kl_one(p, q)[0] == pytest.approx(oracle_kl(p, q), abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.random(9) + 1e-6
            p /= p.sum()
            q = rng.random(9) + 1e-6
            q /= q.sum()
            assert kl_one(p, q)[0] >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kl_one(np.array([1.0]), np.array([0.5, 0.5]))

    def test_zero_target_cell_rejected(self):
        with pytest.raises(ValidationError):
            kl_one(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestKlLogitGradient:
    def test_matches_central_differences(self):
        # d/dz KL(softmax(z) || q), checked against central differences
        rng = np.random.default_rng(17)
        for _ in range(5):
            z = rng.normal(0.0, 1.0, size=16)
            q = rng.random(16) + 1e-3
            q /= q.sum()

            def kl_of(zv):
                e = np.exp(zv - zv.max())
                p = e / e.sum()
                return kl_one(p, q)[0]

            e = np.exp(z - z.max())
            p = e / e.sum()
            analytic = kl_one(p, q)[1]
            h = 1e-6
            worst = 0.0
            for i in range(z.size):
                zp = z.copy()
                zp[i] += h
                zm = z.copy()
                zm[i] -= h
                num = (kl_of(zp) - kl_of(zm)) / (2 * h)
                denom = max(abs(num), abs(analytic[i]), 1e-8)
                worst = max(worst, abs(num - analytic[i]) / denom)
            assert worst <= 1e-5

    def test_underflowed_cell_has_zero_gradient(self):
        # exp(-1e4 - 2) underflows: softmax gives that cell p == 0 exactly
        z = np.array([0.0, 1.0, -1e4, 2.0])
        q = np.array([0.1, 0.2, 0.3, 0.4])

        def softmax(zv):
            e = np.exp(zv - zv.max())
            return e / e.sum()

        p = softmax(z)
        assert p[2] == 0.0
        with np.errstate(divide="raise", invalid="raise"):
            analytic = kl_one(p, q)[1]
        assert np.all(np.isfinite(analytic))
        assert analytic[2] == 0.0
        h = 1e-6
        for i in (0, 1, 3):
            zp = z.copy()
            zp[i] += h
            zm = z.copy()
            zm[i] -= h
            num = (kl_one(softmax(zp), q)[0] - kl_one(softmax(zm), q)[0]) / (2 * h)
            assert abs(num - analytic[i]) <= 1e-5 * max(abs(num), abs(analytic[i]), 1e-8)


class TestKlRows:
    def test_each_row_matches_kl_divergence_bit_for_bit(self):
        rng = np.random.default_rng(23)
        p = rng.dirichlet(np.ones(64), size=12)
        q = rng.dirichlet(np.ones(64), size=12) + 1e-3
        q /= q.sum(axis=1, keepdims=True)
        p[3, [5, 40]] = 0.0  # rows with underflowed cells sum their support only
        p[7, :63] = 0.0
        p[7, 63] = 1.0
        p[9] = q[9]  # an identical pair is exactly 0
        kl, grad = kl_rows(p, q)
        for i in range(p.shape[0]):
            assert kl[i] == oracle_kl_divergence(p[i], q[i])
            assert np.array_equal(grad[i], kl_one(p[i], q[i])[1])
        assert np.all(grad[3, [5, 40]] == 0.0) and np.all(grad[7, :63] == 0.0)

    def test_shape_mismatch_and_zero_target_rejected(self):
        with pytest.raises(ValidationError):
            kl_rows(np.full((2, 4), 0.25), np.full((2, 3), 1 / 3))
        with pytest.raises(ValidationError):
            kl_rows(np.full(4, 0.25), np.full(4, 0.25))
        with pytest.raises(ValidationError):
            kl_rows(np.full((1, 2), 0.5), np.array([[1.0, 0.0]]))


class TestWrappers:
    def test_soft_mask_wrapper_validates(self):
        grid = np.full((2, 2), 0.25)
        SoftMask(grid=grid, floor=1e-6)  # fine
        with pytest.raises(ValidationError):
            SoftMask(grid=grid * 2, floor=1e-6)
