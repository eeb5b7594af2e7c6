"""Box pixel spans, RLE runs, mask IoU, soft attention targets, KL.

Coordinate conventions used throughout:
  - boxes are normalized [x1, y1, x2, y2] fractions of image width/height
  - rasters are row-major (height, width) arrays
  - a pixel (r, c) has its center at (c + 0.5, r + 0.5) in pixel units, and
    belongs to a box when that center lies in the denormalized box (closed
    on both sides)
"""

import math
import struct
from dataclasses import dataclass
from typing import Annotated, Sequence, Tuple

import numpy as np

from .errors import PositiveInt, Record, Rule, ValidationError, checked, in_range

# Most image pixels in one stacked soft-mask build: 32 MiB of float64.
MAX_SOFT_MASK_PIXELS = 1 << 22

# Largest accepted image side in pixels (a full-field mammogram fits) and blur sigma.
MAX_IMAGE_SIDE = 8192
Side = Annotated[int, in_range(1, MAX_IMAGE_SIDE)]
Sigma = Annotated[float, in_range(0, MAX_IMAGE_SIDE)]
# a soft-mask image: one mask's build peaks at a few float64 copies of it
ImageDims = Annotated[Tuple[Side, Side], Rule(
    lambda dims: dims[0] * dims[1] <= MAX_SOFT_MASK_PIXELS,
    f"hold at most {MAX_SOFT_MASK_PIXELS} pixels", list)]
# Largest accepted attention grid, 64 x 64 (the default image's largest): the
# toy model allocates corpus_size x cells logits and cells x feature_dim features.
MAX_GRID_CELLS = 4096
GridDims = Annotated[Tuple[PositiveInt, PositiveInt], Rule(
    lambda dims: dims[0] * dims[1] <= MAX_GRID_CELLS,
    f"have at most {MAX_GRID_CELLS} cells", list)]

# Most RLE runs and mask-row queries in one chunk of the forge's numpy
# passes (`ChunkedRuns`, `box_intersections`): 128 KiB per int64 array,
# besides a chunk's padding. The passes split their inputs themselves; no
# other module reads it.
FORGE_CHUNK = 1 << 14


@dataclass(frozen=True)
class BBox(Record):
    """Normalized box with a strictly positive area."""

    JSON_ARRAY = True  # read from an array of its four coordinates, in order
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.x1 < self.x2 <= 1.0 and 0.0 <= self.y1 < self.y2 <= 1.0):
            raise ValidationError(
                f"degenerate or out-of-range box: "
                f"({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    def as_list(self):
        return [self.x1, self.y1, self.x2, self.y2]


def _center_range(lo, hi, n):
    """Half-open range of the indices k < n whose pixel center k + 0.5 lies in
    [lo, hi]; empty when its first index is not below its end."""
    return max(0, math.ceil(lo - 0.5)), min(n - 1, math.floor(hi - 0.5)) + 1


def box_span(box: BBox, height: int, width: int):
    """Half-open pixel rectangle (r0, r1, c0, c1) whose centers lie in the box.

    Center membership is monotone along each axis, so a box always covers one
    rectangle of pixels; (0, 0, 0, 0) when it covers no pixel center.

    Along an axis the centers k + 0.5 in [lo, hi] are those with
    ceil(lo - 0.5) <= k <= floor(hi - 0.5). The float `lo - 0.5` is exact
    for 0.25 <= lo < 2**52: below 1 by Sterbenz's lemma, and above it lo is
    a multiple of ulp(lo) <= 0.5, so lo - 0.5 is too and keeps lo's
    exponent or the one below. For lo < 0.5 the first index is 0 either
    way, since a rounded negative difference stays <= 0. The same holds for
    hi: below 0.25 the last index is -1 either way. So each bound is the
    one the real-number comparison gives.
    """
    if height < 1 or width < 1:
        raise ValidationError("raster dims must be positive")
    r0, r1 = _center_range(box.y1 * height, box.y2 * height, height)
    c0, c1 = _center_range(box.x1 * width, box.x2 * width, width)
    if r0 >= r1 or c0 >= c1:
        return 0, 0, 0, 0
    return r0, r1, c0, c1


def mask_iou(box: BBox, mask: np.ndarray, area=None) -> float:
    """Pixel-count IoU between the rasterized box and a binary mask.

    Only the box's pixel rectangle is read: the intersection counts mask
    pixels inside it and the union is box + mask - intersection, all exact
    integers. `area`, when given, must be the mask's set-pixel count.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValidationError(f"mask must be 2-D, got shape {mask.shape}")
    r0, r1, c0, c1 = box_span(box, mask.shape[0], mask.shape[1])
    if area is None:
        area = int(np.count_nonzero(mask))
    inter = int(np.count_nonzero(mask[r0:r1, c0:c1]))
    union = (r1 - r0) * (c1 - c0) + area - inter
    if union == 0:
        return 0.0
    return inter / union


def encode_runs(mask) -> np.ndarray:
    """Row-major run lengths of a mask, alternating zeros and ones, zeros
    first (a first run of 0 when the mask starts with a set pixel)."""
    flat = np.asarray(mask).astype(bool).ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(np.concatenate(([0], edges, [flat.size])))
    if flat.size and flat[0]:
        runs = np.concatenate(([0], runs))
    return runs


def runs_array(runs) -> np.ndarray:
    """RLE runs as a 1-D integer array, the given array itself when it is
    one (an empty list reads as int64). Raises ValidationError for any other
    shape or dtype; `ChunkedRuns` checks the values."""
    try:
        runs = np.asarray(runs)
        if runs.size == 0:  # an empty list reads as float64
            runs = runs.astype(np.int64)
        valid = runs.ndim == 1 and runs.dtype.kind in "iu"
    except ValueError:  # ragged nesting
        valid = False
    if not valid:
        raise ValidationError("RLE runs must be non-negative integers")
    return runs


def _runs_fault(runs, total):
    """The message of runs that fail their check against total:
    `runs_array`'s fault, or else the fault of their values in Python ints."""
    try:
        values = runs_array(runs).tolist()
    except ValidationError as exc:
        return str(exc)
    if min(values, default=0) < 0:
        return "RLE runs must be non-negative integers"
    return f"RLE runs sum to {sum(values)}, expected {total}"


class ChunkedRuns:
    """Lines' RLE runs made int64 arrays and checked a chunk of lines at a time.

    `add(runs, total)` queues a line's runs, a list or an int array, with
    its pixel total, the count of two `Side`s. The queued lines are packed
    and checked when the next line's runs would take them past FORGE_CHUNK
    runs, so a chunk holds at most FORGE_CHUNK runs or a single line, and
    at most one chunk's lists are held; `flush` packs and checks what is
    queued. Each line is padded with zero runs to an even length of at
    least 2, and `struct` packs the chunk into one int64 buffer of
    immutable bytes, so one minimum, maximum and add reduceat each give
    every line's bounds and sum, and the odd slots its area. A line passes
    only with every run in [0, total], so its sums are exact (a wrap would
    take 2**37 runs), and its array, a view of the buffer, is read-only
    for good. `struct` takes only ints within int64, where `runs_array`
    gives the same values: it refuses a float (2.0 too), a string, null, a
    nested list and anything outside int64, though not a bool, which the
    caller must refuse. A chunk it refuses is packed again a line at a
    time; a line it refuses gets `runs_array`'s fault, or, a uint64 array
    past int64, the fault of its sum.

    After a flush, arrays[k] is line k's array, or None when the line is
    faulty, areas[k] the sum of its odd runs (meaningless for a faulty
    line), and faults maps the index of each faulty line to its message.
    """

    def __init__(self):
        self.arrays, self.areas, self.faults = [], [], {}
        self._runs, self._lines, self._held = [], [], 0

    @classmethod
    def of_line(cls, runs, total):
        """One line's `runs_array(runs)` checked against total, flushed."""
        line = cls()
        line.add(runs_array(runs), total)  # numpy ints: a refused line keeps its dtype
        line.flush()
        return line

    def add(self, runs, total):
        size = len(runs)
        if self._lines and self._held + size > FORGE_CHUNK:
            self.flush()
        self._lines.append((len(self._runs), size, total))
        self._held += size
        self._runs.extend(runs)
        self._runs += [0] * (size & 1 if size else 2)

    def flush(self):
        runs, lines = self._runs, self._lines
        self._runs, self._lines, self._held = [], [], 0
        try:
            buffer = np.frombuffer(struct.pack(f"{len(runs)}q", *runs), dtype=np.int64)
        except struct.error:  # some run is no int64
            if len(lines) > 1:  # pack each line alone
                for start, size, total in lines:
                    self.add(runs[start:start + size], total)
                    self.flush()
            else:
                [(_, size, total)] = lines
                self.faults[len(self.arrays)] = _runs_fault(runs[:size], total)
                self.arrays.append(None)
                self.areas.append(0)
        else:
            self._check(buffer, lines)

    def _check(self, buffer, lines):
        """Check the packed lines, (start, size, total) each, in one numpy pass."""
        starts = [start for start, _, _ in lines]
        totals = np.array([total for _, _, total in lines], dtype=np.int64)
        good = ((np.minimum.reduceat(buffer, starts) >= 0)
                & (np.maximum.reduceat(buffer, starts) <= totals)
                & (np.add.reduceat(buffer, starts) == totals)).tolist()
        self.areas += np.add.reduceat(buffer[1::2], [start // 2 for start in starts]).tolist()
        for (start, size, total), ok in zip(lines, good):
            runs = buffer[start:start + size]
            if not ok:
                self.faults[len(self.arrays)] = _runs_fault(runs, total)
                runs = None
            self.arrays.append(runs)


_ZERO_PADS = tuple(np.zeros(n, dtype=np.int64) for n in range(2))


def _chunks(costs):
    """(start, stop) of each chunk of consecutive items, in order: a chunk
    holds a single item, or items whose costs sum to at most FORGE_CHUNK."""
    start = total = 0
    for k, cost in enumerate(costs):
        if k > start and total + cost > FORGE_CHUNK:
            yield start, k
            start, total = k, 0
        total += cost
    if costs:
        yield start, len(costs)


def box_intersections(images) -> np.ndarray:
    """Set pixels of each RLE mask inside each pixel rectangle, decoding none.

    `images` are (spans, masks_runs, height, width) of any number of images:
    `spans` are non-empty half-open rectangles (r0, r1, c0, c1) as
    `box_span` gives them, and `masks_runs` are valid runs of (height,
    width) masks. Returns the exact counts as one int64 array: for each
    span, in image order, its counts against its own image's masks, in
    order.

    Let B(x) be the number of set pixels before flat offset x. A rectangle
    holds the sum over its rows r of B(r*W + c1) - B(r*W + c0). The images
    are scored a chunk at a time, a chunk holding a single image or at most
    FORGE_CHUNK runs and queries, where an image costs its masks' runs and
    two queries per box row and mask. A chunk's runs are joined into one
    sequence, with a zero-length run after any mask of odd run count, so
    every mask's zero runs sit at even indices, and each mask's offsets
    start where the previous mask's end. One cumulative pass plus one
    searchsorted then answer every (mask, box row) query of the chunk.
    """
    costs = [sum(map(len, masks_runs)) + 2 * len(masks_runs) * sum(
        r1 - r0 for r0, r1, _, _ in spans) for spans, masks_runs, _, _ in images]
    return np.concatenate([np.zeros(0, dtype=np.int64), *(
        _count_chunk(images[start:stop]) for start, stop in _chunks(costs))])


def _count_chunk(images):
    """`box_intersections` of one chunk of images, in one numpy pass."""
    pieces, table, counts = [], [], []
    base = 0
    for spans, masks_runs, height, width in images:
        for runs in masks_runs:
            pieces += runs, _ZERO_PADS[len(runs) % 2]
        for r0, r1, c0, c1 in spans:
            table.append((base + r0 * width + c0, height * width, width, c1 - c0, r1 - r0))
            counts.append(len(masks_runs))
        base += len(masks_runs) * height * width
    # one group of box rows per (span, mask of its image); mask k of a
    # span's image starts k * height * width past the image's first mask
    lead, pixels, step, extent, rows = np.repeat(
        np.array(table, dtype=np.int64).reshape(-1, 5), counts, axis=0).T
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    k = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    groups_at = np.cumsum(rows) - rows
    n = int(rows.sum())
    # the chunk's box row j, in group g, starts at lead[g] + j * step[g]
    lead += k * pixels - groups_at * step
    lead, step, extent = np.repeat(np.stack((lead, step, extent)), rows, axis=1)
    row_starts = lead + np.arange(n) * step
    offsets = np.concatenate((row_starts, row_starts + extent))
    runs = np.concatenate(pieces, dtype=np.int64)  # a fresh array
    ends = runs.cumsum()
    runs[::2] = 0
    ones_through = runs.cumsum()  # set pixels up to the end of each run
    # the first run ending at or after each offset: all runs before it count,
    # and a ones run loses its part past the offset
    i = ends.searchsorted(offsets)
    before = ones_through[i] - (ends[i] - offsets) * (i & 1)
    return np.add.reduceat(before[n:] - before[:n], groups_at)


def _average_pool(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = grid.shape
    bh, bw = in_h // out_h, in_w // out_w
    # The block-mean form equals the loop's per-cell .mean() bit for bit
    # only when: the grid divides the image (every block has one shape);
    # bw >= 2 (each block is then one contiguous run, summed pairwise as the
    # loop sums it; with bw == 1 the reshape is a strided view that numpy
    # sums in another order); and a block fits in one numpy buffer (the
    # loop sums a strided block buffer by buffer).
    if (bh * out_h == in_h and bw * out_w == in_w and bw >= 2
            and bh * bw <= np.getbufsize()):
        blocks = grid.reshape(out_h, bh, out_w, bw).transpose(0, 2, 1, 3)
        return blocks.reshape(out_h, out_w, -1).mean(axis=2)
    out = np.empty((out_h, out_w), dtype=float)
    for i in range(out_h):
        r0, r1 = (i * in_h) // out_h, ((i + 1) * in_h) // out_h
        for j in range(out_w):
            c0, c1 = (j * in_w) // out_w, ((j + 1) * in_w) // out_w
            out[i, j] = grid[r0:r1, c0:c1].mean()
    return out


def build_soft_mask(boxes: Sequence[BBox], image_dims, grid_dims, sigma=0.0,
                    floor=1e-6) -> np.ndarray:
    """Soft attention targets for boxes, as one ``(n, gh, gw)`` stack: each
    box rasterized, blurred, pooled, floored and normalized.

    The Gaussian blur of a box raster uses a kernel truncated at 3 sigma
    with reflected boundaries; sigma = 0 leaves the raster as it is. Average
    pooling reduces the image raster to the grid, the pooled mass is
    normalized to a distribution, and the floor is added to every cell
    before the final renormalization, so every cell ends up
    >= floor / (1 + gh*gw*floor).

    The raster itself is never built. Each of its columns is the box's row
    indicator or all zeros, and the blur filters each column alike, so the
    2-D blur's axis-0 pass is the outer product of the blurred row
    indicator with the column indicator, bit for bit; only the axis-1 pass
    runs on the image. The filter treats every line of a stack alike, so
    each mask of the stack equals the mask built on its own, bit for bit;
    that lets a long list build in chunks of at most ``MAX_SOFT_MASK_PIXELS``
    image pixels, which bounds the stack's memory; ``image_dims`` follows
    ``ImageDims``, so a chunk holds at least one mask.
    """
    height, width = checked("image_dims", image_dims, ImageDims)
    gh, gw = checked("grid_dims", grid_dims, GridDims)
    if gh > height or gw > width:
        raise ValidationError(f"grid dims {grid_dims} must be in [1, image dims]")
    sigma = checked("sigma", sigma, Sigma)
    floor = checked("floor", floor, float)
    if not 0.0 < floor < 1.0 / (gh * gw):
        raise ValidationError(f"floor must lie in (0, 1/{gh * gw})")
    from scipy.ndimage import gaussian_filter  # here: only soft masks need scipy
    n = len(boxes)
    masks = np.empty((n, gh, gw))
    chunk = MAX_SOFT_MASK_PIXELS // (height * width)
    for start in range(0, n, chunk):
        part = boxes[start:start + chunk]
        rows = np.zeros((len(part), height))
        cols = np.zeros((len(part), width))
        for k, box in enumerate(part):
            r0, r1, c0, c1 = box_span(box, height, width)
            if r0 == r1:
                raise ValidationError("box is degenerate after denormalization")
            rows[k, r0:r1] = 1.0
            cols[k, c0:c1] = 1.0
        # gaussian_filter, not gaussian_filter1d: it skips an axis whose sigma
        # is <= 1e-15, where the 1-D filter divides by zero on a subnormal sigma
        rows = gaussian_filter(rows, (0.0, sigma), mode="reflect", truncate=3.0)
        blurred = rows[:, :, np.newaxis] * cols[:, np.newaxis, :]
        gaussian_filter(blurred, (0.0, 0.0, sigma), output=blurred,
                        mode="reflect", truncate=3.0)
        for k in range(len(part)):
            masks[start + k] = _average_pool(blurred[k], gh, gw)
    # a row of a 2-D sum adds up in the order a 1-D sum does
    flat = masks.reshape(n, gh * gw)
    flat /= flat.sum(axis=1, keepdims=True)
    flat += floor
    flat /= flat.sum(axis=1, keepdims=True)
    if np.any(np.abs(flat.sum(axis=1) - 1.0) > 1e-9):
        raise ValidationError("soft mask must sum to 1")
    if flat.min(initial=np.inf) < floor / (1.0 + gh * gw * floor) - 1e-12:
        raise ValidationError("soft mask cell below the floor bound")
    return masks


def kl_rows(attn, target):
    """KL(attn || target) of each row of two (m, cells) arrays, and its gradient.

    Each row of attn must be the softmax of a row of attention logits; the
    gradient w.r.t. those logits is p * (log(p/q) - KL(p || q)) elementwise.
    The target must be strictly positive everywhere (soft masks are floored,
    so a zero target cell indicates a bug upstream). A cell where p == 0 (a
    softmax that underflowed) follows the 0*log(0) = 0 rule: it adds nothing
    to the divergence and its gradient is 0, the limit, with no log(0)
    taken. Every other cell counts, so a NaN in a row makes its divergence
    NaN, and the caller's finite check sees it.
    """
    p = np.asarray(attn, dtype=float)
    q = np.asarray(target, dtype=float)
    if p.ndim != 2 or p.shape != q.shape:
        raise ValidationError(f"shape mismatch: attn {p.shape} vs target {q.shape}")
    if float(q.min()) <= 0.0:
        raise ValidationError("target distribution contains zero cells")
    support = p != 0.0
    ratio = p / q
    ratio[~support] = 1.0
    log_ratio = np.log(ratio)
    kl = np.sum(p * log_ratio, axis=1)
    for i in np.flatnonzero(~support.all(axis=1)):
        # sum the supported cells alone: zero terms would regroup np.sum's
        # pairwise additions, and the row must equal a 1-D sum bit for bit
        kl[i] = np.sum(p[i][support[i]] * log_ratio[i][support[i]])
    # roundoff guard for near-identical distributions
    kl[(-1e-12 < kl) & (kl < 0.0)] = 0.0
    return kl, p * (log_ratio - kl[:, None])

