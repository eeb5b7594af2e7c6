"""Box pixel spans, RLE runs, mask IoU, soft attention targets, KL.

Coordinate conventions used throughout:
  - boxes are normalized [x1, y1, x2, y2] fractions of image width/height
  - rasters are row-major (height, width) arrays
  - a pixel (r, c) has its center at (c + 0.5, r + 0.5) in pixel units, and
    belongs to a box when that center lies in the denormalized box (closed
    on both sides)
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ValidationError


@dataclass(frozen=True)
class BBox:
    """Normalized box with a strictly positive area."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (0.0 <= self.x1 < self.x2 <= 1.0 and 0.0 <= self.y1 < self.y2 <= 1.0):
            raise ValidationError(
                f"degenerate or out-of-range box: "
                f"({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    def as_list(self):
        return [self.x1, self.y1, self.x2, self.y2]


@dataclass
class SoftMask:
    """Floored, normalized attention target over a gh x gw grid."""

    grid: np.ndarray
    floor: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 2:
            raise ValidationError("soft mask grid must be 2-D")
        if abs(float(self.grid.sum()) - 1.0) > 1e-9:
            raise ValidationError("soft mask must sum to 1")
        n = self.grid.size
        if float(self.grid.min()) < self.floor / (1.0 + n * self.floor) - 1e-12:
            raise ValidationError("soft mask cell below the floor bound")


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


def expand_runs(runs, height, width) -> np.ndarray:
    """Decode valid runs (non-negative, summing to height * width) into a
    2-D bool mask."""
    values = np.zeros(len(runs), dtype=bool)
    values[1::2] = True
    return np.repeat(values, runs).reshape(height, width)


_EMPTY_RUN = np.zeros(1, dtype=np.int64)


def box_intersections(spans, masks_runs, height, width) -> np.ndarray:
    """Set pixels of each RLE mask inside each pixel rectangle, decoding none.

    `spans` are non-empty half-open rectangles (r0, r1, c0, c1) as
    `box_span` gives them; `masks_runs` are valid runs of (height, width)
    masks. Returns the exact counts as an int64 array of shape
    (spans, masks).

    Let B(x) be the number of set pixels before flat offset x. A rectangle
    holds the sum over its rows r of B(r*W + c1) - B(r*W + c0). All masks'
    runs are joined into one sequence, with a zero-length run after any mask
    of odd run count, so every mask's zero runs sit at even indices; mask k
    then starts at offset k*H*W, and one cumulative pass plus one
    searchsorted answer every (mask, rectangle row) query.
    """
    if not spans:
        return np.zeros((0, len(masks_runs)), dtype=np.int64)
    pieces = []
    for runs in masks_runs:
        pieces.append(runs)
        if len(runs) % 2:
            pieces.append(_EMPTY_RUN)
    runs = np.concatenate(pieces)  # a fresh array
    ends = runs.cumsum()
    runs[::2] = 0
    ones_through = runs.cumsum()  # set pixels up to the end of each run

    # every rectangle's row starts, then every rectangle's row stops
    row_offsets = ([np.arange(r0 * width + c0, r1 * width + c0, width)
                    for r0, r1, c0, _ in spans]
                   + [np.arange(r0 * width + c1, r1 * width + c1, width)
                      for r0, r1, _, c1 in spans])
    hw = height * width
    offsets = (np.concatenate(row_offsets)
               + np.arange(0, len(masks_runs) * hw, hw, dtype=np.int64)[:, None])
    # the first run ending at or after each offset: all runs before it count,
    # and a ones run loses its part past the offset
    i = ends.searchsorted(offsets)
    before = ones_through[i] - (ends[i] - offsets) * (i & 1)
    n = offsets.shape[1] // 2
    first_rows = list(itertools.accumulate((r1 - r0 for r0, r1, _, _ in spans[:-1]),
                                           initial=0))
    return np.add.reduceat(before[:, n:] - before[:, :n], first_rows, axis=1).T


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


def build_soft_mask(box: BBox, image_dims, grid_dims, sigma=0.0, floor=1e-6) -> SoftMask:
    """Soft attention target for a box: rasterize, blur, pool, floor, normalize.

    The Gaussian blur of the box raster uses a kernel truncated at 3 sigma
    with reflected boundaries; sigma = 0 leaves the raster as it is. Average
    pooling reduces the image raster to the grid, the pooled mass is
    normalized to a distribution, and the floor is added to every cell
    before the final renormalization, so every cell ends up
    >= floor / (1 + gh*gw*floor).

    The raster itself is never built. Each of its columns is the box's row
    indicator or all zeros, and the blur filters each column alike, so the
    2-D blur's axis-0 pass is the outer product of the blurred row
    indicator with the column indicator, bit for bit; only the axis-1 pass
    runs on the image.
    """
    height, width = image_dims
    gh, gw = grid_dims
    if gh < 1 or gw < 1 or gh > height or gw > width:
        raise ValidationError(f"grid dims {grid_dims} must be in [1, image dims]")
    if sigma < 0:
        raise ValidationError("sigma must be >= 0")
    if not 0.0 < floor < 1.0 / (gh * gw):
        raise ValidationError(f"floor must lie in (0, 1/{gh * gw})")
    r0, r1, c0, c1 = box_span(box, height, width)
    if r0 == r1:
        raise ValidationError("box is degenerate after denormalization")
    rows = np.zeros(height)
    rows[r0:r1] = 1.0
    cols = np.zeros(width)
    cols[c0:c1] = 1.0
    # gaussian_filter, not gaussian_filter1d: it skips an axis whose sigma
    # is <= 1e-15, where the 1-D filter divides by zero on a subnormal sigma
    rows = gaussian_filter(rows, sigma, mode="reflect", truncate=3.0)
    blurred = gaussian_filter(np.outer(rows, cols), (0.0, sigma),
                              mode="reflect", truncate=3.0)
    pooled = _average_pool(blurred, gh, gw)
    pooled /= pooled.sum()
    pooled += floor
    pooled /= pooled.sum()
    return SoftMask(grid=pooled, floor=floor)


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

