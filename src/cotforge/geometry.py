"""Box rasterization, mask IoU, soft attention targets, KL.

Coordinate conventions used throughout:
  - boxes are normalized [x1, y1, x2, y2] fractions of image width/height
  - rasters are row-major (height, width) arrays
  - a pixel (r, c) has its center at (c + 0.5, r + 0.5) in pixel units, and
    belongs to a box when that center lies in the denormalized box (closed
    on both sides)
"""

from dataclasses import dataclass, field

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


def _center_membership(lo, hi, n):
    centers = np.arange(n, dtype=float) + 0.5
    return (centers >= lo) & (centers <= hi)


def box_span(box: BBox, height: int, width: int):
    """Half-open pixel rectangle (r0, r1, c0, c1) whose centers lie in the box.

    Center membership is monotone along each axis, so a box always covers one
    rectangle of pixels; (0, 0, 0, 0) when it covers no pixel center.
    """
    if height < 1 or width < 1:
        raise ValidationError("raster dims must be positive")
    cols = np.flatnonzero(_center_membership(box.x1 * width, box.x2 * width, width))
    rows = np.flatnonzero(_center_membership(box.y1 * height, box.y2 * height, height))
    if cols.size == 0 or rows.size == 0:
        return 0, 0, 0, 0
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def rasterize_box(box: BBox, height: int, width: int) -> np.ndarray:
    """Binary (height, width) raster of the pixels whose centers lie in the box."""
    r0, r1, c0, c1 = box_span(box, height, width)
    raster = np.zeros((height, width), dtype=bool)
    raster[r0:r1, c0:c1] = True
    return raster


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


def _average_pool(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = grid.shape
    out = np.empty((out_h, out_w), dtype=float)
    for i in range(out_h):
        r0, r1 = (i * in_h) // out_h, ((i + 1) * in_h) // out_h
        for j in range(out_w):
            c0, c1 = (j * in_w) // out_w, ((j + 1) * in_w) // out_w
            out[i, j] = grid[r0:r1, c0:c1].mean()
    return out


def build_soft_mask(box: BBox, image_dims, grid_dims, sigma=0.0, floor=1e-6) -> SoftMask:
    """Soft attention target for a box: rasterize, blur, pool, floor, normalize.

    The Gaussian blur uses a kernel truncated at 3 sigma with reflected
    boundaries; sigma = 0 skips the blur. Average pooling reduces the image
    raster to the grid, the pooled mass is normalized to a distribution, and
    the floor is added to every cell before the final renormalization, so
    every cell ends up >= floor / (1 + gh*gw*floor).
    """
    height, width = image_dims
    gh, gw = grid_dims
    if gh < 1 or gw < 1 or gh > height or gw > width:
        raise ValidationError(f"grid dims {grid_dims} must be in [1, image dims]")
    if sigma < 0:
        raise ValidationError("sigma must be >= 0")
    if not 0.0 < floor < 1.0 / (gh * gw):
        raise ValidationError(f"floor must lie in (0, 1/{gh * gw})")
    raster = rasterize_box(box, height, width).astype(float)
    if raster.sum() == 0.0:
        raise ValidationError("box is degenerate after denormalization")
    if sigma > 0.0:
        raster = gaussian_filter(raster, sigma=sigma, mode="reflect", truncate=3.0)
    pooled = _average_pool(raster, gh, gw)
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

