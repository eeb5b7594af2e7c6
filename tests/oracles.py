"""Reference implementations used as test oracles.

Everything here is written as straight-line code on purpose: slow, obvious,
and independent of the vectorized production paths. The loss oracle is the
toy model's forward pass and stage recipe, one item at a time, with its own
copy of the recipe; the finite-difference check treats a loss as a black box.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.ndimage import gaussian_filter

from cotforge.errors import ValidationError
from cotforge.geometry import BBox, SoftMask
from cotforge.toymodel import (
    PARAM_KEYS,
    Stage,
    StageLossBreakdown,
    StageLossWeights,
    roi_cells,
)


def oracle_box_pixels(box, height, width):
    """Set of (row, col) pixels whose centers lie in the denormalized box."""
    x1 = box.x1 * width
    x2 = box.x2 * width
    y1 = box.y1 * height
    y2 = box.y2 * height
    pixels = set()
    for r in range(height):
        cy = r + 0.5
        if not (y1 <= cy <= y2):
            continue
        for c in range(width):
            cx = c + 0.5
            if x1 <= cx <= x2:
                pixels.add((r, c))
    return pixels


def oracle_iou(box, mask):
    """Pixel-count IoU between a normalized box and a binary mask."""
    height = len(mask)
    width = len(mask[0])
    box_px = oracle_box_pixels(box, height, width)
    inter = 0
    union = 0
    for r in range(height):
        for c in range(width):
            in_box = (r, c) in box_px
            in_mask = bool(mask[r][c])
            if in_box and in_mask:
                inter += 1
            if in_box or in_mask:
                union += 1
    if union == 0:
        return 0.0
    return inter / union


def oracle_assign(box, masks, tau_iou=0.0):
    """Argmax-IoU organ choice; ties -> lowest index; max <= tau -> None.

    Returns (index_or_None, best_iou).
    """
    best_idx = None
    best = -1.0
    for k, mask in enumerate(masks):
        iou = oracle_iou(box, mask)
        if iou > best:
            best = iou
            best_idx = k
    if best <= tau_iou:
        return None, best
    return best_idx, best


def oracle_average_pool(grid, out_h, out_w):
    """Integer-partition average pooling, loop form."""
    in_h = len(grid)
    in_w = len(grid[0])
    out = [[0.0] * out_w for _ in range(out_h)]
    for i in range(out_h):
        r0 = (i * in_h) // out_h
        r1 = ((i + 1) * in_h) // out_h
        for j in range(out_w):
            c0 = (j * in_w) // out_w
            c1 = ((j + 1) * in_w) // out_w
            total = 0.0
            for r in range(r0, r1):
                for c in range(c0, c1):
                    total += grid[r][c]
            out[i][j] = total / ((r1 - r0) * (c1 - c0))
    return out


def _center_membership(lo, hi, n):
    centers = np.arange(n, dtype=float) + 0.5
    return (centers >= lo) & (centers <= hi)


def oracle_box_span(box: BBox, height: int, width: int):
    """Half-open pixel rectangle (r0, r1, c0, c1) whose centers lie in the box,
    read off the compared pixel centers; (0, 0, 0, 0) when it covers none."""
    if height < 1 or width < 1:
        raise ValidationError("raster dims must be positive")
    cols = np.flatnonzero(_center_membership(box.x1 * width, box.x2 * width, width))
    rows = np.flatnonzero(_center_membership(box.y1 * height, box.y2 * height, height))
    if cols.size == 0 or rows.size == 0:
        return 0, 0, 0, 0
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def rasterize_box(box: BBox, height: int, width: int) -> np.ndarray:
    """Binary (height, width) raster of the pixels whose centers lie in the box."""
    r0, r1, c0, c1 = oracle_box_span(box, height, width)
    raster = np.zeros((height, width), dtype=bool)
    raster[r0:r1, c0:c1] = True
    return raster


def _oracle_soft_mask_pool(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = grid.shape
    out = np.empty((out_h, out_w), dtype=float)
    for i in range(out_h):
        r0, r1 = (i * in_h) // out_h, ((i + 1) * in_h) // out_h
        for j in range(out_w):
            c0, c1 = (j * in_w) // out_w, ((j + 1) * in_w) // out_w
            out[i, j] = grid[r0:r1, c0:c1].mean()
    return out


def oracle_build_soft_mask(box: BBox, image_dims, grid_dims, sigma=0.0,
                           floor=1e-6) -> SoftMask:
    """The soft-mask build as it was before the row-profile blur and the
    block-mean pool: the full box raster, the 2-D blur, the per-cell loop
    pool. Production must equal it bit for bit."""
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
    pooled = _oracle_soft_mask_pool(raster, gh, gw)
    pooled /= pooled.sum()
    pooled += floor
    pooled /= pooled.sum()
    return SoftMask(grid=pooled, floor=floor)


def oracle_kl(p, q):
    """Sum p*log(p/q) with the 0*log(0) := 0 convention."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            total += pi * math.log(pi / qi)
    return total


# ---------------------------------------------------------------------------
# the loss oracle


def oracle_kl_divergence(attn, target) -> float:
    """KL(attn || target) with 0*log(0) treated as 0.

    The target must be strictly positive everywhere (soft masks are floored,
    so a zero target cell indicates a bug upstream).
    """
    p = np.asarray(attn, dtype=float)
    q = np.asarray(target, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: attn {p.shape} vs target {q.shape}")
    if float(q.min()) <= 0.0:
        raise ValidationError("target distribution contains zero cells")
    support = p > 0.0
    value = float(np.sum(p[support] * np.log(p[support] / q[support])))
    if -1e-12 < value < 0.0:
        # roundoff guard for near-identical distributions
        return 0.0
    return value


@dataclass
class ModelOutputs:
    """Everything a stage loss can consume for one item.

    ``answer_logprobs``/``cot_logprobs`` are realized per-token log
    probabilities. ``attention`` is a normalized grid. ``box`` rides along
    so callers can derive attention targets without a side channel.
    """

    answer_logprobs: np.ndarray
    cot_logprobs: Optional[np.ndarray] = None
    attention: Optional[np.ndarray] = None
    feature_vec: Optional[np.ndarray] = None
    anchor_vec: Optional[np.ndarray] = None
    box: Optional[BBox] = None


def oracle_nll_loss(logprobs: np.ndarray) -> float:
    """Mean negative log likelihood over realized tokens."""
    lp = np.asarray(logprobs, dtype=float)
    if lp.size == 0:
        raise ValidationError("nll_loss needs at least one token")
    if lp.max() > 0.0:
        raise ValidationError("log probabilities cannot be positive")
    return float(-lp.mean())


def oracle_grounding_loss(feature_vec: np.ndarray, anchor_vec: np.ndarray) -> float:
    """Cosine distance between the pooled lesion feature and its anchor."""
    f = np.asarray(feature_vec, dtype=float)
    a = np.asarray(anchor_vec, dtype=float)
    if f.shape != a.shape:
        raise ValidationError(f"shape mismatch {f.shape} vs {a.shape}")
    nf = np.linalg.norm(f)
    na = np.linalg.norm(a)
    if nf == 0.0 or na == 0.0:
        raise ValidationError("grounding is undefined for a zero-norm vector")
    return float(1.0 - f.dot(a) / (nf * na))


def _as_stage(stage: Union[Stage, str]) -> Stage:
    try:
        return Stage(stage)
    except ValueError:
        raise ValidationError(f"unknown stage {stage!r}") from None


def oracle_stage_loss(stage: Union[Stage, str], outputs: ModelOutputs,
                      target_attention: Optional[np.ndarray] = None,
                      weights: StageLossWeights = StageLossWeights()
                      ) -> StageLossBreakdown:
    """Combine loss components according to the stage recipe."""
    stage = _as_stage(stage)
    l_ans = oracle_nll_loss(outputs.answer_logprobs)
    if stage == Stage.HARD:
        return StageLossBreakdown(stage=stage, total=l_ans, answer=l_ans)

    if outputs.cot_logprobs is None:
        raise ValidationError(f"{stage.value} stage needs rationale log probs")
    l_cot = oracle_nll_loss(outputs.cot_logprobs)

    if stage == Stage.EASY:
        if outputs.feature_vec is None or outputs.anchor_vec is None:
            raise ValidationError("easy stage needs grounding vectors")
        l_ground = oracle_grounding_loss(outputs.feature_vec, outputs.anchor_vec)
        total = (weights.w_ans * l_ans + weights.w_cot * l_cot
                 + weights.w_ground * l_ground)
        return StageLossBreakdown(stage=stage, total=total, answer=l_ans,
                                  cot=l_cot, grounding=l_ground)

    if outputs.attention is None:
        raise ValidationError("medium stage needs an attention grid")
    if target_attention is None:
        raise ValidationError("medium stage needs a target attention mask")
    l_attn = oracle_kl_divergence(outputs.attention, target_attention)
    total = (weights.w_ans * l_ans + weights.w_cot * l_cot
             + weights.w_attn * l_attn)
    return StageLossBreakdown(stage=stage, total=total, answer=l_ans,
                              cot=l_cot, attention=l_attn)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


def oracle_forward(model, idx: int, stage: Union[Stage, str]) -> ModelOutputs:
    """The toy model's outputs for one item, read from its parameters."""
    stage = Stage(stage)
    if not 0 <= idx < len(model.items):
        raise ValidationError(f"item index {idx} out of range")
    item = model.items[idx]
    lp_ans = _log_softmax(model.ans_logits)
    answer_logprobs = np.array([lp_ans[model.answer_ids[idx]]])
    if stage == Stage.HARD:
        return ModelOutputs(answer_logprobs=answer_logprobs, box=item.box)

    ids = model.cot_ids[idx]
    lp_cot = _log_softmax(model.cot_logits)
    cot_logprobs = lp_cot[ids] if ids else None
    attention = _softmax(model.attn_logits[idx].ravel()).reshape(model.grid_dims)
    cells = roi_cells(item.box, model.image_dims, model.grid_dims)
    feature_vec = model.features[cells].mean(axis=0)
    anchor_vec = model.anchors[model.anchor_ids[idx]]
    return ModelOutputs(
        answer_logprobs=answer_logprobs,
        cot_logprobs=cot_logprobs,
        attention=attention,
        feature_vec=feature_vec,
        anchor_vec=anchor_vec,
        box=item.box,
    )


def oracle_item_loss(model, idx: int, stage: Union[Stage, str],
                     target_attention: Optional[np.ndarray] = None,
                     weights: StageLossWeights = StageLossWeights()
                     ) -> StageLossBreakdown:
    return oracle_stage_loss(stage, oracle_forward(model, idx, stage),
                             target_attention=target_attention, weights=weights)


def oracle_batch_loss(model, indices, stages, targets,
                      weights: StageLossWeights = StageLossWeights()) -> float:
    """Mean stage-total loss; evaluation only, shares no gradient code."""
    if not (len(indices) == len(stages) == len(targets)):
        raise ValidationError("indices, stages and targets must align")
    if not indices:
        raise ValidationError("empty batch")
    totals = [
        oracle_item_loss(model, i, s, target_attention=t, weights=weights).total
        for i, s, t in zip(indices, stages, targets)
    ]
    return float(np.mean(totals))


def batch_grad_vector(model, indices, stages, targets,
                      weights: StageLossWeights = StageLossWeights()) -> np.ndarray:
    """The model's analytic batch gradient, flattened in parameter order."""
    _, grads = model.batch_loss_and_grads(indices, stages, targets, weights)
    return np.concatenate([grads[k].ravel() for k in PARAM_KEYS])


def finite_difference_check(f: Callable[[np.ndarray], float],
                            grad: np.ndarray, x: np.ndarray,
                            h: float = 1e-5, guard: float = 1e-8) -> float:
    """Worst-case relative error between ``grad`` and central differences of ``f``.

    Per coordinate: |analytic - numeric| / max(|analytic|, |numeric|, guard).
    ``f`` is treated as a black box; this routine must stay independent of
    any analytic gradient code.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != x.shape:
        raise ValidationError("gradient and point must have the same shape")
    worst = 0.0
    for i in range(x.size):
        bumped = x.copy()
        bumped[i] = x[i] + h
        hi = f(bumped)
        bumped[i] = x[i] - h
        lo = f(bumped)
        numeric = (hi - lo) / (2.0 * h)
        denom = max(abs(grad[i]), abs(numeric), guard)
        worst = max(worst, abs(grad[i] - numeric) / denom)
    return worst
