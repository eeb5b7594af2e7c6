"""Per-stage training objectives.

Three supervision stages with fixed recipes:

* easy: answer NLL + rationale NLL + grounding (1 - cosine between the
  pooled lesion feature and its domain anchor),
* medium: answer NLL + rationale NLL + divergence of predicted attention
  from the box-derived soft mask,
* hard: answer NLL alone. Weights do not apply to the hard stage.

Losses here are pure functions of model outputs; they do not know how the
outputs were produced. Gradients live with the model that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import ValidationError
from .geometry import BBox, kl_divergence

__all__ = [
    "Stage",
    "StageLossWeights",
    "ModelOutputs",
    "StageLossBreakdown",
    "nll_loss",
    "grounding_loss",
    "roi_cells",
    "stage_loss",
]


class Stage(str, Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


@dataclass(frozen=True)
class StageLossWeights:
    w_ans: float = 1.0
    w_cot: float = 1.0
    w_ground: float = 1.0
    w_attn: float = 1.0

    def __post_init__(self):
        for name in ("w_ans", "w_cot", "w_ground", "w_attn"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be non-negative")


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


@dataclass
class StageLossBreakdown:
    stage: Stage
    total: float
    answer: float
    cot: Optional[float] = None
    grounding: Optional[float] = None
    attention: Optional[float] = None


def nll_loss(logprobs: np.ndarray) -> float:
    """Mean negative log likelihood over realized tokens."""
    lp = np.asarray(logprobs, dtype=float)
    if lp.size == 0:
        raise ValidationError("nll_loss needs at least one token")
    if lp.max() > 0.0:
        raise ValidationError("log probabilities cannot be positive")
    return float(-lp.mean())


def grounding_loss(feature_vec: np.ndarray, anchor_vec: np.ndarray) -> float:
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


def roi_cells(box: BBox, image_dims: tuple, grid_dims: tuple) -> np.ndarray:
    """Boolean grid of cells whose centers fall inside the box.

    Cell centers use the same closed-interval membership as pixel
    rasterization. A box too small to cover any center selects the single
    cell containing the box center, so pooling never sees an empty region.
    """
    height, width = image_dims
    gh, gw = grid_dims
    if gh < 1 or gw < 1:
        raise ValidationError("grid dims must be positive")
    cell_h = height / gh
    cell_w = width / gw
    x_lo, y_lo = box.x1 * width, box.y1 * height
    x_hi, y_hi = box.x2 * width, box.y2 * height
    row_centers = (np.arange(gh) + 0.5) * cell_h
    col_centers = (np.arange(gw) + 0.5) * cell_w
    rows = (row_centers >= y_lo) & (row_centers <= y_hi)
    cols = (col_centers >= x_lo) & (col_centers <= x_hi)
    cells = np.outer(rows, cols)
    if not cells.any():
        cx = 0.5 * (x_lo + x_hi)
        cy = 0.5 * (y_lo + y_hi)
        gr = min(gh - 1, int(cy // cell_h))
        gc = min(gw - 1, int(cx // cell_w))
        cells[gr, gc] = True
    return cells


def _as_stage(stage: Union[Stage, str]) -> Stage:
    try:
        return Stage(stage)
    except ValueError:
        raise ValidationError(f"unknown stage {stage!r}") from None


def stage_loss(stage: Union[Stage, str], outputs: ModelOutputs,
               target_attention: Optional[np.ndarray] = None,
               weights: StageLossWeights = StageLossWeights()) -> StageLossBreakdown:
    """Combine loss components according to the stage recipe."""
    stage = _as_stage(stage)
    l_ans = nll_loss(outputs.answer_logprobs)
    if stage == Stage.HARD:
        return StageLossBreakdown(stage=stage, total=l_ans, answer=l_ans)

    if outputs.cot_logprobs is None:
        raise ValidationError(f"{stage.value} stage needs rationale log probs")
    l_cot = nll_loss(outputs.cot_logprobs)

    if stage == Stage.EASY:
        if outputs.feature_vec is None or outputs.anchor_vec is None:
            raise ValidationError("easy stage needs grounding vectors")
        l_ground = grounding_loss(outputs.feature_vec, outputs.anchor_vec)
        total = (weights.w_ans * l_ans + weights.w_cot * l_cot
                 + weights.w_ground * l_ground)
        return StageLossBreakdown(stage=stage, total=total, answer=l_ans,
                                  cot=l_cot, grounding=l_ground)

    if outputs.attention is None:
        raise ValidationError("medium stage needs an attention grid")
    if target_attention is None:
        raise ValidationError("medium stage needs a target attention mask")
    l_attn = kl_divergence(outputs.attention, target_attention)
    total = (weights.w_ans * l_ans + weights.w_cot * l_cot
             + weights.w_attn * l_attn)
    return StageLossBreakdown(stage=stage, total=total, answer=l_ans,
                              cot=l_cot, attention=l_attn)
