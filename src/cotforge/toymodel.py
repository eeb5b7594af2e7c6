"""A deliberately small VQA model for exercising the curriculum end to end.

Each item trains under one of three stage objectives:

* easy: answer NLL + rationale NLL + grounding (1 - cosine between the
  pooled lesion feature and its domain anchor),
* medium: answer NLL + rationale NLL + divergence of predicted attention
  from the box-derived soft mask,
* hard: answer NLL alone. Weights do not apply to the hard stage.

The model factors the task into independent pieces that still touch every
loss component: a unigram answer head, a unigram rationale head over
sentences, one attention logit grid per item, a shared spatial feature map
pooled over the lesion box, and one anchor vector per (lesion, answer)
pair. All gradients are derived in closed form. The tests hold the
reference forward pass, the loss oracle and the finite-difference check,
so the analytic route here can disagree with an independent one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError
from .forge import VqaCotRecord, split_sentences
from .geometry import BBox, kl_rows

PARAM_KEYS = ("ans_logits", "cot_logits", "attn_logits", "features", "anchors")


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
class StageLossBreakdown:
    stage: Stage
    total: float
    answer: float
    cot: Optional[float] = None
    grounding: Optional[float] = None
    attention: Optional[float] = None


def stage_loss(stage: Stage, weights: StageLossWeights, answer: float,
               cot: float, grounding: float, attention: float) -> StageLossBreakdown:
    """One item's breakdown: its loss components combined by the stage recipe.

    Easy weighs answer, rationale and grounding; Medium weighs answer,
    rationale and attention; Hard is the answer loss alone, whatever the
    weights. A component the stage does not use is ignored.
    """
    if stage == Stage.HARD:
        return StageLossBreakdown(stage=stage, total=answer, answer=answer)
    if stage == Stage.EASY:
        total = (weights.w_ans * answer + weights.w_cot * cot
                 + weights.w_ground * grounding)
        return StageLossBreakdown(stage=stage, total=total, answer=answer,
                                  cot=cot, grounding=grounding)
    total = (weights.w_ans * answer + weights.w_cot * cot
             + weights.w_attn * attention)
    return StageLossBreakdown(stage=stage, total=total, answer=answer,
                              cot=cot, attention=attention)


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


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


class ToyModel:
    def __init__(self, items: Sequence[VqaCotRecord], image_dims=(64, 64),
                 grid_dims=(8, 8), feature_dim: int = 16, seed: int = 0):
        if not items:
            raise ValidationError("toy model needs at least one item")
        self.items: List[VqaCotRecord] = list(items)
        self.image_dims = tuple(image_dims)
        self.grid_dims = tuple(grid_dims)
        self.feature_dim = int(feature_dim)

        self.answer_vocab = sorted({r.answer for r in self.items})
        self._answer_index = {a: i for i, a in enumerate(self.answer_vocab)}
        self.answer_ids = [self._answer_index[r.answer] for r in self.items]

        sentence_set = set()
        for r in self.items:
            sentence_set.update(split_sentences(r.cot))
        self.cot_vocab = sorted(sentence_set)
        cot_index = {s: i for i, s in enumerate(self.cot_vocab)}
        self.cot_ids = [
            [cot_index[s] for s in split_sentences(r.cot)] for r in self.items
        ]

        self.anchor_keys = sorted({(r.domain.lesion_class, r.answer)
                                   for r in self.items})
        anchor_index = {k: i for i, k in enumerate(self.anchor_keys)}
        self.anchor_ids = [
            anchor_index[(r.domain.lesion_class, r.answer)] for r in self.items
        ]

        # cell memberships are fixed by the boxes, so compute them once
        self._roi_cells = [
            np.nonzero(roi_cells(r.box, self.image_dims, self.grid_dims))
            for r in self.items]
        self._roi_count = np.array([rows.size for rows, _ in self._roi_cells])
        self._answer_ids = np.array(self.answer_ids, dtype=np.intp)
        self._anchor_ids = np.array(self.anchor_ids, dtype=np.intp)
        # sentence ids padded to the longest rationale, and at each position
        # that sentence's share of the rationale: the rationale head's target
        self._cot_len = np.array([len(ids) for ids in self.cot_ids])
        width = int(self._cot_len.max())
        self._cot_pad = np.zeros((len(self.items), width), dtype=np.intp)
        self._cot_share = np.zeros((len(self.items), width))
        for i, ids in enumerate(self.cot_ids):
            if ids:
                counts = np.bincount(ids, minlength=len(self.cot_vocab))
                self._cot_pad[i, :len(ids)] = ids
                self._cot_share[i, :len(ids)] = counts[ids].astype(float) / len(ids)

        rng = np.random.default_rng(seed)
        gh, gw = self.grid_dims
        self.ans_logits = np.zeros(len(self.answer_vocab))
        self.cot_logits = np.zeros(len(self.cot_vocab))
        self.attn_logits = np.zeros((len(self.items), gh, gw))
        self.features = rng.normal(0.0, 0.1, size=(gh, gw, self.feature_dim))
        self.anchors = rng.normal(0.0, 0.1,
                                  size=(len(self.anchor_keys), self.feature_dim))

    # ----- parameter plumbing -----

    def _params(self) -> Dict[str, np.ndarray]:
        return {key: getattr(self, key) for key in PARAM_KEYS}

    def param_vector(self) -> np.ndarray:
        return np.concatenate([self._params()[k].ravel() for k in PARAM_KEYS])

    def set_param_vector(self, vec: np.ndarray):
        vec = np.asarray(vec, dtype=float)
        total = sum(p.size for p in self._params().values())
        if vec.shape != (total,):
            raise ValidationError(f"expected parameter vector of length {total}")
        offset = 0
        for key in PARAM_KEYS:
            param = self._params()[key]
            chunk = vec[offset:offset + param.size]
            setattr(self, key, chunk.reshape(param.shape).copy())
            offset += param.size

    def _check_idx(self, idx: int):
        if not 0 <= idx < len(self.items):
            raise ValidationError(f"item index {idx} out of range")

    # ----- losses and gradients -----

    def item_loss_and_grads(
        self, idx: int, stage: Union[Stage, str],
        target_attention: Optional[np.ndarray] = None,
        weights: StageLossWeights = StageLossWeights(),
        *, grads: Dict[str, np.ndarray],
    ) -> StageLossBreakdown:
        """Add this item's loss gradient into ``grads`` in place.

        The one-item case of the batch routine. Only the rows the item
        touches are updated; the caller owns (and zeroes) the buffer.
        """
        return self._add_loss_grads([idx], [stage], [target_attention],
                                    weights, grads)[0]

    def _add_loss_grads(self, indices, stages, targets, weights,
                        grads) -> List[StageLossBreakdown]:
        """Every item's breakdown; each item's gradient added into ``grads``.

        Parameters do not change inside a batch, so each head's softmax is
        computed once and the Medium attention rows as one array.
        ``stage_loss`` combines each item's components, and every buffer
        receives its items' contributions in batch order (``np.add.at`` adds
        repeated indices in turn), so the results are bit for bit those of
        adding the items one at a time.
        """
        stages = [Stage(s) for s in stages]
        items = np.asarray(indices, dtype=np.intp)
        self._check_idx(int(items.min()))
        self._check_idx(int(items.max()))
        n = items.size
        main = np.flatnonzero([s != Stage.HARD for s in stages])
        easy = np.flatnonzero([s == Stage.EASY for s in stages])
        medium = np.flatnonzero([s == Stage.MEDIUM for s in stages])
        l_cot, l_ground, l_attn = np.full((3, n), np.nan)

        answer_ids = self._answer_ids[items]
        l_ans = -_log_softmax(self.ans_logits)[answer_ids]
        g_ans = np.tile(_softmax(self.ans_logits), (n, 1))
        g_ans[np.arange(n), answer_ids] -= 1.0
        g_ans[main] *= weights.w_ans  # the hard stage ignores the weights
        np.add.at(grads["ans_logits"][np.newaxis], np.zeros(n, np.intp), g_ans)

        if main.size:
            main_items = items[main]
            lengths = self._cot_len[main_items]
            if lengths.min() == 0:
                stage = stages[main[np.argmin(lengths)]]
                raise ValidationError(
                    f"{stage.value} stage needs rationale log probs")
            lp_cot = _log_softmax(self.cot_logits)
            share = np.zeros((main.size, len(self.cot_vocab)))
            for k in np.unique(lengths):
                sel = np.flatnonzero(lengths == k)
                ids = self._cot_pad[main_items[sel], :k]
                # a row adds up in the order a 1-D sum does, as ndarray.mean
                l_cot[main[sel]] = -(np.add.reduce(lp_cot[ids], axis=1) / k)
                share[sel[:, np.newaxis], ids] = self._cot_share[main_items[sel], :k]
            g_cot = weights.w_cot * (_softmax(self.cot_logits) - share)
            np.add.at(grads["cot_logits"][np.newaxis],
                      np.zeros(main.size, np.intp), g_cot)

        if easy.size:
            l_ground[easy] = self._add_grounding(items[easy], weights, grads)
        if medium.size:
            l_attn[medium] = self._add_attention(
                items[medium], [targets[j] for j in medium], weights, grads)

        return [stage_loss(stage, weights, ans, cot, ground, attn)
                for stage, ans, cot, ground, attn in zip(
                    stages, l_ans.tolist(), l_cot.tolist(), l_ground.tolist(),
                    l_attn.tolist())]

    def _add_grounding(self, items, weights, grads) -> np.ndarray:
        """Easy items' 1 - cosine(pooled ROI feature, anchor); adds its gradient."""
        m = items.size
        f = np.empty((m, self.feature_dim))
        a = self.anchors[self._anchor_ids[items]]
        loss = np.empty(m)
        coef = np.empty((m, 3))  # cos / |f|^2, cos / |a|^2, |f| |a|
        for row, idx in enumerate(items.tolist()):
            # the ROI mean, as ndarray.mean computes it
            f[row] = (np.add.reduce(self.features[self._roi_cells[idx]], axis=0)
                      / self._roi_count[idx])
            nf = np.sqrt(f[row].dot(f[row]))
            na = np.sqrt(a[row].dot(a[row]))
            if nf == 0.0 or na == 0.0:
                raise ValidationError(
                    "grounding is undefined for a zero-norm vector")
            cos = f[row].dot(a[row]) / (nf * na)
            loss[row] = 1.0 - cos
            # a scalar's ** 2 is libm pow, which an array square does not match
            coef[row] = cos / nf ** 2, cos / na ** 2, nf * na
        dl_df = coef[:, :1] * f - a / coef[:, 2:]
        dl_da = coef[:, 1:2] * a - f / coef[:, 2:]
        counts = self._roi_count[items]
        per_cell = np.repeat(weights.w_ground * dl_df / counts[:, np.newaxis],
                             counts, axis=0)
        cells = [self._roi_cells[idx] for idx in items.tolist()]
        np.add.at(grads["features"], (np.concatenate([c[0] for c in cells]),
                                      np.concatenate([c[1] for c in cells])),
                  per_cell)
        np.add.at(grads["anchors"], self._anchor_ids[items],
                  weights.w_ground * dl_da)
        return loss

    def _add_attention(self, items, targets, weights, grads) -> np.ndarray:
        """Medium items' KL(attention || soft mask), as rows; adds its gradient."""
        for t in targets:
            if t is None:
                raise ValidationError("medium stage needs a target attention mask")
            if np.shape(t) != self.grid_dims:
                raise ValidationError(
                    f"shape mismatch: attn {self.grid_dims} vs target {np.shape(t)}")
        z = self.attn_logits[items].reshape(items.size, -1)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        attention = e / e.sum(axis=1, keepdims=True)
        target = np.array(targets, dtype=float).reshape(items.size, -1)
        kl, g_attn = kl_rows(attention, target)
        np.add.at(grads["attn_logits"], items,
                  (weights.w_attn * g_attn).reshape((-1,) + self.grid_dims))
        return kl

    def batch_loss_and_grads(
        self, indices: Sequence[int], stages: Sequence,
        targets: Sequence[Optional[np.ndarray]],
        weights: StageLossWeights = StageLossWeights(),
    ) -> Tuple[List[StageLossBreakdown], Dict[str, np.ndarray]]:
        """Per-item breakdowns in batch order, and the batch-mean gradient."""
        if not (len(indices) == len(stages) == len(targets)):
            raise ValidationError("indices, stages and targets must align")
        if not indices:
            raise ValidationError("empty batch")
        grads = {key: np.zeros_like(value) for key, value in self._params().items()}
        breakdowns = self._add_loss_grads(indices, stages, targets, weights, grads)
        scale = 1.0 / len(indices)
        for key in grads:
            grads[key] *= scale
        return breakdowns, grads

    def step(self, grads: Dict[str, np.ndarray], lr: float):
        for key in PARAM_KEYS:
            setattr(self, key, self._params()[key] - lr * grads[key])

