"""A deliberately small VQA model for exercising the curriculum end to end.

The model factors the task into independent pieces that still touch every
loss component: a unigram answer head, a unigram rationale head over
sentences, one attention logit grid per item, a shared spatial feature map
pooled over the lesion box, and one anchor vector per (lesion, answer)
pair. All gradients are derived in closed form; finite differences are
kept as a separate evaluation-only route so the two can disagree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError
from .forge import VqaCotRecord, split_sentences
from .geometry import kl_attn_logit_grad
from .losses import (
    ModelOutputs,
    Stage,
    StageLossBreakdown,
    StageLossWeights,
    roi_cells,
    stage_loss,
)

PARAM_KEYS = ("ans_logits", "cot_logits", "attn_logits", "features", "anchors")


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
        self._roi = [roi_cells(r.box, self.image_dims, self.grid_dims)
                     for r in self.items]

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

    # ----- forward -----

    def forward(self, idx: int, stage: Union[Stage, str]) -> ModelOutputs:
        stage = Stage(stage)
        self._check_idx(idx)
        item = self.items[idx]
        lp_ans = _log_softmax(self.ans_logits)
        answer_logprobs = np.array([lp_ans[self.answer_ids[idx]]])
        if stage == Stage.HARD:
            return ModelOutputs(answer_logprobs=answer_logprobs, box=item.box)

        ids = self.cot_ids[idx]
        lp_cot = _log_softmax(self.cot_logits)
        cot_logprobs = lp_cot[ids] if ids else None
        attention = _softmax(self.attn_logits[idx].ravel()).reshape(self.grid_dims)
        feature_vec = self.features[self._roi[idx]].mean(axis=0)
        anchor_vec = self.anchors[self.anchor_ids[idx]]
        return ModelOutputs(
            answer_logprobs=answer_logprobs,
            cot_logprobs=cot_logprobs,
            attention=attention,
            feature_vec=feature_vec,
            anchor_vec=anchor_vec,
            box=item.box,
        )

    # ----- losses and gradients -----

    def item_loss(self, idx: int, stage: Union[Stage, str],
                  target_attention: Optional[np.ndarray] = None,
                  weights: StageLossWeights = StageLossWeights()) -> StageLossBreakdown:
        return stage_loss(stage, self.forward(idx, stage),
                          target_attention=target_attention, weights=weights)

    def item_loss_and_grads(
        self, idx: int, stage: Union[Stage, str],
        target_attention: Optional[np.ndarray] = None,
        weights: StageLossWeights = StageLossWeights(),
        *, grads: Dict[str, np.ndarray],
    ) -> StageLossBreakdown:
        """Add this item's loss gradient into ``grads`` in place.

        Only the rows the item touches are updated, so a call allocates
        nothing of parameter size; the caller owns (and zeroes) the buffer.
        """
        stage = Stage(stage)
        outputs = self.forward(idx, stage)
        breakdown = stage_loss(stage, outputs,
                               target_attention=target_attention, weights=weights)

        g_ans = _softmax(self.ans_logits)
        g_ans[self.answer_ids[idx]] -= 1.0
        if stage == Stage.HARD:
            grads["ans_logits"] += g_ans
            return breakdown
        grads["ans_logits"] += weights.w_ans * g_ans

        ids = self.cot_ids[idx]
        counts = np.bincount(ids, minlength=len(self.cot_vocab)).astype(float)
        p_cot = _softmax(self.cot_logits)
        grads["cot_logits"] += weights.w_cot * (p_cot - counts / len(ids))

        if stage == Stage.EASY:
            f = outputs.feature_vec
            a = outputs.anchor_vec
            nf = np.linalg.norm(f)
            na = np.linalg.norm(a)
            cos = f.dot(a) / (nf * na)
            dl_df = (cos / nf ** 2) * f - a / (nf * na)
            dl_da = (cos / na ** 2) * a - f / (nf * na)
            cells = self._roi[idx]
            grads["features"][cells] += weights.w_ground * dl_df / cells.sum()
            grads["anchors"][self.anchor_ids[idx]] += weights.w_ground * dl_da
        else:
            grads["attn_logits"][idx] += weights.w_attn * kl_attn_logit_grad(
                outputs.attention, target_attention
            )
        return breakdown

    def _check_batch(self, indices, stages, targets):
        if not (len(indices) == len(stages) == len(targets)):
            raise ValidationError("indices, stages and targets must align")
        if not indices:
            raise ValidationError("empty batch")

    def batch_loss(self, indices: Sequence[int], stages: Sequence,
                   targets: Sequence[Optional[np.ndarray]],
                   weights: StageLossWeights = StageLossWeights()) -> float:
        """Mean stage-total loss; evaluation only, shares no gradient code."""
        self._check_batch(indices, stages, targets)
        totals = [
            self.item_loss(i, s, target_attention=t, weights=weights).total
            for i, s, t in zip(indices, stages, targets)
        ]
        return float(np.mean(totals))

    def batch_loss_and_grads(
        self, indices: Sequence[int], stages: Sequence,
        targets: Sequence[Optional[np.ndarray]],
        weights: StageLossWeights = StageLossWeights(),
    ) -> Tuple[List[StageLossBreakdown], Dict[str, np.ndarray]]:
        """Per-item breakdowns in batch order, and the batch-mean gradient."""
        self._check_batch(indices, stages, targets)
        grads = {key: np.zeros_like(value) for key, value in self._params().items()}
        breakdowns = [
            self.item_loss_and_grads(i, s, t, weights, grads=grads)
            for i, s, t in zip(indices, stages, targets)
        ]
        scale = 1.0 / len(indices)
        for key in grads:
            grads[key] *= scale
        return breakdowns, grads

    def batch_grad_vector(self, indices, stages, targets,
                          weights: StageLossWeights = StageLossWeights()) -> np.ndarray:
        _, grads = self.batch_loss_and_grads(indices, stages, targets, weights)
        return np.concatenate([grads[k].ravel() for k in PARAM_KEYS])

    def step(self, grads: Dict[str, np.ndarray], lr: float):
        for key in PARAM_KEYS:
            setattr(self, key, self._params()[key] - lr * grads[key])


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
