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
from .geometry import kl_rows
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
        feature_vec = self.features[self._roi_cells[idx]].mean(axis=0)
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

        The one-item case of the batch routine. Only the rows the item
        touches are updated; the caller owns (and zeroes) the buffer.
        """
        return self._add_loss_grads([idx], [stage], [target_attention],
                                    weights, grads)[0]

    def _add_loss_grads(self, indices, stages, targets, weights,
                        grads) -> List[StageLossBreakdown]:
        """Every item's breakdown; each item's gradient added into ``grads``.

        Parameters do not change inside a batch, so each head's softmax is
        computed once and the Medium attention rows as one array. Every loss
        uses the float expressions of ``losses.stage_loss``, and every buffer
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
                # a row adds up in the order a 1-D sum does: nll_loss's mean
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

        l_ans, l_cot, l_ground, l_attn = (
            v.tolist() for v in (l_ans, l_cot, l_ground, l_attn))
        breakdowns = []
        for j, stage in enumerate(stages):
            if stage == Stage.HARD:
                breakdowns.append(StageLossBreakdown(
                    stage=stage, total=l_ans[j], answer=l_ans[j]))
            elif stage == Stage.EASY:
                total = (weights.w_ans * l_ans[j] + weights.w_cot * l_cot[j]
                         + weights.w_ground * l_ground[j])
                breakdowns.append(StageLossBreakdown(
                    stage=stage, total=total, answer=l_ans[j], cot=l_cot[j],
                    grounding=l_ground[j]))
            else:
                total = (weights.w_ans * l_ans[j] + weights.w_cot * l_cot[j]
                         + weights.w_attn * l_attn[j])
                breakdowns.append(StageLossBreakdown(
                    stage=stage, total=total, answer=l_ans[j], cot=l_cot[j],
                    attention=l_attn[j]))
        return breakdowns

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
        breakdowns = self._add_loss_grads(indices, stages, targets, weights, grads)
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
