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

A batch costs what its items cost, not what the corpus costs. One routine,
``batch_loss_and_grads``, computes every loss and gradient; one item is a
batch of one. Its losses come back as one record of per-item arrays,
``StageLosses``, which one ``stage_loss`` call per batch combines. The batch
gradient carries only the Medium items' attention rows, and a step updates
the parameter arrays in place, touching only those rows of the per-item
attention logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NonNegative, NonNegativeInt, Record, ValidationError, checked, in_range
from .forge import VqaCotRecord, split_sentences
from .geometry import BBox, GridDims, box_span, kl_rows
from .scheduler import _EASY, _MEDIUM, Stage

PARAM_KEYS = ("ans_logits", "cot_logits", "attn_logits", "features", "anchors")
# the parameters whose batch gradient is a full-size array; the attention
# logits get only the batch's Medium rows
_DENSE_KEYS = ("ans_logits", "cot_logits", "features", "anchors")

# Largest accepted feature dimension; the feature grid is allocated up front.
MAX_FEATURE_DIM = 4096
FeatureDim = Annotated[int, in_range(1, MAX_FEATURE_DIM)]


@dataclass(frozen=True)
class StageLossWeights(Record):
    """The stage recipe's weights. The defaults tilt Easy totals toward
    grounding and keep the shared answer/rationale heads from drowning out
    the stage gap."""

    w_ans: NonNegative = 0.25
    w_cot: NonNegative = 0.25
    w_ground: NonNegative = 2.0
    w_attn: NonNegative = 1.0


class StageLosses(NamedTuple):
    """A batch's losses, one float per item in batch order. A component the
    item's stage does not use is NaN; Hard items use the answer alone."""

    total: np.ndarray
    answer: np.ndarray
    cot: np.ndarray
    grounding: np.ndarray
    attention: np.ndarray


def stage_loss(easy: np.ndarray, medium: np.ndarray, weights: StageLossWeights,
               answer: np.ndarray, cot: np.ndarray, grounding: np.ndarray,
               attention: np.ndarray) -> StageLosses:
    """A batch's components combined by the stage recipe; ``easy`` and
    ``medium`` index those items, and every other item is Hard.

    Easy weighs answer, rationale and grounding; Medium weighs answer,
    rationale and attention; Hard is the answer loss alone, whatever the
    weights. Totals are those of Python floats: an overflow gives inf, not
    an error, so the caller's finite check names the item.
    """
    total = answer.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        total[easy] = (weights.w_ans * answer[easy] + weights.w_cot * cot[easy]
                       + weights.w_ground * grounding[easy])
        total[medium] = (weights.w_ans * answer[medium] + weights.w_cot * cot[medium]
                         + weights.w_attn * attention[medium])
    return StageLosses(total, answer, cot, grounding, attention)


def roi_cells(boxes: Sequence[BBox], grid_dims: GridDims) -> np.ndarray:
    """Boolean ``(len(boxes), gh, gw)`` grids of the cells whose centers fall
    inside each box.

    Each box's cells are its ``box_span`` on the grid read as a raster. A
    box too small to cover any center selects the single cell containing
    the box center, so pooling never sees an empty region.
    """
    gh, gw = checked("grid_dims", grid_dims, GridDims)
    cells = np.zeros((len(boxes), gh, gw), dtype=bool)
    for k, b in enumerate(boxes):
        r0, r1, c0, c1 = box_span(b, gh, gw)
        if r0 == r1:
            r0 = min(gh - 1, int((b.y1 * gh + b.y2 * gh) / 2))
            c0 = min(gw - 1, int((b.x1 * gw + b.x2 * gw) / 2))
            r1, c1 = r0 + 1, c0 + 1
        cells[k, r0:r1, c0:c1] = True
    return cells


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


class ToyModel:
    def __init__(self, items: Sequence[VqaCotRecord], grid_dims=(8, 8),
                 feature_dim: int = 16, seed: int = 0):
        if not items:
            raise ValidationError("toy model needs at least one item")
        self.items: List[VqaCotRecord] = list(items)
        self.grid_dims = checked("grid_dims", grid_dims, GridDims)
        self.feature_dim = checked("feature_dim", feature_dim, FeatureDim)

        self.answer_vocab = sorted({r.answer for r in self.items})
        self._answer_index = {a: i for i, a in enumerate(self.answer_vocab)}
        self.answer_ids = np.array([self._answer_index[r.answer] for r in self.items],
                                   dtype=np.intp)

        sentences = [split_sentences(r.cot) for r in self.items]
        self.cot_vocab = sorted({s for ss in sentences for s in ss})
        cot_index = {s: i for i, s in enumerate(self.cot_vocab)}
        self.cot_ids = [[cot_index[s] for s in ss] for ss in sentences]

        self.anchor_keys = sorted({(r.domain.lesion_class, r.answer)
                                   for r in self.items})
        anchor_index = {k: i for i, k in enumerate(self.anchor_keys)}
        self.anchor_ids = np.array(
            [anchor_index[(r.domain.lesion_class, r.answer)] for r in self.items],
            dtype=np.intp)

        # cell memberships are fixed by the boxes, so compute them once: each
        # item's ROI as flat cell indices in row-major order, padded to the
        # largest ROI
        cells = roi_cells([r.box for r in self.items],
                          self.grid_dims).reshape(len(self.items), -1)
        self._roi_count = np.count_nonzero(cells, axis=1)
        self._roi_flat = np.zeros((len(self.items), int(self._roi_count.max())),
                                  dtype=np.intp)
        self._roi_flat[np.arange(self._roi_flat.shape[1])
                       < self._roi_count[:, np.newaxis]] = np.nonzero(cells)[1]
        # sentence ids padded to the longest rationale, and at each position
        # that sentence's share of the rationale: the rationale head's target
        self._cot_len = np.array([len(ids) for ids in self.cot_ids])
        width = int(self._cot_len.max())
        used = np.arange(width) < self._cot_len[:, np.newaxis]
        self._cot_pad = np.zeros((len(self.items), width), dtype=np.intp)
        self._cot_pad[used] = [i for ids in self.cot_ids for i in ids]
        counts = ((self._cot_pad[:, :, np.newaxis] == self._cot_pad[:, np.newaxis, :])
                  & used[:, np.newaxis, :]).sum(axis=2)
        self._cot_share = np.divide(counts, self._cot_len[:, np.newaxis],
                                    out=np.zeros(used.shape), where=used)

        rng = np.random.default_rng(checked("seed", seed, NonNegativeInt))
        gh, gw = self.grid_dims
        self.ans_logits = np.zeros(len(self.answer_vocab))
        self.cot_logits = np.zeros(len(self.cot_vocab))
        self.attn_logits = np.zeros((len(self.items), gh, gw))
        self.features = rng.normal(0.0, 0.1, size=(gh, gw, self.feature_dim))
        self.anchors = rng.normal(0.0, 0.1,
                                  size=(len(self.anchor_keys), self.feature_dim))

    # ----- losses and gradients -----

    def item_loss_and_grads(
        self, idx: int, stage: Union[Stage, str],
        target_attention: Optional[np.ndarray] = None,
        weights: Optional[StageLossWeights] = None,
    ) -> Tuple[StageLosses, Dict[str, np.ndarray]]:
        """One item's losses and gradient: the one-item batch."""
        return self.batch_loss_and_grads([idx], [stage], [target_attention], weights)

    def batch_loss_and_grads(
        self, indices: Sequence[int], stages: Sequence,
        targets: Sequence[Optional[np.ndarray]],
        weights: Optional[StageLossWeights] = None,
    ) -> Tuple[StageLosses, Dict[str, np.ndarray]]:
        """The per-item losses in batch order, and the batch-mean gradient.

        ``weights`` defaults to ``StageLossWeights()``. The gradient holds
        one full-size array per head, feature grid and anchor table. The
        attention logits get rows only:
        ``grads["attn_logits"][k]`` is the gradient of the item
        ``grads["attn_rows"][k]``, for the batch's sorted unique Medium
        items; every other item's attention gradient is zero.

        Parameters do not change inside a batch, so each head's softmax is
        computed once and the Medium attention rows as one array.
        ``stage_loss`` combines the components in one call, and every buffer
        receives its items' contributions in batch order (``np.add.at`` adds
        repeated indices in turn), so the results are bit for bit those of
        adding the items one at a time.
        """
        if not (len(indices) == len(stages) == len(targets)):
            raise ValidationError("indices, stages and targets must align")
        if not indices:
            raise ValidationError("empty batch")
        if weights is None:
            weights = StageLossWeights()
        stages = [s if type(s) is Stage else Stage(s) for s in stages]
        items = np.asarray(indices, dtype=np.intp)
        for idx in (int(items.min()), int(items.max())):
            if not 0 <= idx < len(self.items):
                raise ValidationError(f"item index {idx} out of range")
        n = items.size
        grads = {key: np.zeros_like(getattr(self, key)) for key in _DENSE_KEYS}
        is_easy, is_medium = (np.array([s is want for s in stages])
                              for want in (_EASY, _MEDIUM))
        main, easy, medium = (np.flatnonzero(m) for m in
                              (is_easy | is_medium, is_easy, is_medium))
        l_cot, l_ground, l_attn = np.full((3, n), np.nan)

        answer_ids = self.answer_ids[items]
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
        rows, g_attn = np.empty(0, np.intp), np.zeros((0,) + self.grid_dims)
        if medium.size:
            l_attn[medium], rows, g_attn = self._attention_rows(
                items[medium], [targets[j] for j in medium], weights)
        grads["attn_rows"], grads["attn_logits"] = rows, g_attn

        losses = stage_loss(easy, medium, weights, l_ans, l_cot, l_ground, l_attn)
        scale = 1.0 / n
        for key in PARAM_KEYS:
            grads[key] *= scale
        return losses, grads

    def _add_grounding(self, items, weights, grads) -> np.ndarray:
        """Easy items' 1 - cosine(pooled ROI feature, anchor); adds its gradient.

        Bit for bit the per-item loop: each ROI mean sums its cells in order
        (items grouped by cell count), the stacked ``matmul`` dots run the
        BLAS ``ddot`` that ``ndarray.dot`` runs, and the norms are squared
        with libm ``pow``, as a scalar ``** 2`` is (an array square differs).
        The dots read rows of ``(m, d)`` arrays, as the loop did: some BLAS
        kernels sum in an order that follows a vector's alignment.
        """
        counts = self._roi_count[items]
        flat = self._roi_flat[items]
        cell_features = self.features.reshape(-1, self.feature_dim)
        f = np.empty((items.size, self.feature_dim))
        for k in np.unique(counts).tolist():
            sel = np.flatnonzero(counts == k)
            # the ROI mean, as ndarray.mean computes it
            f[sel] = np.add.reduce(cell_features[flat[sel, :k]], axis=1) / k
        a = self.anchors[self.anchor_ids[items]]
        nf = np.sqrt(np.matmul(f[:, np.newaxis], f[:, :, np.newaxis]).ravel())
        na = np.sqrt(np.matmul(a[:, np.newaxis], a[:, :, np.newaxis]).ravel())
        if not (nf.all() and na.all()):
            raise ValidationError("grounding is undefined for a zero-norm vector")
        nfna = nf * na
        cos = np.matmul(f[:, np.newaxis], a[:, :, np.newaxis]).ravel() / nfna
        nf2, na2 = (np.array([math.pow(x, 2) for x in v.tolist()]) for v in (nf, na))
        dl_df = (cos / nf2)[:, np.newaxis] * f - a / nfna[:, np.newaxis]
        dl_da = (cos / na2)[:, np.newaxis] * a - f / nfna[:, np.newaxis]
        per_cell = np.repeat(weights.w_ground * dl_df / counts[:, np.newaxis],
                             counts, axis=0)
        used = np.arange(flat.shape[1]) < counts[:, np.newaxis]
        np.add.at(grads["features"], np.divmod(flat[used], self.grid_dims[1]),
                  per_cell)
        np.add.at(grads["anchors"], self.anchor_ids[items],
                  weights.w_ground * dl_da)
        return 1.0 - cos

    def _attention_rows(self, items, targets, weights):
        """Medium items' KL(attention || soft mask), and its gradient as rows.

        The rows are the sorted unique items; each sums its items'
        gradients in batch order, as ``np.add.at`` on a full-size buffer
        would, so repeated items stay exact.
        """
        for t in targets:
            if t is None:
                raise ValidationError("medium stage needs a target attention mask")
            if np.shape(t) != self.grid_dims:
                raise ValidationError(
                    f"shape mismatch: attn {self.grid_dims} vs target {np.shape(t)}")
        attention = _softmax(self.attn_logits[items].reshape(items.size, -1))
        target = np.array(targets, dtype=float).reshape(items.size, -1)
        kl, g_attn = kl_rows(attention, target)
        rows, inverse = np.unique(items, return_inverse=True)
        summed = np.zeros((rows.size,) + self.grid_dims)
        np.add.at(summed, inverse,
                  (weights.w_attn * g_attn).reshape((-1,) + self.grid_dims))
        return kl, rows, summed

    def step(self, grads: Dict[str, np.ndarray], lr: float):
        """One descent step ``p - lr * g``, in place, on the rows ``grads`` names.

        The attention logits outside ``grads["attn_rows"]`` are not touched.
        """
        for key in _DENSE_KEYS:
            param = getattr(self, key)
            param -= lr * grads[key]
        rows = grads["attn_rows"]
        self.attn_logits[rows] = self.attn_logits[rows] - lr * grads["attn_logits"]
