"""The loss oracle's stage recipes against frozen values, and the ROI cells."""

import math

import numpy as np
import pytest

from cotforge.errors import ValidationError
from cotforge.geometry import BBox
from cotforge.toymodel import Stage, StageLossWeights, roi_cells

from oracles import (
    ModelOutputs,
    oracle_grounding_loss,
    oracle_kl,
    oracle_nll_loss,
    oracle_stage_loss,
)


class TestNll:
    def test_uniform_over_four_tokens(self):
        logprobs = np.log(np.array([0.25, 0.25]))
        assert oracle_nll_loss(logprobs) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_single_token(self):
        assert oracle_nll_loss(np.array([-1.5])) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            oracle_nll_loss(np.array([]))

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValidationError):
            oracle_nll_loss(np.array([0.1]))


class TestGrounding:
    def test_identical_vectors_give_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert oracle_grounding_loss(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_gives_one(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert oracle_grounding_loss(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_gives_two(self):
        a = np.array([1.0, 1.0])
        assert oracle_grounding_loss(a, -a) == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariant(self):
        a = np.array([0.3, -0.7, 0.2])
        b = np.array([1.1, 0.4, -0.9])
        assert oracle_grounding_loss(a, b) == pytest.approx(oracle_grounding_loss(3.0 * a, 0.5 * b))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValidationError):
            oracle_grounding_loss(np.zeros(3), np.ones(3))


class TestRoi:
    def test_left_half_selects_left_columns(self):
        # 4x4 grid on 64x64: cell centers at columns 8,24,40,56; a box over
        # x in [0,32] contains 8 and 24 (closed test), so 2 columns x 4 rows
        cells = roi_cells(BBox(0.0, 0.0, 0.5, 1.0), (64, 64), (4, 4))
        assert cells.sum() == 8
        assert cells[:, :2].all() and not cells[:, 2:].any()

    def test_full_box_selects_everything(self):
        cells = roi_cells(BBox(0.0, 0.0, 1.0, 1.0), (64, 64), (4, 4))
        assert cells.all()

    def test_tiny_box_falls_back_to_center_cell(self):
        cells = roi_cells(BBox(0.26, 0.26, 0.30, 0.30), (64, 64), (4, 4))
        assert cells.sum() == 1
        assert cells[1, 1]


def outputs_for(stage, answer=(-0.5,), cot=(-0.3,), with_grounding=True,
                with_attention=True):
    attn = None
    if with_attention:
        attn = np.full((2, 2), 0.25)
    feature = np.array([1.0, 0.0]) if with_grounding else None
    anchor = np.array([0.0, 1.0]) if with_grounding else None
    return ModelOutputs(
        answer_logprobs=np.array(answer),
        cot_logprobs=None if cot is None else np.array(cot),
        attention=attn,
        feature_vec=feature,
        anchor_vec=anchor,
        box=BBox(0.1, 0.1, 0.6, 0.6),
    )


class TestStageLoss:
    def test_easy_frozen_sum(self):
        # answer 0.5, cot 0.3, grounding 0.2 with unit weights -> 1.0
        out = ModelOutputs(
            answer_logprobs=np.array([-0.5]),
            cot_logprobs=np.array([-0.3]),
            attention=None,
            feature_vec=np.array([1.0, 0.0]),
            anchor_vec=np.array([0.8, 0.6]),  # cos = 0.8 -> grounding 0.2
            box=None,
        )
        breakdown = oracle_stage_loss(Stage.EASY, out)
        assert breakdown.answer == pytest.approx(0.5, abs=1e-12)
        assert breakdown.cot == pytest.approx(0.3, abs=1e-12)
        assert breakdown.grounding == pytest.approx(0.2, abs=1e-12)
        assert breakdown.attention is None
        assert breakdown.total == pytest.approx(1.0, abs=1e-12)

    def test_easy_weighted(self):
        out = outputs_for(Stage.EASY)
        w = StageLossWeights(w_ans=2.0, w_cot=0.5, w_ground=0.25)
        breakdown = oracle_stage_loss(Stage.EASY, out, weights=w)
        expected = 2.0 * 0.5 + 0.5 * 0.3 + 0.25 * 1.0
        assert breakdown.total == pytest.approx(expected, abs=1e-12)

    def test_medium_uses_attention_divergence(self):
        target = np.array([[0.4, 0.1], [0.3, 0.2]])
        attn = np.full((2, 2), 0.25)
        out = ModelOutputs(
            answer_logprobs=np.array([-0.5]),
            cot_logprobs=np.array([-0.3]),
            attention=attn,
            feature_vec=None,
            anchor_vec=None,
            box=None,
        )
        breakdown = oracle_stage_loss(Stage.MEDIUM, out, target_attention=target)
        expected_kl = oracle_kl(attn.ravel(), target.ravel())
        assert breakdown.attention == pytest.approx(expected_kl, abs=1e-12)
        assert breakdown.grounding is None
        assert breakdown.total == pytest.approx(0.5 + 0.3 + expected_kl, abs=1e-12)

    def test_hard_is_answer_loss_alone_whatever_the_weights(self):
        out = ModelOutputs(
            answer_logprobs=np.array([-0.7, -0.1]),
            cot_logprobs=None,
            attention=None,
            feature_vec=None,
            anchor_vec=None,
            box=None,
        )
        w = StageLossWeights(w_ans=17.0, w_cot=3.0, w_ground=5.0, w_attn=7.0)
        breakdown = oracle_stage_loss(Stage.HARD, out, weights=w)
        assert breakdown.total == oracle_nll_loss(out.answer_logprobs)
        assert breakdown.cot is None
        assert breakdown.grounding is None
        assert breakdown.attention is None

    def test_easy_requires_grounding_vectors(self):
        out = outputs_for(Stage.EASY, with_grounding=False)
        with pytest.raises(ValidationError, match="grounding"):
            oracle_stage_loss(Stage.EASY, out)

    def test_easy_requires_rationale(self):
        out = outputs_for(Stage.EASY, cot=None)
        with pytest.raises(ValidationError, match="rationale"):
            oracle_stage_loss(Stage.EASY, out)

    def test_medium_requires_attention_and_target(self):
        out = outputs_for(Stage.MEDIUM, with_attention=False)
        with pytest.raises(ValidationError, match="attention"):
            oracle_stage_loss(Stage.MEDIUM, out, target_attention=np.full((2, 2), 0.25))
        out = outputs_for(Stage.MEDIUM)
        with pytest.raises(ValidationError, match="target"):
            oracle_stage_loss(Stage.MEDIUM, out)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            StageLossWeights(w_ans=-1.0)

    def test_stage_accepts_plain_strings(self):
        out = outputs_for(Stage.HARD)
        breakdown = oracle_stage_loss("hard", out)
        assert breakdown.total == pytest.approx(0.5)
