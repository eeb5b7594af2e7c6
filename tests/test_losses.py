"""The loss oracle's stage recipes against frozen values, and the ROI cells."""

import math

import numpy as np
import pytest

from cotforge.errors import ValidationError
from cotforge.geometry import BBox
from cotforge.toymodel import Stage, StageLossWeights, roi_cells

from oracles import (
    ModelOutputs,
    oracle_box_span,
    oracle_grounding_loss,
    oracle_kl,
    oracle_nll_loss,
    oracle_roi_cells,
    oracle_stage_loss,
)


def boundary_edge(rng, n):
    """A box edge on a multiple of 1 / (4n) of an n-cell axis (every cell
    edge, center and quarter) or one ulp either side, inside [0, 1]."""
    x = int(rng.integers(0, 4 * n + 1)) / (4 * n)
    return float(np.nextafter(x, rng.choice([0.0, x, 1.0])))


def boundary_boxes(rng, gh, gw, count):
    """Boxes with every edge at a grid boundary, an ulp off one, or between
    two cell centers; about half cover no cell center on some axis."""
    boxes = []
    while len(boxes) < count:
        y1, y2 = sorted(boundary_edge(rng, gh) for _ in range(2))
        x1, x2 = sorted(boundary_edge(rng, gw) for _ in range(2))
        if rng.random() < 0.5:  # squeeze one axis between neighbouring centers
            k = int(rng.integers(-1, gh))
            y1, y2 = sorted(min(1.0, max(0.0, (k + 0.5 + u) / gh))
                            for u in rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=2))
        if y1 < y2 and x1 < x2:
            boxes.append(BBox(x1, y1, x2, y2))
    return boxes


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
        # 4x4 grid: cell centers at columns 0.5, 1.5, 2.5, 3.5; a box over
        # x in [0, 2] contains 0.5 and 1.5 (closed test), so 2 columns x 4 rows
        [cells] = roi_cells([BBox(0.0, 0.0, 0.5, 1.0)], (4, 4))
        assert cells.sum() == 8
        assert cells[:, :2].all() and not cells[:, 2:].any()

    def test_full_box_selects_everything(self):
        [cells] = roi_cells([BBox(0.0, 0.0, 1.0, 1.0)], (4, 4))
        assert cells.all()

    def test_tiny_box_falls_back_to_center_cell(self):
        [cells] = roi_cells([BBox(0.26, 0.26, 0.30, 0.30)], (4, 4))
        assert cells.sum() == 1
        assert cells[1, 1]

    def test_boxes_together_match_boxes_one_at_a_time(self):
        # two fallback boxes among covering ones: each falls back in its own grid
        boxes = [BBox(0.0, 0.0, 0.5, 1.0), BBox(0.26, 0.26, 0.30, 0.30),
                 BBox(0.0, 0.0, 1.0, 1.0), BBox(0.80, 0.55, 0.85, 0.60)]
        together = roi_cells(boxes, (4, 4))
        assert together.shape == (4, 4, 4)
        for box, cells in zip(boxes, together):
            assert np.array_equal(cells, roi_cells([box], (4, 4))[0])
        assert together[3].sum() == 1 and together[3][2, 3]

    @pytest.mark.parametrize("grid_dims", [(1, 1), (2, 4), (8, 8), (64, 16),
                                           (3, 3), (5, 7), (37, 6), (1, 9)])
    def test_matches_oracle_on_boundary_boxes(self, grid_dims):
        rng = np.random.default_rng(grid_dims[0] * 100 + grid_dims[1])
        boxes = boundary_boxes(rng, *grid_dims, 400)
        got = roi_cells(boxes, grid_dims)
        fallbacks = 0
        for box, cells in zip(boxes, got):
            assert np.array_equal(cells, oracle_roi_cells(box, grid_dims)), box
            fallbacks += oracle_box_span(box, *grid_dims) == (0, 0, 0, 0)
        assert fallbacks >= 50  # the single-cell fallback is exercised

    def test_fallback_center_on_a_cell_edge_takes_the_later_cell(self):
        # y in [0.75, 1.25] cells: no center, and the box center is the edge 1
        [cells] = roi_cells([BBox(0.75 / 4, 0.75 / 4, 1.25 / 4, 1.25 / 4)], (4, 4))
        assert np.array_equal(np.argwhere(cells), [[1, 1]])

    def test_non_positive_grid_rejected(self):
        for grid_dims, fault in (((0, 4), "[0]' must be at least 1, got 0"),
                                 ((4, 0), "[1]' must be at least 1, got 0"),
                                 ((-1, 2), "[0]' must be at least 1, got -1")):
            with pytest.raises(ValidationError) as info:
                roi_cells([BBox(0.0, 0.0, 1.0, 1.0)], grid_dims)
            assert str(info.value) == f"field 'grid_dims{fault}"

    @pytest.mark.parametrize("grid_dims, fault", [
        ((2.0, 2.0), "[0]' must be an integer, got a number"),
        ((True, 2), "[0]' must be an integer, got true or false"),
        ((100000, 100000), "' must have at most 4096 cells, got [100000, 100000]"),
    ], ids=["floats", "bool", "cells"])
    def test_grid_dims_follow_the_grid_rule(self, monkeypatch, grid_dims, fault):
        # these once ended in numpy's TypeError, or its MemoryError for 9.31 GiB
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the grid was checked")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValidationError) as info:
            roi_cells([BBox(0.1, 0.1, 0.5, 0.5)], grid_dims)
        assert str(info.value) == f"field 'grid_dims{fault}"


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


UNIT_WEIGHTS = StageLossWeights(w_ans=1.0, w_cot=1.0, w_ground=1.0, w_attn=1.0)


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
        breakdown = oracle_stage_loss(Stage.EASY, out, weights=UNIT_WEIGHTS)
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
        breakdown = oracle_stage_loss(Stage.MEDIUM, out, target_attention=target,
                                      weights=UNIT_WEIGHTS)
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
