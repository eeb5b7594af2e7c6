"""Toy model gradient correctness.

Analytic gradients are the implementation under test; the numeric side is
central finite differences over the flattened parameter vector, computed
here from loss evaluations only. The two routes never share code.
"""

import math

import numpy as np
import pytest

from cotforge.errors import ValidationError
from cotforge.geometry import build_soft_mask
from cotforge.toymodel import PARAM_KEYS, Stage, StageLossWeights, ToyModel

from corpus_utils import tiny_corpus
from oracles import (
    batch_grad_vector,
    finite_difference_check,
    oracle_batch_loss,
    oracle_item_loss,
)

IMAGE_DIMS = (16, 16)
GRID_DIMS = (2, 2)


@pytest.fixture
def model():
    return ToyModel(tiny_corpus(), image_dims=IMAGE_DIMS, grid_dims=GRID_DIMS,
                    feature_dim=3, seed=0)


def item_grads(model, idx, stage, **kwargs):
    """One item's loss breakdown and its gradient, added into a zeroed buffer."""
    grads = {key: np.zeros_like(getattr(model, key)) for key in PARAM_KEYS}
    breakdown = model.item_loss_and_grads(idx, stage, grads=grads, **kwargs)
    return breakdown, grads


def targets_for(model):
    return [
        build_soft_mask(r.box, IMAGE_DIMS, GRID_DIMS, sigma=0.0, floor=1e-4)
        .grid for r in model.items
    ]


class TestConstruction:
    def test_vocab_sorted_and_deduplicated(self, model):
        assert model.answer_vocab == ["kidney", "liver", "lung"]
        assert model.answer_ids == [1, 0, 1, 2]
        assert len(model.anchor_keys) == 3  # (mass,liver),(cyst,kidney),(nodule,lung)

    def test_initial_answer_loss_is_log_vocab(self, model):
        # zero logits make the answer head uniform
        breakdown, _ = item_grads(model, 0, Stage.HARD)
        assert breakdown.total == pytest.approx(math.log(3.0), abs=1e-12)

    def test_same_seed_same_params(self):
        a = ToyModel(tiny_corpus(), image_dims=IMAGE_DIMS, grid_dims=GRID_DIMS,
                     feature_dim=3, seed=5)
        b = ToyModel(tiny_corpus(), image_dims=IMAGE_DIMS, grid_dims=GRID_DIMS,
                     feature_dim=3, seed=5)
        assert np.array_equal(a.param_vector(), b.param_vector())

    def test_param_vector_roundtrip(self, model):
        vec = model.param_vector()
        model.set_param_vector(vec * 1.5)
        assert np.allclose(model.param_vector(), vec * 1.5)
        model.set_param_vector(vec)
        assert np.array_equal(model.param_vector(), vec)

    def test_wrong_length_vector_rejected(self, model):
        with pytest.raises(ValidationError):
            model.set_param_vector(np.zeros(3))


class TestGradientStructure:
    def test_answer_grad_rows_sum_to_zero(self, model):
        _, grads = item_grads(model, 0, Stage.HARD)
        assert grads["ans_logits"].sum() == pytest.approx(0.0, abs=1e-12)

    def test_hard_grads_ignore_weights(self, model):
        w = StageLossWeights(w_ans=9.0, w_cot=2.0, w_ground=4.0, w_attn=8.0)
        _, g_weighted = item_grads(model, 0, Stage.HARD, weights=w)
        _, g_plain = item_grads(model, 0, Stage.HARD)
        for key in g_plain:
            assert np.array_equal(g_weighted[key], g_plain[key])

    def test_hard_touches_only_answer_head(self, model):
        _, grads = item_grads(model, 0, Stage.HARD)
        assert np.any(grads["ans_logits"] != 0.0)
        for key in ("cot_logits", "attn_logits", "features", "anchors"):
            assert not np.any(grads[key] != 0.0)

    def test_attention_grad_rows_sum_to_zero(self, model):
        target = targets_for(model)[0]
        _, grads = item_grads(model, 0, Stage.MEDIUM, target_attention=target)
        assert grads["attn_logits"][0].sum() == pytest.approx(0.0, abs=1e-12)
        # only the item's own attention grid moves
        assert not np.any(grads["attn_logits"][1:] != 0.0)

    @pytest.mark.parametrize("stage", [Stage.EASY, Stage.MEDIUM, Stage.HARD])
    def test_repeated_item_adds_its_gradient_twice(self, model, stage):
        # items add into the batch buffer, so a repeat must not overwrite
        target = targets_for(model)[0] if stage == Stage.MEDIUM else None
        _, once = model.batch_loss_and_grads([0], [stage], [target])
        _, twice = model.batch_loss_and_grads([0, 0], [stage] * 2, [target] * 2)
        for key in PARAM_KEYS:
            assert np.array_equal(twice[key], once[key])


class TestFiniteDifferenceChecker:
    def test_accepts_true_gradient(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        f = lambda x: 0.5 * x @ A @ x
        x = np.array([0.4, -1.2])
        err = finite_difference_check(f, A @ x, x)
        assert err < 1e-8

    def test_rejects_corrupted_gradient(self):
        f = lambda x: float(np.sum(x ** 2))
        x = np.array([1.0, 2.0])
        err = finite_difference_check(f, 2.0 * x + 0.5, x)
        assert err > 1e-2


def batch_setup(model, stage):
    indices = list(range(len(model.items)))
    targets = targets_for(model) if stage == Stage.MEDIUM else [None] * 4
    weights = StageLossWeights(w_ans=1.0, w_cot=0.7, w_ground=0.4, w_attn=0.6)

    def f(vec):
        model.set_param_vector(vec)
        return oracle_batch_loss(model, indices, [stage] * 4, targets, weights)

    def g(vec):
        model.set_param_vector(vec)
        return batch_grad_vector(model, indices, [stage] * 4, targets, weights)

    return f, g


# Hard items first, then Easy and Medium interleaved, item 1 twice as Medium
MIXED_INDICES = [2, 0, 3, 1, 0, 2, 1, 3]
MIXED_STAGES = [Stage.HARD, Stage.HARD, Stage.EASY, Stage.MEDIUM, Stage.EASY,
                Stage.MEDIUM, Stage.MEDIUM, Stage.EASY]
MIXED_WEIGHTS = StageLossWeights(w_ans=0.3, w_cot=0.7, w_ground=1.9, w_attn=0.6)


def mixed_targets(model):
    soft = targets_for(model)
    return [soft[i] if s == Stage.MEDIUM else None
            for i, s in zip(MIXED_INDICES, MIXED_STAGES)]


class TestGradientsMatchFiniteDifferences:
    @pytest.mark.parametrize("stage", [Stage.EASY, Stage.MEDIUM, Stage.HARD])
    def test_stage_total_gradient(self, model, stage):
        f, g = batch_setup(model, stage)
        rng = np.random.default_rng(42)
        base = model.param_vector()
        for _ in range(3):
            x = base + rng.normal(0.0, 0.2, size=base.shape)
            err = finite_difference_check(f, g(x), x)
            assert err <= 1e-5, f"{stage}: max rel err {err}"

    def test_mixed_stage_batch_gradient(self, model):
        targets = mixed_targets(model)

        def f(vec):
            model.set_param_vector(vec)
            return oracle_batch_loss(model, MIXED_INDICES, MIXED_STAGES,
                                     targets, MIXED_WEIGHTS)

        rng = np.random.default_rng(43)
        base = model.param_vector()
        for _ in range(3):
            x = base + rng.normal(0.0, 0.2, size=base.shape)
            model.set_param_vector(x)
            g = batch_grad_vector(model, MIXED_INDICES, MIXED_STAGES, targets,
                                  MIXED_WEIGHTS)
            err = finite_difference_check(f, g, x)
            assert err <= 1e-5, f"mixed batch: max rel err {err}"


class TestBatchMatchesItems:
    """One pass over a mixed batch gives, bit for bit, what the items give
    one at a time: the oracle's losses, and the gradients summed in order."""

    @pytest.fixture
    def moved(self, model):
        rng = np.random.default_rng(7)
        base = model.param_vector()
        model.set_param_vector(base + rng.normal(0.0, 0.3, size=base.shape))
        return model

    def test_breakdowns_equal_the_oracle(self, moved):
        targets = mixed_targets(moved)
        breakdowns, _ = moved.batch_loss_and_grads(
            MIXED_INDICES, MIXED_STAGES, targets, MIXED_WEIGHTS)
        for got, i, s, t in zip(breakdowns, MIXED_INDICES, MIXED_STAGES, targets):
            want = oracle_item_loss(moved, i, s, target_attention=t,
                                    weights=MIXED_WEIGHTS)
            assert got == want  # every field, exactly

    def test_gradient_equals_items_added_in_order(self, moved):
        targets = mixed_targets(moved)
        _, batch = moved.batch_loss_and_grads(
            MIXED_INDICES, MIXED_STAGES, targets, MIXED_WEIGHTS)
        one_by_one = {key: np.zeros_like(getattr(moved, key)) for key in PARAM_KEYS}
        for i, s, t in zip(MIXED_INDICES, MIXED_STAGES, targets):
            moved.item_loss_and_grads(i, s, t, MIXED_WEIGHTS, grads=one_by_one)
        for key in PARAM_KEYS:
            assert np.array_equal(batch[key],
                                  one_by_one[key] * (1.0 / len(MIXED_INDICES)))


class TestTraining:
    def test_full_batch_steps_reduce_easy_loss(self, model):
        indices = list(range(len(model.items)))
        stages = [Stage.EASY] * 4
        targets = [None] * 4
        weights = StageLossWeights()
        losses = []
        for _ in range(5):
            breakdowns, grads = model.batch_loss_and_grads(indices, stages,
                                                           targets, weights)
            losses.append(np.mean([b.total for b in breakdowns]))
            model.step(grads, lr=0.05)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_medium_training_pulls_attention_toward_target(self, model):
        target = targets_for(model)[0]
        weights = StageLossWeights()
        before = item_grads(model, 0, Stage.MEDIUM,
                            target_attention=target)[0].attention
        for _ in range(20):
            _, grads = item_grads(model, 0, Stage.MEDIUM,
                                  target_attention=target, weights=weights)
            model.step(grads, lr=0.5)
        after = item_grads(model, 0, Stage.MEDIUM,
                           target_attention=target)[0].attention
        assert after < before


class TestValidation:
    def test_medium_needs_target(self, model):
        with pytest.raises(ValidationError):
            item_grads(model, 0, Stage.MEDIUM)

    def test_nan_attention_makes_the_loss_nan(self, model):
        # a NaN cell counts in the divergence, so the finite check downstream sees it
        model.attn_logits[0] = np.nan
        [breakdown], grads = model.batch_loss_and_grads(
            [0], [Stage.MEDIUM], [targets_for(model)[0]])
        assert math.isnan(breakdown.attention)
        assert math.isnan(breakdown.total)
        assert np.isnan(grads["attn_logits"][0]).all()

    def test_unknown_index_rejected(self, model):
        with pytest.raises(ValidationError):
            item_grads(model, 99, Stage.HARD)

    def test_batch_shape_mismatch_rejected(self, model):
        with pytest.raises(ValidationError):
            model.batch_loss_and_grads([0, 1], [Stage.HARD], [None, None],
                                       StageLossWeights())
