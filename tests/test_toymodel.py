"""Toy model gradient correctness.

Analytic gradients are the implementation under test; the numeric side is
central finite differences over the flattened parameter vector, computed
here from loss evaluations only. The two routes never share code.
"""

import ctypes
import dataclasses
import glob
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cotforge import fixture_path
from cotforge.errors import ValidationError
from cotforge.geometry import build_soft_mask
from cotforge.jsonl import read_corpus
from cotforge.toymodel import PARAM_KEYS, Stage, StageLossWeights, ToyModel, stage_loss

from corpus_utils import tiny_corpus
from oracles import (
    batch_grad_vector,
    dense_grads,
    finite_difference_check,
    oracle_batch_loss,
    oracle_grounding,
    oracle_item_grads,
    oracle_item_loss,
    param_vector,
    set_param_vector,
)

IMAGE_DIMS = (16, 16)
GRID_DIMS = (2, 2)


@pytest.fixture
def model():
    return ToyModel(tiny_corpus(), grid_dims=GRID_DIMS, feature_dim=3, seed=0)


@pytest.fixture
def moved(model):
    """The model with every parameter moved off its initial values."""
    rng = np.random.default_rng(7)
    base = param_vector(model)
    set_param_vector(model, base + rng.normal(0.0, 0.3, size=base.shape))
    return model


def item_grads(model, idx, stage, **kwargs):
    """One item's losses and its gradient, one full-size array per parameter."""
    losses, grads = model.item_loss_and_grads(idx, stage, **kwargs)
    return losses, dense_grads(model, grads)


def targets_for(model):
    return list(build_soft_mask([r.box for r in model.items], IMAGE_DIMS,
                                GRID_DIMS, sigma=0.0, mask_floor=1e-4))


class TestConstruction:
    def test_vocab_sorted_and_deduplicated(self, model):
        assert model.answer_vocab == ["kidney", "liver", "lung"]
        assert model.answer_ids.tolist() == [1, 0, 1, 2]
        assert len(model.anchor_keys) == 3  # (mass,liver),(cyst,kidney),(nodule,lung)

    def test_initial_answer_loss_is_log_vocab(self, model):
        # zero logits make the answer head uniform
        losses, _ = item_grads(model, 0, Stage.HARD)
        assert losses.total.tolist() == [pytest.approx(math.log(3.0), abs=1e-12)]

    def test_same_seed_same_params(self):
        a = ToyModel(tiny_corpus(), grid_dims=GRID_DIMS, feature_dim=3, seed=5)
        b = ToyModel(tiny_corpus(), grid_dims=GRID_DIMS, feature_dim=3, seed=5)
        assert np.array_equal(param_vector(a), param_vector(b))

    def test_param_vector_roundtrip(self, model):
        vec = param_vector(model)
        set_param_vector(model, vec * 1.5)
        assert np.allclose(param_vector(model), vec * 1.5)
        set_param_vector(model, vec)
        assert np.array_equal(param_vector(model), vec)

    def test_no_items_rejected(self):
        with pytest.raises(ValidationError, match="^toy model needs at least one item$"):
            ToyModel([], grid_dims=GRID_DIMS, feature_dim=3, seed=0)

    def test_wrong_length_vector_rejected(self, model):
        with pytest.raises(ValidationError):
            set_param_vector(model, np.zeros(3))


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
        once, twice = dense_grads(model, once), dense_grads(model, twice)
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
        set_param_vector(model, vec)
        return oracle_batch_loss(model, indices, [stage] * 4, targets, weights)

    def g(vec):
        set_param_vector(model, vec)
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
        base = param_vector(model)
        for _ in range(3):
            x = base + rng.normal(0.0, 0.2, size=base.shape)
            err = finite_difference_check(f, g(x), x)
            assert err <= 1e-5, f"{stage}: max rel err {err}"

    def test_mixed_stage_batch_gradient(self, model):
        targets = mixed_targets(model)

        def f(vec):
            set_param_vector(model, vec)
            return oracle_batch_loss(model, MIXED_INDICES, MIXED_STAGES,
                                     targets, MIXED_WEIGHTS)

        rng = np.random.default_rng(43)
        base = param_vector(model)
        for _ in range(3):
            x = base + rng.normal(0.0, 0.2, size=base.shape)
            set_param_vector(model, x)
            g = batch_grad_vector(model, MIXED_INDICES, MIXED_STAGES, targets,
                                  MIXED_WEIGHTS)
            err = finite_difference_check(f, g, x)
            assert err <= 1e-5, f"mixed batch: max rel err {err}"


class TestItemGradsOracle:
    """The closed-form oracle, written apart from the model's gradient code,
    agrees with finite differences and with the model, item by item, on the
    bundled corpus. Only Easy reads the ROI: item 1's box covers no cell
    center of the 3 x 3 grid (the ROI is the cell holding its center), item
    6's covers two."""

    @pytest.fixture(scope="class")
    def bundled(self):
        records = read_corpus(fixture_path("toy_corpus.jsonl"))
        model = ToyModel(records, grid_dims=(3, 3), feature_dim=4, seed=0)
        rng = np.random.default_rng(11)
        base = param_vector(model)
        set_param_vector(model, base + rng.normal(0.0, 0.3, size=base.shape))
        return model

    @pytest.mark.parametrize("stage, idx", [(Stage.EASY, 1), (Stage.EASY, 6),
                                            (Stage.MEDIUM, 6), (Stage.HARD, 6)])
    def test_against_finite_differences_and_the_model(self, bundled, stage, idx):
        model, x = bundled, param_vector(bundled)
        target = None
        if stage is Stage.MEDIUM:
            [target] = build_soft_mask([model.items[idx].box], IMAGE_DIMS, (3, 3),
                                       sigma=2.0, mask_floor=1e-3)
        want = oracle_item_grads(model, idx, stage, target)

        def f(vec):
            set_param_vector(model, vec)
            return oracle_item_loss(model, idx, stage, target_attention=target).total

        try:
            err = finite_difference_check(
                f, np.concatenate([want[key].ravel() for key in PARAM_KEYS]), x)
        finally:
            set_param_vector(model, x)
        assert err <= 1e-5, f"{stage}: max rel err {err}"
        got = dense_grads(model, model.item_loss_and_grads(idx, stage, target)[1])
        for key in PARAM_KEYS:
            scale = np.abs(want[key]).max()
            assert np.abs(got[key] - want[key]).max() <= 1e-10 * scale, key


class TestBatchMatchesItems:
    """One pass over a mixed batch gives, bit for bit, what the items give
    one at a time: the oracle's losses, and the gradients summed in order."""

    def test_breakdowns_equal_the_oracle(self, moved):
        targets = mixed_targets(moved)
        losses, _ = moved.batch_loss_and_grads(
            MIXED_INDICES, MIXED_STAGES, targets, MIXED_WEIGHTS)
        assert all(len(column) == len(MIXED_INDICES) for column in losses)
        for k, (i, s, t) in enumerate(zip(MIXED_INDICES, MIXED_STAGES, targets)):
            want = oracle_item_loss(moved, i, s, target_attention=t,
                                    weights=MIXED_WEIGHTS)
            # every component, exactly; NaN where the oracle has none
            for name, column in losses._asdict().items():
                value = getattr(want, name)
                got = column[k].item()
                assert math.isnan(got) if value is None else got == value, (k, name)

    def test_gradient_equals_items_added_in_order(self, moved):
        targets = mixed_targets(moved)
        _, batch = moved.batch_loss_and_grads(
            MIXED_INDICES, MIXED_STAGES, targets, MIXED_WEIGHTS)
        batch = dense_grads(moved, batch)
        one_by_one = {key: np.zeros_like(getattr(moved, key)) for key in PARAM_KEYS}
        for i, s, t in zip(MIXED_INDICES, MIXED_STAGES, targets):
            _, own = moved.item_loss_and_grads(i, s, t, MIXED_WEIGHTS)
            for key, g in dense_grads(moved, own).items():
                one_by_one[key] += g
        for key in PARAM_KEYS:
            assert np.array_equal(batch[key],
                                  one_by_one[key] * (1.0 / len(MIXED_INDICES)))


class TestAttentionRows:
    """A batch gradient carries only its Medium items' attention rows, and a
    step touches only those rows; both are bit for bit the full-size
    accumulation and step that they replace."""

    # item 3 three times as Medium, item 1 as Medium and as Easy, item 0 Hard
    INDICES = [3, 1, 3, 0, 3, 1, 2]
    STAGES = [Stage.MEDIUM, Stage.MEDIUM, Stage.MEDIUM, Stage.HARD,
              Stage.MEDIUM, Stage.EASY, Stage.MEDIUM]

    def batch(self, model):
        soft = targets_for(model)
        targets = [soft[i] if s == Stage.MEDIUM else None
                   for i, s in zip(self.INDICES, self.STAGES)]
        _, grads = model.batch_loss_and_grads(self.INDICES, self.STAGES,
                                              targets, MIXED_WEIGHTS)
        return targets, grads

    def test_rows_are_the_sorted_medium_items(self, moved):
        _, grads = self.batch(moved)
        assert grads["attn_rows"].tolist() == [1, 2, 3]
        assert grads["attn_logits"].shape == (3,) + GRID_DIMS

    def test_densified_rows_equal_the_full_size_accumulation(self, moved):
        targets, grads = self.batch(moved)
        # each Medium item's own gradient row, added with np.add.at into a
        # corpus-size buffer in batch order, then the batch mean
        full = np.zeros_like(moved.attn_logits)
        for i, s, t in zip(self.INDICES, self.STAGES, targets):
            if s == Stage.MEDIUM:
                _, own = item_grads(moved, i, s, target_attention=t,
                                    weights=MIXED_WEIGHTS)
                np.add.at(full, [i], own["attn_logits"][[i]])
        full *= 1.0 / len(self.INDICES)
        dense = dense_grads(moved, grads)["attn_logits"]
        assert dense.shape == moved.attn_logits.shape
        assert dense.tobytes() == full.tobytes()

    def test_step_is_the_full_size_step_in_place(self, moved):
        # the row outside the batch holds values a full-size step could
        # disturb in their bits: a negative zero, a NaN and the extremes
        moved.attn_logits[0] = [[-0.0, np.nan], [np.inf, -1e308]]
        before = {key: getattr(moved, key).copy() for key in PARAM_KEYS}
        arrays = {key: getattr(moved, key) for key in PARAM_KEYS}
        _, grads = self.batch(moved)
        dense = dense_grads(moved, grads)
        moved.step(grads, lr=0.3)
        for key in PARAM_KEYS:
            assert getattr(moved, key) is arrays[key]
            want = before[key] - 0.3 * dense[key]
            assert getattr(moved, key).tobytes() == want.tobytes(), key
        assert moved.attn_logits[0].tobytes() == before["attn_logits"][0].tobytes()


FIXTURE_CORPUS = (Path(__file__).parents[1] / "src" / "cotforge" / "fixtures"
                  / "toy_corpus.jsonl")


def batch_step_peak_bytes(records, indices, stages):
    """tracemalloc peak of one batch gradient plus its step, default model."""
    model = ToyModel(records)
    targets = [build_soft_mask([records[i].box], (64, 64), model.grid_dims,
                               sigma=16.0, mask_floor=0.01)[0]
               if s == Stage.MEDIUM else None for i, s in zip(indices, stages)]
    # one untraced batch first, so one-time allocations are not counted
    model.step(model.batch_loss_and_grads(indices, stages, targets)[1], 0.005)
    tracemalloc.start()
    try:
        _, grads = model.batch_loss_and_grads(indices, stages, targets)
        model.step(grads, 0.005)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_does_not_grow_with_the_corpus():
    # a deterministic stand-in for a timing test: a corpus-size buffer in the
    # batch or the step would show as 64 floats per record
    records = read_corpus(str(FIXTURE_CORPUS))
    assert len(records) == 200
    indices = [(37 * k) % 200 for k in range(28)] + [0, 37, 0, 74]
    cycle = [Stage.HARD, Stage.EASY, Stage.MEDIUM, Stage.MEDIUM]
    stages = [cycle[k % 4] for k in range(len(indices))]
    small = batch_step_peak_bytes(records, indices, stages)
    large = batch_step_peak_bytes(records * 100, indices, stages)
    assert abs(large - small) < len(indices) * 64 * 8, (small, large)


class TestTraining:
    def test_full_batch_steps_reduce_easy_loss(self, model):
        indices = list(range(len(model.items)))
        stages = [Stage.EASY] * 4
        targets = [None] * 4
        weights = StageLossWeights()
        losses = []
        for _ in range(5):
            batch, grads = model.batch_loss_and_grads(indices, stages,
                                                      targets, weights)
            losses.append(np.mean(batch.total))
            model.step(grads, lr=0.05)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_medium_training_pulls_attention_toward_target(self, model):
        target = targets_for(model)[0]
        weights = StageLossWeights()
        [before] = item_grads(model, 0, Stage.MEDIUM,
                              target_attention=target)[0].attention
        for _ in range(20):
            _, grads = model.batch_loss_and_grads([0], [Stage.MEDIUM], [target],
                                                  weights)
            model.step(grads, lr=0.5)
        [after] = item_grads(model, 0, Stage.MEDIUM,
                             target_attention=target)[0].attention
        assert after < before


class TestValidation:
    def test_medium_needs_target(self, model):
        with pytest.raises(ValidationError):
            item_grads(model, 0, Stage.MEDIUM)

    def test_nan_attention_makes_the_loss_nan(self, model):
        # a NaN cell counts in the divergence, so the finite check downstream sees it
        model.attn_logits[0] = np.nan
        losses, grads = model.batch_loss_and_grads(
            [0], [Stage.MEDIUM], [targets_for(model)[0]])
        assert np.isnan(losses.attention).all() and losses.attention.shape == (1,)
        assert np.isnan(losses.total).all()
        assert np.isnan(dense_grads(model, grads)["attn_logits"][0]).all()

    def test_the_recipe_gives_python_float_totals_and_never_raises(self):
        # the harness evaluates batches with overflow and invalid raising; a
        # total that overflows (or is 0 * inf) must still reach its finite check
        w = StageLossWeights(w_ans=0.5, w_cot=1e308, w_ground=0.0, w_attn=3.0)
        answer = np.array([1.0, 1.0, 1.0, 0.3])
        cot = np.array([2.0, 0.5, np.nan, 0.5])
        grounding = np.array([0.5, math.inf, np.nan, np.nan])
        attention = np.array([np.nan, np.nan, np.nan, 0.25])
        with np.errstate(all="raise"):
            losses = stage_loss(np.array([0, 1]), np.array([3]), w, answer, cot,
                                grounding, attention)
        easy = [0.5 * a + 1e308 * c + 0.0 * g
                for a, c, g in zip([1.0, 1.0], [2.0, 0.5], [0.5, math.inf])]
        want = easy + [1.0, 0.5 * 0.3 + 1e308 * 0.5 + 3.0 * 0.25]
        assert math.isinf(want[0]) and math.isnan(want[1])
        assert np.array_equal(losses.total, want, equal_nan=True)

    def test_unknown_index_rejected(self, model):
        with pytest.raises(ValidationError):
            item_grads(model, 99, Stage.HARD)

    def test_empty_batch_rejected(self, model):
        with pytest.raises(ValidationError, match="^empty batch$"):
            model.batch_loss_and_grads([], [], [], StageLossWeights())

    @pytest.mark.parametrize("stage", [Stage.EASY, Stage.MEDIUM])
    def test_a_main_stage_item_without_a_rationale_rejected(self, stage):
        records = tiny_corpus()
        records[1] = dataclasses.replace(records[1], cot="")
        model = ToyModel(records, grid_dims=GRID_DIMS, feature_dim=3, seed=0)
        target = targets_for(model)[1] if stage is Stage.MEDIUM else None
        with pytest.raises(ValidationError,
                           match=f"^{stage.value} stage needs rationale log probs$"):
            model.batch_loss_and_grads([0, 1], [Stage.EASY, stage], [None, target])

    def test_medium_target_of_the_wrong_shape_rejected(self, model):
        with pytest.raises(ValidationError,
                           match=r"^shape mismatch: attn \(2, 2\) vs target \(3, 3\)$"):
            model.batch_loss_and_grads([0], [Stage.MEDIUM], [np.full((3, 3), 1 / 9)])

    def test_batch_shape_mismatch_rejected(self, model):
        with pytest.raises(ValidationError):
            model.batch_loss_and_grads([0, 1], [Stage.HARD], [None, None],
                                       StageLossWeights())


GROUNDING_DIMS = (1, 3, 16, 257)


def assert_grounding_matches_oracle(feature_dim):
    """The batch-wide grounding equals the per-item loop bit for bit: losses,
    features gradient and anchors gradient, on random batches (repeats
    included) of the bundled corpus, at two grids."""
    records = read_corpus(str(Path(__file__).parents[1] / "src" / "cotforge"
                              / "fixtures" / "toy_corpus.jsonl"))
    rng = np.random.default_rng(feature_dim)
    weights = StageLossWeights(w_ground=2.0)
    for grid_dims in ((8, 8), (7, 5)):
        model = ToyModel(records, grid_dims=grid_dims, feature_dim=feature_dim,
                         seed=feature_dim)
        for _ in range(15):
            items = rng.integers(0, len(records), size=int(rng.integers(1, 40)))
            grads = {key: np.zeros_like(getattr(model, key))
                     for key in ("features", "anchors")}
            loss = model._add_grounding(items, weights, grads)
            want = oracle_grounding(model, items.tolist(), weights.w_ground)
            assert np.array_equal(loss, want[0])
            assert np.array_equal(grads["features"], want[1])
            assert np.array_equal(grads["anchors"], want[2])


def openblas_corename():
    """The kernel name of the OpenBLAS that numpy bundles, or None when numpy
    bundles none this can find."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def cpu_flags():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            return {flag for line in info if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


class TestGroundingMatchesOracle:
    @pytest.mark.parametrize("feature_dim", GROUNDING_DIMS)
    def test_bit_for_bit(self, feature_dim):
        assert_grounding_matches_oracle(feature_dim)

    def test_zero_norm_rejected(self, model):
        model.anchors[:] = 0.0
        grads = {key: np.zeros_like(getattr(model, key)) for key in ("features", "anchors")}
        with pytest.raises(ValidationError,
                           match="grounding is undefined for a zero-norm vector"):
            model._add_grounding(np.array([0, 1]), StageLossWeights(), grads)

    # the CPU flags each OpenBLAS kernel needs, since forcing a kernel the
    # CPU lacks stops the process with an illegal instruction; and the names
    # OpenBLAS reports it by (a build without its older-core set aliases
    # those cores to Prescott and names it after the first, Katmai)
    @pytest.mark.parametrize("coretype, needs, names", [
        ("Haswell", {"avx2", "fma"}, {"Haswell"}),
        ("Sandybridge", {"avx"}, {"Sandybridge"}),
        ("Prescott", {"pni"}, {"Prescott", "Katmai"}),  # pni: SSE3
    ])
    def test_bit_for_bit_under_openblas_kernel(self, coretype, needs, names):
        """The stacked dots run the same ddot as ndarray.dot on other
        kernels too, each of which sums in its own order."""
        missing = needs - cpu_flags()
        if missing:
            pytest.skip(f"the CPU lacks {sorted(missing)} for {coretype}")
        tests = os.path.dirname(__file__)
        path = [tests, os.path.join(os.path.dirname(tests), "src"),
                os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = ("import test_toymodel as t\n"
                "for d in t.GROUNDING_DIMS: t.assert_grounding_matches_oracle(d)\n"
                "print(t.openblas_corename())")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        corename = run.stdout.split()[-1]
        if corename not in names | {"None"}:
            pytest.skip(f"OpenBLAS ran {corename}, not {coretype}")
