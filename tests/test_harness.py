"""End-to-end harness behavior on a four-item corpus."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cotforge import harness
from cotforge.dynamics import DynamicsSpec, builtin_scenario_path, run_dynamics_sim
from cotforge.errors import ValidationError
from cotforge.geometry import BBox
from cotforge.harness import HarnessParams, run_toy_training
from cotforge.jsonl import read_corpus
from cotforge.scheduler import (
    BatchPlan,
    CurriculumScheduler,
    SchedulerHyperparams,
    Stage,
    Trace,
)
from cotforge.toymodel import ToyModel

from corpus_utils import record, tiny_corpus

FIXTURES = Path(__file__).parent.parent / "src" / "cotforge" / "fixtures"

SMALL = dict(image_dims=(16, 16), grid_dims=(2, 2), feature_dim=3,
             sigma=2.0, mask_floor=1e-3)


def json_rows(trace):
    """The trace as the JSON rows its file holds: the header, then each epoch."""
    return [trace.header] + [r.to_json_dict() for r in trace.reports]


def small_params(**overrides):
    # batch size must not exceed the 4-item corpus: in-batch draws are
    # without replacement (items may still recur across batches)
    merged = {**SMALL, "epochs": 5, "batch_size": 4, "batches_per_epoch": 2,
              "lr": 0.01, "seed": 0, **overrides}
    return HarnessParams(**merged)


class TestWarmupContract:
    def test_no_medium_and_initial_hard_budget_through_warmup(self):
        trace = run_toy_training(tiny_corpus(), small_params())
        assert len(trace.reports) == 5
        for report in trace.reports:
            assert report.realized()["medium"] == 0.0
            assert report.lambda_hard == 0.0
            assert report.beta == 0.0

    def test_warmup_respects_nonzero_initial_budget(self):
        hp = SchedulerHyperparams(lambda_hard_init=0.25)
        trace = run_toy_training(tiny_corpus(), small_params(), hp)
        for report in trace.reports:
            assert report.lambda_hard == 0.25
            # floor(0.25 * 4) = 1 hard slot per 4-item batch, 2 batches
            assert report.counts["hard"] == 2
            assert report.realized()["medium"] == 0.0


class TestDeterminism:
    def test_same_seed_identical_traces(self):
        a = run_toy_training(tiny_corpus(), small_params(epochs=7))
        b = run_toy_training(tiny_corpus(), small_params(epochs=7))
        assert json_rows(a) == json_rows(b)

    def test_different_seed_diverges(self):
        a = run_toy_training(tiny_corpus(), small_params(epochs=7, seed=0))
        b = run_toy_training(tiny_corpus(), small_params(epochs=7, seed=1))
        assert json_rows(a) != json_rows(b)


class TestTrainingDynamics:
    def test_full_batch_easy_loss_non_increasing_in_warmup(self):
        corpus = tiny_corpus()
        params = small_params(epochs=5, batch_size=len(corpus),
                              batches_per_epoch=1, lr=1e-3)
        trace = run_toy_training(corpus, params)
        means = [r.mean_total for r in trace.reports]
        for before, after in zip(means, means[1:]):
            assert after <= before + 1e-9

    def test_counts_partition_every_epoch(self):
        trace = run_toy_training(tiny_corpus(), small_params(epochs=6))
        for report in trace.reports:
            assert sum(report.counts.values()) == 4 * 2


class TestAbort:
    def test_non_finite_loss_aborts_with_location(self):
        corpus = tiny_corpus()
        params = small_params()
        model = ToyModel(corpus, grid_dims=params.grid_dims,
                         feature_dim=params.feature_dim, seed=0)
        model.features[:] = np.nan
        with pytest.raises(ValidationError, match=r"epoch 1, batch 0, item"):
            run_toy_training(corpus, params, model=model)

    def test_nan_attention_aborts_with_location(self):
        # no warmup and a medium coin that always lands: every item is Medium
        hp = SchedulerHyperparams(warmup_epochs=0, kappa=1.0, gamma=-10.0)
        corpus = tiny_corpus()
        params = small_params()
        model = ToyModel(corpus, grid_dims=params.grid_dims,
                         feature_dim=params.feature_dim, seed=0)
        model.attn_logits[0] = np.nan
        with pytest.raises(ValidationError,
                           match=r"^non-finite loss at epoch 1, batch 0, "
                                 r"item 'a' \(medium\)$"):
            run_toy_training(corpus, params, hp, model=model)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            run_toy_training([], small_params())


class TestTraceShape:
    def test_header_then_epoch_rows(self):
        trace = run_toy_training(tiny_corpus(), small_params(epochs=3))
        rows = json_rows(trace)
        assert rows[0]["kind"] == "header"
        assert rows[0]["mode"] == "toy-training"
        assert [r["epoch"] for r in rows[1:]] == [1, 2, 3]
        for row in rows[1:]:
            assert row["kind"] == "epoch"
            assert 0.0 <= row["realized"]["hard"] <= 1.0

    def test_both_runs_return_one_trace_type(self):
        spec = DynamicsSpec.from_path(builtin_scenario_path("mixed"))
        for trace in (run_toy_training(tiny_corpus(), small_params(epochs=3)),
                      run_dynamics_sim(spec)):
            assert isinstance(trace, Trace)
            header, reports = trace
            assert header is trace.header and reports is trace.reports
            assert [r.epoch for r in reports] == list(range(1, header["epochs"] + 1))

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            small_params(epochs=0)
        with pytest.raises(ValidationError):
            small_params(lr=0.0)


class TestSoftMasksOnFirstMediumUse:
    @pytest.fixture
    def built(self, monkeypatch):
        """The boxes of each stacked soft-mask build the harness makes, one
        list per call, in call order."""
        calls = []
        real = harness.build_soft_mask

        def counting(boxes, *args, **kwargs):
            calls.append(list(boxes))
            return real(boxes, *args, **kwargs)

        monkeypatch.setattr(harness, "build_soft_mask", counting)
        return calls

    def test_warmup_run_builds_none(self, built):
        trace = run_toy_training(tiny_corpus(), small_params())
        assert all(r.counts["medium"] == 0 for r in trace.reports)
        assert built == []

    def test_default_run_builds_each_mask_at_most_once(self, built):
        records = read_corpus(str(FIXTURES / "toy_corpus.jsonl"))
        params = HarnessParams()
        trace = run_toy_training(records, params)
        assert sum(r.counts["medium"] for r in trace.reports) > len(records)
        # at most one stacked build per batch, and never an empty one
        assert 0 < len(built) <= params.epochs * params.batches_per_epoch
        assert all(built)
        per_record = Counter(id(box) for boxes in built for box in boxes)
        assert 0 < len(per_record) <= len(records)
        assert max(per_record.values()) == 1
        assert {id(r.box) for r in records} >= set(per_record)

    def test_a_fresh_medium_record_drawn_twice_in_a_batch_is_built_once(
            self, built, monkeypatch):
        def twice(scheduler, batch_size, hard_pool_size):
            return BatchPlan(hard_indices=np.empty(0, dtype=np.int64),
                             main_indices=np.array([2, 0, 2]),
                             main_stages=[Stage.MEDIUM, Stage.EASY, Stage.MEDIUM])

        monkeypatch.setattr(CurriculumScheduler, "plan_batch", twice)
        corpus = tiny_corpus()
        trace = run_toy_training(corpus, small_params(epochs=2))
        assert sum(r.counts["medium"] for r in trace.reports) == 8
        assert [[id(box) for box in boxes] for boxes in built] == [[id(corpus[2].box)]]

    def test_box_between_pixel_centers_rejected_before_training(self, built):
        corpus = tiny_corpus()
        # at 16 px the box spans x, y in [0.55, 0.95] px: no pixel center
        corpus.append(record("e", BBox(0.55 / 16, 0.55 / 16, 0.95 / 16, 0.95 / 16),
                             "liver", "The image shows a mass. It is in the liver."))
        params = small_params()
        model = ToyModel(corpus, grid_dims=params.grid_dims,
                         feature_dim=params.feature_dim, seed=0)

        def trained(*args, **kwargs):
            raise AssertionError("a batch was trained")

        model.batch_loss_and_grads = trained
        with pytest.raises(ValidationError,
                           match="box is degenerate after denormalization"):
            run_toy_training(corpus, params, model=model)
        assert built == []


@pytest.fixture(scope="module")
def golden_epochs():
    path = Path(__file__).parent / "golden" / "trace_toy_40ep.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["kind"] == "header"
    return rows[1:]


class TestBundledTraceGolden:
    """Properties of the committed 40-epoch default-config trace.

    The trace is regenerated by scripts/make_fixtures.py and byte-checked
    against a live run elsewhere; here we pin the curriculum behavior it
    must exhibit.
    """

    def test_no_medium_during_warmup(self, golden_epochs):
        assert all(r["realized"]["medium"] == 0.0 for r in golden_epochs[:5])
        assert all(r["lambda_hard_budget"] == 0.0 for r in golden_epochs[:5])

    def test_medium_fraction_strictly_increases_over_the_ramp(self, golden_epochs):
        fracs = [r["realized"]["medium"] for r in golden_epochs[5:15]]
        assert all(b > a for a, b in zip(fracs, fracs[1:])), fracs

    def test_domain_progress_above_gate_during_ramp(self, golden_epochs):
        # progress is undefined until a domain has seen its first medium
        # items; once defined it must clear the mixing gate for the whole ramp
        gate = SchedulerHyperparams().gamma
        defined = 0
        for row in golden_epochs[6:15]:
            for stats in row["domains"].values():
                if stats["progress"] is not None:
                    assert stats["progress"] > gate
                    defined += 1
        assert defined >= 8 * 4  # every domain is live from epoch 8 at latest
