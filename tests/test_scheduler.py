"""Curriculum scheduler tests.

The multi-epoch decision traces asserted here were worked out by hand from
the controller's update rules before the implementation existed:
constant epoch means make delta-m-bar exactly 0 from epoch 2, so the
plateau window (last q deltas) first fills at epoch q + 1.
"""

import dataclasses
import math
import statistics
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge.errors import ValidationError
from cotforge.scheduler import (
    CurriculumScheduler,
    Decision,
    DomainEpochStats,
    EpochReport,
    SchedulerHyperparams,
    Stage,
    domain_progress,
    median_progress,
    p_medium,
    ramp,
    update_ema,
)

from oracles import oracle_epoch_report, plan_batch


class TestUpdateEma:
    def test_unset_initializes_to_mean(self):
        assert update_ema(None, 1.75, 0.3) == 1.75

    def test_frozen_exact_value(self):
        # rho = 0.1, prev = 1.0, mean = 0.5 -> exactly 0.95
        assert update_ema(1.0, 0.5, 0.1) == 0.95

    def test_matches_convex_combination(self):
        got = update_ema(2.0, 1.0, 0.3)
        assert got == pytest.approx(0.7 * 2.0 + 0.3 * 1.0, abs=1e-15)


class TestRamp:
    def test_zero_through_warmup(self):
        for e in range(1, 6):
            assert ramp(e, kappa=10.0) == 0.0

    def test_frozen_values(self):
        assert ramp(10, kappa=10.0) == 0.5
        assert ramp(15, kappa=10.0) == 1.0
        assert ramp(40, kappa=10.0) == 1.0
        assert ramp(6, kappa=10.0) == pytest.approx(0.1, abs=1e-15)

    def test_custom_warmup(self):
        assert ramp(3, kappa=2.0, warmup_epochs=2) == 0.5

    def test_epoch_must_be_positive(self):
        with pytest.raises(ValidationError):
            ramp(0, kappa=10.0)


class TestDomainProgress:
    def test_unset_gives_zero(self):
        assert domain_progress(None, 1.0, 1e-8) == 0.0
        assert domain_progress(1.0, None, 1e-8) == 0.0

    def test_relative_improvement(self):
        g = domain_progress(2.0, 1.0, 1e-8)
        assert g == pytest.approx(0.5, abs=1e-8)

    def test_can_be_negative_and_capped_at_one(self):
        assert domain_progress(1.0, 2.0, 1e-8) < 0.0
        assert domain_progress(1.0, 0.0, 1e-8) <= 1.0


class TestPMedium:
    def test_at_gamma_is_exactly_half_beta(self):
        for beta in (0.0, 0.3, 0.7, 1.0):
            assert abs(p_medium(0.2, beta, 0.2, 0.1) - beta / 2.0) <= 1e-12

    def test_frozen_sigmoid_value(self):
        # g - gamma = tau -> sigmoid(1)
        got = p_medium(0.3, 1.0, 0.2, 0.1)
        assert got == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_zero_beta_disables_medium(self):
        assert p_medium(5.0, 0.0, 0.2, 0.1) == 0.0

    @given(
        g1=st.floats(-1.0, 1.0),
        g2=st.floats(-1.0, 1.0),
        beta=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_progress(self, g1, g2, beta):
        lo, hi = sorted([g1, g2])
        assert p_medium(lo, beta, 0.2, 0.1) <= p_medium(hi, beta, 0.2, 0.1)

    def test_bounded_by_beta(self):
        for g in (-10.0, 0.0, 10.0):
            p = p_medium(g, 0.6, 0.2, 0.1)
            assert 0.0 <= p <= 0.6


class TestMedianProgress:
    def test_even_count_averages_middle_pair(self):
        assert median_progress([0.1, 0.3]) == pytest.approx(0.2)

    def test_matches_statistics_median(self):
        vals = [0.4, 0.1, 0.9, 0.3, 0.2]
        assert median_progress(vals) == statistics.median(vals)


class TestPlanBatch:
    def test_exact_floor_counts(self):
        rng = np.random.default_rng(0)
        plan = plan_batch(10, 0.26, 50, 50, np.full(50, 0.5), rng)
        assert len(plan.hard_indices) == 2
        plan = plan_batch(32, 0.25, 50, 50, np.full(50, 0.5), rng)
        assert len(plan.hard_indices) == 8
        plan = plan_batch(32, 0.0, 0, 50, np.full(50, 0.5), rng)
        assert len(plan.hard_indices) == 0

    def test_floor_matches_math_floor_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lam = float(rng.uniform(0.0, 1.0))
            batch = int(rng.integers(1, 100))
            plan = plan_batch(batch, lam, batch, batch, np.full(batch, 0.5), rng)
            assert len(plan.hard_indices) == math.floor(lam * batch)

    def test_slots_partition_batch(self):
        rng = np.random.default_rng(1)
        plan = plan_batch(20, 0.3, 30, 40, np.full(40, 0.5), rng)
        n_medium = sum(1 for s in plan.main_stages if s == "medium")
        n_easy = sum(1 for s in plan.main_stages if s == "easy")
        assert len(plan.hard_indices) + n_easy + n_medium == 20

    def test_no_replacement_within_batch(self):
        rng = np.random.default_rng(2)
        plan = plan_batch(16, 0.5, 8, 8, np.full(8, 0.5), rng)
        assert len(set(plan.hard_indices)) == len(plan.hard_indices)
        assert len(set(plan.main_indices)) == len(plan.main_indices)

    def test_probability_extremes(self):
        rng = np.random.default_rng(3)
        plan = plan_batch(12, 0.0, 0, 40, np.full(40, 0.0), rng)
        assert all(s == "easy" for s in plan.main_stages)
        plan = plan_batch(12, 0.0, 0, 40, np.full(40, 1.0), rng)
        assert all(s == "medium" for s in plan.main_stages)

    def test_insufficient_pools_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValidationError):
            plan_batch(10, 0.5, 3, 50, np.full(50, 0.5), rng)
        with pytest.raises(ValidationError):
            plan_batch(10, 0.0, 0, 5, np.full(5, 0.5), rng)

    def test_reproducible_with_seed(self):
        a = plan_batch(16, 0.25, 20, 40, np.full(40, 0.4), np.random.default_rng(7))
        b = plan_batch(16, 0.25, 20, 40, np.full(40, 0.4), np.random.default_rng(7))
        assert list(a.hard_indices) == list(b.hard_indices)
        assert list(a.main_indices) == list(b.main_indices)
        assert list(a.main_stages) == list(b.main_stages)

    def test_probabilities_must_align_with_the_pool(self):
        rng = np.random.default_rng(5)
        for p in (0.5, np.full(39, 0.5), np.full((40, 1), 0.5)):
            with pytest.raises(ValidationError, match="must have length 40"):
                plan_batch(10, 0.0, 0, 40, p, rng)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_probabilities_outside_the_unit_interval_rejected(self, bad):
        # NaN fails every comparison, so a min/max range test alone lets it by
        p = np.full(40, 0.5)
        p[7] = bad
        with pytest.raises(ValidationError,
                           match=r"medium probabilities must lie in \[0, 1\]"):
            plan_batch(10, 0.0, 0, 40, p, np.random.default_rng(5))

    def test_per_item_probabilities(self):
        # items with p=0 can never be medium, items with p=1 always are
        rng = np.random.default_rng(8)
        p = np.zeros(40)
        p[::2] = 1.0
        plan = plan_batch(30, 0.0, 0, 40, p, rng)
        for idx, stage in zip(plan.main_indices, plan.main_stages):
            assert stage == ("medium" if idx % 2 == 0 else "easy")


def drive_epoch(sched, easy=(), med=(), hard=(), cot_easy=None, cot_med=None):
    """Feed one epoch of per-item losses through the scheduler, one batch."""
    sched.start_epoch()
    stages = ["easy"] * len(easy) + ["medium"] * len(med) + ["hard"] * len(hard)
    cots = ([None] * len(easy) if cot_easy is None else list(cot_easy))
    cots += ([None] * len(med) if cot_med is None else list(cot_med))
    cots += [None] * len(hard)
    sched.observe(["mass|CT"] * len(stages), stages, [*easy, *med, *hard], cots)
    return sched.end_of_epoch()


class TestSchedulerStateMachine:
    def test_increase_hard_fires_at_q_plus_one_with_constant_losses(self):
        # constant means: delta history fills with zeros; the window first
        # holds q values at epoch q + 1 = 6, and progress/gap gates are
        # already true, so the first IncreaseHard lands exactly there
        hp = SchedulerHyperparams()
        sched = CurriculumScheduler(hp, domains=["mass|CT"], seed=0)
        decisions = []
        lam = []
        for _ in range(12):
            report = drive_epoch(
                sched,
                easy=[2.0] * 10,
                med=[1.0] * 5,
                cot_easy=[0.2] * 10,
                cot_med=[0.2] * 5,
            )
            decisions.append(report.decision)
            lam.append(sched.lambda_hard)
        assert decisions[:5] == [Decision.HOLD] * 5
        assert decisions[5] == Decision.INCREASE_HARD
        assert all(d == Decision.INCREASE_HARD for d in decisions[5:])
        # lambda follows min(lam + eta_up, lam_max) exactly
        expected = []
        value = 0.0
        for d in decisions:
            if d == Decision.INCREASE_HARD:
                value = min(value + hp.eta_up, hp.lambda_hard_max)
            expected.append(value)
        assert lam == expected
        assert lam[5] == 0.05
        assert lam[-1] == hp.lambda_hard_max

    def test_reduce_hard_on_scripted_rise(self):
        hp = SchedulerHyperparams(lambda_hard_init=0.2)
        sched = CurriculumScheduler(hp, domains=["mass|CT"], seed=0)
        decisions = []
        for epoch in range(1, 7):
            scale = 1.3 if epoch == 6 else 1.0
            report = drive_epoch(
                sched,
                easy=[1.0 * scale] * 10,
                med=[0.9 * scale] * 5,
                cot_easy=[0.3] * 10,
                cot_med=[0.32] * 5,
            )
            decisions.append(report.decision)
        # low progress (g = 0.1 < gamma_hard) blocks IncreaseHard throughout;
        # the epoch-6 jump gives delta = 0.3 * (1.2667 - 0.9667) = 0.09 >= 0.05
        assert decisions[:5] == [Decision.HOLD] * 5
        assert decisions[5] == Decision.REDUCE_HARD
        assert sched.lambda_hard == 0.1

    def test_missing_stage_blocks_increase_via_infinite_gap(self):
        hp = SchedulerHyperparams()
        sched = CurriculumScheduler(hp, domains=["mass|CT"], seed=0)
        for _ in range(8):
            report = drive_epoch(sched, easy=[2.0] * 10, cot_easy=[0.2] * 10)
        assert report.gap_cot == math.inf
        assert report.decision == Decision.HOLD
        assert sched.lambda_hard == 0.0

    def test_wrong_epoch_report_rejected(self):
        hp = SchedulerHyperparams()
        state = CurriculumScheduler(hp)
        report = EpochReport(epoch=3, beta=0.0, lambda_hard=0.0, domains={},
                             mean_total=1.0,
                             cot_easy_mean=None, cot_easy_count=0,
                             cot_med_mean=None, cot_med_count=0,
                             counts={"easy": 4, "medium": 0, "hard": 0})
        with pytest.raises(ValidationError):
            state.close_epoch(report)

    def test_delta_history_starts_at_epoch_two(self):
        hp = SchedulerHyperparams()
        sched = CurriculumScheduler(hp, domains=["mass|CT"], seed=0)
        drive_epoch(sched, easy=[1.0] * 4)
        assert len(sched.delta_history) == 0
        drive_epoch(sched, easy=[1.0] * 4)
        assert list(sched.delta_history) == [0.0]

    def test_realized_fractions_sum_to_one(self):
        hp = SchedulerHyperparams(lambda_hard_init=0.2)
        sched = CurriculumScheduler(hp, domains=["mass|CT"], seed=0)
        report = drive_epoch(
            sched, easy=[1.0] * 7, med=[1.0] * 2, hard=[1.0] * 3,
            cot_easy=[0.1] * 7, cot_med=[0.1] * 2,
        )
        realized = report.realized()
        assert realized["easy"] + realized["medium"] + realized["hard"] == 1.0
        assert realized["hard"] == 3 / 12

    def test_warmup_assignment_probability_is_zero(self):
        hp = SchedulerHyperparams()
        sched = CurriculumScheduler(hp, domains=["mass|CT"], seed=0)
        ctx = sched.start_epoch()
        assert ctx.beta == 0.0
        assert ctx.p_medium["mass|CT"] == 0.0

    def test_calls_outside_an_epoch_rejected(self):
        sched = CurriculumScheduler(SchedulerHyperparams(), domains=["d"], seed=0)
        with pytest.raises(ValidationError, match="plan_batch called outside"):
            sched.plan_batch(1, hard_pool_size=1)
        with pytest.raises(ValidationError, match="observe called outside"):
            sched.observe(["d"], [Stage.EASY], [1.0], [None])
        with pytest.raises(ValidationError, match="end_of_epoch called outside"):
            sched.end_of_epoch()
        sched.start_epoch()
        with pytest.raises(ValidationError, match="not closed"):
            sched.start_epoch()
        with pytest.raises(ValidationError, match="unknown stage 'easiest'"):
            sched.observe(["d", "d"], [Stage.EASY, "easiest"], [1.0, 1.0], [None, None])
        sched.end_of_epoch()
        sched.start_epoch()  # closed, so a new epoch may open

    @pytest.mark.parametrize("cot", [0.5, math.nan], ids=["loss", "nan"])
    def test_a_hard_item_with_a_rationale_loss_rejected(self, cot):
        # None marks "no rationale loss"; a NaN is a loss that arrived
        sched = CurriculumScheduler(SchedulerHyperparams(), domains=["d"], seed=0)
        sched.start_epoch()
        with pytest.raises(ValidationError, match="hard items carry no rationale loss"):
            sched.observe(["d", "new", "d"], [Stage.EASY, Stage.EASY, "hard"],
                          [1.0, 2.0, 3.0], [0.5, None, cot])

    def test_misaligned_batch_rejected(self):
        sched = CurriculumScheduler(SchedulerHyperparams(), domains=["d"], seed=0)
        sched.start_epoch()
        with pytest.raises(ValidationError, match="must align"):
            sched.observe(["d", "d"], [Stage.EASY], [1.0, 2.0], [None, None])

    def test_domain_first_seen_mid_epoch(self):
        sched = CurriculumScheduler(SchedulerHyperparams(), domains=["a"], seed=0)
        sched.start_epoch()
        sched.observe(["b", "b"], [Stage.EASY, Stage.MEDIUM], [1.0, 0.5], [None, None])
        stats = sched.end_of_epoch().domains["b"]
        assert (stats.count_easy, stats.count_med, stats.progress) == (1, 1, None)
        ctx = sched.start_epoch()
        assert ctx.progress == {"a": None, "b": domain_progress(1.0, 0.5, 1e-8)}
        assert sched.end_of_epoch().domains["b"].progress == ctx.progress["b"]


def assert_same_report(got, want):
    """Every field of two reports equal by ==, two NaNs counting as equal."""
    def same(a, b):
        return a == b or (a != a and b != b)

    for f in dataclasses.fields(EpochReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name != "domains":
            assert same(a, b), (f.name, a, b)
            continue
        assert list(a) == list(b)
        for key in a:
            for g in dataclasses.fields(DomainEpochStats):
                x, y = getattr(a[key], g.name), getattr(b[key], g.name)
                assert same(x, y), (key, g.name, x, y)


def random_batch(rng, nan_totals):
    """A batch of mixed stages (members and strings), known, repeated and
    new domains, losses over many magnitudes so that the order of addition
    shows, and Easy/Medium rationale losses that are missing or NaN."""
    stages = [Stage.EASY, "easy", Stage.MEDIUM, "medium", Stage.HARD, "hard"]
    domains = ["a|CT", "b|MR", "a|CT", "new0|CT", "new1|US"]
    batch = []
    for _ in range(int(rng.integers(0, 12))):
        stage = stages[int(rng.integers(0, len(stages)))]
        total = float(rng.uniform(0.0, 1.0) * 10.0 ** rng.integers(-8, 9))
        if nan_totals and rng.random() < 0.1:
            total = math.nan
        u = rng.random()
        cot = (None if stage == "hard" or u < 0.25 else math.nan if u < 0.35
               else float(rng.uniform(0.0, 1.0) * 10.0 ** rng.integers(-8, 9)))
        batch.append((domains[int(rng.integers(0, len(domains)))], stage, total, cot))
    return batch


class TestBatchObserve:
    """A batch's statistics equal, bit for bit, those of adding its items one
    at a time in order (the per-item loop in oracles.py)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_reports_equal_the_per_item_loop(self, seed):
        rng = np.random.default_rng(seed)
        hp = SchedulerHyperparams(warmup_epochs=1, kappa=2.0, q=2)
        sched = CurriculumScheduler(hp, domains=["a|CT", "b|MR"], seed=seed)
        reference = CurriculumScheduler(hp, domains=["a|CT", "b|MR"], seed=seed)
        epochs = 6
        for epoch in range(1, epochs + 1):
            before = list(sched.domains)
            ctx = sched.start_epoch()
            items = []
            for _ in range(int(rng.integers(0, 5))):
                batch = random_batch(rng, nan_totals=epoch == epochs)
                sched.observe(*[[item[k] for item in batch] for k in range(4)])
                items += batch
            got = sched.end_of_epoch()
            want = oracle_epoch_report(ctx, before, items)
            reference.close_epoch(want)
            assert_same_report(got, want)
        assert sched.lambda_hard == reference.lambda_hard

    def test_none_is_no_rationale_loss_and_nan_is_one(self):
        sched = CurriculumScheduler(SchedulerHyperparams(), domains=["d"], seed=0)
        sched.start_epoch()
        sched.observe(["d"] * 4, ["easy", "easy", "medium", "medium"],
                      [1.0, 2.0, 3.0, 4.0], [None, 0.5, math.nan, None])
        report = sched.end_of_epoch()
        assert (report.cot_easy_count, report.cot_easy_mean) == (1, 0.5)
        assert report.cot_med_count == 1 and math.isnan(report.cot_med_mean)


class TestPoolProbabilities:
    """The scheduler builds the main pool's medium probabilities once, when
    the epoch opens, and every batch of the epoch draws from them."""

    @staticmethod
    def stages(sched, size):
        plan = sched.plan_batch(size, hard_pool_size=size)
        return {s.value for s in plan.main_stages}

    def test_plans_equal_the_module_function(self):
        hp = SchedulerHyperparams(warmup_epochs=0, kappa=2.0)
        sched = CurriculumScheduler(hp, domains=["a", "b"], seed=11)
        pool = ["a", "b", "c"] * 10
        ctx = sched.start_epoch(pool)
        p = np.array([ctx.p_medium.get(d, 0.0) for d in pool])
        rng = np.random.default_rng(11)
        for _ in range(5):
            got = sched.plan_batch(12, hard_pool_size=30)
            want = plan_batch(12, 0.0, 30, 30, p, rng)
            assert got.main_indices.tolist() == want.main_indices.tolist()
            assert got.main_stages == want.main_stages

    def test_a_pool_mutated_after_start_epoch_changes_no_draw(self):
        hp = SchedulerHyperparams(warmup_epochs=0, kappa=1.0, gamma=-10.0)
        sched = CurriculumScheduler(hp, domains=["a"], seed=0)
        pool = ["a"] * 8
        sched.start_epoch(pool)
        assert self.stages(sched, 8) == {"medium"}
        pool[:] = ["z"] * 8  # a domain the epoch fixed no probability for
        assert self.stages(sched, 8) == {"medium"}

    def test_each_epoch_uses_its_own_probabilities(self):
        # warmup keeps epoch 1 Easy; epoch 2 is fully ramped with p near 1
        hp = SchedulerHyperparams(warmup_epochs=1, kappa=1.0, gamma=-10.0)
        sched = CurriculumScheduler(hp, domains=["a"], seed=0)
        pool = ["a"] * 8
        sched.start_epoch(pool)
        assert self.stages(sched, 8) == {"easy"}
        sched.end_of_epoch()
        sched.start_epoch(pool)
        assert self.stages(sched, 8) == {"medium"}

    def test_a_nan_probability_is_rejected(self):
        # a NaN loss makes the domain's progress, and so its probability, NaN
        hp = SchedulerHyperparams(warmup_epochs=0)
        sched = CurriculumScheduler(hp, domains=["d"], seed=0)
        sched.start_epoch()
        sched.observe(["d", "d"], [Stage.EASY, Stage.MEDIUM], [math.nan, 1.0],
                      [None, None])
        sched.end_of_epoch()
        with pytest.raises(ValidationError,
                           match=r"medium probabilities must lie in \[0, 1\]"):
            sched.start_epoch(["d"] * 4)
        # the failed start left no epoch open, and the next one sees the NaN
        assert math.isnan(sched.start_epoch().p_medium["d"])


class TestStage:
    def test_members_hash_and_compare_as_their_values(self):
        assert [s.value for s in Stage] == ["easy", "medium", "hard"]
        assert Stage.MEDIUM == "medium" and hash(Stage.MEDIUM) == hash("medium")
        assert {"easy": 1}[Stage.EASY] == 1 and {Stage.HARD: 2}["hard"] == 2

    def test_plan_gives_members_and_observe_takes_either_form(self):
        sched = CurriculumScheduler(SchedulerHyperparams(), domains=["d"], seed=0)
        sched.start_epoch(["d"] * 4)
        plan = sched.plan_batch(4, hard_pool_size=4)
        assert [type(s) for s in plan.main_stages] == [Stage] * 4
        sched.observe(["d", "d"], [Stage.EASY, "easy"], [1.0, 3.0], [0.5, 0.5])
        report = sched.end_of_epoch()
        assert report.counts["easy"] == 2 and report.domains["d"].mean_easy == 2.0
        assert report.to_json_dict()["counts"] == {"easy": 2, "medium": 0, "hard": 0}

    def test_toy_model_uses_the_scheduler_stage(self):
        from cotforge import toymodel

        assert toymodel.Stage is Stage


def run_gate_combo(plateau, median_ok, gap_ok, hp=None):
    """Build a synthetic state/report pair landing on the given gate flags."""
    hp = hp or SchedulerHyperparams()
    state = CurriculumScheduler(hp)
    state.epoch = 9
    state.lambda_hard = 0.1
    state.m_bar = 1.0
    primer = [0.0] * (hp.q - 1)
    state.delta_history = deque(primer, maxlen=hp.q)
    mean_total = 1.0 if plateau else 0.5  # delta 0 or -0.15 (never a rise)
    progress = 0.5 if median_ok else 0.0
    cot_med = 0.2 if gap_ok else 0.5
    report = EpochReport(
        epoch=9, beta=0.5, lambda_hard=0.1,
        domains={
            "mass|CT": DomainEpochStats(
                mean_easy=1.2, count_easy=6, mean_med=1.0, count_med=4,
                progress=progress,
            )
        },
        mean_total=mean_total,
        cot_easy_mean=0.2, cot_easy_count=6,
        cot_med_mean=cot_med, cot_med_count=4,
        counts={"easy": 6, "medium": 4, "hard": 0},
    )
    before = state.lambda_hard
    decision = state.close_epoch(report)
    return decision, before, state.lambda_hard, report


class TestGateEnumeration:
    @pytest.mark.parametrize("plateau", [False, True])
    @pytest.mark.parametrize("median_ok", [False, True])
    @pytest.mark.parametrize("gap_ok", [False, True])
    def test_only_all_true_increases(self, plateau, median_ok, gap_ok):
        decision, before, after, report = run_gate_combo(plateau, median_ok, gap_ok)
        if plateau and median_ok and gap_ok:
            assert decision == Decision.INCREASE_HARD
            assert after > before
        else:
            assert decision == Decision.HOLD
            assert after == before
        assert report.plateau == plateau
        assert report.median_ok == median_ok
        assert report.gap_ok == gap_ok


class TestBudgetSafety:
    def test_lambda_stays_in_bounds_under_random_streams(self):
        rng = np.random.default_rng(77)
        for run in range(50):
            hp = SchedulerHyperparams(
                rho=float(rng.uniform(0.05, 1.0)),
                q=int(rng.integers(1, 8)),
                eta_up=float(rng.uniform(0.0, 0.5)),
                eta_down=float(rng.uniform(0.0, 1.0)),
                lambda_hard_max=float(rng.uniform(0.0, 1.0)),
                eps_plateau=float(rng.uniform(0.001, 0.2)),
                delta_rise=float(rng.uniform(0.001, 0.2)),
                gamma_hard=float(rng.uniform(-0.5, 0.5)),
                eps_cot=float(rng.uniform(0.0, 0.2)),
            )
            hp = SchedulerHyperparams(
                **{**hp.__dict__,
                   "lambda_hard_init": float(rng.uniform(0.0, hp.lambda_hard_max))}
            )
            sched = CurriculumScheduler(hp, domains=["mass|CT"], seed=run)
            for _ in range(30):
                n_e = int(rng.integers(1, 6))
                n_m = int(rng.integers(0, 6))
                report = drive_epoch(
                    sched,
                    easy=list(rng.uniform(0.1, 3.0, size=n_e)),
                    med=list(rng.uniform(0.1, 3.0, size=n_m)),
                    cot_easy=list(rng.uniform(0.0, 1.0, size=n_e)),
                    cot_med=list(rng.uniform(0.0, 1.0, size=n_m)),
                )
                lam = sched.lambda_hard
                assert 0.0 <= lam <= hp.lambda_hard_max
                assert report.lambda_hard <= hp.lambda_hard_max


class TestHyperparamValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("rho", 0.0), ("rho", 1.5), ("kappa", 0.0), ("tau", 0.0),
            ("q", 0), ("eta_down", 1.5), ("lambda_hard_max", 1.5),
            ("lambda_hard_init", 0.9), ("eps", 0.0),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValidationError):
            SchedulerHyperparams(**{field: value})
