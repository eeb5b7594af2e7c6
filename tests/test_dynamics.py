"""Scripted-dynamics scenarios and the decision traces they must produce.

Expected epochs were derived by hand: with one smoothed-mean delta recorded
per epoch starting at epoch 2, a window of q all-small deltas first exists
at epoch q + 1 after the underlying curve freezes, and with warmup = q = 5
and a curve frozen from epoch 6 the first budget increase lands at 11.
"""

import math
import re

import numpy as np
import pytest

from cotforge.dynamics import (
    BUILTIN_SCENARIOS,
    CurveEvent,
    CurveSpec,
    DynamicsSpec,
    builtin_scenario_path,
    run_dynamics_sim,
)
from cotforge.errors import ValidationError, read_object
from cotforge.scheduler import Decision


class TestCurveSpec:
    def test_exponential_decay(self):
        curve = CurveSpec(base=2.0, decay=0.15)
        assert curve.value(1) == pytest.approx(2.0)
        assert curve.value(2) == pytest.approx(2.0 * math.exp(-0.15), abs=1e-12)

    def test_plateau_freezes_curve(self):
        curve = CurveSpec(base=2.0, decay=0.15,
                          events=(CurveEvent("plateau", 6),))
        assert curve.value(9) == curve.value(6)
        assert curve.value(5) < curve.value(4)

    def test_rise_shifts_curve(self):
        curve = CurveSpec(base=1.0, events=(CurveEvent("rise", 20, 0.2),))
        assert curve.value(19) == pytest.approx(1.0)
        assert curve.value(20) == pytest.approx(1.2)
        assert curve.value(25) == pytest.approx(1.2)

    def test_noise_reproducible_and_optional(self):
        curve = CurveSpec(base=1.0, noise_std=0.1)
        a = curve.value(3, np.random.default_rng(4))
        b = curve.value(3, np.random.default_rng(4))
        assert a == b
        with pytest.raises(ValidationError):
            curve.value(3)

    def test_epoch_must_be_positive(self):
        with pytest.raises(ValidationError, match="^field 'epoch' must be at least 1, got 0$"):
            CurveSpec(base=1.0).value(0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValidationError):
            CurveSpec(base=-1.0)
        with pytest.raises(ValidationError):
            CurveSpec(base=1.0, decay=-0.1)


class TestSpecParsing:
    def test_builtin_scenarios_parse(self):
        for name in BUILTIN_SCENARIOS:
            spec = DynamicsSpec.from_path(builtin_scenario_path(name))
            assert spec.name == name
            assert spec.epochs == 30

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            read_object(DynamicsSpec, {
                "name": "x", "epochs": 1, "bogus": True,
                "domains": {"a|CT": {"easy": {"count": 1, "total": {"base": 1.0}}}},
            }, lambda: "scenario", ValidationError)

    def test_hard_stage_cot_rejected(self):
        with pytest.raises(ValidationError, match="rationale"):
            read_object(DynamicsSpec, {
                "name": "x", "epochs": 1,
                "domains": {"a|CT": {"hard": {
                    "count": 1, "total": {"base": 1.0}, "cot": {"base": 0.1},
                }}},
            }, lambda: "scenario", ValidationError)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            read_object(DynamicsSpec, {
                "name": "x", "epochs": 1, "seed": -1,
                "domains": {"a|CT": {"easy": {"count": 1, "total": {"base": 1.0}}}},
            }, lambda: "scenario", ValidationError)

    def test_hyperparam_overrides_applied(self):
        spec = DynamicsSpec.from_path(builtin_scenario_path("plateau"))
        assert spec.hyperparams.rho == 1.0
        assert spec.hyperparams.gamma_hard == 0.0

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValidationError):
            builtin_scenario_path("nope")


class TestPlateauScenario:
    def test_first_increase_exactly_at_warmup_plus_q_plus_one(self):
        spec = DynamicsSpec.from_path(builtin_scenario_path("plateau"))
        _, reports = run_dynamics_sim(spec)
        decisions = [r.decision for r in reports]
        assert decisions[:10] == [Decision.HOLD] * 10
        assert all(d == Decision.INCREASE_HARD for d in decisions[10:])
        hp = spec.hyperparams
        assert decisions.index(Decision.INCREASE_HARD) + 1 == hp.warmup_epochs + hp.q + 1

    def test_budget_ramps_then_caps(self):
        spec = DynamicsSpec.from_path(builtin_scenario_path("plateau"))
        _, reports = run_dynamics_sim(spec)
        budgets = [r.lambda_hard for r in reports]  # budget in effect per epoch
        assert budgets[10] == 0.0  # epoch 11 still ran on the old budget
        assert budgets[11] == 0.05
        assert budgets[16] == 0.3
        assert budgets[29] == 0.3


class TestRiseScenario:
    def test_single_reduce_exactly_at_rise_epoch(self):
        spec = DynamicsSpec.from_path(builtin_scenario_path("rise"))
        _, reports = run_dynamics_sim(spec)
        decisions = [r.decision for r in reports]
        assert decisions[19] == Decision.REDUCE_HARD
        others = decisions[:19] + decisions[20:]
        assert all(d == Decision.HOLD for d in others)
        # halved once: 0.2 -> 0.1
        assert reports[19].lambda_hard == 0.2
        assert reports[20].lambda_hard == 0.1
        assert reports[29].lambda_hard == 0.1


class TestMixedScenario:
    def test_everything_holds(self):
        spec = DynamicsSpec.from_path(builtin_scenario_path("mixed"))
        _, reports = run_dynamics_sim(spec)
        assert all(r.decision == Decision.HOLD for r in reports)
        assert all(r.lambda_hard == 0.0 for r in reports)
        # the gates disagree on purpose: gap stays open while progress is low
        assert all(not r.gap_ok for r in reports)
        assert all(not r.median_ok for r in reports if r.median_progress is not None)


class TestSimMechanics:
    def test_zero_epochs_gives_header_only(self):
        spec = read_object(DynamicsSpec, {
            "name": "empty", "epochs": 0,
            "domains": {"a|CT": {"easy": {"count": 1, "total": {"base": 1.0}}}},
        }, lambda: "scenario", ValidationError)
        header, reports = run_dynamics_sim(spec)
        assert header["kind"] == "header"
        assert header["epochs"] == 0
        assert reports == []

    @pytest.mark.parametrize("stages, fault", [
        # each rise is finite, their sum is not; with one item, no epoch's
        # sum of losses overflows before the curve does
        ({"easy": {"count": 1, "total": {"base": 1.0, "events": [
            {"kind": "rise", "epoch": 2, "magnitude": 1e308},
            {"kind": "rise", "epoch": 3, "magnitude": 1e308}]}}},
         "epoch 3, domain 'a|CT', stage 'easy', curve 'total': inf"),
        # seed 0's first draw past 1.8 standard deviations
        ({"easy": {"count": 1, "total": {"base": 1.0, "noise_std": 1e308}}},
         "epoch 13, domain 'a|CT', stage 'easy', curve 'total': -inf"),
        ({"hard": {"count": 1, "total": {"base": 1.0}},
          "medium": {"count": 1, "total": {"base": 1.0}, "cot": {"base": 1e308, "events": [
              {"kind": "rise", "epoch": 4, "magnitude": 1e308}]}}},
         "epoch 4, domain 'a|CT', stage 'medium', curve 'cot': inf"),
    ], ids=["rises", "noise", "cot"])
    def test_a_non_finite_scripted_loss_stops_the_run(self, stages, fault):
        spec = read_object(DynamicsSpec, {"name": "overflow", "epochs": 20,
                                          "domains": {"a|CT": stages}},
                           lambda: "scenario", ValidationError)
        with pytest.raises(ValidationError,
                           match=f"^non-finite scripted loss at {re.escape(fault)}$"):
            run_dynamics_sim(spec)

    def test_finite_losses_whose_sum_overflows_stop_the_run(self):
        # each scripted loss is 1e308; three of them sum to inf
        spec = read_object(DynamicsSpec, {"name": "big", "epochs": 3, "domains": {
            "mass|CT": {"easy": {"count": 3, "total": {"base": 1e308}}}}},
                           lambda: "scenario", ValidationError)
        with pytest.raises(ValidationError, match="^non-finite epoch mean or m_bar at epoch 1$"):
            run_dynamics_sim(spec)

    def test_deterministic_for_fixed_seed(self):
        spec = DynamicsSpec.from_path(builtin_scenario_path("rise"))
        _, a = run_dynamics_sim(spec)
        _, b = run_dynamics_sim(spec)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]
