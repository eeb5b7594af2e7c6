"""Acceptance checks, one test per numbered criterion.

Each test does all of its work, then emits exactly one PASS/FAIL verdict
line (echoed in the terminal summary via conftest) and asserts on the same
condition.
"""

import json
import math
import time
from itertools import product
from pathlib import Path

import numpy as np

import conftest
from corpus_utils import tiny_corpus
from oracles import (
    batch_grad_vector,
    decode,
    finite_difference_check,
    oracle_assign,
    oracle_batch_loss,
    organ_mask,
    param_vector,
    plan_batch,
    set_param_vector,
)
from cotforge import cli, fixture_path
from cotforge.dynamics import DynamicsSpec, builtin_scenario_path, run_dynamics_sim
from cotforge.forge import LesionAnnotation, assign_organ
from cotforge.geometry import BBox, build_soft_mask, kl_rows
from cotforge.scheduler import (
    CurriculumScheduler,
    Decision,
    DomainEpochStats,
    EpochReport,
    SchedulerHyperparams,
    p_medium,
    ramp,
    update_ema,
)
from cotforge.toymodel import Stage, ToyModel

GOLDEN = Path(__file__).parent / "golden"


def announce(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.acceptance_verdicts.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. organ assignment vs brute-force oracle on randomized images


def test_criterion_1_assignment_matches_bruteforce_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    unassigned = 0
    for i in range(100):
        masks = []
        for m in range(2):
            r0 = int(rng.integers(0, 40))
            c0 = int(rng.integers(0, 40))
            grid = np.zeros((64, 64), dtype=bool)
            grid[r0:r0 + int(rng.integers(8, 24)) + 1,
                 c0:c0 + int(rng.integers(8, 24)) + 1] = True
            masks.append(organ_mask(f"organ_{m}", grid))
        annotations = []
        for _ in range(int(rng.integers(1, 5))):
            x1 = float(rng.uniform(0.0, 0.8))
            y1 = float(rng.uniform(0.0, 0.8))
            box = BBox(x1, y1,
                       min(1.0, x1 + float(rng.uniform(0.05, 0.5))),
                       min(1.0, y1 + float(rng.uniform(0.05, 0.5))))
            annotations.append(LesionAnnotation(box=box, lesion_class="mass"))
        [outcomes] = assign_organ([(annotations, masks)], tau_iou=0.0)
        for ann, (label, iou) in zip(annotations, outcomes, strict=True):
            idx, best = oracle_assign(ann.box, [decode(om) for om in masks], tau_iou=0.0)
            expected = None if idx is None else masks[idx].organ_label
            checked += 1
            unassigned += expected is None
            if label != expected or iou != best:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    announce(1, mismatches == 0 and elapsed < 5.0,
             f"assignment equals brute-force oracle on {checked} annotations over "
             f"100 images ({unassigned} unassigned), {mismatches} mismatches, "
             f"{elapsed:.2f}s (limit 5s)")


# ---------------------------------------------------------------------------
# 2. forge CLI determinism against the committed golden


def test_criterion_2_forge_cli_deterministic(tmp_path, capsys):
    golden = (GOLDEN / "forge_corpus.jsonl").read_bytes()
    codes = []
    outputs = []
    for run in range(3):
        out = tmp_path / f"corpus_{run}.jsonl"
        codes.append(cli.main([
            "forge",
            "--dataset", str(fixture_path("forge_dataset.jsonl")),
            "--masks", str(fixture_path("forge_masks.jsonl")),
            "--out", str(out),
        ]))
        outputs.append(out.read_bytes())
    capsys.readouterr()
    identical = len(set(outputs)) == 1
    announce(2, codes == [0, 0, 0] and identical and outputs[0] == golden,
             f"3 forge runs byte-identical={identical}, matches golden="
             f"{outputs[0] == golden} ({len(golden)} bytes)")


# ---------------------------------------------------------------------------
# 3. scheduler formula identities


def test_criterion_3_formula_identities():
    problems = []
    if ramp(5, 10.0) != 0.0:
        problems.append(f"ramp(5) = {ramp(5, 10.0)}")
    if ramp(10, 10.0) != 0.5:
        problems.append(f"ramp(10) = {ramp(10, 10.0)}")
    if ramp(15, 10.0) != 1.0:
        problems.append(f"ramp(15) = {ramp(15, 10.0)}")
    for beta in (0.0, 0.1, 0.25, 0.37, 0.5, 0.9, 1.0):
        got = p_medium(0.2, beta, gamma=0.2, tau=0.1)
        if abs(got - beta / 2.0) > 1e-12:
            problems.append(f"p_medium at the gate for beta={beta}: {got}")
    if update_ema(1.0, 0.5, 0.1) != 0.95:
        problems.append(f"ema update = {update_ema(1.0, 0.5, 0.1)!r}")
    rng = np.random.default_rng(33)
    for _ in range(50):
        lam = float(rng.uniform(0.0, 1.0))
        batch = int(rng.integers(1, 513))
        plan = plan_batch(batch, lam, hard_pool_size=600, main_pool_size=600,
                          p_medium_per_item=np.full(600, 0.5), rng=rng)
        if len(plan.hard_indices) != math.floor(lam * batch):
            problems.append(f"hard slots for lam={lam}, B={batch}")
    announce(3, not problems,
             "ramp endpoints, gate p_medium, ema update, and 50 random "
             f"floor(lam*B) slot counts all exact; problems={problems or 'none'}")


# ---------------------------------------------------------------------------
# 4. scenario decisions and the 2^3 gate table


def _gate_probe(plateau_on: bool, median_on: bool, gap_on: bool):
    hp = SchedulerHyperparams()
    state = CurriculumScheduler(hp, domains=("d|CT",))
    state.epoch = 20
    state.lambda_hard = 0.1
    state.m_bar = 1.0
    for _ in range(hp.q - 1):
        state.delta_history.append(0.0)
    # quiet epoch keeps delta at 0; a drop of 0.5 is loud but below delta_rise
    mean_total = 1.0 if plateau_on else 0.5
    report = EpochReport(
        epoch=20, beta=1.0, lambda_hard=0.1,
        domains={"d|CT": DomainEpochStats(
            mean_easy=1.0, count_easy=4, mean_med=0.5, count_med=4,
            progress=0.5 if median_on else 0.0)},
        mean_total=mean_total,
        cot_easy_mean=0.2, cot_easy_count=4,
        cot_med_mean=0.2 if gap_on else 0.5, cot_med_count=4,
        counts={"easy": 4, "medium": 4, "hard": 0},
    )
    state.close_epoch(report)
    return report.decision, state.lambda_hard


def test_criterion_4_scenarios_and_gate_table():
    t0 = time.perf_counter()
    problems = []

    spec = DynamicsSpec.from_path(builtin_scenario_path("plateau"))
    _, reports = run_dynamics_sim(spec)
    increases = [r.epoch for r in reports if r.decision is Decision.INCREASE_HARD]
    expected_first = spec.hyperparams.warmup_epochs + spec.hyperparams.q + 1
    if not increases:
        problems.append("plateau scenario never increased the hard budget")
    elif increases[0] != expected_first:
        problems.append(f"first increase at epoch {increases[0]}, "
                        f"expected {expected_first}")

    spec = DynamicsSpec.from_path(builtin_scenario_path("rise"))
    rise_epochs = sorted({event.epoch
                          for stages in spec.domains.values()
                          for dyn in stages.values()
                          for event in dyn.total.events if event.kind == "rise"})
    _, reports = run_dynamics_sim(spec)
    reduces = [r.epoch for r in reports if r.decision is Decision.REDUCE_HARD]
    if reduces != rise_epochs:
        problems.append(f"rise scenario reduced at {reduces}, scripted rise at {rise_epochs}")

    spec = DynamicsSpec.from_path(builtin_scenario_path("mixed"))
    _, reports = run_dynamics_sim(spec)
    if any(r.decision is not Decision.HOLD for r in reports):
        problems.append("mixed scenario produced a non-hold decision")
    if any(r.lambda_hard_after != 0.0 for r in reports):
        problems.append("mixed scenario moved the hard budget")

    for flags in product((False, True), repeat=3):
        decision, lam_after = _gate_probe(*flags)
        should_fire = all(flags)
        fired = decision is Decision.INCREASE_HARD
        if fired != should_fire:
            problems.append(f"gate combination {flags} -> {decision}")
        if lam_after != (0.15000000000000002 if should_fire else 0.1):
            problems.append(f"gate combination {flags} moved budget to {lam_after}")

    elapsed = time.perf_counter() - t0
    announce(4, not problems and elapsed < 10.0,
             f"plateau increase at epoch {expected_first}, single scripted reduce, "
             f"all-hold mixed run, 8/8 gate combinations correct, {elapsed:.2f}s "
             f"(limit 10s); problems={problems or 'none'}")


# ---------------------------------------------------------------------------
# 5. budget safety over randomized runs


def test_criterion_5_budget_safety_randomized():
    rng = np.random.default_rng(55)
    stages = ("easy", "medium", "hard")
    violations = 0
    runs, epochs = 1000, 100
    for run in range(runs):
        lam_max = float(rng.uniform(0.0, 1.0))
        hp = SchedulerHyperparams(
            rho=float(rng.uniform(0.05, 1.0)),
            kappa=float(rng.uniform(1.0, 20.0)),
            warmup_epochs=int(rng.integers(0, 9)),
            gamma=float(rng.uniform(-0.2, 0.4)),
            tau=float(rng.uniform(0.02, 0.5)),
            gamma_hard=float(rng.uniform(0.0, 0.5)),
            eps_plateau=float(rng.uniform(0.001, 0.1)),
            q=int(rng.integers(1, 8)),
            eps_cot=float(rng.uniform(0.0, 0.2)),
            delta_rise=float(rng.uniform(0.001, 0.2)),
            eta_up=float(rng.uniform(0.0, 0.3)),
            eta_down=float(rng.uniform(0.0, 1.0)),
            lambda_hard_max=lam_max,
            lambda_hard_init=lam_max * float(rng.uniform(0.0, 1.0)),
        )
        sched = CurriculumScheduler(hp, domains=("a|CT", "b|MR"), seed=run)
        for _ in range(epochs):
            ctx = sched.start_epoch()
            for _ in range(3):
                stage = stages[int(rng.integers(0, 3))]
                sched.observe(["a|CT" if rng.random() < 0.5 else "b|MR"],
                              [stage],
                              [float(rng.uniform(0.1, 3.0))],
                              [None if stage == "hard"
                               else float(rng.uniform(0.0, 1.0))])
            report = sched.end_of_epoch()
            if not 0.0 <= ctx.lambda_hard <= lam_max:
                violations += 1
            if report.lambda_hard != ctx.lambda_hard:
                violations += 1
            if not 0.0 <= report.lambda_hard_after <= lam_max:
                violations += 1
    announce(5, violations == 0,
             f"{runs} randomized runs x {epochs} epochs: budget stayed in "
             f"[0, lambda_max] and constant within each epoch, "
             f"{violations} violations")


# ---------------------------------------------------------------------------
# 6. realized medium rate under a constant assignment probability


def test_criterion_6_constant_probability_assignment_rate():
    rng = np.random.default_rng(66)
    medium = 0
    main_total = 0
    while main_total < 10000:
        plan = plan_batch(100, 0.2, hard_pool_size=200, main_pool_size=20000,
                          p_medium_per_item=np.full(20000, 0.4), rng=rng)
        medium += plan.main_stages.count("medium")
        main_total += len(plan.main_indices)
    frac = medium / main_total
    announce(6, abs(frac - 0.4) <= 0.015,
             f"medium fraction {frac:.4f} over {main_total} non-hard slots "
             f"at p=0.4 (tolerance 0.015)")


# ---------------------------------------------------------------------------
# 7. KL properties and analytic-vs-numeric stage gradients


def test_criterion_7_kl_and_stage_gradients():
    rng = np.random.default_rng(77)
    problems = []
    for _ in range(1000):
        p = rng.dirichlet(np.ones(16)).reshape(1, 16)
        q = rng.dirichlet(np.ones(16)).reshape(1, 16)
        if kl_rows(p, q)[0][0] < 0.0:
            problems.append("negative KL")
            break
        if abs(kl_rows(p, p)[0][0]) > 1e-12:
            problems.append("identical-pair KL above 1e-12")
            break

    corpus = tiny_corpus()
    model = ToyModel(corpus, grid_dims=(2, 2), feature_dim=3, seed=0)
    indices = list(range(len(corpus)))
    soft = list(build_soft_mask([r.box for r in corpus], (16, 16), (2, 2),
                                sigma=2.0, floor=1e-3))
    base = param_vector(model)
    worst = 0.0
    for stage in (Stage.EASY, Stage.MEDIUM, Stage.HARD):
        stage_list = [stage] * len(indices)
        targets = soft if stage is Stage.MEDIUM else [None] * len(indices)

        def value_at(x):
            set_param_vector(model, x)
            return oracle_batch_loss(model, indices, stage_list, targets)

        for _ in range(10):
            x = base + rng.normal(0.0, 0.2, size=base.shape)
            set_param_vector(model, x)
            analytic = batch_grad_vector(model, indices, stage_list, targets)
            err = finite_difference_check(value_at, analytic, x)
            worst = max(worst, err)
            if err > 1e-5:
                problems.append(f"{stage.value} gradient error {err:.2e}")
    set_param_vector(model, base)
    announce(7, not problems,
             "1000 random KL pairs non-negative, identical pairs at zero, "
             f"worst stage-gradient relative error {worst:.2e} (limit 1e-5); "
             f"problems={problems or 'none'}")


# ---------------------------------------------------------------------------
# 8. default-config toy run reproduces the committed trace


def test_criterion_8_default_trace_reproduces_golden(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "trace.jsonl"
    code = cli.main(["train-toy",
                     "--corpus", str(fixture_path("toy_corpus.jsonl")),
                     "--out", str(out)])
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    produced = out.read_bytes()
    golden = (GOLDEN / "trace_toy_40ep.jsonl").read_bytes()
    rows = [json.loads(line) for line in produced.decode().splitlines()]
    no_medium_in_warmup = all(r["realized"]["medium"] == 0.0 for r in rows[1:6])
    announce(8, code == 0 and produced == golden and no_medium_in_warmup
             and elapsed < 60.0,
             f"40-epoch default run matches golden byte-for-byte "
             f"({len(produced)} bytes), no medium items in epochs 1-5, "
             f"{elapsed:.1f}s (limit 60s)")
