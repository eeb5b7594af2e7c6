"""Scripted loss dynamics for exercising the budget controller offline.

A scenario file describes, per domain and stage, how the mean loss evolves
over epochs: exponential decay from a base value, optionally frozen from
some epoch on (a forced plateau) or shifted upward from some epoch on (a
regression). The simulator feeds those means through the real scheduler,
so decision traces come from the production control path, with only the
losses synthesized.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Annotated, Dict, Optional, Tuple

import numpy as np

from .errors import (NON_EMPTY, NonEmptyStr, NonNegative, NonNegativeInt, PositiveInt, Record,
                     Rule, ValidationError, checked, in_range, load_json, one_of)
from .scheduler import CurriculumScheduler, SchedulerHyperparams, Stage, Trace

BUILTIN_SCENARIOS = ("plateau", "rise", "mixed")
# Largest item count of a domain's stage; each epoch lists every item.
MAX_STAGE_COUNT = 1_000_000


def builtin_scenario_path(name: str) -> Path:
    if name not in BUILTIN_SCENARIOS:
        raise ValidationError(
            f"unknown scenario {name!r}, expected one of {BUILTIN_SCENARIOS}"
        )
    from . import fixture_path

    return fixture_path(f"scenario_{name}.json")


@dataclass(frozen=True)
class CurveEvent(Record):
    kind: Annotated[str, one_of("plateau", "rise")]
    epoch: PositiveInt
    magnitude: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "rise" and self.magnitude <= 0.0:
            raise ValidationError("rise needs a positive magnitude")


@dataclass(frozen=True)
class CurveSpec(Record):
    """Mean loss as a function of epoch: base * exp(-decay * (e - 1))."""

    base: NonNegative
    decay: NonNegative = 0.0
    noise_std: NonNegative = 0.0
    events: Tuple[CurveEvent, ...] = ()

    def value(self, epoch: int, rng: Optional[np.random.Generator] = None) -> float:
        effective = epoch = checked("epoch", epoch, PositiveInt)
        shift = 0.0
        for event in self.events:
            if event.kind == "plateau":
                effective = min(effective, event.epoch)
            elif epoch >= event.epoch:
                shift += event.magnitude
        out = self.base * math.exp(-self.decay * (effective - 1)) + shift
        if self.noise_std > 0.0:
            if rng is None:
                raise ValidationError("noisy curve needs an rng")
            out += float(rng.normal(0.0, self.noise_std))
        return out


@dataclass(frozen=True)
class StageDynamics(Record):
    count: Annotated[int, in_range(1, MAX_STAGE_COUNT)]
    total: CurveSpec
    cot: Optional[CurveSpec] = None


# a domain's stages: one or more of Stage's values
Stages = Annotated[Dict[str, StageDynamics], Rule(
    lambda stages: stages and set(stages) <= set(Stage),
    f"name one or more of the stages {[s.value for s in Stage]}", sorted)]


@dataclass(frozen=True)
class DynamicsSpec(Record):
    name: NonEmptyStr
    epochs: NonNegativeInt
    domains: Annotated[Dict[str, Stages], NON_EMPTY]
    seed: NonNegativeInt = 0
    hyperparams: SchedulerHyperparams = field(default_factory=SchedulerHyperparams)

    def __post_init__(self):
        super().__post_init__()
        for key, stages in self.domains.items():
            if "hard" in stages and stages["hard"].cot is not None:
                raise ValidationError(
                    f"domain {key!r} stage 'hard': hard stage has no rationale curve"
                )

    @classmethod
    def from_path(cls, path) -> "DynamicsSpec":
        return load_json(path, cls, "scenario", ValidationError)


def run_dynamics_sim(spec: DynamicsSpec) -> Trace:
    """Drive the scheduler with scripted losses; returns the run's trace."""
    scheduler = CurriculumScheduler(spec.hyperparams, domains=list(spec.domains),
                                    seed=spec.seed)
    rng = np.random.default_rng(spec.seed)
    reports = []
    for epoch in range(1, spec.epochs + 1):
        scheduler.start_epoch()
        for domain, stages in spec.domains.items():
            for stage, dyn in stages.items():
                total = dyn.total.value(epoch, rng)
                cot = dyn.cot.value(epoch, rng) if dyn.cot is not None else None
                for curve, loss in (("total", total), ("cot", cot)):
                    if loss is not None and not math.isfinite(loss):
                        raise ValidationError(
                            f"non-finite scripted loss at epoch {epoch}, domain {domain!r}, "
                            f"stage {stage!r}, curve {curve!r}: {loss}")
                n = dyn.count
                scheduler.observe([domain] * n, [stage] * n, [total] * n, [cot] * n)
        reports.append(scheduler.end_of_epoch())
    header = {
        "kind": "header",
        "mode": "dynamics-sim",
        "scenario": spec.name,
        "epochs": spec.epochs,
        "seed": spec.seed,
        "hyperparams": asdict(spec.hyperparams),
    }
    return Trace(header, reports)
