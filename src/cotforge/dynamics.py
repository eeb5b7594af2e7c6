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
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import ValidationError, load_json
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
class CurveEvent:
    kind: str
    epoch: int
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("plateau", "rise"):
            raise ValidationError("event kind must be plateau or rise")
        if self.epoch < 1:
            raise ValidationError("event epoch must be a positive int")
        if self.kind == "rise" and self.magnitude <= 0.0:
            raise ValidationError("rise needs a positive magnitude")


@dataclass(frozen=True)
class CurveSpec:
    """Mean loss as a function of epoch: base * exp(-decay * (e - 1))."""

    base: float
    decay: float = 0.0
    noise_std: float = 0.0
    events: Tuple[CurveEvent, ...] = ()

    def __post_init__(self):
        if self.base < 0.0:
            raise ValidationError("curve base must be non-negative")
        if self.decay < 0.0:
            raise ValidationError("curve decay must be non-negative")
        if self.noise_std < 0.0:
            raise ValidationError("curve noise_std must be non-negative")

    def value(self, epoch: int, rng: Optional[np.random.Generator] = None) -> float:
        if epoch < 1:
            raise ValidationError("curve epoch must be at least 1")
        effective = epoch
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
class StageDynamics:
    count: int
    total: CurveSpec
    cot: Optional[CurveSpec] = None

    def __post_init__(self):
        if not 1 <= self.count <= MAX_STAGE_COUNT:
            raise ValidationError(f"count must be an int in [1, {MAX_STAGE_COUNT}]")


@dataclass(frozen=True)
class DynamicsSpec:
    name: str
    epochs: int
    domains: Dict[str, Dict[str, StageDynamics]]
    seed: int = 0
    hyperparams: SchedulerHyperparams = field(default_factory=SchedulerHyperparams)

    def __post_init__(self):
        if not self.name:
            raise ValidationError("scenario needs a non-empty name")
        if self.epochs < 0:
            raise ValidationError("scenario epochs must be a non-negative int")
        if self.seed < 0:
            raise ValidationError("scenario seed must be non-negative")
        if not self.domains:
            raise ValidationError("scenario needs at least one domain")
        for key, stages in self.domains.items():
            if not stages or not set(stages) <= set(Stage):
                raise ValidationError(
                    f"domain {key!r}: stages must be one or more of "
                    f"{[s.value for s in Stage]}, got {sorted(stages)}")
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
