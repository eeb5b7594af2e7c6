"""Scripted loss dynamics for exercising the budget controller offline.

A scenario file describes, per domain and stage, how the mean loss evolves
over epochs: exponential decay from a base value, optionally frozen from
some epoch on (a forced plateau) or shifted upward from some epoch on (a
regression). The simulator feeds those means through the real scheduler,
so decision traces come from the production control path, with only the
losses synthesized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ValidationError, check_keys
from .scheduler import (
    STAGES,
    CurriculumScheduler,
    EpochReport,
    SchedulerHyperparams,
)

BUILTIN_SCENARIOS = ("plateau", "rise", "mixed")


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

    @classmethod
    def from_json_dict(cls, obj: dict, context: str) -> "CurveEvent":
        check_keys(obj, {"kind", "epoch", "magnitude"}, context, ValidationError)
        kind = obj.get("kind")
        if kind not in ("plateau", "rise"):
            raise ValidationError(f"{context}: event kind must be plateau or rise")
        epoch = obj.get("epoch")
        if not isinstance(epoch, int) or epoch < 1:
            raise ValidationError(f"{context}: event epoch must be a positive int")
        magnitude = obj.get("magnitude", 0.0)
        if kind == "rise" and magnitude <= 0.0:
            raise ValidationError(f"{context}: rise needs a positive magnitude")
        return cls(kind=kind, epoch=epoch, magnitude=float(magnitude))


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

    @classmethod
    def from_json_dict(cls, obj: dict, context: str) -> "CurveSpec":
        check_keys(obj, {"base", "decay", "noise_std", "events"}, context,
                   ValidationError)
        if "base" not in obj:
            raise ValidationError(f"{context}: curve needs a base value")
        events = tuple(
            CurveEvent.from_json_dict(e, f"{context} event {i}")
            for i, e in enumerate(obj.get("events", []))
        )
        return cls(
            base=float(obj["base"]),
            decay=float(obj.get("decay", 0.0)),
            noise_std=float(obj.get("noise_std", 0.0)),
            events=events,
        )

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

    @classmethod
    def from_json_dict(cls, obj: dict, stage: str, context: str) -> "StageDynamics":
        check_keys(obj, {"count", "total", "cot"}, context, ValidationError)
        count = obj.get("count")
        if not isinstance(count, int) or count < 1:
            raise ValidationError(f"{context}: count must be a positive int")
        if "total" not in obj:
            raise ValidationError(f"{context}: stage needs a total curve")
        total = CurveSpec.from_json_dict(obj["total"], f"{context} total")
        cot = None
        if "cot" in obj:
            if stage == "hard":
                raise ValidationError(f"{context}: hard stage has no rationale curve")
            cot = CurveSpec.from_json_dict(obj["cot"], f"{context} cot")
        return cls(count=count, total=total, cot=cot)


@dataclass(frozen=True)
class DynamicsSpec:
    name: str
    epochs: int
    seed: int
    hyperparams: SchedulerHyperparams
    domains: Dict[str, Dict[str, StageDynamics]]

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DynamicsSpec":
        check_keys(obj, {"name", "epochs", "seed", "hyperparams", "domains"},
                   "scenario", ValidationError)
        name = obj.get("name")
        if not name or not isinstance(name, str):
            raise ValidationError("scenario needs a non-empty name")
        epochs = obj.get("epochs")
        if not isinstance(epochs, int) or epochs < 0:
            raise ValidationError("scenario epochs must be a non-negative int")
        seed = obj.get("seed", 0)
        if not isinstance(seed, int):
            raise ValidationError("scenario seed must be an int")
        hp_overrides = obj.get("hyperparams", {})
        if not isinstance(hp_overrides, dict):
            raise ValidationError("scenario hyperparams must be an object")
        defaults = SchedulerHyperparams()
        check_keys(hp_overrides, defaults.__dict__, "scenario hyperparams",
                   ValidationError)
        hp = SchedulerHyperparams(**{**defaults.__dict__, **hp_overrides})
        raw_domains = obj.get("domains")
        if not isinstance(raw_domains, dict) or not raw_domains:
            raise ValidationError("scenario needs at least one domain")
        domains = {}
        for key, stages in raw_domains.items():
            if not isinstance(stages, dict) or not stages:
                raise ValidationError(f"domain {key!r}: needs at least one stage")
            check_keys(stages, STAGES, f"domain {key!r}", ValidationError)
            domains[key] = {
                stage: StageDynamics.from_json_dict(
                    spec, stage, f"domain {key!r} stage {stage!r}"
                )
                for stage, spec in stages.items()
            }
        return cls(name=name, epochs=epochs, seed=seed, hyperparams=hp,
                   domains=domains)

    @classmethod
    def from_path(cls, path) -> "DynamicsSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except FileNotFoundError:
            raise ValidationError(f"scenario file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario {path}: bad JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ValidationError(f"scenario {path}: top level must be an object")
        return cls.from_json_dict(obj)

    def domain_keys(self) -> List[str]:
        return list(self.domains)


def run_dynamics_sim(spec: DynamicsSpec) -> Tuple[dict, List[EpochReport]]:
    """Drive the scheduler with scripted losses; returns (header, reports)."""
    scheduler = CurriculumScheduler(spec.hyperparams, domains=spec.domain_keys(),
                                    seed=spec.seed)
    rng = np.random.default_rng(spec.seed)
    reports = []
    for epoch in range(1, spec.epochs + 1):
        scheduler.start_epoch()
        for domain, stages in spec.domains.items():
            for stage, dyn in stages.items():
                total = dyn.total.value(epoch, rng)
                cot = dyn.cot.value(epoch, rng) if dyn.cot is not None else None
                for _ in range(dyn.count):
                    scheduler.observe(domain, stage, total, cot_loss=cot)
        reports.append(scheduler.end_of_epoch())
    header = {
        "kind": "header",
        "mode": "dynamics-sim",
        "scenario": spec.name,
        "epochs": spec.epochs,
        "seed": spec.seed,
        "hyperparams": spec.hyperparams.to_json_dict(),
    }
    return header, reports
