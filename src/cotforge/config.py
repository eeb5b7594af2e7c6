"""Application configuration: one JSON document, strictly validated.

Four sections, all optional, all falling back to library defaults:
``forge`` (corpus building), ``scheduler`` (curriculum hyperparameters),
``harness`` (toy-training knobs), ``io`` (default paths that CLI flags
override). Unknown keys anywhere are configuration errors; typos must not
silently become defaults. The COTFORGE_CONFIG environment variable, when
set, overrides the --config flag entirely.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import List, Mapping, Optional

from .errors import ConfigError, ValidationError, check_keys
from .forge import DEFAULT_SEED_TEMPLATE
from .harness import HarnessParams
from .losses import StageLossWeights
from .scheduler import SchedulerHyperparams

ENV_VAR = "COTFORGE_CONFIG"


@dataclass(frozen=True)
class ForgeConfig:
    backend: str = "template"
    tau_iou: float = 0.0
    seed_templates: tuple = ()
    unassigned_policy: str = "skip"
    concurrency: int = 1
    remote_endpoint: Optional[str] = None
    remote_timeout: float = 10.0
    remote_attempts: int = 3
    remote_backoff_base: float = 0.5

    def __post_init__(self):
        if self.backend not in ("template", "remote"):
            raise ConfigError(
                f"forge backend must be 'template' or 'remote', got {self.backend!r}"
            )
        if self.backend == "remote" and not self.remote_endpoint:
            raise ConfigError("forge backend 'remote' needs a remote_endpoint")
        if self.tau_iou < 0.0:
            raise ConfigError("forge tau_iou must be non-negative")
        if self.unassigned_policy not in ("skip", "organ_free"):
            raise ConfigError(
                f"forge unassigned_policy must be 'skip' or 'organ_free', "
                f"got {self.unassigned_policy!r}"
            )
        if self.concurrency < 1:
            raise ConfigError("forge concurrency must be at least 1")
        if self.remote_attempts < 1:
            raise ConfigError("forge remote_attempts must be at least 1")
        if self.remote_timeout <= 0.0:
            raise ConfigError("forge remote_timeout must be positive")
        if self.remote_backoff_base < 0.0:
            raise ConfigError("forge remote_backoff_base must be non-negative")
        for template in self.seed_templates:
            try:
                template.format(lesion_class="x", organ_label="y")
            except (KeyError, IndexError, AttributeError):
                raise ConfigError(
                    f"forge seed template {template!r} must only use the "
                    "{lesion_class} and {organ_label} placeholders"
                ) from None

    def template_list(self) -> List[str]:
        """Rotation order for seeds: the stock template, then configured extras."""
        return [DEFAULT_SEED_TEMPLATE, *self.seed_templates]


@dataclass(frozen=True)
class IoConfig:
    dataset: Optional[str] = None
    masks: Optional[str] = None
    corpus: Optional[str] = None
    scenario: Optional[str] = None
    out: Optional[str] = None
    csv: Optional[str] = None


@dataclass(frozen=True)
class AppConfig:
    forge: ForgeConfig = field(default_factory=ForgeConfig)
    scheduler: SchedulerHyperparams = field(default_factory=SchedulerHyperparams)
    harness: HarnessParams = field(default_factory=HarnessParams)
    io: IoConfig = field(default_factory=IoConfig)


def _section(document: dict, name: str) -> dict:
    section = document.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return section


def _parse_forge(section: dict) -> ForgeConfig:
    defaults = ForgeConfig()
    check_keys(section, defaults.__dict__, "forge section", ConfigError)
    merged = {**defaults.__dict__, **section}
    merged["seed_templates"] = tuple(merged["seed_templates"])
    return ForgeConfig(**merged)


def _parse_scheduler(section: dict) -> SchedulerHyperparams:
    defaults = SchedulerHyperparams()
    check_keys(section, defaults.__dict__, "scheduler section", ConfigError)
    try:
        return SchedulerHyperparams(**{**defaults.__dict__, **section})
    except ValidationError as exc:
        raise ConfigError(f"scheduler section: {exc}") from None


def _parse_harness(section: dict) -> HarnessParams:
    check_keys(section, {f.name for f in fields(HarnessParams)},
               "harness section", ConfigError)
    merged = dict(section)
    weights = merged.pop("weights", None)
    if weights is not None:
        if not isinstance(weights, dict):
            raise ConfigError("harness weights must be an object")
        check_keys(weights, {"w_ans", "w_cot", "w_ground", "w_attn"},
                   "harness weights", ConfigError)
        try:
            merged["weights"] = StageLossWeights(**weights)
        except ValidationError as exc:
            raise ConfigError(f"harness weights: {exc}") from None
    for key in ("image_dims", "grid_dims"):
        if key in merged:
            dims = merged[key]
            if (not isinstance(dims, (list, tuple)) or len(dims) != 2
                    or not all(isinstance(d, int) and d > 0 for d in dims)):
                raise ConfigError(f"harness {key} must be two positive ints")
            merged[key] = tuple(dims)
    try:
        return HarnessParams(**merged)
    except ValidationError as exc:
        raise ConfigError(f"harness section: {exc}") from None


def _parse_io(section: dict) -> IoConfig:
    defaults = IoConfig()
    check_keys(section, defaults.__dict__, "io section", ConfigError)
    return IoConfig(**{**defaults.__dict__, **section})


def load_config(path: Optional[str],
                env: Mapping[str, str] = os.environ) -> AppConfig:
    """Load configuration from the env-var path, the given path, or defaults."""
    effective = env.get(ENV_VAR) or path
    if effective is None:
        return AppConfig()
    try:
        with open(effective, encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {effective}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {effective}: bad JSON ({exc})") from None
    if not isinstance(document, dict):
        raise ConfigError(f"config {effective}: top level must be an object")
    check_keys(document, {"forge", "scheduler", "harness", "io"},
               f"config {effective}", ConfigError)
    return AppConfig(
        forge=_parse_forge(_section(document, "forge")),
        scheduler=_parse_scheduler(_section(document, "scheduler")),
        harness=_parse_harness(_section(document, "harness")),
        io=_parse_io(_section(document, "io")),
    )
