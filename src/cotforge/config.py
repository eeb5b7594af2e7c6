"""Application configuration: one JSON document, strictly validated.

Four sections, all optional, all falling back to library defaults:
``forge`` (corpus building), ``scheduler`` (curriculum hyperparameters),
``harness`` (toy-training knobs), ``io`` (default paths that CLI flags
override). Unknown keys anywhere are configuration errors; typos must not
silently become defaults. The COTFORGE_CONFIG environment variable, when
set, overrides the --config flag entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Annotated, List, Mapping, Optional, Tuple

from .errors import (ConfigError, NonNegative, PositiveInt, Record, ValidationError, load_json,
                     one_of)
from .forge import (DEFAULT_SEED_TEMPLATE, Concurrency, HttpUrl, RemoteBackoff, RemoteTimeout,
                    SeedTemplate, UnassignedPolicy)
from .harness import HarnessParams
from .scheduler import SchedulerHyperparams

ENV_VAR = "COTFORGE_CONFIG"


@dataclass(frozen=True)
class ForgeConfig(Record):
    backend: Annotated[str, one_of("template", "remote")] = "template"
    tau_iou: NonNegative = 0.0
    seed_templates: Tuple[SeedTemplate, ...] = ()
    unassigned_policy: UnassignedPolicy = "skip"
    concurrency: Concurrency = 1
    remote_endpoint: Optional[HttpUrl] = None
    remote_timeout: RemoteTimeout = 10.0
    remote_attempts: PositiveInt = 3
    remote_backoff_base: RemoteBackoff = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.backend == "remote" and self.remote_endpoint is None:
            raise ValidationError("backend 'remote' needs a remote_endpoint")

    def template_list(self) -> List[str]:
        """Rotation order for seeds: the stock template, then configured extras."""
        return [DEFAULT_SEED_TEMPLATE, *self.seed_templates]


@dataclass(frozen=True)
class IoConfig(Record):
    dataset: Optional[str] = None
    masks: Optional[str] = None
    corpus: Optional[str] = None
    scenario: Optional[str] = None
    out: Optional[str] = None
    csv: Optional[str] = None


@dataclass(frozen=True)
class AppConfig(Record):
    forge: ForgeConfig = field(default_factory=ForgeConfig)
    scheduler: SchedulerHyperparams = field(default_factory=SchedulerHyperparams)
    harness: HarnessParams = field(default_factory=HarnessParams)
    io: IoConfig = field(default_factory=IoConfig)


def config_path(path: Optional[str], env: Mapping[str, str] = os.environ) -> Optional[str]:
    """The config file to read: the env-var path, else the given one."""
    return env.get(ENV_VAR) or path


def load_config(path: Optional[str],
                env: Mapping[str, str] = os.environ) -> AppConfig:
    """Load configuration from the env-var path, the given path, or defaults."""
    effective = config_path(path, env)
    if effective is None:
        return AppConfig()
    return load_json(effective, AppConfig, "config", ConfigError)
