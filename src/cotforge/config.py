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
from typing import List, Mapping, Optional, Tuple
from urllib.parse import urlsplit

from .errors import ConfigError, ValidationError, load_json
from .forge import DEFAULT_SEED_TEMPLATE, check_options, check_remote_options
from .harness import HarnessParams
from .scheduler import SchedulerHyperparams

ENV_VAR = "COTFORGE_CONFIG"


def _is_http_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        return False
    return parts.scheme.lower() in ("http", "https") and bool(parts.netloc)


@dataclass(frozen=True)
class ForgeConfig:
    backend: str = "template"
    tau_iou: float = 0.0
    seed_templates: Tuple[str, ...] = ()
    unassigned_policy: str = "skip"
    concurrency: int = 1
    remote_endpoint: Optional[str] = None
    remote_timeout: float = 10.0
    remote_attempts: int = 3
    remote_backoff_base: float = 0.5

    def __post_init__(self):
        if self.backend not in ("template", "remote"):
            raise ValidationError(
                f"backend must be 'template' or 'remote', got {self.backend!r}")
        if self.backend == "remote" and not self.remote_endpoint:
            raise ValidationError("backend 'remote' needs a remote_endpoint")
        if self.remote_endpoint is not None and not _is_http_url(self.remote_endpoint):
            raise ValidationError(
                f"remote_endpoint must be an http:// or https:// URL with a "
                f"host, got {self.remote_endpoint!r}"
            )
        check_remote_options(self.remote_timeout, self.remote_attempts,
                             self.remote_backoff_base, prefix="remote_")
        check_options(self.tau_iou, self.unassigned_policy, self.concurrency,
                      self.seed_templates)

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
