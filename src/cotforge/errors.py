"""Exception types shared across the package, and the strict key check.

The CLI maps these onto process exit codes: ValidationError -> 1,
ConfigError -> 2, BackendError (and subclasses) -> 3.
"""


class ValidationError(ValueError):
    """Input data violates a documented contract (bad schema, bad geometry)."""


class ConfigError(ValueError):
    """Configuration file or section is missing, malformed, or out of range."""


class BackendError(RuntimeError):
    """A QA backend failed (transport error, bad status, retries exhausted)."""


class MalformedResponseError(BackendError):
    """A QA backend answered but the payload is missing required fields."""


def check_keys(obj: dict, allowed, context: str, error: type):
    """Raise ``error`` naming any key of ``obj`` outside ``allowed``."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise error(
            f"{context}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
