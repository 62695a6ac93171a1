"""Resource caps and their environment-variable overrides.

Every cap is a plain module function so callers always see the current
environment; nothing is cached at import time.
"""

import os

_ENV_ENUM_CAP = "CUBECODES_ENUM_CAP"
_ENV_GRAPH_CAP = "CUBECODES_GRAPH_CAP"
_ENV_ENGINE_CAP = "CUBECODES_ENGINE_CAP"
_ENV_BUDGET_NODES = "CUBECODES_BUDGET_NODES"
_ENV_BUDGET_SECONDS = "CUBECODES_BUDGET_SECONDS"

DEFAULT_ENUM_CAP = 1 << 20
DEFAULT_GRAPH_CAP = 1 << 17
DEFAULT_ENGINE_CAP = 1 << 12


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""

    def __init__(self, message: str, cap_name: str, cap_value: int):
        super().__init__(message)
        self.cap_name = cap_name
        self.cap_value = cap_value


def _parse_env(name: str, parse, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid {parse.__name__}") from None


def _int_env(name: str, default: int | None) -> int | None:
    return _parse_env(name, int, default)


def non_negative(parse):
    """parse, refusing NaN and negative values with a ValueError."""

    def check(raw: str):
        value = parse(raw)
        if not value >= 0:
            raise ValueError(f"{raw!r} is negative or NaN")
        return value

    check.__name__ = f"non-negative {parse.__name__}"
    return check


def enum_cap() -> int:
    """Maximum number of candidate words an enumeration may scan."""
    return _int_env(_ENV_ENUM_CAP, DEFAULT_ENUM_CAP)


def graph_cap() -> int:
    """Maximum vertex count for a materialized induced graph."""
    return _int_env(_ENV_GRAPH_CAP, DEFAULT_GRAPH_CAP)


def engine_cap() -> int:
    """Maximum vertex count the exact-cover search engine accepts."""
    return _int_env(_ENV_ENGINE_CAP, DEFAULT_ENGINE_CAP)


_non_negative_int = non_negative(int)
_non_negative_float = non_negative(float)


def default_node_budget():
    """Default search node budget (None = unbounded)."""
    return _parse_env(_ENV_BUDGET_NODES, _non_negative_int, None)


def default_time_budget():
    """Default search time budget in seconds (None = unbounded)."""
    return _parse_env(_ENV_BUDGET_SECONDS, _non_negative_float, None)
