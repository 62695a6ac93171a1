"""Resource caps, each set only by its environment variable, and default budgets.

Every cap and default budget is read when it is used, so callers see the
current environment; nothing is cached at import time.  check_cap is the
one place a request is held against a cap.
"""

import os

_ENV_BUDGET_NODES = "CUBECODES_BUDGET_NODES"
_ENV_BUDGET_SECONDS = "CUBECODES_BUDGET_SECONDS"

# ResourceLimitError.cap_name -> (environment variable, default)
_CAPS = {
    "enum_cap": ("CUBECODES_ENUM_CAP", 1 << 20),
    "graph_cap": ("CUBECODES_GRAPH_CAP", 1 << 17),
    "engine_cap": ("CUBECODES_ENGINE_CAP", 1 << 12),
}


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
    return _int_env(*_CAPS["enum_cap"])


def graph_cap() -> int:
    """Maximum vertex count for a materialized induced graph."""
    return _int_env(*_CAPS["graph_cap"])


def engine_cap() -> int:
    """Maximum vertex count the exact-cover search engine accepts."""
    return _int_env(*_CAPS["engine_cap"])


def check_cap(cap_name: str, needed: int, what: str) -> None:
    """Raise ResourceLimitError when needed exceeds the named cap.

    cap_name is "enum_cap", "graph_cap" or "engine_cap"; what names the
    request and opens the message, which gives the cap and its variable.
    """
    env, default = _CAPS[cap_name]
    cap = _int_env(env, default)
    if needed > cap:
        raise ResourceLimitError(
            f"{what} exceeds the cap of {cap} (raise {env} to override)", cap_name, cap
        )


_non_negative_int = non_negative(int)
_non_negative_float = non_negative(float)


def default_node_budget():
    """Default search node budget (None = unbounded)."""
    return _parse_env(_ENV_BUDGET_NODES, _non_negative_int, None)


def default_time_budget():
    """Default search time budget in seconds (None = unbounded)."""
    return _parse_env(_ENV_BUDGET_SECONDS, _non_negative_float, None)
