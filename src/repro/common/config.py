"""A Hadoop-style string key/value configuration object.

Hadoop's ``Configuration``/``JobConf`` stores everything as strings and
offers typed accessors; jobs are parameterised entirely through it
(Figure 4 lines 24-34 of the paper). We reproduce that surface, since
several Clydesdale behaviours (dimension table directory, query params,
split packing counts) travel through the configuration.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, Mapping

from repro.common.errors import ConfigError
from repro.common.keys import CONFIG_KEYS, KEY_TRACE


class Configuration:
    """Mutable string-keyed configuration with typed getters.

    >>> conf = Configuration()
    >>> conf.set("a.b", 3)
    >>> conf.get_int("a.b")
    3
    >>> conf.get_int("missing", 7)
    7

    A typed getter called without a default falls back to the key's
    registered default (:data:`repro.common.keys.CONFIG_KEYS`), so each
    default is written once, in the registry.
    """

    def __init__(self, initial: Mapping[str, Any] | None = None):
        self._data: dict[str, str] = {}
        if initial:
            for key, value in initial.items():
                self.set(key, value)

    def set(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (converted to a string)."""
        if not isinstance(key, str) or not key:
            raise ConfigError(f"configuration key must be a non-empty str, "
                              f"got {key!r}")
        if isinstance(value, bool):
            self._data[key] = "true" if value else "false"
        elif isinstance(value, (list, dict)):
            self._data[key] = json.dumps(value)
        else:
            self._data[key] = str(value)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._data.get(key, default)

    def require(self, key: str) -> str:
        """Return ``key`` or raise :class:`ConfigError` when absent."""
        try:
            return self._data[key]
        except KeyError as exc:
            raise ConfigError(f"missing required configuration {key!r}") \
                from exc

    @staticmethod
    def _registered_default(key: str) -> Any:
        entry = CONFIG_KEYS.get(key)
        return entry.default if entry is not None else None

    def get_int(self, key: str, default: int | None = None) -> int:
        raw = self._data.get(key)
        if raw is None:
            if default is None:
                default = self._registered_default(key)
            if default is None:
                raise ConfigError(f"missing integer configuration {key!r}")
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}={raw!r} is not an integer") from exc

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self._data.get(key)
        if raw is None:
            if default is None:
                default = self._registered_default(key)
            if default is None:
                raise ConfigError(f"missing float configuration {key!r}")
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}={raw!r} is not a float") from exc

    def get_bool(self, key: str, default: bool | None = None) -> bool:
        raw = self._data.get(key)
        if raw is None:
            if default is None:
                default = self._registered_default(key)
            return bool(default)
        return raw.strip().lower() in ("true", "1", "yes")

    def get_json(self, key: str, default: Any = None) -> Any:
        raw = self._data.get(key)
        if raw is None:
            return default
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{key} does not hold valid JSON") from exc

    def update(self, other: "Configuration | Mapping[str, Any]") -> None:
        items = other.items() if isinstance(other, Configuration) \
            else other.items()
        for key, value in items:
            self.set(key, value)

    def items(self) -> Iterator[tuple[str, str]]:
        return iter(sorted(self._data.items()))

    def copy(self) -> "Configuration":
        clone = Configuration()
        clone._data = dict(self._data)
        return clone

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"Configuration({len(self._data)} keys)"


def check_session_conf(conf: Configuration) -> None:
    """Raise :class:`ConfigError` naming every key of ``conf`` no session
    or frontend reads (jobs are planned with a fresh conf, so a job key,
    an engine flag or a typo set here would be dropped silently)."""
    unread = [key for key, _ in conf.items() if key not in CONFIG_KEYS
              or not (key == KEY_TRACE or key.startswith(
                  ("clydesdale.cache.", "clydesdale.serve.")))]
    if unread:
        raise ConfigError(
            f"no session or frontend reads {unread}; a session conf takes "
            f"{KEY_TRACE}, clydesdale.cache.* and clydesdale.serve.* keys")
