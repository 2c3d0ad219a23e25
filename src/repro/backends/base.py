"""The :class:`BackendSpec` value: a declarative backend selection.

The interface every execution substrate implements is
:class:`~repro.experiments.executors.ExecutionBackend` (re-exported as
``repro.backends.ExecutionBackend``); this module holds the
JSON-round-trippable half.  A :class:`BackendSpec` is a registry name
plus an options mapping.  It can live inside a
:class:`~repro.scenarios.spec.ScenarioSpec`'s engine settings, and by
the determinism contract never reaches a result-store cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import json

_OPTION_SCALARS = (str, int, float, bool, type(None))


def _check_option_value(value: Any, where: str) -> Any:
    """Backend options are JSON scalars or flat lists of them.

    Lists cover worker address lists (``["host:port", ...]``); anything
    deeper has no business in a cache-key-adjacent value.
    """
    if isinstance(value, _OPTION_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        for item in value:
            if not isinstance(item, _OPTION_SCALARS):
                raise TypeError(
                    f"{where} list items must be JSON scalars, "
                    f"got {type(item).__name__}"
                )
        return list(value)
    raise TypeError(
        f"{where} must be a JSON scalar or a list of scalars, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class BackendSpec:
    """A declarative backend selection: registry name + options.

    Loss-free dict/JSON round trip
    (``spec == BackendSpec.from_json(spec.to_json())``), so a spec can be
    pinned inside a scenario's engine settings, printed by
    ``repro scenarios show --json``, and shipped across processes.

    Equality is structural.  Option values must be JSON scalars or flat
    lists of scalars (worker address lists).
    """

    name: str
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"backend name must be a non-empty string, got {self.name!r}"
            )
        normalized: Dict[str, Any] = {}
        for key, value in dict(self.options).items():
            if not isinstance(key, str) or not key:
                raise ValueError(
                    f"backend option name must be a non-empty string, got {key!r}"
                )
            normalized[key] = _check_option_value(
                value, f"backend option {key!r}"
            )
        object.__setattr__(self, "options", normalized)

    def with_options(self, **options: Any) -> "BackendSpec":
        """A copy with extra options merged in (existing keys win)."""
        merged = {**options, **self.options}
        return BackendSpec(name=self.name, options=merged)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BackendSpec":
        return cls(
            name=payload["name"], options=dict(payload.get("options", {}))
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=(indent is None))

    @classmethod
    def from_json(cls, text: str) -> "BackendSpec":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """A compact human-readable rendering (CLI progress lines)."""
        if not self.options:
            return self.name
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(self.options.items())
        )
        return f"{self.name}({rendered})"
