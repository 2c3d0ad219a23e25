"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serializable description of one
workload: which experiment *kind* runs (see :mod:`repro.scenarios.runners`
for the registered kinds), the fixed parameters every point shares, the
sweep axes whose cross product forms the point grid, and the Monte-Carlo
budget (trials, seed, tolerance, engine settings).

Specs are frozen dataclasses with a loss-free dict/JSON round trip
(``spec == ScenarioSpec.from_json(spec.to_json())``), which is what makes
the result store content-addressable: the cache key of a sweep point is a
hash over the serialized spec identity, never over Python object ids.
Every parameter and axis value must therefore be a JSON scalar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.util.stats import (
    DEFAULT_CHECK_INTERVAL,
    DEFAULT_CHECKPOINT_BATCHES,
    DEFAULT_MIN_TRIALS,
)
from repro.util.validation import check_positive, check_positive_int

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_scalar(value: Any, where: str) -> Any:
    if not isinstance(value, _SCALAR_TYPES):
        raise TypeError(
            f"{where} must be a JSON scalar (str/int/float/bool/None), "
            f"got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: a parameter name and the values it takes."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"axis name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        for value in self.values:
            _check_scalar(value, f"axis {self.name!r} value")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "values": list(self.values)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Axis":
        return cls(name=payload["name"], values=tuple(payload["values"]))


@dataclass(frozen=True)
class ToleranceRule:
    """Scale the base tolerance when an axis value falls in a window.

    The registered Fig. 6/7 scenarios use this to tighten tolerance near
    the knee of the resilience curves, where the estimate moves fastest.
    """

    axis: str
    low: float
    high: float
    scale: float

    def __post_init__(self) -> None:
        if not isinstance(self.axis, str) or not self.axis:
            raise ValueError(f"rule axis must be a non-empty string, got {self.axis!r}")
        if self.low > self.high:
            raise ValueError(
                f"rule window is empty: low {self.low} > high {self.high}"
            )
        check_positive(self.scale, "scale")

    def matches(self, values: Mapping[str, Any]) -> bool:
        value = values.get(self.axis)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        return self.low <= value <= self.high

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axis": self.axis,
            "low": self.low,
            "high": self.high,
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ToleranceRule":
        return cls(
            axis=payload["axis"],
            low=payload["low"],
            high=payload["high"],
            scale=payload["scale"],
        )


@dataclass(frozen=True)
class ToleranceSchedule:
    """A per-point tolerance policy: the first matching rule scales the base.

    The schedule only shapes a tolerance that is already on — with no base
    tolerance the sweep runs every trial.
    """

    rules: Tuple[ToleranceRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def resolve(
        self, values: Mapping[str, Any], base: Optional[float]
    ) -> Optional[float]:
        """The tolerance of the point with parameter ``values``."""
        if base is None:
            return None
        for rule in self.rules:
            if rule.matches(values):
                return base * rule.scale
        return base

    def to_dict(self) -> Dict[str, Any]:
        return {"rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ToleranceSchedule":
        return cls(
            rules=tuple(ToleranceRule.from_dict(rule) for rule in payload["rules"])
        )


@dataclass(frozen=True)
class EngineSettings:
    """The result-shaping engine knobs a spec pins down.

    ``jobs`` is deliberately absent: by the engine's determinism contract
    the worker count never changes results, so it is a run-time choice
    (CLI ``--jobs``) and is excluded from result-store cache keys.

    ``backend`` optionally pins an execution backend
    (:class:`~repro.backends.base.BackendSpec`) for the whole scenario —
    a run-time ``--backend`` flag or orchestrator argument still wins.
    By the same contract a backend never changes results either, so it
    never reaches a cache key, and ``to_dict`` omits the field entirely
    when unset so pre-backend stores stay valid byte-for-byte.
    """

    min_trials: int = DEFAULT_MIN_TRIALS
    check_interval: int = DEFAULT_CHECK_INTERVAL
    checkpoint_batches: int = DEFAULT_CHECKPOINT_BATCHES
    ci_method: str = "normal"
    batch_size: Optional[int] = None
    backend: Optional[Any] = None

    def __post_init__(self) -> None:
        check_positive_int(self.min_trials, "min_trials")
        check_positive_int(self.check_interval, "check_interval")
        check_positive_int(self.checkpoint_batches, "checkpoint_batches")
        if self.ci_method not in ("normal", "wilson"):
            raise ValueError(
                f"ci_method must be 'normal' or 'wilson', got {self.ci_method!r}"
            )
        if self.batch_size is not None:
            check_positive_int(self.batch_size, "batch_size")
        if self.backend is not None:
            from repro.backends.base import BackendSpec

            if isinstance(self.backend, Mapping):
                object.__setattr__(
                    self, "backend", BackendSpec.from_dict(self.backend)
                )
            elif isinstance(self.backend, str):
                object.__setattr__(self, "backend", BackendSpec(self.backend))
            elif not isinstance(self.backend, BackendSpec):
                raise TypeError(
                    "engine backend must be a BackendSpec, a backend name, "
                    f"or a serialized dict, got {type(self.backend).__name__}"
                )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "min_trials": self.min_trials,
            "check_interval": self.check_interval,
            "checkpoint_batches": self.checkpoint_batches,
            "ci_method": self.ci_method,
            "batch_size": self.batch_size,
        }
        # Omitted when unset so every pre-backend serialized spec — and,
        # critically, every pre-backend result-store cache key derived
        # from this dict — stays byte-identical.
        if self.backend is not None:
            payload["backend"] = self.backend.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineSettings":
        return cls(**dict(payload))


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point: its index and the axis values it binds."""

    index: int
    values: Dict[str, Any]

    def params(self, spec: "ScenarioSpec") -> Dict[str, Any]:
        """The full parameter set: fixed parameters plus this point's axes."""
        return {**spec.fixed, **self.values}


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative workload description.

    Parameters
    ----------
    name:
        Registry/store identifier.
    kind:
        Which point runner executes each grid point (see
        :func:`repro.scenarios.runners.get_runner`).
    fixed:
        Parameters shared by every point (e.g. ``population_size``).
    axes:
        Sweep dimensions; their cross product (last axis fastest) is the
        point grid.
    trials:
        Monte-Carlo trials per point (``0`` = measurement-free points).
    seed:
        Root seed; per-trial streams derive from it deterministically.
    tolerance:
        Default adaptive-stopping base tolerance (``None`` = run every
        trial).
    schedule:
        Optional per-point tolerance schedule applied to the base.
    engine:
        The result-shaping engine settings.
    value_key:
        Which result field reporting pivots into tables (default the
        runner's headline ``"value"``; the Fig. 6 cost panels use
        ``"cost"``).
    """

    name: str
    kind: str
    description: str = ""
    fixed: Dict[str, Any] = field(default_factory=dict)
    axes: Tuple[Axis, ...] = ()
    trials: int = 400
    seed: int = 2017
    tolerance: Optional[float] = None
    schedule: Optional[ToleranceSchedule] = None
    engine: EngineSettings = field(default_factory=EngineSettings)
    value_key: str = "value"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"scenario name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.kind, str) or not self.kind:
            raise ValueError(f"scenario kind must be a non-empty string, got {self.kind!r}")
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "axes", tuple(self.axes))
        check_positive_int(self.trials, "trials", minimum=0)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")
        if self.tolerance is not None:
            check_positive(self.tolerance, "tolerance")
        if not isinstance(self.value_key, str) or not self.value_key:
            raise ValueError(
                f"value_key must be a non-empty string, got {self.value_key!r}"
            )
        for key, value in self.fixed.items():
            if not isinstance(key, str) or not key:
                raise ValueError(f"fixed parameter name must be a string, got {key!r}")
            _check_scalar(value, f"fixed parameter {key!r}")
        seen = set(self.fixed)
        for axis in self.axes:
            if axis.name in seen:
                raise ValueError(
                    f"axis {axis.name!r} duplicates another axis or fixed parameter"
                )
            seen.add(axis.name)

    # -- grid expansion ----------------------------------------------------

    @property
    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    @property
    def point_count(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def points(self) -> List[SweepPoint]:
        """Expand the axes into the point grid (last axis fastest)."""
        if not self.axes:
            return [SweepPoint(index=0, values={})]
        names = self.axis_names
        return [
            SweepPoint(index=index, values=dict(zip(names, combo)))
            for index, combo in enumerate(
                product(*(axis.values for axis in self.axes))
            )
        ]

    def point_tolerance(
        self, values: Mapping[str, Any], base: Optional[float] = None
    ) -> Optional[float]:
        """Resolve the tolerance of one point under the spec's schedule.

        ``base`` overrides the spec's default base tolerance (the CLI's
        ``--tolerance`` flag lands here); the schedule then shapes it.
        """
        effective = self.tolerance if base is None else base
        if self.schedule is None:
            return effective
        return self.schedule.resolve({**self.fixed, **values}, effective)

    def with_overrides(
        self,
        trials: Optional[int] = None,
        seed: Optional[int] = None,
        tolerance: Optional[float] = None,
    ) -> "ScenarioSpec":
        """A copy with run-time overrides applied (None keeps the spec's)."""
        changes: Dict[str, Any] = {}
        if trials is not None:
            changes["trials"] = trials
        if seed is not None:
            changes["seed"] = seed
        if tolerance is not None:
            changes["tolerance"] = tolerance
        return replace(self, **changes) if changes else self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "fixed": dict(self.fixed),
            "axes": [axis.to_dict() for axis in self.axes],
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "schedule": self.schedule.to_dict() if self.schedule else None,
            "engine": self.engine.to_dict(),
            "value_key": self.value_key,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        schedule = payload.get("schedule")
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            description=payload.get("description", ""),
            fixed=dict(payload.get("fixed", {})),
            axes=tuple(Axis.from_dict(axis) for axis in payload.get("axes", ())),
            trials=payload.get("trials", 400),
            seed=payload.get("seed", 2017),
            tolerance=payload.get("tolerance"),
            schedule=ToleranceSchedule.from_dict(schedule) if schedule else None,
            engine=EngineSettings.from_dict(payload.get("engine", {})),
            value_key=payload.get("value_key", "value"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=(indent is None))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))
