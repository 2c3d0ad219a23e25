"""Node populations as arrays: lifetimes, death epochs, session masks.

One :class:`EpochPopulation` is the shared substrate a batch of trials
places shares onto.  Per node it holds a sampled lifetime (drawn through
the *same* inverse-CDF forms as ``repro.churn.distributions``, so the
scalar oracle and the vectorized lane sample identical marginals), the
epoch in which that lifetime expires, and an exact malicious marking
(``round(N * p)`` nodes, the finite-population convention the PR 3
attack kernels established).

Time is epoch-stepped with duration ``dt``: a node whose lifetime is
``L`` dies *in* epoch ``ceil(L / dt)`` (at least 1 — every node survives
its join epoch's start).  Session up/down state is memoryless per epoch
boundary, matching ``IntermittentAvailability``'s stationary-uptime
model: each epoch every live node is independently online with
probability ``uptime``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.churn.distributions import (
    FixedLifetime,
    ParetoLifetime,
    WeibullLifetime,
)
from repro.churn.lifetime import ExponentialLifetime, LifetimeModel
from repro.util.validation import check_positive, check_probability

#: Lifetime model names accepted by :func:`make_lifetime_model`.
LIFETIME_MODELS = ("exponential", "weibull", "pareto", "fixed")

#: Guard against ``log(0)`` — same floor the scalar inverse-CDFs use.
_UNIFORM_FLOOR = 1e-300


def mean_lifetime_for_alpha(
    alpha: float, path_length: int, epoch_duration: float = 1.0
) -> Optional[float]:
    """Mean node lifetime implied by the paper's churn knob ``alpha``.

    Figure 7 parameterizes churn as ``alpha = l * dt / mean_lifetime``:
    the number of mean lifetimes that elapse over the full ``l``-epoch
    holding window.  ``alpha = 0`` means no churn — immortal nodes —
    reported here as ``None``.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return None
    return path_length * epoch_duration / alpha


def make_lifetime_model(
    name: str, mean_lifetime: float, shape: Optional[float] = None
) -> LifetimeModel:
    """A churn lifetime model by name, with its shape knob where one exists.

    ``shape`` feeds Weibull's shape parameter or Pareto's tail index
    (``None`` keeps the model's default).  The exponential and fixed models
    have no shape, so a ``shape`` for them is a ``ValueError`` rather than
    a knob that silently changes nothing.
    """
    if shape is not None and name in ("exponential", "fixed"):
        raise ValueError(
            f"lifetime_shape applies to the weibull and pareto models only; "
            f"the {name!r} model has no shape (got {shape!r})"
        )
    if name == "exponential":
        return ExponentialLifetime(mean_lifetime)
    if name == "weibull":
        if shape is None:
            return WeibullLifetime(mean_lifetime)
        return WeibullLifetime(mean_lifetime, shape=shape)
    if name == "pareto":
        if shape is None:
            return ParetoLifetime(mean_lifetime)
        return ParetoLifetime(mean_lifetime, tail_index=shape)
    if name == "fixed":
        return FixedLifetime(mean_lifetime)
    raise ValueError(
        f"unknown lifetime model {name!r}; expected one of {LIFETIME_MODELS}"
    )


class _GeneratorSource:
    """Adapter giving numpy ``Generator`` the ``RandomSource`` draw API.

    Only used by the fallback path of :func:`sample_lifetimes` for
    lifetime models without a vectorized inverse-CDF below.
    """

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator

    def random(self) -> float:
        return float(self._generator.random())

    def exponential(self, mean: float) -> float:
        check_positive(mean, "mean")
        return float(self._generator.exponential(mean))

    def bernoulli(self, probability: float) -> bool:
        check_probability(probability, "probability")
        return bool(self._generator.random() < probability)


def sample_lifetimes(
    model: LifetimeModel, size: int, generator: np.random.Generator
) -> np.ndarray:
    """``size`` lifetimes from ``model`` as a float64 array.

    The known models are drawn through the same inverse-CDF transforms
    their scalar ``draw_lifetime`` implementations use (exponential,
    Weibull ``scale * (-ln U)^(1/shape)``, Pareto ``minimum *
    U^(-1/tail)``), so the vectorized lane's marginal distribution is
    exactly the oracle's.  Unknown models fall back to a scalar loop.
    """
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if size == 0:
        return np.empty(0, dtype=np.float64)
    if isinstance(model, ExponentialLifetime):
        return generator.exponential(model.mean_lifetime, size)
    if isinstance(model, WeibullLifetime):
        uniforms = np.maximum(generator.random(size), _UNIFORM_FLOOR)
        return model.scale * (-np.log(uniforms)) ** (1.0 / model.shape)
    if isinstance(model, ParetoLifetime):
        uniforms = np.maximum(generator.random(size), _UNIFORM_FLOOR)
        return model.minimum * uniforms ** (-1.0 / model.tail_index)
    if isinstance(model, FixedLifetime):
        return np.full(size, model.mean_lifetime, dtype=np.float64)
    source = _GeneratorSource(generator)
    return np.array(
        [model.draw_lifetime(source) for _ in range(size)], dtype=np.float64
    )


def death_epochs(
    lifetimes: np.ndarray, epoch_duration: float = 1.0
) -> np.ndarray:
    """The epoch each lifetime expires in: ``max(1, ceil(L / dt))``.

    Float array so ``inf`` (immortal) propagates; a lifetime of exactly
    ``m * dt`` dies in epoch ``m`` — the node is up through the start of
    its final epoch and gone by its end.
    """
    check_positive(epoch_duration, "epoch_duration")
    return np.maximum(np.ceil(np.asarray(lifetimes) / epoch_duration), 1.0)


class EpochPopulation:
    """A batch's shared node substrate: lifetimes, marking, session draws.

    ``malicious_count`` nodes are malicious; by convention they are the
    node ids ``< malicious_count``.  Because placement picks node ids
    uniformly at random, *which* ids carry the marking is statistically
    irrelevant, and the prefix convention makes the malicious test a
    single compare instead of a membership lookup.
    """

    def __init__(
        self,
        lifetimes: np.ndarray,
        malicious_count: int,
        uptime: float,
        epoch_duration: float = 1.0,
    ) -> None:
        check_probability(uptime, "uptime")
        check_positive(epoch_duration, "epoch_duration")
        self.lifetimes = np.asarray(lifetimes, dtype=np.float64)
        if self.lifetimes.ndim != 1 or self.lifetimes.size == 0:
            raise ValueError("lifetimes must be a non-empty 1-d array")
        if not (0 <= malicious_count <= self.lifetimes.size):
            raise ValueError(
                f"malicious_count {malicious_count} outside population "
                f"of {self.lifetimes.size}"
            )
        self.size = int(self.lifetimes.size)
        self.malicious_count = int(malicious_count)
        self.uptime = float(uptime)
        self.epoch_duration = float(epoch_duration)
        self.death_epoch = death_epochs(self.lifetimes, epoch_duration)

    @classmethod
    def sample(
        cls,
        model: Optional[LifetimeModel],
        size: int,
        malicious_rate: float,
        uptime: float,
        generator: np.random.Generator,
        epoch_duration: float = 1.0,
    ) -> "EpochPopulation":
        """Sample a fresh population; ``model=None`` means immortal nodes."""
        check_positive(size, "population size")
        check_probability(malicious_rate, "malicious_rate")
        if model is None:
            lifetimes = np.full(size, np.inf)
        else:
            lifetimes = sample_lifetimes(model, size, generator)
        return cls(
            lifetimes,
            malicious_count=int(round(size * malicious_rate)),
            uptime=uptime,
            epoch_duration=epoch_duration,
        )

    @property
    def malicious_rate(self) -> float:
        """The exact marked fraction — repair draws use this, not the
        requested rate, so replacements match the finite marking."""
        return self.malicious_count / self.size

    def online_mask(self, generator: np.random.Generator) -> np.ndarray:
        """One epoch's session state: per-node online booleans.

        Memoryless across epochs — call once per epoch, in epoch order,
        so draw consumption is a deterministic function of the stream.
        """
        if self.uptime >= 1.0:
            return np.ones(self.size, dtype=bool)
        if self.uptime <= 0.0:
            return np.zeros(self.size, dtype=bool)
        return generator.random(self.size) < self.uptime
