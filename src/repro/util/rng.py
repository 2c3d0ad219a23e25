"""Deterministic, forkable random number streams.

Everything in this repository that draws randomness — node id selection,
malicious-node marking, lifetime draws, Shamir coefficients — goes through a
:class:`RandomSource`.  A source can *fork* independent child streams by
label, which keeps experiments reproducible even when the number of draws in
one component changes: component A forking ``"lifetimes"`` always receives
the same stream regardless of how many bytes component B consumed.

The implementation derives child seeds with SHA-256 over the parent seed and
the label, then feeds them to :class:`random.Random`.  This is not intended
to be cryptographically strong randomness for the protocol itself (the
crypto layer draws keys from a source too, which is fine for a simulation);
it is intended to be *deterministic and independent per label*.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

_T = TypeVar("_T")

_SEED_BYTES = 8
_MAX_SEED = 2 ** 63 - 1


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a string ``label``.

    The derivation is stable across processes and Python versions because it
    uses SHA-256 rather than the process hash seed.
    """
    material = parent_seed.to_bytes(16, "big", signed=True) + label.encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "big") & _MAX_SEED


class RandomSource:
    """A labelled, forkable deterministic random stream.

    Parameters
    ----------
    seed:
        Integer seed.  Two sources built with the same seed produce
        identical draw sequences.
    label:
        Optional human-readable label recorded for debugging and used in
        ``repr``; it does not affect the stream.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self.label = label
        self._rng = random.Random(seed)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, label={self.label!r})"

    def fork(self, label: str) -> "RandomSource":
        """Return an independent child stream identified by ``label``.

        Forking the same label twice returns streams with identical
        sequences; use distinct labels (for example by appending an index)
        when independent children are needed.
        """
        return RandomSource(derive_seed(self.seed, label), label=label)

    # -- scalar draws ------------------------------------------------------

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        return self._rng.randint(low, high)

    def randrange(self, stop: int) -> int:
        """Uniform integer in ``[0, stop)``."""
        return self._rng.randrange(stop)

    def below(self, stop: int, count: int) -> List[int]:
        """``count`` uniform integers in ``[0, stop)``, as ``randrange`` draws them.

        Draw for draw the values ``[randrange(stop) for _ in range(count)]``
        returns, leaving the stream in the same place: the rejection loop
        ``Random.randrange`` runs (``stop.bit_length()`` bits at a time,
        redrawn while ``>= stop``), through the public ``getrandbits``,
        without its per-call argument checks.  ``tests/util/test_rng.py``
        holds it to ``randrange`` on the interpreter it runs on.
        """
        if stop < 1:
            raise ValueError(f"stop must be >= 1, got {stop}")
        getrandbits = self._rng.getrandbits
        bits = stop.bit_length()
        draws: List[int] = []
        append = draws.append
        for _ in range(count):
            value = getrandbits(bits)
            while value >= stop:
                value = getrandbits(bits)
            append(value)
        return draws

    def getrandbits(self, bits: int) -> int:
        """Uniform integer with the given number of random bits."""
        return self._rng.getrandbits(bits)

    def random_bytes(self, length: int) -> bytes:
        """Return ``length`` uniformly random bytes."""
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        return self._rng.getrandbits(length * 8).to_bytes(length, "big") if length else b""

    def exponential(self, mean_value: float) -> float:
        """Draw from an exponential distribution with the given mean.

        Used by the churn model: node lifetimes follow an exponential decay
        pattern (Bhagwan et al.), the same model Algorithm 1 of the paper
        assumes for its ``p_dead`` estimate.
        """
        if mean_value <= 0:
            raise ValueError(f"mean must be positive, got {mean_value}")
        return self._rng.expovariate(1.0 / mean_value)

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self._rng.random() < probability

    # -- collection draws --------------------------------------------------

    def choice(self, items: Sequence[_T]) -> _T:
        """Uniformly pick one element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(items)

    def sample(self, items: Sequence[_T], count: int) -> List[_T]:
        """Sample ``count`` distinct elements without replacement."""
        return self._rng.sample(items, count)

    def sample_indices(self, population: int, count: int) -> List[int]:
        """Sample ``count`` distinct indices from ``range(population)``.

        ``random.sample`` picks by set rejection, without materialising
        ``range(population)`` as a list, only while ``population`` exceeds
        ``21 + 4 ** ceil(log4(3 * count))`` (just 21 when ``count`` <= 5); at
        or below that it copies the population into a pool list.  For a
        10,000-node network that means ``count`` < 1,366 is list-free, and
        larger markings (p >= 0.14) build the 10,000-entry pool.
        """
        if count > population:
            raise ValueError(
                f"cannot sample {count} indices from a population of {population}"
            )
        return self._rng.sample(range(population), count)

    def shuffle(self, items: List[_T]) -> None:
        """Shuffle a list in place."""
        self._rng.shuffle(items)
