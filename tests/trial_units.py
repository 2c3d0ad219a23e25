"""The trial units the engine and backend tests run, defined once.

Each is a tiny frozen dataclass instance under the name the tests call it
by.  ``tests/conftest.py`` adds the classes to the unit table
(:data:`repro.backends.wire.UNITS`), so fork-pool children and
in-process workers decode them like the production units.  A spawned
``repro worker serve`` process does not see that table entry: tests
against real worker processes ship a production unit instead.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class BernoulliTrial:
    """One channel: success with probability ``rate``."""

    rate: float

    def __call__(self, rng):
        return rng.bernoulli(self.rate)


@dataclass(frozen=True)
class PairedTrial:
    """Two channels: a likely and an unlikely success."""

    def __call__(self, rng):
        return rng.bernoulli(0.8), rng.bernoulli(0.2)


@dataclass(frozen=True)
class CountingBatch:
    """One channel: how many of ``count`` uniform draws fall below ``rate``."""

    rate: float

    def __call__(self, generator, count):
        return (int((generator.random(count) < self.rate).sum()),)


@dataclass(frozen=True)
class CornerBatch:
    """Two channels, the first of which can go to zero."""

    def __call__(self, generator, count):
        draws = generator.random(count)
        return (int((draws < 0.001).sum()), int((draws < 0.9).sum()))


@dataclass(frozen=True)
class FailingBatch:
    """A batch that dies wherever it runs."""

    def __call__(self, generator, count):
        raise RuntimeError("injected batch failure")


@dataclass(frozen=True)
class IndexedMeasure:
    """Collect mode: ``(index, one rounded draw)`` per trial."""

    def __call__(self, index, rng):
        return (index, round(rng.random(), 6))


UNIT_CLASSES = (
    BernoulliTrial,
    PairedTrial,
    CountingBatch,
    CornerBatch,
    FailingBatch,
    IndexedMeasure,
)

bernoulli_trial = BernoulliTrial(0.4)
paired_trial = PairedTrial()
counting_batch = CountingBatch(0.3)
dense_batch = CountingBatch(0.97)
negative_corner_batch = CornerBatch()
failing_batch = FailingBatch()
indexed_measure = IndexedMeasure()
