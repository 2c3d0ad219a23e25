"""Shared low-level utilities.

This subpackage holds helpers used across all the substrates:

- :mod:`repro.util.rng` — deterministic, forkable random streams so that
  every experiment in the repository is reproducible from a single seed.
- :mod:`repro.util.bytes_util` — byte-string manipulation helpers used by
  the crypto layer.
- :mod:`repro.util.validation` — small argument-validation guards that
  raise uniform, well-worded exceptions.
- :mod:`repro.util.stats` — confidence intervals and the trial engine's
  stopping-rule defaults.
"""

from repro.util.rng import RandomSource

__all__ = ["RandomSource"]
