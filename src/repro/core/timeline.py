"""Emerging-period arithmetic.

The sender wants the secret key hidden from the start time ``ts`` until the
release time ``tr``; the emerging period is ``T = tr - ts``.  A path of
length ``l`` divides ``T`` into ``l`` equal holding periods ``th = T / l``
(paper §III-B): the onion sits at column ``j`` during
``[ts + (j-1)*th, ts + j*th)`` and the terminal holders hand the key to the
receiver at exactly ``tr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class ReleaseTimeline:
    """Immutable timing plan for one self-emerging key."""

    start_time: float
    release_time: float
    path_length: int

    def __post_init__(self) -> None:
        check_positive(self.start_time, "start_time", allow_zero=True)
        check_positive_int(self.path_length, "path_length")
        if self.release_time <= self.start_time:
            raise ValueError(
                f"release_time ({self.release_time}) must be after "
                f"start_time ({self.start_time})"
            )

    @property
    def emerging_period(self) -> float:
        """``T = tr - ts``."""
        return self.release_time - self.start_time

    @property
    def holding_period(self) -> float:
        """``th = T / l``."""
        return self.emerging_period / self.path_length

    def forward_time(self, column: int) -> float:
        """When column ``column`` (1-based) forwards to the next column.

        Column ``l`` "forwards" to the receiver at exactly ``tr``.
        """
        self._check_column(column)
        return self.start_time + column * self.holding_period

    def boundaries(self) -> List[float]:
        """All forwarding instants, ``[ts + th, ts + 2*th, ..., tr]``."""
        return [self.forward_time(column) for column in range(1, self.path_length + 1)]

    def alpha(self, mean_lifetime: float) -> float:
        """The churn ratio ``α = T / t_life`` used by the Fig. 7 sweep."""
        check_positive(mean_lifetime, "mean_lifetime")
        return self.emerging_period / mean_lifetime

    def _check_column(self, column: int) -> None:
        if not 1 <= column <= self.path_length:
            raise ValueError(
                f"column must be in [1, {self.path_length}], got {column}"
            )

    def with_path_length(self, path_length: int) -> "ReleaseTimeline":
        """Same window, different path length (planner adjustments)."""
        return ReleaseTimeline(
            start_time=self.start_time,
            release_time=self.release_time,
            path_length=path_length,
        )
