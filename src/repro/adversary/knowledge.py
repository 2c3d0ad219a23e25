"""The collusion pool: what the adversary has seen, and what it can derive.

Malicious holders deposit every package, layer key and share they handle.
The pool then answers the two questions the attacks need:

- which layer keys can the adversary know (captured directly or combined
  from shares)?
- at what (virtual) time did each first become known?

The pool works on opaque byte payloads plus structured tags, so both the
end-to-end protocol simulation and the abstract Monte Carlo can use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.crypto.shamir import Share, combine_shares


@dataclass(frozen=True)
class Observation:
    """One captured artefact."""

    time: float
    holder: Hashable
    kind: str  # "onion", "layer_key", "share", "secret_key"
    column: Optional[int] = None
    payload: bytes = b""


class CollusionPool:
    """Pooled adversary knowledge across all malicious holders."""

    def __init__(self) -> None:
        self._observations: List[Observation] = []
        self._layer_keys: Dict[int, Tuple[float, bytes]] = {}
        # Shares bucketed by (column, row): the key-share scheme gives every
        # lattice row its own per-column key, so shares of different rows
        # must never be combined together.  Multipath deposits use row 0.
        self._shares: Dict[Tuple[int, int], Dict[int, Tuple[float, Share]]] = {}
        self._secret_key: Optional[Tuple[float, bytes]] = None
        self._onion_columns: Dict[int, float] = {}

    # -- deposits ----------------------------------------------------------

    def deposit(self, observation: Observation) -> None:
        """Record a captured artefact and index it by kind."""
        self._observations.append(observation)
        if observation.kind == "layer_key" and observation.column is not None:
            self._layer_keys.setdefault(
                observation.column, (observation.time, observation.payload)
            )
        elif observation.kind == "secret_key":
            if self._secret_key is None:
                self._secret_key = (observation.time, observation.payload)
        elif observation.kind == "onion" and observation.column is not None:
            self._onion_columns.setdefault(observation.column, observation.time)

    def deposit_share(
        self, time: float, holder: Hashable, column: int, share: Share, row: int = 0
    ) -> None:
        """Record a captured Shamir share of a (column, row) key."""
        self._observations.append(
            Observation(
                time=time,
                holder=holder,
                kind="share",
                column=column,
                payload=share.payload,
            )
        )
        self._shares.setdefault((column, row), {}).setdefault(
            share.index, (time, share)
        )

    # -- derivations -------------------------------------------------------

    def known_layer_key(self, column: int) -> Optional[bytes]:
        """The column's layer key if captured directly or derivable from shares."""
        if column in self._layer_keys:
            return self._layer_keys[column][1]
        derived = self._derive_key_from_shares(column)
        if derived is not None:
            return derived[1]
        return None

    def layer_key_capture_time(self, column: int) -> Optional[float]:
        """When the column key first became known to the adversary."""
        direct = self._layer_keys.get(column)
        derived = self._derive_key_from_shares(column)
        times = [entry[0] for entry in (direct, derived) if entry is not None]
        return min(times) if times else None

    def _derive_key_from_shares(self, column: int) -> Optional[Tuple[float, bytes]]:
        """Earliest derivable key for the column across all row buckets."""
        best: Optional[Tuple[float, bytes]] = None
        for (bucket_column, _row), entries in self._shares.items():
            if bucket_column != column or not entries:
                continue
            threshold = next(iter(entries.values()))[1].threshold
            if len(entries) < threshold:
                continue
            # The key became derivable when the m-th share (by capture
            # time) arrived; combine using the m earliest.
            ordered = sorted(entries.values(), key=lambda pair: pair[0])
            usable = [share for _, share in ordered[:threshold]]
            capture_time = ordered[threshold - 1][0]
            derived = (capture_time, combine_shares(usable))
            if best is None or derived[0] < best[0]:
                best = derived
        return best

    def secret_key(self) -> Optional[bytes]:
        """The end secret key, if any malicious terminal holder saw it."""
        return self._secret_key[1] if self._secret_key else None

    def captured_columns(self) -> Set[int]:
        """Columns whose layer key the adversary knows (directly or via shares)."""
        captured = set(self._layer_keys)
        for (column, _row) in self._shares:
            if self.known_layer_key(column) is not None:
                captured.add(column)
        return captured

    # -- accounting --------------------------------------------------------

    @property
    def observation_count(self) -> int:
        return len(self._observations)

    def observations(self, kind: Optional[str] = None) -> List[Observation]:
        if kind is None:
            return list(self._observations)
        return [obs for obs in self._observations if obs.kind == kind]
