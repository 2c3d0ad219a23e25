"""Closed-form attack resilience (paper §III, Eqs. 1-3 and Lemma 1).

Notation (throughout): ``p`` — node malicious rate; ``k`` — replication
factor (number of paths); ``l`` — path length (holders per path).

- Centralized scheme: ``Rr = Rd = 1 - p``.
- Node-disjoint multipath (Eqs. 1 and 2)::

      Rr = 1 - (1 - (1-p)^k)^l
      Rd = 1 - (1 - (1-p)^l)^k

- Node-joint multipath (Eq. 3; Rr unchanged from Eq. 1)::

      Rd = (1 - p^k)^l

Lemma 1: for the node-joint scheme, ``Rr + Rd > 1`` whenever ``p < 0.5``.

Each equation is stated once, as plain arithmetic (:func:`eq1_release`,
:func:`eq2_disjoint_drop`, :func:`eq3_joint_drop`): on Python scalars it is
the validated per-configuration functions below, on broadcasting numpy
arrays it is the planner's whole ``(k, l)`` search grid, with the same
operations in the same order, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class ResiliencePair:
    """A (release-ahead, drop) resilience pair for one configuration."""

    release: float
    drop: float

    @property
    def worst(self) -> float:
        """min(Rr, Rd) — the single number the evaluation plots as R."""
        return min(self.release, self.drop)

    @property
    def balanced(self) -> bool:
        return abs(self.release - self.drop) < 1e-9


def eq1_release(p, k, l):
    """Eq. 1, ``1 - (1 - (1-p)^k)^l``, unvalidated."""
    return 1.0 - (1.0 - (1.0 - p) ** k) ** l


def eq2_disjoint_drop(p, k, l):
    """Eq. 2, ``1 - (1 - (1-p)^l)^k``, unvalidated."""
    return 1.0 - (1.0 - (1.0 - p) ** l) ** k


def eq3_joint_drop(p, k, l):
    """Eq. 3, ``(1 - p^k)^l``, unvalidated."""
    return (1.0 - p ** k) ** l


def _validated(malicious_rate, replication, path_length):
    return (
        check_probability(malicious_rate, "malicious_rate"),
        check_positive_int(replication, "replication"),
        check_positive_int(path_length, "path_length"),
    )


def centralized_resilience(malicious_rate: float) -> ResiliencePair:
    """Both resiliences equal ``1 - p`` (paper §III-A)."""
    p = check_probability(malicious_rate, "malicious_rate")
    return ResiliencePair(release=1.0 - p, drop=1.0 - p)


def disjoint_release_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> float:
    """Eq. 1: ``Rr = 1 - (1 - (1-p)^k)^l``.

    The adversary succeeds iff every column (holders sharing a layer key)
    contains at least one malicious holder.
    """
    return eq1_release(*_validated(malicious_rate, replication, path_length))


def disjoint_drop_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> float:
    """Eq. 2: ``Rd = 1 - (1 - (1-p)^l)^k``.

    The adversary succeeds iff every path contains a malicious holder.
    """
    return eq2_disjoint_drop(*_validated(malicious_rate, replication, path_length))


def disjoint_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> ResiliencePair:
    """Both Eq. 1 and Eq. 2 for one configuration."""
    return ResiliencePair(
        release=disjoint_release_resilience(malicious_rate, replication, path_length),
        drop=disjoint_drop_resilience(malicious_rate, replication, path_length),
    )


def joint_release_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> float:
    """Node-joint Rr equals the node-disjoint Rr (Eq. 1): the capture
    condition (one malicious holder per column) is structural to the
    column-replicated keys and unchanged by the richer forwarding graph."""
    return disjoint_release_resilience(malicious_rate, replication, path_length)


def joint_drop_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> float:
    """Eq. 3: ``Rd = (1 - p^k)^l``.

    With full column-to-column fan-out the package dies only when an entire
    column is malicious.
    """
    return eq3_joint_drop(*_validated(malicious_rate, replication, path_length))


def joint_resilience(
    malicious_rate: float, replication: int, path_length: int
) -> ResiliencePair:
    """Eq. 1 and Eq. 3 for one configuration."""
    return ResiliencePair(
        release=joint_release_resilience(malicious_rate, replication, path_length),
        drop=joint_drop_resilience(malicious_rate, replication, path_length),
    )


def lemma1_holds(malicious_rate: float, replication: int, path_length: int) -> bool:
    """Check Lemma 1's inequality ``Rr + Rd > 1`` for the node-joint scheme.

    Guaranteed true for ``p < 0.5``; the property tests sweep this.
    """
    pair = joint_resilience(malicious_rate, replication, path_length)
    return pair.release + pair.drop > 1.0


def required_nodes(replication: int, path_length: int) -> int:
    """Grid cost in distinct DHT nodes (plotted as C in Fig. 6(b)/(d))."""
    check_positive_int(replication, "replication")
    check_positive_int(path_length, "path_length")
    return replication * path_length
