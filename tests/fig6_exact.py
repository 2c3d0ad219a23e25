"""The Fig. 6 kernel's statistical contract, shared by its tests.

Every measured (release, drop) channel of an ``attack_resilience`` or
``sensitivity`` record must hold the exact finite-population value
(:func:`repro.core.analysis.finite_resilience`) inside its Wilson interval
at z = 3.29 (99.9%).
"""

from repro.core.analysis import finite_resilience
from repro.util.stats import wilson_proportion_ci

Z_SCORE = 3.29


def bracketed(estimate, value) -> bool:
    """Does a measured ``{"successes", "trials"}`` channel's interval hold
    ``value``?"""
    _, low, high = wilson_proportion_ci(
        estimate["successes"], estimate["trials"], z_score=Z_SCORE
    )
    return low <= value <= high


def channels(report):
    """``(point, channel, estimate, exact, eqs_1_3)`` for every measured
    channel of a Fig. 6-family report."""
    population = report.spec.fixed["population_size"]
    for record in report.results():
        if record["measured"] is None:
            continue
        keys = ("scheme", "p", "replication", "path_length")
        point = tuple(record[key] for key in keys)
        exact = finite_resilience(*point, population)
        for channel in ("release", "drop"):
            yield (
                point,
                channel,
                record["measured"][channel],
                getattr(exact, channel),
                record[f"analytic_{channel}"],
            )
