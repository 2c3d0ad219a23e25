"""The exact finite-population form of Eqs. 1-3 (``finite_resilience``).

Fig. 6's experiment marks exactly ``round(N * p)`` of ``N`` ids and places
``k * l`` distinct holders.  The form is checked three ways: against exact
rational enumeration of every malicious-cell pattern at small ``N``,
against Eqs. 1-3 as ``N`` grows, and against Lemma 1 at finite ``N``.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from repro.core.analysis import (
    eq1_release,
    eq2_disjoint_drop,
    eq3_joint_drop,
    finite_resilience,
)


@lru_cache(maxsize=None)
def pattern_counts(k, l):
    """``{h: (patterns, release wins, disjoint-drop wins, joint-drop
    losses)}`` over every malicious-cell pattern of a k x l grid with
    ``h`` malicious cells (rows are paths, columns share a layer key)."""
    counts = {}
    for bits in range(1 << (k * l)):
        cell = [[bits >> (r * l + c) & 1 for c in range(l)] for r in range(k)]
        columns = [[cell[r][c] for r in range(k)] for c in range(l)]
        release = all(map(any, columns))
        disjoint_drop = all(map(any, cell))
        joint_drop = any(map(all, columns))
        tally = counts.setdefault(bin(bits).count("1"), [0, 0, 0, 0])
        for index, hit in enumerate((True, release, disjoint_drop, joint_drop)):
            tally[index] += hit
    return counts


def enumerated(k, l, population, marked):
    """Exact (Rr, disjoint Rd, joint Rd) as Fractions.

    Fix the holders as ``k * l`` ids; a given pattern of ``h`` malicious
    cells has probability ``C(N - kl, M - h) / C(N, M)`` over the marking.
    """
    cells = k * l
    release = disjoint = joint = Fraction(0)
    for malicious, (_, wins, cut, dropped) in pattern_counts(k, l).items():
        if malicious > marked or cells - malicious > population - marked:
            continue
        weight = Fraction(
            comb(population - cells, marked - malicious), comb(population, marked)
        )
        release += wins * weight
        disjoint += cut * weight
        joint += dropped * weight
    return 1 - release, 1 - disjoint, 1 - joint


def test_equals_exact_enumeration_at_every_small_population():
    checked = 0
    for population in range(1, 13):
        for k in range(1, population + 1):
            for l in range(1, population // k + 1):
                for marked in range(population + 1):
                    p = marked / population
                    release, disjoint, joint = enumerated(k, l, population, marked)
                    for scheme, drop in (("disjoint", disjoint), ("joint", joint)):
                        pair = finite_resilience(scheme, p, k, l, population)
                        assert pair.release == pytest.approx(release, abs=1e-12)
                        assert pair.drop == pytest.approx(drop, abs=1e-12)
                        checked += 1
                    if k == l == 1:
                        central = finite_resilience("central", p, 1, 1, population)
                        assert central.release == pytest.approx(release, abs=1e-12)
                        assert central.drop == pytest.approx(joint, abs=1e-12)
    assert checked == 2 * sum(
        (n + 1) * sum(n // k for k in range(1, n + 1)) for n in range(1, 13)
    )


@pytest.mark.parametrize(
    "scheme, k, l, p",
    [
        ("central", 1, 1, 0.3),
        ("disjoint", 3, 4, 0.1),
        ("disjoint", 7, 7, 0.2),
        ("joint", 3, 4, 0.3),
        ("joint", 5, 19, 0.35),
    ],
)
def test_tends_to_eqs_1_to_3(scheme, k, l, p):
    pair = finite_resilience(scheme, p, k, l, 10**6)
    if scheme == "central":
        release = drop = 1 - p
    else:
        release = eq1_release(p, k, l)
        eq_drop = eq2_disjoint_drop if scheme == "disjoint" else eq3_joint_drop
        drop = eq_drop(p, k, l)
    assert pair.release == pytest.approx(release, abs=1e-4)
    assert pair.drop == pytest.approx(drop, abs=1e-4)


def test_central_is_the_finite_malicious_share():
    pair = finite_resilience("central", 0.333, 7, 9, 1000)
    assert pair.release == pytest.approx(1 - 333 / 1000, abs=1e-12)
    assert pair.drop == pytest.approx(1 - 333 / 1000, abs=1e-12)


def test_grid_edge_plans_come_out_in_range():
    # Plans whose float inclusion-exclusion overflows: no cancellation here.
    for scheme, k, l in (("disjoint", 3, 2000), ("joint", 2, 2000)):
        pair = finite_resilience(scheme, 0.35, k, l, 10_000)
        assert 0.0 <= pair.drop <= 1.0 and 0.0 <= pair.release <= 1.0
        assert pair.release == 1.0


def test_lemma_1_holds_at_finite_population(capsys):
    """Lemma 1's ``Rr + Rd > 1`` (node-joint, p < 0.5) at N = 20 and 100,
    for every plan with ``k * l <= N``: it holds up to rounding, and the
    test prints how many plans sit at equality."""
    plans = at_equality = 0
    for population in (20, 100):
        for p in [round(0.05 * i, 2) for i in range(1, 10)]:
            for k in range(1, population + 1):
                for l in range(1, population // k + 1):
                    pair = finite_resilience("joint", p, k, l, population)
                    total = pair.release + pair.drop
                    assert total >= 1 - 1e-12, (population, p, k, l, pair)
                    plans += 1
                    at_equality += abs(total - 1) <= 1e-9
    assert plans == 4932
    with capsys.disabled():
        print(f"\nLemma 1 at finite N: {plans} plans, {at_equality} at equality")


@pytest.mark.parametrize(
    "args, error",
    [
        (("share", 0.1, 2, 3, 100), ValueError),
        (("joint", 0.1, 11, 10, 100), ValueError),
        (("joint", 1.5, 2, 3, 100), ValueError),
        (("joint", 0.1, 2, 3, 0), ValueError),
        (("joint", 0.1, 2.0, 3, 100), TypeError),
    ],
)
def test_bad_arguments_are_refused(args, error):
    with pytest.raises(error):
        finite_resilience(*args)
