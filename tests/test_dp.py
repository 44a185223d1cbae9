"""The transfer-matrix DP on rational systems, and its index checks.

On a numeric system ``dp_sum`` runs on integers scaled by powers of one
common denominator and divides once at the end.  Integral systems have
denominator 1, so only systems with non-integer values can show a wrong
power of it: these tests use mixed-sign values over mixed denominators,
and hold the DP to the enumeration sums (whose folds are unscaled) and,
at N = 20, to the dict-of-``Fraction`` recurrence in ``tests/oracles.py``.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from orthopath import (
    CoefficientSystem,
    ConstantSeq,
    ExplicitSeq,
    SequenceRangeError,
    dp_sum,
    enumerate_paths,
    load_system,
    mixed_prefactor,
    monic_b_lambda,
    monic_prefactor,
    path_sum_mixed,
    path_sum_monic,
    path_weight_merged,
    scalar_sum,
)
from conftest import SYSTEMS_DIR, random_monic, random_system_pair
from oracles import recurrence_products


def enumeration_sums(m, n, k, seed):
    """(monic, mixed, merged) weight sums by enumeration, and the systems."""
    b, lam, sysm = random_monic(seed)
    sysa, sysb = random_system_pair(seed)
    monic = path_sum_monic(m, n, k, b, lam).weight_sum
    mixed = path_sum_mixed(m, n, k, sysa, sysb).weight_sum
    merged = scalar_sum(
        path_weight_merged(p, sysa, sysb) for p in enumerate_paths(m, n, k, allow_hh=True)
    )
    return (sysm, sysa, sysb), (monic, mixed, merged)


def dp_sums(m, n, k, systems):
    sysm, sysa, sysb = systems
    return (
        dp_sum(m, n, k, "monic", sysm),
        dp_sum(m, n, k, "mixed", sysa, sysb),
        dp_sum(m, n, k, "merged", sysa, sysb),
    )


def test_random_systems_have_non_integer_mixed_sign_values():
    b, lam, _ = random_monic(3)
    values = b.values + lam.values
    assert any(v < 0 for v in values) and any(v > 0 for v in values)
    assert len({Fraction(v).denominator for v in values}) > 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6), st.integers(0, 500))
def test_dp_matches_enumeration_on_rational_systems(m, n, k, seed):
    systems, want = enumeration_sums(m, n, k, seed)
    assert dp_sums(m, n, k, systems) == want


@pytest.mark.parametrize(
    "m, n, k",
    [
        (4, 0, 4),  # n < m, every step down
        (3, 1, 6),
        (0, 0, 6),  # k > m + n + 1: boundary dips
        (1, 0, 5),
        (2, 2, 6),
        (0, 4, 4),
    ],
)
def test_dp_matches_enumeration_below_and_at_the_boundary(m, n, k):
    systems, want = enumeration_sums(m, n, k, 7)
    assert dp_sums(m, n, k, systems) == want


N = 20
LENGTH = 2 * N + 4


def thirteenths(rng):
    return ExplicitSeq(tuple(Fraction(rng.choice([p for p in range(-25, 26) if p % 13]), 13)
                             for _ in range(LENGTH)))


def mixed_denominators(rng):
    return ExplicitSeq(tuple(Fraction(rng.choice([p for p in range(-9, 10) if p]),
                                      rng.randint(1, 12))
                             for _ in range(LENGTH)))


def norm(sys, k):
    """L(p_k^2) = gamma[0..k-1] / alpha[1..k], from the sequences' own ``at``."""
    value = Fraction(1)
    for i in range(k):
        value *= Fraction(sys.gamma.at(i)) / sys.alpha.at(i + 1)
    return value


@pytest.mark.parametrize("draw", [thirteenths, mixed_denominators])
@pytest.mark.parametrize("m, n, k", [(N, N, N), (N, 13, 17), (7, N, 19)])
def test_dp_times_prefactor_matches_the_reference_recurrence(draw, m, n, k):
    rng = random.Random(f"{draw.__name__}-{m}-{n}-{k}")
    sysm = CoefficientSystem(ConstantSeq(1), draw(rng), draw(rng))
    sysa = CoefficientSystem(draw(rng), draw(rng), draw(rng))
    sysb = CoefficientSystem(draw(rng), draw(rng), draw(rng))

    # L(p_m p_n p_k): the coefficient of p_k in p_m p_n, times L(p_k^2)
    want = recurrence_products(m, n, sysm, sysm)[n].get(k, 0) * norm(sysm, k)
    _, lam = monic_b_lambda(sysm, m + n + k)
    assert monic_prefactor(n, lam) * dp_sum(m, n, k, "monic", sysm) == want

    # L(p_m p_n p'_k): the coefficient of p_n in p_m p'_k, times L(p_n^2)
    want = recurrence_products(m, k, sysa, sysb)[k].get(n, 0) * norm(sysa, n)
    prefactor = mixed_prefactor(m, k, sysa, sysb)
    assert prefactor * dp_sum(m, n, k, "mixed", sysa, sysb) == want
    assert prefactor * dp_sum(m, n, k, "merged", sysa, sysb) == want


def explicit(values):
    return ExplicitSeq(tuple(Fraction(v) for v in values))


def short_monic(length):
    return CoefficientSystem(
        ConstantSeq(1),
        explicit([Fraction(i, 3) + Fraction(1, 2) for i in range(length)]),
        explicit([Fraction(i + 2, 5) for i in range(length)]),
    )


def short_pair(length):
    return (
        CoefficientSystem(explicit([Fraction(i + 1, 2) for i in range(length)]),
                          explicit([Fraction(i, 3) for i in range(length)]),
                          explicit([Fraction(i + 1, 7) for i in range(length)])),
        CoefficientSystem(explicit([Fraction(i + 3, 4) for i in range(length)]),
                          explicit([Fraction(1 - i, 5) for i in range(length)]),
                          explicit([Fraction(i + 2, 3) for i in range(length)])),
    )


def test_short_rational_monic_system_raises_at_the_first_missing_index():
    # dp_sum(0, 0, 6) reads b and lam up to index 5
    with pytest.raises(SequenceRangeError, match="^index 5 outside explicit sequence of length 5$"):
        dp_sum(0, 0, 6, "monic", short_monic(5))
    sysm = short_monic(6)
    b, lam = monic_b_lambda(sysm, 6)
    assert dp_sum(0, 0, 6, "monic", sysm) == path_sum_monic(0, 0, 6, b, lam).weight_sum


@pytest.mark.parametrize("weights", ["mixed", "merged"])
def test_short_rational_pair_raises_at_the_first_missing_index(weights):
    # dp_sum(2, 1, 3) reads the pair up to index 3
    with pytest.raises(SequenceRangeError, match="^index 3 outside explicit sequence of length 3$"):
        dp_sum(2, 1, 3, weights, *short_pair(3))
    # the merged sum equals the mixed one: the involution's fixed points
    pair = short_pair(4)
    assert dp_sum(2, 1, 3, weights, *pair) == path_sum_mixed(2, 1, 3, *pair).weight_sum


MONOTONE_MONIC = load_system(SYSTEMS_DIR / "monotone_monic.json")
WEIGHT_SYSTEMS = {
    "count": (),
    "monic": (MONOTONE_MONIC,),
    "mixed": (MONOTONE_MONIC, MONOTONE_MONIC),
    "merged": (MONOTONE_MONIC, MONOTONE_MONIC),
}


@pytest.mark.parametrize("weights", sorted(WEIGHT_SYSTEMS))
@pytest.mark.parametrize(
    "m, n, k", [(-1, 0, 1), (0, -1, 1), (0, 0, -1), (1, 1, -1), (0, 0, -2), (-3, -3, -3)]
)
def test_dp_rejects_negative_indices_like_the_enumeration(weights, m, n, k):
    with pytest.raises(ValueError, match="^levels and length must be nonnegative$"):
        enumerate_paths(m, n, k)
    with pytest.raises(ValueError, match="^levels and length must be nonnegative$"):
        dp_sum(m, n, k, weights, *WEIGHT_SYSTEMS[weights])
