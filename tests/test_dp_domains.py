"""The transfer-matrix DP in the symbolic domain and across domains.

``dp_sum`` reads the same weight tables whatever the scalars are.  A
symbolic system runs on its ``Poly`` values over the denominator 1, so
the DP equals the enumeration sums and never returns a ``Fraction``.  A
symbolic system paired with a non-integral rational one cannot be
summed: the DP raises ``DomainMismatchError`` exactly where the
enumeration does, with the same message, in either order.
"""

from fractions import Fraction
from itertools import product

import pytest

from orthopath import (
    DomainMismatchError,
    dp_sum,
    enumerate_paths,
    load_system,
    monic_b_lambda,
    path_sum_mixed,
    path_sum_monic,
    path_weight_merged,
    scalar_sum,
)
from conftest import SYSTEMS_DIR

SYMBOLIC = load_system(SYSTEMS_DIR / "symbolic_monic.json")
RATIONAL = load_system(SYSTEMS_DIR / "rational_monic.json")
INTEGRAL = load_system(SYSTEMS_DIR / "monotone_monic.json")
INSTANCES = list(product(range(4), repeat=3))


def enumeration(m, n, k, weights, sys, sys_prime):
    if weights == "monic":
        b, lam = monic_b_lambda(sys, m + n + k + 2)
        return path_sum_monic(m, n, k, b, lam).weight_sum
    if weights == "mixed":
        return path_sum_mixed(m, n, k, sys, sys_prime).weight_sum
    return scalar_sum(
        path_weight_merged(p, sys, sys_prime) for p in enumerate_paths(m, n, k, allow_hh=True)
    )


def outcome(compute):
    """The value, or the message of a DomainMismatchError."""
    try:
        return compute()
    except DomainMismatchError as exc:
        return DomainMismatchError, str(exc)


SYMBOLIC_CASES = {
    "monic": ("monic", SYMBOLIC, None),
    "mixed, symbolic pair": ("mixed", SYMBOLIC, SYMBOLIC),
    "merged, symbolic pair": ("merged", SYMBOLIC, SYMBOLIC),
    "mixed, symbolic x integral": ("mixed", SYMBOLIC, INTEGRAL),
    "mixed, integral x symbolic": ("mixed", INTEGRAL, SYMBOLIC),
    "merged, symbolic x integral": ("merged", SYMBOLIC, INTEGRAL),
}


@pytest.mark.parametrize("case", sorted(SYMBOLIC_CASES))
def test_symbolic_dp_equals_the_enumeration_and_never_returns_a_fraction(case):
    weights, sys, sys_prime = SYMBOLIC_CASES[case]
    for m, n, k in INSTANCES:
        value = dp_sum(m, n, k, weights, sys, sys_prime)
        assert value == enumeration(m, n, k, weights, sys, sys_prime), (m, n, k)
        assert not isinstance(value, Fraction), (m, n, k)


# Where a symbolic system meets rational_monic.json's halves and thirds,
# for m, n, k <= 3; the same instances for both weight systems and orders.
MISMATCHED = {
    (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 0, 2),
    (1, 0, 3), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (1, 3, 3),
    (2, 0, 3), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 2),
    (2, 3, 3), (3, 1, 3), (3, 2, 2), (3, 2, 3), (3, 3, 1), (3, 3, 2), (3, 3, 3),
}


@pytest.mark.parametrize("order", ["symbolic first", "rational first"])
@pytest.mark.parametrize("weights", ["mixed", "merged"])
def test_symbolic_with_rational_raises_where_the_enumeration_does(weights, order):
    pair = (SYMBOLIC, RATIONAL) if order == "symbolic first" else (RATIONAL, SYMBOLIC)
    raised = set()
    for m, n, k in INSTANCES:
        got = outcome(lambda: dp_sum(m, n, k, weights, *pair))
        assert got == outcome(lambda: enumeration(m, n, k, weights, *pair)), (m, n, k)
        if isinstance(got, tuple):
            raised.add((m, n, k))
            assert got[1] == "cannot mix symbolic polynomials with non-integer numerics"
    assert raised == MISMATCHED
