"""The recurrence oracle against a plain dict-of-Fraction recurrence.

The oracle carries integer numerators over one denominator per vector;
``oracles.recurrence_products`` and ``oracles.recurrence_moments`` divide
entry by entry in ``Fraction`` arithmetic and share no code with it.
Random explicit systems have negative and integral values and mixed
denominators, negative alpha included.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import orthopath.oracle as oracle_mod
from orthopath import (
    CoefficientSystem,
    ExplicitSeq,
    connection_expand,
    expand_product,
    mixed_expand,
    moments,
)
from oracles import recurrence_moments, recurrence_products

TOP = 8
MOMENTS = 12
LENGTH = 2 * TOP + 2

st_value = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 4, 6, 9, 10))
)
st_nonzero = st_value.filter(bool)


def st_sequence(values):
    return st.lists(values, min_size=LENGTH, max_size=LENGTH).map(
        lambda vals: ExplicitSeq(tuple(vals))
    )


st_system = st.builds(
    CoefficientSystem,
    alpha=st_sequence(st_nonzero),
    beta=st_sequence(st_value),
    gamma=st_sequence(st_nonzero),
)


def nonzero(table):
    return {t: c for t, (c, _) in table.entries.items() if c != 0}


def check_against_reference(sys, prime, m, n, k):
    assert nonzero(expand_product(m, n, sys)) == recurrence_products(m, n, sys, sys)[n]
    want = recurrence_products(m, k, sys, prime)[k]
    assert nonzero(mixed_expand(m, k, sys, prime)) == want
    assert connection_expand(k, sys, prime) == recurrence_products(0, k, sys, prime)[k]


@settings(max_examples=40, deadline=None)
@given(
    st_system,
    st_system,
    st.integers(0, TOP),
    st.integers(0, TOP),
    st.integers(0, TOP),
)
def test_expansions_and_moments_equal_the_plain_recurrence(sys, prime, m, n, k):
    check_against_reference(sys, prime, m, n, k)
    want = recurrence_moments(MOMENTS, sys)
    assert [moments(i, sys) for i in range(MOMENTS + 1)] == want


def test_long_walks_reduce_to_the_plain_recurrence():
    # Denominators 2..7: the gcd reduction divides out content at 23 of
    # the 24 product steps, every connection step and 14 moment steps.
    def seq(start, step, den):
        return ExplicitSeq(
            tuple(Fraction((start + step * i) % 23 - 11 or 5, 2 + (i * den) % 6) for i in range(52))
        )

    sys = CoefficientSystem(seq(3, 7, 5), seq(1, 4, 1), seq(9, 5, 3))
    prime = CoefficientSystem(seq(8, 11, 1), seq(2, 3, 5), seq(4, 13, 2))
    check_against_reference(sys, prime, 24, 24, 24)
    assert moments(24, sys) == recurrence_moments(24, sys)[24]


def test_a_step_leaves_a_positive_reduced_denominator():
    # (x - 1/3) * (3/2) e_1 + (2/5) e_0, divided by -4/9: before reduction
    # the step holds -2430 and 1836 over -240, which share the factor 6
    sys = CoefficientSystem(
        ExplicitSeq((Fraction(1), Fraction(2, 3), Fraction(-3), Fraction(1))),
        ExplicitSeq((Fraction(0), Fraction(1, 3), Fraction(5), Fraction(1))),
        ExplicitSeq((Fraction(2), Fraction(7, 2), Fraction(1), Fraction(1))),
    )
    coeffs = oracle_mod._coefficients(sys, 3, True)
    nums, den = oracle_mod._step(
        ({1: 3}, 2), ({0: 1}, 1), coeffs, Fraction(1, 3), Fraction(-2, 5), Fraction(-4, 9)
    )
    assert (nums, den) == ({2: 405, 0: -306}, 40)
    assert {t: Fraction(c, den) for t, c in nums.items()} == {
        2: Fraction(-9, 2) / Fraction(-4, 9),
        0: (3 + Fraction(2, 5)) / Fraction(-4, 9),
    }
