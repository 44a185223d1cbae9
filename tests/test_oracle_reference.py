"""The recurrence oracle against a plain dict-of-Fraction recurrence.

The oracle carries integer numerators over one denominator per vector;
``oracles.recurrence_products`` and ``oracles.recurrence_moments`` divide
entry by entry in ``Fraction`` arithmetic and share no code with it.
Random explicit systems have negative and integral values and mixed
denominators, negative alpha included.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import orthopath.oracle as oracle_mod
from orthopath import (
    CoefficientSystem,
    ExplicitSeq,
    SequenceRangeError,
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


# -- what the walk reads -------------------------------------------------------

st_short_sequence = st.lists(st_nonzero, max_size=6).map(lambda vals: ExplicitSeq(tuple(vals)))
st_short_system = st.builds(
    CoefficientSystem, alpha=st_short_sequence, beta=st_short_sequence, gamma=st_short_sequence
)


def covers(seq, lo, hi):
    """An explicit sequence holds every index in lo..hi."""
    return hi < lo or hi < len(seq.values)


def walk_covered(first, second, start, top):
    """The walk to p_start * q_top reads alpha[1..T], beta[0..T-1] and
    gamma[0..T-2] of the first system at T = start + top, and of the
    second at T = top."""
    return all(
        covers(s.alpha, 1, t) and covers(s.beta, 0, t - 1) and covers(s.gamma, 0, t - 2)
        for s, t in ((first, start + top), (second, top))
    )


def norm(sys, t):
    """L(p_t * p_t) = gamma[0..t-1] / alpha[1..t], by plain products."""
    value = Fraction(1)
    for i in range(t):
        value = value * sys.gamma.at(i) / sys.alpha.at(i + 1)
    return value


def with_l_values(vec, sys):
    """The reference's table: every target over the support, with its L-value."""
    return {t: (vec.get(t, 0), vec.get(t, 0) * norm(sys, t)) for t in range(min(vec), max(vec) + 1)}


@settings(max_examples=300, deadline=None)
@given(st_short_system, st_short_system, st.integers(0, 3), st.integers(0, 3))
def test_the_walk_probes_exactly_the_coefficients_it_reads(sys, prime, m, j):
    def entries(table):
        return dict(table.entries)

    calls = [
        (lambda: entries(expand_product(m, j, sys)), sys, sys, m, True),
        (lambda: entries(mixed_expand(m, j, sys, prime)), sys, prime, m, True),
        (lambda: connection_expand(j, sys, prime), sys, prime, 0, False),
    ]
    for call, first, second, start, tabled in calls:
        try:
            want = recurrence_products(start, j, first, second)[j]
        except SequenceRangeError:
            with pytest.raises(SequenceRangeError):
                call()
            continue
        top = max(want)
        covered = walk_covered(first, second, start, j) and (
            not tabled or (covers(first.gamma, 0, top - 1) and covers(first.alpha, 1, top))
        )
        try:
            got = call()
        except SequenceRangeError:
            assert not covered
        else:
            assert got == (with_l_values(want, first) if tabled else want)
