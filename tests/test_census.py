"""One census walk and one DP walk per (m, n), read at every length k.

``verify`` reads ``monic_census``, ``mixed_census`` and ``dp_walk`` at
every k <= top instead of enumerating, folding and walking each (m, n, k)
from scratch.  These tests hold each walk to the per-path public API,
which stays the reference: the census sums to ``path_sum_monic``,
``strict_monic_weight_sum`` and ``path_sum_mixed``, and each DP length to
``dp_sum``, for every (m, n, k) <= 7.  The systems cover boundary dips
(k > m + n + 1), non-integer, mixed-sign and mixed-denominator values,
and a symbolic pair.  A walk reads further ahead than one instance does,
so where an instance raises (an index past a short sequence, symbolic
meeting non-integer scalars), reading that length raises the same error
with the same message, and every other length still reads its value.
"""

import sys
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from orthopath import (
    AffineSeq,
    CoefficientSystem,
    DomainMismatchError,
    ExplicitSeq,
    SequenceRangeError,
    dp_sum,
    enumerate_paths,
    load_system,
    monic_b_lambda,
    monic_system,
    path_sum_mixed,
    path_sum_monic,
    path_weight_mixed,
    path_weight_monic,
    scalar_sum,
    strict_monic_weight_sum,
)
from orthopath.weights import dp_walk, mixed_census, monic_census
from conftest import SYSTEMS_DIR, random_monic, random_system_pair

TOP = 7
PAIRS = list(product(range(TOP + 1), repeat=2))


def shipped(name):
    return load_system(SYSTEMS_DIR / f"{name}.json")


def check_monic(sys, pairs=PAIRS, top=TOP):
    """Hold the monic walks to the references; return the dipping paths seen
    at k > m + n + 1."""
    b, lam = monic_b_lambda(sys, 2 * top + 2)
    dips = 0
    for m, n in pairs:
        census = monic_census(m, n, top, b, lam)
        dp = dp_walk(m, n, top, "monic", sys)
        for k in range(top + 1):
            assert census(k) == (
                path_sum_monic(m, n, k, b, lam).weight_sum,
                strict_monic_weight_sum(m, n, k, b, lam),
            ), (m, n, k)
            assert dp(k) == dp_sum(m, n, k, "monic", sys), (m, n, k)
            if k > m + n + 1:
                paths = enumerate_paths(m, n, k, boundary_dips=True)
                dips += sum(not p.is_standard() for p in paths)
    return dips


def check_mixed(sys, prime, pairs=PAIRS, top=TOP):
    for m, n in pairs:
        census = mixed_census(m, n, top, sys, prime)
        dp = dp_walk(m, n, top, "mixed", sys, prime)
        for k in range(top + 1):
            assert census(k) == path_sum_mixed(m, n, k, sys, prime).weight_sum, (m, n, k)
            assert dp(k) == dp_sum(m, n, k, "mixed", sys, prime), (m, n, k)


@pytest.mark.parametrize("name", ["monotone_monic", "rational_monic", "hermite_like"])
def test_monic_walks_equal_the_references_on_shipped_systems(name):
    # the census past k = m + n + 1 is where the boundary dips live
    assert check_monic(shipped(name)) > 0


def test_monic_walks_equal_the_references_on_a_mixed_sign_rational_system():
    check_monic(random_monic(5)[2])


@pytest.mark.parametrize("main, prime", [("monotone", "monotone_prime"),
                                         ("rational_monic", "monotone_prime")])
def test_mixed_walks_equal_the_references_on_shipped_pairs(main, prime):
    check_mixed(shipped(main), shipped(prime))


def test_mixed_walks_equal_the_references_on_a_mixed_sign_rational_pair():
    check_mixed(*random_system_pair(6))


def test_the_walks_equal_the_references_on_a_symbolic_pair():
    sym = shipped("symbolic_monic")
    pairs = list(product(range(4), repeat=2))
    check_monic(sym, pairs, top=4)
    check_mixed(sym, sym, pairs, top=4)


def test_count_walk_reads_every_length():
    for m, n in PAIRS:
        count = dp_walk(m, n, TOP, "count")
        assert [count(k) for k in range(TOP + 1)] == [
            len(enumerate_paths(m, n, k)) for k in range(TOP + 1)
        ]


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
nonzero = fractions.filter(bool)


def explicit(values):
    return ExplicitSeq(tuple(values))


@settings(max_examples=40, deadline=None)
@given(
    b=st.lists(fractions, min_size=16, max_size=16),
    lam=st.lists(nonzero, min_size=16, max_size=16),
    pair=st.lists(st.tuples(
        st.lists(nonzero, min_size=16, max_size=16),  # alpha, divided by in the prefactor
        st.lists(fractions, min_size=16, max_size=16),
        st.lists(fractions, min_size=16, max_size=16),
    ), min_size=2, max_size=2),
    m=st.integers(0, TOP),
    n=st.integers(0, TOP),
)
def test_walks_equal_the_references_on_mixed_denominators(b, lam, pair, m, n):
    check_monic(monic_system(explicit(b), explicit(lam)), [(m, n)])
    sys, prime = (CoefficientSystem(*map(explicit, seqs)) for seqs in pair)
    check_mixed(sys, prime, [(m, n)])


def outcome(compute):
    """The value, or the type and message of the error an instance raises."""
    try:
        return compute()
    except (SequenceRangeError, DomainMismatchError) as exc:
        return type(exc), str(exc)


def short_system(length):
    return CoefficientSystem(
        explicit(range(1, length + 1)), explicit(range(length)), explicit(range(2, length + 2)),
    )


def short_monic(length):
    return monic_system(explicit(range(length)), explicit(range(1, length + 1)))


# path_sum_*'s weight_sum without the prefactor, which can raise too.  Every
# path is folded before the sum, as there: a fold whose product is a short
# sequence's lone placeholder raises at the fold, since ``_fold`` returns
# ``_present(total)``, so no sum is taken after it.

def monic_weight_sum(m, n, k, b, lam):
    return scalar_sum([path_weight_monic(p, b, lam)
                       for p in enumerate_paths(m, n, k, boundary_dips=True)])


def mixed_weight_sum(m, n, k, sys, prime):
    return scalar_sum([path_weight_mixed(p, sys, prime)
                       for p in enumerate_paths(m, n, k, allow_hh=True)])


def check_outcomes(census, dp, reference_sum, reference_dp, top=5):
    """Each length of each walk raises where, and what, its instance does;
    return the instances that raised."""
    raised = set()
    for m, n in product(range(top + 1), repeat=2):
        c, d = census(m, n, top), dp(m, n, top)
        for k in range(top + 1):
            want = outcome(lambda: reference_sum(m, n, k))
            assert outcome(lambda: c(k)) == want, (m, n, k)
            got = outcome(lambda: d(k))
            assert got == outcome(lambda: reference_dp(m, n, k)), (m, n, k)
            # the DP meets the same bad entry on another path first, so only
            # the error's type is the enumeration's
            assert (got[0] if isinstance(got, tuple) else None) == (
                want[0] if isinstance(want, tuple) else None), (m, n, k)
            if isinstance(want, tuple):
                raised.add((m, n, k))
    return raised


@pytest.mark.parametrize("length", [2, 4])
def test_a_short_monic_system_raises_at_the_lengths_its_instances_do(length):
    sys = short_monic(length)
    b, lam = monic_b_lambda(sys, 1)

    def weight_sums(m, n, top):
        census = monic_census(m, n, top, b, lam)
        return lambda k: census(k)[0]

    raised = check_outcomes(
        weight_sums,
        lambda m, n, top: dp_walk(m, n, top, "monic", sys),
        lambda m, n, k: monic_weight_sum(m, n, k, b, lam),
        lambda m, n, k: dp_sum(m, n, k, "monic", sys),
    )
    assert raised and len(raised) < 6 ** 3


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("role", ["system", "prime", "both"])
def test_a_short_two_family_system_raises_at_the_lengths_its_instances_do(length, role):
    short, full = short_system(length), shipped("monotone")
    sys, prime = {"system": (short, full), "prime": (full, short), "both": (short, short)}[role]
    raised = check_outcomes(
        lambda m, n, top: mixed_census(m, n, top, sys, prime),
        lambda m, n, top: dp_walk(m, n, top, "mixed", sys, prime),
        lambda m, n, k: mixed_weight_sum(m, n, k, sys, prime),
        lambda m, n, k: dp_sum(m, n, k, "mixed", sys, prime),
    )
    assert raised and len(raised) < 6 ** 3


@pytest.mark.parametrize("order", ["symbolic first", "rational first"])
def test_symbolic_with_rational_raises_at_the_lengths_its_instances_do(order):
    sym, rat = shipped("symbolic_monic"), shipped("rational_monic")
    sys, prime = (sym, rat) if order == "symbolic first" else (rat, sym)
    raised = check_outcomes(
        lambda m, n, top: mixed_census(m, n, top, sys, prime),
        lambda m, n, top: dp_walk(m, n, top, "mixed", sys, prime),
        lambda m, n, k: mixed_weight_sum(m, n, k, sys, prime),
        lambda m, n, k: dp_sum(m, n, k, "mixed", sys, prime),
        top=3,
    )
    assert raised and len(raised) < 4 ** 3


def test_a_census_deeper_than_the_recursion_limit_completes():
    # (0, 0) -> (k, n) at n = k has the one path of all U steps, so the walk
    # is one prefix deep at each length, and deeper than the limit at k = n
    n = sys.getrecursionlimit() + 50
    b, lam = AffineSeq(0, 1), AffineSeq(1, 1)
    monic = monic_census(0, n, n, b, lam)
    assert monic(n) == (path_sum_monic(0, n, n, b, lam).weight_sum,
                        strict_monic_weight_sum(0, n, n, b, lam))
    assert monic(n - 1) == (0, 0)
    sys_ = CoefficientSystem(AffineSeq(1, 1), AffineSeq(0, 1), AffineSeq(2, 1))
    mixed = mixed_census(0, n, n, sys_, sys_)
    assert mixed(n) == path_sum_mixed(0, n, n, sys_, sys_).weight_sum
    assert mixed(n - 1) == 0
