"""The recurrence oracle's readout: L-values from integer prefix products.

Every L-value of a numeric ``expand_product`` or ``mixed_expand`` table is
read off the prefix products of gamma and alpha in the integer form of
``systems._scaled`` that the oracle's walk reads, one ``Fraction`` per
target.  They and the norms are held here to plain ``Fraction`` products
(``test_oracle_reference.norm``) on every shipped numeric system and pair
and on seeded rationals of deep size, and to the closed forms of
physicists' Hermite H_n and Chebyshev T_n, where ``lincoef --method mixed``
must print the same values, and ``moments`` on the shipped Chebyshev-like
and Hermite-like systems to the Catalan numbers and the double factorials.
The plain products' errors stay where they
were, and a norm the plain products gave as an ``int`` is still one, so a
``Poly`` can still multiply it.

Two sha256 pins, taken before the readout changed, hold ``lincoef`` and
``connect`` at size 30 on the non-monic ``monotone.json``, whose alpha is
affine.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from orthopath import (
    AffineSeq, CoefficientSystem, ConstantSeq, DomainMismatchError, ExplicitSeq,
    SequenceRangeError, SymbolicSeq, UnsupportedDomainError, expand_product, indet,
    load_system, mixed_expand,
)
from orthopath.cli import main
from orthopath.scalars import Poly
from conftest import SYSTEMS_DIR
from oracles import (
    chebyshev_like_moment, chebyshev_t_linearization, chebyshev_t_norm, hermite_h_linearization,
    hermite_h_norm, hermite_like_moment, recurrence_products,
)
from test_oracle_reference import norm, with_l_values

NUMERIC = ["chebyshev_like", "hermite_like", "monotone", "monotone_monic", "monotone_prime",
           "rational_monic"]
TOP = 8


def shipped(name):
    return load_system(SYSTEMS_DIR / f"{name}.json")


# -- plain products ------------------------------------------------------------

@pytest.mark.parametrize("name, partner", list(product(NUMERIC, NUMERIC)))
def test_every_l_value_is_the_plain_products_quotient_on_shipped_systems(name, partner):
    sys_, prime = shipped(name), shipped(partner)
    assert [sys_.norm_squared(k) for k in range(2 * TOP + 1)] == [
        norm(sys_, k) for k in range(2 * TOP + 1)]
    for m in range(TOP + 1):
        want = recurrence_products(m, TOP, sys_, prime)
        for j in range(TOP + 1):
            assert mixed_expand(m, j, sys_, prime).entries == with_l_values(want[j], sys_), (m, j)
        if name == partner:
            for n in range(TOP + 1):
                assert expand_product(m, n, sys_).entries == with_l_values(want[n], sys_), (m, n)


def seeded_system(rng, length=124):
    """Explicit rationals with mixed signs and denominators, alpha nonzero."""
    def seq():
        return ExplicitSeq(tuple(Fraction(rng.choice((1, -1)) * rng.randint(1, 30),
                                          rng.randint(1, 12)) for _ in range(length)))

    return CoefficientSystem(seq(), seq(), seq(), "seeded")


def test_every_l_value_is_the_plain_products_quotient_at_deep_size():
    rng = random.Random(124)
    sys_, prime = seeded_system(rng), seeded_system(rng)
    assert all(sys_.norm_squared(k) == norm(sys_, k) for k in range(81))
    want = recurrence_products(40, 40, sys_, sys_)[40]
    assert expand_product(40, 40, sys_).entries == with_l_values(want, sys_)
    want = recurrence_products(40, 40, sys_, prime)[40]
    assert mixed_expand(40, 40, sys_, prime).entries == with_l_values(want, sys_)


# -- closed forms --------------------------------------------------------------

def hermite_h():
    """alpha[n+1] = 1/2, beta = 0, gamma[i] = i + 1: H_{n+1} = 2x H_n - 2n H_{n-1}."""
    return {"alpha": {"family": "constant", "value": "1/2"},
            "beta": {"family": "constant", "value": "0"},
            "gamma": {"family": "affine", "c0": "1", "c1": "1"}}


def chebyshev_t():
    """alpha = 1, 1/2, 1/2, ..., beta = 0, gamma = 1/2: T_1 = x, T_{n+1} = 2x T_n - T_{n-1}."""
    return {"alpha": {"family": "explicit", "values": ["0", "1"] + ["1/2"] * 128},
            "beta": {"family": "constant", "value": "0"},
            "gamma": {"family": "constant", "value": "1/2"}}


CLOSED_FORMS = {
    "hermite_h": (hermite_h, hermite_h_linearization, hermite_h_norm),
    "chebyshev_t": (chebyshev_t, chebyshev_t_linearization, chebyshev_t_norm),
}
SIZES = [[(m, n) for n in range(TOP + 1)] for m in range(TOP + 1)] + [
    [(40, 40)], [(47, 60)], [(60, 60)]]


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("pairs", SIZES, ids=lambda pairs: "m=%d" % pairs[0][0]
                         if len(pairs) > 1 else "%d,%d" % pairs[0])
def test_the_oracle_and_the_mixed_reading_meet_the_closed_form(tmp_path, capsys, family, pairs):
    spec, linearization, norm_of = CLOSED_FORMS[family]
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps(spec()))
    sys_ = load_system(path)
    for m, n in pairs:
        closed = linearization(m, n)
        want = {k: (closed.get(k, 0), closed.get(k, 0) * norm_of(k))
                for k in range(abs(m - n), m + n + 1)}
        assert expand_product(m, n, sys_).entries == want, (m, n)
        assert main(["lincoef", "--m", str(m), "--n", str(n), "--method", "mixed",
                     "--system", str(path), "--format", "records"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        got = {r["k"]: (Fraction(r["coefficient"]), Fraction(r["l_value"])) for r in rows}
        assert got == want, (m, n)


# -- errors and domains ---------------------------------------------------------

def explicit_system(alpha, gamma_length):
    beta = ExplicitSeq((Fraction(1, 3),) * 8)
    gamma = ExplicitSeq(tuple(Fraction(i + 2, 5) for i in range(gamma_length)))
    return CoefficientSystem(ExplicitSeq(tuple(alpha)), beta, gamma)


def test_a_zero_alpha_raises_at_the_first_target_whose_norm_divides_by_it():
    # targets 1..3 of p_2 * p_1: A_2 = 0 comes before target 3 reads gamma[2]
    sys_ = explicit_system((1, 1, 0, 1, 1, 1, 1, 1), 2)
    with pytest.raises(ValueError, match="division by zero coefficient"):
        expand_product(2, 1, sys_)
    with pytest.raises(ValueError, match="division by zero coefficient"):
        mixed_expand(2, 1, sys_, shipped("monotone"))
    assert sys_.norm_squared(1) == Fraction(2, 5)
    with pytest.raises(ValueError, match="division by zero coefficient"):
        sys_.norm_squared(2)
    # p_3 * p_0 has the one target 3, whose norm reads gamma[2] before
    # A_3 = 0 divides; the walk itself reads no gamma
    sys_ = explicit_system((1, 1, 1, 0, 1, 1, 1, 1), 2)
    with pytest.raises(SequenceRangeError, match="index 2 outside explicit sequence of length 2"):
        expand_product(3, 0, sys_)
    with pytest.raises(ValueError, match="division by zero coefficient"):
        expand_product(3, 0, explicit_system((1, 1, 1, 0, 1, 1, 1, 1), 3))
    # a zero alpha past the support is never divided by
    sys_ = explicit_system((1, 2, 3, 1, 1, 0, 1, 1), 8)
    assert expand_product(1, 1, sys_).entries == with_l_values(
        recurrence_products(1, 1, sys_, sys_)[1], sys_)


def test_a_non_monic_symbolic_system_raises_unsupported_domain():
    sys_ = CoefficientSystem(SymbolicSeq("a"), ConstantSeq(0), SymbolicSeq("l"))
    for call in (lambda: sys_.norm_squared(1), lambda: expand_product(2, 0, sys_)):
        with pytest.raises(UnsupportedDomainError, match="only defined for divisor 1"):
            call()


def test_a_symbolic_and_integral_rational_pair_keeps_its_errors():
    symbolic, integral = shipped("symbolic_monic"), shipped("monotone")
    with pytest.raises(DomainMismatchError, match="cannot mix symbolic polynomials"):
        mixed_expand(2, 2, integral, symbolic)
    with pytest.raises(UnsupportedDomainError, match="only defined for divisor 1"):
        mixed_expand(2, 2, symbolic, integral)


def test_a_norm_of_int_factors_stays_an_int_beside_a_poly():
    # beta[6] = 1/2 makes the scaled form's D = 2 from index 6 on, yet
    # gamma[0..k-1] are ints over alpha = 1, so each norm is an int, as the
    # plain products give it, and a Poly vector's L-values can be read
    sys_ = CoefficientSystem(ConstantSeq(1), ExplicitSeq((1,) * 6 + (Fraction(1, 2),) + (1,) * 4),
                             AffineSeq(Fraction(2), Fraction(1)))
    assert [type(sys_.norm_squared(k)) for k in range(9)] == [int] * 9
    table = mixed_expand(1, 2, sys_, shipped("symbolic_monic"))
    assert all(l == c * sys_.norm_squared(t) for t, (c, l) in table.entries.items())
    assert any(isinstance(l, Poly) for _, l in table.entries.values())
    # an integral norm of non-int factors stays a Fraction, as it was
    sys_ = CoefficientSystem(ExplicitSeq((0, 2, Fraction(1, 2))), ConstantSeq(0),
                             ExplicitSeq((Fraction(1, 2), 4)))
    assert sys_.norm_squared(2) == 2 and type(sys_.norm_squared(2)) is Fraction


def test_poly_results_stay_poly():
    sys_ = shipped("symbolic_monic")
    table = expand_product(3, 2, sys_)
    for t, (c, l) in table.entries.items():
        want = c * sys_.norm_squared(t)
        assert l == want and type(l) is type(want)
    assert isinstance(table.entries[3][1], Poly)
    assert table.entries[5][1] == indet("l", 1) * indet("l", 2) * indet("l", 3) * indet(
        "l", 4) * indet("l", 5)


# -- pins --------------------------------------------------------------------------

MONOTONE = str(SYSTEMS_DIR / "monotone.json")
MONOTONE_PRIME = str(SYSTEMS_DIR / "monotone_prime.json")
# taken before the readout changed
PINNED = {
    ("lincoef", "table"): "e9320ff5516d0badd9f5a016a671bfd5255f55fd473c9002d699240e921bcf72",
    ("lincoef", "records"): "6a367a5090ecc92acc902a42a30bc8bdc82fa61031313dbeebd52458457453e9",
    ("connect", "table"): "1698cdc62d49eae83bf8c85f98847c66f7a1844ac9bc8dd45a0952f27968e0e7",
    ("connect", "records"): "4bec2d24148b4c2f0f123a2ea091749de2caa8e92aa4c5783afe337f570c741b",
}
ARGV = {
    "lincoef": ["lincoef", "--m", "30", "--n", "30", "--system", MONOTONE],
    "connect": ["connect", "--m", "30", "--k", "30", "--system", MONOTONE,
                "--system-prime", MONOTONE_PRIME],
}


@pytest.mark.parametrize("command, fmt", sorted(PINNED))
def test_non_monic_tables_at_size_30_are_pinned(capsys, command, fmt):
    assert main(ARGV[command] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command, fmt]


# -- moments ---------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["table", "records"])
@pytest.mark.parametrize("name, moment", [("chebyshev_like", chebyshev_like_moment),
                                          ("hermite_like", hermite_like_moment)])
def test_moments_are_the_closed_forms(capsys, name, moment, fmt):
    code = main(["moments", "--max", "40", "--system", str(SYSTEMS_DIR / f"{name}.json"),
                 "--format", fmt])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    if fmt == "records":
        got = [(rec["n"], rec["mu"]) for rec in map(json.loads, lines)]
    else:
        assert lines[0].split() == ["n", "mu_n"]
        got = [(int(n), mu) for n, mu in map(str.split, lines[1:])]
    assert got == [(n, str(moment(n))) for n in range(41)]
