"""The Poly product and rendering kernels against references written here:
products from Counter-merged monomials, the display order from the
ascending key (-degree, negated factors), and canonical form."""

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from orthopath.scalars import FAMILIES, Poly, indet, parse_polynomial

# A few ranks and indices, so that factors of two monomials often share a
# variable; exponents above 1 and up to four factors per monomial.
st_monomial = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 3)),
    st.integers(1, 3),
    max_size=4,
).map(lambda exps: tuple(sorted((r, i, e) for (r, i), e in exps.items())))

st_poly = st.dictionaries(
    st_monomial, st.integers(-4, 4).filter(bool), max_size=6
).map(Poly)


def reference_product(p: Poly, q: Poly) -> dict:
    out = Counter()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = Counter()
            for rank, index, exp in m1 + m2:
                exps[(rank, index)] += exp
            out[tuple(sorted((r, i, e) for (r, i), e in exps.items()))] += c1 * c2
    return {mono: c for mono, c in out.items() if c}


def display_key(mono):
    degree = sum(e for _, _, e in mono)
    return (-degree, tuple((-r, -i, -e) for r, i, e in mono))


def reference_str(p: Poly) -> str:
    terms = p.terms
    if not terms:
        return "0"
    parts = []
    for mono in sorted(terms, key=display_key):
        coeff = terms[mono]
        body = "*".join(
            f"{FAMILIES[r]}{i}" + ("" if e == 1 else f"^{e}") for r, i, e in mono
        )
        mag = abs(coeff)
        text = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
        parts.append(("-" if coeff < 0 else "+", text))
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return head + "".join(f" {sign} {text}" for sign, text in parts[1:])


def assert_canonical(p: Poly) -> None:
    for mono, coeff in p.terms.items():
        assert isinstance(coeff, int) and coeff != 0
        assert all(e >= 1 for _, _, e in mono)
        assert all(a[:2] < b[:2] for a, b in zip(mono, mono[1:]))


@settings(max_examples=150, deadline=None)
@given(st_poly, st_poly)
def test_product_matches_counter_merge_and_stays_canonical(p, q):
    product = p * q
    assert product.terms == reference_product(p, q)
    assert (q * p).terms == product.terms
    assert_canonical(product)


@settings(max_examples=150, deadline=None)
@given(st_poly)
def test_str_lists_terms_in_display_key_order(p):
    assert str(p) == reference_str(p)
    assert parse_polynomial(str(p)) == p


def test_product_examples_with_shared_variables():
    b0, b1, l2 = indet("b", 0), indet("b", 1), indet("l", 2)
    assert str((b0 * b1**2 * l2) * (b1 * l2**3)) == "b0*b1^3*l2^4"
    assert (b0 - b1) * (b0 + b1) == b0**2 - b1**2
    assert ((b0 - b1) * (b1 - b0) + (b0 - b1) ** 2).is_zero()
    assert str(7 * Poly.constant(1)) == "7"


def test_parse_merges_repeated_factors():
    assert parse_polynomial("b1*b0*b1^2") == indet("b", 0) * indet("b", 1) ** 3
    assert_canonical(parse_polynomial("l2*b1*b1 - 3*a'0*l2"))


@pytest.mark.parametrize("text", ["b3^0", "b3^00", "2*l1*b3^0", "b3^0 - 1"])
def test_parse_rejects_a_zero_exponent(text):
    with pytest.raises(ValueError, match="zero exponent"):
        parse_polynomial(text)


@pytest.mark.parametrize(
    "mono",
    [
        ((0, 3, 1), (0, 1, 1)),  # factors out of order
        ((0, 1, 1), (0, 1, 2)),  # one variable twice
        ((0, 3, 0),),  # exponent below 1
    ],
    ids=["unsorted", "repeated", "zero-exponent"],
)
def test_constructor_rejects_non_canonical_monomials(mono):
    with pytest.raises(ValueError, match="monomial"):
        Poly({mono: 1})

