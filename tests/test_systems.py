import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orthopath import (
    AffineSeq,
    CoefficientSystem,
    ConstantSeq,
    DomainMismatchError,
    ExplicitSeq,
    SequenceRangeError,
    ShiftedSeq,
    SymbolicSeq,
    UnsupportedDomainError,
    indet,
    load_system,
    monic_b_lambda,
    monic_system,
    system_from_json,
)
from orthopath.systems import _OutOfRange, _scaled
from conftest import random_system


def test_monic_system_direct_substitution():
    b = AffineSeq(Fraction(0), Fraction(1))
    lam = AffineSeq(Fraction(0), Fraction(1))
    sys = monic_system(b, lam)
    assert sys.beta_at(2) == 2
    assert sys.gamma_at(2) == 3  # lam[3]
    assert sys.alpha_at(5) == 1


def test_monic_system_symbolic():
    sys = monic_system(SymbolicSeq("b"), SymbolicSeq("l"))
    assert sys.beta_at(4) == indet("b", 4)
    assert sys.gamma_at(4) == indet("l", 5)
    assert sys.is_symbolic


def test_monic_system_chebyshev_like(chebyshev_like):
    assert chebyshev_like.beta_at(7) == 0
    assert chebyshev_like.gamma_at(7) == 1


def test_alpha_at_zero_is_zero_by_convention():
    sys = random_system(5)
    assert sys.alpha_at(0) == 0
    assert sys.coeff_at("alpha", 0) == 0
    # raw sequence access is still available underneath
    assert sys.alpha.at(0) == sys.alpha.at(0)


def test_coeff_at_examples():
    sys = monic_system(SymbolicSeq("b"), SymbolicSeq("l"))
    assert sys.coeff_at("gamma", 4) == indet("l", 5)
    affine = CoefficientSystem(
        ConstantSeq(1), AffineSeq(Fraction(2), Fraction(3)), ConstantSeq(1)
    )
    assert affine.coeff_at("beta", 2) == 8
    with pytest.raises(ValueError):
        affine.coeff_at("delta", 0)


def test_explicit_range_errors_are_eager():
    seq = ExplicitSeq((Fraction(1), Fraction(2)))
    assert seq.at(1) == 2
    with pytest.raises(SequenceRangeError):
        seq.at(2)
    with pytest.raises(SequenceRangeError):
        seq.at(-1)
    sys = CoefficientSystem(ConstantSeq(1), seq, ConstantSeq(1))
    with pytest.raises(SequenceRangeError):
        sys.require_range(5)


def test_norm_squared_examples(hermite_like, monotone_monic):
    _, _, hermite = hermite_like
    assert hermite.norm_squared(0) == 1
    assert hermite.norm_squared(3) == 6  # 1 * 2 * 3
    sym = monic_system(SymbolicSeq("b"), SymbolicSeq("l"))
    l1, l2, l3 = (indet("l", j) for j in (1, 2, 3))
    assert sym.norm_squared(3) == l1 * l2 * l3


def test_norm_squared_symbolic_nonmonic_unsupported():
    sys = CoefficientSystem(SymbolicSeq("a"), SymbolicSeq("be"), SymbolicSeq("g"))
    with pytest.raises(UnsupportedDomainError):
        sys.norm_squared(2)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=400))
def test_norm_recurrence_property(k, seed):
    sys = random_system(seed)
    lhs = sys.norm_squared(k + 1)
    rhs = sys.norm_squared(k) * sys.gamma_at(k) / Fraction(sys.alpha.at(k + 1))
    assert lhs == rhs


def test_positive_definite_flag():
    good = CoefficientSystem(
        ConstantSeq(Fraction(1, 2)), ConstantSeq(0), ConstantSeq(Fraction(2))
    )
    assert good.positive_definite(6)
    assert good.norm_squared(2) == 16
    bad = CoefficientSystem(
        ConstantSeq(Fraction(1)), ConstantSeq(0), ExplicitSeq((Fraction(1), Fraction(-1), Fraction(1)))
    )
    assert not bad.positive_definite(2)


def test_monic_b_lambda_round_trip():
    b = ExplicitSeq(tuple(Fraction(i) for i in range(10)))
    lam = ExplicitSeq(tuple(Fraction(i + 1) for i in range(10)))
    sys = monic_system(b, lam)
    b2, lam2 = monic_b_lambda(sys, 8)
    assert all(b2.at(i) == b.at(i) for i in range(9))
    assert all(lam2.at(i) == lam.at(i) for i in range(1, 9))
    nonmonic = CoefficientSystem(ConstantSeq(Fraction(2)), b, lam)
    with pytest.raises(ValueError):
        monic_b_lambda(nonmonic, 5)


def test_shifted_seq():
    lam = AffineSeq(Fraction(0), Fraction(1))
    gamma = ShiftedSeq(lam, 1)
    assert gamma.at(0) == 1
    back = ShiftedSeq(gamma, -1)
    assert back.at(3) == 3


# -- scalar domain ---------------------------------------------------------------

DOMAIN_CASES = {
    "explicit": (ExplicitSeq((Fraction(1, 2), 2)), False),
    "explicit with a Poly": (ExplicitSeq((1, indet("b", 0) + 1)), True),
    "constant int": (ConstantSeq(3), False),
    "constant Poly": (ConstantSeq(indet("l", 2)), True),
    "affine": (AffineSeq(Fraction(1, 2), Fraction(1)), False),
    "symbolic": (SymbolicSeq("b"), True),
    "symbolic, unknown family": (SymbolicSeq("zz"), True),
}


@pytest.mark.parametrize("shift", [None, 1, -1], ids=["direct", "shifted up", "shifted down"])
@pytest.mark.parametrize("name", sorted(DOMAIN_CASES))
def test_is_symbolic_over_every_sequence_kind(name, shift):
    seq, symbolic = DOMAIN_CASES[name]
    if shift is not None:
        seq = ShiftedSeq(seq, shift)
    for which in ("alpha", "beta", "gamma"):
        fields = {"alpha": ConstantSeq(1), "beta": ConstantSeq(0), "gamma": ConstantSeq(1)}
        fields[which] = seq
        assert CoefficientSystem(**fields).is_symbolic is symbolic


def test_symbolic_family_is_not_evaluated_at_construction():
    sys = CoefficientSystem(ConstantSeq(1), ShiftedSeq(SymbolicSeq("zz"), 1), ConstantSeq(1))
    assert sys.is_symbolic
    with pytest.raises(ValueError, match="unknown indeterminate family 'zz'"):
        sys.beta_at(0)


def test_shifted_non_integer_rational_beside_a_symbolic_sequence_is_rejected():
    halves = ShiftedSeq(ExplicitSeq((1, Fraction(1, 2), 2)), 1)
    with pytest.raises(DomainMismatchError, match="cannot mix in non-integer rationals"):
        CoefficientSystem(ConstantSeq(1), SymbolicSeq("b"), halves)


# -- JSON wire format ---------------------------------------------------------

def test_json_sequence_forms(tmp_path):
    obj = {
        "label": "demo",
        "alpha": {"family": "explicit", "values": ["1/2", "2", 3]},
        "beta": {"family": "affine", "c0": "0", "c1": "1"},
        "gamma": {"family": "constant", "value": "1"},
    }
    sys = system_from_json(obj)
    assert sys.alpha.at(0) == Fraction(1, 2)
    assert sys.alpha.at(2) == 3
    assert sys.beta_at(4) == 4
    assert sys.gamma_at(9) == 1
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(obj))
    loaded = load_system(path)
    assert loaded.label == "demo"
    assert loaded.alpha.at(1) == 2


def test_json_symbolic_with_shift():
    sys = system_from_json(
        {
            "alpha": {"family": "constant", "value": "1"},
            "beta": {"family": "symbolic", "tag": "b"},
            "gamma": {"family": "symbolic", "tag": "l", "shift": 1},
        }
    )
    assert sys.gamma_at(0) == indet("l", 1)
    b, lam = monic_b_lambda(sys, 5)
    assert lam.at(4) == indet("l", 4)


def test_json_rejects_unknown_family_and_decimals():
    with pytest.raises(ValueError):
        system_from_json(
            {
                "alpha": {"family": "geometric", "value": "1"},
                "beta": {"family": "constant", "value": "0"},
                "gamma": {"family": "constant", "value": "1"},
            }
        )
    with pytest.raises(ValueError):
        system_from_json(
            {
                "alpha": {"family": "constant", "value": "0.5"},
                "beta": {"family": "constant", "value": "0"},
                "gamma": {"family": "constant", "value": "1"},
            }
        )


def test_shipped_system_files_load():
    from conftest import SYSTEMS_DIR

    for name in (
        "chebyshev_like",
        "hermite_like",
        "monotone",
        "monotone_prime",
        "monotone_monic",
        "symbolic_monic",
    ):
        sys = load_system(SYSTEMS_DIR / f"{name}.json")
        sys.require_range(10) if not sys.is_symbolic else None


def test_norms_positive_under_positive_definite_flag():
    import random

    from orthopath import scalar_sign

    for seed in range(6):
        rng = random.Random(900 + seed)
        alpha = ExplicitSeq(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(12)))
        gamma = ExplicitSeq(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(12)))
        beta = ExplicitSeq(tuple(Fraction(rng.randint(-5, 5)) for _ in range(12)))
        sys = CoefficientSystem(alpha, beta, gamma)
        assert sys.positive_definite(10)
        for k in range(11):
            assert scalar_sign(sys.norm_squared(k)) > 0


# -- the integer form of materialized coefficients ---------------------------

ENTRIES = st.one_of(
    st.fractions(max_denominator=40).map(lambda v: v.numerator if v.denominator == 1 else v),
    st.text(max_size=8).map(_OutOfRange),
)
SEQUENCES = st.lists(st.tuples(st.lists(ENTRIES, max_size=6).map(tuple), st.integers(1, 3)),
                     max_size=4)


class Owner:
    """Anything with a ``__dict__`` can keep the scaled form."""


@settings(max_examples=200, deadline=None)
@given(SEQUENCES)
def test_scaled_values_are_value_times_d_to_the_degree(pairs):
    seqs = tuple(seq for seq, _ in pairs)
    degrees = tuple(d for _, d in pairs)
    owner = Owner()
    scaled, den = _scaled(owner, seqs, degrees)
    assert den >= 1
    assert [len(s) for s in scaled] == [len(s) for s in seqs]
    for seq, out, d in zip(seqs, scaled, degrees):
        for v, w in zip(seq, out):
            if type(v) is _OutOfRange:
                assert type(w) is _OutOfRange and w.message == v.message
            else:
                assert type(w) is int and w == v * den ** d
    numbers = [v for seq in seqs for v in seq if type(v) is not _OutOfRange]
    if all(type(v) is int for v in numbers):
        assert den == 1
    # kept on the owner for as long as the sequences are the same object
    assert _scaled(owner, seqs, degrees)[0] is scaled


@settings(max_examples=100, deadline=None)
@given(SEQUENCES, st.integers(0, 3), st.integers(0, 6))
def test_any_poly_leaves_the_sequences_unchanged_over_one(pairs, where, index):
    seqs = [list(seq) for seq, _ in pairs] or [[]]
    seq = seqs[where % len(seqs)]
    seq.insert(index % (len(seq) + 1), indet("b", index))
    seqs = tuple(tuple(seq) for seq in seqs)
    degrees = tuple(1 for _ in seqs)
    got, den = _scaled(Owner(), seqs, degrees)
    assert got is seqs and den == 1
