"""The layer pass of the transfer-matrix DP, held to the per-state pass.

``weights._dp`` charges each step across a whole x layer
(``_dp_layers``) when every coefficient it reads is an ``int``, and
level by level (``_dp_states``) otherwise.  The per-state pass is the
reference here: the layer pass must give its totals at every length,
None where no path exists, on every shipped numeric system and pair and
on seeded explicit rationals like the deep benchmark's.  A table holding
a ``Poly`` must take the per-state pass, and so must a length past the
safe one, where a short sequence's placeholder lies within reach.  The
sha256 pins of the large ``lincoef`` runs were taken before the layer
pass existed.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import orthopath.weights as weights_mod
from orthopath import (
    CoefficientSystem, ExplicitSeq, SequenceRangeError, dp_sum, enumerate_paths, load_system,
    monic_b_lambda, monic_system, path_weight_merged,
)
from orthopath.cli import main
from orthopath.systems import _scaled
from orthopath.weights import dp_walk, mixed_listing, monic_census
from conftest import SYSTEMS_DIR

NUMERIC = ("chebyshev_like", "hermite_like", "monotone", "monotone_monic",
           "monotone_prime", "rational_monic")
MONIC = ("chebyshev_like", "hermite_like", "monotone_monic", "rational_monic")


def shipped(name):
    return load_system(str(SYSTEMS_DIR / f"{name}.json"))


def dp_table(weights, m, n, top, sys_=None, prime=None):
    """The table ``dp_walk`` hands ``_dp``."""
    if weights == "count":
        return weights_mod._COUNT
    if weights == "monic":
        return weights_mod._monic_table(*monic_b_lambda(sys_, weights_mod._monic_bound(m, n, top)))
    return weights_mod._two_family_table(sys_, prime, merged=weights == "merged")


def assert_passes_agree(weights, m, n, top, sys_=None, prime=None):
    table = dp_table(weights, m, n, top, sys_, prime)
    coeffs, _ = _scaled(table, table.coefficients(table.bound(m, n, top)), table.degrees)
    # every length is safe, and every coefficient read an int
    assert weights_mod._safe_top(table, m, n, top) == top and not table.symbolic
    layers = weights_mod._dp_layers(table, m, n, top, coeffs)
    states = weights_mod._dp_states(table, m, n, top, coeffs)
    for k in range(top + 1):
        got, want = layers(k), states(k)
        assert got == want and type(got) is type(want), (weights, m, n, k)
        assert (got is None) == (abs(n - m) > k), (weights, m, n, k)


@pytest.mark.parametrize("first, second", list(product(NUMERIC, NUMERIC)))
def test_two_family_layer_pass_equals_the_per_state_pass_to_six(first, second):
    sys_, prime = shipped(first), shipped(second)
    for weights, m, n in product(("mixed", "merged"), range(7), range(7)):
        assert_passes_agree(weights, m, n, 6, sys_, prime)


@pytest.mark.parametrize("name", MONIC)
def test_monic_layer_pass_equals_the_per_state_pass_to_six(name):
    sys_ = shipped(name)
    for m, n in product(range(7), range(7)):
        assert_passes_agree("monic", m, n, 6, sys_)


def test_count_layer_pass_equals_the_per_state_pass_to_six():
    for m, n in product(range(7), range(7)):
        assert_passes_agree("count", m, n, 6)


def deep_like(rng, length, monic=False):
    """Explicit p/13 values, p in 14..25, as the deep benchmark draws them."""
    def seq():
        return ExplicitSeq(tuple(Fraction(rng.choice([p for p in range(14, 26) if p % 13]), 13)
                                 for _ in range(length)))

    alpha = ExplicitSeq((1,) * length) if monic else seq()
    return CoefficientSystem(alpha, seq(), seq(), "deep-like")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_layer_pass_equals_the_per_state_pass_on_deep_like_rationals(seed):
    rng = random.Random(f"layer-dp:{seed}")
    family, prime, monic = deep_like(rng, 64), deep_like(rng, 64), deep_like(rng, 64, monic=True)
    for weights in ("mixed", "merged"):
        assert_passes_agree(weights, 20, 20, 20, family, prime)
    assert_passes_agree("monic", 20, 20, 20, monic)
    assert_passes_agree("monic", 3, 17, 20, monic)  # dips below the axis on the way
    assert_passes_agree("count", 20, 20, 20)


def counted_passes(monkeypatch):
    calls = Counter()
    for name in ("_dp_layers", "_dp_states"):
        def wrapper(*args, _name=name, _original=getattr(weights_mod, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(weights_mod, name, wrapper)
    return calls


def short_monic(length):
    """A monic system whose b and lam hold indices 0..length-1 only."""
    return monic_system(ExplicitSeq(tuple(Fraction(i + 1, 2) for i in range(length))),
                        ExplicitSeq(tuple(Fraction(i + 2, 3) for i in range(length))), "short")


def test_a_placeholder_within_reach_takes_the_per_state_pass(monkeypatch):
    calls = counted_passes(monkeypatch)
    sys_ = short_monic(5)
    # index bound 8, past the sequences' end at 5: lengths up to 4, whose
    # bound is 4, take one layer pass
    walk = dp_walk(1, 1, 8, "monic", sys_)
    assert calls == {"_dp_layers": 1}
    assert walk(2) == dp_walk(1, 1, 2, "monic", short_monic(5))(2)
    assert walk(4) == dp_walk(1, 1, 4, "monic", short_monic(5))(4)
    want = dp_sum(1, 1, 5, "monic", short_monic(5))
    calls.clear()
    # a later length is walked alone, when it is read, by the per-state
    # pass: length 5 reads no index past the end, length 8 does
    assert walk(5) == want
    assert calls == {"_dp_states": 1}
    calls.clear()
    with pytest.raises(SequenceRangeError):
        walk(8)
    assert calls == {"_dp_states": 1}
    calls.clear()
    # the same coefficients, now materialized past the sequence's end:
    # only indices 0..bound decide
    assert dp_walk(1, 1, 2, "monic", sys_)(2) == walk(2)
    assert calls == {"_dp_layers": 1}


@pytest.mark.parametrize("weights, first, second", [
    ("monic", "symbolic_monic", None),
    ("mixed", "symbolic_pair", "symbolic_pair_prime"),
    ("merged", "symbolic_pair", "symbolic_pair_prime"),
    ("mixed", "symbolic_pair", "monotone_prime"),
    ("mixed", "monotone", "symbolic_pair_prime"),
])
def test_a_poly_table_takes_the_per_state_pass(monkeypatch, weights, first, second):
    calls = counted_passes(monkeypatch)
    sys_ = shipped(first)
    prime = None if second is None else shipped(second)
    dp_walk(2, 2, 4, weights, sys_, prime)
    assert calls == {"_dp_states": 1}


@pytest.mark.parametrize("weights", ["monic", "mixed", "merged", "count"])
def test_integer_inputs_take_the_layer_pass(monkeypatch, weights):
    calls = counted_passes(monkeypatch)
    dp_walk(2, 2, 4, weights, shipped("rational_monic"), shipped("monotone_prime"))
    assert calls == {"_dp_layers": 1}


def counted_table(monkeypatch, name):
    """Replace the monomial list ``name`` by one that counts each
    evaluation by (tag, x, level)."""
    calls = Counter()

    def counted(mono):
        def value(c, x, j, _value=mono.value):
            calls[mono.tag, x, j] += 1
            return _value(c, x, j)

        return weights_mod._Monomial(mono.tag, mono.steps, mono.contexts,
                                     mono.value and value, mono.floor)

    monkeypatch.setattr(weights_mod, name,
                        tuple(counted(mono) for mono in getattr(weights_mod, name)))
    return calls


def test_monic_dp_evaluates_each_monomial_once_per_level_it_leaves(monkeypatch):
    calls = counted_table(monkeypatch, "_MONIC")
    # fresh instances, since each keeps the table built from the list; from
    # level 1 within length 6 paths dip below the axis and climb back
    walk = dp_walk(1, 1, 6, "monic", shipped("rational_monic"))
    totals = walk(2), walk(6)
    counts = dict(calls)
    census = monic_census(1, 1, 6, *monic_b_lambda(shipped("rational_monic"), 5))
    assert totals == (census(2)[0], census(6)[0])
    assert set(counts.values()) == {1}
    at = lambda tag: {(x, j) for t, x, j in counts if t == tag}
    # H and H:l are charged at the same levels, where both contexts arrived;
    # U:l is charged where a dip climbs back, from level -1; a length is
    # closed only when it is read
    assert at("H") & at("H:l")
    assert {tag for tag, _, j in counts if j == -1} == {"U:l"}
    assert (2, 1) in at("end:l")
    assert at("end:l") <= {(2, 1), (6, 1)}


def test_the_layer_pass_skips_dropped_monomials_and_levels_below_a_floor(monkeypatch):
    calls = counted_table(monkeypatch, "_TWO_FAMILY")
    # fresh instances, since each keeps the table built from the list
    sys_, prime = shipped("monotone"), shipped("monotone_prime")
    total = dp_sum(3, 3, 6, "merged", sys_, prime)
    assert {tag for tag, _, _ in calls} == {"H", "U:g", "D:a", "HH:-g'"}
    merged = weights_mod._two_family_table(sys_, prime, merged=True)
    assert total == weights_mod._census(merged, 3, 3, 6)(6)[0]
    calls.clear()
    dp_sum(1, 1, 6, "mixed", sys_, prime)
    levels = lambda tag: {j for t, _, j in calls if t == tag}
    # an HH leaves level 0, where HH:a does not exist
    assert levels("HH:g") - levels("HH:a") == {0}
    assert set(calls.values()) == {1}


def test_merged_evaluates_no_marked_monomial(monkeypatch):
    calls = counted_table(monkeypatch, "_TWO_FAMILY")
    unmarked = {"H", "U:g", "D:a", "HH:-g'"}
    # each route on fresh instances, whose tables share no factor memo: the
    # fold, the listing's walk, the census's walk, the layer pass, and the
    # per-state pass on a Poly pair and past a short sequence's end
    routes = {
        "fold": lambda sys_, prime: [path_weight_merged(p, sys_, prime)
                                     for p in enumerate_paths(2, 2, 6, allow_hh=True)],
        "walk": lambda sys_, prime: list(mixed_listing(2, 2, 6, sys_, prime, merged=True)),
        "census": lambda sys_, prime: weights_mod._census(
            weights_mod._two_family_table(sys_, prime, merged=True), 2, 2, 6)(6),
        "dp": lambda sys_, prime: dp_sum(2, 2, 6, "merged", sys_, prime),
    }
    for name, route in routes.items():
        calls.clear()
        route(shipped("monotone"), shipped("monotone_prime"))
        assert {tag for tag, _, _ in calls} == unmarked, name
    calls.clear()
    states = counted_passes(monkeypatch)
    dp_sum(2, 2, 6, "merged", shipped("symbolic_pair"), shipped("symbolic_pair_prime"))
    short = CoefficientSystem(*(ExplicitSeq(tuple(range(1, 6))) for _ in range(3)))
    dp_walk(2, 2, 8, "merged", shipped("monotone"), short)(5)  # reads no index past 4
    assert states == {"_dp_states": 2, "_dp_layers": 1}
    assert {tag for tag, _, _ in calls} == unmarked


RATIONAL_MONIC = str(SYSTEMS_DIR / "rational_monic.json")
# taken before the layer pass: these run per-target DPs up to length 60
PINNED = {
    ("monic", "table"): "835fa89d33fbecda3c87928f004787a707c245c56ce490e061e7442c9a23be9a",
    ("monic", "records"): "be307f8727c8b7cb96f47ae8911db7b5c35a90524e29b5a81f226210d69daead",
    ("mixed", "table"): "835fa89d33fbecda3c87928f004787a707c245c56ce490e061e7442c9a23be9a",
    ("mixed", "records"): "be307f8727c8b7cb96f47ae8911db7b5c35a90524e29b5a81f226210d69daead",
}


@pytest.mark.parametrize("method, fmt", sorted(PINNED))
def test_large_lincoef_path_methods_are_pinned(capsys, method, fmt):
    code = main(["lincoef", "--m", "30", "--n", "30", "--method", method,
                 "--system", RATIONAL_MONIC, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[method, fmt]
