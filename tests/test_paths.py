from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orthopath import (
    MotzkinPath,
    Paving,
    enumerate_paths,
    enumerate_pavings,
    merge_pair,
    merge_pair_generalized,
    merge_preimages,
)
from oracles import brute_step_sequences, motzkin_numbers, paving_counts

st_small = st.integers(min_value=0, max_value=4)


# -- enumeration --------------------------------------------------------------

def test_census_3_3_3_matches_the_named_seven():
    found = {str(p) for p in enumerate_paths(3, 3, 3)}
    assert found == {"3:HHH", "3:HUD", "3:HDU", "3:UHD", "3:UDH", "3:DHU", "3:DUH"}


def test_zero_length_census():
    assert enumerate_paths(0, 0, 0) == [MotzkinPath(0, ())]
    assert enumerate_paths(2, 2, 0, allow_hh=True) == [MotzkinPath(2, ())]
    assert enumerate_paths(0, 1, 0) == []


def test_census_0_0_4_is_the_fourth_motzkin_number():
    assert len(enumerate_paths(0, 0, 4)) == 9 == motzkin_numbers(4)[4]


def test_forced_single_down():
    assert enumerate_paths(1, 0, 1) == [MotzkinPath(1, ("D",))]


def test_motzkin_numbers_cross_check():
    ms = motzkin_numbers(8)
    assert ms == [1, 1, 2, 4, 9, 21, 51, 127, 323]
    for k in range(9):
        assert len(enumerate_paths(0, 0, k)) == ms[k]


def test_canonical_order_is_lexicographic():
    rank = {"U": 0, "D": 1, "H": 2, "HH": 3}
    for allow_hh in (False, True):
        found = enumerate_paths(2, 1, 3, allow_hh=allow_hh)
        keys = [tuple(rank[s] for s in p.steps) for p in found]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


@settings(max_examples=60)
@given(st_small, st_small, st_small, st.booleans())
def test_census_matches_brute_enumeration(m, n, k, allow_hh):
    found = enumerate_paths(m, n, k, allow_hh=allow_hh)
    brute = brute_step_sequences(m, n, k, allow_hh=allow_hh)
    assert {p.steps for p in found} == set(brute)
    for p in found:
        assert p.start == m and p.end_level == n and p.x_length == k
        assert p.is_standard()


def test_boundary_dip_census():
    # the only sub-axis visits allowed are D,U excursions entered at level 0
    found = enumerate_paths(0, 0, 2, boundary_dips=True)
    assert {str(p) for p in found} == {"0:UD", "0:DU", "0:HH"}
    for p in found:
        assert p.is_boundary_valid()
    assert not MotzkinPath(0, ("D", "U")).is_standard()
    # strict census is unchanged by default
    assert {str(p) for p in enumerate_paths(0, 0, 2)} == {"0:UD", "0:HH"}
    # dips never nest deeper than one unit
    for p in enumerate_paths(1, 1, 6, boundary_dips=True):
        assert min(y for _, y in p.vertices()) >= -1


def test_path_rendering():
    assert str(MotzkinPath(3, ("D", "U", "H"))) == "3:DUH"
    assert str(MotzkinPath(0, ("H", "HH"))) == "0:H(HH)"
    # a single two-unit step is distinguishable from two plain across steps
    assert str(MotzkinPath(0, ("HH",))) != str(MotzkinPath(0, ("H", "H")))


def test_path_vertices_and_edges():
    p = MotzkinPath(1, ("U", "HH", "D"))
    assert p.vertices() == [(0, 1), (1, 2), (3, 2), (4, 1)]
    assert p.edges() == [(0, 1, "U"), (1, 2, "HH"), (3, 2, "D")]
    assert p.x_length == 4 and p.end_level == 1


def test_invalid_paths_rejected():
    with pytest.raises(ValueError):
        MotzkinPath(-1, ())
    with pytest.raises(ValueError):
        MotzkinPath(0, ("X",))
    with pytest.raises(ValueError):
        enumerate_paths(0, 0, 2, allow_hh=True, boundary_dips=True)


# -- pavings -------------------------------------------------------------------

def test_paving_census_small():
    assert [str(p) for p in enumerate_pavings(0)] == ["[] on 1..0"]
    two = enumerate_pavings(2)
    assert {str(p) for p in two} == {
        "[] on 1..2",
        "[{1}] on 1..2",
        "[{1},{2}] on 1..2",
        "[{1,2}] on 1..2",
        "[{2}] on 1..2",
    }
    assert [p.blocks for p in two] == sorted(p.blocks for p in two)


def test_paving_counts_recurrence():
    want = paving_counts(7)
    for k in range(8):
        assert len(enumerate_pavings(k)) == want[k]


def test_paving_example_on_nine():
    blocks = ((2, 3), (5,), (6, 7), (9,))
    paving = Paving(9, blocks)
    assert paving in enumerate_pavings(9)
    assert paving.isolated() == (1, 4, 8)
    assert str(paving) == "[{2,3},{5},{6,7},{9}] on 1..9"


def test_paving_validation():
    with pytest.raises(ValueError):
        Paving(3, ((1, 3),))  # non-consecutive domino
    with pytest.raises(ValueError):
        Paving(3, ((1,), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        Paving(3, ((4,),))  # out of ground


# -- merges --------------------------------------------------------------------

def test_merge_examples():
    empty_at_2 = MotzkinPath(2, ())
    assert merge_pair(empty_at_2, Paving(2, ((1, 2),))) == MotzkinPath(2, ("D", "U"))
    h_at_3 = MotzkinPath(3, ("H",))
    assert merge_pair(h_at_3, Paving(2, ((1,),))) == MotzkinPath(3, ("H", "H"))

    empty_at_1 = MotzkinPath(1, ())
    assert merge_pair_generalized(empty_at_1, Paving(2, ((1, 2),))) == MotzkinPath(
        1, ("HH",)
    )
    up = MotzkinPath(0, ("U",))
    assert merge_pair_generalized(up, Paving(2, ((1,),))) == MotzkinPath(0, ("H", "U"))


def test_merge_requires_matching_isolated_count():
    with pytest.raises(ValueError):
        merge_pair(MotzkinPath(0, ("H",)), Paving(2, ((1, 2),)))
    with pytest.raises(ValueError):
        merge_pair_generalized(MotzkinPath(0, ()), Paving(2, ()))


def test_merge_image_set_at_3_3_3():
    image = set()
    for paving in enumerate_pavings(3):
        l = len(paving.isolated())
        for path in enumerate_paths(3, 3, l):
            image.add(merge_pair(path, paving))
    assert image == set(enumerate_paths(3, 3, 3))


def test_generalized_merge_multiset_0_0_2():
    multiset = Counter()
    for paving in enumerate_pavings(2):
        l = len(paving.isolated())
        for path in enumerate_paths(0, 0, l):
            multiset[merge_pair_generalized(path, paving)] += 1
    assert multiset == Counter(
        {
            MotzkinPath(0, ("H", "H")): 4,
            MotzkinPath(0, ("U", "D")): 1,
            MotzkinPath(0, ("HH",)): 1,
        }
    )


def test_preimage_examples():
    single_h = MotzkinPath(2, ("H",))
    pre = merge_preimages(single_h)
    assert (MotzkinPath(2, ("H",)), Paving(1, ())) in pre
    assert (MotzkinPath(2, ()), Paving(1, ((1,),))) in pre
    assert len(pre) == 2

    single_u = MotzkinPath(0, ("U",))
    assert merge_preimages(single_u) == [(single_u, Paving(1, ()))]

    du_high = merge_preimages(MotzkinPath(1, ("D", "U")))
    assert set(du_high) == {
        (MotzkinPath(1, ("D", "U")), Paving(2, ())),
        (MotzkinPath(1, ()), Paving(2, ((1, 2),))),
    }
    # at level 0 the all-original origin would dip, leaving only the domino
    du_low = merge_preimages(MotzkinPath(0, ("D", "U")))
    assert du_low == [(MotzkinPath(0, ()), Paving(2, ((1, 2),)))]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=4))
def test_merge_preimages_inverts_merge(m, n, k):
    pairs = []
    for paving in enumerate_pavings(k):
        l = len(paving.isolated())
        for path in enumerate_paths(m, n, l):
            pairs.append((path, paving))
    by_merged = {}
    for path, paving in pairs:
        merged = merge_pair(path, paving)
        by_merged.setdefault(merged, []).append((path, paving))
        assert (path, paving) in merge_preimages(merged)
    for merged, group in by_merged.items():
        assert sorted(merge_preimages(merged), key=repr) == sorted(group, key=repr)


# -- validation ----------------------------------------------------------------

def _standard_by_vertices(path):
    return all(y >= 0 for _, y in path.vertices())


def _boundary_valid_by_vertices(path):
    verts = path.vertices()
    for i, (_, y) in enumerate(verts):
        if y >= 0:
            continue
        if y < -1 or i == 0 or i == len(verts) - 1:
            return False
        if not (verts[i - 1][1] == 0 and verts[i + 1][1] == 0
                and path.steps[i - 1] == "D" and path.steps[i] == "U"):
            return False
    return True


def test_validation_scan_matches_the_vertex_definition():
    verdicts = Counter()
    for length in range(8):
        for steps in product(("U", "D", "H", "HH"), repeat=length):
            for start in range(3):
                path = MotzkinPath(start, steps)
                standard = _standard_by_vertices(path)
                boundary = _boundary_valid_by_vertices(path)
                assert path.is_standard() == standard, path
                assert path.is_boundary_valid() == boundary, path
                verdicts[standard, boundary] += 1
    # every verdict pair that can occur does: dips admitted and refused
    assert set(verdicts) == {(True, True), (False, True), (False, False)}
