"""One shared-prefix walk weighs every listed path.

``symbolic``, the ``positivity`` certificates and ``paths --system`` read
``monic_listing`` and ``mixed_listing`` instead of enumerating the paths
and folding each one from its first edge.  These tests hold the walk to
the per-path public API, which stays the reference: its rows are
``[(p, path_weight_*(p)) for p in enumerate_paths(...)]`` for the monic
table (boundary dips on and off), the mixed table and the merged table,
on every shipped system or pair, on Hypothesis-drawn rational systems and
on ``symbolic_monic.json``.  Where the per-path loop raises (an index past
a short sequence, symbolic meeting non-integer scalars), the walk yields
the same rows first and then raises the same error with the same message;
on the command line, ``paths`` and ``positivity`` keep the exit code and
stderr they had before the walk.
"""

import json
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from orthopath import (
    CoefficientSystem,
    DomainMismatchError,
    ExplicitSeq,
    SequenceRangeError,
    enumerate_paths,
    load_system,
    monic_b_lambda,
    monic_system,
    path_weight_merged,
    path_weight_mixed,
    path_weight_monic,
)
from orthopath.cli import main
from orthopath.weights import mixed_listing, monic_listing
from conftest import SYSTEMS_DIR

SHIPPED = sorted(path.stem for path in SYSTEMS_DIR.glob("*.json"))
MONIC = [name for name in SHIPPED if load_system(SYSTEMS_DIR / f"{name}.json").is_monic(20)]
TOP = 5


def shipped(name):
    return load_system(SYSTEMS_DIR / f"{name}.json")


def rows_and_error(rows):
    """The rows an iterable yields, then the (type, message) of the error it
    stops with, or None."""
    out = []
    try:
        for row in rows:
            out.append(row)
    except (SequenceRangeError, DomainMismatchError, ValueError) as exc:
        return out, (type(exc), str(exc))
    return out, None


def check_monic(b, lam, instances):
    for m, n, k in instances:
        for dips in (False, True):
            want = rows_and_error(
                (p, path_weight_monic(p, b, lam))
                for p in enumerate_paths(m, n, k, boundary_dips=dips))
            got = rows_and_error(monic_listing(m, n, k, b, lam, dips))
            assert got == want, (m, n, k, dips)


def check_two_family(sys, prime, instances):
    raised = 0
    for m, n, k in instances:
        for merged, weigh in ((False, path_weight_mixed), (True, path_weight_merged)):
            want = rows_and_error((p, weigh(p, sys, prime))
                                  for p in enumerate_paths(m, n, k, allow_hh=True))
            assert rows_and_error(mixed_listing(m, n, k, sys, prime, merged)) == want, (
                m, n, k, merged)
            raised += want[1] is not None
    return raised


def instances(top):
    return list(product(range(top + 1), repeat=3))


def test_the_shipped_monic_systems_are_found():
    assert {"monotone_monic", "rational_monic", "symbolic_monic"} <= set(MONIC)


@pytest.mark.parametrize("name", MONIC)
def test_the_monic_walk_equals_the_fold_on_shipped_systems(name):
    b, lam = monic_b_lambda(shipped(name), 4 * TOP)
    check_monic(b, lam, instances(TOP))


@pytest.mark.parametrize("main_name, prime_name", list(product(SHIPPED, repeat=2)))
def test_the_two_family_walks_equal_the_fold_on_shipped_pairs(main_name, prime_name):
    check_two_family(shipped(main_name), shipped(prime_name), instances(3))


def test_symbolic_with_non_integer_scalars_raises_at_the_first_path_that_does():
    sym, rat = shipped("symbolic_monic"), shipped("rational_monic")
    assert check_two_family(sym, rat, instances(3)) > 0
    assert check_two_family(rat, sym, instances(3)) > 0


def test_the_walk_equals_the_fold_on_symbolic_monic_at_the_bench_size():
    b, lam = monic_b_lambda(shipped("symbolic_monic"), 20)
    check_monic(b, lam, [(6, 6, 8), (4, 7, 7)])


def explicit(values):
    return ExplicitSeq(tuple(values))


@pytest.mark.parametrize("length", [2, 3, 4, 6])
def test_a_short_system_raises_at_the_first_path_that_does(length):
    short_monic = monic_system(explicit(range(length)), explicit(range(1, length + 1)))
    b, lam = monic_b_lambda(short_monic, 1)
    check_monic(b, lam, instances(4))
    short = CoefficientSystem(explicit(range(1, length + 1)), explicit(range(length)),
                              explicit(range(2, length + 2)))
    full = shipped("monotone")
    raised = sum(check_two_family(sys, prime, instances(4))
                 for sys, prime in ((short, full), (full, short), (short, short)))
    assert raised > 0


def test_mixed_listing_rejects_a_negative_level():
    with pytest.raises(ValueError, match="levels and length must be nonnegative"):
        mixed_listing(0, -1, 2, shipped("monotone"), shipped("monotone"))


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
sequence = st.lists(fractions, min_size=14, max_size=14).map(explicit)


@settings(max_examples=40, deadline=None)
@given(b=sequence, lam=sequence, pair=st.lists(st.tuples(sequence, sequence, sequence),
                                               min_size=2, max_size=2),
       m=st.integers(0, 4), n=st.integers(0, 4), k=st.integers(0, 6))
def test_the_walks_equal_the_fold_on_drawn_rational_systems(b, lam, pair, m, n, k):
    check_monic(b, lam, [(m, n, k)])
    sys, prime = (CoefficientSystem(*seqs) for seqs in pair)
    check_two_family(sys, prime, [(m, n, k)])


# Taken before the commands read the walk: (exit code, stderr), stdout empty.
SHORT_MONIC = {"alpha": {"family": "constant", "value": "1"},
               "beta": {"family": "explicit", "values": ["0", "1", "2"]},
               "gamma": {"family": "explicit", "values": ["1", "2", "3"]}}
SHORT = {name: {"family": "explicit", "values": [str(v) for v in range(lo, lo + length)]}
         for name, lo, length in (("alpha", 1, 3), ("beta", 0, 3), ("gamma", 2, 3))}
SHORT4 = {name: {"family": "explicit", "values": [str(v) for v in range(lo, lo + 4)]}
          for name, lo in (("alpha", 1), ("beta", 0), ("gamma", 2))}
RATIONAL = {"alpha": {"family": "constant", "value": "1/2"},
            "beta": {"family": "constant", "value": "1/3"},
            "gamma": {"family": "constant", "value": "2/3"}}
MONOTONE = str(SYSTEMS_DIR / "monotone.json")
SYMBOLIC = str(SYSTEMS_DIR / "symbolic_monic.json")
INDEX = "error: index {} outside explicit sequence of length {}\n"
MIX = "error: cannot mix symbolic polynomials with non-integer numerics\n"
ERROR_PARITY = [
    (("paths", "--m", "0", "--n", "3", "--k", "5", "--system", "short_monic"),
     INDEX.format(3, 3)),
    (("paths", "--m", "2", "--n", "2", "--k", "5", "--system", "short",
      "--system-prime", MONOTONE, "--method", "mixed"), INDEX.format(3, 3)),
    (("paths", "--m", "2", "--n", "2", "--k", "5", "--system", MONOTONE,
      "--system-prime", "short", "--method", "merged"), INDEX.format(4, 3)),
    (("paths", "--m", "2", "--n", "2", "--k", "5", "--system", SYMBOLIC,
      "--system-prime", "rational"), MIX),
    (("paths", "--m", "2", "--n", "2", "--k", "5", "--system", "rational",
      "--system-prime", SYMBOLIC), MIX),
    (("paths", "--m", "0", "--n", "0", "--k", "2", "--generalized",
      "--system", str(SYSTEMS_DIR / "monotone_monic.json")),
     "error: monic weights are defined on plain paths only\n"),
    (("positivity", "--max", "3", "--system", "short"),
     "error: system 'short' is not monic up to index 10\n"),
    (("positivity", "--max", "2", "--system", "short_monic"), INDEX.format(3, 3)),
    (("positivity", "--m", "3", "--n", "1", "--k", "2", "--system", "short4",
      "--system-prime", "short4"), INDEX.format(4, 4)),
]


@pytest.mark.parametrize("fmt", ["table", "records"])
@pytest.mark.parametrize("argv, err", ERROR_PARITY)
def test_a_failing_command_keeps_its_exit_code_and_stderr(capsys, tmp_path, argv, err, fmt):
    files = {}
    for name, spec in (("short_monic", SHORT_MONIC), ("short", SHORT), ("short4", SHORT4),
                       ("rational", RATIONAL)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(spec))
    code = main([str(files.get(arg, arg)) for arg in argv] + ["--format", fmt])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", err)
