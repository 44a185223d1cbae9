"""The packed form of ``Poly``: a monomial is one int with a 16-bit
exponent field per indeterminate, and a module registry gives each
indeterminate its field on first use, so fields mean something only
within one process.  These tests hold what must not depend on that:
``str`` does not depend on the order in which fields were given out, a
pickled ``Poly`` is the same polynomial in another process, and an
exponent past the bound raises instead of carrying into the next field.
Threads that meet new indeterminates at once get distinct fields.
``RunningSum``, which adds ``Poly`` terms into one private dict, is held
to repeated ``+``.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from orthopath.scalars import (
    EXPONENT_BOUND,
    FAMILIES,
    DomainMismatchError,
    ExponentOverflowError,
    Poly,
    RunningSum,
    indet,
    parse_polynomial,
    scalar_sum,
)

SRC = str(Path(__file__).parent.parent / "src")

# Polynomials over several families, in their canonical text, with
# exponents below 16 (rendered from per-slot texts) and 16 or more
# (rendered from tuples), and constant terms.
TEXTS = [  # each as ``str`` printed it when a monomial was a tuple
    "b0",
    "-3*b2^2*l4 + a'1 - 7",
    "2*be3*g'0^4 + b10^3*l1 - b2*b10*l1^2",
    "-b2^2*l3^16 + b1*l3^17 + 5",
    "a'2^2*be'1^14 - a'2*be'1^15 - g5",
]

# Prints each text's polynomial, its square and its product with the next
# one, after registering the variables in the order given on the command
# line.
SCRIPT = """\
import sys
from orthopath.scalars import FAMILIES, indet, parse_polynomial
for name in sys.argv[2:]:
    family = name.rstrip("0123456789")
    indet(family, int(name[len(family):]))
polys = [parse_polynomial(text) for text in sys.argv[1].split(";")]
for p, q in zip(polys, polys[1:] + polys[:1]):
    print(p, p * p, p * q, sep="\\n")
"""

VARIABLES = ["b0", "b1", "b2", "b10", "l1", "l3", "l4", "a'1", "a'2", "be3", "be'1", "g5", "g'0"]


def run_python(code, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_str_does_not_depend_on_the_registration_order():
    texts = ";".join(TEXTS)
    forward = run_python(SCRIPT, texts, *VARIABLES)
    backward = run_python(SCRIPT, texts, *reversed(VARIABLES))
    assert forward == backward
    lines = forward.splitlines()
    assert lines[::3] == [str(parse_polynomial(text)) for text in TEXTS]
    assert lines[::3] == TEXTS
    polys = [parse_polynomial(text) for text in TEXTS]
    here = [str(x) for p, q in zip(polys, polys[1:] + polys[:1]) for x in (p, p * p, p * q)]
    assert lines == here


def test_a_pickled_poly_is_the_same_polynomial_in_another_process():
    code = """\
import pickle, sys
from orthopath.scalars import indet, parse_polynomial
for family, index in (("g", 9), ("l", 7), ("b", 5)):  # other fields first
    indet(family, index)
sys.stdout.write(pickle.dumps([parse_polynomial(t) for t in sys.argv[1].split(";")]).hex())
"""
    theirs = pickle.loads(bytes.fromhex(run_python(code, ";".join(TEXTS))))
    ours = [parse_polynomial(text) for text in TEXTS]
    assert theirs == ours
    assert [str(p) for p in theirs] == TEXTS
    assert [hash(p) for p in theirs] == [hash(p) for p in ours]
    back = run_python("import pickle, sys; "
                      "print(*pickle.loads(bytes.fromhex(sys.argv[1])), sep=';')",
                      pickle.dumps(ours).hex())
    assert back.strip().split(";") == TEXTS
    assert copy.deepcopy(ours) == ours


def test_threads_registering_at_once_get_distinct_slots():
    code = """\
import sys, threading
from functools import reduce
from operator import mul
from orthopath import scalars
from orthopath.scalars import indet
sys.setswitchinterval(1e-6)
names = [(family, index) for family in ("g'", "l", "b") for index in range(40)]
start = threading.Barrier(4)
def register(k):
    start.wait()
    for family, index in names[k::4] + names:
        indet(family, index)
threads = [threading.Thread(target=register, args=(k,)) for k in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert sorted(scalars._SLOTS.values()) == list(range(len(names)))
assert all(scalars._VARS[slot] == var for var, slot in scalars._SLOTS.items())
assert [scalars._VARS[slot] for slot in scalars._ORDER] == sorted(scalars._VARS)
print(reduce(mul, [indet(*name) + 1 for name in names[::12]]))
"""
    names = [(family, index) for family in ("g'", "l", "b") for index in range(40)]
    here = reduce(mul, [indet(*name) + 1 for name in names[::12]])
    assert run_python(code).strip() == str(here)


def test_exponents_up_to_the_bound_are_kept_exactly():
    b1, b2 = indet("b", 1), indet("b", 2)
    top = Poly({((0, 1, EXPONENT_BOUND),): 1})
    assert EXPONENT_BOUND == 2**15 - 1
    assert str(top * b2) == f"b1^{EXPONENT_BOUND}*b2"
    assert (top * b2).terms == {((0, 1, EXPONENT_BOUND), (0, 2, 1)): 1}
    half = Poly({((0, 1, 16384),): 1})
    assert (half * Poly({((0, 1, 16383),): 1})) == top
    assert parse_polynomial(str(top - b1)) == top - b1


@pytest.mark.parametrize("make", [
    lambda: Poly({((0, 1, EXPONENT_BOUND),): 1}) * indet("b", 1),
    lambda: Poly({((0, 1, 20000),): 1}) * Poly({((0, 1, 20000), (1, 3, 1)): 2}),
    lambda: (indet("b", 2) - Poly({((0, 1, EXPONENT_BOUND),): 1})) * (indet("b", 1) + 1),
    lambda: Poly({((1, 2, EXPONENT_BOUND + 1),): 1}),
    lambda: parse_polynomial(f"l2^{EXPONENT_BOUND + 1}"),
], ids=["product", "product-of-halves", "cancelling-product", "constructor", "parse"])
def test_an_exponent_past_the_bound_raises_a_value_error(make):
    with pytest.raises(ExponentOverflowError, match="past the bound"):
        make()
    assert issubclass(ExponentOverflowError, ValueError)


def test_running_sum_matches_repeated_addition():
    b0, b1, l2 = indet("b", 0), indet("b", 1), indet("l", 2)
    values = [3, b0 * b1, -(b0 * b1), 0, l2**2 - b0, 5, b1, b0 - l2**2 + 1, -8]
    running, total = RunningSum(), 0
    for v in values:
        running += v
        total = total + v
        assert running.value == total
        assert str(running.value) == str(total)
    assert scalar_sum(values) == total
    assert scalar_sum(values[1:]) == total - 3


def test_running_sum_hands_out_values_it_does_not_change():
    b0 = indet("b", 0)
    running = RunningSum(b0)
    first = running.value
    running += b0
    assert first == b0 and running.value == 2 * b0
    shared = indet("b", 3)
    running = RunningSum()
    running += shared
    running += shared
    assert shared == indet("b", 3) and running.value == 2 * shared


def test_running_sum_raises_where_addition_raises_and_keeps_its_total():
    running = RunningSum()
    running += Fraction(1, 2)
    with pytest.raises(DomainMismatchError):
        running += indet("b", 0)
    assert running.value == Fraction(1, 2)
    running = RunningSum(indet("b", 0))
    with pytest.raises(DomainMismatchError):
        running += Fraction(1, 3)
    assert running.value == indet("b", 0)
    with pytest.raises(TypeError):
        running += "b1"
    with pytest.raises(DomainMismatchError):
        scalar_sum([indet("b", 0), 1, Fraction(1, 2)])


st_poly = st.lists(
    st.tuples(st.sampled_from(FAMILIES), st.integers(0, 12), st.integers(1, 20)),
    max_size=4,
).map(lambda factors: Poly.constant(1) if not factors else
      indet(*factors[0][:2]) ** factors[0][2] * (
          Poly.constant(1) if len(factors) == 1 else
          indet(*factors[-1][:2]) ** factors[-1][2]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st_poly, st.integers(-3, 3)), max_size=8))
def test_sums_of_products_round_trip_through_str(terms):
    total = scalar_sum([Poly(), *[coeff * p for p, coeff in terms]])
    assert parse_polynomial(str(total)) == total
    assert Poly(total.terms) == total
