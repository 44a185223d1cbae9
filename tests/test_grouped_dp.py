"""The grouped transfer-matrix DP, on every shipped pair.

``weights._dp`` keeps one accumulator per context at each (x, level) and
evaluates each monomial of a step once there, however many contexts
arrive; a counter pins that.  Its sums are held to the path census on
every pair of shipped numeric systems, on the symbolic pair both ways and
on the symbolic monic system with the symbolic prime:
the first check of the DP with ``Poly`` accumulators in all three
contexts.  The sha256 pins were taken while the DP still charged each
context on its own: the symbolic pair's ``verify``, and a ``lincoef`` whose
alpha varies, so that the ``-a'`` monomials are not +-1.
"""

import hashlib
from collections import Counter
from itertools import product

import pytest

import orthopath.weights as weights_mod
from orthopath import dp_sum, load_system
from orthopath.cli import main
from orthopath.weights import dp_walk, mixed_census
from conftest import SYSTEMS_DIR

NUMERIC = ("chebyshev_like", "hermite_like", "monotone", "monotone_monic",
           "monotone_prime", "rational_monic")
SYMBOLIC = ("symbolic_monic", "symbolic_pair", "symbolic_pair_prime")
SYMBOLIC_PAIR = ("--system", str(SYSTEMS_DIR / "symbolic_pair.json"),
                 "--system-prime", str(SYSTEMS_DIR / "symbolic_pair_prime.json"))


def shipped(name):
    return load_system(str(SYSTEMS_DIR / f"{name}.json"))


def test_every_shipped_system_is_in_one_domain_list():
    assert sorted(NUMERIC + SYMBOLIC) == sorted(p.stem for p in SYSTEMS_DIR.glob("*.json"))


def test_mixed_dp_evaluates_each_monomial_once_per_level_it_leaves(monkeypatch):
    calls = Counter()

    def counted(mono):
        def value(c, x, j, _value=mono.value):
            calls[mono.tag, x, j] += 1
            return _value(c, x, j)

        return weights_mod._Monomial(mono.tag, mono.steps, mono.contexts,
                                     mono.value and value, mono.floor)

    monkeypatch.setattr(weights_mod, "_TWO_FAMILY",
                        tuple(counted(mono) for mono in weights_mod._TWO_FAMILY))
    # fresh instances, since each keeps the table built from the list
    total = dp_sum(6, 6, 6, "mixed", shipped("monotone"), shipped("monotone_prime"))
    counts = dict(calls)
    assert total == mixed_census(6, 6, 6, shipped("monotone"), shipped("monotone_prime"))(6)
    assert set(counts.values()) == {1}
    # U:-a' is charged where a D arrived, D:-a' where a U arrived: levels
    # with both contexts, whose monomials were each charged once
    after = lambda tag: {(x, j) for t, x, j in counts if t == tag}
    assert after("U:-a'") & after("D:-a'")


@pytest.mark.parametrize(
    "first, second",
    [*product(NUMERIC, NUMERIC), ("symbolic_pair", "symbolic_pair_prime"),
     ("symbolic_pair_prime", "symbolic_pair"), ("symbolic_monic", "symbolic_pair_prime")],
)
def test_two_family_dp_equals_the_census_to_six(first, second):
    sys_, prime = shipped(first), shipped(second)
    merged_table = weights_mod._two_family_table(sys_, prime, merged=True)
    for m, n in product(range(7), range(7)):
        census = mixed_census(m, n, 6, sys_, prime)
        merged_census = weights_mod._census(merged_table, m, n, 6)
        mixed = dp_walk(m, n, 6, "mixed", sys_, prime)
        merged = dp_walk(m, n, 6, "merged", sys_, prime)
        for k in range(7):
            assert mixed(k) == census(k), (m, n, k)
            assert merged(k) == merged_census(k)[0], (m, n, k)


PINNED = {
    ("verify-symbolic-pair", "table"):
        "1abc9558431f7df684b45d8821cf230f1ffd56712f73ab0587a284071e881cbb",
    ("verify-symbolic-pair", "records"):
        "7194d5af47e37cf1931d7b518387ee4a53ef0353e83bf457dfe9dee217ec2379",
    ("lincoef-mixed-monotone", "table"):
        "6885b6158539b4af32d18214a839bd3c087f5ea9b256701a1fd1cb9f3ff4716f",
    ("lincoef-mixed-monotone", "records"):
        "ca152041e57638b845694c063f748fe1eb88719046a42fbd26ff36e2dc2fcedc",
}
COMMANDS = {
    "verify-symbolic-pair": ("verify", "--max", "5", "--method", "mixed", *SYMBOLIC_PAIR),
    "lincoef-mixed-monotone": ("lincoef", "--m", "12", "--n", "12", "--method", "mixed",
                               "--system", str(SYSTEMS_DIR / "monotone.json")),
}


@pytest.mark.parametrize("case, fmt", sorted(PINNED))
def test_grouped_dp_output_is_pinned(capsys, case, fmt):
    code = main([*COMMANDS[case], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[case, fmt]
