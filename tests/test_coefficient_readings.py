"""The linearization coefficients read off one DP path sum, with no
division by L(p_k^2): the readings ``lincoef --method monic|mixed`` print.

* monic: a[m,n]^k = ``dp_sum(m, k, n, "monic")``, the paths (0, m) -> (n, k);
* mixed: a[m,n]^k = ``mixed_prefactor(0, n) * dp_sum(k, m, n, "mixed")``,
  p_m * p_n read as the connection of p_m and p'_n with p' = p.

Both are held to the recurrence oracle on random systems whose gamma may
vanish, and, with the oracle, to the closed forms of He_n and U_n.  The
monic reading and the oracle also meet Adams' formula for monic Legendre
P_n, the first closed form here whose lam is neither constant nor affine;
its lam decreases, so ``positivity`` reports monic-monotone as failing."""

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from orthopath import (
    CoefficientSystem, ConstantSeq, ExplicitSeq, dp_sum, expand_product, mixed_prefactor,
    monic_system,
)
from orthopath.cli import main
from conftest import SYSTEMS_DIR
from oracles import (
    chebyshev_u_linearization, hermite_linearization, legendre_lambda, legendre_linearization,
)

TOP = 5
SIZE = 2 * TOP + 2  # the monic DP reads up to index m + n + 1

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
nonzero = rationals.filter(bool)


@st.composite
def systems(draw):
    """An explicit rational system, monic or not; gamma may hold zeros."""
    monic = draw(st.booleans())
    alpha = [1] * SIZE if monic else draw(st.lists(nonzero, min_size=SIZE, max_size=SIZE))
    beta = draw(st.lists(rationals, min_size=SIZE, max_size=SIZE))
    gamma = draw(st.lists(st.sampled_from([0, 0, 1]) | rationals, min_size=SIZE, max_size=SIZE))
    return CoefficientSystem(ExplicitSeq(tuple(alpha)), ExplicitSeq(tuple(beta)),
                             ExplicitSeq(tuple(gamma)), "drawn")


@settings(max_examples=50, deadline=None)
@given(systems(), st.integers(0, TOP), st.integers(0, TOP))
def test_one_path_sum_reads_each_coefficient(sys, m, n):
    table = expand_product(m, n, sys)
    monic = sys.is_monic(SIZE - 1)
    prefactor = mixed_prefactor(0, n, sys, sys)
    for k in table.entries:
        want = table.coefficient(k)
        assert prefactor * dp_sum(k, m, n, "mixed", sys, sys) == want, (m, n, k)
        if monic:
            monic_sum = dp_sum(m, k, n, "monic", sys)
            assert monic_sum == want, (m, n, k)
            assert dp_sum(n, k, m, "monic", sys) == monic_sum, (m, n, k)


CLOSED_FORMS = [
    ("hermite_like.json", hermite_linearization),
    ("chebyshev_like.json", chebyshev_u_linearization),
]


@pytest.mark.parametrize("name, closed_form", CLOSED_FORMS, ids=["hermite", "chebyshev"])
@pytest.mark.parametrize("m, n", [(20, 20), (20, 13), (7, 20)])
def test_every_method_prints_the_closed_form(capsys, name, closed_form, m, n):
    want = closed_form(m, n)
    for method in ("oracle", "monic", "mixed"):
        code = main(["lincoef", "--m", str(m), "--n", str(n), "--method", method,
                     "--system", str(SYSTEMS_DIR / name), "--format", "records"])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        got = {r["k"]: int(r["coefficient"]) for r in rows}
        assert got == {k: want.get(k, 0) for k in range(abs(m - n), m + n + 1)}, method


@pytest.mark.parametrize("system", sorted(SYSTEMS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_the_mixed_reading_prints_the_oracle_bytes_on_every_shipped_system(capsys, system):
    # monotone and monotone_prime are not monic: their prefactor is 1/alpha[1..n]
    for m in range(4):
        for n in range(4):
            outputs = []
            for method in ("oracle", "mixed"):
                code = main(["lincoef", "--m", str(m), "--n", str(n), "--method", method,
                             "--system", str(system)])
                assert code == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[1] == outputs[0], (m, n)


# monic Legendre: b = 0, lam_n = n^2 / (4n^2 - 1), as gamma[n] = lam[n+1]
LEGENDRE_GAMMA = [legendre_lambda(i + 1) for i in range(100)]


@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (12, 7), (20, 20), (40, 17), (40, 40)])
def test_the_monic_reading_and_the_oracle_meet_adams_formula(m, n):
    sys = monic_system(ConstantSeq(0), ExplicitSeq((0, *LEGENDRE_GAMMA)), "legendre")
    want = legendre_linearization(m, n)
    assert all(c > 0 for c in want.values())
    table = expand_product(m, n, sys)
    assert {k: c for k, (c, _) in table.entries.items() if c} == want
    for k in range(abs(m - n), m + n + 1):
        assert dp_sum(m, k, n, "monic", sys) == want.get(k, 0), k


def test_positivity_reports_legendre_lam_as_decreasing(capsys, tmp_path):
    # lam_1 = 1/3 > lam_2 = 4/15: Askey's monotone hypothesis fails, so no
    # certificate binds, though a[m,n]^k > 0 throughout (Adams' formula)
    path = tmp_path / "legendre.json"
    path.write_text(json.dumps({
        "alpha": {"family": "constant", "value": "1"},
        "beta": {"family": "constant", "value": "0"},
        "gamma": {"family": "explicit", "values": [str(g) for g in LEGENDRE_GAMMA[:14]]},
    }))
    code = main(["positivity", "--max", "4", "--system", str(path), "--format", "records"])
    report, *certificates = map(json.loads, capsys.readouterr().out.splitlines())
    assert code == 0
    assert (report["rule"], report["holds"]) == ("monic-monotone", False)
    assert {v["name"] for v in report["violations"]} == {"lam increasing"}
    assert report["violations"][0]["value_i"] == "1/3"
    assert report["violations"][0]["value_j"] == "4/15"
    assert len(certificates) == 5 ** 3
    assert sum(not c["all_nonnegative"] for c in certificates) == 11
