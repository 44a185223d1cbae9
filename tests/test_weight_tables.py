"""What the weight tables derive: formula text, counts, merged weights, and
``lincoef`` path coefficients from the DP instead of the path census."""

import json

import pytest

import orthopath.cli as cli_mod
import orthopath.paths as paths_mod
import orthopath.weights as weights_mod
from orthopath import (
    CoefficientSystem,
    MotzkinPath,
    SymbolicSeq,
    all_terms,
    dp_sum,
    enumerate_paths,
    is_fixed_point,
    path_weight_merged,
)
from orthopath.cli import main
from orthopath.weights import monic_formula
from conftest import SYSTEMS_DIR

MONOTONE_MONIC = str(SYSTEMS_DIR / "monotone_monic.json")
CHEBYSHEV = str(SYSTEMS_DIR / "chebyshev_like.json")
SYMBOLIC_MONIC = str(SYSTEMS_DIR / "symbolic_monic.json")


@pytest.mark.parametrize(
    "start, steps, formula",
    [
        (2, "DU", "(l2-l1)"),  # D followed by U: (lam[j] - lam[i+1])
        (3, "DH", "l3*(b2-b1)"),  # D not followed by U, paid by its follower
        (2, "HD", "(b2-b0)*l2"),  # trailing D, paid by the closing factor
        (0, "H", "(b0-b0)"),  # level-0 H
        (2, "DDUU", "l2*(l1-l2)"),
        (0, "U", "1"),
    ],
)
def test_monic_formula_text(start, steps, formula):
    assert monic_formula(MotzkinPath(start, tuple(steps))) == formula


def test_certificate_rows_carry_the_formula_text(capsys):
    code = main(["positivity", "--m", "3", "--n", "3", "--k", "2",
                 "--system", MONOTONE_MONIC, "--format", "records"])
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (cert,) = [r for r in records if r["kind"] == "certificate"]
    assert {row["path"]: row["formula"] for row in cert["paths"]} == {
        "3:UD": "l4",
        "3:DU": "(l3-l1)",
        "3:HH": "(b3-b0)*(b3-b1)",
    }


def test_count_dp_equals_the_plain_census():
    for m in range(1, 7):
        for n in range(7):
            for k in range(7):
                assert dp_sum(m, n, k, "count") == len(enumerate_paths(m, n, k)), (m, n, k)


def test_merged_weight_is_the_fixed_point_term():
    sys_ = CoefficientSystem(SymbolicSeq("a"), SymbolicSeq("be"), SymbolicSeq("g"))
    prime = CoefficientSystem(SymbolicSeq("a'"), SymbolicSeq("be'"), SymbolicSeq("g'"))
    for m in range(5):
        for n in range(5):
            for k in range(5):
                fixed = {}
                for term in all_terms(m, n, k, sys_, prime):
                    if is_fixed_point(term):
                        fixed[term.path] = fixed.get(term.path, 0) + term.value
                for path in enumerate_paths(m, n, k, allow_hh=True):
                    assert fixed[path] == path_weight_merged(path, sys_, prime), path


def test_lincoef_path_methods_enumerate_no_paths(capsys, monkeypatch):
    calls = []
    for module in (weights_mod, paths_mod, cli_mod):
        original = module.enumerate_paths
        monkeypatch.setattr(
            module, "enumerate_paths",
            lambda *a, _f=original, **kw: calls.append(a) or _f(*a, **kw),
        )
    for method in ("monic", "mixed"):
        code = main(["lincoef", "--m", "4", "--n", "3", "--method", method,
                     "--system", MONOTONE_MONIC])
        assert code == 0
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize(
    "system", [MONOTONE_MONIC, CHEBYSHEV, SYMBOLIC_MONIC], ids=["monotone", "chebyshev", "symbolic"]
)
def test_lincoef_path_methods_equal_the_oracle(capsys, system):
    for m in range(6):
        for n in range(6):
            outputs = {}
            for method in ("oracle", "monic", "mixed"):
                code = main(["lincoef", "--m", str(m), "--n", str(n),
                             "--method", method, "--system", system])
                assert code == 0
                outputs[method] = capsys.readouterr().out
            assert outputs["monic"] == outputs["oracle"], (m, n)
            assert outputs["mixed"] == outputs["oracle"], (m, n)
