"""``verify`` computes each quantity once, and its output does not move.

The informational routes reuse the enumeration's per-path weights; these
tests hold them to the independent public functions that still compute
them from scratch.  Work counters pin that each instance enumerates once,
that one oracle expansion serves every target of a product, that each
coefficient is evaluated once per sequence, and that the moment chain is
walked once.  The sha256 pins hold ``verify`` and ``positivity`` output,
and the oracle-only ``lincoef``, ``connect`` and ``moments`` output, to
fixed bytes, so later performance work cannot change it.
"""

import hashlib
import json

import pytest

import orthopath.oracle as oracle_mod
import orthopath.scalars as scalars_mod
import orthopath.weights as weights_mod
from orthopath import (
    AffineSeq,
    format_scalar,
    indet,
    load_system,
    monic_b_lambda,
    monic_prefactor,
    parse_scalar,
    path_sum_mixed,
    strict_monic_weight_sum,
)
from orthopath.cli import main
from conftest import SYSTEMS_DIR

MONOTONE_MONIC = str(SYSTEMS_DIR / "monotone_monic.json")
MONOTONE = str(SYSTEMS_DIR / "monotone.json")
MONOTONE_PRIME = str(SYSTEMS_DIR / "monotone_prime.json")
CHEBYSHEV = str(SYSTEMS_DIR / "chebyshev_like.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def verify_records(capsys, top):
    code, out = run(
        capsys, "verify", "--max", str(top), "--method", "all",
        "--system", MONOTONE_MONIC, "--system-prime", MONOTONE_PRIME,
        "--format", "records",
    )
    assert code == 0
    return [json.loads(line) for line in out.splitlines()]


def test_informational_routes_equal_their_public_references(capsys):
    sys_ = load_system(MONOTONE_MONIC)
    prime = load_system(MONOTONE_PRIME)
    b, lam = monic_b_lambda(sys_, 12)
    checked = 0
    for rec in verify_records(capsys, 5):
        m, n, k = rec["m"], rec["n"], rec["k"]
        if rec["route"] == "strict-paths":
            want = monic_prefactor(n, lam) * strict_monic_weight_sum(m, n, k, b, lam)
        elif rec["route"] == "k-indexed-prefactor":
            want = path_sum_mixed(m, n, k, sys_, prime, k_indexed_prefactor=True).total
        else:
            continue
        assert rec["value"] == format_scalar(want), rec
        assert rec["match"] == (want == parse_scalar(rec["oracle"])), rec
        checked += 1
    assert checked == 2 * 6 ** 3


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("verify", "--max", "4", "--method", "all", "--system", MONOTONE_MONIC,
             "--system-prime", MONOTONE_PRIME, "--format", "records"),
            "0e77225c9693158945a36f7a24bb3606910be676e7287a474b6a2bd854c7ee2a",
        ),
        (
            ("positivity", "--max", "3", "--system", MONOTONE_MONIC,
             "--format", "records"),
            "147d7f9c59f9c43328c233b9f930b7e0630411e1cc7af14a88002623c34633da",
        ),
        (
            ("positivity", "--max", "3", "--system", MONOTONE,
             "--system-prime", MONOTONE_PRIME, "--format", "records"),
            "c981ec291e4cac1716424023fe4afaf0ba77b084955e8bbaa54713b3845d1f0c",
        ),
    ],
    ids=["verify", "positivity-monic", "positivity-two-family"],
)
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


HERMITE = str(SYSTEMS_DIR / "hermite_like.json")
SYMBOLIC = str(SYSTEMS_DIR / "symbolic_monic.json")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("lincoef", "--m", "12", "--n", "12", "--system", MONOTONE),
            "6885b6158539b4af32d18214a839bd3c087f5ea9b256701a1fd1cb9f3ff4716f",
        ),
        (
            ("lincoef", "--m", "12", "--n", "12", "--system", HERMITE),
            "86101d0427ec71b4278027d17bdb20e431efd26ec850402afc06c35db9e6e307",
        ),
        (
            ("moments", "--max", "20", "--system", MONOTONE),
            "2e5b333ce112fd00bee61d0dc611148be087fe87f2229b1028772da91cbd3018",
        ),
        (
            ("moments", "--max", "20", "--system", HERMITE),
            "25920e74d8a398d729451faf6e6f56ccf1a4bcf973407895c0386408f1cfea31",
        ),
        (
            ("connect", "--m", "6", "--k", "12", "--system", MONOTONE,
             "--system-prime", MONOTONE_PRIME),
            "d4713932412f8a0078620c10becb6cc0e9324e0ad473b3443561bf0c9b37ff26",
        ),
        (
            ("lincoef", "--m", "4", "--n", "5", "--system", SYMBOLIC),
            "aaa08960e02f44ed8011b90978fae09701e84c7001a5a37da5becd870e24a5fe",
        ),
        (
            ("moments", "--max", "8", "--system", SYMBOLIC),
            "cce984392e9ceec780ca0b265b33737a33d6c1ad5fc8456d3a939ba5972b65b7",
        ),
    ],
    ids=[
        "lincoef-monotone", "lincoef-hermite", "moments-monotone",
        "moments-hermite", "connect-monotone", "lincoef-symbolic",
        "moments-symbolic",
    ],
)
def test_oracle_output_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_verify_instance_enumerates_once(capsys, monkeypatch):
    calls = counting(monkeypatch, weights_mod, "enumerate_paths")
    verify_records(capsys, 2)
    # one census per (method, m, n, k)
    assert len(calls) == 2 * 3 ** 3


def test_one_oracle_expansion_serves_every_target(capsys, monkeypatch):
    products = counting(monkeypatch, oracle_mod, "expand_product")
    mixed = counting(monkeypatch, oracle_mod, "mixed_expand")
    steps = counting(monkeypatch, oracle_mod, "_step")
    verify_records(capsys, 2)
    assert len(products) == 3 * 3  # once per (m, n)
    assert len(mixed) == 3 * 3  # once per (m, k')
    # one recurrence run per start level and family pair: j = 0..top-1
    assert len(steps) == 2 * 3 * 2


def test_each_coefficient_is_evaluated_once(capsys, monkeypatch):
    seen = []
    original = AffineSeq.at

    def at(self, i):
        seen.append((id(self), i))
        return original(self, i)

    monkeypatch.setattr(AffineSeq, "at", at)
    verify_records(capsys, 3)
    assert seen
    assert len(seen) == len(set(seen))


def test_moments_walk_the_chain_once(capsys, monkeypatch):
    steps = counting(monkeypatch, oracle_mod, "_step")
    code, out = run(capsys, "moments", "--max", "10", "--system", CHEBYSHEV,
                    "--format", "records")
    assert code == 0
    assert len(steps) == 10
    # Catalan numbers at even indices
    assert [json.loads(line)["mu"] for line in out.splitlines()][::2] == [
        "1", "1", "2", "5", "14", "42"
    ]


def test_poly_ring_results_are_not_revalidated(monkeypatch):
    b0, l1, l2 = indet("b", 0), indet("l", 1), indet("l", 2)
    x = b0 * b0 - l1 * l2 + b0
    y = l1 + l2 - b0
    checks = counting(monkeypatch, scalars_mod, "_check_int_coeff")
    product = (x + y) * (x - y)
    squares = x * x + -(y * y)
    cancelled = -product + product
    assert checks == []
    assert product == squares
    assert cancelled.is_zero()
