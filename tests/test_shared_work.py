"""``verify`` computes each quantity once, and its output does not move.

The informational routes reuse the census walk's weight sums; these
tests hold them to the independent public functions that still compute
them from scratch.  Work counters pin that each (method, m, n) walks its
census and its DP once, that one oracle expansion serves every target of
a product, that each coefficient is evaluated once per sequence, and that
the moment chain is walked once.  The sha256 pins hold ``verify`` and
``positivity`` output, the oracle-only ``lincoef``, ``connect`` and
``moments`` output, and each command's table and records renderings to
fixed bytes, so later performance or renderer work cannot change them; a
streamed ``verify`` keeps what it printed before an error, and stops on a
short system, monic or not, or on a symbolic × non-integer pair, at the
record where it always did, with the same error.
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


def test_verify_walks_each_census_and_dp_once_per_m_n(capsys, monkeypatch):
    enumerations = counting(monkeypatch, weights_mod, "enumerate_paths")
    censuses = counting(monkeypatch, weights_mod, "_census")
    dps = counting(monkeypatch, weights_mod, "_dp")
    verify_records(capsys, 2)
    assert enumerations == []
    # one walk of each per (method, m, n), read at every length k
    assert len(censuses) == 2 * 3 ** 2
    assert len(dps) == 2 * 3 ** 2


def test_one_prefix_walk_feeds_every_census_and_listing(capsys, monkeypatch):
    walks = counting(monkeypatch, weights_mod, "_walk")
    verify_records(capsys, 2)
    # the census of each (method, m, n)
    assert len(walks) == 2 * 3 ** 2
    del walks[:]
    assert run(capsys, "symbolic", "--m", "2", "--n", "2", "--k", "4")[0] == 0
    assert len(walks) == 1
    del walks[:]
    code, _ = run(capsys, "positivity", "--m", "1", "--n", "2", "--k", "3",
                  "--system", MONOTONE, "--system-prime", MONOTONE_PRIME)
    assert code == 0
    assert len(walks) == 1


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


def test_moments_scale_the_coefficients_once(capsys, monkeypatch):
    builds = counting(monkeypatch, oracle_mod, "_scaled")
    code, out = run(capsys, "moments", "--max", "60", "--system", MONOTONE,
                    "--format", "records")
    assert code == 0
    assert len(out.splitlines()) == 61
    assert len(builds) == 1


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


PATHS_1_1_3 = ("paths", "--m", "1", "--n", "1", "--k", "3")
TWO_FAMILY = ("--system", MONOTONE, "--system-prime", MONOTONE_PRIME)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("verify", "--max", "3", "--method", "all", "--system", MONOTONE_MONIC,
             "--system-prime", MONOTONE_PRIME),
            "ef9572fa31d26b65feab2f7ae0f116b8d8f51faffe05397ad4e84bb90d488812",
        ),
        (
            ("positivity", "--max", "2", "--system", MONOTONE_MONIC),
            "888ba0ac3a6ec79ea9b9bfbcb6ad85a5e4c5149b4df50ada6a3bfd6e6d62309d",
        ),
        (
            ("positivity", "--max", "2", *TWO_FAMILY),
            "6a3b560a2b38a2cbd56551ce5cb09fbccb347c8e531f372d94c090bb55c0538a",
        ),
        (
            PATHS_1_1_3,
            "4b06c81dceec22f6df2917f79f12e01152cceb73333c9b960ee7e74f814a28ab",
        ),
        (
            (*PATHS_1_1_3, "--generalized"),
            "1e24edf497267c0abf5ce86289e960b77c6c259d9e6c50c728dab906ab84becd",
        ),
        (
            (*PATHS_1_1_3, "--system", MONOTONE_MONIC),
            "157ae8a10420d8aea7047358ff568bd8d16d074f24497b1fda740bde30cf82e8",
        ),
        (
            (*PATHS_1_1_3, *TWO_FAMILY, "--method", "mixed"),
            "fd6fde790a56e6bfa89b701319163577751ef8304c975a522889ec9f64ea0ad2",
        ),
        (
            (*PATHS_1_1_3, *TWO_FAMILY, "--method", "merged"),
            "e06b3b6ca57f715b071b43571f69199da3b524c8dea2688a396f19fbabb86c44",
        ),
        (
            ("symbolic", "--m", "3", "--n", "3", "--k", "5"),
            "3ba9e28ffe469eaca2bac808116b54407b4242fc17a1e2b7db66a14a197b0f30",
        ),
        (
            ("lincoef", "--m", "3", "--n", "3", "--method", "monic", "--system", MONOTONE_MONIC),
            "16c06eea3d8f11ec279ae1c7a6eceeaf124826bbf9add6ea1f685754fccfc197",
        ),
        (
            ("lincoef", "--m", "3", "--n", "3", "--method", "mixed", "--system", MONOTONE_MONIC),
            "16c06eea3d8f11ec279ae1c7a6eceeaf124826bbf9add6ea1f685754fccfc197",
        ),
    ],
    ids=[
        "verify", "positivity-monic", "positivity-two-family", "paths",
        "paths-generalized", "paths-monic", "paths-mixed", "paths-merged",
        "symbolic", "lincoef-monic", "lincoef-mixed",
    ],
)
def test_table_output_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("lincoef", "--m", "3", "--n", "3", "--system", MONOTONE_MONIC),
            "976469ed9a9bdd8989a97dc905912e1d716683f8477e5d31a6883214912cde5c",
        ),
        (
            ("connect", "--m", "2", "--k", "3", *TWO_FAMILY),
            "a74fba8bbef0f0b77bd5b54696dd97150d32a779a21b4135905aafac90c9efda",
        ),
        (
            ("moments", "--max", "6", "--system", MONOTONE),
            "666833c807e2b6cfb42067327408ab11055fa65fbc23eda3c92491c5ac9791e8",
        ),
        (
            (*PATHS_1_1_3, "--system", MONOTONE_MONIC),
            "4a6983c0c1c2e5acc7865a36ed87d23cc6e0d613e5c6e0a2e00c0629a11eb5f9",
        ),
        (
            (*PATHS_1_1_3, *TWO_FAMILY),
            "b952434859d619235cf6ed1c34d67d72110b3f2ab0f07a4de041ab93a8ba8543",
        ),
        (
            ("symbolic", "--m", "3", "--n", "3", "--k", "5"),
            "8b167773cc76160c25a2119dabea3a2f66a1cfdb1ee63bcfde4f2a28db74a505",
        ),
    ],
    ids=["lincoef", "connect", "moments", "paths-monic", "paths-mixed", "symbolic"],
)
def test_records_output_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv, "--format", "records")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


RATIONAL_MONIC = str(SYSTEMS_DIR / "rational_monic.json")

# The path methods print the oracle's table, so monic and mixed agree.
RATIONAL_DP_DIGESTS = {
    "table": "6a4872882855fec2f4606f80373f20dc0446130a23a77c811da7523e425a54bb",
    "records": "051ff1e9b0597642a5f34112c677c8c87b926da167781ab06ea94360a71a2d39",
}


@pytest.mark.parametrize("fmt", ["table", "records"])
@pytest.mark.parametrize("method", ["monic", "mixed"])
def test_path_methods_on_a_rational_system_are_pinned(capsys, method, fmt):
    # the DP divides by a power of the denominator 60 here
    code, out = run(capsys, "lincoef", "--m", "12", "--n", "12", "--method", method,
                    "--system", RATIONAL_MONIC, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RATIONAL_DP_DIGESTS[fmt]


# The monic verify reaches the symbolic DP, which no other pinned command does.
SYMBOLIC_VERIFY_DIGESTS = {
    "table": "3a757eee00a8f34ec5b5637b507cb3a4449694da5dc54587ef7c2d7643d19844",
    "records": "543732e8292352a7f1b29de3f26b29cb6ee407c77cb4b4aa122a84d6d045ca49",
}


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_symbolic_monic_verify_is_pinned(capsys, fmt):
    code, out = run(capsys, "verify", "--max", "2", "--method", "monic",
                    "--system", SYMBOLIC, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYMBOLIC_VERIFY_DIGESTS[fmt]


# The symbolic monic verify at --max 5, taken from the tuple-keyed Poly:
# the packed-exponent Poly must print the same bytes.
SYMBOLIC_REACH_DIGESTS = {
    "table": "11f54b7496b2530de0d0f57582463a57a44f1ee75619d095519e40e3c88570ba",
    "records": "a915a03e9916dc2b1ea551d767e4e64abd40d13a1deeabd7e8c0e479fe1d6408",
}


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_symbolic_monic_verify_at_max_5_is_pinned(capsys, fmt):
    code, out = run(capsys, "verify", "--max", "5", "--method", "monic",
                    "--system", SYMBOLIC, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYMBOLIC_REACH_DIGESTS[fmt]


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_verify_keeps_streamed_output_before_an_error(capsys, monkeypatch, fmt):
    import orthopath.cli as cli

    rec = {"method": "monic", "m": 0, "n": 0, "k": 0, "oracle": "1",
           "route": "oracle", "value": "1", "match": True}

    def failing_records(sys_, top):
        yield dict(rec)
        raise ValueError("failed after one record")

    monkeypatch.setattr(cli, "_verify_monic_records", failing_records)
    code = main(["verify", "--max", "0", "--method", "monic",
                 "--system", MONOTONE_MONIC, "--format", fmt])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == "error: failed after one record\n"
    if fmt == "records":
        assert out.out == json.dumps(rec, sort_keys=True) + "\n"
    else:
        assert out.out == (
            "instance      method  route                 value                     oracle"
            "                    match\n"
            "(0,0,0)       monic   oracle                1                         1"
            "                         ok\n"
        )


# Systems that fail their hypotheses, so the order, names, indices and
# values of the reported violations are held to fixed bytes too.
MONOTONE_PAIR_WIDE = ("--max", "1", "--system", MONOTONE, "--system-prime", MONOTONE,
                      "--window", "6")
FAILING_SHIPPED = {
    "monic-strict": ("--max", "2", "--system", CHEBYSHEV, "--strict"),
    "dominance": ("--max", "2", "--system", CHEBYSHEV, "--system-prime", HERMITE),
    "beta-zero": MONOTONE_PAIR_WIDE,
}
FAILING_SHIPPED_DIGESTS = {
    ("monic-strict", "table"):
        "2a20881726cb58a84aaa25dade92e88e87abaab679334fb46deb8a4e3abe8ae7",
    ("monic-strict", "records"):
        "997693548b5be561245b463aba1ab734fe757b386fc8320cb33f4da6e6a542f9",
    ("dominance", "table"):
        "d6a6089e9b8d05f00035fda765337a61a68675c6adbac492d8fc9eeca57783a4",
    ("dominance", "records"):
        "c142e25b412aa340d2899fca7b273e3a18aa43e5833d7dd80b542191cfe7d5ed",
    ("beta-zero", "table"):
        "61bd86003f8b5e1911d719e1164752aa6ef9d0824402b1cf9b06579e45c2f99d",
    ("beta-zero", "records"):
        "5245f1f988f4810e1dcacd8fcf26b770a89a86632c212358023711691e58bd0e",
}


@pytest.mark.parametrize("case, fmt", sorted(FAILING_SHIPPED_DIGESTS))
def test_positivity_violation_bytes_are_pinned(capsys, case, fmt):
    code, out = run(capsys, "positivity", *FAILING_SHIPPED[case], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_SHIPPED_DIGESTS[case, fmt]


def _explicit(*values):
    return {"family": "explicit", "values": list(values)}


NONPOSITIVE_SYSTEMS = {
    # lam[3] = gamma[2] = 0 and lam[5] = gamma[4] = -1
    "monic": {
        "alpha": {"family": "constant", "value": "1"},
        "beta": {"family": "affine", "c0": "0", "c1": "1"},
        "gamma": _explicit("1", "2", "0", "4", "-1", "6", "7", "8"),
    },
    # alpha[2] = -2 (the raw alpha[0] = 0 is not scanned), gamma'[1] = 0
    "main": {
        "alpha": _explicit("0", "1", "-2", "3", "4", "5", "6", "7"),
        "beta": {"family": "constant", "value": "0"},
        "gamma": {"family": "constant", "value": "3"},
    },
    "prime": {
        "alpha": {"family": "constant", "value": "1"},
        "beta": {"family": "constant", "value": "0"},
        "gamma": _explicit("1", "0", "2", "2", "2", "2", "2", "2"),
    },
}
NONPOSITIVE_DIGESTS = {
    ("monic", "table"):
        "7a41e0507d60d5c9d641ce3c1f88ae23859773cbc5d33b2e88d13d9a9d8bff63",
    ("monic", "records"):
        "842c4437d919596edf6098bbe7baacabd80360b8e2c78af952f89902011f8a82",
    ("two-family", "table"):
        "6a042976db03628da2353f217eadf407c0daac963b18076d1a1431e3e92fe5b5",
    ("two-family", "records"):
        "1599bf0453df3bfe9d0e5d920a7b02e8a0689e102edf782d16dadee0a79bc55b",
}


@pytest.mark.parametrize("case, fmt", sorted(NONPOSITIVE_DIGESTS))
def test_positivity_nonpositive_entry_bytes_are_pinned(capsys, tmp_path, case, fmt):
    files = {}
    for name, spec in NONPOSITIVE_SYSTEMS.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(spec))
    if case == "monic":
        systems = ("--system", str(files["monic"]))
    else:
        systems = ("--system", str(files["main"]), "--system-prime", str(files["prime"]))
    code, out = run(capsys, "positivity", "--max", "1", *systems, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NONPOSITIVE_DIGESTS[case, fmt]


# Taken before verify read one walk per (m, n) at every length: a rational
# system with a DP denominator against a non-monic second family.
RATIONAL_VERIFY_DIGESTS = {
    "table": "5c1958c2e19498b0e09bbcc0fdec28c4101eb4f27208c158d5d57eaf3b74b1c3",
    "records": "9675d44f50f4f222298cdb6de8601c34ffa3500b8b42927b272e622f7ed11f0a",
}


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_rational_verify_is_pinned(capsys, fmt):
    code, out = run(capsys, "verify", "--max", "6", "--method", "all",
                    "--system", RATIONAL_MONIC, "--system-prime", MONOTONE_PRIME,
                    "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RATIONAL_VERIFY_DIGESTS[fmt]


def short_system(length):
    """alpha = 1..L, beta = 0..L-1, gamma = 2..L+1: explicit lists of length L."""
    return {name: _explicit(*map(str, range(lo, lo + length)))
            for name, lo in (("alpha", 1), ("beta", 0), ("gamma", 2))}


def short_monic_system(length):
    """alpha = 1, beta = 0..L-1, gamma = 2..L+1: explicit lists of length L."""
    return {"alpha": {"family": "constant", "value": "1"},
            "beta": _explicit(*map(str, range(length))),
            "gamma": _explicit(*map(str, range(2, length + 2)))}


# verify on inputs that fail part-way: how many records stream before the
# first instance that reads past the end (or meets a symbolic and a
# non-integer scalar), their bytes, and the error.  The census and the DP
# read further ahead than one instance, so they must fail no earlier.
SHORT_VERIFY = {
    # (length, role): (records, stdout sha256, stderr).  --max 6 --method
    # mixed with the short system as both --system and --system-prime
    # ("both"), or as --system-prime with monotone.json ("prime");
    (9, "both"): (612, "c4d79da37013f79682c3c1f657b5cf7e8c10d2f71c58ec8fa843f848f7a43647"),
    (10, "both"): (808, "fa8cc9ad4d1965fc5d460fcab1aebdf67ffa17a9f9d776a19ecd002ac11c05d4"),
    (11, "both"): (1004, "6f3bf71e5a6cc3c56fcf5f660239e2b999eb6348ff89331f768338622167874a"),
    (12, "both"): (1200, "561b10d8bceeebfad43652f6f8d35c1de09964e71aa378bbd1e0497f312fc272"),
    (5, "prime"): (20, "0361e76c9384eba01e21e34a5ee77c7326b240ee361614a73ac11931ac933b3c"),
    (6, "prime"): (24, "952409537e1a20fb2296884b610da26816bfdfed57f217acb62f528254f86a36"),
    # --max 6 --method monic or all on a short monic system;
    (2, "monic"): (12, "7b7929b82f7ecea7f5b473ffd3cdb60fd4feb496bf1099db76d6cb5ab4570380"),
    (5, "monic"): (24, "011dfada5a2fb930ea1648b9e7eb52c2721ea9e5f553dee1b2bc65f0b78d37bd"),
    (6, "monic"): (364, "71227a6c8c2cedf0d902708736d9ee294f93dfb99a388a3dde3ec9f246114f84"),
    (8, "monic"): (756, "9fb3ef2c05c8e5355aeaa5154b5e39c8e674db3d7d9cf717128356312259ba34"),
    (11, "monic"): (1344, "545fcb569cd1b454af0f934e9ad44d0ab2ec4b8314b18f999925e0e0725ecff0"),
    (6, "all"): (364, "71227a6c8c2cedf0d902708736d9ee294f93dfb99a388a3dde3ec9f246114f84"),
    (11, "all"): (1344, "545fcb569cd1b454af0f934e9ad44d0ab2ec4b8314b18f999925e0e0725ecff0"),
    # --max 3 --method mixed on symbolic_monic.json and rational_monic.json,
    # in the order named (no short sequence)
    (None, "symbolic-rational"): (
        4, "2dc7181a1c663f10bfc41cd089347a2eee4ca2e3e240ae8a11d75ecaa6471aaa",
        "error: cannot mix symbolic polynomials with non-integer numerics\n"),
    (None, "rational-symbolic"): (
        4, "2dc7181a1c663f10bfc41cd089347a2eee4ca2e3e240ae8a11d75ecaa6471aaa",
        "error: cannot mix symbolic polynomials with non-integer numerics\n"),
}


def short_verify_argv(tmp_path, length, role):
    if length is None:
        first, second = (SYMBOLIC, RATIONAL_MONIC)[:: 1 if role == "symbolic-rational" else -1]
        return ["--max", "3", "--method", "mixed", "--system", first, "--system-prime", second]
    path = tmp_path / f"short{length}.json"
    if role in ("monic", "all"):
        path.write_text(json.dumps(short_monic_system(length)))
        return ["--max", "6", "--method", role, "--system", str(path)]
    path.write_text(json.dumps(short_system(length)))
    return ["--max", "6", "--method", "mixed", "--system", str(path) if role == "both" else MONOTONE,
            "--system-prime", str(path)]


@pytest.mark.parametrize("length, role", sorted(SHORT_VERIFY, key=str))
def test_verify_on_a_short_system_fails_where_it_did(capsys, tmp_path, length, role):
    code = main(["verify", *short_verify_argv(tmp_path, length, role), "--format", "records"])
    out = capsys.readouterr()
    records, digest, *err = SHORT_VERIFY[length, role]
    assert code == 2
    assert out.err == (err[0] if err else
                       f"error: index {length} outside explicit sequence of length {length}\n")
    assert len(out.out.splitlines()) == records
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


# Taken before symbolic, the certificates and paths --system read one
# shared-prefix walk (weights.monic_listing, mixed_listing).
LISTING_DIGESTS = {
    ("symbolic-6-6-8", "table"):
        "3dd2bc37f6a74c4b35c10c83b8424a7aff27c47402749d26d22f4a0c0c254f0a",
    ("symbolic-6-6-8", "records"):
        "bc854762de83e6dd3cdedffb20b93fbe46960d836f68a47c5473758f95aa36df",
    ("paths-monic", "table"):
        "d1af231b820c4a0d872685a109acb0193b5756be4e2590e8ba26d4fdc4400f62",
    ("paths-monic", "records"):
        "9e6b1c758a7d725e30eb4afe61ae9d878eddd38b77ff804e7e64d7e1e532ba2a",
    ("paths-mixed", "table"):
        "c864748ea47d176d7efaecdac5e5a5f7c9a51804f229d7768299d8bc1da6dbac",
    ("paths-mixed", "records"):
        "216219de3f5b2c2f073d8e0a2c667b5cc1653e6f941cd3883bcd45a4a87b3769",
    ("paths-merged", "table"):
        "00bc01f63fabbb0a32dd79a85ad2ef2775af36b51324fd43e81e04973f6ad5ab",
    ("paths-merged", "records"):
        "87cd0f3c2ed192734daf243d7088e2b05d80a8875940e6f738d80bd33a082c87",
}
LISTING_COMMANDS = {
    "symbolic-6-6-8": ("symbolic", "--m", "6", "--n", "6", "--k", "8"),
    "paths-monic": ("paths", "--m", "2", "--n", "2", "--k", "6", "--system", MONOTONE_MONIC),
    "paths-mixed": ("paths", "--m", "2", "--n", "2", "--k", "5", *TWO_FAMILY,
                    "--method", "mixed"),
    "paths-merged": ("paths", "--m", "2", "--n", "2", "--k", "5", *TWO_FAMILY,
                     "--method", "merged"),
}


@pytest.mark.parametrize("case, fmt", sorted(LISTING_DIGESTS))
def test_listed_path_weights_are_pinned(capsys, case, fmt):
    code, out = run(capsys, *LISTING_COMMANDS[case], "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_DIGESTS[case, fmt]


@pytest.mark.parametrize("case, fmt", [key for key in sorted(LISTING_DIGESTS)
                                       if key[0] in ("paths-mixed", "paths-merged")])
def test_generalized_leaves_the_two_family_listing_as_it_is(capsys, case, fmt):
    # the two-family listing is always over generalized paths
    code, out = run(capsys, *LISTING_COMMANDS[case], "--generalized", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_DIGESTS[case, fmt]


@pytest.mark.parametrize("argv", [
    ("verify", "--max", "2", "--system", MONOTONE_MONIC, "--system-prime", MONOTONE_PRIME),
    ("positivity", "--max", "2", "--system", MONOTONE, "--system-prime", MONOTONE_PRIME),
    ("symbolic", "--m", "2", "--n", "3", "--k", "3"),
])
def test_the_shared_encoder_prints_what_json_dumps_does(capsys, argv):
    code, out = run(capsys, *argv, "--format", "records")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) > 3
    assert lines == [json.dumps(json.loads(line), sort_keys=True) for line in lines]


@pytest.mark.parametrize("method", ["monic", "mixed"])
def test_lincoef_path_methods_scale_the_coefficients_once(capsys, monkeypatch, method):
    calls = counting(monkeypatch, weights_mod, "_scaled")  # keeps each tuple alive
    code, out = run(capsys, "lincoef", "--m", "6", "--n", "5", "--method", method,
                    "--system", RATIONAL_MONIC, "--format", "records")
    assert code == 0
    assert len(calls) == len(out.splitlines()) == 11  # one DP walk per target k = 1..11
    # _scaled computes again only for a new tuple of coefficients
    assert len({id(seqs) for _, seqs, _ in calls}) == 1
