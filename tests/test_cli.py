import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orthopath.cli import main
from orthopath.paths import enumerate_paths
from conftest import SYSTEMS_DIR

CHEBYSHEV = str(SYSTEMS_DIR / "chebyshev_like.json")
MONOTONE_MONIC = str(SYSTEMS_DIR / "monotone_monic.json")
MONOTONE = str(SYSTEMS_DIR / "monotone.json")
MONOTONE_PRIME = str(SYSTEMS_DIR / "monotone_prime.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


def test_lincoef_chebyshev_table(capsys):
    code, out, _ = run(capsys, "lincoef", "--m", "1", "--n", "1", "--system", CHEBYSHEV)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split() == ["0", "1", "1"]
    assert lines[2].split() == ["1", "0", "0"]
    assert lines[3].split() == ["2", "1", "1"]


def test_lincoef_methods_agree(capsys):
    base = run(capsys, "lincoef", "--m", "2", "--n", "1", "--system", MONOTONE_MONIC,
               "--format", "records")
    monic = run(capsys, "lincoef", "--m", "2", "--n", "1", "--system", MONOTONE_MONIC,
                "--method", "monic", "--format", "records")
    mixed = run(capsys, "lincoef", "--m", "2", "--n", "1", "--system", MONOTONE_MONIC,
                "--method", "mixed", "--format", "records")
    assert base[0] == monic[0] == mixed[0] == 0
    assert records(base[1]) == records(monic[1]) == records(mixed[1])


def test_connect_records(capsys):
    code, out, _ = run(
        capsys, "connect", "--k", "1", "--system", MONOTONE, "--system-prime",
        MONOTONE_PRIME, "--format", "records",
    )
    assert code == 0
    recs = records(out)
    assert [r["n"] for r in recs] == [0, 1]
    # b[0,1';1] = alpha[1] / alpha'[1] = 3/2, b[0,1';0] = (beta[0]-beta'[0])/alpha'[1] = 1/2
    by_n = {r["n"]: r["coefficient"] for r in recs}
    assert by_n == {1: "3/2", 0: "1/2"}


def test_verify_all_clean_run(capsys):
    code, out, _ = run(
        capsys, "verify", "--max", "3", "--method", "all",
        "--system", MONOTONE_MONIC, "--format", "records",
    )
    assert code == 0
    recs = records(out)
    binding = [r for r in recs if r["route"] in ("enumeration", "dp")]
    assert binding and all(r["match"] for r in binding)


def test_verify_reports_k_indexed_prefactor_failure(capsys):
    code, out, _ = run(
        capsys, "verify", "--max", "1", "--method", "mixed",
        "--system", MONOTONE, "--system-prime", MONOTONE_PRIME,
        "--format", "records",
    )
    assert code == 0  # informational route does not fail the run
    recs = records(out)
    alt = {
        (r["m"], r["n"], r["k"]): r["match"]
        for r in recs
        if r["route"] == "k-indexed-prefactor"
    }
    assert alt[(0, 1, 1)] is False
    main_route = {
        (r["m"], r["n"], r["k"]): r["match"]
        for r in recs
        if r["route"] == "enumeration"
    }
    assert all(main_route.values())


def test_verify_reports_strict_census_failure(capsys):
    code, out, _ = run(
        capsys, "verify", "--max", "2", "--method", "monic",
        "--system", MONOTONE_MONIC, "--format", "records",
    )
    assert code == 0
    recs = records(out)
    strict = {
        (r["m"], r["n"], r["k"]): r["match"]
        for r in recs
        if r["route"] == "strict-paths"
    }
    assert strict[(0, 0, 2)] is False
    assert strict[(1, 1, 2)] is True


def test_verify_monic_rejects_nonmonic_system(capsys):
    code, _, err = run(
        capsys, "verify", "--max", "2", "--method", "monic", "--system", MONOTONE
    )
    assert code == 2
    assert "monic" in err


@pytest.mark.parametrize("fmt", ["table", "records"])
@pytest.mark.parametrize("method", ["monic", "all"])
def test_verify_rejects_a_nonmonic_system_before_printing(capsys, method, fmt):
    code, out, err = run(capsys, "verify", "--max", "3", "--method", method,
                         "--system", MONOTONE, "--system-prime", MONOTONE_PRIME,
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: system 'monotone' is not monic up to index 8\n"


def test_positivity_single_instance(capsys):
    code, out, _ = run(
        capsys, "positivity", "--m", "3", "--n", "3", "--k", "3",
        "--system", MONOTONE_MONIC, "--format", "records",
    )
    assert code == 0
    recs = records(out)
    cert = next(r for r in recs if r["kind"] == "certificate")
    assert cert["all_nonnegative"] is True
    assert cert["weight_sum"] == "42"
    weights = {row["path"]: row["weight"] for row in cert["paths"]}
    assert weights["3:HHH"] == "6" and weights["3:DUH"] == "2"
    report = next(r for r in recs if r["kind"] == "hypothesis")
    assert report["holds"] is True and report["rule"] == "monic-monotone"


def test_positivity_table_output_includes_formula(capsys):
    code, out, _ = run(
        capsys, "positivity", "--m", "3", "--n", "3", "--k", "3",
        "--system", MONOTONE_MONIC,
    )
    assert code == 0
    assert "3:DHU  l3*(b2-b1) = 3  +" in out


def test_positivity_two_family(capsys):
    code, out, _ = run(
        capsys, "positivity", "--m", "2", "--n", "2", "--k", "2",
        "--system", MONOTONE, "--system-prime", MONOTONE_PRIME,
        "--format", "records",
    )
    assert code == 0
    recs = records(out)
    rules = {r["rule"] for r in recs if r["kind"] == "hypothesis"}
    assert rules == {"dominance", "parity-dominance"}
    cert = next(r for r in recs if r["kind"] == "certificate")
    assert cert["all_nonnegative"] is True


def test_positivity_strict_flag(capsys):
    code, out, _ = run(
        capsys, "positivity", "--m", "1", "--n", "1", "--k", "0",
        "--system", CHEBYSHEV, "--strict", "--format", "records",
    )
    assert code == 0
    report = next(r for r in records(out) if r["kind"] == "hypothesis")
    assert report["strict"] is True and report["holds"] is False


def test_paths_command(capsys):
    code, out, _ = run(capsys, "paths", "--m", "3", "--n", "3", "--k", "3")
    assert code == 0
    assert "3:HHH" in out and out.strip().endswith("7 path(s)")
    code, out, _ = run(
        capsys, "paths", "--m", "0", "--n", "0", "--k", "2", "--generalized",
        "--format", "records",
    )
    assert code == 0
    assert {r["path"] for r in records(out)} == {"0:UD", "0:HH", "0:(HH)"}
    code, out, _ = run(
        capsys, "paths", "--m", "1", "--n", "1", "--k", "2",
        "--system", MONOTONE_MONIC, "--format", "records",
    )
    assert code == 0
    weights = {r["path"]: r["weight"] for r in records(out)}
    assert weights == {"1:UD": "2", "1:DU": "0", "1:HH": "0"}


def test_moments_command(capsys):
    code, out, _ = run(
        capsys, "moments", "--max", "4", "--system", CHEBYSHEV, "--format", "records"
    )
    assert code == 0
    mus = [r["mu"] for r in records(out)]
    assert mus == ["1", "0", "1", "0", "2"]


def test_symbolic_command(capsys):
    code, out, _ = run(capsys, "symbolic", "--m", "3", "--n", "3", "--k", "3")
    assert code == 0
    assert "b3^3" in out
    assert "prefactor = l1*l2*l3" in out


def test_symbolic_records_include_total(capsys):
    code, out, _ = run(
        capsys, "symbolic", "--m", "1", "--n", "1", "--k", "0", "--format", "records"
    )
    recs = records(out)
    summary = recs[-1]
    assert summary["weight_sum"] == "1"
    assert summary["prefactor"] == "l1"
    assert summary["total"] == "l1"
    assert summary["coefficient"] == "l1"


def test_exit_code_2_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "moments", "--max", "2", "--system", str(bad))
    assert code == 2 and err
    code, _, err = run(capsys, "moments", "--max", "2", "--system", str(tmp_path / "nope.json"))
    assert code == 2
    code, _, err = run(capsys, "lincoef", "--m", "1", "--n", "1")
    assert code == 2


def test_deterministic_output(capsys):
    first = run(capsys, "verify", "--max", "2", "--method", "all",
                "--system", MONOTONE_MONIC, "--format", "records")
    second = run(capsys, "verify", "--max", "2", "--method", "all",
                 "--system", MONOTONE_MONIC, "--format", "records")
    assert first == second


def test_positivity_window_too_small_is_an_input_error(capsys):
    code, _, err = run(
        capsys, "positivity", "--m", "3", "--n", "3", "--k", "3",
        "--window", "4", "--system", MONOTONE_MONIC,
    )
    assert code == 2 and "too small" in err


def test_positivity_records_carry_required_window(capsys):
    code, out, _ = run(
        capsys, "positivity", "--m", "2", "--n", "2", "--k", "2",
        "--system", MONOTONE_MONIC, "--format", "records",
    )
    assert code == 0
    cert = next(r for r in records(out) if r["kind"] == "certificate")
    assert cert["required_window"] == 6


def test_verify_exit_1_on_binding_mismatch(capsys, monkeypatch):
    import orthopath.cli as cli

    def fake_records(sys_, top):
        yield {"method": "monic", "m": 0, "n": 0, "k": 0, "oracle": "1",
               "route": "enumeration", "value": "2", "match": False}

    monkeypatch.setattr(cli, "_verify_monic_records", fake_records)
    code, out, _ = run(capsys, "verify", "--max", "0", "--method", "monic",
                       "--system", MONOTONE_MONIC, "--format", "records")
    assert code == 1
    assert json.loads(out.strip())["match"] is False


def test_python_dash_m_runs_the_cli(capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    argv = ["symbolic", "--m", "2", "--n", "2", "--k", "2"]
    done = subprocess.run([sys.executable, "-m", "orthopath", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == run(capsys, *argv)[1]
    bad = subprocess.run([sys.executable, "-m", "orthopath", "moments", "--max", "-1"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert bad.returncode == 2


def test_zero_alpha_is_an_input_error_even_where_the_walk_cancels(capsys, tmp_path):
    # alpha[2] = 0: (x - beta[1]) p_1 - gamma[0] p_0 vanishes, so p_1 * q_2
    # cancels to nothing before it is divided by alpha[2]
    spec = {
        "alpha": {"family": "explicit", "values": ["1", "1", "0", "1", "2", "1", "1"]},
        "beta": {"family": "constant", "value": "1"},
        "gamma": {"family": "constant", "value": "1"},
    }
    path = tmp_path / "zero_alpha.json"
    path.write_text(json.dumps(spec))
    for argv in (
        ("lincoef", "--m", "1", "--n", "3"),
        ("lincoef", "--m", "1", "--n", "3", "--method", "mixed"),
        ("connect", "--m", "1", "--k", "3"),
    ):
        code, out, err = run(capsys, *argv, "--system", str(path))
        assert (code, out, err) == (2, "", "error: division by zero coefficient\n"), argv
    code, _, _ = run(capsys, "lincoef", "--m", "1", "--n", "1", "--system", str(path))
    assert code == 0


# -- positivity exit status ----------------------------------------------------

HERMITE = str(SYSTEMS_DIR / "hermite_like.json")
MONOTONE_PAIR = ("--system", MONOTONE, "--system-prime", MONOTONE_PRIME)


def negative_weights(monkeypatch):
    """Every certificate row weighs -1."""
    import orthopath.positivity as positivity

    def listing(allow_hh):
        return lambda m, n, k, *systems: (
            (path, -1) for path in enumerate_paths(m, n, k, allow_hh=allow_hh))

    monkeypatch.setattr(positivity, "monic_listing", listing(False))
    monkeypatch.setattr(positivity, "mixed_listing", listing(True))


def positivity_exit(capsys, instance, *argv):
    """The exit status and whether the first (binding) report holds."""
    m, n, k = instance
    code, out, err = run(capsys, "positivity", "--m", str(m), "--n", str(n),
                         "--k", str(k), *argv, "--format", "records")
    assert err == ""
    certs = [r for r in records(out) if r["kind"] == "certificate"]
    assert len(certs) == 1 and not certs[0]["all_nonnegative"]
    return code, records(out)[0]["holds"]


def test_positivity_exit_1_when_a_holding_monic_rule_meets_a_negative_row(
    capsys, monkeypatch
):
    negative_weights(monkeypatch)
    assert positivity_exit(capsys, (1, 1, 1), "--system", MONOTONE_MONIC) == (1, True)
    # the strict rule fails on constant sequences, so nothing is guaranteed
    assert positivity_exit(capsys, (1, 1, 1), "--system", CHEBYSHEV, "--strict") == (0, False)


def test_positivity_exit_1_when_dominance_guarantees_the_oriented_instance(
    capsys, monkeypatch
):
    negative_weights(monkeypatch)
    assert positivity_exit(capsys, (1, 1, 1), *MONOTONE_PAIR) == (1, True)
    # n < k' <= m: the certificate swaps m and n, so k' <= its end level
    assert positivity_exit(capsys, (3, 1, 2), *MONOTONE_PAIR) == (1, True)
    # k' > max(m, n): no orientation keeps k' <= the end level
    assert positivity_exit(capsys, (0, 0, 2), *MONOTONE_PAIR) == (0, True)


def test_positivity_exit_0_when_dominance_fails(capsys, monkeypatch):
    negative_weights(monkeypatch)
    argv = ("--system", HERMITE, "--system-prime", MONOTONE)
    assert positivity_exit(capsys, (1, 1, 1), *argv) == (0, False)


# -- README --------------------------------------------------------------------

def readme_cli_examples():
    """The ``orthopath ...`` lines of README's CLI example block, with
    backslash continuations joined."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = text.split("```")[1::2]
    block = next(b for b in blocks if "\northopath " in b)
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("orthopath ")]


def test_readme_cli_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(SYSTEMS_DIR.parent)
    examples = readme_cli_examples()
    assert len(examples) == 8
    outputs = {}
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        outputs[" ".join(argv)] = out
    first = outputs[" ".join(examples[0])].splitlines()
    assert [line.split()[1] for line in first[1:]] == ["1", "0", "1"]
    assert outputs["paths --m 3 --n 3 --k 3"].splitlines()[-1] == "7 path(s)"


def test_one_parser_serves_every_call_with_fresh_defaults(capsys):
    from orthopath.cli import build_parser

    assert build_parser() is build_parser()
    monic = str(SYSTEMS_DIR / "monotone_monic.json")
    prime = str(SYSTEMS_DIR / "monotone_prime.json")
    calls = [
        ["lincoef", "--m", "2", "--n", "3", "--method", "monic", "--system", monic,
         "--format", "records"],
        ["lincoef", "--m", "2", "--n", "3", "--system", monic],  # oracle, table
        ["verify", "--max", "2", "--method", "monic", "--system", monic],
        ["verify", "--max", "2", "--system", monic, "--system-prime", prime],  # all
        ["moments", "--max", "3", "--system", monic, "--format", "records"],
        ["moments", "--max", "3", "--system", monic],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    for argv in calls:
        code, out, err = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "orthopath", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
