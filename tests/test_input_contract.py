"""The CLI's input contract: exit 0 on success, 2 with an ``error:`` line
on bad input, never a traceback, and no vacuous success."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from orthopath import dp_sum, monic_b_lambda, parse_rational, path_sum_monic, system_from_json
from orthopath.cli import main
from conftest import SYSTEMS_DIR

SYMBOLIC_MONIC = str(SYSTEMS_DIR / "symbolic_monic.json")
MONOTONE_MONIC = str(SYSTEMS_DIR / "monotone_monic.json")
SHIPPED = sorted(SYSTEMS_DIR.glob("*.json"))


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def expect_input_error(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


def write_system(tmp_path: Path, obj, name="system.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# Every command that reads --system, at small sizes.
COMMANDS = [
    ("lincoef", "--m", 2, "--n", 2),
    ("lincoef", "--m", 2, "--n", 1, "--method", "monic"),
    ("lincoef", "--m", 2, "--n", 1, "--method", "mixed"),
    ("connect", "--m", 1, "--k", 2),
    ("verify", "--max", 2, "--method", "monic"),
    ("verify", "--max", 2, "--method", "mixed"),
    ("verify", "--max", 1, "--method", "all", "--format", "records"),
    ("positivity", "--max", 2),
    ("positivity", "--m", 1, "--n", 2, "--k", 1, "--system-prime", "SELF"),
    ("paths", "--m", 1, "--n", 1, "--k", 3),
    ("paths", "--m", 1, "--n", 1, "--k", 3, "--system-prime", "SELF"),
    ("moments", "--max", 5),
]


@pytest.mark.parametrize("system", SHIPPED, ids=lambda p: p.stem)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: " ".join(map(str, c)))
def test_shipped_systems_work_with_every_command(capsys, system, command):
    argv = [str(system) if a == "SELF" else a for a in command]
    code, out, err = run(capsys, *argv, "--system", system)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")
    else:
        assert code == 0 and out


@pytest.mark.parametrize(
    "command",
    [
        ("lincoef", "--m", 2, "--n", 2),
        ("moments", "--max", 4),
        ("verify", "--max", 2, "--method", "monic"),
    ],
    ids=lambda c: c[0],
)
def test_symbolic_system_file_is_usable(capsys, command):
    code, out, _ = run(capsys, *command, "--system", SYMBOLIC_MONIC)
    assert code == 0
    assert "l1" in out


def test_integral_json_values_parse_as_int(tmp_path):
    sys_ = system_from_json(
        {
            "alpha": {"family": "constant", "value": "1"},
            "beta": {"family": "explicit", "values": ["4/2", 3, "1/2"]},
            "gamma": {"family": "constant", "value": 2},
        }
    )
    assert type(sys_.alpha.at(0)) is int
    assert [type(v) for v in sys_.beta.values] == [int, int, Fraction]
    assert type(sys_.gamma.at(3)) is int


def test_domain_mismatch_is_an_input_error(capsys, tmp_path):
    path = write_system(
        tmp_path,
        {
            "alpha": {"family": "constant", "value": "1"},
            "beta": {"family": "symbolic", "tag": "b"},
            "gamma": {"family": "affine", "c0": "1/2", "c1": "1"},
        },
    )
    err = expect_input_error(capsys, "lincoef", "--m", 1, "--n", 1, "--system", path)
    assert "symbolic" in err


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2],
        "monic",
        {"alpha": [1], "beta": {"family": "constant", "value": "0"},
         "gamma": {"family": "constant", "value": "1"}},
        {"alpha": {"family": "explicit", "values": "12"},
         "beta": {"family": "constant", "value": "0"},
         "gamma": {"family": "constant", "value": "1"}},
    ],
    ids=["list", "string", "sequence-not-object", "values-not-list"],
)
def test_malformed_system_json_is_an_input_error(capsys, tmp_path, obj):
    path = write_system(tmp_path, obj)
    expect_input_error(capsys, "moments", "--max", 2, "--system", path)


@pytest.mark.parametrize("text", ["1e3", "+1", "1_000", "3/-2", "0x10", " 1.0 "])
def test_parse_rational_accepts_only_p_over_q(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_canonical_forms():
    assert parse_rational(" -3/4 ") == parse_rational("-6/8")
    assert parse_rational("12") == 12


def test_exponent_in_system_file_is_an_input_error(capsys, tmp_path):
    path = write_system(
        tmp_path,
        {
            "alpha": {"family": "constant", "value": "1"},
            "beta": {"family": "constant", "value": "1e3"},
            "gamma": {"family": "constant", "value": "1"},
        },
    )
    expect_input_error(capsys, "moments", "--max", 2, "--system", path)


@pytest.mark.parametrize("command", ["verify", "moments"])
def test_negative_max_is_an_input_error(capsys, command):
    err = expect_input_error(capsys, command, "--max", -1, "--system", MONOTONE_MONIC)
    assert "--max" in err


def explicit_monic(length):
    return {
        "alpha": {"family": "explicit", "values": ["1"] * length},
        "beta": {"family": "explicit", "values": [f"{i}/3" for i in range(length)]},
        "gamma": {"family": "explicit", "values": [f"{i + 2}/5" for i in range(length)]},
    }


def test_explicit_system_one_index_short_for_verify(capsys, tmp_path):
    # verify --max 2 reads alpha up to index 2 * 2 + 2 = 6
    short = write_system(tmp_path, explicit_monic(6), "short.json")
    err = expect_input_error(capsys, "verify", "--max", 2, "--system", short)
    assert "index 6" in err
    enough = write_system(tmp_path, explicit_monic(7), "enough.json")
    code, out, _ = run(capsys, "verify", "--max", 2, "--system", enough)
    assert code == 0
    assert out.strip().endswith("binding checks: 108/108 matched")


# Every coefficient that p1*p1 = p2 + p0 and its L-values read, and no more.
P1_SQUARED = {
    "alpha": {"family": "explicit", "values": [0, 1, 1]},
    "beta": {"family": "explicit", "values": [0, 0]},
    "gamma": {"family": "explicit", "values": [1, 1]},
}
P1_SQUARED_COMMANDS = [
    ("lincoef", "--m", 1, "--n", 1),
    ("lincoef", "--m", 1, "--n", 1, "--method", "mixed"),
    ("connect", "--m", 1, "--k", 1),
]


@pytest.mark.parametrize("command", P1_SQUARED_COMMANDS, ids=lambda c: " ".join(map(str, c)))
def test_the_oracle_reads_only_the_coefficients_it_uses(capsys, tmp_path, command):
    path = write_system(tmp_path, P1_SQUARED)
    code, out, err = run(capsys, *command, "--system", path, "--format", "records")
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["coefficient"], r["l_value"]) for r in rows] == [("1", "1"), ("0", "0"), ("1", "1")]


@pytest.mark.parametrize("which, missing", [("alpha", 2), ("beta", 1), ("gamma", 1)])
@pytest.mark.parametrize("command", P1_SQUARED_COMMANDS, ids=lambda c: " ".join(map(str, c)))
def test_one_coefficient_short_of_what_the_oracle_uses(capsys, tmp_path, command, which, missing):
    obj = json.loads(json.dumps(P1_SQUARED))
    del obj[which]["values"][-1]
    err = expect_input_error(capsys, *command, "--system", write_system(tmp_path, obj))
    assert err == f"error: index {missing} outside explicit sequence of length {missing}\n"


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_a_lone_factor_past_a_short_sequence_names_its_index(capsys, tmp_path, fmt):
    # the path 0:UUUUD closes with lam[4] = gamma[3], and no other factor
    # multiplies it, so the fold itself must raise the range error
    obj = {
        "alpha": {"family": "constant", "value": "1"},
        "beta": {"family": "explicit", "values": ["0", "1", "2"]},
        "gamma": {"family": "explicit", "values": ["1", "2", "3"]},
    }
    code, out, err = run(capsys, "paths", "--m", 0, "--n", 3, "--k", 5,
                         "--system", write_system(tmp_path, obj), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: index 3 outside explicit sequence of length 3\n"


def test_monic_lincoef_still_checks_alpha_up_to_m_plus_n_plus_1(capsys, tmp_path):
    path = write_system(tmp_path, P1_SQUARED)
    err = expect_input_error(capsys, "lincoef", "--m", 1, "--n", 1, "--method", "monic",
                             "--system", path)
    assert err == "error: index 3 outside explicit sequence of length 3\n"


_VALUES = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["1", "-2/3", "0", "5/2", "1/0", "1e3", "0.5", "x", ""]),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.lists(st.integers(0, 3), max_size=2),
)
_SEQUENCES = st.one_of(
    st.fixed_dictionaries(
        {"family": st.just("explicit"), "values": st.one_of(st.lists(_VALUES, max_size=8), _VALUES)}
    ),
    st.fixed_dictionaries({"family": st.just("affine"), "c0": _VALUES, "c1": _VALUES}),
    st.fixed_dictionaries({"family": st.just("constant"), "value": _VALUES}),
    st.fixed_dictionaries(
        {"family": st.just("symbolic"), "tag": st.sampled_from(["b", "l", "a'", "z"])},
        optional={"shift": _VALUES},
    ),
    st.fixed_dictionaries({"family": st.sampled_from(["geometric", None, 3])}),
    _VALUES,
)
_SYSTEMS = st.one_of(
    st.fixed_dictionaries(
        {"alpha": _SEQUENCES, "beta": _SEQUENCES, "gamma": _SEQUENCES},
        optional={"label": st.one_of(st.text(max_size=3), st.integers())},
    ),
    _VALUES,
)


@settings(max_examples=60, deadline=None)
@given(obj=_SYSTEMS)
def test_fuzzed_system_json_exits_0_or_2(tmp_path_factory, obj):
    path = write_system(tmp_path_factory.mktemp("fuzz"), obj)
    for command in (
        ("moments", "--max", 3),
        ("verify", "--max", 1, "--method", "mixed"),
        ("positivity", "--max", 1, "--system-prime", path),
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(a) for a in (*command, "--system", path)])
        assert code in (0, 2), (command, obj)
        if code == 2:
            assert err.getvalue().startswith("error: ")


def test_monic_dp_reads_only_the_indices_its_paths_use():
    # dp_sum(2, 1, 3) reads b and lam up to index (2 + 1 + 3) // 2 + 1 = 4,
    # which a 5-long system has
    short = system_from_json(explicit_monic(5))
    b, lam = monic_b_lambda(short, 4)
    assert dp_sum(2, 1, 3, "monic", short) == path_sum_monic(2, 1, 3, b, lam).weight_sum


def test_lincoef_monic_on_a_short_system_prints_the_oracle_values(capsys, tmp_path):
    short = write_system(tmp_path, explicit_monic(5), "short.json")
    code, oracle_out, _ = run(capsys, "lincoef", "--m", 2, "--n", 1, "--system", short)
    assert code == 0
    code, monic_out, _ = run(capsys, "lincoef", "--m", 2, "--n", 1, "--method", "monic",
                             "--system", short)
    assert code == 0
    assert monic_out == oracle_out


CONSTANT_ONE = {"family": "constant", "value": "1"}


@pytest.mark.parametrize(
    "obj, message",
    [
        (
            {"alpha": CONSTANT_ONE, "beta": {"family": "affine", "c0": "1"},
             "gamma": CONSTANT_ONE},
            "affine sequence is missing field 'c1'",
        ),
        (
            {"alpha": CONSTANT_ONE, "beta": CONSTANT_ONE},
            "system is missing field 'gamma'",
        ),
        (
            {"alpha": CONSTANT_ONE, "beta": {"family": "constant", "value": "1/0"},
             "gamma": CONSTANT_ONE},
            "rational has a zero denominator: '1/0'",
        ),
    ],
    ids=["missing-c1", "missing-gamma", "zero-denominator"],
)
def test_defective_fields_name_the_defect(capsys, tmp_path, obj, message):
    path = write_system(tmp_path, obj)
    err = expect_input_error(capsys, "moments", "--max", 2, "--system", path)
    assert err == f"error: {message}\n"


def test_parse_rational_rejects_a_zero_denominator():
    for text in ("1/0", "-3/00", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


@pytest.mark.parametrize("exc", [KeyError, ZeroDivisionError])
def test_library_errors_are_not_read_as_bad_input(capsys, monkeypatch, exc):
    import orthopath.oracle as oracle_mod

    def broken(*args):
        raise exc("library bug")

    monkeypatch.setattr(oracle_mod, "moments", broken)
    with pytest.raises(exc):
        main(["moments", "--max", "2", "--system", MONOTONE_MONIC])


SYMBOLIC_WITH_HALVES = {
    "affine-beta": {
        "alpha": CONSTANT_ONE,
        "beta": {"family": "affine", "c0": "1/2", "c1": "0"},
        "gamma": {"family": "symbolic", "tag": "l", "shift": 1},
    },
    "constant-alpha": {
        "alpha": {"family": "constant", "value": "1/2"},
        "beta": {"family": "symbolic", "tag": "b"},
        "gamma": {"family": "symbolic", "tag": "l", "shift": 1},
    },
    "affine-slope": {
        "alpha": CONSTANT_ONE,
        "beta": {"family": "symbolic", "tag": "b"},
        "gamma": {"family": "affine", "c0": "1", "c1": "1/2"},
    },
}


@pytest.mark.parametrize("name", sorted(SYMBOLIC_WITH_HALVES))
@pytest.mark.parametrize(
    "command",
    COMMANDS + [("moments", "--max", 1), ("paths", "--m", 1, "--n", 1, "--k", 1)],
    ids=lambda c: " ".join(map(str, c)),
)
def test_symbolic_systems_reject_every_non_integer_sequence(capsys, tmp_path, name, command):
    path = write_system(tmp_path, SYMBOLIC_WITH_HALVES[name])
    argv = [path if a == "SELF" else a for a in command]
    err = expect_input_error(capsys, *argv, "--system", path)
    assert err == "error: symbolic systems cannot mix in non-integer rationals\n"


def test_symbolic_systems_accept_integral_affine_and_constant_sequences():
    sys_ = system_from_json({
        "alpha": {"family": "constant", "value": "2/2"},
        "beta": {"family": "affine", "c0": "-1", "c1": "4/2"},
        "gamma": {"family": "symbolic", "tag": "l", "shift": 1},
    })
    assert sys_.is_symbolic
    assert sys_.materialize(3).beta == (-1, 1, 3, 5)


def test_negative_positivity_max_is_an_input_error(capsys):
    err = expect_input_error(capsys, "positivity", "--max", -1, "--system", MONOTONE_MONIC)
    assert err == "error: --max must be nonnegative, got -1\n"


MONOTONE_PAIR = ("--system", str(SYSTEMS_DIR / "monotone.json"),
                 "--system-prime", str(SYSTEMS_DIR / "monotone_prime.json"))


@pytest.mark.parametrize("selection, message", [
    (("--m", -1, "--n", 0, "--k", 0), "--m, --n and --k must be nonnegative, got (-1, 0, 0)"),
    (("--m", 0, "--n", -1, "--k", 0), "--m, --n and --k must be nonnegative, got (0, -1, 0)"),
    (("--m", 2, "--n", 0, "--k", -3), "--m, --n and --k must be nonnegative, got (2, 0, -3)"),
    (("--max", 1, "--m", 5, "--n", 5, "--k", 5), "positivity takes --max or --m/--n/--k, not both"),
    (("--max", 1, "--k", 0), "positivity takes --max or --m/--n/--k, not both"),
], ids=["m", "n", "k", "max with m/n/k", "max with k"])
@pytest.mark.parametrize("systems", [("--system", MONOTONE_MONIC), MONOTONE_PAIR],
                         ids=["monic", "two-family"])
def test_positivity_rejects_its_instance_selection_before_printing(
    capsys, selection, message, systems
):
    code, out, err = run(capsys, "positivity", *selection, *systems)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command", [("lincoef", "--m", "1", "--n", "1"), ("moments", "--max", "2")],
    ids=lambda c: c[0],
)
def test_system_prime_is_not_an_option_where_nothing_reads_it(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--system", MONOTONE_MONIC, "--system-prime", "/nonexistent"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: orthopath")
    assert "unrecognized arguments: --system-prime /nonexistent" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("paths", "--m", "1", "--n", "1", "--k", "1"),
        ("verify", "--max", "0", "--method", "monic", "--system", MONOTONE_MONIC),
        ("verify", "--max", "1", "--method", "all", "--system", MONOTONE_MONIC),
    ],
    ids=["paths", "verify-monic", "verify-all"],
)
def test_every_system_prime_given_is_opened(capsys, tmp_path, argv):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, *argv, "--system-prime", missing)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_paths_system_prime_without_system_points_to_generalized(capsys):
    prime = SYSTEMS_DIR / "monotone_prime.json"
    err = expect_input_error(capsys, "paths", "--m", "1", "--n", "1", "--k", "1",
                             "--system-prime", prime)
    assert "--generalized" in err


@pytest.mark.parametrize("system", [MONOTONE_MONIC, "/nonexistent/system.json"],
                         ids=["shipped", "missing"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_paths_generalized_with_one_system_is_rejected_at_every_k(capsys, system, k):
    # monic weights have no HH step; the rule is checked before the file is opened
    code, out, err = run(capsys, "paths", "--m", 0, "--n", 0, "--k", k, "--generalized",
                         "--system", system)
    assert (code, out, err) == (2, "", "error: monic weights are defined on plain paths only\n")


@pytest.mark.parametrize("method", ["mixed", "merged"])
@pytest.mark.parametrize("system", [(), ("--system", MONOTONE_MONIC)], ids=["unweighted", "monic"])
def test_paths_method_needs_system_prime(capsys, method, system):
    code, out, err = run(capsys, "paths", "--m", 1, "--n", 1, "--k", 2, *system,
                         "--method", method)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--system-prime" in err


def test_paths_longer_than_the_recursion_limit_are_enumerated(capsys):
    code, out, err = run(capsys, "paths", "--m", "0", "--n", "1200", "--k", "1200")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0:" + "U" * 1200, "1 path(s)"]


ZERO_GAMMA = {
    "alpha": {"family": "constant", "value": "1"},
    "beta": {"family": "constant", "value": "1"},
    "gamma": {"family": "explicit", "values": ["1", "0", "2", "3", "4", "5"]},
}


@pytest.mark.parametrize("method", ["monic", "mixed"])
def test_lincoef_path_methods_read_past_a_zero_norm(capsys, tmp_path, method):
    # each coefficient is read off a path sum, never divided by L(p_k^2)
    path = write_system(tmp_path, ZERO_GAMMA)
    code, out, err = run(capsys, "lincoef", "--m", "1", "--n", "1", "--method", method,
                         "--system", path, "--format", "records")
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["k"], r["coefficient"], r["l_value"]) for r in rows] == [
        (0, "1", "1"), (1, "0", "0"), (2, "1", "0"),
    ]


def test_lincoef_oracle_reads_a_zero_norm_unchanged(capsys, tmp_path):
    path = write_system(tmp_path, ZERO_GAMMA)
    code, out, err = run(capsys, "lincoef", "--m", "1", "--n", "1", "--system", path,
                         "--format", "records")
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["k"], r["coefficient"], r["l_value"]) for r in rows] == [
        (0, "1", "1"), (1, "0", "0"), (2, "1", "0"),
    ]


# A reader that stops early (``| head``) closes stdout.  That is neither bad
# input nor a mismatch: the command stops with 141, the status of a process
# ended by SIGPIPE, and prints nothing to stderr.

class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone after ``accepted`` lines."""

    def __init__(self, accepted):
        super().__init__()
        self.accepted = accepted

    def write(self, text):
        if self.getvalue().count("\n") >= self.accepted:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("fmt", ["table", "records"])
@pytest.mark.parametrize("accepted", [0, 3])
def test_a_closed_stdout_stops_quietly(monkeypatch, capsys, fmt, accepted):
    pipe = ClosedPipe(accepted)
    monkeypatch.setattr("sys.stdout", pipe)
    code = main(["verify", "--max", "2", "--system", MONOTONE_MONIC, "--format", fmt])
    assert code == 141
    assert pipe.getvalue().count("\n") == accepted
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_exits_141_with_an_empty_stderr():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    # far more than a pipe buffer holds, so the writer meets the closed pipe
    argv = ["verify", "--max", "6", "--system", MONOTONE_MONIC,
            "--system-prime", str(SYSTEMS_DIR / "monotone_prime.json")]
    proc = subprocess.Popen([sys.executable, "-m", "orthopath", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"instance ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.wait()
    # no error line, and no "Exception ignored" from the flush at exit
    assert err == b""
