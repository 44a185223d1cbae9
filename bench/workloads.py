"""Workloads: seeded system files, op lists and per-op correctness checks.

``generate(workload, seed, directory)`` writes the workload's system
files; the same seed gives byte-identical files.  ``ops(workload,
files)`` lists the ops of one pass.  An op runs ``orthopath.cli.main``
on an argv, or calls a public library function; its ``check`` looks at
the output of one run and raises :class:`CheckFailed`, and its
``instances`` splits the run's wall time into the streamed instances a
user waits for.

* ``sweep``: ``verify --max 6 --method all`` on a monic family with a
  second family, ``positivity --max 5`` on the monic family and on a
  two-family pair.  Seeded affine systems with positive rational
  c0/c1: enumeration, per-path weights and coefficient lookup dominate.
  An instance is one (method,m,n,k) group of 4 ``verify`` records, or
  one ``positivity`` certificate.
* ``deep``: ``lincoef --m 40 --n 40``, ``connect --m 40 --k 40``,
  ``moments --max 60`` and library ``dp_sum(40,40,40)`` for ``monic``
  and ``mixed``, on seeded explicit random-rational systems of length
  3*40+4.  Oracle, DP and large rationals, no enumeration.  An instance
  is one op.
* ``symbolic``: the ``symbolic`` command at (6,6,6), (5,5,8), (6,6,8),
  (4,7,7) and the symbolic monic ``dp_sum(8,8,8)``.  ``Poly``
  arithmetic dominates; the seed does not change it.  An instance is one
  op.  The known-defect probe ``lincoef --m 2 --n 2`` on the symbolic
  monic system runs once per run, outside the passes (see ``probes``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

import reference

WORKLOADS = ("sweep", "deep", "symbolic")

VERIFY_MAX = 6
POSITIVITY_MAX = 5
DEEP_N = 40
DEEP_MOMENTS = 60
DEEP_LENGTH = 3 * DEEP_N + 4
SYMBOLIC_INSTANCES = ((6, 6, 6), (5, 5, 8), (6, 6, 8), (4, 7, 7))
SYMBOLIC_DP = 8

# binding routes of ``verify``: a mismatch there is a wrong answer
BINDING_ROUTES = ("enumeration", "dp")


class CheckFailed(Exception):
    """An op's output is wrong."""


# -- seeded system files ------------------------------------------------------

# Every generated rational has this prime denominator and a numerator it
# does not divide.  Mixed denominators would reduce differently from seed
# to seed and make the size of every result, and so the run time, depend
# on the seed; with one prime they stay the same size.
DENOMINATOR = 13


def _rational(rng: random.Random, low: int = 14, high: int = 25) -> Fraction:
    """p/13 with p drawn from low..high; the defaults give (1, 2)."""
    while True:
        p = rng.randint(low, high)
        if p % DENOMINATOR:
            return Fraction(p, DENOMINATOR)


def _affine(c0: Fraction, c1: Fraction) -> dict:
    return {"family": "affine", "c0": str(c0), "c1": str(c1)}


def _explicit(values) -> dict:
    return {"family": "explicit", "values": [str(v) for v in values]}


def _sweep_systems(rng: random.Random) -> Dict[str, dict]:
    coeff = {name: (_rational(rng), _rational(rng)) for name in ("alpha", "beta", "gamma")}
    monic = {
        "label": "sweep-monic",
        "alpha": {"family": "constant", "value": "1"},
        "beta": _affine(*coeff["beta"]),
        "gamma": _affine(*coeff["gamma"]),
    }
    family = {"label": "sweep-family", **{n: _affine(*c) for n, c in coeff.items()}}

    # the second family's coefficients lie in (1/2, 1), below every
    # coefficient of the first, so the two-family dominance rule holds and
    # its certificates bind
    prime = {"label": "sweep-prime", **{
        n: _affine(_rational(rng, 7, 12), _rational(rng, 7, 12)) for n in coeff}}
    return {"monic": monic, "family": family, "prime": prime}


def _deep_systems(rng: random.Random) -> Dict[str, dict]:
    def seq() -> dict:
        return _explicit(_rational(rng) for _ in range(DEEP_LENGTH))

    return {
        "monic": {"label": "deep-monic", "alpha": _explicit([1] * DEEP_LENGTH),
                  "beta": seq(), "gamma": seq()},
        "family": {"label": "deep-family", "alpha": seq(), "beta": seq(), "gamma": seq()},
        "prime": {"label": "deep-prime", "alpha": seq(), "beta": seq(), "gamma": seq()},
    }


def _symbolic_systems(rng: random.Random) -> Dict[str, dict]:
    return {
        "monic": {
            "label": "symbolic-monic",
            "alpha": {"family": "constant", "value": "1"},
            "beta": {"family": "symbolic", "tag": "b"},
            "gamma": {"family": "symbolic", "tag": "l", "shift": 1},
        }
    }


_SYSTEMS = {"sweep": _sweep_systems, "deep": _deep_systems, "symbolic": _symbolic_systems}


@dataclass(frozen=True)
class Files:
    """The generated system files of one workload: paths and contents."""

    paths: Dict[str, str]
    specs: Dict[str, dict]


def generate(workload: str, seed: int, directory: Path) -> Files:
    """Write the workload's system files into ``directory``."""
    rng = random.Random(f"{workload}:{seed}")
    specs = _SYSTEMS[workload](rng)
    paths = {}
    for name, spec in specs.items():
        path = directory / f"{workload}_{name}.json"
        path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n")
        paths[name] = str(path)
    return Files(paths, specs)


# -- ops ----------------------------------------------------------------------

@dataclass
class Outcome:
    """One run of one op: exit status, output and line timestamps."""

    rc: Optional[int]
    stdout: str
    stderr: str
    start: float
    end: float
    line_ends: List[float]
    value: object = None
    error: str = ""

    @property
    def lines(self) -> List[str]:
        return self.stdout.splitlines()

    @property
    def digest(self) -> str:
        """sha256 of the stdout, and of the returned value for library calls."""
        text = self.stdout if self.value is None else f"{self.stdout}{self.value}\n"
        return hashlib.sha256(text.encode()).hexdigest()

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.error) or "Traceback" in self.stderr


@dataclass
class Context:
    """What ops and checks share: the package and the systems loaded at set-up."""

    pkg: object
    systems: Dict[str, object]


@dataclass
class Op:
    name: str
    check: Callable[[Outcome, Context], None]
    argv: Optional[List[str]] = None
    call: Optional[Callable[[Context], object]] = None
    instances: Callable[[Outcome], List[float]] = field(
        default=lambda out: [out.end - out.start]
    )


def _records(out: Outcome) -> Iterator[dict]:
    """The op's records, one at a time so checking holds little memory."""
    if out.failed:
        last = (out.error or out.stderr).strip().splitlines()[-1:]
        status = "raised" if out.rc is None else f"exit {out.rc}"
        raise CheckFailed(f"{status}: {last[0] if last else 'no output'}")
    for line in out.lines:
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            raise CheckFailed(f"not a JSON record: {line[:80]!r}") from None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli(name: str, *argv: str) -> List[str]:
    return [name, *argv, "--format", "records"]


# sweep -----------------------------------------------------------------

def _verify_groups(out: Outcome) -> List[float]:
    ends = out.line_ends[3::4]
    return [t - s for s, t in zip([out.start] + ends, ends)]


def _certificate_latencies(out: Outcome) -> List[float]:
    lat, prev = [], out.start
    for line, t in zip(out.lines, out.line_ends):
        if line.startswith('{"all_nonnegative"'):
            lat.append(t - prev)
        prev = t
    return lat


def _check_verify(top: int):
    def check(out: Outcome, ctx: Context) -> None:
        groups = 2 * (top + 1) ** 3
        count = bad = 0
        for rec in _records(out):
            count += 1
            bad += rec["route"] in BINDING_ROUTES and rec["match"] is not True
        _require(count == 4 * groups, f"{count} records for {groups} instances")
        _require(not bad, f"{bad} binding mismatches")

    return check


def _check_positivity(top: int):
    def check(out: Outcome, ctx: Context) -> None:
        recs = _records(out)
        first = next(recs)
        # the generated systems satisfy the rule, so the certificates bind
        _require(first["kind"] == "hypothesis" and first["holds"],
                 f"hypothesis does not hold: {first}")
        certs = sum(rec["kind"] == "certificate" for rec in recs)
        _require(certs == (top + 1) ** 3, f"{certs} certificates")

    return check


def _sweep_ops(files: Files) -> List[Op]:
    f = files.paths
    return [
        Op(f"verify --max {VERIFY_MAX} --method all",
           _check_verify(VERIFY_MAX),
           argv=_cli("verify", "--max", str(VERIFY_MAX), "--method", "all",
                     "--system", f["monic"], "--system-prime", f["prime"]),
           instances=_verify_groups),
        Op(f"positivity --max {POSITIVITY_MAX} (monic)",
           _check_positivity(POSITIVITY_MAX),
           argv=_cli("positivity", "--max", str(POSITIVITY_MAX), "--system", f["monic"]),
           instances=_certificate_latencies),
        Op(f"positivity --max {POSITIVITY_MAX} (two-family)",
           _check_positivity(POSITIVITY_MAX),
           argv=_cli("positivity", "--max", str(POSITIVITY_MAX),
                     "--system", f["family"], "--system-prime", f["prime"]),
           instances=_certificate_latencies),
    ]


# deep ------------------------------------------------------------------

def _check_table(key: str, expected: Callable[[], dict]):
    def check(out: Outcome, ctx: Context) -> None:
        got = {r[key]: (Fraction(r["coefficient"]), Fraction(r["l_value"]))
               for r in _records(out)}
        want = expected()
        _require(want.keys() <= got.keys(), f"missing targets {sorted(want.keys() - got.keys())}")
        wrong = [t for t in got if got[t] != want.get(t, (0, 0))]
        _require(not wrong, f"wrong entries at {wrong[:5]}")

    return check


def _check_moments(expected: Callable[[], List[Fraction]]):
    def check(out: Outcome, ctx: Context) -> None:
        got = [Fraction(r["mu"]) for r in _records(out)]
        want = expected()
        _require(got == want, f"moments differ from index "
                              f"{next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(got))}")

    return check


def _check_dp(oracle_value: Callable[[Context], object], prefactor: Callable[[], object]):
    def check(out: Outcome, ctx: Context) -> None:
        expect_success(out, ctx)
        _require(out.value * prefactor() == oracle_value(ctx),
                 "dp_sum * prefactor differs from the oracle")

    return check


def _deep_ops(files: Files) -> List[Op]:
    f, n, top = files.paths, DEEP_N, DEEP_MOMENTS
    fam = reference.explicit_values(files.specs["family"])
    prime = reference.explicit_values(files.specs["prime"])
    monic = reference.explicit_values(files.specs["monic"])

    def mixed_prefactor():
        # gamma[0..m-1] / (alpha[1..m] * alpha'[1..k])
        value = reference.norm_squared(fam, n)
        for i in range(1, n + 1):
            value /= prime["alpha"][i]
        return value

    return [
        Op(f"lincoef --m {n} --n {n}",
           _check_table("k", lambda: reference.expansion(n, n, fam)),
           argv=_cli("lincoef", "--m", str(n), "--n", str(n), "--system", f["family"])),
        Op(f"connect --m {n} --k {n}",
           _check_table("n", lambda: reference.expansion(n, n, fam, prime)),
           argv=_cli("connect", "--m", str(n), "--k", str(n),
                     "--system", f["family"], "--system-prime", f["prime"])),
        Op(f"moments --max {top}",
           _check_moments(lambda: reference.moments(top, fam)),
           argv=_cli("moments", "--max", str(top), "--system", f["family"])),
        Op(f"dp_sum({n},{n},{n}) monic",
           _check_dp(lambda ctx: ctx.pkg.oracle.triple_product_value(
                         n, n, n, ctx.systems["monic"]),
                     lambda: reference.norm_squared(monic, n)),
           call=lambda ctx: ctx.pkg.dp_sum(n, n, n, "monic", ctx.systems["monic"])),
        Op(f"dp_sum({n},{n},{n}) mixed",
           _check_dp(lambda ctx: ctx.pkg.oracle.mixed_product_value(
                         n, n, n, ctx.systems["family"], ctx.systems["prime"]),
                     mixed_prefactor),
           call=lambda ctx: ctx.pkg.dp_sum(n, n, n, "mixed", ctx.systems["family"],
                                           ctx.systems["prime"])),
    ]


# symbolic --------------------------------------------------------------

def _check_symbolic(k: int):
    def check(out: Outcome, ctx: Context) -> None:
        paths, summary = 0, {}
        for rec in _records(out):
            if "path" in rec:
                paths += 1
            else:
                summary = rec
        _require(paths > 0 and "total" in summary, "expected per-path records and a summary")
        total = reference.parse_poly(summary["total"])
        coefficient = reference.parse_poly(summary["coefficient"])
        _require(total == reference.times_lambdas(coefficient, k),
                 "path total differs from oracle coefficient * l1..lk")

    return check


def _symbolic_ops(files: Files) -> List[Op]:
    t = SYMBOLIC_DP
    ops = [
        Op(f"symbolic ({m},{n},{k})", _check_symbolic(k),
           argv=_cli("symbolic", "--m", str(m), "--n", str(n), "--k", str(k)))
        for m, n, k in SYMBOLIC_INSTANCES
    ]

    def check_dp(out: Outcome, ctx: Context) -> None:
        expect_success(out, ctx)
        pkg = ctx.pkg
        prefactor = pkg.scalar_product(pkg.indet("l", i) for i in range(1, t + 1))
        want = pkg.oracle.triple_product_value(t, t, t, ctx.systems["indeterminate"])
        _require(out.value * prefactor == want,
                 "symbolic dp_sum * prefactor differs from the oracle")

    ops.append(Op(f"dp_sum({t},{t},{t}) symbolic monic", check_dp,
                  call=lambda ctx: ctx.pkg.dp_sum(t, t, t, "monic",
                                                  ctx.systems["indeterminate"])))
    return ops


_OPS = {"sweep": _sweep_ops, "deep": _deep_ops, "symbolic": _symbolic_ops}


def ops(workload: str, files: Files) -> List[Op]:
    return _OPS[workload](files)


def load_systems(workload: str, pkg, files: Files) -> Dict[str, object]:
    """Set-up: load every system file of the workload."""
    systems = {name: pkg.load_system(path) for name, path in files.paths.items()}
    if workload == "symbolic":
        # the file's integral "1" is a Fraction, which Poly arithmetic in the
        # oracle rejects (the probe's defect), so the DP and its check use
        # the same monic system built from indeterminates directly
        systems["indeterminate"] = pkg.monic_system(pkg.SymbolicSeq("b"), pkg.SymbolicSeq("l"))
    return systems


def expect_success(out: Outcome, ctx: Context) -> None:
    for _ in _records(out):
        pass


def probes(workload: str, files: Files) -> List[Op]:
    """Known defects, run once per run outside the passes and reported on
    their own; each turns into an ordinary passing op once fixed.

    ``lincoef`` on the symbolic monic system dies with DomainMismatchError:
    integral rationals parsed from JSON do not mix with ``Poly``.
    """
    if workload != "symbolic":
        return []
    return [Op("lincoef --m 2 --n 2 on the symbolic monic system", expect_success,
               argv=_cli("lincoef", "--m", "2", "--n", "2", "--system", files.paths["monic"]))]


_RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")


def result_bits(out: Outcome) -> int:
    """Bit length of the numeric results an op produced: numerator plus
    denominator of every rational it printed or returned."""
    values: List[Fraction] = []
    if isinstance(out.value, (int, Fraction)):
        values.append(Fraction(out.value))
    if not out.failed:
        for rec in _records(out):
            values.extend(Fraction(v) for v in rec.values()
                          if isinstance(v, str) and _RATIONAL.match(v))
    return sum(v.numerator.bit_length() + v.denominator.bit_length() for v in values)
