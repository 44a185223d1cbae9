"""Batch command-line surface.

Subcommands:

* ``lincoef``    expansion table of p_m * p_n (coefficient and L-value rows)
* ``connect``    expansion table of p_m * p'_k across two families
* ``verify``     cross-check the path formulas against the recurrence
                 oracle over a range, one record per instance and method
* ``positivity`` hypothesis reports plus per-path certificates
* ``paths``      enumerate paths (optionally weighted)
* ``moments``    mu_0 .. mu_N
* ``symbolic``   expanded coefficient polynomial of a monic product

Records come first: each ``_cmd_*`` checks its arguments, loads its
systems and returns its records.  ``lincoef``, ``connect``, ``paths``,
``moments`` and ``symbolic`` return a list, so an error leaves stdout
empty; ``verify`` and ``positivity`` return a generator that streams each
record as it is computed and returns the exit status.  ``main`` alone
prints: ``--format records`` writes one JSON object per line with sorted
keys, and the default table format renders the same records through the
command's text view.

Output is deterministic byte-for-byte for identical inputs.  Exit status:
0 success, 1 when a verification mismatch (or a certificate contradicting
its hypothesis report) was found, 2 for invalid input or configuration:
``main`` prints ``error: ...`` on stderr, after whatever was streamed, for
a ``ValueError``, ``OSError``, ``SequenceRangeError`` or
``DomainMismatchError``.  A stdout closed by its reader stops the command
with status 141 (128 + SIGPIPE) and nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Generator, Iterable, Iterator, List, Optional, Sequence

from . import oracle
from .paths import check_instance, enumerate_paths
from .positivity import (
    check_dominance,
    check_monic_monotone,
    check_parity_dominance,
    certify_mixed,
    certify_monic,
    required_window,
)
from .scalars import DomainMismatchError, format_scalar, scalar_sum
from .systems import (
    CoefficientSystem,
    SequenceRangeError,
    SymbolicSeq,
    load_system,
    monic_b_lambda,
    monic_system,
)
from .weights import (
    dp_walk,
    mixed_census,
    mixed_listing,
    mixed_prefactor,
    monic_census,
    monic_formula,
    monic_listing,
    monic_prefactor,
    path_sum_monic,  # noqa: F401  an import site bench/selftest.py checks
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
# The reader closed stdout (``... | head``): the status of a process that
# SIGPIPE ends, 128 + 13, so the stopped run reads as neither success nor
# a mismatch nor bad input.
EXIT_CLOSED_STDOUT = 141

Stream = Generator[dict, None, int]

# One encoder serves every record: ``json.dumps(rec, sort_keys=True)``
# would build one per call.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _table(
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    widths: Optional[Sequence[int]] = None,
) -> Iterator[str]:
    """Lines of an aligned table.  Each column is as wide as its widest
    cell, which needs the whole table; fixed ``widths`` let rows stream."""
    if widths is None:
        rows = list(rows)
        widths = [max(map(len, column)) for column in zip(header, *rows)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    yield fmt.format(*header).rstrip()
    for row in rows:
        yield fmt.format(*row).rstrip()


def _load(args: argparse.Namespace) -> CoefficientSystem:
    if not args.system:
        raise ValueError("--system FILE is required for this command")
    return load_system(args.system)


def _load_prime(args: argparse.Namespace) -> Optional[CoefficientSystem]:
    return load_system(args.system_prime) if args.system_prime else None


def _require_nonnegative_max(args: argparse.Namespace) -> None:
    # an empty range would pass vacuously
    if args.max < 0:
        raise ValueError(f"--max must be nonnegative, got {args.max}")


# -- lincoef ---------------------------------------------------------------

# The path methods read each coefficient off one DP path sum, never
# dividing by L(p_k^2).  Monic: a[m,n]^k sums the paths (0, m) -> (n, k).
# Mixed: p_m * p_n is the connection of p_m and p'_n with p' = p, whose
# prefactor divides by alpha[1..n] only, as the oracle does.

def _cmd_lincoef(args: argparse.Namespace) -> List[dict]:
    sys_ = _load(args)
    m, n = args.m, args.n
    table = oracle.expand_product(m, n, sys_)
    if args.method == "monic":
        monic_b_lambda(sys_, m + n + 1)  # the indices the product involves
        walk = lambda k: dp_walk(m, k, n, "monic", sys_)
        read = lambda walked: walked(n)
    elif args.method == "mixed":
        prefactor = mixed_prefactor(0, n, sys_, sys_)
        walk = lambda k: dp_walk(k, m, n, "mixed", sys_, sys_)
        read = lambda walked: prefactor * walked(n)
    if args.method != "oracle":
        # The walk to the largest target reads the most coefficients: made
        # first, it has them scaled once for every target.  A walk raises
        # only when read, so the targets still fail in order.
        top = max(table.entries)
        last = walk(top)
        # the oracle's targets, each L-value by the oracle's rule
        values = {k: read(last if k == top else walk(k)) for k in table.entries}
        table = oracle.LinearizationTable(
            {k: (c, c * sys_.norm_squared(k)) for k, c in values.items()})
    return [
        {"command": "lincoef", "m": m, "n": n, "k": k,
         "coefficient": c, "l_value": l}
        for k, c, l in table.rows()
    ]


def _lincoef_view(args: argparse.Namespace, records: Iterable[dict]) -> Iterator[str]:
    header = ("k", f"a[{args.m},{args.n}]^k", f"L(p{args.m}*p{args.n}*pk)")
    return _table(header, ((str(r["k"]), r["coefficient"], r["l_value"]) for r in records))


# -- connect ---------------------------------------------------------------

def _cmd_connect(args: argparse.Namespace) -> List[dict]:
    sys_ = _load(args)
    prime = _load_prime(args) or sys_
    return [
        {"command": "connect", "m": args.m, "k_prime": args.k, "n": n,
         "coefficient": c, "l_value": l}
        for n, c, l in oracle.mixed_expand(args.m, args.k, sys_, prime).rows()
    ]


def _connect_view(args: argparse.Namespace, records: Iterable[dict]) -> Iterator[str]:
    header = ("n", f"b[{args.m},{args.k}']^n", f"L(p{args.m}*p'{args.k}*pn)")
    return _table(header, ((str(r["n"]), r["coefficient"], r["l_value"]) for r in records))


# -- verify ----------------------------------------------------------------

# Each (m, n) walks its path census once and its DP once, and reads both
# at every length k.  The informational routes reuse the census: the
# strict census is the subset of the boundary-dip census that stays on
# the axis, and the k-indexed prefactor multiplies the same weight sum.
# The binding routes stay independent: the DP reads no census result, the
# oracle reads neither, and one oracle expansion serves every target k (or
# n) of its product.

def _instance_records(method: str, m: int, n: int, k: int, want, routes) -> List[dict]:
    """The oracle record of one instance, then one per (route, value).  A
    value equal to the oracle's prints as its text, which is rendered once:
    equal scalars render alike.  On ``symbolic_monic.json``, ``verify --max
    9 --method monic`` took a median 7.2 s so, and 8.7 s rendering each."""
    text = format_scalar(want)
    base = {"method": method, "m": m, "n": n, "k": k, "oracle": text}
    records = [dict(base, route="oracle", value=text, match=True)]
    for route, value in routes:
        match = value == want
        records.append(dict(base, route=route, value=text if match else format_scalar(value),
                            match=match))
    return records


def _verify_monic_records(sys_: CoefficientSystem, top: int) -> Iterator[dict]:
    b, lam = monic_b_lambda(sys_, 2 * top + 2)
    for m in range(top + 1):
        for n in range(top + 1):
            table = oracle.expand_product(m, n, sys_)
            census = monic_census(m, n, top, b, lam)
            dp = dp_walk(m, n, top, "monic", sys_)
            prefactor = monic_prefactor(n, lam)
            for k in range(top + 1):
                # triple_product_value(m, n, k)
                want = table.coefficient(k) * sys_.norm_squared(k)
                weight_sum, strict = census(k)
                yield from _instance_records("monic", m, n, k, want, (
                    ("enumeration", prefactor * weight_sum), ("dp", prefactor * dp(k)),
                    ("strict-paths", prefactor * strict),
                ))


def _verify_mixed_records(
    sys_: CoefficientSystem, prime: CoefficientSystem, top: int
) -> Iterator[dict]:
    for m in range(top + 1):
        # by target k, each computed where the first instance needs it
        table = functools.cache(lambda k: oracle.mixed_expand(m, k, sys_, prime))
        prefactor = functools.cache(lambda k: mixed_prefactor(m, k, sys_, prime))
        k_indexed = functools.cache(
            lambda k: mixed_prefactor(m, k, sys_, prime, k_indexed_prefactor=True))
        for n in range(top + 1):
            census = mixed_census(m, n, top, sys_, prime)
            dp = dp_walk(m, n, top, "mixed", sys_, prime)
            for k in range(top + 1):
                # mixed_product_value(m, n, k)
                want = table(k).coefficient(n) * sys_.norm_squared(n)
                weight_sum = census(k)
                yield from _instance_records("mixed", m, n, k, want, (
                    ("enumeration", prefactor(k) * weight_sum),
                    ("dp", prefactor(k) * dp(k)),
                    ("k-indexed-prefactor", k_indexed(k) * weight_sum),
                ))


# Routes that bind the exit status.  The strict path census and the
# k-indexed prefactor are informational: they are reported precisely
# because they disagree with the oracle on boundary instances.
_BINDING_ROUTES = ("enumeration", "dp")


def _cmd_verify(args: argparse.Namespace) -> Stream:
    _require_nonnegative_max(args)
    sys_ = _load(args)
    prime = _load_prime(args) or sys_
    if args.method in ("monic", "all"):
        # a non-monic system is rejected before anything is printed
        monic_b_lambda(sys_, 2 * args.max + 2)

    def records() -> Iterator[dict]:
        if args.method in ("monic", "all"):
            yield from _verify_monic_records(sys_, args.max)
        if args.method in ("mixed", "all"):
            yield from _verify_mixed_records(sys_, prime, args.max)

    # streamed instance by instance so long sweeps stay inspectable
    def stream() -> Stream:
        mismatch = False
        for rec in records():
            mismatch = mismatch or (rec["route"] in _BINDING_ROUTES and not rec["match"])
            yield rec
        return EXIT_MISMATCH if mismatch else EXIT_OK

    return stream()


def _verify_view(args: argparse.Namespace, records: Iterable[dict]) -> Iterator[str]:
    matches = []

    def rows():
        for r in records:
            if r["route"] in _BINDING_ROUTES:
                matches.append(r["match"])
            yield (f"({r['m']},{r['n']},{r['k']})", r["method"], r["route"],
                   r["value"], r["oracle"], "ok" if r["match"] else "MISMATCH")

    header = ("instance", "method", "route", "value", "oracle", "match")
    yield from _table(header, rows(), widths=(12, 6, 20, 24, 24, 8))
    yield f"binding checks: {sum(matches)}/{len(matches)} matched"


# -- positivity --------------------------------------------------------------

def _cmd_positivity(args: argparse.Namespace) -> Stream:
    # the instances are checked first: a bad selection prints no report
    picked = (args.m, args.n, args.k)
    if args.max is not None:
        if picked != (None, None, None):
            raise ValueError("positivity takes --max or --m/--n/--k, not both")
        _require_nonnegative_max(args)
        instances = list(itertools.product(range(args.max + 1), repeat=3))
    elif None in picked:
        raise ValueError("positivity needs --m/--n/--k or --max")
    elif min(picked) < 0:
        raise ValueError(f"--m, --n and --k must be nonnegative, got {picked}")
    else:
        instances = [picked]
    sys_ = _load(args)
    prime = _load_prime(args)
    needed = max(required_window(*inst) for inst in instances)
    window = needed if args.window is None else args.window
    if window < needed:
        raise ValueError(
            f"window {window} is too small for the requested instances; "
            f"indices up to {needed} are needed"
        )

    if prime is None:
        b, lam = monic_b_lambda(sys_, window + 1)
        reports = [check_monic_monotone(b, lam, window, strict=args.strict)]
        certify = lambda m, n, k: certify_monic(m, n, k, b, lam)
    else:
        # only dominance binds the exit status; the parity-dominance
        # report (reports[1]) is printed for information
        reports = [
            check_dominance(sys_, prime, window, strict=args.strict),
            check_parity_dominance(sys_, prime, window, strict=args.strict),
        ]
        certify = lambda m, n, k: certify_mixed(m, n, k, sys_, prime)

    # certificates stream instance by instance
    def stream() -> Stream:
        for rep in reports:
            yield {
                "kind": "hypothesis", "rule": rep.rule, "window": rep.window,
                "strict": rep.strict, "holds": rep.holds,
                "violations": [
                    {"name": v.name, "i": v.i, "j": v.j,
                     "value_i": format_scalar(v.value_i),
                     "value_j": format_scalar(v.value_j)}
                    for v in rep.violations
                ],
            }
        unsound = False
        for m, n, k in instances:
            cert = certify(m, n, k)
            # the binding rule signs every row once the length is at most the end level
            _, end, length = cert.oriented
            if reports[0].holds and length <= end and not cert.all_nonnegative:
                unsound = True
            yield {
                "kind": "certificate",
                "instance": list(cert.instance),
                "oriented": list(cert.oriented),
                "all_nonnegative": cert.all_nonnegative,
                "hypothesis_holds": reports[0].holds,
                "required_window": required_window(*cert.instance),
                "weight_sum": format_scalar(cert.weight_sum),
                "paths": [
                    {"path": str(path),
                     "formula": monic_formula(path) if prime is None else str(path),
                     "weight": format_scalar(w),
                     "sign": "+" if s > 0 else ("0" if s == 0 else "-")}
                    for path, w, s in cert.rows
                ],
            }
        return EXIT_MISMATCH if unsound else EXIT_OK

    return stream()


def _positivity_view(args: argparse.Namespace, records: Iterable[dict]) -> Iterator[str]:
    for r in records:
        if r["kind"] == "hypothesis":
            yield (f"rule {r['rule']} over window 0..{r['window']}"
                   f"{' (strict)' if r['strict'] else ''}: "
                   f"{'holds' if r['holds'] else 'FAILS'}")
            for v in r["violations"]:
                yield (f"  violated {v['name']} at i={v['i']}, j={v['j']}: "
                       f"{v['value_i']} vs {v['value_j']}")
            continue
        m, n, k = r["instance"]
        yield (f"instance (m,n,k)=({m},{n},{k}) oriented {tuple(r['oriented'])}:"
               f" {'all nonnegative' if r['all_nonnegative'] else 'NEGATIVE WEIGHT'}"
               f"  sum={r['weight_sum']}")
        for row in r["paths"]:
            yield f"  {row['path']}  {row['formula']} = {row['weight']}  {row['sign']}"


# -- paths -------------------------------------------------------------------

def _cmd_paths(args: argparse.Namespace) -> List[dict]:
    # flag rules first, so that no file is opened for a rejected combination
    if args.system_prime and not args.system:
        raise ValueError("--system-prime weighs paths with --system; for unweighted "
                         "paths with the two-unit across step use --generalized")
    if args.generalized and args.system and not args.system_prime:
        raise ValueError("monic weights are defined on plain paths only")
    if args.method and not args.system_prime:
        raise ValueError("--method chooses the two-family weights, which need --system-prime")
    m, n, k = args.m, args.n, args.k
    base = {"command": "paths", "m": m, "n": n, "k": k}
    if not args.system:
        return [dict(base, path=str(p))
                for p in enumerate_paths(m, n, k, allow_hh=args.generalized)]
    check_instance(m, n, k)  # before any file is read
    if args.system_prime:
        sys_, prime = _load(args), _load_prime(args)
        rows = mixed_listing(m, n, k, sys_, prime, merged=args.method == "merged")
    else:
        b, lam = monic_b_lambda(_load(args), m + n + k + 2)
        rows = monic_listing(m, n, k, b, lam)
    return [dict(base, path=str(p), weight=format_scalar(w)) for p, w in rows]


def _paths_view(args: argparse.Namespace, records: Iterable[dict]) -> Iterator[str]:
    records = list(records)
    if any("weight" in r for r in records):
        yield from _table(("path", "weight"), ((r["path"], r["weight"]) for r in records))
    else:
        yield from (r["path"] for r in records)
    yield f"{len(records)} path(s)"


# -- moments -----------------------------------------------------------------

def _cmd_moments(args: argparse.Namespace) -> List[dict]:
    _require_nonnegative_max(args)
    sys_ = _load(args)
    oracle.moments(args.max, sys_)  # one walk to the top; each n below reads it
    return [
        {"command": "moments", "n": n, "mu": format_scalar(oracle.moments(n, sys_))}
        for n in range(args.max + 1)
    ]


def _moments_view(args: argparse.Namespace, records: Iterable[dict]) -> Iterator[str]:
    return _table(("n", "mu_n"), ((str(r["n"]), r["mu"]) for r in records))


# -- symbolic ----------------------------------------------------------------

def _cmd_symbolic(args: argparse.Namespace) -> List[dict]:
    b = SymbolicSeq("b")
    lam = SymbolicSeq("l")
    # the terms of path_sum_monic, over the boundary-dip census
    rows = list(monic_listing(args.m, args.n, args.k, b, lam, boundary_dips=True))
    weight_sum = scalar_sum(w for _, w in rows)
    prefactor = monic_prefactor(args.n, lam)
    coeff = oracle.expand_product(
        args.m, args.n, monic_system(b, lam)
    ).coefficient(args.k)
    base = {"command": "symbolic", "m": args.m, "n": args.n, "k": args.k}
    return [dict(base, path=str(p), weight=format_scalar(w)) for p, w in rows] + [
        dict(base, weight_sum=format_scalar(weight_sum),
             prefactor=format_scalar(prefactor), total=format_scalar(prefactor * weight_sum),
             coefficient=format_scalar(coeff))
    ]


def _symbolic_view(args: argparse.Namespace, records: Iterable[dict]) -> Iterator[str]:
    *paths, summary = records
    yield from _table(("path", "weight"), ((r["path"], r["weight"]) for r in paths))
    yield f"sum over paths = {summary['weight_sum']}"
    yield f"prefactor = {summary['prefactor']}"
    yield f"L(p{args.m}*p{args.n}*p{args.k}) = {summary['total']}"
    yield f"coefficient a[{args.m},{args.n}]^{args.k} = {summary['coefficient']}"


# -- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    leaves it as it was, and one parser per process spares an in-process
    caller a rebuild, and its cyclic garbage, on every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="orthopath",
        description="Exact path expansions of orthogonal-polynomial products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, view, system=True, prime=False):
        p = sub.add_parser(name, help=help)
        if system:
            p.add_argument("--system", help="coefficient system JSON file")
        if prime:
            p.add_argument("--system-prime", help="second-family JSON file")
        p.add_argument(
            "--format", choices=("table", "records"), default="table"
        )
        p.set_defaults(func=func, view=view)
        return p

    p = command("lincoef", "expansion table of p_m * p_n", _cmd_lincoef, _lincoef_view)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("oracle", "monic", "mixed"), default="oracle")

    p = command("connect", "expansion table of p_m * p'_k", _cmd_connect, _connect_view,
                prime=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, required=True)

    p = command("verify", "cross-check path formulas vs the oracle", _cmd_verify,
                _verify_view, prime=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--method", choices=("monic", "mixed", "all"), default="all")

    p = command("positivity", "hypothesis reports and certificates", _cmd_positivity,
                _positivity_view, prime=True)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--max", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--strict", action="store_true")

    p = command("paths", "enumerate (optionally weighted) paths", _cmd_paths, _paths_view,
                prime=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--generalized", action="store_true",
                   help="include the two-unit across step; the two-family listing "
                        "(--system-prime) always does")
    # the two-family weights, mixed unless given; only with --system-prime
    p.add_argument("--method", choices=("mixed", "merged"))

    p = command("moments", "moment sequence of a system", _cmd_moments, _moments_view)
    p.add_argument("--max", type=int, required=True)

    p = command("symbolic", "symbolic monic product expansion", _cmd_symbolic,
                _symbolic_view, system=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    return parser


def _silence_stdout() -> None:
    """Point stdout's descriptor at devnull, so the flush at interpreter
    exit writes what is still buffered there instead of failing on the
    closed pipe again (the recipe in Python's ``signal`` docs)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):  # stdout is not a file
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        produced = args.func(args)
        status = []

        def records() -> Iterator[dict]:
            # a list yields no status; a stream returns its exit status
            status.append((yield from produced))

        if args.format == "records":
            lines = map(_ENCODE, records())
        else:
            lines = args.view(args, records())
        for line in lines:
            print(line)
        # a pipe closed by its reader shows here, not at interpreter exit
        sys.stdout.flush()
        return status[0] or EXIT_OK
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_CLOSED_STDOUT
    except (ValueError, OSError, SequenceRangeError, DomainMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
