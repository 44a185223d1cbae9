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

Output is deterministic byte-for-byte for identical inputs.  ``--format
records`` emits one JSON object per line with stable field names; the
default is an aligned text table.  Exit status: 0 success, 1 when a
verification mismatch (or a certificate contradicting its hypothesis
report) was found, 2 for invalid input or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, List, Optional, Sequence

from . import oracle
from .paths import enumerate_paths
from .positivity import (
    check_dominance,
    check_monic_monotone,
    check_parity_dominance,
    certify_mixed,
    certify_monic,
    required_window,
)
from .scalars import (
    DomainMismatchError,
    UnsupportedDomainError,
    format_scalar,
    scalar_div,
    scalar_sum,
)
from .systems import (
    CoefficientSystem,
    SequenceRangeError,
    SymbolicSeq,
    load_system,
    monic_b_lambda,
    monic_system,
)
from .weights import (
    dp_sum,
    mixed_prefactor,
    monic_formula,
    monic_prefactor,
    path_sum_mixed,
    path_sum_monic,
    path_weight_merged,
    path_weight_mixed,
    path_weight_monic,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2


def _emit_table(rows: List[Sequence[str]], header: Sequence[str]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header).rstrip())
    for row in rows:
        print(fmt.format(*row).rstrip())


def _emit_records(records: Iterable[dict]) -> None:
    for rec in records:
        print(json.dumps(rec, sort_keys=True))


def _load(args: argparse.Namespace) -> CoefficientSystem:
    if not args.system:
        raise ValueError("--system FILE is required for this command")
    return load_system(args.system)


def _load_prime(args: argparse.Namespace, fallback: CoefficientSystem) -> CoefficientSystem:
    if getattr(args, "system_prime", None):
        return load_system(args.system_prime)
    return fallback


# -- lincoef ---------------------------------------------------------------

def _path_totals(args: argparse.Namespace, sys_: CoefficientSystem):
    """k -> L(p_m p_n p_k) as prefactor times the DP path sum.  Monic: the
    system is checked as monic up to m + n + 1, the indices the product
    involves.  Mixed: p_m * p'_n with the system as its own second family."""
    m, n = args.m, args.n
    if args.method == "monic":
        _, lam = monic_b_lambda(sys_, m + n + 1)
        return lambda k: monic_prefactor(n, lam) * dp_sum(m, n, k, "monic", sys_)
    return lambda k: mixed_prefactor(m, n, sys_, sys_) * dp_sum(m, k, n, "mixed", sys_, sys_)


def _cmd_lincoef(args: argparse.Namespace) -> int:
    sys_ = _load(args)
    table = oracle.expand_product(args.m, args.n, sys_)
    if args.method == "oracle":
        entries = {k: (c, l) for k, c, l in table.rows()}
    else:
        total_at = _path_totals(args, sys_)
        entries = {}
        for k in sorted(table.entries):
            total = total_at(k)
            entries[k] = (
                format_scalar(scalar_div(total, sys_.norm_squared(k))),
                format_scalar(total),
            )
    label = f"a[{args.m},{args.n}]^k"
    if args.format == "records":
        _emit_records(
            {
                "command": "lincoef",
                "m": args.m,
                "n": args.n,
                "k": k,
                "coefficient": c,
                "l_value": l,
            }
            for k, (c, l) in sorted(entries.items())
        )
    else:
        rows = [(str(k), c, l) for k, (c, l) in sorted(entries.items())]
        _emit_table(rows, ("k", label, f"L(p{args.m}*p{args.n}*pk)"))
    return EXIT_OK


# -- connect ---------------------------------------------------------------

def _cmd_connect(args: argparse.Namespace) -> int:
    sys_ = _load(args)
    prime = _load_prime(args, sys_)
    table = oracle.mixed_expand(args.m, args.k, sys_, prime)
    if args.format == "records":
        _emit_records(
            {
                "command": "connect",
                "m": args.m,
                "k_prime": args.k,
                "n": n,
                "coefficient": c,
                "l_value": l,
            }
            for n, c, l in table.rows()
        )
    else:
        rows = [(str(n), c, l) for n, c, l in table.rows()]
        _emit_table(
            rows, ("n", f"b[{args.m},{args.k}']^n", f"L(p{args.m}*p'{args.k}*pn)")
        )
    return EXIT_OK


# -- verify ----------------------------------------------------------------

# Each instance enumerates and weighs its census once.  The informational
# routes reuse those weights: the strict census is the subset of the
# boundary-dip census that stays on the axis, and the k-indexed prefactor
# multiplies the same weight sum.  The binding routes stay independent:
# the DP reads no enumeration result, the oracle reads neither, and one
# oracle expansion serves every target k (or n) of its product.

def _verify_monic_records(sys_: CoefficientSystem, top: int) -> Iterable[dict]:
    b, lam = monic_b_lambda(sys_, 2 * top + 2)
    for m in range(top + 1):
        for n in range(top + 1):
            table = oracle.expand_product(m, n, sys_)
            for k in range(top + 1):
                # triple_product_value(m, n, k)
                want = table.coefficient(k) * sys_.norm_squared(k)
                res = path_sum_monic(m, n, k, b, lam)
                dp = res.prefactor * dp_sum(m, n, k, "monic", sys_)
                strict = res.prefactor * scalar_sum(
                    w for path, w in res.per_path.items() if path.is_standard()
                )
                base = {"method": "monic", "m": m, "n": n, "k": k,
                        "oracle": format_scalar(want)}
                yield dict(base, route="oracle", value=format_scalar(want),
                           match=True)
                yield dict(base, route="enumeration",
                           value=format_scalar(res.total),
                           match=res.total == want)
                yield dict(base, route="dp", value=format_scalar(dp),
                           match=dp == want)
                yield dict(base, route="strict-paths",
                           value=format_scalar(strict),
                           match=strict == want)


def _verify_mixed_records(
    sys_: CoefficientSystem, prime: CoefficientSystem, top: int
) -> Iterable[dict]:
    for m in range(top + 1):
        tables = {}
        for n in range(top + 1):
            for k in range(top + 1):
                if k not in tables:
                    tables[k] = oracle.mixed_expand(m, k, sys_, prime)
                # mixed_product_value(m, n, k)
                want = tables[k].coefficient(n) * sys_.norm_squared(n)
                res = path_sum_mixed(m, n, k, sys_, prime)
                dp = res.prefactor * dp_sum(m, n, k, "mixed", sys_, prime)
                alt = mixed_prefactor(
                    m, k, sys_, prime, k_indexed_prefactor=True
                ) * res.weight_sum
                base = {"method": "mixed", "m": m, "n": n, "k": k,
                        "oracle": format_scalar(want)}
                yield dict(base, route="oracle", value=format_scalar(want),
                           match=True)
                yield dict(base, route="enumeration",
                           value=format_scalar(res.total),
                           match=res.total == want)
                yield dict(base, route="dp", value=format_scalar(dp),
                           match=dp == want)
                yield dict(base, route="k-indexed-prefactor",
                           value=format_scalar(alt),
                           match=alt == want)


# Routes that bind the exit status.  The strict path census and the
# k-indexed prefactor are informational: they are reported precisely
# because they disagree with the oracle on boundary instances.
_BINDING_ROUTES = ("enumeration", "dp")

_VERIFY_WIDTHS = (12, 6, 20, 24, 24, 8)
_VERIFY_HEADER = ("instance", "method", "route", "value", "oracle", "match")


def _verify_row(rec: dict) -> tuple:
    return (
        f"({rec['m']},{rec['n']},{rec['k']})",
        rec["method"],
        rec["route"],
        rec["value"],
        rec["oracle"],
        "ok" if rec["match"] else "MISMATCH",
    )


def _require_nonnegative_max(args: argparse.Namespace) -> None:
    # an empty range would pass vacuously
    if args.max < 0:
        raise ValueError(f"--max must be nonnegative, got {args.max}")


def _cmd_verify(args: argparse.Namespace) -> int:
    _require_nonnegative_max(args)
    sys_ = _load(args)

    def streams() -> Iterable[dict]:
        if args.method in ("monic", "all"):
            yield from _verify_monic_records(sys_, args.max)
        if args.method in ("mixed", "all"):
            prime = _load_prime(args, sys_)
            yield from _verify_mixed_records(sys_, prime, args.max)

    # streamed instance by instance so long sweeps stay inspectable
    mismatch = False
    total = good = 0
    table = args.format == "table"
    if table:
        fmt = "  ".join(f"{{:<{w}}}" for w in _VERIFY_WIDTHS)
        print(fmt.format(*_VERIFY_HEADER).rstrip())
    for rec in streams():
        if rec["route"] in _BINDING_ROUTES:
            total += 1
            good += rec["match"]
            mismatch = mismatch or not rec["match"]
        if table:
            print(fmt.format(*_verify_row(rec)).rstrip())
        else:
            print(json.dumps(rec, sort_keys=True))
    if table:
        print(f"binding checks: {good}/{total} matched")
    return EXIT_MISMATCH if mismatch else EXIT_OK


# -- positivity --------------------------------------------------------------

def _cmd_positivity(args: argparse.Namespace) -> int:
    sys_ = _load(args)
    prime = load_system(args.system_prime) if args.system_prime else None
    if args.max is not None:
        instances = [
            (m, n, k)
            for m in range(args.max + 1)
            for n in range(args.max + 1)
            for k in range(args.max + 1)
        ]
    else:
        if args.m is None or args.n is None or args.k is None:
            raise ValueError("positivity needs --m/--n/--k or --max")
        instances = [(args.m, args.n, args.k)]
    needed = max(required_window(*inst) for inst in instances)
    window = args.window
    if window is None:
        window = needed
    elif window < needed:
        raise ValueError(
            f"window {window} is too small for the requested instances; "
            f"indices up to {needed} are needed"
        )

    if prime is None:
        b, lam = monic_b_lambda(sys_, window + 1)
        reports = [check_monic_monotone(b, lam, window, strict=args.strict)]
        certify = lambda m, n, k: certify_monic(m, n, k, b, lam)
        guaranteed = lambda m, n, k: reports[0].holds
    else:
        reports = [
            check_dominance(sys_, prime, window, strict=args.strict),
            check_parity_dominance(sys_, prime, window, strict=args.strict),
        ]
        certify = lambda m, n, k: certify_mixed(m, n, k, sys_, prime)
        # only dominance binds the exit status; the parity-dominance
        # report (reports[1]) is printed for information
        guaranteed = lambda m, n, k: reports[0].holds and k <= max(m, n)

    as_records = args.format == "records"
    for rep in reports:
        _emit_report(rep, as_records)
    # certificates stream instance by instance
    unsound = False
    for m, n, k in instances:
        cert = certify(m, n, k)
        if guaranteed(m, n, k) and not cert.all_nonnegative:
            unsound = True
        rec = _cert_record(cert, reports[0], monic=prime is None)
        if as_records:
            print(json.dumps(rec, sort_keys=True))
        else:
            inst = rec["instance"]
            print(
                f"instance (m,n,k)=({inst[0]},{inst[1]},{inst[2]})"
                f" oriented {tuple(rec['oriented'])}:"
                f" {'all nonnegative' if rec['all_nonnegative'] else 'NEGATIVE WEIGHT'}"
                f"  sum={rec['weight_sum']}"
            )
            for row in rec["paths"]:
                print(f"  {row['path']}  {row['formula']} = {row['weight']}  {row['sign']}")
    return EXIT_MISMATCH if unsound else EXIT_OK


def _emit_report(rep, as_records: bool) -> None:
    if as_records:
        print(
            json.dumps(
                {
                    "kind": "hypothesis",
                    "rule": rep.rule,
                    "window": rep.window,
                    "strict": rep.strict,
                    "holds": rep.holds,
                    "violations": [
                        {
                            "name": v.name,
                            "i": v.i,
                            "j": v.j,
                            "value_i": format_scalar(v.value_i),
                            "value_j": format_scalar(v.value_j),
                        }
                        for v in rep.violations
                    ],
                },
                sort_keys=True,
            )
        )
        return
    state = "holds" if rep.holds else "FAILS"
    print(f"rule {rep.rule} over window 0..{rep.window}"
          f"{' (strict)' if rep.strict else ''}: {state}")
    for v in rep.violations:
        print(
            f"  violated {v.name} at i={v.i}, j={v.j}: "
            f"{format_scalar(v.value_i)} vs {format_scalar(v.value_j)}"
        )


def _cert_record(cert, report, monic: bool) -> dict:
    rows = []
    for path, w, s in cert.rows:
        formula = monic_formula(path) if monic else str(path)
        rows.append(
            {
                "path": str(path),
                "formula": formula,
                "weight": format_scalar(w),
                "sign": "+" if s > 0 else ("0" if s == 0 else "-"),
            }
        )
    return {
        "kind": "certificate",
        "instance": list(cert.instance),
        "oriented": list(cert.oriented),
        "all_nonnegative": cert.all_nonnegative,
        "hypothesis_holds": report.holds,
        "required_window": required_window(*cert.instance),
        "weight_sum": format_scalar(cert.weight_sum),
        "paths": rows,
    }


# -- paths -------------------------------------------------------------------

def _cmd_paths(args: argparse.Namespace) -> int:
    generalized = bool(args.system_prime) or args.generalized
    found = enumerate_paths(args.m, args.n, args.k, allow_hh=generalized)
    weights: List[Optional[str]] = [None] * len(found)
    if args.system and args.system_prime:
        sys_ = load_system(args.system)
        prime = load_system(args.system_prime)
        fn = path_weight_merged if args.method == "merged" else path_weight_mixed
        weights = [format_scalar(fn(p, sys_, prime)) for p in found]
    elif args.system:
        sys_ = load_system(args.system)
        b, lam = monic_b_lambda(sys_, args.m + args.n + args.k + 2)
        weights = [format_scalar(path_weight_monic(p, b, lam)) for p in found]
    if args.format == "records":
        _emit_records(
            {
                "command": "paths",
                "m": args.m,
                "n": args.n,
                "k": args.k,
                "path": str(p),
                **({"weight": w} if w is not None else {}),
            }
            for p, w in zip(found, weights)
        )
    else:
        if any(w is not None for w in weights):
            _emit_table(
                [(str(p), w or "") for p, w in zip(found, weights)],
                ("path", "weight"),
            )
        else:
            for p in found:
                print(str(p))
        print(f"{len(found)} path(s)")
    return EXIT_OK


# -- moments -----------------------------------------------------------------

def _cmd_moments(args: argparse.Namespace) -> int:
    _require_nonnegative_max(args)
    sys_ = _load(args)
    rows = [
        (str(n), format_scalar(oracle.moments(n, sys_)))
        for n in range(args.max + 1)
    ]
    if args.format == "records":
        _emit_records(
            {"command": "moments", "n": int(n), "mu": mu} for n, mu in rows
        )
    else:
        _emit_table(rows, ("n", "mu_n"))
    return EXIT_OK


# -- symbolic ----------------------------------------------------------------

def _cmd_symbolic(args: argparse.Namespace) -> int:
    b = SymbolicSeq("b")
    lam = SymbolicSeq("l")
    res = path_sum_monic(args.m, args.n, args.k, b, lam)
    coeff = oracle.expand_product(
        args.m, args.n, monic_system(b, lam)
    ).coefficient(args.k)
    if args.format == "records":
        recs = [
            {
                "command": "symbolic",
                "m": args.m,
                "n": args.n,
                "k": args.k,
                "path": str(p),
                "weight": format_scalar(w),
            }
            for p, w in res.per_path.items()
        ]
        recs.append(
            {
                "command": "symbolic",
                "m": args.m,
                "n": args.n,
                "k": args.k,
                "weight_sum": format_scalar(res.weight_sum),
                "prefactor": format_scalar(res.prefactor),
                "total": format_scalar(res.total),
                "coefficient": format_scalar(coeff),
            }
        )
        _emit_records(recs)
    else:
        _emit_table(
            [(str(p), format_scalar(w)) for p, w in res.per_path.items()],
            ("path", "weight"),
        )
        print(f"sum over paths = {format_scalar(res.weight_sum)}")
        print(f"prefactor = {format_scalar(res.prefactor)}")
        print(f"L(p{args.m}*p{args.n}*p{args.k}) = {format_scalar(res.total)}")
        print(f"coefficient a[{args.m},{args.n}]^{args.k} = {format_scalar(coeff)}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthopath",
        description="Exact path expansions of orthogonal-polynomial products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, system: bool = True) -> None:
        if system:
            p.add_argument("--system", help="coefficient system JSON file")
            p.add_argument("--system-prime", help="second-family JSON file")
        p.add_argument(
            "--format", choices=("table", "records"), default="table"
        )

    p = sub.add_parser("lincoef", help="expansion table of p_m * p_n")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("oracle", "monic", "mixed"), default="oracle")
    p.set_defaults(func=_cmd_lincoef)

    p = sub.add_parser("connect", help="expansion table of p_m * p'_k")
    common(p)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("verify", help="cross-check path formulas vs the oracle")
    common(p)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--method", choices=("monic", "mixed", "all"), default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("positivity", help="hypothesis reports and certificates")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--max", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_positivity)

    p = sub.add_parser("paths", help="enumerate (optionally weighted) paths")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--generalized", action="store_true",
                   help="include the two-unit across step")
    p.add_argument("--method", choices=("mixed", "merged"), default="mixed")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("moments", help="moment sequence of a system")
    common(p)
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("symbolic", help="symbolic monic product expansion")
    common(p, system=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_symbolic)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        KeyError,
        OSError,
        SequenceRangeError,
        DomainMismatchError,
        UnsupportedDomainError,
        ZeroDivisionError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
