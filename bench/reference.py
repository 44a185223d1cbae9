"""Independent reference values for the benchmark's correctness checks.

Nothing here imports orthopath.  The recurrences run in the monomial
basis of x, whereas the library's oracle works in the p-basis and its
path routes sum weighted Motzkin paths, so agreement is a real check:

* ``expansion``: p_m * q_j written in the p-basis by peeling off leading
  terms, with q the same or a second family (lincoef / connect);
* ``moments``: mu_0..mu_N from L(p_k) = 0 for k >= 1, solved
  triangularly in the monomial coefficients of p_1..p_N;
* ``parse_poly`` / ``times_lambdas``: a minimal reader for the CLI's
  rendering of symbolic polynomials, enough to check
  L(p_m p_n p_k) = a[m,n;k] * l1...lk.

A system is a dict of three lists of ``Fraction`` (``alpha``, ``beta``,
``gamma``), indexed as in the system file.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Tuple


def explicit_values(spec: dict) -> Dict[str, List[Fraction]]:
    """The coefficient lists of a system file whose sequences are explicit."""
    return {
        name: [Fraction(v) for v in spec[name]["values"]]
        for name in ("alpha", "beta", "gamma")
    }


def _basis(sys: Dict[str, List[Fraction]], top: int) -> List[List[Fraction]]:
    """Monomial coefficients of p_0..p_top from the three-term recurrence."""
    a, b, g = sys["alpha"], sys["beta"], sys["gamma"]
    polys: List[List[Fraction]] = [[Fraction(1)]]
    for n in range(top):
        cur = polys[-1]
        nxt = [Fraction(0)] + cur  # x * p_n
        for i, c in enumerate(cur):
            nxt[i] -= b[n] * c
        if n >= 1:
            for i, c in enumerate(polys[-2]):
                nxt[i] -= g[n - 1] * c
        polys.append([c / a[n + 1] for c in nxt])
    return polys


def _multiply(p: List[Fraction], q: List[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def norm_squared(sys: Dict[str, List[Fraction]], k: int) -> Fraction:
    """gamma[0]..gamma[k-1] / (alpha[1]..alpha[k])."""
    value = Fraction(1)
    for i in range(k):
        value = value * sys["gamma"][i] / sys["alpha"][i + 1]
    return value


def expansion(
    m: int, j: int, sys: Dict[str, List[Fraction]], second=None
) -> Dict[int, Tuple[Fraction, Fraction]]:
    """target -> (coefficient, L-value) of p_m * q_j in the p-basis of ``sys``.

    ``second`` is the family of q (default: ``sys`` itself).  Only nonzero
    coefficients are returned.
    """
    ps = _basis(sys, m + j)
    q = _basis(second or sys, j)[j]
    rest = _multiply(ps[m], q)
    out: Dict[int, Tuple[Fraction, Fraction]] = {}
    for k in range(len(rest) - 1, -1, -1):
        c = rest[k] / ps[k][k]
        if c:
            for i, v in enumerate(ps[k]):
                rest[i] -= c * v
            out[k] = (c, c * norm_squared(sys, k))
    return out


def moments(top: int, sys: Dict[str, List[Fraction]]) -> List[Fraction]:
    """mu_0..mu_top with mu_0 = 1."""
    ps = _basis(sys, top)
    mu = [Fraction(1)]
    for k in range(1, top + 1):
        p = ps[k]
        mu.append(-sum(p[i] * mu[i] for i in range(k)) / p[k])
    return mu


# -- symbolic rendering ------------------------------------------------------

Monomial = Tuple[Tuple[str, int], ...]
_FACTOR = re.compile(r"^([a-z]+'?\d+)(?:\^(\d+))?$")


def parse_poly(text: str) -> Dict[Monomial, int]:
    """Read ``-2*b3^2*l4 + l1 - 5`` into {((name, exponent), ...): coeff}."""
    out: Dict[Monomial, int] = {}
    for raw in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        coeff = -1 if raw.startswith("-") else 1
        exps: Dict[str, int] = {}
        for factor in raw.lstrip("+-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            match = _FACTOR.match(factor)
            if not match:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            exps[match.group(1)] = exps.get(match.group(1), 0) + int(match.group(2) or 1)
        mono = tuple(sorted(exps.items()))
        out[mono] = out.get(mono, 0) + coeff
    return {mono: c for mono, c in out.items() if c}


def times_lambdas(poly: Dict[Monomial, int], k: int) -> Dict[Monomial, int]:
    """poly * l1 * l2 * ... * lk."""
    out = {}
    for mono, c in poly.items():
        exps = dict(mono)
        for i in range(1, k + 1):
            exps[f"l{i}"] = exps.get(f"l{i}", 0) + 1
        out[tuple(sorted(exps.items()))] = c
    return out
