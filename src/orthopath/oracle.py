"""Brute-force ground truth for every path formula in this package.

Products of orthogonal polynomials are expanded directly in the p-basis
from the three-term recurrence, with no path combinatorics at all:
multiplication by x maps the basis vector e_t to

    alpha[t+1] e_{t+1} + beta[t] e_t + gamma[t-1] e_{t-1}

and the recurrence itself is run to build p_m * p_j (or p_m * p'_j)
iteratively.  Everything lives in the p-basis, never the monomial basis,
so the only divisions are by leading alpha coefficients; moments fall
out as the coefficient of p_0.  The moment functional is normalized by
mu_0 = 1 (any positive constant would cancel in the coefficients).

A BasisVector is a plain dict from basis index to a nonzero Scalar.

Each system keeps what the oracle has computed for it: the vectors
p_m * q_j for j = 0, 1, ... (one run of the recurrence serves every j)
and the moment sequence, both extended on demand.  Repeated queries
therefore cost a lookup, and ``moments(n)`` for n = 0..N walks the
multiplication-by-x chain once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .scalars import Scalar, format_scalar, scalar_div
from .systems import CoefficientSystem

BasisVector = Dict[int, Scalar]


def _acc(vec: BasisVector, idx: int, value: Scalar) -> None:
    new = vec.get(idx, 0) + value
    if new == 0:
        vec.pop(idx, None)
    else:
        vec[idx] = new


def multiply_by_x(vec: BasisVector, sys: CoefficientSystem) -> BasisVector:
    """Exact image of multiplication by x in the p-basis."""
    out: BasisVector = {}
    if not vec:
        return out
    if min(vec) < 0:
        raise ValueError("basis indices must be nonnegative")
    alpha, beta, gamma = sys.materialize(max(vec) + 1)
    for t, c in vec.items():
        _acc(out, t + 1, c * alpha[t + 1])
        _acc(out, t, c * beta[t])
        if t >= 1:
            _acc(out, t - 1, c * gamma[t - 1])
    return out


def _scale(vec: BasisVector, factor: Scalar) -> BasisVector:
    if factor == 0:
        return {}
    return {t: c * factor for t, c in vec.items()}


def _sub(a: BasisVector, b: BasisVector) -> BasisVector:
    out = dict(a)
    for t, c in b.items():
        _acc(out, t, -c)
    return out


def _product_vectors(
    m: int, top: int, sys: CoefficientSystem, primed: CoefficientSystem
) -> Tuple[BasisVector, ...]:
    """Vectors p_m * q_j for j = 0..top (or more), where q runs the
    ``primed`` recurrence and the expansion lives in the (unprimed) p-basis
    of ``sys``.  Kept on ``sys`` and extended on demand; never mutate them."""
    sys.require_range(m + top + 1)
    primed.require_range(top)
    # keyed by identity; the entry keeps primed alive (a system needs no
    # reference to itself) and is used only if it holds this very object
    memo = sys.memo()
    key = ("products", m, id(primed))
    owner = None if primed is sys else primed
    entry = memo.get(key)
    vecs: Tuple[BasisVector, ...] = (
        entry[1] if entry and entry[0] is owner else ({m: 1},)
    )
    if len(vecs) <= top:
        alpha, beta, gamma = primed.materialize(top)
        grown = list(vecs)
        for j in range(len(vecs) - 1, top):
            cur = grown[-1]
            nxt = _sub(multiply_by_x(cur, sys), _scale(cur, beta[j]))
            if j >= 1:
                nxt = _sub(nxt, _scale(grown[-2], gamma[j - 1]))
            nxt = {t: scalar_div(c, alpha[j + 1]) for t, c in nxt.items()}
            grown.append(nxt)
        vecs = tuple(grown)
        memo[key] = (owner, vecs)
    return vecs


@dataclass(frozen=True)
class LinearizationTable:
    """Expansion coefficients of one product, with the matching L-values.

    ``entries[target] = (coefficient, L_value)`` where
    L_value = coefficient * norm_squared(target); the support sits inside
    [|m - n|, m + n] for a same-family product.
    """

    m: int
    other: int
    other_primed: bool
    entries: Dict[int, Tuple[Scalar, Scalar]]

    def coefficient(self, target: int) -> Scalar:
        return self.entries.get(target, (0, 0))[0]

    def l_value(self, target: int) -> Scalar:
        return self.entries.get(target, (0, 0))[1]

    def rows(self) -> List[Tuple[int, str, str]]:
        return [
            (t, format_scalar(c), format_scalar(l))
            for t, (c, l) in sorted(self.entries.items())
        ]


def _table(
    m: int, other: int, primed: bool, vec: BasisVector, sys: CoefficientSystem
) -> LinearizationTable:
    # fill interior zeros so the table reads contiguously over the support
    if vec:
        lo, hi = min(vec), max(vec)
        targets = range(lo, hi + 1)
    else:
        targets = range(0)
    entries = {
        t: (vec.get(t, 0), vec.get(t, 0) * sys.norm_squared(t)) for t in targets
    }
    return LinearizationTable(m, other, primed, entries)


def expand_product(m: int, n: int, sys: CoefficientSystem) -> LinearizationTable:
    """p_m * p_n = sum over k of a[m,n;k] p_k, straight from the recurrence."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    vec = _product_vectors(m, n, sys, sys)[n]
    return _table(m, n, False, vec, sys)


def connection_expand(
    k_prime: int, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> BasisVector:
    """p'_{k'} expressed in the p-basis of ``sys``."""
    if k_prime < 0:
        raise ValueError("index must be nonnegative")
    return dict(_product_vectors(0, k_prime, sys, sys_prime)[k_prime])


def mixed_expand(
    m: int, k_prime: int, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> LinearizationTable:
    """p_m * p'_{k'} = sum over n of b[m,k';n] p_n."""
    if m < 0 or k_prime < 0:
        raise ValueError("indices must be nonnegative")
    vec = _product_vectors(m, k_prime, sys, sys_prime)[k_prime]
    return _table(m, k_prime, True, vec, sys)


def moments(n: int, sys: CoefficientSystem) -> Scalar:
    """The n-th moment mu_n = L(x^n), with mu_0 = 1."""
    if n < 0:
        raise ValueError("moment index must be nonnegative")
    memo = sys.memo()
    mus, vec = memo.get("moments", ((1,), {0: 1}))
    if len(mus) <= n:
        grown = list(mus)
        while len(grown) <= n:
            vec = multiply_by_x(vec, sys)
            grown.append(vec.get(0, 0))
        mus = tuple(grown)
        memo["moments"] = (mus, vec)
    return mus[n]


def triple_product_value(m: int, n: int, k: int, sys: CoefficientSystem) -> Scalar:
    """L(p_m p_n p_k), fully symmetric in its three indices."""
    if k < 0:
        raise ValueError("indices must be nonnegative")
    return expand_product(m, n, sys).coefficient(k) * sys.norm_squared(k)


def mixed_product_value(
    m: int,
    n: int,
    k_prime: int,
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
) -> Scalar:
    """L(p_m p_n p'_{k'}), symmetric in the two unprimed indices."""
    if n < 0:
        raise ValueError("indices must be nonnegative")
    return mixed_expand(m, k_prime, sys, sys_prime).coefficient(n) * sys.norm_squared(n)
