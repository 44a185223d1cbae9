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

A BasisVector is a plain dict from basis index to a nonzero Scalar; the
public functions take and return those.  Internally the walks carry each
vector in scaled form: a dict of numerators and one positive ``int``
denominator, with the system's coefficients likewise scaled to integer
numerators over one denominator per system (fraction-free elimination,
as in Bareiss 1968), the integer form of ``systems._scaled`` that the
transfer-matrix DP reads too, each sequence of degree 1.  One recurrence
step, :func:`_step`, brings ``x*v``, ``beta'[j]*v`` and
``gamma'[j-1]*v_prev`` to their common denominator in one pass over the
vectors, folds the division by ``alpha'[j+1]`` into the denominator with
its sign made positive, and then reduces the denominator and every
numerator by their gcd, once per step.  Every divisor is checked there,
before the step is computed, so a zero ``alpha'[j+1]`` is an error even
where the vector cancels to nothing.  ``Fraction`` values are built only
for what callers read: the entries of a vector, a moment, and each
L-value of a table.  A rational table reads its L-values off the
prefix products G_t = gamma[0]...gamma[t-1] and A_t = alpha[1]...alpha[t]
of the scaled coefficients its walk used, one ``Fraction`` num_t * G_t /
(den * A_t) per target (D cancels: both products have t factors), where
the plain rule multiplies each coefficient by ``norm_squared(t)``.

When either system is symbolic, the numerators are the scalars themselves
(``Poly`` or ``int``) over denominator 1, and each division by
``alpha'[j+1]`` is a ``scalar_div`` of every entry, so the step performs
exactly the scalar operations of the plain recurrence, in the same order,
and a mixed symbolic/numeric pair raises the same errors.  A zero divisor
is checked in this domain too, where the vector is empty.  Its tables
keep the plain rule, coefficient times ``norm_squared(t)``.

Each system keeps what the oracle has computed for it, in scaled form:
the vectors p_m * q_j for j = 0, 1, ... (one run of the recurrence serves
every j) and the moment sequence, both extended on demand.  Repeated
queries therefore cost a lookup, and ``moments(n)`` for n = 0..N walks
the multiplication-by-x chain once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Dict, List, NamedTuple, Tuple

from .scalars import Record, Scalar, format_scalar, scalar_div
from .systems import CoefficientSystem, SequenceRangeError, _scaled

BasisVector = Dict[int, Scalar]

# A vector in scaled form: numerators by basis index, and one positive
# denominator (always 1 in the symbolic domain).  Never mutated.
_Scaled = Tuple[Dict[int, Scalar], int]
_ZERO: _Scaled = ({}, 1)


class _Coefficients(NamedTuple):
    """A system's alpha, beta and gamma as numerators over one ``den``:
    integers when ``numeric``, else the materialized scalars over 1.  A
    placeholder raises when a step uses it."""

    alpha: Tuple[Scalar, ...]
    beta: Tuple[Scalar, ...]
    gamma: Tuple[Scalar, ...]
    den: int
    numeric: bool


def _coefficients(sys: CoefficientSystem, top: int, numeric: bool) -> _Coefficients:
    """sys's coefficients over 0..top (or more), scaled when ``numeric``."""
    coeffs = sys.materialize(top)
    if not numeric:
        return _Coefficients(*coeffs, 1, False)
    scaled, den = _scaled(sys, coeffs, (1, 1, 1))
    return _Coefficients(*scaled, den, True)


def _step(
    cur: _Scaled,
    prev: _Scaled,
    coeffs: _Coefficients,
    b: Scalar = 0,
    g: Scalar = 0,
    a: Scalar = 1,
) -> _Scaled:
    """One recurrence step: ``(x*v - b*v - g*v_prev) / a`` in scaled form,
    with x acting through ``coeffs``.  With b = g = 0 and a = 1 it is
    multiplication by x.

    Entries are accumulated, and dropped when they cancel, in the order the
    plain recurrence visits them (x*v by index of v, then b*v, then
    g*v_prev), so an index outside a sequence raises where it would there.
    """
    nums, den = cur
    alpha, beta, gamma, scale, numeric = coeffs
    fx = 1
    if numeric:
        if a == 0:
            raise ValueError("division by zero coefficient")
        # x*v is over den*scale, b*v over den*b.den and g*v_prev over
        # prev_den*g.den: bring all three to `common`, times a's denominator;
        # a's numerator joins the denominator after the pass
        common = lcm(den * scale, den * b.denominator, prev[1] * g.denominator if g else 1)
        fx = common // (den * scale) * a.denominator
        b = b.numerator * (common // (den * b.denominator)) * a.denominator
        g = g.numerator * (common // (prev[1] * g.denominator)) * a.denominator
    # each term goes into ``out`` where it is made, in the order above; an
    # entry that cancels is dropped at once, so a later term for it enters
    # at the end
    out: Dict[int, Scalar] = {}
    get, pop = out.get, out.pop
    for t, c in nums.items():
        if fx != 1:
            c = c * fx
        up, down = t + 1, t - 1
        new = get(up, 0) + c * alpha[up]
        if new:
            out[up] = new
        else:
            pop(up, None)
        new = get(t, 0) + c * beta[t]
        if new:
            out[t] = new
        else:
            pop(t, None)
        if t:
            new = get(down, 0) + c * gamma[down]
            if new:
                out[down] = new
            else:
                pop(down, None)
    for vec, by in ((nums, b), (prev[0], g)):
        if by != 0:
            for t, c in vec.items():
                new = get(t, 0) - c * by
                if new:
                    out[t] = new
                else:
                    pop(t, None)
    if not numeric:
        if not out and a == 0:
            raise ValueError("division by zero coefficient")
        if a != 1:
            out = {t: scalar_div(c, a) for t, c in out.items()}
        return out, 1
    den = common * a.numerator
    div = gcd(den, *out.values())
    if den < 0:
        div = -div
    if div != 1:
        out = {t: c // div for t, c in out.items()}
        den //= div
    return out, den


def _value(c: Scalar, den: int) -> Scalar:
    return c if den == 1 else Fraction(c, den)


def _values(vec: _Scaled) -> BasisVector:
    """The scalars of a scaled vector."""
    nums, den = vec
    return {t: _value(c, den) for t, c in nums.items()}


def multiply_by_x(vec: BasisVector, sys: CoefficientSystem) -> BasisVector:
    """Exact image of multiplication by x in the p-basis."""
    if not vec:
        return {}
    if min(vec) < 0:
        raise ValueError("basis indices must be nonnegative")
    numeric = not sys.is_symbolic and all(
        isinstance(c, (int, Fraction)) for c in vec.values()
    )
    if numeric:
        den = lcm(*(c.denominator for c in vec.values()))
        scaled = ({t: c.numerator * (den // c.denominator) for t, c in vec.items()}, den)
    else:
        scaled = (dict(vec), 1)
    return _values(_step(scaled, _ZERO, _coefficients(sys, max(vec) + 1, numeric)))


def _product_vectors(
    m: int, top: int, sys: CoefficientSystem, primed: CoefficientSystem
) -> Tuple[_Scaled, ...]:
    """Vectors p_m * q_j for j = 0..top (or more), in scaled form, where q
    runs the ``primed`` recurrence and the expansion lives in the
    (unprimed) p-basis of ``sys``.  Kept on ``sys`` and extended on
    demand; never mutate them.  Both systems are first probed for
    exactly the coefficients the walk reads."""
    sys.require_range(m + top)
    primed.require_range(top)
    # keyed by identity; the entry keeps primed alive (a system needs no
    # reference to itself) and is used only if it holds this very object
    memo = sys.memo()
    key = ("products", m, id(primed))
    owner = None if primed is sys else primed
    entry = memo.get(key)
    vecs: Tuple[_Scaled, ...] = (
        entry[1] if entry and entry[0] is owner else (({m: 1}, 1),)
    )
    if len(vecs) <= top:
        numeric = not (sys.is_symbolic or primed.is_symbolic)
        coeffs = _coefficients(sys, m + top + 1, numeric)
        alpha, beta, gamma = primed.materialize(top)
        grown = list(vecs)
        for j in range(len(vecs) - 1, top):
            prev, g = (grown[-2], gamma[j - 1]) if j else (_ZERO, 0)
            grown.append(_step(grown[-1], prev, coeffs, beta[j], g, alpha[j + 1]))
        vecs = tuple(grown)
        memo[key] = (owner, vecs)
    return vecs


class LinearizationTable(Record):
    """Expansion coefficients of one product, with the matching L-values.

    ``entries[target] = (coefficient, L_value)`` where
    L_value = coefficient * norm_squared(target); the support sits inside
    [|m - n|, m + n] for a same-family product.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Dict[int, Tuple[Scalar, Scalar]]) -> None:
        object.__setattr__(self, "entries", entries)

    def coefficient(self, target: int) -> Scalar:
        return self.entries.get(target, (0, 0))[0]

    def rows(self) -> List[Tuple[int, str, str]]:
        return [
            (t, format_scalar(c), format_scalar(l))
            for t, (c, l) in sorted(self.entries.items())
        ]


def _table(vec: _Scaled, sys: CoefficientSystem, numeric: bool) -> LinearizationTable:
    """The table of a scaled vector over the p-basis of ``sys``.  A numeric
    vector's L-values are read off the prefix products G_t and A_t of the
    system's scaled gamma and alpha: num_t * G_t / (den * A_t), one
    ``Fraction`` for each target."""
    nums, den = vec
    if not nums:
        return LinearizationTable({})
    # fill interior zeros so the table reads contiguously over the support
    targets = range(min(nums), max(nums) + 1)
    if not numeric:
        return LinearizationTable(
            {t: (nums.get(t, 0), nums.get(t, 0) * sys.norm_squared(t)) for t in targets})
    top = targets[-1]
    alpha, _, gamma, _, _ = _coefficients(sys, top, True)
    try:
        gammas = list(accumulate(gamma[:top], mul, initial=1))
        alphas = list(accumulate(alpha[1 : top + 1], mul, initial=1))
    except SequenceRangeError:
        for t in targets:
            sys.norm_squared(t)  # the first target whose norm raises, raises
        raise
    # A_t is a prefix product: zero at the last target when at any
    if not alphas[top]:
        raise ValueError("division by zero coefficient")
    entries = {}
    for t in targets:
        c = nums.get(t, 0)
        entries[t] = (_value(c, den), Fraction(c * gammas[t], den * alphas[t])) if c else (0, 0)
    return LinearizationTable(entries)


def expand_product(m: int, n: int, sys: CoefficientSystem) -> LinearizationTable:
    """p_m * p_n = sum over k of a[m,n;k] p_k, straight from the recurrence."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return _table(_product_vectors(m, n, sys, sys)[n], sys, not sys.is_symbolic)


def connection_expand(
    k_prime: int, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> BasisVector:
    """p'_{k'} expressed in the p-basis of ``sys``."""
    if k_prime < 0:
        raise ValueError("index must be nonnegative")
    return _values(_product_vectors(0, k_prime, sys, sys_prime)[k_prime])


def mixed_expand(
    m: int, k_prime: int, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> LinearizationTable:
    """p_m * p'_{k'} = sum over n of b[m,k';n] p_n."""
    if m < 0 or k_prime < 0:
        raise ValueError("indices must be nonnegative")
    vec = _product_vectors(m, k_prime, sys, sys_prime)[k_prime]
    return _table(vec, sys, not (sys.is_symbolic or sys_prime.is_symbolic))


def moments(n: int, sys: CoefficientSystem) -> Scalar:
    """The n-th moment mu_n = L(x^n), with mu_0 = 1."""
    if n < 0:
        raise ValueError("moment index must be nonnegative")
    memo = sys.memo()
    mus, vec = memo.get("moments", ((1,), ({0: 1}, 1)))
    if len(mus) <= n:
        coeffs = _coefficients(sys, n, not sys.is_symbolic)
        grown = list(mus)
        while len(grown) <= n:
            vec = _step(vec, _ZERO, coeffs)
            grown.append(_value(vec[0].get(0, 0), vec[1]))
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
