"""Edge-weight systems and path sums for products of orthogonal polynomials.

Two weighted path expansions are implemented, plus the machinery of
their combinatorial proofs:

* the monic expansion: L(p_m p_n p_k) = lam[1]..lam[n] * sum over plain
  Motzkin paths (0,m) -> (k,n) of a product of edge weights;
* the two-family expansion: L(p_m p_n p'_k) = prefactor * sum over
  generalized Motzkin paths (0,m) -> (k,n) of edge weights.

Weight tables
-------------

Each weight system is one table: a rule that gives an edge's factor from
the context the previous step left, the step, and the edge's start
vertex (x, level).  Everything else is derived from the tables: the
per-path fold behind ``path_weight_*``, the transfer-matrix DP behind
``dp_sum``, the monomial choices of ``make_term`` and ``expand_choices``,
and the certificate formula text of ``monic_formula``.  The first edge
sees no context; after the last edge the rule is asked once more, with
no step, for a closing factor.

Monic (context: "the previous step was D"), for an edge at (x, j):

    H                     (b[j] - b[x])
    U                     1
    D                     1; its factor is paid by its follower:
    after a D: U          (lam[j+1] - lam[x])
               H          lam[j+1] * (b[j] - b[x])
               D          lam[j+1]
               the end    lam[j+1]

so a D at (i, j) contributes (lam[j] - lam[i+1]) when a U follows it
and lam[j] otherwise.  The table reads lam[0] as 0, which makes the
boundary dip (a D,U from level 0, inserted by a merged domino) the
ordinary D-then-U rule, -lam[x].

Two-family (context: the previous step if it was U or D); an edge's
factor is the sum of its tagged monomials:

    edge  tag     monomial
    H     H       (beta[j] - beta'[x])
    U     U:g     gamma[j]
          U:-a'   -alpha'[x]                 after a D only
    D     D:a     alpha[j]
          D:-a'   -alpha'[x]                 after a U only
    HH    HH:a    alpha[j] * alpha'[x+1]     at level j >= 1 only
          HH:g    gamma[j] * alpha'[x+1]
          HH:-a'  -alpha'[x] * alpha'[x+1]   after a U or D only
          HH:-g'  -gamma'[x] * alpha'[x+1]

(alpha[0] = 0 by the system convention, so HH:a does not exist at level
0.)  The sign-reversing involution is four pairings (``_PAIRINGS``),
each of a marked HH choice with the U,D or D,U pair it splits into; the
marked choices (U:-a', D:-a', HH:a, HH:g, HH:-a') are the HH choices and
the last of each pair.  Merged: the fixed points, the same monomials with
the marked tags dropped, so H (beta[j] - beta'[x]), U gamma[j], D alpha[j]
and HH -gamma'[x] * alpha'[x+1], whatever the context.

Count: every factor is 1, over plain paths.

Each table is built once per system (or system pair) and kept on the
instance, like ``materialize``: its coefficients extend on demand, and
the per-path fold computes each factor once per (context, step, x,
level).  The DP meets each factor once per call and reads the rule
directly, so a long DP leaves no factors behind.

One walk for every length
-------------------------

``orthopath verify`` needs every (m, n, k) up to a top T, so it walks
once per (m, n) and reads the walk at each k <= T.  The census walk
(``monic_census``, ``mixed_census``) is one depth-first walk over path
prefixes from (0, m), pruned to those that can still end at level n by
length T.  Each prefix carries its running product through the fold's
factor memo, so every path (0, m) -> (k, n) is met once, in
``enumerate_paths``' order, and weighed exactly as ``_fold`` weighs it;
paths are never merged by state.  The monic walk also keeps the sum over
the paths that never dip.  The DP (``_dp``) keeps its states at every
length <= T; ``dp_walk`` closes and divides only the lengths it is asked
for, and ``dp_sum`` is the walk to T = k read at k.

A walk reads coefficients further ahead than a single instance does.
So an error a walk meets (an index past a short sequence, or symbolic
and non-integer scalars meeting) is kept for each length it reaches and
raised only when one of those is read: at the same lengths, with the
same message, as a walk per length.

Fraction-free DP
----------------

Every factor is homogeneous in the coefficients when each two-family
sequence has degree 1, and monic b degree 1 and lam degree 2 (the
grading of the Jacobi matrix).  A two-family edge then has the degree of
its x-length, and a monic path (0, m) -> (k, n) has degree
#H + 2*#D = k - (n - m).  So the DP runs on the integer form of
``systems._scaled``, which the oracle reads too: over the common
denominator D, each value times D to its degree, placeholders kept, so a
short system raises where it did.  A length-k total is divided once, by
D^k for the two-family tables and D^(k - (n - m)) for the monic one.
Coefficients holding a ``Poly`` come back over D = 1, so one DP path
serves both scalar domains.  The fold is never scaled, so the path
weights, the enumeration sums and ``monic_formula`` stay an independent
check on the DP.

Boundary behaviour of the monic sum: the strict census of axis-respecting
paths reproduces L only while k <= m + n + 1.  For larger k the merge
construction necessarily dips below the axis, so ``path_sum_monic`` sums
over the boundary-extended census (see ``paths.enumerate_paths``), which
agrees with the recurrence oracle for every (m, n, k).  The strict sum
is still available for reporting via ``strict_monic_weight_sum``.

Two-family prefactor: the product form used here is

    gamma[0]..gamma[m-1] / (alpha[1]..alpha[m] * alpha'[1]..alpha'[k])

with the gamma range tied to the start level m, the reading validated by
the oracle (``k_indexed_prefactor=True`` computes the alternative with
the gamma range tied to k, which already fails at (m,n,k) = (0,1,1)).

``enumerate_paths``, ``path_weight_*``, ``path_sum_*``,
``strict_monic_weight_sum`` and ``path_sum_mixed(...,
k_indexed_prefactor=True)`` compute each instance from scratch, path by
path; the tests hold the walks, and ``orthopath verify``, which reads
them, to these references.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from typing import Callable, Dict, List, Optional, Tuple

from .paths import (
    _DX, _DY, ACROSS, ACROSS2, DOWN, UP, MotzkinPath, check_instance, enumerate_paths,
)
from .scalars import (
    DomainMismatchError, Poly, Record, RunningSum, Scalar, scalar_div, scalar_product, scalar_sum,
)
from .systems import (
    CoefficientSystem, SequenceRangeError, SequenceSpec, _memo, _present, _scaled,
    monic_b_lambda,
)


class PathSumResult(Record):
    """A weighted path sum: total = prefactor * sum(per_path.values())."""

    __slots__ = _fields = ("total", "prefactor", "weight_sum", "per_path")

    def __init__(self, total: Scalar, prefactor: Scalar, weight_sum: Scalar,
                 per_path: Dict[MotzkinPath, Scalar]) -> None:
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "weight_sum", weight_sum)
        object.__setattr__(self, "per_path", per_path)


# -- weight tables ----------------------------------------------------------

# A factor of None is the unit factor: folds and the DP skip it instead of
# multiplying by 1, which is not free for polynomials.  The step None asks
# for the closing factor at the path's end.
Factor = Optional[Scalar]
Rule = Callable[[tuple, Optional[str], Optional[str], int, int], Factor]

_PLAIN = (UP, DOWN, ACROSS)
_GENERALIZED = (UP, DOWN, ACROSS, ACROSS2)
_MISSING = object()


class _Table:
    """One weight system: its rule (coefficients, context, step, x, level)
    -> factor, the degree of each coefficient sequence in the grading, the
    steps it admits, and the context each step leaves."""

    def __init__(self, rule: Rule, materialize: Callable[[int], tuple],
                 degrees: Tuple[int, ...], steps: Tuple[str, ...],
                 leaves: Dict[str, str], dips: bool = False) -> None:
        self.rule = rule
        self.materialize = materialize  # top -> the rule's coefficients
        self.degrees = degrees  # one per coefficient sequence
        self.steps = steps
        self.leaves = leaves  # step -> the context it leaves; others leave None
        self.dips = dips  # admit D,U excursions from level 0
        self.covered: Tuple[int, tuple] = (-1, ())
        self.factors: Dict[tuple, Factor] = {}  # the fold's, by (ctx, step, x, level)

    def coefficients(self, top: int) -> tuple:
        """The rule's coefficients over indices 0..top (or more)."""
        covered, coeffs = self.covered
        if covered < top:
            covered, coeffs = self.covered = (top, self.materialize(top))
        return coeffs


def _fold(table: _Table, path: MotzkinPath, top: int) -> Scalar:
    """Product of the table's factors along the path, closing factor
    included; each factor is computed once per table.  A lone factor
    outside a short sequence raises its range error here, as a product
    with it would."""
    coeffs = table.coefficients(top)
    rule, leaves, memo = table.rule, table.leaves, table.factors
    total: Factor = None
    ctx: Optional[str] = None
    x, j = 0, path.start
    for step in path.steps + (None,):
        key = (ctx, step, x, j)
        f = memo.get(key, _MISSING)
        if f is _MISSING:
            f = memo[key] = rule(coeffs, ctx, step, x, j)
        if f is not None:
            total = f if total is None else total * f
        if step is not None:
            ctx = leaves.get(step)
            x, j = x + _DX[step], j + _DY[step]
    return 1 if total is None else _present(total)


# Errors a walk keeps for the lengths they reach: a coefficient index
# outside its sequence, or symbolic and non-integer scalars meeting.
_DEFERRED = (SequenceRangeError, DomainMismatchError)


class _Lengths:
    """One walk's results at every length k = 0..top.  An error met on the
    way is kept for each length it reaches and raised when one of those is
    read, so a walk over all lengths fails where a walk per length did."""

    def __init__(self, values: list) -> None:
        self.values = values
        self.errors: Dict[int, Exception] = {}

    def fail(self, exc: Exception, first: int, last: Optional[int] = None) -> None:
        """Keep ``exc`` for the lengths first..last (default: to the top)."""
        last = len(self.values) - 1 if last is None else last
        for k in range(first, last + 1):
            self.errors.setdefault(k, exc)

    def __getitem__(self, k: int):
        exc = self.errors.get(k)
        if exc is not None:
            raise exc
        return self.values[k]


def _census(table: _Table, m: int, n: int, top: int, bound: int) -> _Lengths:
    """The sums of the fold over every path (0, m) -> (k, n) the table
    admits, for every k <= top: [weight sum, strict sum] at each length,
    where the strict sum is over the paths that never dip, kept for a table
    that admits dips (0 otherwise).

    One depth-first walk over path prefixes, pruned to those that can still
    end at level n within length top, on an explicit stack, so that no
    recursion limit bounds its depth.  Each prefix carries its running
    product of factors, read through the fold's memo, so each path's weight
    is the product ``_fold`` gives it, every path is its own term, and the
    terms are added in ``enumerate_paths``' order.  A prefix whose factor
    raises is not extended; its error is kept for the lengths it could
    reach, and so is a path's weight that is a lone placeholder, which
    ``_fold`` raises.  A sum that raises is kept behind any fold error of
    its length, since ``path_sum_*`` folds every path before it sums.

    Over polynomial coefficients each sum is a ``RunningSum``, which adds a
    term into one dict, where ``+=`` would copy the whole sum on every
    path: ``verify --method monic`` on ``symbolic_monic.json`` took a
    median 1.9 s with it and 3.0 s with ``+=`` at ``--max 8``, and 7.2 s
    against 18.0 s at ``--max 9`` (2-vCPU Xeon, CPython 3.11, alternating
    runs).  Numeric sums keep ``+=``.
    """
    coeffs = table.coefficients(bound)
    rule, memo, dips = table.rule, table.factors, table.dips
    moves = [(step, _DX[step], _DY[step], table.leaves.get(step)) for step in table.steps]
    reverse = moves[::-1]
    climb = [(UP, 1, 1, table.leaves.get(UP))]  # out of a dip
    symbolic = any(type(v) is Poly for seq in coeffs for v in seq)
    found = _Lengths([[RunningSum(), RunningSum()] if symbolic else [0, 0]
                      for _ in range(top + 1)])
    late: Dict[int, Exception] = {}

    # An entry is a prefix that ends at (x, j): its context, running
    # product and strictness; or, at x = -1, the error its last factor
    # raised and the first length it reaches.  A popped prefix reads its
    # steps' factors and pushes its extensions in reverse, each error in
    # the place of the prefix it stops, so errors are kept and terms added
    # in the order of a recursive walk.
    stack: List[tuple] = [(0, m, None, None, dips)] if abs(n - m) <= top else []
    push, pop = stack.append, stack.pop
    while stack:
        x, j, ctx, total, strict = pop()
        if x < 0:
            found.fail(ctx, j)
            continue
        if j == n:
            key = (ctx, None, x, j)
            try:
                f = memo.get(key, _MISSING)
                if f is _MISSING:
                    f = memo[key] = rule(coeffs, ctx, None, x, j)
                weight = total if f is None else f if total is None else total * f
                weight = 1 if weight is None else _present(weight)
            except _DEFERRED as exc:
                found.fail(exc, x, x)
            else:
                sums = found.values[x]
                try:
                    sums[0] += weight
                    if strict:
                        sums[1] += weight
                except _DEFERRED as exc:
                    late.setdefault(x, exc)
        for step, dx, dy, after in reverse if j >= 0 else climb:
            nx, nj = x + dx, j + dy
            if nx > top or abs(n - nj) > top - nx or (nj < 0 and not dips):
                continue
            key = (ctx, step, x, j)
            try:
                f = memo.get(key, _MISSING)
                if f is _MISSING:
                    f = memo[key] = rule(coeffs, ctx, step, x, j)
                value = total if f is None else f if total is None else total * f
            except _DEFERRED as exc:
                push((-1, nx + abs(n - nj), exc, None, False))
            else:
                push((nx, nj, after, value, strict and nj >= 0))
    if symbolic:
        found.values = [[total.value, strict.value] for total, strict in found.values]
    for k, exc in late.items():
        found.fail(exc, k, k)
    return found


def _dp(table: _Table, m: int, n: int, top: int, bound: int) -> Tuple[Callable[[int], Factor], int]:
    """Sum of the fold over every path (0, m) -> (k, n) the table admits,
    for every k <= top, in the integer form: (k -> length k's total, D).

    The state is (level, context) per x layer; HH jumps two layers.
    States that cannot reach level n within length top are dropped, and a
    dip below the axis (level -1, only when the table admits dips) must
    climb back at once, as in ``enumerate_paths``.  Layer k's states at
    level n, closed when length k is read, give its total.

    The rule runs on the coefficients over indices 0..bound as
    ``systems._scaled`` gives them, integers over one denominator D (over 1
    when a ``Poly`` appears).  A path of length k has one degree in the
    grading, so the caller divides length k's total by D to it; a total is
    None where no path exists.
    """
    coeffs, den = _scaled(table, table.coefficients(bound), table.degrees)
    rule, leaves, steps, dips = table.rule, table.leaves, table.steps, table.dips
    layers = _Lengths([{} for _ in range(top + 1)])
    if abs(n - m) <= top:
        layers.values[0][(m, None)] = 1
    for x, layer in enumerate(layers.values):
        for (j, ctx), acc in layer.items():
            for step in steps if j >= 0 else (UP,):
                nx, nj = x + _DX[step], j + _DY[step]
                if nx > top or abs(n - nj) > top - nx or (nj < 0 and not dips):
                    continue
                try:
                    f = rule(coeffs, ctx, step, x, j)
                    value = acc if f is None else acc * f
                    target, key = layers.values[nx], (nj, leaves.get(step))
                    prev = target.get(key)
                    target[key] = value if prev is None else prev + value
                except _DEFERRED as exc:
                    layers.fail(exc, nx + abs(n - nj))

    def total(k: int) -> Factor:
        out: Factor = None
        for (j, ctx), acc in layers[k].items():
            if j == n:
                f = rule(coeffs, ctx, None, k, j)
                value = acc if f is None else acc * f
                out = value if out is None else out + value
        return out

    return total, den


def _cached_table(owner: object, name: str, partner: object, build: Callable[[], _Table]) -> _Table:
    """The table ``name`` kept on ``owner``, one slot matched by the
    partner's identity (``monic_b_lambda`` keeps its lam view)."""
    memo = _memo(owner)
    slot = memo.get(name)
    if slot is None or slot[0] is not partner:
        slot = memo[name] = (partner, build())
    return slot[1]


# -- the monic table --------------------------------------------------------

def _monic_rule(c: tuple, ctx: Optional[str], step: Optional[str], x: int, j: int) -> Factor:
    b, lam = c
    own = b[j] - b[x] if step == ACROSS else None
    if ctx is None:
        return own
    # the D before this edge started at level j + 1 and is paid here
    if step == UP:
        return lam[j + 1] - lam[x]
    return lam[j + 1] if own is None else lam[j + 1] * own


def _monic(materialize: Callable[[int], tuple]) -> _Table:
    return _Table(_monic_rule, materialize, (1, 2), _PLAIN, {DOWN: DOWN}, dips=True)


def _monic_table(b: SequenceSpec, lam: SequenceSpec) -> _Table:
    return _cached_table(lam, "monic_table", b, lambda: _monic(
        lambda top: (b.materialize(top), (0,) + lam.materialize(top)[1:])
    ))


class _Name(str):
    """Formula text: indexing a sequence name appends the index, and '-'
    and '*' build the factored form."""

    def __getitem__(self, i: int) -> "_Name":
        return _Name(f"{self}{i}")

    def __sub__(self, other: str) -> "_Name":
        return _Name(f"({self}-{other})")

    def __mul__(self, other: str) -> "_Name":
        return _Name(f"{self}*{other}")


_FORMAL_MONIC = (_Name("b"), _Name("l"))


def monic_formula(path: MotzkinPath) -> str:
    """The monic weight of a plain path as factored text over the names
    b{i} and l{i}, e.g. ``l2*(b1-b0)``; "1" when every factor is 1."""
    return str(_fold(_monic(lambda top: _FORMAL_MONIC), path, 0))


def path_weight_monic(path: MotzkinPath, b: SequenceSpec, lam: SequenceSpec) -> Scalar:
    """Product of monic edge weights over the path.

    The path must be plain (no HH) and axis-respecting up to level-0 D,U
    excursions.
    """
    if not path.is_plain:
        raise ValueError("monic weights are defined on plain paths only")
    if not path.is_boundary_valid():
        raise ValueError(f"path {path} dips below the permitted boundary")
    return _fold(_monic_table(b, lam), path, path.start + len(path.steps) + 1)


def monic_prefactor(n: int, lam: SequenceSpec) -> Scalar:
    """lam[1] * ... * lam[n]; 1 when n = 0."""
    return scalar_product(lam.materialize(n)[1 : n + 1])


def path_sum_monic(
    m: int, n: int, k: int, b: SequenceSpec, lam: SequenceSpec
) -> PathSumResult:
    """The monic path expansion of L(p_m p_n p_k).

    Sums over the boundary-extended path census so the identity holds for
    every (m, n, k); see the module docstring.
    """
    per_path: Dict[MotzkinPath, Scalar] = {}
    for path in enumerate_paths(m, n, k, allow_hh=False, boundary_dips=True):
        per_path[path] = path_weight_monic(path, b, lam)
    weight_sum = scalar_sum(per_path.values())
    prefactor = monic_prefactor(n, lam)
    return PathSumResult(prefactor * weight_sum, prefactor, weight_sum, per_path)


def strict_monic_weight_sum(
    m: int, n: int, k: int, b: SequenceSpec, lam: SequenceSpec
) -> Scalar:
    """Sum of monic weights over axis-respecting paths only."""
    return scalar_sum(
        path_weight_monic(p, b, lam)
        for p in enumerate_paths(m, n, k, allow_hh=False)
    )


# -- the two-family tables --------------------------------------------------

# Per-edge choice tags.  H edges keep their whole weight as one atomic
# factor; every other edge picks one monomial of its weight.
H_ATOM = "H"
U_GAMMA = "U:g"
U_APRIME = "U:-a'"
D_ALPHA = "D:a"
D_APRIME = "D:-a'"
HH_ALPHA = "HH:a"
HH_GAMMA = "HH:g"
HH_APRIME = "HH:-a'"
HH_GPRIME = "HH:-g'"

# The sign-reversing involution's pairings: a marked HH choice, the step
# it must follow (None: any), and the steps and choices of the U,D or D,U
# pair it splits into.  The pair's last choice is the marked one that
# collapses it back into the HH.
_PAIRINGS = (
    (HH_ALPHA, None, (DOWN, UP), (D_ALPHA, U_APRIME)),
    (HH_GAMMA, None, (UP, DOWN), (U_GAMMA, D_APRIME)),
    (HH_APRIME, DOWN, (UP, DOWN), (U_APRIME, D_APRIME)),
    (HH_APRIME, UP, (DOWN, UP), (D_APRIME, U_APRIME)),
)
_SPLIT = {(hh, after): (steps, pair) for hh, after, steps, pair in _PAIRINGS}
_COLLAPSE = {pair: hh for hh, _, _, pair in _PAIRINGS}
_MARKED = frozenset(tag for hh, _, _, pair in _PAIRINGS for tag in (hh, pair[-1]))
_NEGATIVE = frozenset({U_APRIME, D_APRIME, HH_APRIME, HH_GPRIME})

_TWO_FAMILY_LEAVES = {UP: UP, DOWN: DOWN}


def _monomials(
    c: tuple, ctx: Optional[str], step: Optional[str], x: int, j: int
) -> List[Tuple[str, Scalar]]:
    """The tagged monomials of a two-family edge; none at the path's end."""
    alpha, beta, gamma, alpha_p, beta_p, gamma_p = c
    if step == ACROSS:
        return [(H_ATOM, beta[j] - beta_p[x])]
    if step == UP:
        out = [(U_GAMMA, gamma[j])]
        if ctx == DOWN:
            out.append((U_APRIME, -alpha_p[x]))
        return out
    if step == DOWN:
        out = [(D_ALPHA, alpha[j])]
        if ctx == UP:
            out.append((D_APRIME, -alpha_p[x]))
        return out
    if step == ACROSS2:
        nxt = alpha_p[x + 1]
        out = [(HH_ALPHA, alpha[j] * nxt)] if j >= 1 else []
        out.append((HH_GAMMA, gamma[j] * nxt))
        if ctx is not None:
            out.append((HH_APRIME, -(alpha_p[x] * nxt)))
        out.append((HH_GPRIME, -(gamma_p[x] * nxt)))
        return out
    return []


def _sum_rule(keep: Callable[[str], bool]) -> Rule:
    """The rule whose factor sums the monomials with tags ``keep`` admits."""

    def rule(c, ctx, step, x, j):
        total: Factor = None
        for tag, value in _monomials(c, ctx, step, x, j):
            if keep(tag):
                total = value if total is None else total + value
        return total

    return rule


_MIXED_RULE = _sum_rule(lambda tag: True)
_MERGED_RULE = _sum_rule(lambda tag: tag not in _MARKED)


def _two_family_table(
    sys: CoefficientSystem, sys_prime: CoefficientSystem, merged: bool = False
) -> _Table:
    name = "merged_table" if merged else "mixed_table"
    return _cached_table(sys, name, sys_prime, lambda: _Table(
        _MERGED_RULE if merged else _MIXED_RULE,
        lambda top: (*sys.materialize(top), *sys_prime.materialize(top)),
        (1,) * 6, _GENERALIZED, _TWO_FAMILY_LEAVES,
    ))


def _two_family_top(path: MotzkinPath) -> int:
    """An index bound for every edge of the path (levels, x and x + 1)."""
    return path.start + 2 * len(path.steps) + 1


def path_weight_mixed(
    path: MotzkinPath, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> Scalar:
    """Product of two-family edge weights over a generalized path."""
    if not path.is_standard():
        raise ValueError(f"path {path} dips below the axis")
    return _fold(_two_family_table(sys, sys_prime), path, _two_family_top(path))


def path_weight_merged(
    path: MotzkinPath, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> Scalar:
    """Product of merged (context-free) edge weights over a generalized path."""
    if not path.is_standard():
        raise ValueError(f"path {path} dips below the axis")
    return _fold(_two_family_table(sys, sys_prime, merged=True), path, _two_family_top(path))


def mixed_prefactor(
    m: int,
    k: int,
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
    k_indexed_prefactor: bool = False,
) -> Scalar:
    """gamma[0..r-1] / (alpha[1..m] * alpha'[1..k]), r = m (or k if requested)."""
    gamma_range = k if k_indexed_prefactor else m
    num = scalar_product(sys.materialize(gamma_range).gamma[:gamma_range])
    den = scalar_product(sys.materialize(m).alpha[1 : m + 1]) * scalar_product(
        sys_prime.materialize(k).alpha[1 : k + 1]
    )
    return scalar_div(num, den)


def path_sum_mixed(
    m: int,
    n: int,
    k: int,
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
    k_indexed_prefactor: bool = False,
) -> PathSumResult:
    """The two-family path expansion of L(p_m p_n p'_k)."""
    per_path: Dict[MotzkinPath, Scalar] = {}
    for path in enumerate_paths(m, n, k, allow_hh=True):
        per_path[path] = path_weight_mixed(path, sys, sys_prime)
    weight_sum = scalar_sum(per_path.values())
    prefactor = mixed_prefactor(m, k, sys, sys_prime, k_indexed_prefactor)
    return PathSumResult(prefactor * weight_sum, prefactor, weight_sum, per_path)


# -- monomial choices and the sign-reversing involution ---------------------


class WeightedTerm(Record):
    """One monomial choice per edge of a generalized path.

    ``sign`` is the structural sign (the product of the chosen monomials'
    written signs) and ``value`` the signed product of the chosen factors.
    """

    __slots__ = _fields = ("path", "tags", "sign", "value")

    def __init__(self, path: MotzkinPath, tags: Tuple[str, ...], sign: int,
                 value: Scalar) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "value", value)


def _edge_monomials(
    path: MotzkinPath, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> List[Dict[str, Scalar]]:
    """Each edge's monomials by tag, read from the two-family table."""
    c = _two_family_table(sys, sys_prime).coefficients(_two_family_top(path))
    out = []
    ctx: Optional[str] = None
    for x, j, step in path.edges():
        out.append(dict(_monomials(c, ctx, step, x, j)))
        ctx = _TWO_FAMILY_LEAVES.get(step)
    return out


def _term(path: MotzkinPath, chosen: List[Tuple[str, Scalar]]) -> WeightedTerm:
    sign = 1
    value: Scalar = 1
    for tag, v in chosen:
        value = value * v
        if tag in _NEGATIVE:
            sign = -sign
    return WeightedTerm(path, tuple(tag for tag, _ in chosen), sign, value)


def make_term(
    path: MotzkinPath,
    tags: Tuple[str, ...],
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
) -> WeightedTerm:
    """Build a term from its choice tags, validating each against its context."""
    edges = _edge_monomials(path, sys, sys_prime)
    if len(tags) != len(edges):
        raise ValueError("one choice tag per edge is required")
    for e, (tag, monomials) in enumerate(zip(tags, edges)):
        if tag not in monomials:
            prev = path.steps[e - 1] if e else None
            raise ValueError(f"tag {tag!r} not available for {path.steps[e]} after {prev}")
    return _term(path, [(tag, monomials[tag]) for tag, monomials in zip(tags, edges)])


def expand_choices(
    path: MotzkinPath, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> List[WeightedTerm]:
    """All monomial-choice terms of a path; their values sum to its weight."""
    edges = _edge_monomials(path, sys, sys_prime)
    return [
        _term(path, list(chosen))
        for chosen in iter_product(*(list(monomials.items()) for monomials in edges))
    ]


def all_terms(
    m: int,
    n: int,
    k: int,
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
) -> List[WeightedTerm]:
    """The full choice multiset over every generalized path (0,m) -> (k,n)."""
    out: List[WeightedTerm] = []
    for path in enumerate_paths(m, n, k, allow_hh=True):
        out.extend(expand_choices(path, sys, sys_prime))
    return out


def is_fixed_point(term: WeightedTerm) -> bool:
    """True when no choice is marked: exactly the merged-weight terms."""
    return all(tag not in _MARKED for tag in term.tags)


def sign_involution(
    term: WeightedTerm, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> WeightedTerm:
    """The sign-reversing involution on choice terms.

    Scans the path right to left for the first marked choice.  A marked
    HH splits into the U,D or D,U pair of its pairing; a marked U or D
    ends a pair and collapses with its predecessor into that pairing's
    HH.  Non-fixed terms map to terms of opposite structural sign and
    negated value; fixed points return unchanged.
    """
    steps, tags = term.path.steps, term.tags
    marked = [e for e, tag in enumerate(tags) if tag in _MARKED]
    if not marked:
        return term
    pivot = marked[-1]
    prev = steps[pivot - 1] if pivot > 0 else None
    split = _SPLIT.get((tags[pivot], prev)) or _SPLIT.get((tags[pivot], None))
    if split is not None:
        lo, (repl_steps, repl_tags) = pivot, split
    else:  # the marked U or D ends a pair: the pair collapses into its HH
        lo = pivot - 1
        repl_steps, repl_tags = (ACROSS2,), (_COLLAPSE[tags[lo : pivot + 1]],)
    path = MotzkinPath(term.path.start, steps[:lo] + repl_steps + steps[pivot + 1 :])
    return make_term(path, tags[:lo] + repl_tags + tags[pivot + 1 :], sys, sys_prime)


# -- dynamic-programming evaluation -----------------------------------------

_COUNT = _Table(lambda *edge: None, lambda top: (), (), _PLAIN, {})


def _monic_bound(m: int, n: int, top: int) -> int:
    """The largest index the monic rule reads on paths (0, m) -> (k, n),
    k <= top, and at least max(m, n, top)."""
    return max(m, n, top, (m + n + top) // 2 + 1)


def monic_census(
    m: int, n: int, top: int, b: SequenceSpec, lam: SequenceSpec
) -> Callable[[int], Tuple[Scalar, Scalar]]:
    """k -> (``path_sum_monic(m, n, k, b, lam).weight_sum``,
    ``strict_monic_weight_sum(m, n, k, b, lam)``) for every k <= top, from
    one walk over the boundary-dip census (see ``_census``)."""
    check_instance(m, n, top)
    found = _census(_monic_table(b, lam), m, n, top, _monic_bound(m, n, top))
    return lambda k: tuple(found[k])


def mixed_census(
    m: int, n: int, top: int, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> Callable[[int], Scalar]:
    """k -> ``path_sum_mixed(m, n, k, sys, sys_prime).weight_sum`` for every
    k <= top, from one walk (see ``_census``)."""
    check_instance(m, n, top)
    found = _census(_two_family_table(sys, sys_prime), m, n, top, m + top + 1)
    return lambda k: found[k][0]


def dp_walk(
    m: int,
    n: int,
    top: int,
    weights: str,
    sys: Optional[CoefficientSystem] = None,
    sys_prime: Optional[CoefficientSystem] = None,
) -> Callable[[int], Scalar]:
    """k -> ``dp_sum(m, n, k, weights, sys, sys_prime)`` for every k <= top,
    from one transfer-matrix walk; only the lengths read are closed and
    divided."""
    check_instance(m, n, top)
    if weights == "count":
        table, bound, shift = _COUNT, 0, 0
    elif weights == "monic":
        if sys is None:
            raise ValueError("monic dp_sum needs a coefficient system")
        bound = _monic_bound(m, n, top)
        table, shift = _monic_table(*monic_b_lambda(sys, bound)), n - m
    elif weights in ("mixed", "merged"):
        if sys is None or sys_prime is None:
            raise ValueError("two-family dp_sum needs both coefficient systems")
        table = _two_family_table(sys, sys_prime, merged=(weights == "merged"))
        bound, shift = m + top + 1, 0
    else:
        raise ValueError(f"unknown weight system {weights!r}")
    total, den = _dp(table, m, n, top, bound)

    def divided(k: int) -> Scalar:
        value = total(k)
        if value is None:
            return 0
        # paths exist, so |n - m| <= k and the degree k - shift is nonnegative
        scale = den ** (k - shift)
        return value if scale == 1 else Fraction(value, scale)

    return divided


def dp_sum(
    m: int,
    n: int,
    k: int,
    weights: str,
    sys: Optional[CoefficientSystem] = None,
    sys_prime: Optional[CoefficientSystem] = None,
) -> Scalar:
    """Transfer-matrix evaluation of a weighted path sum (no prefactor).

    ``weights`` selects the table: "monic" (requires a monic ``sys``;
    matches ``path_sum_monic``'s weight_sum, boundary dips included),
    "mixed", "merged", or "count" (unweighted plain-path census).  Equals
    the corresponding enumeration sum exactly; the state space is
    (position, level, adjacent-step context) because the weights look at
    neighboring edges.  The coefficients are read as integers over one
    denominator, polynomials over 1, whatever the systems' domain (see
    the module docstring).  A negative m, n or k raises
    ``enumerate_paths``' ValueError.
    """
    return dp_walk(m, n, k, weights, sys, sys_prime)(k)
