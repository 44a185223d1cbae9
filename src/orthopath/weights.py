"""Edge-weight systems and path sums for products of orthogonal polynomials.

Two weighted path expansions are implemented, plus the machinery of
their combinatorial proofs:

* the monic expansion: L(p_m p_n p_k) = lam[1]..lam[n] * sum over plain
  Motzkin paths (0,m) -> (k,n) of a product of edge weights;
* the two-family expansion: L(p_m p_n p'_k) = prefactor * sum over
  generalized Motzkin paths (0,m) -> (k,n) of edge weights.

Weight tables
-------------

Each weight system is one table: a list of tagged monomials, each naming
the step it weighs and the contexts it applies to, where the context is
what the previous step left.  An edge's factor is the sum, in listed
order, of the monomials of its step that apply in its context, evaluated
at the edge's start vertex (x, level).  Everything else is derived from
the lists: the per-path fold behind ``path_weight_*``, the
transfer-matrix DP behind ``dp_sum``, the monomial choices of
``make_term`` and ``expand_choices``, and the certificate formula text of
``monic_formula``.  The first edge sees no context; after the last edge
the monomials of the step "end" give a closing factor.  A monomial of
value 1 is the unit, which is never multiplied.

Monic (context D: "the previous step was D"), for an edge at (x, j):

    step  context  tag    monomial
    H     none     H      (b[j] - b[x])
          D        H:l    lam[j+1] * (b[j] - b[x])
    U     none     U      1
          D        U:l    (lam[j+1] - lam[x])
    D     none     D      1
          D        D:l    lam[j+1]
    end   none     end    1
          D        end:l  lam[j+1]

so a D is paid by its follower, and a D at (i, j) contributes (lam[j] -
lam[i+1]) when a U follows it and lam[j] otherwise.  The table reads
lam[0] as 0, which makes the boundary dip (a D,U from level 0, inserted
by a merged domino) the ordinary D-then-U rule, -lam[x].

Two-family (context: the previous step if it was U or D; "any" is every
context, none included):

    step  tag     monomial                   context
    H     H       (beta[j] - beta'[x])       any
    U     U:g     gamma[j]                   any
          U:-a'   -alpha'[x]                 D
    D     D:a     alpha[j]                   any
          D:-a'   -alpha'[x]                 U
    HH    HH:a    alpha[j] * alpha'[x+1]     any, at level j >= 1 only
          HH:g    gamma[j] * alpha'[x+1]     any
          HH:-a'  -alpha'[x] * alpha'[x+1]   U or D
          HH:-g'  -gamma'[x] * alpha'[x+1]   any
    end   end     1                          any

(alpha[0] = 0 by the system convention, so HH:a does not exist at level
0.)  The sign-reversing involution is four pairings (``_PAIRINGS``),
each of a marked HH choice with the U,D or D,U pair it splits into; the
marked choices (U:-a', D:-a', HH:a, HH:g, HH:-a') are the HH choices and
the last of each pair.  Merged: the fixed points, the two-family list
without the marked tags, so H (beta[j] - beta'[x]), U gamma[j], D
alpha[j] and HH -gamma'[x] * alpha'[x+1], whatever the context.

Count: one unit monomial, for every step and context, over plain paths.

Each table is built once per system (or system pair) and kept on the
instance, like ``materialize``: its coefficients extend on demand, and
the per-path fold computes each factor once per (context, step, x,
level).  The DP evaluates the monomials itself, once per step and state
level, so a long DP leaves no factors behind.

One prefix walk
---------------

One depth-first walk over path prefixes from (0, m) (``_walk``) feeds
every command that sums or lists paths one by one.  It is pruned to the
prefixes that can still end at level n by its top length, and each
prefix carries its running product through the fold's factor memo, so
every path is met once, in ``enumerate_paths``' order, and weighed
exactly as ``_fold`` weighs it; paths are never merged by state, and a
prefix's factors are multiplied once for all the paths that share it.

``orthopath verify`` needs every (m, n, k) up to a top T, so its census
(``monic_census``, ``mixed_census``, over ``_census``) walks once per
(m, n) to T and sums the paths at each length k <= T; the monic census
also keeps the sum over the paths that never dip.  The commands that
print one row per path (``symbolic``, the ``positivity`` certificates
and ``paths --system``) read the listing (``monic_listing``,
``mixed_listing``, over ``_listing``): the walk to T = k read at k only.
``symbolic`` lists the boundary-dip census, the certificates and
``paths`` the strict monic or the generalized two-family one.  The DP
(``_dp``) keeps its states at every length <= T; ``dp_walk`` closes and
divides only the lengths it is asked for, and ``dp_sum`` is the walk to
T = k read at k.

A walk can meet two errors: an index past a short sequence, or symbolic
and non-integer scalars meeting.  Which lengths are safe from both is
decided before a walk starts (``_safe_top``): those whose index bound
(each table's ``bound``) lies before every sequence's first placeholder,
and none when the coefficients hold both a ``Poly`` and a ``Fraction``.
One walk to the safe length serves every length up to it and cannot
raise.  A longer length is walked on its own when it is read, so it
raises where a fold per path does, with the same message: the listing's
walk reads each factor when its prefix is popped, so it raises after
every earlier path, and the census folds every path of the length before
it sums, as ``path_sum_*`` does.

Fraction-free DP
----------------

The DP (``_dp``) walks the x layers in order.  A state is a level of a
layer, holding one accumulator per context: the sum, over the paths that
reach it in that context, of their products so far.  Out of a level each
step evaluates its monomials once, sums those that apply to the same
contexts, multiplies that sum once by the sum of those contexts'
accumulators, and adds it into the target, in the context the step
leaves.  So a two-family level that three contexts reach pays one
multiplication for H rather than three, and every monomial is evaluated
once per level rather than once per context.  The monic table gives each
monomial one context, so there the work is what charging each context on
its own would be.

The layer pass (``_dp_layers``) does this a whole x layer at a time, up
to the safe length on a table that holds no ``Poly``, where every
coefficient it reads is an ``int`` in the scaled form below.  A layer is
one dense list per context over its window, the levels reachable from
(0, m) that can still reach level n by length top, from level -1 when
the table admits dips.  Each step is charged over the levels whose
targets lie in the next window: its monomials are evaluated by ``map``
over those levels, the context sets' elementwise sums multiplied by
them, and the products added into the target layer's slice, all in
C-level passes rather than one Python iteration per state.  A table
holding a ``Poly``, and a length past the safe one, runs the per-state
pass (``_dp_states``), which charges each state's steps on their own.

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
path; the tests hold the walks, and the commands that read them, to these
references.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat, product as iter_product
from math import inf
from operator import add, mul
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .paths import (
    _DX, _DY, ACROSS, ACROSS2, DOWN, UP, MotzkinPath, check_instance, enumerate_paths,
)
from .scalars import Poly, Record, RunningSum, Scalar, scalar_div, scalar_product, scalar_sum
from .systems import (
    CoefficientSystem, SequenceSpec, _OutOfRange, _memo, _present, _scaled, monic_b_lambda,
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
Value = Callable[[tuple, int, int], Scalar]  # (coefficients, x, level) -> value

_PLAIN = (UP, DOWN, ACROSS)
_GENERALIZED = (UP, DOWN, ACROSS, ACROSS2)
_MISSING = object()


class _Monomial(Record):
    """One tagged monomial of a weight table: the steps it weighs (None:
    the closing factor), the contexts it applies to, the lowest level it
    exists at (levels start at -1, a boundary dip), and its value from the
    table's coefficients at the edge's start (x, level); a value of None
    is the unit."""

    __slots__ = _fields = ("tag", "steps", "contexts", "value", "floor")

    def __init__(self, tag: str, steps: tuple, contexts: tuple, value: Optional[Value],
                 floor: int = -1) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "floor", floor)


class _Table:
    """One weight system: its monomials, the degree of each coefficient
    sequence in the grading, the steps it admits, the context each step
    leaves, and the largest index its monomials read on paths (0, m) ->
    (k, n), k <= top.  Its contexts are None and every context a step leaves.

    A unit monomial is alone among the monomials of its step and context,
    and every step has a monomial in every context."""

    def __init__(self, monomials: Tuple[_Monomial, ...], materialize: Callable[[int], tuple],
                 degrees: Tuple[int, ...], steps: Tuple[str, ...], leaves: Dict[str, str],
                 bound: Callable[[int, int, int], int], dips: bool = False) -> None:
        self.materialize = materialize  # top -> the monomials' coefficients
        self.degrees = degrees  # one per coefficient sequence
        self.steps = steps
        self.leaves = leaves  # step -> the context it leaves; others leave None
        self.bound = bound  # (m, n, top) -> the largest index read
        self.dips = dips  # admit D,U excursions from level 0
        self.contexts = (None,) + tuple(dict.fromkeys(leaves.values()))
        # (step, context) -> the monomials that apply, in listed order
        self.applies = {
            (step, ctx): tuple(mono for mono in monomials
                               if step in mono.steps and ctx in mono.contexts)
            for step in steps + (None,) for ctx in self.contexts
        }
        # the DP's: each step as (step, dx, dy, the context index it leaves,
        # charges).  A charge is the index in ``sets`` of some contexts and
        # the (floor, value) of each monomial that applies to exactly those
        # contexts, none for the unit.
        index = {ctx: i for i, ctx in enumerate(self.contexts)}
        sets: Dict[tuple, int] = {}
        self.plan = []
        for step in steps:
            charges: Dict[int, list] = {}
            for mono in monomials:
                if step in mono.steps:
                    which = sets.setdefault(tuple(index[ctx] for ctx in mono.contexts), len(sets))
                    values = charges.setdefault(which, [])
                    if mono.value is not None:
                        values.append((mono.floor, mono.value))
            self.plan.append((step, _DX[step], _DY[step], index[leaves.get(step)],
                              tuple((which, tuple(v)) for which, v in charges.items())))
        self.climb = [entry for entry in self.plan if entry[0] == UP]  # out of a dip
        self.sets = tuple(sets)
        self.covered: Tuple[int, tuple] = (-1, ())
        self.factors: Dict[tuple, Factor] = {}  # the fold's, by (ctx, step, x, level)

    def coefficients(self, top: int) -> tuple:
        """The monomials' coefficients over indices 0..top (or more).  Each
        new set records whether it holds a ``Poly`` (``symbolic``) and its
        ``reach``: how many leading indices hold no placeholder in any
        sequence, none when a ``Poly`` and a ``Fraction`` both appear."""
        covered, coeffs = self.covered
        if covered < top:
            covered, coeffs = self.covered = (top, self.materialize(top))
            kinds = {type(v) for seq in coeffs for v in seq}
            self.symbolic = Poly in kinds
            self.reach = 0 if self.symbolic and Fraction in kinds else min(
                (next((i for i, v in enumerate(seq) if type(v) is _OutOfRange), len(seq))
                 for seq in coeffs), default=inf)
        return coeffs

    def factor(self, c: tuple, ctx: Optional[str], step: Optional[str], x: int, j: int) -> Factor:
        """The factor of an edge: the sum, in listed order, of the monomials
        of ``step`` that apply in context ``ctx`` at level j; None for the
        unit."""
        total: Factor = None
        for mono in self.applies[step, ctx]:
            if mono.value is not None and j >= mono.floor:
                value = mono.value(c, x, j)
                total = value if total is None else total + value
        return total


def _fold(table: _Table, path: MotzkinPath, top: int) -> Scalar:
    """Product of the table's factors along the path, closing factor
    included; each factor is computed once per table.  A lone factor
    outside a short sequence raises its range error here, as a product
    with it would."""
    coeffs = table.coefficients(top)
    factor, leaves, memo = table.factor, table.leaves, table.factors
    total: Factor = None
    ctx: Optional[str] = None
    x, j = 0, path.start
    for step in path.steps + (None,):
        key = (ctx, step, x, j)
        f = memo.get(key, _MISSING)
        if f is _MISSING:
            f = memo[key] = factor(coeffs, ctx, step, x, j)
        if f is not None:
            total = f if total is None else total * f
        if step is not None:
            ctx = leaves.get(step)
            x, j = x + _DX[step], j + _DY[step]
    return 1 if total is None else _present(total)


def _safe_top(table: _Table, m: int, n: int, top: int) -> int:
    """The longest length k <= top (-1 for none) at which a walk from (0, m)
    to level n cannot raise: the table's index bound for k lies within its
    reach (see ``_Table.coefficients``)."""
    table.coefficients(table.bound(m, n, top))
    while top >= 0 and table.bound(m, n, top) >= table.reach:
        top -= 1
    return top


def _walk(
    table: _Table, m: int, n: int, top: int, first: int, dips: bool, walked: List[Optional[str]],
) -> Iterator[tuple]:
    """Every path (0, m) -> (x, n) the table admits, first <= x <= top, with
    boundary dips when ``dips``, in ``enumerate_paths``' order, as
    (x, weight, strict, i): the path's steps are ``walked[:i]``, its weight
    the product ``_fold`` gives it, closing factor included, and ``strict``
    says that it never dips (False throughout when ``dips`` is).

    One depth-first walk over path prefixes on an explicit stack, so that
    no recursion limit bounds its depth, pruned to those that can still end
    at level n within length top.  A prefix carries its running product;
    its last factor is read through the fold's memo, and multiplied in the
    fold's order, when the prefix is popped, so a factor that raises does
    so where a recursive walk, and a fold per path, first meets it.
    """
    coeffs = table.coefficients(table.bound(m, n, top))
    factor, memo = table.factor, table.factors
    moves = [(step, _DX[step], _DY[step], table.leaves.get(step))
             for step in reversed(table.steps)]
    climb = [(UP, 1, 1, table.leaves.get(UP))]  # out of a dip
    # An entry is a prefix of i steps that ends at (x, j): the key of its
    # last factor, the context it leaves, the product before that factor
    # and its strictness.
    stack: List[tuple] = [(0, m, 0, None, None, None, dips)] if abs(n - m) <= top else []
    push, pop = stack.append, stack.pop
    while stack:
        x, j, i, key, ctx, total, strict = pop()
        if i:
            walked[i - 1] = key[1]
            f = memo.get(key, _MISSING)
            if f is _MISSING:
                f = memo[key] = factor(coeffs, *key)
            if f is not None:
                total = f if total is None else total * f
        if j == n and x >= first:
            key = (ctx, None, x, j)
            f = memo.get(key, _MISSING)
            if f is _MISSING:
                f = memo[key] = factor(coeffs, *key)
            weight = total if f is None else f if total is None else total * f
            yield x, 1 if weight is None else _present(weight), strict, i
        for step, dx, dy, after in moves if j >= 0 else climb:
            nx, nj = x + dx, j + dy
            if nx > top or abs(n - nj) > top - nx or (nj < 0 and not dips):
                continue
            push((nx, nj, i + 1, (ctx, step, x, j), after, total, strict and nj >= 0))


def _census(table: _Table, m: int, n: int, top: int) -> Callable[[int], Tuple[Scalar, Scalar]]:
    """k -> the sums of the fold over every path (0, m) -> (k, n) the table
    admits, for k <= top: (weight sum, strict sum), where the strict sum is
    over the paths that never dip, kept for a table that admits dips (0
    otherwise).

    One ``_walk`` to the safe length (``_safe_top``) serves every length up
    to it: every path is its own term, and the terms are added in
    ``enumerate_paths``' order.  A longer length is walked on its own when
    it is read, and every path of it is folded before it sums, as
    ``path_sum_*`` does, so it raises where that does.

    Over polynomial coefficients each sum is a ``RunningSum``, which adds a
    term into one dict, where ``+=`` would copy the whole sum on every
    path: ``verify --method monic`` on ``symbolic_monic.json`` took a
    median 1.9 s with it and 3.0 s with ``+=`` at ``--max 8``, and 7.2 s
    against 18.0 s at ``--max 9`` (2-vCPU Xeon, CPython 3.11, alternating
    runs).  Numeric sums keep ``+=``.
    """
    safe = _safe_top(table, m, n, top)
    symbolic = table.symbolic
    found = [[RunningSum(), RunningSum()] if symbolic else [0, 0] for _ in range(safe + 1)]
    for x, weight, strict, _ in _walk(table, m, n, safe, 0, table.dips, [None] * safe):
        sums = found[x]
        sums[0] += weight
        if strict:
            sums[1] += weight
    if symbolic:
        found = [[total.value, strict.value] for total, strict in found]

    def read(k: int) -> Tuple[Scalar, Scalar]:
        if k <= safe:
            return tuple(found[k])
        paths = list(_walk(table, m, n, k, k, table.dips, [None] * k))
        return (scalar_sum([weight for _, weight, _, _ in paths]),
                scalar_sum([weight for _, weight, strict, _ in paths if strict]))

    return read


def _listing(
    table: _Table, m: int, n: int, k: int, dips: bool
) -> Iterator[Tuple[MotzkinPath, Scalar]]:
    """(path, fold) for every path (0, m) -> (k, n) the table admits,
    boundary dips admitted when ``dips``, in ``enumerate_paths``' order,
    from one ``_walk`` read at length k: a prefix's factors are multiplied
    once for all the paths that share it, and a factor that raises does so
    after every earlier path, at the first path whose fold raises it."""
    walked: List[Optional[str]] = [None] * k
    for _, weight, _, i in _walk(table, m, n, k, k, dips, walked):
        yield MotzkinPath(m, tuple(walked[:i])), weight


def _dp(table: _Table, m: int, n: int, top: int) -> Tuple[Callable[[int], Factor], int]:
    """Sum of the fold over every path (0, m) -> (k, n) the table admits,
    for every k <= top, in the integer form: (k -> length k's total, D).

    The monomials run on the coefficients as ``systems._scaled`` gives
    them, integers over one denominator D (over 1 when a ``Poly``
    appears).  A path of length k has one degree in the grading, so the
    caller divides length k's total by D to it; a total is None where no
    path exists.

    One walk to the safe length (``_safe_top``) serves every length up to
    it and cannot raise: ``_dp_layers`` charges each step across a whole x
    layer at once on a table that holds no ``Poly``, and ``_dp_states``
    level by level on one that does.  A longer length runs ``_dp_states``
    to it alone when it is read, as ``dp_sum`` does.  The two passes give
    equal totals wherever both apply.
    """
    safe = _safe_top(table, m, n, top)
    coeffs, den = _scaled(table, table.coefficients(table.bound(m, n, top)), table.degrees)
    shared = (_dp_states if table.symbolic else _dp_layers)(table, m, n, safe, coeffs)
    return lambda k: shared(k) if k <= safe else _dp_states(table, m, n, k, coeffs)(k), den


def _dp_layers(table: _Table, m: int, n: int, top: int, coeffs: tuple) -> Callable[[int], Factor]:
    """``_dp``'s totals on integer coefficients, one x layer at a time.

    Layer x holds one dense list per context over its window (None until
    a step arrives in that context): the levels reachable from (0, m) in x
    steps that can still reach level n within length top, from level -1
    when the table admits dips (where a path has just dipped and must
    climb back).  Every level of a window is reached, so a length's total
    is None exactly when n lies outside its window.

    Each step of ``table.plan`` is charged across the levels whose target
    lies in the target layer's window: its monomials are evaluated by
    ``map`` over those levels from their floor up, the context sets'
    elementwise sums are multiplied by them, and the products are added
    into the target window's slice, all in C-level passes.  A length is
    closed, context by context, when it is read.
    """
    contexts, sets = table.contexts, table.sets
    bottom = -1 if table.dips else 0
    windows = [(max(m - x, n - top + x, bottom), min(m + x, n + top - x)) for x in range(top + 1)]
    layers = [[None] * len(contexts) if lo <= hi else None for lo, hi in windows]
    if layers and layers[0] is not None:
        layers[0][0] = [1]
    at = repeat(coeffs)  # endless, so every map of the walk can share it
    for x, accs in enumerate(layers):
        if accs is None:
            continue
        lo, hi = windows[x]
        if not lo <= n <= hi:  # only the layers that hold level n are read
            layers[x] = None
        here = repeat(x)
        # each context set's elementwise sum, None where no step arrived
        sums: List[Optional[list]] = []
        for members in sets:
            s = None
            for i in members:
                acc = accs[i]
                if acc is not None:
                    s = acc if s is None else list(map(add, s, acc))
            sums.append(s)
        for step, dx, dy, into, charges in table.plan:
            nx = x + dx
            if nx > top:
                continue
            tlo, thi = windows[nx]
            a = lo if lo > tlo - dy else tlo - dy
            b = hi if hi < thi - dy else thi - dy
            if a < 0 and step != UP:  # only a climb leaves a dip
                a = 0
            if a > b:
                continue
            levels = range(a, b + 1)
            total = None
            for which, monomials in charges:
                s = sums[which]
                if s is None:
                    continue
                value = s[a - lo : b - lo + 1]
                if monomials:  # none: the unit
                    f = None
                    for floor, mono in monomials:
                        if floor <= a:
                            v = map(mono, at, here, levels)
                        elif floor <= b:  # none below the floor
                            v = chain(repeat(0, floor - a),
                                      map(mono, at, here, range(floor, b + 1)))
                        else:
                            continue
                        f = v if f is None else map(add, f, v)
                    if f is None:
                        continue
                    value = map(mul, value, f)
                total = value if total is None else map(add, total, value)
            if total is None:
                continue
            row = layers[nx]
            target = row[into]
            i, e = a + dy - tlo, b + dy - tlo + 1
            if target is None:
                row[into] = target = [0] * (thi - tlo + 1)
                target[i:e] = total
            else:
                target[i:e] = map(add, target[i:e], total)
    # each context's closing monomials that exist at level n, none for the unit
    closing = [tuple(mono.value for mono in table.applies[None, ctx]
                     if mono.value is not None and n >= mono.floor)
               for ctx in contexts]

    def closed(k: int) -> Factor:
        accs = layers[k]
        if accs is None:
            return None
        out = 0
        at_n = n - windows[k][0]
        for acc, monomials in zip(accs, closing):
            if acc is not None and acc[at_n]:
                acc = acc[at_n]
                for mono in monomials:
                    out += acc * mono(coeffs, k, n)
                if not monomials:
                    out += acc
        return out

    return closed


def _dp_states(table: _Table, m: int, n: int, top: int, coeffs: tuple) -> Callable[[int], Factor]:
    """``_dp``'s totals on any coefficients, state by state.

    The states of an x layer are its levels, each with one accumulator per
    context (a list, None where no path arrives); HH jumps two layers.
    States that cannot reach level n within length top are dropped, and a
    dip below the axis (level -1, only when the table admits dips) must
    climb back at once, as in ``enumerate_paths``.  A step out of a level
    evaluates each of its monomials once, sums those that apply to the same
    contexts, multiplies that sum once by the sum of those contexts'
    accumulators, and adds one value into its target state.  Layer k's
    state at level n, closed context by context when length k is read,
    gives its total.
    """
    factor, contexts, sets, dips = table.factor, table.contexts, table.sets, table.dips
    width = len(contexts)
    layers: List[Dict[int, list]] = [{} for _ in range(top + 1)]  # level -> accumulators
    if abs(n - m) <= top:
        layers[0][m] = [1] + [None] * (width - 1)
    for x, layer in enumerate(layers):
        for j, accs in layer.items():
            sums = None
            for step, dx, dy, into, charges in table.plan if j >= 0 else table.climb:
                nx, nj = x + dx, j + dy
                if nx > top or abs(n - nj) > top - nx or (nj < 0 and not dips):
                    continue
                if sums is None:
                    sums = []
                    for members in sets:
                        s = None
                        for i in members:
                            acc = accs[i]
                            if acc is not None:
                                s = acc if s is None else s + acc
                        sums.append(s)
                # the charges are added onto the target's value
                target = layers[nx]
                slots = target.get(nj)
                total = None if slots is None else slots[into]
                for which, monomials in charges:
                    value = sums[which]
                    if value is None:
                        continue
                    if monomials:  # none: the unit
                        f = None
                        for floor, mono in monomials:
                            if j >= floor:
                                v = mono(coeffs, x, j)
                                f = v if f is None else f + v
                        if f is None:
                            continue
                        value = value * f
                    total = value if total is None else total + value
                if total is None:
                    continue
                if slots is None:
                    slots = target[nj] = [None] * width
                slots[into] = total

    def total(k: int) -> Factor:
        out: Factor = None
        for i, acc in enumerate(layers[k].get(n, ())):
            if acc is not None:
                f = factor(coeffs, contexts[i], None, k, n)
                value = acc if f is None else acc * f
                out = value if out is None else out + value
        return out

    return total


def _cached_table(owner: object, name: str, partner: object, build: Callable[[], _Table]) -> _Table:
    """The table ``name`` kept on ``owner``, one slot matched by the
    partner's identity (``monic_b_lambda`` keeps its lam view)."""
    memo = _memo(owner)
    slot = memo.get(name)
    if slot is None or slot[0] is not partner:
        slot = memo[name] = (partner, build())
    return slot[1]


# -- the monic table --------------------------------------------------------

# c = (b, lam); the D before an edge in context D started at level j + 1
# and is paid by that edge
_MONIC = (
    _Monomial("H", (ACROSS,), (None,), lambda c, x, j: c[0][j] - c[0][x]),
    _Monomial("H:l", (ACROSS,), (DOWN,), lambda c, x, j: c[1][j + 1] * (c[0][j] - c[0][x])),
    _Monomial("U", (UP,), (None,), None),
    _Monomial("U:l", (UP,), (DOWN,), lambda c, x, j: c[1][j + 1] - c[1][x]),
    _Monomial("D", (DOWN,), (None,), None),
    _Monomial("D:l", (DOWN,), (DOWN,), lambda c, x, j: c[1][j + 1]),
    _Monomial("end", (None,), (None,), None),
    _Monomial("end:l", (None,), (DOWN,), lambda c, x, j: c[1][j + 1]),
)


def _monic_bound(m: int, n: int, top: int) -> int:
    """The largest index the monic monomials read on paths (0, m) -> (k, n),
    k <= top, and at least max(m, n, top)."""
    return max(m, n, top, (m + n + top) // 2 + 1)


def _monic(materialize: Callable[[int], tuple]) -> _Table:
    return _Table(_MONIC, materialize, (1, 2), _PLAIN, {DOWN: DOWN}, _monic_bound, dips=True)


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


# one for every call: its factor memo holds text fixed by each key
_FORMULA_TABLE = _monic(lambda top: (_Name("b"), _Name("l")))


def monic_formula(path: MotzkinPath) -> str:
    """The monic weight of a plain path as factored text over the names
    b{i} and l{i}, e.g. ``l2*(b1-b0)``; "1" when every factor is 1."""
    return str(_fold(_FORMULA_TABLE, path, 0))


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

_TWO_FAMILY_LEAVES = {UP: UP, DOWN: DOWN}
_ANY = (None, UP, DOWN)  # every two-family context

# c = (alpha, beta, gamma, alpha', beta', gamma')
_TWO_FAMILY = (
    _Monomial(H_ATOM, (ACROSS,), _ANY, lambda c, x, j: c[1][j] - c[4][x]),
    _Monomial(U_GAMMA, (UP,), _ANY, lambda c, x, j: c[2][j]),
    _Monomial(U_APRIME, (UP,), (DOWN,), lambda c, x, j: -c[3][x]),
    _Monomial(D_ALPHA, (DOWN,), _ANY, lambda c, x, j: c[0][j]),
    _Monomial(D_APRIME, (DOWN,), (UP,), lambda c, x, j: -c[3][x]),
    _Monomial(HH_ALPHA, (ACROSS2,), _ANY, lambda c, x, j: c[0][j] * c[3][x + 1], floor=1),
    _Monomial(HH_GAMMA, (ACROSS2,), _ANY, lambda c, x, j: c[2][j] * c[3][x + 1]),
    _Monomial(HH_APRIME, (ACROSS2,), (UP, DOWN), lambda c, x, j: -(c[3][x] * c[3][x + 1])),
    _Monomial(HH_GPRIME, (ACROSS2,), _ANY, lambda c, x, j: -(c[5][x] * c[3][x + 1])),
    _Monomial("end", (None,), _ANY, None),
)
# the choices whose monomial is written with a minus sign
_NEGATIVE = frozenset(mono.tag for mono in _TWO_FAMILY if ":-" in mono.tag)


def _two_family_bound(m: int, n: int, top: int) -> int:
    """The largest index the two-family monomials read on paths (0, m) ->
    (k, n), k <= top: levels up to m + top, and x + 1."""
    return m + top + 1


def _two_family_table(
    sys: CoefficientSystem, sys_prime: CoefficientSystem, merged: bool = False
) -> _Table:
    """The two-family table of the pair, or merged's: the same without the
    marked monomials."""
    name = "merged_table" if merged else "mixed_table"
    return _cached_table(sys, name, sys_prime, lambda: _Table(
        tuple(mono for mono in _TWO_FAMILY if not (merged and mono.tag in _MARKED)),
        lambda top: (*sys.materialize(top), *sys_prime.materialize(top)),
        (1,) * 6, _GENERALIZED, _TWO_FAMILY_LEAVES, _two_family_bound,
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
    table = _two_family_table(sys, sys_prime)
    c = table.coefficients(_two_family_top(path))
    out = []
    ctx: Optional[str] = None
    for x, j, step in path.edges():
        out.append({mono.tag: mono.value(c, x, j)
                    for mono in table.applies[step, ctx] if j >= mono.floor})
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

_COUNT = _Table((_Monomial("1", _PLAIN + (None,), (None,), None),),
                lambda top: (), (), _PLAIN, {}, lambda m, n, top: 0)


def monic_census(
    m: int, n: int, top: int, b: SequenceSpec, lam: SequenceSpec
) -> Callable[[int], Tuple[Scalar, Scalar]]:
    """k -> (``path_sum_monic(m, n, k, b, lam).weight_sum``,
    ``strict_monic_weight_sum(m, n, k, b, lam)``) for every k <= top, from
    one walk over the boundary-dip census (see ``_census``)."""
    check_instance(m, n, top)
    return _census(_monic_table(b, lam), m, n, top)


def mixed_census(
    m: int, n: int, top: int, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> Callable[[int], Scalar]:
    """k -> ``path_sum_mixed(m, n, k, sys, sys_prime).weight_sum`` for every
    k <= top, from one walk (see ``_census``)."""
    check_instance(m, n, top)
    found = _census(_two_family_table(sys, sys_prime), m, n, top)
    return lambda k: found(k)[0]


def monic_listing(
    m: int, n: int, k: int, b: SequenceSpec, lam: SequenceSpec, boundary_dips: bool = False,
) -> Iterator[Tuple[MotzkinPath, Scalar]]:
    """(path, ``path_weight_monic(path, b, lam)``) for every path of
    ``enumerate_paths(m, n, k, boundary_dips=boundary_dips)``, in its
    order, from one walk (see ``_listing``)."""
    check_instance(m, n, k)
    return _listing(_monic_table(b, lam), m, n, k, boundary_dips)


def mixed_listing(
    m: int, n: int, k: int, sys: CoefficientSystem, sys_prime: CoefficientSystem,
    merged: bool = False,
) -> Iterator[Tuple[MotzkinPath, Scalar]]:
    """(path, ``path_weight_mixed``, or ``path_weight_merged`` when
    ``merged``) for every generalized path (0, m) -> (k, n), in
    ``enumerate_paths``' order, from one walk (see ``_listing``)."""
    check_instance(m, n, k)
    return _listing(_two_family_table(sys, sys_prime, merged), m, n, k, False)


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
        table, shift = _COUNT, 0
    elif weights == "monic":
        if sys is None:
            raise ValueError("monic dp_sum needs a coefficient system")
        table = _monic_table(*monic_b_lambda(sys, _monic_bound(m, n, top)))
        shift = n - m
    elif weights in ("mixed", "merged"):
        if sys is None or sys_prime is None:
            raise ValueError("two-family dp_sum needs both coefficient systems")
        table, shift = _two_family_table(sys, sys_prime, merged=(weights == "merged")), 0
    else:
        raise ValueError(f"unknown weight system {weights!r}")
    total, den = _dp(table, m, n, top)

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
