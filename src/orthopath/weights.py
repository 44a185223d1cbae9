"""Edge-weight systems and path sums for products of orthogonal polynomials.

Two weighted path expansions are implemented, plus the machinery of
their combinatorial proofs:

* the monic expansion: L(p_m p_n p_k) = lam[1]..lam[n] * sum over plain
  Motzkin paths (0,m) -> (k,n) of a product of edge weights that depend
  on each edge's start vertex (x, level) and, for D edges, on whether a
  U follows;
* the two-family expansion: L(p_m p_n p'_k) = prefactor * sum over
  generalized Motzkin paths (0,m) -> (k,n) of edge weights that depend
  on the preceding edge.

"Followed by" / "preceded by" always means the immediately adjacent
edge in the step sequence; the first edge counts as not preceded and the
last as not followed.

Monic edge weights, for an edge starting at (i, j):

    H                    (b[j] - b[i])
    D followed by U      (lam[j] - lam[i+1]);  at j = 0 this is the
                         boundary dip inserted by a merged domino and
                         evaluates with lam[0] treated as 0
    D not followed by U  lam[j]
    U                    1

Two-family edge weights (alpha[0] = 0 by the system convention):

    H                        (beta[j] - beta'[i])
    U preceded by D          (gamma[j] - alpha'[i]), else gamma[j]
    D preceded by U          (alpha[j] - alpha'[i]), else alpha[j]
    HH preceded by U or D    (alpha[j] + gamma[j] - alpha'[i] - gamma'[i]) * alpha'[i+1]
    HH otherwise             (alpha[j] + gamma[j] - gamma'[i]) * alpha'[i+1]

Merged weights (what the path/paving merge produces directly):

    H  (beta[j] - beta'[i]),  U  gamma[j],  D  alpha[j],
    HH  -gamma'[i] * alpha'[i+1]

The sign-reversing involution pairs off, within the multiset of
per-edge monomial choices of the two-family weights, every term whose
choice mentions alpha' (apart from the -gamma'*alpha' monomial of HH),
leaving exactly the merged weights as fixed points.

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

Edge weights, prefactors and both DPs index the tuples of
``materialize`` (see ``systems``) instead of evaluating coefficients per
edge.  ``orthopath verify`` weighs each census once: its informational
routes reuse those per-path weights, the strict census as the paths with
``is_standard()`` and the k-indexed prefactor times the same weight sum.
``strict_monic_weight_sum`` and ``path_sum_mixed(...,
k_indexed_prefactor=True)`` still compute both from scratch, as the
references the tests hold those routes to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Dict, List, Optional, Tuple

from .paths import ACROSS, ACROSS2, DOWN, UP, MotzkinPath, enumerate_paths
from .scalars import Scalar, scalar_div, scalar_product, scalar_sum
from .systems import CoefficientSystem, SequenceSpec, monic_b_lambda


@dataclass(frozen=True)
class PathSumResult:
    """A weighted path sum: total = prefactor * sum(per_path.values())."""

    total: Scalar
    prefactor: Scalar
    weight_sum: Scalar
    per_path: Dict[MotzkinPath, Scalar]


# -- monic weights ---------------------------------------------------------

def path_weight_monic(path: MotzkinPath, b: SequenceSpec, lam: SequenceSpec) -> Scalar:
    """Product of monic edge weights over the path.

    The path must be plain (no HH) and axis-respecting up to level-0 D,U
    excursions.
    """
    if not path.is_plain:
        raise ValueError("monic weights are defined on plain paths only")
    if not path.is_boundary_valid():
        raise ValueError(f"path {path} dips below the permitted boundary")
    top = path.start + len(path.steps) + 1
    bv, lv = b.materialize(top), lam.materialize(top)
    steps = path.steps
    last = len(steps) - 1
    total: Scalar = 1
    x, j = 0, path.start
    for idx, step in enumerate(steps):
        if step == ACROSS:
            total = total * (bv[j] - bv[x])
        elif step == DOWN:
            if idx < last and steps[idx + 1] == UP:
                if j == 0:
                    total = total * (-lv[x + 1])
                else:
                    total = total * (lv[j] - lv[x + 1])
            else:
                total = total * lv[j]
            j -= 1
        else:  # U contributes 1
            j += 1
        x += 1
    return total


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


# -- two-family weights ----------------------------------------------------

def path_weight_mixed(
    path: MotzkinPath, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> Scalar:
    """Product of two-family edge weights over a generalized path."""
    if not path.is_standard():
        raise ValueError(f"path {path} dips below the axis")
    alpha, beta, gamma, alpha_p, beta_p, gamma_p = _two_family(path, sys, sys_prime)
    total: Scalar = 1
    prev: Optional[str] = None
    i, j = 0, path.start
    for step in path.steps:
        if step == ACROSS:
            f = beta[j] - beta_p[i]
        elif step == UP:
            f = gamma[j]
            if prev == DOWN:
                f = f - alpha_p[i]
            j += 1
        elif step == DOWN:
            f = alpha[j]
            if prev == UP:
                f = f - alpha_p[i]
            j -= 1
        else:  # ACROSS2
            base = alpha[j] + gamma[j] - gamma_p[i]
            if prev in (UP, DOWN):
                base = base - alpha_p[i]
            f = base * alpha_p[i + 1]
            i += 1
        total = total * f
        prev = step
        i += 1
    return total


def _two_family(
    path: MotzkinPath, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> Tuple[Tuple[Scalar, ...], ...]:
    """alpha, beta, gamma, alpha', beta', gamma' materialized far enough
    for every edge of the path (levels and positions, alpha'[x + 1])."""
    top = path.start + 2 * len(path.steps) + 1
    return (*sys.materialize(top), *sys_prime.materialize(top))


def path_weight_merged(
    path: MotzkinPath, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> Scalar:
    """Product of merged (context-free) edge weights over a generalized path."""
    if not path.is_standard():
        raise ValueError(f"path {path} dips below the axis")
    alpha, beta, gamma, alpha_p, beta_p, gamma_p = _two_family(path, sys, sys_prime)
    total: Scalar = 1
    for i, j, step in path.edges():
        if step == ACROSS:
            total = total * (beta[j] - beta_p[i])
        elif step == UP:
            total = total * gamma[j]
        elif step == DOWN:
            total = total * alpha[j]
        else:
            total = total * (-(gamma_p[i] * alpha_p[i + 1]))
    return total


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

# Per-edge choice tags.  H edges keep their whole weight as one atomic
# factor; every other edge picks one monomial of its weight.  Tags whose
# monomial mentions alpha' are "marked" and get cancelled by the
# involution, except the -gamma'*alpha' monomial of HH which survives.
H_ATOM = "H"
U_GAMMA = "U:g"
U_APRIME = "U:-a'"
D_ALPHA = "D:a"
D_APRIME = "D:-a'"
HH_ALPHA = "HH:a"
HH_GAMMA = "HH:g"
HH_APRIME = "HH:-a'"
HH_GPRIME = "HH:-g'"

_MARKED = frozenset({U_APRIME, D_APRIME, HH_ALPHA, HH_GAMMA, HH_APRIME})
_NEGATIVE = frozenset({U_APRIME, D_APRIME, HH_APRIME, HH_GPRIME})


@dataclass(frozen=True)
class WeightedTerm:
    """One monomial choice per edge of a generalized path.

    ``sign`` is the structural sign (the product of the chosen monomials'
    written signs) and ``value`` the signed product of the chosen factors.
    """

    path: MotzkinPath
    tags: Tuple[str, ...]
    sign: int
    value: Scalar


def _edge_choices(
    path: MotzkinPath, prev: Optional[str], lvl: int, step: str
) -> List[str]:
    if step == ACROSS:
        return [H_ATOM]
    if step == UP:
        return [U_GAMMA, U_APRIME] if prev == DOWN else [U_GAMMA]
    if step == DOWN:
        return [D_ALPHA, D_APRIME] if prev == UP else [D_ALPHA]
    choices = []
    if lvl >= 1:  # alpha[0] = 0, so that monomial does not exist at level 0
        choices.append(HH_ALPHA)
    choices.append(HH_GAMMA)
    if prev in (UP, DOWN):
        choices.append(HH_APRIME)
    choices.append(HH_GPRIME)
    return choices


def make_term(
    path: MotzkinPath,
    tags: Tuple[str, ...],
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
) -> WeightedTerm:
    """Build a term from its choice tags, validating each against its context."""
    edges = path.edges()
    if len(tags) != len(edges):
        raise ValueError("one choice tag per edge is required")
    alpha, beta, gamma, alpha_p, beta_p, gamma_p = _two_family(path, sys, sys_prime)
    sign = 1
    value: Scalar = 1
    prev: Optional[str] = None
    for (i, j, step), tag in zip(edges, tags):
        if tag not in _edge_choices(path, prev, j, step):
            raise ValueError(f"tag {tag!r} not available for {step} after {prev}")
        if tag == H_ATOM:
            value = value * (beta[j] - beta_p[i])
        elif tag == U_GAMMA:
            value = value * gamma[j]
        elif tag == U_APRIME or tag == D_APRIME:
            value = value * (-alpha_p[i])
        elif tag == D_ALPHA:
            value = value * alpha[j]
        elif tag == HH_ALPHA:
            value = value * (alpha[j] * alpha_p[i + 1])
        elif tag == HH_GAMMA:
            value = value * (gamma[j] * alpha_p[i + 1])
        elif tag == HH_APRIME:
            value = value * (-(alpha_p[i] * alpha_p[i + 1]))
        elif tag == HH_GPRIME:
            value = value * (-(gamma_p[i] * alpha_p[i + 1]))
        else:
            raise ValueError(f"unknown tag {tag!r}")
        if tag in _NEGATIVE:
            sign = -sign
        prev = step
    return WeightedTerm(path, tags, sign, value)


def expand_choices(
    path: MotzkinPath, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> List[WeightedTerm]:
    """All monomial-choice terms of a path; their values sum to its weight."""
    options: List[List[str]] = []
    prev: Optional[str] = None
    for _, j, step in path.edges():
        options.append(_edge_choices(path, prev, j, step))
        prev = step
    return [
        make_term(path, tags, sys, sys_prime) for tags in iter_product(*options)
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
    HH splits into a U,D or D,U pair carrying the matching monomials; a
    marked U or D collapses with its predecessor into an HH.  Non-fixed
    terms map to terms of opposite structural sign and negated value;
    fixed points return unchanged.
    """
    steps = term.path.steps
    tags = term.tags
    pivot = -1
    for e in range(len(tags) - 1, -1, -1):
        if tags[e] in _MARKED:
            pivot = e
            break
    if pivot < 0:
        return term

    step = steps[pivot]
    tag = tags[pivot]
    prev = steps[pivot - 1] if pivot > 0 else None
    if step == ACROSS2:
        if tag == HH_ALPHA:
            repl_steps, repl_tags = (DOWN, UP), (D_ALPHA, U_APRIME)
        elif tag == HH_GAMMA:
            repl_steps, repl_tags = (UP, DOWN), (U_GAMMA, D_APRIME)
        elif prev == DOWN:
            repl_steps, repl_tags = (UP, DOWN), (U_APRIME, D_APRIME)
        else:  # HH_APRIME preceded by U
            repl_steps, repl_tags = (DOWN, UP), (D_APRIME, U_APRIME)
        new_steps = steps[:pivot] + repl_steps + steps[pivot + 1 :]
        new_tags = tags[:pivot] + repl_tags + tags[pivot + 1 :]
    else:
        # a marked U is always preceded by D, a marked D by U; collapse
        # the pair into one HH whose monomial combines the partner's
        # choice with the alpha' factor carried here
        partner = tags[pivot - 1]
        if step == UP:
            combined = HH_ALPHA if partner == D_ALPHA else HH_APRIME
        else:
            combined = HH_GAMMA if partner == U_GAMMA else HH_APRIME
        new_steps = steps[: pivot - 1] + (ACROSS2,) + steps[pivot + 1 :]
        new_tags = tags[: pivot - 1] + (combined,) + tags[pivot + 1 :]
    return make_term(
        MotzkinPath(term.path.start, new_steps), new_tags, sys, sys_prime
    )


# -- dynamic-programming evaluation -----------------------------------------

def dp_sum(
    m: int,
    n: int,
    k: int,
    weights: str,
    sys: Optional[CoefficientSystem] = None,
    sys_prime: Optional[CoefficientSystem] = None,
) -> Scalar:
    """Transfer-matrix evaluation of a weighted path sum (no prefactor).

    ``weights`` selects the system: "monic" (requires a monic ``sys``;
    matches ``path_sum_monic``'s weight_sum, boundary dips included),
    "mixed", "merged", or "count" (unweighted plain-path census).  Equals
    the corresponding enumeration sum exactly; the state space is
    (position, level, adjacent-step context) because the weights look at
    neighboring edges.
    """
    if weights == "count":
        return _dp_count(m, n, k)
    if weights == "monic":
        if sys is None:
            raise ValueError("monic dp_sum needs a coefficient system")
        b, lam = monic_b_lambda(sys, m + k + 1)
        return _dp_monic(m, n, k, b, lam)
    if weights in ("mixed", "merged"):
        if sys is None or sys_prime is None:
            raise ValueError("two-family dp_sum needs both coefficient systems")
        return _dp_two_family(m, n, k, sys, sys_prime, merged=(weights == "merged"))
    raise ValueError(f"unknown weight system {weights!r}")


def _dp_count(m: int, n: int, k: int) -> int:
    states = {m: 1}
    for _ in range(k):
        nxt: Dict[int, int] = {}
        for lvl, c in states.items():
            for new in (lvl + 1, lvl - 1, lvl):
                if new >= 0:
                    nxt[new] = nxt.get(new, 0) + c
        states = nxt
    return states.get(n, 0)


def _dp_monic(m: int, n: int, k: int, b: SequenceSpec, lam: SequenceSpec) -> Scalar:
    # state: (level, pending) where pending means the previous edge was a
    # D whose weight is deferred until its follower is known
    bv, lv = b.materialize(m + k + 1), lam.materialize(m + k + 1)
    states: Dict[Tuple[int, bool], Scalar] = {(m, False): 1}
    for x in range(k):
        nxt: Dict[Tuple[int, bool], Scalar] = {}

        def put(key: Tuple[int, bool], val: Scalar) -> None:
            nxt[key] = nxt.get(key, 0) + val

        for (lvl, pending), acc in states.items():
            if lvl < 0:
                # inside a boundary dip: the pending D started at level 0
                # and must be followed by U, with lam[0] treated as 0
                put((0, False), acc * (-lv[x]))
                continue
            resolved = acc * lv[lvl + 1] if pending else acc
            # U
            up_acc = acc * (lv[lvl + 1] - lv[x]) if pending else acc
            put((lvl + 1, False), up_acc)
            # D
            if lvl >= 1:
                put((lvl - 1, True), resolved)
            else:
                put((-1, True), resolved)
            # H
            put((lvl, False), resolved * (bv[lvl] - bv[x]))
        states = nxt
    total: Scalar = 0
    for (lvl, pending), acc in states.items():
        if lvl != n:
            continue
        total = total + (acc * lv[lvl + 1] if pending else acc)
    return total


def _dp_two_family(
    m: int,
    n: int,
    k: int,
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
    merged: bool,
) -> Scalar:
    # state: (x, level, previous step class); HH advances x by two
    alpha, beta, gamma = sys.materialize(m + k + 1)
    alpha_p, beta_p, gamma_p = sys_prime.materialize(m + k + 1)
    states: Dict[Tuple[int, int, Optional[str]], Scalar] = {(0, m, None): 1}
    total: Scalar = 0
    for x in range(k + 1):
        current = [(key, v) for key, v in states.items() if key[0] == x]
        for key, _ in current:
            del states[key]

        def put(key: Tuple[int, int, Optional[str]], val: Scalar) -> None:
            states[key] = states.get(key, 0) + val

        for (_, lvl, prev), acc in current:
            if x == k:
                if lvl == n:
                    total = total + acc
                continue
            rem = k - x
            # U
            f = gamma[lvl]
            if not merged and prev == DOWN:
                f = f - alpha_p[x]
            put((x + 1, lvl + 1, UP), acc * f)
            # D
            if lvl >= 1:
                f = alpha[lvl]
                if not merged and prev == UP:
                    f = f - alpha_p[x]
                put((x + 1, lvl - 1, DOWN), acc * f)
            # H
            f = beta[lvl] - beta_p[x]
            put((x + 1, lvl, ACROSS), acc * f)
            # HH
            if rem >= 2:
                if merged:
                    f = -(gamma_p[x] * alpha_p[x + 1])
                else:
                    base = alpha[lvl] + gamma[lvl] - gamma_p[x]
                    if prev in (UP, DOWN):
                        base = base - alpha_p[x]
                    f = base * alpha_p[x + 1]
                put((x + 2, lvl, ACROSS2), acc * f)
    return total
