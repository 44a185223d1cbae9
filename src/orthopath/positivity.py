"""Monotonicity hypotheses and per-path nonnegativity certificates.

Three sufficient rules for nonnegative expansion coefficients are
checked over a finite index window (``required_window`` gives the window
an instance needs, indices up to m + n + k):

* monic-monotone: b increasing and lam increasing with lam > 0;
* dominance: positive alpha, alpha', gamma, gamma' with
  beta[j] >= beta'[i], alpha[j] >= alpha'[i],
  alpha[j] + gamma[j] >= alpha'[i] + gamma'[i], gamma[j] >= alpha'[i]
  for all window pairs j >= i;
* parity dominance: both beta sequences identically 0 and the dominance
  inequalities split by index parity, for products with even first index.

Each rule lists its named checks once: single-index checks, then pairs
(i, j) that need small <= big ("increasing" is read weakly; pass
``strict=True`` for small < big).  One scanner turns the list into the
rule's report.  The scans read the raw sequences, index-0 alpha included;
the alpha[0] = 0 convention applies only to weight evaluation.

Certificates weigh every path of an explicit enumeration, never the
transfer matrix.  On a path oriented so its x-length is at most its end
level, each edge factor is signed by one of the rule's inequalities, so
a negative row under a holding rule is unsound.  ``certify_monic`` can
always orient so, ``certify_mixed`` exactly when k' <= max(m, n).
``orthopath positivity`` binds its exit status to its first report
(monic-monotone or dominance); the parity-dominance report is
informational.
"""

from __future__ import annotations

from typing import Callable, Iterable, Tuple

from .paths import MotzkinPath, enumerate_paths
from .scalars import Record, Scalar, scalar_sign, scalar_sum
from .systems import CoefficientSystem, SequenceSpec
from .weights import path_weight_mixed, path_weight_monic


class Violation(Record):
    """One failed inequality: the named rule at indices (i, j) with values."""

    __slots__ = _fields = ("name", "i", "j", "value_i", "value_j")

    def __init__(self, name: str, i: int, j: int, value_i: Scalar, value_j: Scalar) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "value_i", value_i)
        object.__setattr__(self, "value_j", value_j)


class HypothesisReport(Record):
    __slots__ = _fields = ("rule", "window", "strict", "holds", "violations")

    def __init__(self, rule: str, window: int, strict: bool, holds: bool,
                 violations: Tuple[Violation, ...]) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "strict", strict)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "violations", violations)


def required_window(m: int, n: int, k: int) -> int:
    """Index window sufficient for certifying the instance (m, n, k)."""
    return m + n + k


def _scan(
    rule: str, window: int, strict: bool, singles: Iterable, pairs: Iterable
) -> HypothesisReport:
    """The report of one rule: its failed single-index checks, then its
    failed pair checks (small < big needed when strict), in listed order."""
    least = 1 if strict else 0
    failed = [(name, i, i, value, 0) for name, i, value, holds in singles if not holds]
    # a pair check (name, i, j, small, big) already reads as its violation
    failed += [pair for pair in pairs if scalar_sign(pair[4] - pair[3]) < least]
    violations = tuple(Violation(*v) for v in failed)
    return HypothesisReport(rule, window, strict, not violations, violations)


def check_monic_monotone(
    b: SequenceSpec, lam: SequenceSpec, window: int, strict: bool = False
) -> HypothesisReport:
    """lam[j] > 0 and both sequences increasing across the window."""
    lv = lam.require(1, window)
    bv = b.require(0, window) if window else ()
    return _scan(
        "monic-monotone", window, strict,
        [("lam positive", j, lv[j], scalar_sign(lv[j]) > 0) for j in range(1, window + 1)],
        [("lam increasing", j, j + 1, lv[j], lv[j + 1]) for j in range(1, window)]
        + [("b increasing", j, j + 1, bv[j], bv[j + 1]) for j in range(window)],
    )


def _two_family(sys: CoefficientSystem, sys_prime: CoefficientSystem, window: int):
    """What both dominance rules read: the raw betas over 0..window, the positivity
    checks, and the three inequalities of alpha and gamma at a pair (i, j)."""
    (a, b, g), (ap, bp, gp) = (
        [seq.require(0, window) for seq in (s.alpha, s.beta, s.gamma)]
        for s in (sys, sys_prime)
    )
    positive = [
        (f"{name} positive", i, seq[i], scalar_sign(seq[i]) > 0)
        for name, seq, lo in (
            ("alpha", a, 1), ("alpha'", ap, 1), ("gamma", g, 0), ("gamma'", gp, 0)
        )
        for i in range(lo, window + 1)
    ]

    def dominates(i: int, j: int, tag: str = ""):
        return (
            (f"alpha >= alpha'{tag}", i, j, ap[i], a[j]),
            (f"alpha+gamma >= alpha'+gamma'{tag}", i, j, ap[i] + gp[i], a[j] + g[j]),
            (f"gamma >= alpha'{tag}", i, j, ap[i], g[j]),
        )

    return b, bp, positive, dominates


def check_dominance(
    sys: CoefficientSystem, sys_prime: CoefficientSystem, window: int, strict: bool = False
) -> HypothesisReport:
    """The four two-family inequality sets over all window pairs j >= i."""
    b, bp, positive, dominates = _two_family(sys, sys_prime, window)
    pairs = [
        check
        for i in range(window + 1)
        for j in range(i, window + 1)
        for check in (("beta >= beta'", i, j, bp[i], b[j]), *dominates(i, j))
    ]
    return _scan("dominance", window, strict, positive, pairs)


def check_parity_dominance(
    sys: CoefficientSystem, sys_prime: CoefficientSystem, window: int, strict: bool = False
) -> HypothesisReport:
    """Both betas identically 0 plus the parity-split dominance inequalities."""
    b, bp, positive, dominates = _two_family(sys, sys_prime, window)
    zero = [
        (name, i, seq[i], seq[i] == 0)
        for name, seq in (("beta = 0", b), ("beta' = 0", bp)) for i in range(window + 1)
    ]
    pairs = [
        check
        for parity, tag in ((0, " (even)"), (1, " (odd)"))
        for i in range(parity, window + 1, 2)
        for j in range(i, window + 1, 2)
        for check in dominates(i, j, tag)
    ]
    return _scan("parity-dominance", window, strict, positive + zero, pairs)


class PositivityCertificate(Record):
    """Every path weight of one instance, individually signed.

    ``oriented`` is the (m, n, k) actually enumerated after exploiting
    the symmetry of L to keep the x-length at most the end level where
    possible; the weights then witness the sign of the coefficient.
    """

    __slots__ = _fields = ("instance", "oriented", "rows")

    def __init__(self, instance: Tuple[int, int, int], oriented: Tuple[int, int, int],
                 rows: Tuple[Tuple[MotzkinPath, Scalar, int], ...]) -> None:
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "oriented", oriented)
        object.__setattr__(self, "rows", rows)

    @property
    def all_nonnegative(self) -> bool:
        return all(s >= 0 for _, _, s in self.rows)

    @property
    def weight_sum(self) -> Scalar:
        return scalar_sum(w for _, w, _ in self.rows)


def _certificate(
    instance: Tuple[int, int, int], oriented: Tuple[int, int, int], allow_hh: bool,
    weigh: Callable[[MotzkinPath], Scalar],
) -> PositivityCertificate:
    """Weigh and sign every path of the oriented census, in census order."""
    census = enumerate_paths(*oriented, allow_hh=allow_hh)
    rows = tuple((path, w, scalar_sign(w)) for path, w in zip(census, map(weigh, census)))
    return PositivityCertificate(instance, oriented, rows)


def certify_monic(
    m: int, n: int, k: int, b: SequenceSpec, lam: SequenceSpec
) -> PositivityCertificate:
    """Per-path weights for a same-family product, oriented so k <= n."""
    nn, kk = (n, k) if k <= n else (k, n)
    return _certificate(
        (m, n, k), (m, nn, kk), False, lambda path: path_weight_monic(path, b, lam)
    )


def certify_mixed(
    m: int, n: int, k_prime: int, sys: CoefficientSystem, sys_prime: CoefficientSystem
) -> PositivityCertificate:
    """Per-path weights for a mixed product, oriented so k' <= end level
    whenever k' <= max(m, n)."""
    mm, nn = (n, m) if n < k_prime <= m else (m, n)
    return _certificate(
        (m, n, k_prime), (mm, nn, k_prime), True,
        lambda path: path_weight_mixed(path, sys, sys_prime),
    )
