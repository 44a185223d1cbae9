"""Monotonicity hypotheses and per-path nonnegativity certificates.

Three sufficient rules for nonnegative expansion coefficients are
checked over a finite index window (the unbounded statements are
necessarily truncated; ``required_window`` gives the window an instance
needs, indices up to m + n + k):

* monic-monotone: b increasing and lam increasing with lam > 0, which
  makes every monic path weight nonnegative once the path is oriented so
  its x-length is at most its end level;
* dominance: positive alpha, alpha', gamma, gamma' with
  beta[j] >= beta'[i], alpha[j] >= alpha'[i],
  alpha[j] + gamma[j] >= alpha'[i] + gamma'[i], gamma[j] >= alpha'[i]
  for all window pairs j >= i;
* parity dominance: both beta sequences identically 0 and the dominance
  inequalities split by index parity, for products with even first index.
  Its report is informational: ``orthopath positivity`` binds its exit
  status to the dominance rule only, so a failed parity check, or a
  negative certificate that only the parity rule would guarantee, never
  exits 1.

"Increasing" is read weakly (>=); pass ``strict=True`` to demand strict
inequalities.  Hypothesis scans read the raw sequences (including any
index-0 alpha entries); the alpha[0] = 0 convention applies only to
weight evaluation.

Certificates are built from explicit enumeration, never the transfer
matrix, so each path's weight is individually exhibited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .paths import MotzkinPath, enumerate_paths
from .scalars import Scalar, scalar_sign, scalar_sum
from .systems import CoefficientSystem, SequenceSpec
from .weights import path_weight_mixed, path_weight_monic


@dataclass(frozen=True)
class Violation:
    """One failed inequality: the named rule at indices (i, j) with values."""

    name: str
    i: int
    j: int
    value_i: Scalar
    value_j: Scalar


@dataclass(frozen=True)
class HypothesisReport:
    rule: str
    window: int
    strict: bool
    holds: bool
    violations: Tuple[Violation, ...]


def required_window(m: int, n: int, k: int) -> int:
    """Index window sufficient for certifying the instance (m, n, k)."""
    return m + n + k


def _cmp_ok(lo: Scalar, hi: Scalar, strict: bool) -> bool:
    return scalar_sign(hi - lo) > 0 if strict else scalar_sign(hi - lo) >= 0


def check_monic_monotone(
    b: SequenceSpec, lam: SequenceSpec, window: int, strict: bool = False
) -> HypothesisReport:
    """lam[j] > 0 and both sequences increasing across the window."""
    lv = lam.require(1, window)
    bv = b.require(0, window) if window else ()
    bad: List[Violation] = []
    for j in range(1, window + 1):
        if scalar_sign(lv[j]) <= 0:
            bad.append(Violation("lam positive", j, j, lv[j], 0))
    for j in range(1, window):
        if not _cmp_ok(lv[j], lv[j + 1], strict):
            bad.append(Violation("lam increasing", j, j + 1, lv[j], lv[j + 1]))
    for j in range(window):
        if not _cmp_ok(bv[j], bv[j + 1], strict):
            bad.append(Violation("b increasing", j, j + 1, bv[j], bv[j + 1]))
    return HypothesisReport("monic-monotone", window, strict, not bad, tuple(bad))


def _raw(sys: CoefficientSystem, window: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """The raw alpha (index 0 included), beta and gamma over 0..window."""
    return tuple(seq.require(0, window) for seq in (sys.alpha, sys.beta, sys.gamma))


def _positivity_violations(a, g, ap, gp, window: int) -> List[Violation]:
    bad: List[Violation] = []
    for name, seq in (("alpha positive", a), ("alpha' positive", ap)):
        for i in range(1, window + 1):
            if scalar_sign(seq[i]) <= 0:
                bad.append(Violation(name, i, i, seq[i], 0))
    for name, seq in (("gamma positive", g), ("gamma' positive", gp)):
        for i in range(window + 1):
            if scalar_sign(seq[i]) <= 0:
                bad.append(Violation(name, i, i, seq[i], 0))
    return bad


def check_dominance(
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
    window: int,
    strict: bool = False,
) -> HypothesisReport:
    """The four two-family inequality sets over all window pairs j >= i."""
    a, b, g = _raw(sys, window)
    ap, bp, gp = _raw(sys_prime, window)
    bad = _positivity_violations(a, g, ap, gp, window)
    for i in range(window + 1):
        for j in range(i, window + 1):
            pairs = (
                ("beta >= beta'", bp[i], b[j]),
                ("alpha >= alpha'", ap[i], a[j]),
                ("alpha+gamma >= alpha'+gamma'", ap[i] + gp[i], a[j] + g[j]),
                ("gamma >= alpha'", ap[i], g[j]),
            )
            for name, small, big in pairs:
                if not _cmp_ok(small, big, strict):
                    bad.append(Violation(name, i, j, small, big))
    return HypothesisReport("dominance", window, strict, not bad, tuple(bad))


def check_parity_dominance(
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
    window: int,
    strict: bool = False,
) -> HypothesisReport:
    """Both betas identically 0 plus the parity-split dominance inequalities."""
    a, b, g = _raw(sys, window)
    ap, bp, gp = _raw(sys_prime, window)
    bad = _positivity_violations(a, g, ap, gp, window)
    for name, seq in (("beta = 0", b), ("beta' = 0", bp)):
        for i in range(window + 1):
            if seq[i] != 0:
                bad.append(Violation(name, i, i, seq[i], 0))
    for parity in (0, 1):
        i = parity
        while i <= window:
            j = i
            while j <= window:
                pairs = (
                    (f"alpha >= alpha' ({'even' if parity == 0 else 'odd'})",
                     ap[i], a[j]),
                    (f"alpha+gamma >= alpha'+gamma' ({'even' if parity == 0 else 'odd'})",
                     ap[i] + gp[i], a[j] + g[j]),
                    (f"gamma >= alpha' ({'even' if parity == 0 else 'odd'})",
                     ap[i], g[j]),
                )
                for name, small, big in pairs:
                    if not _cmp_ok(small, big, strict):
                        bad.append(Violation(name, i, j, small, big))
                j += 2
            i += 2
    return HypothesisReport("parity-dominance", window, strict, not bad, tuple(bad))


@dataclass(frozen=True)
class PositivityCertificate:
    """Every path weight of one instance, individually signed.

    ``oriented`` is the (m, n, k) actually enumerated after exploiting
    the symmetry of L to keep the x-length at most the end level where
    possible; the weights then witness the sign of the coefficient.
    """

    instance: Tuple[int, int, int]
    oriented: Tuple[int, int, int]
    rows: Tuple[Tuple[MotzkinPath, Scalar, int], ...]
    all_nonnegative: bool

    @property
    def weight_sum(self) -> Scalar:
        return scalar_sum(w for _, w, _ in self.rows)


def certify_monic(
    m: int, n: int, k: int, b: SequenceSpec, lam: SequenceSpec
) -> PositivityCertificate:
    """Per-path weights for a same-family product, oriented so k <= n."""
    nn, kk = (n, k) if k <= n else (k, n)
    rows = []
    ok = True
    for path in enumerate_paths(m, nn, kk, allow_hh=False):
        w = path_weight_monic(path, b, lam)
        s = scalar_sign(w)
        ok = ok and s >= 0
        rows.append((path, w, s))
    return PositivityCertificate((m, n, k), (m, nn, kk), tuple(rows), ok)


def certify_mixed(
    m: int,
    n: int,
    k_prime: int,
    sys: CoefficientSystem,
    sys_prime: CoefficientSystem,
) -> PositivityCertificate:
    """Per-path weights for a mixed product, oriented so k' <= end level
    whenever k' <= max(m, n)."""
    mm, nn = (m, n)
    if k_prime > n and k_prime <= m:
        mm, nn = n, m
    rows = []
    ok = True
    for path in enumerate_paths(mm, nn, k_prime, allow_hh=True):
        w = path_weight_mixed(path, sys, sys_prime)
        s = scalar_sign(w)
        ok = ok and s >= 0
        rows.append((path, w, s))
    return PositivityCertificate((m, n, k_prime), (mm, nn, k_prime), tuple(rows), ok)
