"""Coefficient systems of three-term recurrences.

A family of orthogonal polynomials is determined by the recurrence

    alpha[n+1] * p[n+1](x) = (x - beta[n]) * p[n](x) - gamma[n-1] * p[n-1](x)

with p[-1] = 0 and p[0] = 1.  A :class:`CoefficientSystem` holds the
three coefficient sequences.  The recurrence reads alpha from index 1,
beta and gamma from index 0; ``alpha`` at index 0 is defined to be 0 by
convention, which is what the two-family edge weights need at height 0
(the acceptance suite pins this against the recurrence oracle).

Sequences come in a few shapes (explicit list, affine in the index,
constant, symbolic family), are immutable, and evaluate eagerly: an
explicit list raises :class:`SequenceRangeError` on any out-of-range
index rather than extending silently.  A system decides its scalar
domain when it is built: symbolic exactly when a sequence is a symbolic
family or holds a ``Poly``.

Hot loops do not evaluate ``at`` per edge.  ``materialize(top)`` turns a
sequence, or a whole system, into plain tuples over indices 0..top,
computed once from ``at``, kept on the instance and extended on demand;
integral rationals are stored as ``int`` so numeric and symbolic values
mix exactly.  An index outside a sequence (past the end of an explicit
list, or below the start of a shifted view) is held as a placeholder
that raises the same :class:`SequenceRangeError` as ``at`` when it is
used, so a short sequence fails exactly where direct evaluation did.

The recurrence oracle and the transfer-matrix DP read the materialized
tuples in one integer form, ``_scaled``, made here next to the placeholder
it keeps: integer numerators over one common denominator, cached on its
owner, with a ``Poly`` anywhere leaving the tuples as they are.

JSON wire format for a system file::

    {"label": "hermite-like",
     "alpha": {"family": "constant", "value": "1"},
     "beta":  {"family": "constant", "value": "0"},
     "gamma": {"family": "affine", "c0": "1", "c1": "1"}}

where a sequence is one of
``{"family":"explicit","values":["1/2","2",...]}`` (index i = position i),
``{"family":"affine","c0":"p/q","c1":"p/q"}``,
``{"family":"constant","value":"p/q"}``, or
``{"family":"symbolic","tag":"b"}`` (optional ``"shift"`` adds to the
index, so gamma of a monic family can be the l-family shifted by 1).
Rationals are decimal-free strings "p/q".
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Tuple, Union

from .scalars import (
    FAMILIES,
    DomainMismatchError,
    Poly,
    Record,
    Scalar,
    UnsupportedDomainError,
    indet,
    parse_rational,
    scalar_div,
    scalar_sign,
)


class SequenceRangeError(IndexError):
    """An explicit coefficient list was asked for an index it does not hold."""


def _normalized(x: Scalar) -> Scalar:
    """Integral rationals as ``int``; every other scalar unchanged."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


class _OutOfRange:
    """A materialized entry for an index outside its sequence.

    Using it in arithmetic or a comparison raises the
    :class:`SequenceRangeError` that evaluating the index raised.
    """

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def fail(self, *_: object):
        raise SequenceRangeError(self.message)

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = fail
    __neg__ = __eq__ = __ne__ = fail
    __hash__ = None


def _present(value: Scalar) -> Scalar:
    """A materialized entry, or the range error of a placeholder."""
    if type(value) is _OutOfRange:
        value.fail()
    return value


def _entries(values: Tuple[Scalar, ...], lo: int, hi: int) -> Iterator[Scalar]:
    """values[lo..hi] in order (none if hi < lo), raising at the first out-of-range one."""
    return map(_present, values[lo : hi + 1] if lo <= hi else ())


def _memo(obj: object) -> dict:
    """The cache of an immutable object, created on first use.

    It holds values derived from the object's fields only, so equal
    objects cache equal values; a race between threads recomputes an
    entry, it never corrupts one.
    """
    memo = obj.__dict__.get("_memo")
    if memo is None:
        memo = {}
        object.__setattr__(obj, "_memo", memo)
    return memo


def _scaled(owner: object, seqs: tuple, degrees: Tuple[int, ...]) -> Tuple[tuple, int]:
    """Materialized sequences as integers over one denominator D, the lcm
    of every denominator: each value becomes its numerator times D to its
    sequence's degree over its denominator, and a placeholder stays one.
    If a ``Poly`` appears anywhere, the sequences come back unchanged over
    D = 1.  Kept on ``owner`` for as long as ``seqs`` is the same object.
    """
    memo = _memo(owner)
    entry = memo.get("scaled")
    if entry is None or entry[0] is not seqs:
        values = [v for seq in seqs for v in seq if type(v) is not _OutOfRange]
        poly = any(isinstance(v, Poly) for v in values)
        den = 1 if poly else lcm(*(v.denominator for v in values))
        scaled = seqs if den == 1 else tuple(
            tuple(v if type(v) is _OutOfRange else v.numerator * scale // v.denominator
                  for v in seq)
            for seq, scale in zip(seqs, (den ** d for d in degrees))
        )
        entry = memo["scaled"] = (seqs, (scaled, den))
    return entry[1]


def _evaluate(seq: "SequenceSpec", i: int) -> Scalar:
    """seq.at(i) as a materialized entry: normalized, or a placeholder."""
    try:
        return _normalized(seq.at(i))
    except SequenceRangeError as exc:
        return _OutOfRange(str(exc))


class _Materialized(Record):
    """``materialize`` for a sequence defined by its ``at``.  Sequences
    keep a ``__dict__`` for the cache ``_memo`` makes."""

    def materialize(self, top: int) -> Tuple[Scalar, ...]:
        """Entries 0..top (or more) as a tuple, integral values as int.

        Computed once from ``at`` and extended on demand; an index that
        ``at`` rejects holds a placeholder that raises when used.
        """
        memo = _memo(self)
        values = memo.get("values", ())
        if len(values) <= top:
            values = memo["values"] = values + tuple(
                _evaluate(self, i) for i in range(len(values), top + 1)
            )
        return values

    def require(self, lo: int, hi: int) -> Tuple[Scalar, ...]:
        """``materialize(hi)``, raising if an index in lo..hi is outside
        the sequence (the first such index, in order)."""
        values = self.materialize(hi)
        for _ in _entries(values, lo, hi):
            pass
        return values


class ExplicitSeq(_Materialized):
    """Fixed-length list of scalars; index i is values[i]."""

    _fields = ("values",)

    def __init__(self, values: Tuple[Scalar, ...]) -> None:
        object.__setattr__(self, "values", values)

    def at(self, i: int) -> Scalar:
        if i < 0 or i >= len(self.values):
            raise SequenceRangeError(
                f"index {i} outside explicit sequence of length {len(self.values)}"
            )
        return self.values[i]


class AffineSeq(_Materialized):
    """i -> c0 + c1*i with rational c0, c1."""

    _fields = ("c0", "c1")

    def __init__(self, c0: Fraction, c1: Fraction) -> None:
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)

    def at(self, i: int) -> Scalar:
        if i < 0:
            raise SequenceRangeError(f"negative index {i}")
        return self.c0 + self.c1 * i


class ConstantSeq(_Materialized):
    _fields = ("value",)

    def __init__(self, value: Scalar) -> None:
        object.__setattr__(self, "value", value)

    def at(self, i: int) -> Scalar:
        if i < 0:
            raise SequenceRangeError(f"negative index {i}")
        return self.value


class SymbolicSeq(_Materialized):
    """i -> the indeterminate family[i + shift]."""

    _fields = ("family", "shift")

    def __init__(self, family: str, shift: int = 0) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "shift", shift)

    def at(self, i: int) -> Scalar:
        if i < 0 or i + self.shift < 0:
            raise SequenceRangeError(f"negative index {i}")
        return indet(self.family, i + self.shift)


class ShiftedSeq(_Materialized):
    """View of another sequence with the index shifted by a fixed offset."""

    _fields = ("base", "offset")

    def __init__(self, base: "SequenceSpec", offset: int) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "offset", offset)

    def at(self, i: int) -> Scalar:
        return self.base.at(i + self.offset)

    def materialize(self, top: int) -> Tuple[Scalar, ...]:
        """The base's materialized entries, shifted, so no base entry is
        evaluated twice; indices below the base's 0 hold placeholders."""
        memo = _memo(self)
        values = memo.get("values", ())
        if len(values) <= top:
            head = tuple(_evaluate(self, i) for i in range(min(-self.offset, top + 1)))
            if top + self.offset >= 0:
                base = self.base.materialize(top + self.offset)
                head += base[max(self.offset, 0) :]
            values = memo["values"] = head
        return values


SequenceSpec = Union[ExplicitSeq, AffineSeq, ConstantSeq, SymbolicSeq, ShiftedSeq]


def _defining_scalars(s: SequenceSpec) -> Tuple[Union[Scalar, SymbolicSeq], ...]:
    """The scalars a sequence is built from, a symbolic family as itself.
    Every entry is integral exactly when they all are (affine: c0 and c1)."""
    if isinstance(s, ShiftedSeq):
        return _defining_scalars(s.base)
    if isinstance(s, ExplicitSeq):
        return s.values
    if isinstance(s, AffineSeq):
        return (s.c0, s.c1)
    if isinstance(s, ConstantSeq):
        return (s.value,)
    return (s,)


class Coefficients(NamedTuple):
    """A system's materialized sequences over indices 0..top (or more),
    with the alpha[0] = 0 convention built in."""

    alpha: Tuple[Scalar, ...]
    beta: Tuple[Scalar, ...]
    gamma: Tuple[Scalar, ...]


class CoefficientSystem(Record):
    """The three coefficient sequences of a three-term recurrence.

    Immutable and pure; safe to share across workers.  Derived values
    (materialized coefficients, norms, oracle expansions) are computed
    once and kept in the instance's cache, which no comparison sees.
    ``is_symbolic``, decided from the sequences, is not a field: no
    comparison, hash or repr sees it either.
    """

    _fields = ("alpha", "beta", "gamma", "label")

    def __init__(self, alpha: SequenceSpec, beta: SequenceSpec, gamma: SequenceSpec,
                 label: str = "system") -> None:
        # one walk over the defining scalars decides the scalar domain
        symbolic = fractional = False
        for s in (alpha, beta, gamma):
            for v in _defining_scalars(s):
                symbolic |= isinstance(v, (Poly, SymbolicSeq))
                fractional |= isinstance(v, Fraction) and v.denominator != 1
        if symbolic and fractional:
            raise DomainMismatchError("symbolic systems cannot mix in non-integer rationals")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "is_symbolic", symbolic)

    def memo(self) -> dict:
        """The instance's cache of derived values."""
        return _memo(self)

    def materialize(self, top: int) -> Coefficients:
        """alpha, beta and gamma as tuples over indices 0..top (or more).

        alpha[0] is the fixed convention value 0, whatever the raw
        sequence would say; the raw alpha[0] is never evaluated here.
        """
        memo = _memo(self)
        covered, coeffs = memo.get("coefficients", (-1, None))
        if covered < top:
            coeffs = Coefficients(
                (0,) + self.alpha.materialize(top)[1:],
                self.beta.materialize(top),
                self.gamma.materialize(top),
            )
            memo["coefficients"] = (top, coeffs)
        return coeffs

    # Single coefficients, read from the materialized tuples.
    def alpha_at(self, i: int) -> Scalar:
        return self._at("alpha", i)

    def beta_at(self, i: int) -> Scalar:
        return self._at("beta", i)

    def gamma_at(self, i: int) -> Scalar:
        return self._at("gamma", i)

    def _at(self, which: str, i: int) -> Scalar:
        if i < 0:
            raise SequenceRangeError(f"negative index {i}")
        return _present(getattr(self.materialize(i), which)[i])

    def coeff_at(self, which: str, i: int) -> Scalar:
        """Coefficient by name, one of "alpha", "beta", "gamma"."""
        if which not in Coefficients._fields:
            raise ValueError(f"unknown coefficient name {which!r}")
        return self._at(which, i)

    def require_range(self, top: int) -> None:
        """Eagerly probe every coefficient the recurrence reads to build p_0..p_top."""
        self.alpha.require(1, top)
        self.beta.require(0, top - 1)
        self.gamma.require(0, top - 2)

    def is_monic(self, upto: int) -> bool:
        """True when alpha is identically 1 over indices 1..upto."""
        return all(a == 1 for a in self.materialize(upto).alpha[1 : upto + 1])

    def positive_definite(self, upto: int) -> bool:
        """alpha[n] > 0 for 1 <= n <= upto and gamma[n] > 0 for 0 <= n <= upto."""
        if self.is_symbolic:
            raise UnsupportedDomainError("positivity is a numeric-mode notion")
        alpha, _, gamma = self.materialize(upto)
        return all(scalar_sign(a) > 0 for a in _entries(alpha, 1, upto)) and all(
            scalar_sign(g) > 0 for g in _entries(gamma, 0, upto)
        )

    def norm_squared(self, k: int) -> Scalar:
        """L(p_k * p_k) = gamma[0]...gamma[k-1] / (alpha[1]...alpha[k]).

        k = 0 gives 1 (empty products).  Symbolic mode requires monic
        alpha, since the quotient is otherwise not representable.  Both
        products are prefix products, extended on demand.
        """
        if k < 0:
            raise ValueError("norm index must be nonnegative")
        memo = _memo(self)
        nums, dens = memo.get("norm_prefixes", ((1,), (1,)))
        if len(nums) <= k:
            alpha, _, gamma = self.materialize(k)
            nums, dens = list(nums), list(dens)
            for i in range(len(nums), k + 1):
                nums.append(nums[-1] * gamma[i - 1])
            for i in range(len(dens), k + 1):
                dens.append(dens[-1] * alpha[i])
            nums, dens = memo["norm_prefixes"] = (tuple(nums), tuple(dens))
        return scalar_div(nums[k], dens[k])


def monic_system(
    b: SequenceSpec, lam: SequenceSpec, label: str = "monic"
) -> CoefficientSystem:
    """The monic specialization: alpha = 1, beta[n] = b[n], gamma[n] = lam[n+1].

    ``b`` must be defined from index 0, ``lam`` from index 1.
    """
    return CoefficientSystem(
        alpha=ConstantSeq(1),
        beta=b,
        gamma=ShiftedSeq(lam, 1),
        label=label,
    )


def monic_b_lambda(sys: CoefficientSystem, upto: int) -> Tuple[SequenceSpec, SequenceSpec]:
    """Recover (b, lam) from a monic system: b[n] = beta[n], lam[j] = gamma[j-1].

    Raises if alpha deviates from 1 anywhere in 1..upto.  The lam view is
    made once per system, so its materialized values are shared by every
    caller.
    """
    if not sys.is_monic(upto):
        raise ValueError(f"system {sys.label!r} is not monic up to index {upto}")
    memo = sys.memo()
    lam = memo.get("monic_lam")
    if lam is None:
        lam = memo["monic_lam"] = ShiftedSeq(sys.gamma, -1)
    return sys.beta, lam


# -- JSON wire format -----------------------------------------------------

def _parse_value(raw: object) -> Scalar:
    if isinstance(raw, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        return _normalized(parse_rational(raw))
    raise ValueError(f"coefficient values must be ints or 'p/q' strings, got {raw!r}")


def _require_object(obj: object, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj: dict, name: str, what: str) -> object:
    if name not in obj:
        raise ValueError(f"{what} is missing field {name!r}")
    return obj[name]


def sequence_from_json(obj: dict) -> SequenceSpec:
    family = _require_object(obj, "a sequence").get("family")
    field = lambda name: _field(obj, name, f"{family} sequence")
    if family == "explicit":
        values = field("values")
        if not isinstance(values, list):
            raise ValueError("explicit sequence values must be a JSON list")
        return ExplicitSeq(tuple(_parse_value(v) for v in values))
    if family == "affine":
        return AffineSeq(parse_rational(str(field("c0"))), parse_rational(str(field("c1"))))
    if family == "constant":
        return ConstantSeq(_parse_value(field("value")))
    if family == "symbolic":
        tag = field("tag")
        if tag not in FAMILIES:
            raise ValueError(f"unknown symbolic family tag {tag!r}")
        shift = obj.get("shift", 0)
        if isinstance(shift, bool) or not isinstance(shift, int):
            raise ValueError(f"symbolic shift must be an integer, got {shift!r}")
        return SymbolicSeq(tag, shift)
    raise ValueError(f"unknown sequence family {family!r}")


def system_from_json(obj: dict, label: str = "system") -> CoefficientSystem:
    _require_object(obj, "a system")
    return CoefficientSystem(
        alpha=sequence_from_json(_field(obj, "alpha", "system")),
        beta=sequence_from_json(_field(obj, "beta", "system")),
        gamma=sequence_from_json(_field(obj, "gamma", "system")),
        label=obj.get("label", label),
    )


def load_system(path: str | os.PathLike) -> CoefficientSystem:
    """Load a coefficient system from a JSON file.  The label defaults to
    the file name without its last suffix, by ``pathlib``'s ``stem`` rule
    (a leading or trailing dot starts no suffix)."""
    name = os.path.basename(os.fspath(path))
    dot = name.rfind(".")
    with open(path) as fh:
        obj = json.load(fh)
    return system_from_json(obj, label=name[:dot] if 0 < dot < len(name) - 1 else name)
