"""Exact scalar arithmetic: arbitrary-precision rationals and sparse
integer-coefficient polynomials in indexed indeterminates.

Every computation in this package runs in one of two scalar domains:

* numeric: Python ``int`` or ``fractions.Fraction`` (ints are exact
  rationals with denominator 1, so the two mix freely);
* symbolic: :class:`Poly`, a sparse polynomial with integer coefficients
  in indeterminates such as ``b3``, ``l4``, ``a'2``.

A ``Poly`` is stored as a dict from packed monomial to nonzero int
coefficient.  Its public face is the tuple form: a monomial is a tuple
of ``(family_rank, index, exponent)`` triples, e.g. ``b3^2`` ->
``((0, 3, 2),)``, the empty tuple is the constant, and the factors are
strictly increasing in ``(family_rank, index)`` with every exponent at
least 1.  ``Poly(dict)`` takes that form and rejects any other monomial,
``Poly.terms`` gives it back, and a pickled ``Poly`` carries it.

Inside, a monomial is one ``int`` with a 16-bit exponent field per
indeterminate (S. C. Johnson, "Sparse polynomial arithmetic", 1974;
Monagan and Pearce, CASC 2007), so a product of two monomials is one
integer addition and equality is plain dict equality.  A module registry
gives each indeterminate its field, its slot, on first use, so a slot
means something only within one process: packed ints never leave it.
Registration takes a lock, so threads that meet new variables at once
get distinct slots; the hot path, a variable already registered, reads
the registry without it.
The top bit of each field is a guard: exponents are at most
``EXPONENT_BOUND`` = 2**15 - 1, so two of them add without a carry into
the next field, and a product or constructor that would pass the bound
raises :class:`ExponentOverflowError` (a ``ValueError``) instead of
wrapping.

``str`` lists terms by descending degree, and within one degree by
descending monomial tuple, as the tuple form sorted them: two distinct
monomials of equal degree are never prefixes of one another, because
every exponent is at least 1.  Slots follow first use, not that order,
so rendering decodes each monomial: ``int.to_bytes`` gives its fields,
read in canonical variable order, and per-slot factor texts kept in the
registry give its text.  There is deliberately no memo from monomial to
text: the symbolic benchmark renders about 6,000 distinct monomials a
pass, and such a memo, tried on the same kernel, raised that workload's
peak RSS from 29.5 to 36.3 MB (+23 %) for a faster render.

Mixing the two domains (``Fraction`` with ``Poly``) is an input error
and raises :class:`DomainMismatchError`.  There is deliberately no
general computer algebra here: no polynomial division, no factoring.

The package's immutable values (indeterminates, sequences, systems,
paths, results, reports) derive from :class:`Record`, defined here
because every other module imports this one first.  A record names its
fields in a ``_fields`` tuple and writes its own ``__init__`` with
``object.__setattr__``; the base compares, hashes and prints those
fields in order and refuses assignment and deletion with
``AttributeError``, as a frozen dataclass would.  It is not
``dataclasses``, because every CLI command pays for its import in a
fresh process.  On a 2-vCPU Xeon host with CPython 3.11, importing
``dataclasses`` (which loads ``inspect``) took 7-12 ms after ``site``,
and fifteen frozen dataclasses another 10-16 ms, since each compiles its
generated methods with ``exec``; a fresh ``import orthopath.cli`` took
a median 30 ms with them and 10.5 ms without.  Classes on hot paths
(``MotzkinPath``) spell out ``__eq__`` and ``__hash__`` as well.
"""

from __future__ import annotations

import re
import sys
from _thread import allocate_lock
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import getitem, itemgetter, or_
from typing import Dict, Iterable, List, Tuple, Union


class DomainMismatchError(TypeError):
    """Raised when numeric and symbolic scalars are combined."""


class UnsupportedDomainError(ValueError):
    """Raised when an operation is not defined in the given scalar domain."""


# Indeterminate families, in their canonical order.  Primed families are
# rendered with an apostrophe after the family letter(s).
FAMILIES: Tuple[str, ...] = ("b", "l", "a", "be", "g", "a'", "be'", "g'")
_FAMILY_RANK: Dict[str, int] = {name: i for i, name in enumerate(FAMILIES)}

# One monomial factor: (family rank, indeterminate index, exponent).
_Factor = Tuple[int, int, int]
Monomial = Tuple[_Factor, ...]

Numeric = Union[int, Fraction]
Scalar = Union[int, Fraction, "Poly"]


class Record:
    """An immutable value with named fields: equal to another record of
    the same class with equal fields, hashed and printed by its fields,
    in ``_fields`` order.  Subclasses set ``_fields`` and write an
    ``__init__`` that stores each field with ``object.__setattr__``."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild a record through __init__ (values are
        # shared across worker processes by pickling)
        return type(self), self._values()


class Indeterminate(Record):
    """A single indexed symbol, e.g. family ``"l"`` index 4 is ``l4``.

    Ordered by family rank first, then index; the order is total and
    stable, which fixes the canonical monomial order.
    """

    __slots__ = _fields = ("family", "index")

    def __init__(self, family: str, index: int) -> None:
        if family not in _FAMILY_RANK:
            raise ValueError(f"unknown indeterminate family {family!r}")
        if index < 0:
            raise ValueError("indeterminate index must be nonnegative")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "index", index)

    @property
    def rank(self) -> Tuple[int, int]:
        return (_FAMILY_RANK[self.family], self.index)

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def _check_int_coeff(c: object) -> int:
    if isinstance(c, bool) or not isinstance(c, int):
        raise DomainMismatchError(
            f"symbolic coefficients must be ints, got {type(c).__name__}"
        )
    return c


def _check_monomial(mono: Monomial) -> None:
    """Reject a monomial that is not canonical: factors out of order, a
    variable repeated, or an exponent below 1."""
    prev = None
    for rank, index, exp in mono:
        if exp < 1:
            raise ValueError(f"monomial exponents must be at least 1: {mono!r}")
        if prev is not None and (rank, index) <= prev:
            raise ValueError(
                f"monomial factors must be strictly increasing in (family, index): {mono!r}"
            )
        prev = (rank, index)


# -- packed monomials -------------------------------------------------------

_WIDTH = 16  # bits per exponent field, read back as one "H" item each
EXPONENT_BOUND = (1 << (_WIDTH - 1)) - 1  # the field's top bit is its guard
_RENDER_TEXTS = 16  # exponents 0..15 have their factor text kept per slot


class ExponentOverflowError(ValueError):
    """Raised when an exponent would pass ``EXPONENT_BOUND``."""


# The registry: (rank, index) -> slot, assigned on first use, so a slot
# means something only within one process.  Per slot: its variable and its
# factor text at exponents 0.._RENDER_TEXTS-1 ("" at 0).
_SLOTS: Dict[Tuple[int, int], int] = {}
_VARS: List[Tuple[int, int]] = []
_TEXTS: List[Tuple[str, ...]] = []
_ORDER: List[int] = []  # the slots in canonical variable order
_guard_bits = 0  # the guard bit of every registered field
_wide_bits = 0  # the bits of every registered field that only exponents past the texts set
_REGISTERING = allocate_lock()  # _thread's: loaded at startup, unlike threading


def _unit(rank: int, index: int) -> int:
    """The packed monomial of one variable to the first power."""
    slot = _SLOTS.get((rank, index))
    if slot is None:
        slot = _register(rank, index)
    return 1 << (_WIDTH * slot)


def _register(rank: int, index: int) -> int:
    """Give a variable its slot, under the registry's lock.  The slot is
    published in ``_SLOTS`` last, so a thread that reads it finds the rest
    of the registry ready, and ``_ORDER`` is replaced, never sorted in
    place, so a render never sees it half built."""
    global _ORDER, _guard_bits, _wide_bits
    if not 0 <= rank < len(FAMILIES):
        raise ValueError(f"unknown indeterminate family rank {rank!r}")
    with _REGISTERING:
        slot = _SLOTS.get((rank, index))
        if slot is None:
            slot = len(_VARS)
            name = f"{FAMILIES[rank]}{index}"
            _VARS.append((rank, index))
            _TEXTS.append(("", name, *[f"{name}^{e}" for e in range(2, _RENDER_TEXTS)]))
            _ORDER = sorted([*_ORDER, slot], key=_VARS.__getitem__)
            shift = _WIDTH * slot
            _guard_bits |= 1 << (shift + _WIDTH - 1)
            _wide_bits |= (1 << (shift + _WIDTH)) - (_RENDER_TEXTS << shift)
            _SLOTS[(rank, index)] = slot
    return slot


def _pack(mono: Monomial) -> int:
    packed = 0
    for rank, index, exp in mono:
        unit = _unit(rank, index)
        if exp > EXPONENT_BOUND:
            raise ExponentOverflowError(
                f"exponent {exp} is past the bound {EXPONENT_BOUND}: {mono!r}"
            )
        packed += exp * unit
    return packed


def _unpack(packed: int) -> Monomial:
    """The tuple form of a packed monomial: its fields, read as "H" items."""
    fields = memoryview(packed.to_bytes(2 * len(_VARS), sys.byteorder)).cast("H")
    return tuple(sorted([(*_VARS[slot], exp) for slot, exp in enumerate(fields) if exp]))


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    Immutable once constructed; all operations return new values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Monomial, int] | None = None):
        clean: Dict[int, int] = {}
        if terms:
            for mono, coeff in terms.items():
                _check_int_coeff(coeff)
                _check_monomial(mono)
                packed = _pack(mono)
                if coeff != 0:
                    clean[packed] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: Dict[int, int]) -> "Poly":
        """Wrap a dict of packed monomials already in canonical form (int
        coefficients, no zeros) without re-validating it; for
        ring-operation results."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    def __reduce__(self):
        # a packed monomial means nothing in another process: pickle tuples
        return Poly, (self.terms,)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "Poly":
        _check_int_coeff(c)
        return cls._trusted({0: c} if c else {})

    @classmethod
    def indeterminate(cls, family: str, index: int) -> "Poly":
        ind = Indeterminate(family, index)
        return cls._trusted({_unit(_FAMILY_RANK[ind.family], ind.index): 1})

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, int]:
        return {_unpack(mono): coeff for mono, coeff in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other: object) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Poly._trusted({0: other} if other else {})
        if isinstance(other, (Fraction, float, complex)):
            raise DomainMismatchError(
                "cannot mix symbolic polynomials with non-integer numerics"
            )
        return None

    def __add__(self, other: object) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        big, small = self._terms, rhs._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        _accumulate(out, small)
        return Poly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "Poly":
        if type(other) is int:  # the monomials stay, shared
            if other == 1:
                return self
            return Poly._trusted({m: c * other for m, c in self._terms.items()} if other else {})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        outer, inner = self._terms, rhs._terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        if not outer:
            return Poly._trusted({})
        inner_items = tuple(inner.items())
        rows = iter(outer.items())
        # one row of products has distinct monomials; later rows merge in
        m1, c1 = next(rows)
        out = {m1 + m2: c1 * c2 for m2, c2 in inner_items}
        get = out.get
        for m1, c1 in rows:
            for m2, c2 in inner_items:
                mono = m1 + m2
                out[mono] = get(mono, 0) + c1 * c2
        # two fields within the bound add without a carry, so a field past
        # it shows as its guard bit
        if reduce(or_, out) & _guard_bits:
            raise ExponentOverflowError(
                f"a product has an exponent past the bound {EXPONENT_BOUND}"
            )
        if 0 in out.values():
            out = {mono: coeff for mono, coeff in out.items() if coeff}
        return Poly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative ints")
        result = Poly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, int) and not isinstance(other, bool):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        used = reduce(or_, terms)
        if not used:  # the constant alone
            return str(terms[0])
        if used & _wide_bits or used.bit_length() > _RENDER_BITS:
            return _render_wide(terms)
        return _render(terms, used)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _accumulate(acc: Dict[int, int], terms: Dict[int, int]) -> None:
    """Add packed terms into a private dict, dropping cancelled monomials."""
    get = acc.get
    for mono, coeff in terms.items():
        new = get(mono, 0) + coeff
        if new:
            acc[mono] = new
        else:
            del acc[mono]


# ``str`` lists terms by descending (degree, canonical monomial tuple).
# Read over the variables a polynomial uses, in canonical order, two
# monomials of one degree compare as their tuples do where an absent
# variable ranks above every exponent: at the first variable where they
# differ, the one without it has a later variable next.  So with every
# exponent below _RENDER_TEXTS, the exponents as bytes, with 0 read as
# 255, sort as the tuples do.  A degree is the sum of a monomial's
# fields, which is the packed int modulo 2**16 - 1 while it stays below
# that: so the fields above _RENDER_BITS render from tuples.
_ABSENT_LAST = bytes([255, *range(1, 256)])
_ABSENT_BACK = bytes([*range(255), 0])
_FIELD_SUM = (1 << _WIDTH) - 1
_RENDER_BITS = _WIDTH * (_FIELD_SUM // (_RENDER_TEXTS - 1) - 1)


def _sign(coeff: int) -> str:
    """The text before a term's monomial: its sign and magnitude."""
    mag = abs(coeff)
    return (" - " if coeff < 0 else " + ") + ("" if mag == 1 else f"{mag}*")


def _render(terms: Dict[int, int], used: int) -> str:
    """``str`` of a polynomial with every exponent below _RENDER_TEXTS, in
    C-level passes over its terms: each exponent is the low byte of its
    field."""
    data = used.to_bytes(2 * len(_VARS), "little")
    slots = [slot for slot in _ORDER if data[2 * slot]]
    texts = [_TEXTS[slot] for slot in slots]
    # a tuple even for one slot: the first slot again, past the texts
    read = itemgetter(*[2 * slot for slot in slots], 2 * slots[0])
    size = (used.bit_length() + 7) // 8
    rows = sorted(zip(
        map(int.__mod__, terms, repeat(_FIELD_SUM)),
        map(bytes.translate,
            map(bytes, map(read, map(int.to_bytes, terms, repeat(size), repeat("little")))),
            repeat(_ABSENT_LAST)),
        terms.values(),
    ), reverse=True)
    tail = ""
    if not rows[-1][0]:  # the constant term: no "*" after its magnitude
        coeff = rows.pop()[2]
        tail = f" - {-coeff}" if coeff < 0 else f" + {coeff}"
    _, keys, coeffs = zip(*rows)
    signs = {coeff: _sign(coeff) for coeff in set(coeffs)}
    bodies = map("*".join, map(filter, repeat(None), map(
        map, repeat(getitem), repeat(texts), map(bytes.translate, keys, repeat(_ABSENT_BACK)))))
    text = "".join(map(str.__add__, map(signs.__getitem__, coeffs), bodies)) + tail
    return "-" + text[3:] if text[1] == "-" else text[3:]


def _render_wide(terms: Dict[int, int]) -> str:
    """``str`` of a polynomial with a large exponent, from its monomial
    tuples."""
    out = []
    for mono, coeff in sorted(
        [(_unpack(mono), coeff) for mono, coeff in terms.items()],
        key=lambda term: (sum([f[2] for f in term[0]]), term[0]),
        reverse=True,
    ):
        body = "*".join([
            f"{FAMILIES[rank]}{index}" if exp == 1 else f"{FAMILIES[rank]}{index}^{exp}"
            for rank, index, exp in mono
        ])
        mag = abs(coeff)
        out.append(" - " if coeff < 0 else " + ")
        out.append((body if mag == 1 else f"{mag}*{body}") if body else str(mag))
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def indet(family: str, index: int) -> Poly:
    """The indeterminate with the given family tag and index, as a Poly."""
    return Poly.indeterminate(family, index)


# -- parsing ------------------------------------------------------------

_FACTOR_RE = re.compile(r"^([a-z]+'?)(\d+)(?:\^(\d+))?$")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational from its canonical "p/q" rendering (q omitted when 1).

    Surrounding whitespace aside, only an optional minus sign, digits and
    one slash are accepted: no decimal point, exponent, plus sign or
    digit separator.
    """
    text = text.strip()
    match = _RATIONAL_RE.fullmatch(text)
    if not match:
        raise ValueError(f"rationals must be decimal-free 'p/q' strings: {text!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValueError(f"rational has a zero denominator: {text!r}") from None


def parse_polynomial(text: str) -> Poly:
    """Parse a polynomial from its canonical signed-monomial rendering.

    Inverse of ``str(poly)``; also accepts a bare integer constant.
    """
    squeezed = text.replace(" ", "")
    if not squeezed:
        raise ValueError("empty polynomial text")
    result = Poly()
    for raw in re.findall(r"[+-]?[^+-]+", squeezed):
        sign = -1 if raw.startswith("-") else 1
        body = raw.lstrip("+-")
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        exps: Dict[Tuple[int, int], int] = {}
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m or m.group(1) not in _FAMILY_RANK:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            family, index, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
            if exp == 0:
                raise ValueError(f"zero exponent in factor {factor!r} of {text!r}")
            var = (_FAMILY_RANK[family], index)
            exps[var] = exps.get(var, 0) + exp
        mono = tuple(sorted([(rank, index, exp) for (rank, index), exp in exps.items()]))
        result = result + Poly({mono: coeff})
    return result


def format_scalar(x: Scalar) -> str:
    """Canonical text rendering of any scalar."""
    if isinstance(x, Poly):
        return str(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return str(x)
    raise DomainMismatchError(f"not a scalar: {type(x).__name__}")


def parse_scalar(text: str) -> Scalar:
    """Parse either scalar domain, guessing from the text.

    Anything containing a letter is read as a polynomial, else a rational.
    """
    if re.search(r"[a-z]", text):
        return parse_polynomial(text)
    return parse_rational(text)


# -- generic helpers -----------------------------------------------------

def scalar_sign(x: Scalar) -> int:
    """Sign of a numeric scalar: -1, 0, or +1.  Symbolic input is an error."""
    if isinstance(x, Poly):
        raise UnsupportedDomainError("sign of a symbolic polynomial is undefined")
    if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
        raise DomainMismatchError(f"not a scalar: {type(x).__name__}")
    return (x > 0) - (x < 0)


def scalar_div(num: Scalar, den: Scalar) -> Scalar:
    """Exact division.

    Numeric scalars divide into a Fraction.  In the symbolic domain only
    division by 1 is representable (there is no rational-function type),
    anything else raises :class:`UnsupportedDomainError`.
    """
    if den == 1:
        return num
    if isinstance(num, Poly) or isinstance(den, Poly):
        raise UnsupportedDomainError(
            "symbolic division is only defined for divisor 1"
        )
    if den == 0:
        raise ValueError("division by zero coefficient")
    return Fraction(num) / Fraction(den)


def scalar_product(values: Iterable[Scalar]) -> Scalar:
    """Product of scalars; the empty product is 1."""
    result: Scalar = 1
    for v in values:
        result = result * v
    return result


def scalar_sum(values: Iterable[Scalar]) -> Scalar:
    """Sum of scalars; the empty sum is 0.  A sum that starts with a
    ``Poly`` runs in a :class:`RunningSum`."""
    result: Scalar = 0
    values = iter(values)
    for v in values:
        result = result + v
        break
    if type(result) is Poly:
        running = RunningSum(result)
        for v in values:
            running += v
        return running.value
    for v in values:
        result = result + v
    return result


class RunningSum:
    """``total = total + v`` over many values, starting from 0, where a
    ``Poly`` total is kept as one private dict of terms: adding a ``Poly``
    to it merges that term's monomials in place instead of copying the
    total.  Any other value is added as ``+`` adds it, and raises where
    ``+`` raises, leaving the total as it was.  ``value`` is the total."""

    __slots__ = ("_terms", "_other")

    def __init__(self, start: Scalar = 0) -> None:
        self._terms: Dict[int, int] | None = None  # the total, when it is a Poly
        self._other: Scalar = 0
        self += start

    def __iadd__(self, v: Scalar) -> "RunningSum":
        terms = self._terms
        if terms is None:
            total = self._other + v
        elif type(v) is Poly:
            _accumulate(terms, v._terms)
            return self
        else:
            total = Poly._trusted(terms) + v
        if type(total) is Poly:
            # a sum may return an operand itself; the total owns a copy
            self._terms, self._other = dict(total._terms), 0
        else:
            self._terms, self._other = None, total
        return self

    @property
    def value(self) -> Scalar:
        terms = self._terms
        return self._other if terms is None else Poly._trusted(dict(terms))
