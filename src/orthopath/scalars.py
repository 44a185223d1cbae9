"""Exact scalar arithmetic: arbitrary-precision rationals and sparse
integer-coefficient polynomials in indexed indeterminates.

Every computation in this package runs in one of two scalar domains:

* numeric: Python ``int`` or ``fractions.Fraction`` (ints are exact
  rationals with denominator 1, so the two mix freely);
* symbolic: :class:`Poly`, a sparse polynomial with integer coefficients
  in indeterminates such as ``b3``, ``l4``, ``a'2``.

A ``Poly`` is stored as a dict from monomial to nonzero int coefficient.
A monomial is a tuple of ``(family_rank, index, exponent)`` triples,
e.g. ``b3^2`` -> ``((0, 3, 2),)``.  The empty tuple is the constant
monomial.  Canonical form: the factors are strictly increasing in
``(family_rank, index)``, every exponent is at least 1, and no
coefficient is zero; the constructor rejects any other monomial.  So
equality is plain dict equality, independent of how a value was built,
and a product of two monomials is a merge of two sorted tuples.

``str`` lists terms by descending degree, and within one degree by
descending monomial tuple.  Two distinct monomials of equal degree are
never prefixes of one another, because every exponent is at least 1.

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
from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union


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


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    Immutable once constructed; all operations return new values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[Monomial, int] | None = None):
        clean: Dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                _check_int_coeff(coeff)
                _check_monomial(mono)
                if coeff != 0:
                    clean[mono] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: Dict[Monomial, int]) -> "Poly":
        """Wrap a dict already in canonical form (int coefficients, no
        zeros) without re-validating it; for ring-operation results."""
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "Poly":
        _check_int_coeff(c)
        return cls({(): c} if c else {})

    @classmethod
    def indeterminate(cls, family: str, index: int) -> "Poly":
        ind = Indeterminate(family, index)
        return cls({((_FAMILY_RANK[ind.family], ind.index, 1),): 1})

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, int]:
        return dict(self._terms)

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
            return Poly.constant(other)
        if isinstance(other, (Fraction, float, complex)):
            raise DomainMismatchError(
                "cannot mix symbolic polynomials with non-integer numerics"
            )
        return None

    def __add__(self, other: object) -> "Poly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
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
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        outer, inner = self._terms, rhs._terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        inner_items = tuple(inner.items())
        out: Dict[Monomial, int] = {}
        get = out.get
        for m1, c1 in outer.items():
            for m2, c2 in inner_items:
                mono = _mul_monomials(m1, m2)
                out[mono] = get(mono, 0) + c1 * c2
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
            return self._terms == Poly.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        out = []
        for mono, coeff in sorted(
            self._terms.items(),
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

    def __repr__(self) -> str:
        return f"Poly({self})"


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two canonical monomials: a merge of their factor tuples,
    adding exponents where ``(rank, index)`` match."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        r1, x1, e1 = m1[i]
        r2, x2, e2 = m2[j]
        if r1 == r2 and x1 == x2:
            out.append((r1, x1, e1 + e2))
            i += 1
            j += 1
        elif r1 < r2 or (r1 == r2 and x1 < x2):
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return (*out, *m1[i:], *m2[j:])


def indet(family: str, index: int) -> Poly:
    """The indeterminate with the given family tag and index, as a Poly."""
    return Poly.indeterminate(family, index)


# -- parsing ------------------------------------------------------------

_FACTOR_RE = re.compile(r"^([a-z]+'?)(\d+)(?:\^(\d+))?$")
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse a rational from its canonical "p/q" rendering (q omitted when 1).

    Surrounding whitespace aside, only an optional minus sign, digits and
    one slash are accepted: no decimal point, exponent, plus sign or
    digit separator.
    """
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"rationals must be decimal-free 'p/q' strings: {text!r}")
    try:
        return Fraction(text)
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
        mono: Monomial = ()
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
            mono = _mul_monomials(
                mono, ((_FAMILY_RANK[family], index, exp),)
            )
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
    """Sum of scalars; the empty sum is 0."""
    result: Scalar = 0
    for v in values:
        result = result + v
    return result
