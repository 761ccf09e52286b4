"""Exact arithmetic on ordinals strictly below omega^omega.

An ordinal is kept in Cantor normal form as a sparse tuple of
(exponent, coefficient) pairs, exponents strictly decreasing and all
coefficients positive.  Like every library value and result type, Ordinal is
a Value: a named tuple checked by __new__, _make and _replace, equal only to its own type.
The operations build their results from checked operands with _ordinal, unchecked.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping


class Value(tuple):
    """Base of the library's value and result types: named tuples equal only to their own type."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable: Iterable) -> Value:
        """Build through cls(...), so that _make and namedtuple's _replace run every check."""
        return cls(*iterable)


def _check_integers(xs: Iterable, what: str) -> None:
    """The one integer rule of every value type: an int that is not a bool, or TypeError."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in xs):
        raise TypeError("%s is not an integer" % what)


class Ordinal(Value, namedtuple("Ordinal", "terms")):
    """An ordinal below omega^omega, canonicalized on construction.

    The tuple comparisons are the usual total order: the sparse terms,
    exponents decreasing, compare lexicographically exactly as the
    ordinals do (at the first differing term the larger exponent or
    coefficient wins, and a proper prefix is smaller).
    """

    __slots__ = ()

    def __new__(cls, terms: Iterable[tuple[int, int]] = ()) -> Ordinal:
        terms, last = tuple(terms), None
        for exp, coeff in terms:
            _check_integers((exp, coeff), "Cantor exponent or coefficient")
            if exp < 0 or coeff <= 0:
                raise ValueError("bad Cantor term (%d, %d)" % (exp, coeff))
            if last is not None and exp >= last:
                raise ValueError("Cantor terms not strictly decreasing")
            last = exp
        return tuple.__new__(cls, (terms,))

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, int] | Iterable[tuple[int, int]]) -> Ordinal:
        """Build from {exponent: coefficient}; zero coefficients are dropped."""
        acc: dict[int, int] = {}
        for exp, coeff in coeffs.items() if isinstance(coeffs, Mapping) else coeffs:
            _check_integers((exp, coeff), "Cantor exponent or coefficient")
            acc[exp] = acc.get(exp, 0) + coeff
        return cls(tuple(sorted(((e, c) for e, c in acc.items() if c), reverse=True)))

    @classmethod
    def omega_power(cls, exp: int, coeff: int = 1) -> Ordinal:
        return cls.from_coeffs({exp: coeff})

    @classmethod
    def from_int(cls, n: int) -> Ordinal:
        return cls.from_coeffs({0: n})

    def coeff(self, exp: int) -> int:
        _check_integers((exp,), "Cantor exponent")
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int | None:
        """Maximum of the support; None for the zero ordinal."""
        return self.terms[0][0] if self.terms else None

    @property
    def order(self) -> int | None:
        """Minimum of the support; None for the zero ordinal."""
        return self.terms[-1][0] if self.terms else None

    @property
    def valence(self) -> int:
        return sum(c for _, c in self.terms)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(e for e, _ in self.terms)

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] > 0

    def display(self, ascii_only: bool = False) -> str:
        """Render as e.g. 'ω^2 + 3ω + 1' ('w^2 + 3w + 1' with ascii_only)."""
        if not self.terms:
            return "0"
        w = "w" if ascii_only else "ω"
        parts = []
        for exp, coeff in self.terms:
            if exp == 0:
                parts.append(str(coeff))
            else:
                head = "" if coeff == 1 else str(coeff)
                tail = w if exp == 1 else "%s^%d" % (w, exp)
                parts.append(head + tail)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.display()


ZERO = Ordinal()


def _ordinal(terms: tuple[tuple[int, int], ...]) -> Ordinal:
    """The ordinal of canonical terms derived from checked ordinals, not checked again."""
    return tuple.__new__(Ordinal, (terms,))


class OrdinalClass(Value, namedtuple("OrdinalClass",
                                     "degree order valence support is_limit is_successor")):
    """Derived shape data of an ordinal; degree/order are None for zero."""

    __slots__ = ()


def classify(a: Ordinal) -> OrdinalClass:
    return OrdinalClass(a.degree, a.order, a.valence, a.support, a.is_limit, a.is_successor)


def cantor_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """The ordinary (non-commutative) ordinal sum a + b."""
    if b.is_zero:
        return a
    e, c = b.terms[0]
    head = []
    for t in a.terms:  # a's terms above e stay, the one at e adds to c, the rest vanish
        if t[0] <= e:
            c += t[1] if t[0] == e else 0
            break
        head.append(t)
    return _ordinal((*head, (e, c), *b.terms[1:]))


def shuffle_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """The natural (commutative) sum: coefficient-wise addition."""
    if not (a.terms and b.terms):
        return b if a.is_zero else a
    acc = dict(a.terms)
    for e, c in b.terms:
        acc[e] = acc.get(e, 0) + c
    return _ordinal(tuple(sorted(acc.items(), reverse=True)))


def meet(a: Ordinal, b: Ordinal) -> Ordinal:
    """Coefficient-wise minimum, the infimum for the weaker order."""
    bc = dict(b.terms)
    return _ordinal(tuple([(e, c if c < bc[e] else bc[e]) for e, c in a.terms if e in bc]))


def weaker(a: Ordinal, b: Ordinal) -> bool:
    """The partial order: every coefficient of a is <= that of b."""
    bc = dict(b.terms)
    return all(c <= bc.get(e, 0) for e, c in a.terms)


def leq(a: Ordinal, b: Ordinal) -> bool:
    """The usual total order on ordinals, lexicographic on coefficients."""
    return a <= b


def truncate_above(a: Ordinal, i: int) -> Ordinal:
    """Keep only the terms of exponent >= i + 1."""
    return _ordinal(tuple([t for t in a.terms if t[0] > i]))


def truncate_below(a: Ordinal, i: int) -> Ordinal:
    """Keep only the terms of exponent <= i; complements truncate_above."""
    return _ordinal(tuple([t for t in a.terms if t[0] <= i]))


def scalar_mul(n: int, a: Ordinal) -> Ordinal:
    """The sum of n copies of a, i.e. coefficient-wise multiplication by n."""
    _check_integers((n,), "scalar")
    if n < 0:
        raise ValueError("scalar must be a natural number")
    return _ordinal(tuple([(e, n * c) for e, c in a.terms]) if n else ())


def shuffle_difference(a: Ordinal, b: Ordinal) -> Ordinal:
    """The witness c with shuffle_sum(b, c) == a; requires b weaker than a."""
    if not weaker(b, a):
        raise ValueError("difference defined only when b is weaker than a")
    bc = dict(b.terms)
    return _ordinal(tuple([(e, c - bc.get(e, 0)) for e, c in a.terms if c != bc.get(e, 0)]))
