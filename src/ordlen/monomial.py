"""Monomial-ideal arithmetic over a fixed polynomial ring k[x_1..x_n].

The field k is purely formal: every invariant computed downstream is
field-independent, so no coefficient arithmetic exists anywhere.  A
monomial is the tuple of its exponents, and an ideal's gens are its sorted
minimal generating antichain of such tuples, which makes equality structural.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import add, le, neg
from typing import Collection, Iterable

from .chow import PrimeSupport
from .errors import AmbientMismatchError, InvalidSubquotientError
from .ordinal import Value


class Monomial(tuple):
    """A monomial as the tuple of its exponents; 1 is the all-zeros tuple."""

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]) -> Monomial:
        self = super().__new__(cls, exponents)
        if self and min(self) < 0:
            raise ValueError("negative exponent")
        return self

    @property
    def exponents(self) -> tuple[int, ...]:
        return self

    @property
    def n(self) -> int:
        return len(self)

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def is_one(self) -> bool:
        return not any(self)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self) if e)

    def divides(self, other: tuple[int, ...]) -> bool:
        return all(map(le, self, other))

    def times(self, other: tuple[int, ...]) -> Monomial:
        return Monomial(map(add, self, other))

    def lcm(self, other: tuple[int, ...]) -> Monomial:
        return Monomial(map(max, self, other))

    def quotient_by(self, other: tuple[int, ...]) -> Monomial:
        """self / gcd(self, other), the monomial colon quotient."""
        return Monomial(max(a - b, 0) for a, b in zip(self, other))

    def sort_key(self) -> tuple:
        # degree-lexicographic with x_0 > x_1 > ..., the deterministic
        # order used in all searches and displays
        return (sum(self), tuple(map(neg, self)))


def variable(n: int, i: int) -> Monomial:
    return Monomial(1 if j == i else 0 for j in range(n))


def _minimize(exps: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    # Monomial.sort_key order: by degree, ties lexicographically decreasing
    kept: list[tuple[int, ...]] = []
    for e in sorted(sorted(set(exps), reverse=True), key=sum):
        if not any(all(map(le, h, e)) for h in kept):
            kept.append(e)
    return tuple(kept)


def _pairwise(op, f: Iterable[tuple], g: Collection[tuple]) -> tuple[tuple[int, ...], ...]:
    """The minimal antichain of op(a, b) entrywise over a in f, b in g: the
    meets (max) of _filtration and the powers (add) of find_e_open_power."""
    return _minimize(tuple(map(op, a, b)) for a in f for b in g)


class MonomialIdeal(Value, namedtuple("MonomialIdeal", "ambient_n gens")):
    """A monomial ideal, its given generators minimised and sorted deg-lex."""

    __slots__ = ()

    def __new__(cls, ambient_n: int, gens: Iterable[Iterable[int]]) -> MonomialIdeal:
        exps = tuple(map(tuple, gens))
        if not {ambient_n}.issuperset(map(len, exps)):
            raise AmbientMismatchError("generator in wrong ring")
        return tuple.__new__(cls, (ambient_n, tuple(map(Monomial, _minimize(exps)))))

    @classmethod
    def make(cls, ambient_n: int, gens: Iterable[Iterable[int]]) -> MonomialIdeal:
        return cls(ambient_n, gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one

    @property
    def max_degree(self) -> int:
        return max((g.degree for g in self.gens), default=0)

    def contains(self, m: tuple[int, ...]) -> bool:
        return any(all(map(le, g, m)) for g in self.gens)

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        return all(self.contains(g) for g in other.gens)


def zero_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, ())


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, (Monomial((0,) * n),))


def prime_ideal(p: PrimeSupport) -> MonomialIdeal:
    """The monomial prime (x_i : i in p.vars) as an ideal."""
    return MonomialIdeal.make(p.ambient_n, [variable(p.ambient_n, i) for i in sorted(p.vars)])


def maximal_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal.make(n, [variable(n, i) for i in range(n)])


def _check_ring(i: MonomialIdeal, j: MonomialIdeal) -> None:
    if i.ambient_n != j.ambient_n:
        raise AmbientMismatchError("ideals over different rings")


def ideal_sum(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_ring(i, j)
    return MonomialIdeal.make(i.ambient_n, i.gens + j.gens)


def ideal_intersection(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_ring(i, j)
    return MonomialIdeal.make(i.ambient_n, [f.lcm(g) for f in i.gens for g in j.gens])


def ideal_product(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_ring(i, j)
    return MonomialIdeal.make(i.ambient_n, [f.times(g) for f in i.gens for g in j.gens])


def ideal_power(i: MonomialIdeal, n: int) -> MonomialIdeal:
    if n < 0:
        raise ValueError("negative power")
    out = unit_ideal(i.ambient_n)
    for _ in range(n):
        out = ideal_product(out, i)
    return out


def colon(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """(i : j), the intersection of (i : g) over the generators g of j;
    the colon by the zero ideal is the unit ideal."""
    _check_ring(i, j)
    if j.is_zero:
        return unit_ideal(i.ambient_n)
    steps = (MonomialIdeal.make(i.ambient_n, [f.quotient_by(g) for f in i.gens]) for g in j.gens)
    return reduce(ideal_intersection, steps)


def saturation(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """(i : j^infinity), the intersection of (i : g^infinity) over the
    generators g of j, each being i with the exponents on supp(g) set to 0;
    the saturation by the zero ideal is the unit ideal."""
    _check_ring(i, j)
    steps = (
        MonomialIdeal.make(
            i.ambient_n,
            [tuple(0 if e else a for a, e in zip(f, g)) for f in i.gens],
        )
        for g in j.gens
    )
    return reduce(ideal_intersection, steps, unit_ideal(i.ambient_n))


class SubquotientModule(Value, namedtuple("SubquotientModule", "lower upper")):
    """The module J/I presented by nested monomial ideals I <= J.

    (I, (1)) denotes the quotient ring R/I viewed as a module.
    """

    __slots__ = ()

    def __new__(cls, lower: MonomialIdeal, upper: MonomialIdeal) -> SubquotientModule:
        _check_ring(lower, upper)
        if not upper.contains_ideal(lower):
            raise InvalidSubquotientError("lower ideal not contained in upper ideal")
        return tuple.__new__(cls, (lower, upper))

    @classmethod
    def quotient_ring(cls, i: MonomialIdeal) -> SubquotientModule:
        return cls(i, unit_ideal(i.ambient_n))

    @property
    def ambient_n(self) -> int:
        return self.lower.ambient_n

    @property
    def is_zero(self) -> bool:
        return self.lower.contains_ideal(self.upper)

    def submodule(self, k: MonomialIdeal) -> SubquotientModule:
        """The submodule K/I of J/I; requires I <= K <= J."""
        if not k.contains_ideal(self.lower) or not self.upper.contains_ideal(k):
            raise InvalidSubquotientError("witness ideal not between I and J")
        return SubquotientModule(self.lower, k)

    def quotient_by(self, k: MonomialIdeal) -> SubquotientModule:
        """The quotient (J/I)/(K/I) = J/K; requires I <= K <= J."""
        if not k.contains_ideal(self.lower) or not self.upper.contains_ideal(k):
            raise InvalidSubquotientError("witness ideal not between I and J")
        return SubquotientModule(k, self.upper)
