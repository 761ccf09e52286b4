"""Monomial-ideal arithmetic over a fixed polynomial ring k[x_1..x_n].

The field k is purely formal: every invariant computed downstream is
field-independent, so no coefficient arithmetic exists anywhere.  A
monomial is the tuple of its exponents, with times as its only arithmetic,
and an ideal's gens are its sorted minimal generating antichain of such
tuples, which makes equality structural.  Every ideal operation is one
_product, _intersect, _saturate or _meet on those antichains.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection, Iterable
from functools import partial, reduce
from operator import add, le, mul, neg

from .chow import PrimeSupport, _check_ring, _check_ring_size, _prime
from .errors import AmbientMismatchError, InvalidSubquotientError
from .ordinal import Value, _check_integers


class Monomial(tuple):
    """A monomial as the tuple of its exponents; 1 is the all-zeros tuple."""

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]) -> Monomial:
        self = super().__new__(cls, exponents)
        _check_integers(self, "exponent")
        if self and min(self) < 0:
            raise ValueError("negative exponent")
        return self

    @property
    def exponents(self) -> tuple[int, ...]:
        return self

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def is_one(self) -> bool:
        return not any(self)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self) if e)

    def times(self, other: tuple[int, ...]) -> Monomial:
        if len(other) != len(self):
            raise AmbientMismatchError("monomial in wrong ring")
        return tuple.__new__(Monomial, map(add, self, Monomial(other)))  # a sum of checked exponents

    def sort_key(self) -> tuple:
        # degree-lexicographic with x_0 > x_1 > ..., the deterministic
        # order used in all searches and displays
        return (sum(self), tuple(map(neg, self)))


def variable(n: int, i: int) -> Monomial:
    """The monomial x_i of k[x_0..x_{n-1}]; PrimeSupport checks n and i."""
    return prime_ideal(PrimeSupport(n, (i,))).gens[0]


def _divides(gens: Iterable[tuple[int, ...]], m: tuple[int, ...]) -> bool:
    """True iff some tuple of gens divides m: the one divisibility test of the engine."""
    for g in gens:
        if all(map(le, g, m)):
            return True
    return False


def _minimize(exps: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    # Monomial.sort_key order: by degree, ties lexicographically decreasing
    kept: list[tuple[int, ...]] = []
    for e in sorted(sorted(set(exps), reverse=True), key=sum):
        if not _divides(kept, e):
            kept.append(e)
    return tuple(kept)


def _product(f: Iterable[tuple], g: Collection[tuple],
             low: Collection[tuple]) -> tuple[tuple[int, ...], ...]:
    """The minimal antichain of the products a*b, a in f and b in g, outside (low),
    minimised after the products in (low) are dropped: none outside has a divisor in it."""
    products = (tuple(map(add, a, b)) for a in f for b in g)
    return _minimize(m for m in products if not _divides(low, m))


def _intersect(f: Iterable[tuple], g: Collection[tuple]) -> tuple[tuple[int, ...], ...]:
    """The minimal antichain of (f) cap (g): an a in f that g divides stands in for its lcms."""
    return _minimize(m for a in f
                     for m in ([a] if _divides(g, a) else [tuple(map(max, a, b)) for b in g]))


def _saturate(gens: Iterable[tuple], n: int, vars: Collection[int]) -> list[tuple[int, ...]]:
    """Generators, not minimised, of (gens) : x_vars^infinity: the exponents on vars set to 0."""
    keep = [j not in vars for j in range(n)]
    return [tuple(map(mul, g, keep)) for g in gens]


def _meet(antichains: Iterable[Iterable[tuple]], n: int) -> tuple[tuple[int, ...], ...]:
    """The minimal antichain of the intersection of the ideals the given
    antichains generate; the unit ideal's when there are none."""
    return reduce(_intersect, map(_minimize, antichains), ((0,) * n,))


class MonomialIdeal(Value, namedtuple("MonomialIdeal", "ambient_n gens")):
    """A monomial ideal, its given generators minimised and sorted deg-lex."""

    __slots__ = ()

    def __new__(cls, ambient_n: int, gens: Iterable[Iterable[int]]) -> MonomialIdeal:
        exps = tuple(map(tuple, gens))
        _check_ring_size(ambient_n)
        if not {ambient_n}.issuperset(map(len, exps)):
            raise AmbientMismatchError("generator in wrong ring")
        return _ideal(ambient_n, _minimize(map(Monomial, exps)))  # Monomial checks the signs

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
        if len(m) != self.ambient_n:
            raise AmbientMismatchError("monomial in wrong ring")
        return _divides(self.gens, Monomial(m))  # Monomial checks the exponents

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        _check_ring(self, other, "ideals")
        return all(_divides(self.gens, h) for h in other.gens)


def _ideal(n: int, antichain: Iterable[tuple[int, ...]]) -> MonomialIdeal:
    """The ideal of an antichain that _minimize made from checked ideals, not checked again."""
    gens = map(partial(tuple.__new__, Monomial), antichain)
    return tuple.__new__(MonomialIdeal, (n, tuple(gens)))


def zero_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, ())


def unit_ideal(n: int) -> MonomialIdeal:
    _check_ring_size(n)
    return _ideal(n, ((0,) * n,))


def prime_ideal(p: PrimeSupport) -> MonomialIdeal:
    """The monomial prime (x_i : i in p.vars) as an ideal."""
    n = p.ambient_n
    return _ideal(n, (tuple(int(j == i) for j in range(n)) for i in sorted(p.vars)))


def maximal_ideal(n: int) -> MonomialIdeal:
    _check_ring_size(n)
    return prime_ideal(_prime(n, frozenset(range(n))))


def ideal_sum(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_ring(i, j, "ideals")
    return _ideal(i.ambient_n, _minimize(i.gens + j.gens))


def ideal_intersection(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_ring(i, j, "ideals")
    return _ideal(i.ambient_n, _intersect(i.gens, j.gens))


def ideal_product(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_ring(i, j, "ideals")
    return _ideal(i.ambient_n, _product(i.gens, j.gens, ()))


def ideal_power(i: MonomialIdeal, n: int) -> MonomialIdeal:
    _check_integers((n,), "power")
    if n < 0:
        raise ValueError("negative power")
    out = unit_ideal(i.ambient_n)
    for _ in range(n):
        out = ideal_product(out, i)
    return out


def colon(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """(i : j), the intersection of (i : g) over the generators g of j;
    the colon by the zero ideal is the unit ideal."""
    _check_ring(i, j, "ideals")
    steps = ([tuple(max(a - b, 0) for a, b in zip(f, g)) for f in i.gens] for g in j.gens)
    return _ideal(i.ambient_n, _meet(steps, i.ambient_n))


def saturation(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """(i : j^infinity), the intersection of (i : g^infinity) over the
    generators g of j, each being i with the exponents on supp(g) set to 0;
    the saturation by the zero ideal is the unit ideal."""
    _check_ring(i, j, "ideals")
    steps = (_saturate(i.gens, i.ambient_n, g.support) for g in j.gens)
    return _ideal(i.ambient_n, _meet(steps, i.ambient_n))


class SubquotientModule(Value, namedtuple("SubquotientModule", "lower upper")):
    """The module J/I presented by nested monomial ideals I <= J.

    (I, (1)) denotes the quotient ring R/I viewed as a module.
    """

    __slots__ = ()

    def __new__(cls, lower: MonomialIdeal, upper: MonomialIdeal) -> SubquotientModule:
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

    def split(self, k: MonomialIdeal) -> tuple[SubquotientModule, SubquotientModule]:
        """(K/I, J/K) for 0 -> K/I -> J/I -> J/K -> 0, after the one I <= K <= J check."""
        if not k.contains_ideal(self.lower) or not self.upper.contains_ideal(k):
            raise InvalidSubquotientError("witness ideal not between I and J")
        new = partial(tuple.__new__, SubquotientModule)
        return new((self.lower, k)), new((k, self.upper))

    def submodule(self, k: MonomialIdeal) -> SubquotientModule:
        """The submodule K/I of J/I; requires I <= K <= J."""
        return self.split(k)[0]

    def quotient_by(self, k: MonomialIdeal) -> SubquotientModule:
        """The quotient (J/I)/(K/I) = J/K; requires I <= K <= J."""
        return self.split(k)[1]
