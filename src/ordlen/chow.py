"""Cycles on the monomial primes of a fixed polynomial ring.

A monomial prime of k[x_1..x_n] is identified with the subset of variable
indices generating it; its dimension is n minus the size of that subset.
Cycles are finitely supported integer combinations of such primes.  Both
are Values (see ordinal.Value), equal only to values of their own type.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping

from .errors import AmbientMismatchError, NonEffectiveCycleError
from .ordinal import Ordinal, Value


class PrimeSupport(Value, namedtuple("PrimeSupport", "ambient_n vars key")):
    """The monomial prime (x_i : i in vars) of an n-variable polynomial ring;
    key, stored for sort_key(), follows from vars and is not an argument."""

    __slots__ = ()

    def __new__(cls, ambient_n: int, vars: frozenset[int]) -> PrimeSupport:
        if any(v < 0 or v >= ambient_n for v in vars):
            raise ValueError("variable index out of range")
        return tuple.__new__(cls, (ambient_n, vars, (len(vars), tuple(sorted(vars)))))

    @classmethod
    def _make(cls, iterable: Iterable) -> PrimeSupport:
        return cls(*tuple(iterable)[:2])  # the stored key is recomputed from vars

    def __getnewargs__(self) -> tuple[int, frozenset[int]]:
        return self[:2]

    def __repr__(self) -> str:
        return "PrimeSupport(ambient_n=%r, vars=%r)" % self[:2]

    @property
    def dim(self) -> int:
        return self.ambient_n - len(self.vars)

    def sort_key(self) -> tuple:
        return self.key


def prime(ambient_n: int, vars: Iterable[int]) -> PrimeSupport:
    return PrimeSupport(ambient_n, frozenset(vars))


class Cycle(Value, namedtuple("Cycle", "ambient_n terms")):
    """An element of the Chow group: nonzero weights on primes in sort_key order."""

    __slots__ = ()

    def __new__(cls, ambient_n: int, terms: tuple[tuple[PrimeSupport, int], ...] = ()) -> Cycle:
        for k, (p, c) in enumerate(terms):
            if p.ambient_n != ambient_n:
                raise AmbientMismatchError("cycle term in wrong ring")
            if c == 0 or k and p.key <= terms[k - 1][0].key:
                raise ValueError("cycle terms not canonical: zero coefficient or out of order")
        return tuple.__new__(cls, (ambient_n, terms))

    @classmethod
    def from_terms(
        cls, ambient_n: int, terms: Mapping[PrimeSupport, int] | Iterable[tuple[PrimeSupport, int]]
    ) -> Cycle:
        acc: dict[PrimeSupport, int] = {}
        for p, c in terms.items() if isinstance(terms, Mapping) else terms:
            acc[p] = acc.get(p, 0) + c
        canon = tuple(sorted(((p, c) for p, c in acc.items() if c), key=lambda t: t[0].key))
        return cls(ambient_n, canon)

    def coeff(self, p: PrimeSupport) -> int:
        return dict(self.terms).get(p, 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_effective(self) -> bool:
        return all(c > 0 for _, c in self.terms)

    @property
    def degree(self) -> int:
        """Sum of the coefficients."""
        return sum(c for _, c in self.terms)

    @property
    def support(self) -> frozenset[PrimeSupport]:
        return frozenset(p for p, _ in self.terms)


def zero_cycle(ambient_n: int) -> Cycle:
    return Cycle(ambient_n)


def _merge(d: Cycle, e: Cycle, sign: int) -> Cycle:
    """d + sign * e by one pass over both term tuples in sort-key order."""
    if d.ambient_n != e.ambient_n:
        raise AmbientMismatchError("cycles over different rings")
    a, b = d.terms, e.terms if sign == 1 else tuple((q, sign * f) for q, f in e.terms)
    terms, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        ka, kb = a[i][0].key, b[j][0].key
        if ka < kb:
            terms.append(a[i])
        elif kb < ka:
            terms.append(b[j])
        elif a[i][1] + b[j][1]:
            terms.append((a[i][0], a[i][1] + b[j][1]))
        i, j = i + (ka <= kb), j + (kb <= ka)
    return Cycle(d.ambient_n, tuple(terms) + a[i:] + b[j:])


def cycle_add(d: Cycle, e: Cycle) -> Cycle:
    return _merge(d, e, 1)


def cycle_sub(d: Cycle, e: Cycle) -> Cycle:
    return _merge(d, e, -1)


def cycle_leq(d: Cycle, e: Cycle) -> bool:
    """Coefficient-wise comparison of cycles, over the union of their supports."""
    if d.ambient_n != e.ambient_n:
        raise AmbientMismatchError("cycles over different rings")
    ec = dict(e.terms)
    return all(c <= ec.pop(p, 0) for p, c in d.terms) and all(c >= 0 for c in ec.values())


def binord(d: Cycle) -> Ordinal:
    """Map an effective cycle to the shuffle sum of omega^dim(p) with multiplicity."""
    if not d.is_effective:
        raise NonEffectiveCycleError("binord requires an effective cycle")
    # the terms run in decreasing dimension, so each run of one dimension
    # sums into a single Cantor term and no sort is needed
    terms: list[tuple[int, int]] = []
    for p, c in d.terms:
        if terms and terms[-1][0] == p.dim:
            c += terms.pop()[1]
        terms.append((p.dim, c))
    return Ordinal(tuple(terms))
