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
from .ordinal import Ordinal, Value, _check_integers, _ordinal


def _check_ring_size(n: int) -> None:
    _check_integers((n,), "number of variables")
    if n < 0:
        raise AmbientMismatchError("negative number of variables")


def _check_ring(a, b, what: str) -> None:
    """The engine's one test that two ideals, modules or cycles share their ring."""
    if a.ambient_n != b.ambient_n:
        raise AmbientMismatchError("%s over different rings" % what)


class PrimeSupport(Value, namedtuple("PrimeSupport", "ambient_n vars key")):
    """The monomial prime (x_i : i in vars) of an n-variable polynomial ring;
    key, stored for sort_key(), follows from vars and is not an argument."""

    __slots__ = ()

    def __new__(cls, ambient_n: int, vars: Iterable[int]) -> PrimeSupport:
        vars = tuple(vars)  # checked before a frozenset can merge False into 0
        _check_ring_size(ambient_n)
        _check_integers(vars, "variable index")
        if any(v < 0 or v >= ambient_n for v in vars):
            raise ValueError("variable index out of range")
        return _prime(ambient_n, frozenset(vars))

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
    return PrimeSupport(ambient_n, vars)


def _prime(n: int, vars: frozenset[int]) -> PrimeSupport:
    """The prime of checked variable indices, not checked again."""
    return tuple.__new__(PrimeSupport, (n, vars, (len(vars), tuple(sorted(vars)))))


class Cycle(Value, namedtuple("Cycle", "ambient_n terms")):
    """An element of the Chow group: nonzero weights on primes in sort_key order."""

    __slots__ = ()

    def __new__(cls, ambient_n: int, terms: Iterable[tuple[PrimeSupport, int]] = ()) -> Cycle:
        terms = tuple(terms)
        _check_ring_size(ambient_n)
        for k, (p, c) in enumerate(terms):
            if p.ambient_n != ambient_n:
                raise AmbientMismatchError("cycle term in wrong ring")
            _check_integers((c,), "cycle weight")
            if c == 0 or k and p.key <= terms[k - 1][0].key:
                raise ValueError("cycle terms not canonical: zero coefficient or out of order")
        return tuple.__new__(cls, (ambient_n, terms))

    @classmethod
    def from_terms(
        cls, ambient_n: int, terms: Mapping[PrimeSupport, int] | Iterable[tuple[PrimeSupport, int]]
    ) -> Cycle:
        acc: dict[PrimeSupport, int] = {}
        for p, c in terms.items() if isinstance(terms, Mapping) else terms:
            _check_integers((c,), "cycle weight")
            acc[p] = acc.get(p, 0) + c
        canon = tuple(sorted(((p, c) for p, c in acc.items() if c), key=lambda t: t[0].key))
        return cls(ambient_n, canon)

    def coeff(self, p: PrimeSupport) -> int:
        if p.ambient_n != self.ambient_n:
            raise AmbientMismatchError("prime over a different ring")
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


def _cycle_of(n: int, terms: tuple[tuple[PrimeSupport, int], ...]) -> Cycle:
    """The cycle of canonical terms derived from checked values, not checked again."""
    return tuple.__new__(Cycle, (n, terms))


def _merge(d: Cycle, e: Cycle, sign: int) -> Cycle:
    """d + sign * e by one pass over both term tuples in sort-key order."""
    _check_ring(d, e, "cycles")
    a, b = d.terms, e.terms
    if not b:
        return d
    terms, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        (p, c), (q, f) = a[i], b[j]
        if p.key < q.key:
            terms.append(a[i])
            i += 1
        elif q.key < p.key:
            terms.append((q, sign * f))
            j += 1
        else:
            if c + sign * f:
                terms.append((p, c + sign * f))
            i, j = i + 1, j + 1
    return _cycle_of(d.ambient_n, (*terms, *a[i:], *[(q, sign * f) for q, f in b[j:]]))


def cycle_add(d: Cycle, e: Cycle) -> Cycle:
    return _merge(d, e, 1)


def cycle_sub(d: Cycle, e: Cycle) -> Cycle:
    return _merge(d, e, -1)


def cycle_leq(d: Cycle, e: Cycle) -> bool:
    """Coefficient-wise comparison of cycles, over the union of their supports."""
    _check_ring(d, e, "cycles")
    ec = dict(e.terms)
    return all(c <= ec.pop(p, 0) for p, c in d.terms) and all(c >= 0 for c in ec.values())


def binord(d: Cycle) -> Ordinal:
    """Map an effective cycle to the shuffle sum of omega^dim(p) with multiplicity."""
    # the terms run in decreasing dimension, so each run of one dimension
    # sums into a single Cantor term and no sort is needed
    terms: list[tuple[int, int]] = []
    for p, c in d.terms:
        if c < 0:
            raise NonEffectiveCycleError("binord requires an effective cycle")
        dim = d.ambient_n - p.key[0]
        if terms and terms[-1][0] == dim:
            c += terms.pop()[1]
        terms.append((dim, c))
    return _ordinal(tuple(terms))
