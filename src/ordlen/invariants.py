"""Associated primes, local multiplicities, fundamental cycles, and length.

The central computation: the ordinal length of a monomial subquotient J/I
is the shuffle sum, over its associated primes p, of the local
multiplicity at p copies of omega^dim(p).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from heapq import heappop, heappush
from itertools import islice
from operator import le, neg

from . import ordinal as ord_
from .chow import Cycle, PrimeSupport, binord, cycle_add, cycle_sub, zero_cycle
from .errors import (
    AmbientMismatchError,
    InvalidSubquotientError,
    SubmoduleSearchError,
    ZeroModuleError,
)
from .monomial import (
    MonomialIdeal,
    SubquotientModule,
    _meet,
    _minimize,
    _pairwise,
)
from .ordinal import Ordinal, Value


def _slices(gens: tuple, v: int, cuts: list[int]) -> list[tuple]:
    """Each slice I_k of the antichain gens, for the ascending cuts k (see _cycle)."""
    entering: dict[int, list[tuple]] = {}
    for g in gens:
        entering.setdefault(g[v], []).append(g[:v] + (0,) + g[v + 1 :])
    kept, out, cur = [], [], ()
    for k in cuts:
        if k in entering:
            new = entering[k]
            kept = [h for h in kept if not any(all(map(le, g, h)) for g in new)] + new
            cur = tuple(sorted(sorted(kept, reverse=True), key=sum))
        out.append(cur)
    return out


@lru_cache(maxsize=None)
def _cycle(n: int, lower: tuple, upper: tuple) -> Cycle:
    """The fundamental cycle of J/I for the exponent-tuple antichains of I <= J.

    By Sturmfels-Trung-Vogel (1995, Lemma 3.3), lcl_p(J/I) is the number
    of standard pairs (x^a, S) of I with S = vars - p and x^a in
    J : x_S^infinity.  The pairs are counted by recursion on one variable
    x_v of I, in the manner of Hosten-Thomas (1999): the monomials of
    x_v-degree k outside I are x_v^k times those outside the slice I_k,
    the x_v-free part of I : x_v^k.  An x_v-free m has x_v^k * m in I iff
    some generator g of I has g_v <= k and divides m off x_v, so I_k is
    generated by those g with g_v set to 0.  Pairs with x_v free are the
    pairs of the top slice (k at or past every x_v exponent of I and J);
    pairs with x_v bound at degree k are the pairs of I_k lying in
    J_k : x_S^infinity that are not already covered by the top slice,
    i.e. those of the module (J_k cap I_top)/I_k.  Slices only change at
    generator exponents, so each run of equal slices is counted once and
    weighted by its width.

    _slices sweeps the cuts, which hold every g_v, upwards.  The generators
    entering at cut k all have g_v = k, so none divides another or one
    already in, or one generator of I would divide another.  A cut only
    drops the old generators that a new one divides: no full minimisation.
    """
    if all(any(all(map(le, g, h)) for g in lower) for h in upper):
        return zero_cycle(n)
    if not lower:
        # the single standard pair (1, vars) of the zero ideal
        return Cycle(n, ((PrimeSupport(n, frozenset()), 1),))
    v = max(j for g in lower for j, e in enumerate(g) if e)
    cuts = sorted({0} | {g[v] for g in lower + upper})
    lows, ups = _slices(lower, v, cuts), _slices(upper, v, cuts)
    top = lows[-1]
    terms = list(_cycle(n, top, ups[-1]).terms)
    for k, nxt, low, up in zip(cuts, cuts[1:], lows, ups):
        # a generator of J_k inside I_top stands in for all of its lcms
        inside = {f for f in up if any(all(map(le, g, f)) for g in top)}
        lcms = [tuple(map(max, f, g)) for f in up if f not in inside for g in top]
        for p, c in _cycle(n, low, _minimize(inside.union(lcms))).terms:
            terms.append((PrimeSupport(n, p.vars | {v}), (nxt - k) * c))
    return Cycle.from_terms(n, terms)


def fundamental_cycle(m: SubquotientModule) -> Cycle:
    """The effective cycle of local multiplicities at associated primes (see _cycle)."""
    return _cycle(m.ambient_n, m.lower.gens, m.upper.gens)


def local_multiplicity(m: SubquotientModule, p: PrimeSupport) -> int:
    """Length of the p-torsion of (J/I) localized at p, read from the
    standard-pair count of the fundamental cycle (see _cycle)."""
    if p.ambient_n != m.ambient_n:
        raise AmbientMismatchError("prime over a different ring")
    return fundamental_cycle(m).coeff(p)


def associated_primes(m: SubquotientModule) -> frozenset[PrimeSupport]:
    """All monomial primes with positive local multiplicity: the primes
    vars - S of the standard pairs (x^a, S) of I counted by _cycle."""
    return fundamental_cycle(m).support


def length(m: SubquotientModule) -> Ordinal:
    """The ordinal length of J/I."""
    return binord(fundamental_cycle(m))


def height_rank(outer: SubquotientModule, inner_upper: MonomialIdeal) -> Ordinal:
    """Height rank of the submodule K/I inside J/I, i.e. the length of J/K."""
    return length(outer.quotient_by(inner_upper))


class ModuleInvariants(Value, namedtuple("ModuleInvariants", "order valence generic_length "
                                         "dimension is_unmixed no_embedded_primes")):
    __slots__ = ()


def basic_invariants(m: SubquotientModule) -> ModuleInvariants:
    """Order, valence, generic length, dimension and mixedness of a nonzero module."""
    ass = associated_primes(m)
    if not ass:
        raise ZeroModuleError("order and dimension are undefined for the zero module")
    dims = [p.dim for p in ass]
    order = min(dims)
    dimension = max(dims)
    fc = fundamental_cycle(m)
    generic = sum(c for p, c in fc.terms if p.dim == dimension)
    antichain = not any(p.vars < q.vars for p in ass for q in ass)
    return ModuleInvariants(
        order=order,
        valence=fc.degree,
        generic_length=generic,
        dimension=dimension,
        is_unmixed=order == dimension,
        no_embedded_primes=antichain,
    )


def _filtration(m: SubquotientModule) -> Iterator[MonomialIdeal]:
    """The ideals K_-1 = I, K_0, ..., K_d = J of the dimension filtration of
    J/I, d its dimension; the zero module (d = -1) gives J = I alone.

    K_i = (I : a_i^infinity) cap J for a_i the intersection of the associated
    primes of dimension at most i; it contains I, as I <= J.  Saturation
    depends only on the radical, so I : (p cap q)^infinity =
    (I : p^infinity) : q^infinity: one sweep upwards in i saturates at
    each prime once.  I : p^infinity is the meet, over the x_v in p, of I
    with x_v set to 1.  K_d = J needs no saturation: a power of a_d kills
    J/I, so J <= I : a_d^infinity.
    """
    n = m.ambient_n
    low, up = m.lower.gens, m.upper.gens
    ass = _cycle(n, low, up).support
    sat = low
    for i in range(-1, max((p.dim for p in ass), default=-1)):
        for p in ass:
            if p.dim == i:
                sat = _meet(([g[:v] + (0,) + g[v + 1 :] for g in sat] for v in p.vars), n)
        yield m.lower if sat is low else MonomialIdeal.make(n, _pairwise(max, sat, up))
    yield m.upper


def dimension_filtration(m: SubquotientModule, i: int) -> SubquotientModule:
    """The largest submodule K_i/I of J/I of dimension at most i (see _filtration);
    the zero submodule (K = I) when no associated prime has dimension <= i."""
    if i < -1:
        raise ValueError("filtration index must be >= -1")
    *_, k = islice(_filtration(m), i + 2)
    return SubquotientModule(m.lower, k)


def filtration_chain(m: SubquotientModule) -> list[MonomialIdeal]:
    """The ideals K_0 <= ... <= K_d = J of dimension_filtration(m, i) for
    i = 0..d, d the dimension of the nonzero module m = J/I."""
    _, *chain = _filtration(m)
    if not chain:
        raise ZeroModuleError("dimension filtration of the zero module")
    return chain


def cycle_defect(m: SubquotientModule, inner_upper: MonomialIdeal) -> Cycle:
    """fcyc(N) + fcyc(Q) - fcyc(M) for the chain N = K/I inside M with Q = M/N.

    The result is effective whenever M has no embedded primes; callers
    assert that where it applies, since the operation itself stays total.
    """
    n_part = fundamental_cycle(m.submodule(inner_upper))
    q_part = fundamental_cycle(m.quotient_by(inner_upper))
    return cycle_sub(cycle_add(n_part, q_part), fundamental_cycle(m))


def _socle(kg: tuple, j: tuple, p: PrimeSupport) -> list[tuple]:
    """The generators of (K : p) cap J outside K, for the antichains kg and j.

    K : x_i = K + D_i, D_i generated by g - e_i for the generators g of K
    with g_i > 0, and by distributivity K : p = K + (the meet of the D_i,
    i in p).  lcm(e, g - e_i) is a multiple of g, so in K, exactly when
    e_i >= g_i: those pairs are skipped.  Dropping members of K at any
    stage loses nothing: each y outside K in J cap D_i1 cap ... lies over
    an lcm of members below y, all outside K.
    """
    out = j
    for i in p.vars:
        lowered = [g[:i] + (g[i] - 1,) + g[i + 1 :] for g in kg if g[i]]
        out = _minimize(tuple(map(max, e, h)) for h in lowered for e in out if e[i] <= h[i])
    return [e for e in out if not any(all(map(le, g, e)) for g in kg)]


def _candidates(kg: tuple, j: tuple, primes: list, bound: int) -> Iterator[tuple]:
    """Exponent tuples of degree <= bound outside K in some (K : p) cap J, in sort_key order."""
    heap, seen, todo = [], set(), [x for p in primes for x in _socle(kg, j, p)]
    while True:
        for x in todo:
            if x not in seen and sum(x) <= bound and not any(all(map(le, g, x)) for g in kg):
                seen.add(x)
                heappush(heap, (sum(x), tuple(map(neg, x))))
        if not heap:
            return
        x = tuple(map(neg, heappop(heap)[1]))
        yield x
        todo = [x[:v] + (x[v] + 1,) + x[v + 1 :] for v in range(len(x))]


def construct_submodule_of_length(m: SubquotientModule, nu: Ordinal) -> MonomialIdeal:
    """Find K with I <= K <= J and len(K/I) = nu; nu must be weaker than len(J/I).

    Follows the existence proof: peel nu into omega-power steps from the
    top degree down, at each step adjoining the first monomial x, in
    degree-lex order up to a fixed degree bound, with x in J, x outside
    the current K and p*x inside K for an associated prime p of the step's
    dimension e, such that len(K + (x)/I) is the running target.

    One pass suffices.  Before the step, nu weaker than len(J/I) gives an
    associated prime p of dimension e with lcl_p(K/I) < lcl_p(J/I), so some
    monomial y in J - K is p-torsion in (J/I)_p and nonzero in (J/K)_p.
    A socle multiple z of y, times a high power of the variables outside
    p, is a monomial x with K : x = p.  Adjoining x adds R/p to K/I, which
    raises lcl_p by exactly 1 and no other lcl_q, so the scan meets a
    witness.  Only the degree bound can hide it; failure within the bound
    is a hard error, never a silent widening of the bound.

    The candidates x are those of L_p = (K : p) cap J outside K, seeded
    by _socle into a heap (_candidates).  Every y in L_p - K is reached from
    a generator of L_p dividing it through divisors of y, which lie in L_p
    and outside K (a divisor in K would put y in K).  Pushes only raise the
    degree, so the heap yields the scan's candidates in its order.
    """
    mu = length(m)
    if not ord_.weaker(nu, mu):
        raise InvalidSubquotientError("target length is not weaker than the module length")
    bound = max(m.lower.max_degree, m.upper.max_degree) + mu.valence
    ass = sorted(associated_primes(m), key=PrimeSupport.sort_key)
    low, up = m.lower.gens, m.upper.gens
    kg, target = low, ord_.ZERO
    for exp, coeff in nu.terms:
        primes = [p for p in ass if p.dim == exp]
        for _ in range(coeff):
            target = ord_.shuffle_sum(target, Ordinal.omega_power(exp))
            for x in _candidates(kg, up, primes, bound):
                k2 = _minimize(kg + (x,))
                if binord(_cycle(m.ambient_n, low, k2)) == target:
                    kg = k2
                    break
            else:
                msg = "no monomial submodule of length %s found within degree %d (module %r)"
                raise SubmoduleSearchError(msg % (target, bound, m))
    return MonomialIdeal.make(m.ambient_n, kg)
