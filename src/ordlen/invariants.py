"""Associated primes, local multiplicities, fundamental cycles, and length.

The central computation: the ordinal length of a monomial subquotient J/I
is the shuffle sum, over its associated primes p, of the local
multiplicity at p copies of omega^dim(p).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from . import ordinal as ord_
from .chow import Cycle, PrimeSupport, binord, zero_cycle
from .errors import (
    AmbientMismatchError,
    InvalidSubquotientError,
    SubmoduleSearchError,
    ZeroModuleError,
)
from .monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    colon,
    ideal_intersection,
    ideal_sum,
    prime_ideal,
    saturation,
    unit_ideal,
    variable,
)
from .ordinal import Ordinal


def _slice(i: MonomialIdeal, v: int, k: int) -> MonomialIdeal:
    """The x_v-free part of (i : x_v^k): the monomials m free of x_v with
    x_v^k * m in i."""
    n = i.ambient_n
    q = colon(i, MonomialIdeal(n, (Monomial(tuple(k if j == v else 0 for j in range(n))),)))
    return MonomialIdeal(n, tuple(g for g in q.gens if not g.exponents[v]))


@lru_cache(maxsize=None)
def fundamental_cycle(m: SubquotientModule) -> Cycle:
    """The effective cycle summing local multiplicities at associated
    primes, counted from the standard pairs of I.

    By Sturmfels-Trung-Vogel (1995, Lemma 3.3), lcl_p(J/I) is the number
    of standard pairs (x^a, S) of I with S = vars - p and x^a in
    J : x_S^infinity.  The pairs are counted by recursion on one variable
    x_v of I, in the manner of Hosten-Thomas (1999): the monomials of
    x_v-degree k outside I are x_v^k times those outside the slice I_k.
    Pairs with x_v free are the pairs of the top slice (k at or past every
    x_v exponent of I and J); pairs with x_v bound at degree k are the
    pairs of I_k lying in J_k : x_S^infinity that are not already covered
    by the top slice, i.e. those of the module (J_k cap I_top)/I_k.
    Slices only change at generator exponents, so each run of equal
    slices is counted once and weighted by its width.
    """
    n = m.ambient_n
    if m.is_zero:
        return zero_cycle(n)
    if m.lower.is_zero:
        # the single standard pair (1, vars) of the zero ideal
        return Cycle.from_terms(n, {PrimeSupport(n, frozenset()): 1})
    v = max(j for g in m.lower.gens for j, e in enumerate(g.exponents) if e)
    cuts = sorted({0} | {g.exponents[v] for g in m.lower.gens + m.upper.gens})
    top = _slice(m.lower, v, cuts[-1])
    terms = list(fundamental_cycle(SubquotientModule(top, _slice(m.upper, v, cuts[-1]))).terms)
    for k, nxt in zip(cuts, cuts[1:]):
        lower_k = _slice(m.lower, v, k)
        upper_k = ideal_intersection(_slice(m.upper, v, k), top)
        for p, c in fundamental_cycle(SubquotientModule(lower_k, upper_k)).terms:
            terms.append((PrimeSupport(n, p.vars | {v}), (nxt - k) * c))
    return Cycle.from_terms(n, terms)


def local_multiplicity(m: SubquotientModule, p: PrimeSupport) -> int:
    """Length of the p-torsion of (J/I) localized at p.

    This is the number of standard pairs (x^a, S) of I with free set
    S = vars - p and x^a in J : x_S^infinity (Sturmfels-Trung-Vogel 1995,
    Lemma 3.3), read from the slice count of the whole cycle.
    """
    if p.ambient_n != m.ambient_n:
        raise AmbientMismatchError("prime over a different ring")
    return fundamental_cycle(m).coeff(p)


def associated_primes(m: SubquotientModule) -> frozenset[PrimeSupport]:
    """All monomial primes with positive local multiplicity.

    These are the primes vars - S of the standard pairs (x^a, S) of I
    counted by the slice count (Sturmfels-Trung-Vogel 1995, Lemma 3.3).
    """
    return fundamental_cycle(m).support


@lru_cache(maxsize=None)
def length(m: SubquotientModule) -> Ordinal:
    """The ordinal length of J/I."""
    return binord(fundamental_cycle(m))


def height_rank(outer: SubquotientModule, inner_upper: MonomialIdeal) -> Ordinal:
    """Height rank of the submodule K/I inside J/I, i.e. the length of J/K."""
    return length(outer.quotient_by(inner_upper))


class ModuleInvariants(NamedTuple):
    order: int
    valence: int
    generic_length: int
    dimension: int
    is_unmixed: bool
    no_embedded_primes: bool


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


def dimension_filtration(m: SubquotientModule, i: int) -> SubquotientModule:
    """The largest submodule of J/I of dimension at most i, as a pair (I, K).

    K is the saturation of I at the intersection of the associated primes
    of dimension at most i, cut back into J; with no such primes the
    result is the zero submodule (K = I).
    """
    if i < -1:
        raise ValueError("filtration index must be >= -1")
    low = [p for p in associated_primes(m) if p.dim <= i]
    a = unit_ideal(m.ambient_n)
    for p in sorted(low, key=PrimeSupport.sort_key):
        a = ideal_intersection(a, prime_ideal(p))
    k = ideal_sum(ideal_intersection(saturation(m.lower, a), m.upper), m.lower)
    return SubquotientModule(m.lower, k)


def cycle_defect(m: SubquotientModule, inner_upper: MonomialIdeal) -> Cycle:
    """fcyc(N) + fcyc(Q) - fcyc(M) for the chain N = K/I inside M with Q = M/N.

    The result is effective whenever M has no embedded primes; callers
    assert that where it applies, since the operation itself stays total.
    """
    from .chow import cycle_add, cycle_sub

    n_part = fundamental_cycle(m.submodule(inner_upper))
    q_part = fundamental_cycle(m.quotient_by(inner_upper))
    return cycle_sub(cycle_add(n_part, q_part), fundamental_cycle(m))


def _monomials_up_to(n: int, bound: int) -> Iterator[Monomial]:
    """The monomials of degree at most bound, lazily, in Monomial.sort_key order."""

    def exponents(d: int, k: int) -> Iterator[tuple[int, ...]]:
        # the k-tuples summing to d, lexicographically decreasing
        if k == 0:
            if d == 0:
                yield ()
            return
        for a in range(d, -1, -1):
            for rest in exponents(d - a, k - 1):
                yield (a, *rest)

    for d in range(bound + 1):
        for exps in exponents(d, n):
            yield Monomial(exps)


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
    """
    mu = length(m)
    if not ord_.weaker(nu, mu):
        raise InvalidSubquotientError("target length is not weaker than the module length")
    n = m.ambient_n
    bound = max(m.lower.max_degree, m.upper.max_degree) + mu.valence
    ass = sorted(associated_primes(m), key=PrimeSupport.sort_key)
    k = m.lower
    target = ord_.ZERO
    for exp, coeff in nu.terms:
        primes = [[variable(n, v) for v in sorted(p.vars)] for p in ass if p.dim == exp]
        for _ in range(coeff):
            target = ord_.shuffle_sum(target, Ordinal.omega_power(exp))
            for x in _monomials_up_to(n, bound):
                if k.contains(x) or not m.upper.contains(x):
                    continue
                if not any(all(k.contains(y.times(x)) for y in p) for p in primes):
                    continue
                k2 = ideal_sum(k, MonomialIdeal.make(n, [x]))
                if length(SubquotientModule(m.lower, k2)) == target:
                    k = k2
                    break
            else:
                raise SubmoduleSearchError(
                    "no monomial submodule of length %s found within degree %d (module %r)"
                    % (target, bound, m)
                )
    return k
