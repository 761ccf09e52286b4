"""Associated primes, local multiplicities, fundamental cycles, and length.

The central computation: the ordinal length of a monomial subquotient J/I
is the shuffle sum, over its associated primes p, of the local
multiplicity at p copies of omega^dim(p).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice

from . import ordinal as ord_
from .chow import Cycle, PrimeSupport, _cycle_of, _prime, binord, cycle_add, cycle_sub
from .errors import (
    InvalidSubquotientError,
    SubmoduleSearchError,
    ZeroModuleError,
)
from .monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    _divides,
    _ideal,
    _intersect,
    _meet,
    _minimize,
    _saturate,
)
from .ordinal import Ordinal, Value, _ordinal


def _slices(gens: tuple, v: int, cuts: list[int]) -> list[tuple]:
    """Each slice I_k of the antichain gens, for the ascending cuts k (see _cycle)."""
    entering: dict[int, list[tuple]] = {}
    for g in gens:
        entering.setdefault(g[v], []).append(g[:v] + (0,) + g[v + 1 :])
    kept, out, cur = [], [], ()
    for k in cuts:
        if k in entering:
            new = entering[k]
            kept = [h for h in kept if not _divides(new, h)] + new
            cur = tuple(sorted(sorted(kept, reverse=True), key=sum))
        out.append(cur)
    return out


def _box(n: int, gens: tuple) -> tuple | None:
    """The one term (x_i : i in S), prod a_i of J/I for J = (1) and I = (x_i^a_i : i in S),
    or None when a generator is not a pure power (see _cycle)."""
    s, c = [], 1
    for g in gens:
        if g.count(0) != n - 1:
            return None
        a = max(g)
        s.append(g.index(a))
        c *= a
    return _prime(n, frozenset(s)), c


# No benchmark pass stores over 1,899 entries, but one len of fixed-degree (10, 200, 12)
# makes 20,160: ru_maxrss grows by 47.9 MB unbounded, by 11.1 MB at this bound.
_CYCLE_MEMO = 4096


@lru_cache(maxsize=_CYCLE_MEMO)
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
    i.e. those of the module (J_k cap I_top)/I_k, whose upper antichain is
    _intersect(J_k, I_top).  Slices only change at generator exponents, so
    each run of equal slices is counted once and weighted by its width.

    _slices sweeps the cuts, which hold every g_v, upwards.  The generators
    entering at cut k all have g_v = k, so none divides another or one
    already in, or one generator of I would divide another.  A cut only
    drops the old generators that a new one divides: no full minimisation.

    Base cases: J inside I (no pairs), I = 0 (one pair), and J = (1) with
    I = (x_i^a_i : i in S), one box of prod a_i pairs at (x_i : i in S)
    (_box); a box slice in the sweep is counted in place, without a call.
    Shortcuts: J = (1) is not sliced (each meet is I_top), and J inside I is
    I = (1) there; I_top = (1) has no top pairs (each meet is J_k); the sweep
    stops at the first slice equal to I_top (later meets lie in I_k).  The
    meet is carried along the sweep: J_k only grows, and intersection
    distributes over sums of monomial ideals, so J_k cap I_top is the last
    meet plus (the generators new in J_k) cap I_top, and the last meet
    itself while _slices hands back the same J_k.  Weights add up by
    variable set.
    """
    one = ((0,) * n,)
    unit = upper == one
    if lower == one if unit else all(_divides(lower, h) for h in upper):
        return _cycle_of(n, ())
    if not lower:
        # the single standard pair (1, vars) of the zero ideal
        return _cycle_of(n, ((_prime(n, frozenset()), 1),))
    box = unit and _box(n, lower)
    if box:
        return _cycle_of(n, (box,))
    v = bytes(map(any, zip(*lower))).rindex(1)  # the last variable I involves
    cuts = sorted({0} | {g[v] for g in lower + upper})
    lows = _slices(lower, v, cuts)
    ups = [one] * len(cuts) if unit else _slices(upper, v, cuts)
    top = lows[-1]
    free = () if top == one else _cycle(n, top, ups[-1]).terms
    acc: dict[frozenset[int], int] = {}
    last = meet = ()
    for k, nxt, low, up in zip(cuts, cuts[1:], lows, ups):
        if low == top:
            break
        if up is not last:
            meet = top if up == one else up if top == one else _minimize(
                meet + _intersect(set(up).difference(last), top))
            last = up
        box = meet == one and _box(n, low)
        for p, c in (box,) if box else _cycle(n, low, meet).terms:
            s = p.vars | {v}
            acc[s] = acc.get(s, 0) + (nxt - k) * c
    terms = (*free, *((_prime(n, s), c) for s, c in acc.items()))
    return _cycle_of(n, tuple(sorted(terms, key=lambda t: t[0].key)) if terms[1:] else terms)


def fundamental_cycle(m: SubquotientModule) -> Cycle:
    """The effective cycle of local multiplicities at associated primes (see _cycle)."""
    return _cycle(m.ambient_n, m.lower.gens, m.upper.gens)


def local_multiplicity(m: SubquotientModule, p: PrimeSupport) -> int:
    """Length of the p-torsion of (J/I) localized at p, read from the
    standard-pair count of the fundamental cycle (see _cycle)."""
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
    fc = fundamental_cycle(m)
    if fc.is_zero:
        raise ZeroModuleError("order and dimension are undefined for the zero module")
    ass = [p for p, _ in fc.terms]  # in sort_key order, so by decreasing dimension
    dimension, order = ass[0].dim, ass[-1].dim
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
    n, ass, sat = m.ambient_n, fundamental_cycle(m).support, m.lower.gens
    for i in range(-1, max((p.dim for p in ass), default=-1)):
        for p in ass:
            if p.dim == i:
                sat = _meet((_saturate(sat, n, (v,)) for v in p.vars), n)
        if sat is m.lower.gens:
            yield m.lower
        else:  # K_i is the saturation itself when J = (1)
            yield _ideal(n, sat if m.upper.is_unit else _intersect(sat, m.upper.gens))
    yield m.upper


def dimension_filtration(m: SubquotientModule, i: int) -> SubquotientModule:
    """The largest submodule K_i/I of J/I of dimension at most i (see _filtration);
    the zero submodule (K = I) when no associated prime has dimension <= i."""
    ord_._check_integers((i,), "filtration index")
    if i < -1:
        raise ValueError("filtration index must be >= -1")
    *_, k = islice(_filtration(m), i + 2)
    return tuple.__new__(SubquotientModule, (m.lower, k))  # I <= K_i by construction


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
    n_part, q_part = map(fundamental_cycle, m.split(inner_upper))
    return cycle_sub(cycle_add(n_part, q_part), fundamental_cycle(m))


def _socle(kg: tuple, j: tuple, p: PrimeSupport) -> tuple:
    """An antichain whose members outside K are exactly the generators of (K : p) cap J outside K.

    K : x_i = K + D_i, D_i generated by g - e_i for the generators g of K
    with g_i > 0, and by distributivity K : p = K + (the meet of the D_i,
    i in p).  lcm(e, g - e_i) is a multiple of g, so in K, exactly when
    e_i >= g_i: those pairs are skipped.  Dropping members of K at any
    stage loses nothing: each y outside K in J cap D_i1 cap ... lies over
    an lcm of members below y, all outside K.  A pass that starts from (1)
    is the minimised D_i generators alone, as lcm(1, h) = h.
    """
    out = j
    for i in p.vars:
        lowered = [g[:i] + (g[i] - 1,) + g[i + 1 :] for g in kg if g[i]]
        if out and not any(out[0]):  # out = (1)
            out = _minimize(lowered)
        else:
            out = _minimize(tuple(map(max, e, h)) for h in lowered for e in out if e[i] <= h[i])
    return out


def _pair_part(low: tuple, p: PrimeSupport, n: int) -> tuple:
    """The antichain of C_p, the meet over the x_i in p of I : x_(S + i)^infinity
    for S = vars - p.  y lies in C_p iff for each i in p some generator of I
    divides y on p - {i}: iff (y', S) is under a standard pair of I, for y'
    the part of y on p (see _cycle)."""
    s = set(range(n)) - p.vars
    return _meet((_saturate(low, n, s | {i}) for i in p.vars), n)


def construct_submodule_of_length(m: SubquotientModule, nu: Ordinal) -> MonomialIdeal:
    """Find K with I <= K <= J and len(K/I) = nu; nu must be weaker than len(J/I).

    Follows the existence proof: peel nu into omega-power steps from the
    top degree down, at each step adjoining the least monomial x in
    degree-lex order, up to a fixed degree bound, with x in J - K and
    len((K + (x))/I) = len(K/I) (+) omega^e.  Before the step, nu weaker
    than len(J/I) gives an associated prime p of dimension e with
    lcl_p(K/I) < lcl_p(J/I); a socle multiple of some y in J - K nonzero in
    (J/K)_p, times a high power of the variables outside p, is an x with
    K : x = p, which raises lcl_p by exactly 1 and no other lcl_q.  Only the
    degree bound can hide such an x; failure within it is a hard error,
    never a silent widening of the bound.

    x is a witness iff K : x is a prime p of dimension e and x lies in C_p
    (_pair_part): (K + (x))/K is R/(K : x), and a new standard pair (y, T)
    of I (see _cycle) has x' | y, x' the part of x off T, and T disjoint
    from K : x, so only (x', vars - p) can count.  With S = vars - p and
    B_p = K : x_S^infinity, K : x = p iff x is in (K : p) - B_p, as x*x_i in
    K for an x_i in S puts x in B_p.  So the witnesses are the members of
    ((K : p) cap J cap C_p) - B_p, p over the associated primes of
    dimension e.  B_p is closed under multiples, so the least of them is a
    generator of (K : p) cap J cap C_p, one of _socle's; B_p holds K, so the
    B_p test also drops _socle's members in K.  No exponent of K passes the
    degree bound, as none of I's does and sum(x) <= bound for each adjoined x,
    so x is in B_p iff lcm(x, x_S^bound) is in K.

    Shortcuts: with J = (1), J cap C_p is C_p and no intersection is made;
    each prime's scan stops at its first witness, and a step over one
    prime takes that witness without comparing.
    """
    fc = fundamental_cycle(m)
    mu = binord(fc)
    if not ord_.weaker(nu, mu):
        raise InvalidSubquotientError("target length is not weaker than the module length")
    bound = max(m.lower.max_degree, m.upper.max_degree) + mu.valence
    n, low, up = m.ambient_n, m.lower.gens, m.upper.gens
    kg, unit = list(low), m.upper.is_unit
    for t, (exp, coeff) in enumerate(nu.terms):
        parts = [(p, cp if unit else _intersect(up, cp),
                  tuple(0 if v in p.vars else bound for v in range(n)))
                 for p, _ in fc.terms if p.dim == exp for cp in [_pair_part(low, p, n)]]
        for step in range(1, coeff + 1):
            found = []
            for p, jc, top in parts:
                for x in _socle(kg, jc, p):
                    if sum(x) <= bound and not _divides(kg, tuple(map(max, x, top))):
                        found.append(x)
                        break
            if not found:
                msg = "no monomial submodule of length %s found within degree %d (module %r)"
                raise SubmoduleSearchError(msg % (_ordinal(nu.terms[:t] + ((exp, step),)), bound, m))
            # x is outside B_p, which holds K: K gains x and loses the generators x divides
            x = min(found, key=Monomial.sort_key) if found[1:] else found[0]
            kg = [g for g in kg if not _divides((x,), g)] + [x]
    return _ideal(n, _minimize(kg))
