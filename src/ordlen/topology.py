"""The canonical topology on a subquotient module and its refinements.

All predicates here are decided at the level of fundamental cycles and
ordinal lengths; no module elements beyond monomial sets are ever
manipulated.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add

from . import ordinal as ord_
from .chow import binord
from .errors import OrdlenError, ResourceCapError, ZeroModuleError
from .invariants import (
    _cycle,
    associated_primes,
    basic_invariants,
    dimension_filtration,
    fundamental_cycle,
    length,
)
from .monomial import (
    MonomialIdeal,
    SubquotientModule,
    _meet,
    _minimize,
    _pairwise,
    ideal_sum,
    prime_ideal,
)

DEFAULT_POWER_CAP = 32


def is_open(m: SubquotientModule, k: MonomialIdeal) -> bool:
    """True iff the submodule K/I has the same fundamental cycle as J/I,
    equivalently the same length."""
    return fundamental_cycle(m.submodule(k)) == fundamental_cycle(m)


def is_strongly_additive(m: SubquotientModule, k: MonomialIdeal) -> bool:
    """True iff both semi-additivity inequalities for I <= K <= J are equalities.

    Equivalently, N = K/I or Q = J/K is zero, or dim N <= ord Q.
    """
    len_m, len_n, len_q = length(m), length(m.submodule(k)), length(m.quotient_by(k))
    return len_m == ord_.cantor_sum(len_q, len_n) and len_m == ord_.shuffle_sum(len_q, len_n)


def is_i_open(m: SubquotientModule, k: MonomialIdeal, i: int) -> bool:
    """True iff K/I has length equal to the degree->=i+1 part of len(J/I)."""
    return length(m.submodule(k)) == ord_.truncate_above(length(m), i)


def is_open_in_ith_topology(m: SubquotientModule, k: MonomialIdeal, i: int) -> bool:
    """True iff the degree->=i+1 part of len(J/I) is weaker than len(K/I)."""
    return ord_.weaker(ord_.truncate_above(length(m), i), length(m.submodule(k)))


def closure(m: SubquotientModule, k: MonomialIdeal) -> MonomialIdeal:
    """Closure of K/I in the canonical topology: K plus the finite-length part."""
    m.submodule(k)
    d0 = dimension_filtration(m, 0)
    return ideal_sum(k, d0.upper)


class EOpenPower(ord_.Value, namedtuple("EOpenPower", "n ideal")):
    __slots__ = ()


def find_e_open_power(r_mod: SubquotientModule, cap: int = DEFAULT_POWER_CAP) -> EOpenPower:
    """Least n with (a^n + I)/I an e-open in R/I, for e the order of R/I and
    a the intersection of its associated primes of dimension e.

    Artin-Rees guarantees some power works but gives no effective bound;
    the cap converts non-termination risk into a reported error.
    """
    if not r_mod.upper.is_unit:
        raise OrdlenError("e-open power search expects a quotient ring R/I")
    n_vars, low = r_mod.ambient_n, r_mod.lower.gens
    power = ((0,) * n_vars,)
    fc = _cycle(n_vars, low, power)
    if not fc.terms:
        raise ZeroModuleError("the zero module has no order")
    e = min(p.dim for p in fc.support)
    target = ord_.truncate_above(binord(fc), e)
    a = _meet((prime_ideal(p).gens for p in fc.support if p.dim == e), n_vars)
    for n in range(1, cap + 1):
        power = _pairwise(add, power, a)  # a^n, carried forward
        k = _minimize(power + low)
        if binord(_cycle(n_vars, low, k)) == target:
            return EOpenPower(n, MonomialIdeal.make(n_vars, k))
    raise ResourceCapError("no e-open power of the ideal found up to the cap %d" % cap)


def hom_vanishes(m: SubquotientModule, n: SubquotientModule) -> bool:
    """Sufficient vanishing criterion: dim(M) < ord(N) forces Hom(M, N) = 0."""
    if m.is_zero or n.is_zero:
        raise ZeroModuleError("hom vanishing criterion needs nonzero modules")
    return basic_invariants(m).dimension < basic_invariants(n).order


def predicts_open_kernel(m: SubquotientModule, n: SubquotientModule) -> bool:
    """True iff M and N share no associated prime (then every kernel is open)."""
    return not (associated_primes(m) & associated_primes(n))


def kernel_chain_bound(n: SubquotientModule) -> int:
    """Upper bound 2^val(N) on chain lengths among kernels of maps into N."""
    if n.is_zero:
        return 1
    return 2 ** basic_invariants(n).valence


def max_common_ass_dimension(m: SubquotientModule, n: SubquotientModule) -> int:
    """Largest dimension of a common associated prime; -1 when there is none."""
    common = associated_primes(m) & associated_primes(n)
    return max((p.dim for p in common), default=-1)
