"""The canonical topology on a subquotient module and its refinements.

All predicates here are decided at the level of fundamental cycles and
ordinal lengths; no module elements beyond monomial sets are ever
manipulated.
"""

from __future__ import annotations

from collections import namedtuple

from . import ordinal as ord_
from .chow import _check_ring
from .errors import OrdlenError, ResourceCapError, ZeroModuleError
from .invariants import (
    associated_primes,
    basic_invariants,
    dimension_filtration,
    fundamental_cycle,
    length,
)
from .monomial import (
    MonomialIdeal,
    SubquotientModule,
    _divides,
    _ideal,
    _meet,
    _minimize,
    _product,
    ideal_sum,
    prime_ideal,
)

DEFAULT_POWER_CAP = 32


def is_open(m: SubquotientModule, k: MonomialIdeal) -> bool:
    """True iff K/I has the length of J/I (equivalently its fundamental cycle): is_i_open at -1."""
    return is_i_open(m, k, -1)


def is_strongly_additive(m: SubquotientModule, k: MonomialIdeal) -> bool:
    """True iff both semi-additivity inequalities for I <= K <= J are equalities.

    Equivalently, N = K/I or Q = J/K is zero, or dim N <= ord Q.
    """
    len_m, (len_n, len_q) = length(m), map(length, m.split(k))
    return len_m == ord_.cantor_sum(len_q, len_n) and len_m == ord_.shuffle_sum(len_q, len_n)


def is_i_open(m: SubquotientModule, k: MonomialIdeal, i: int) -> bool:
    """True iff K/I has length equal to the degree->=i+1 part of len(J/I)."""
    ord_._check_integers((i,), "topology index")
    return length(m.submodule(k)) == ord_.truncate_above(length(m), i)


def is_open_in_ith_topology(m: SubquotientModule, k: MonomialIdeal, i: int) -> bool:
    """True iff the degree->=i+1 part of len(J/I) is weaker than len(K/I)."""
    ord_._check_integers((i,), "topology index")
    return ord_.weaker(ord_.truncate_above(length(m), i), length(m.submodule(k)))


def closure(m: SubquotientModule, k: MonomialIdeal) -> MonomialIdeal:
    """Closure of K/I in the canonical topology: K plus the finite-length part."""
    m.submodule(k)
    return ideal_sum(k, dimension_filtration(m, 0).upper)


class EOpenPower(ord_.Value, namedtuple("EOpenPower", "n ideal")):
    __slots__ = ()


def find_e_open_power(r_mod: SubquotientModule, cap: int = DEFAULT_POWER_CAP) -> EOpenPower:
    """Least n with (a^n + I)/I an e-open in R/I, for e the order of R/I and
    a the intersection of its associated primes of dimension e.

    A prime that contains a contains a prime of dimension e, so above e
    (a^n + I)/I has the coefficients of R/I, and it is e-open iff no
    associated prime contains a: iff a^n cap L <= I, for L = I : a^infinity,
    which is K_e of the dimension filtration, as e is the order of R/I: iff
    every lcm of a generator of a^n and one of L lies in I.
    Artin-Rees guarantees some power works but gives no effective bound;
    the cap converts non-termination risk into a reported error.  e is read
    from the last term of the fundamental cycle, whose terms run by
    decreasing dimension, without a basic_invariants record.
    """
    ord_._check_integers((cap,), "power cap")
    if cap < 1:
        raise ValueError("power cap must be >= 1")
    if not r_mod.upper.is_unit:
        raise OrdlenError("e-open power search expects a quotient ring R/I")
    n_vars, low, power = r_mod.ambient_n, r_mod.lower.gens, r_mod.upper.gens  # a^0 = J = R
    terms = fundamental_cycle(r_mod).terms
    if not terms:
        raise ZeroModuleError("order and dimension are undefined for the zero module")
    e = terms[-1][0].dim
    a = _meet((prime_ideal(p).gens for p, _ in terms if p.dim == e), n_vars)
    sat = dimension_filtration(r_mod, e).upper.gens
    for n in range(1, cap + 1):
        power = _product(power, a, low)
        if all(_divides(low, tuple(map(max, f, h))) for f in power for h in sat):
            return EOpenPower(n, _ideal(n_vars, _minimize([*power, *low])))
    raise ResourceCapError("no e-open power of the ideal found up to the cap %d" % cap)


def hom_vanishes(m: SubquotientModule, n: SubquotientModule) -> bool:
    """Sufficient vanishing criterion: dim(M) < ord(N) forces Hom(M, N) = 0
    (checked by tests/test_maps.py::test_image_is_zero_where_hom_vanishes)."""
    _check_ring(m, n, "modules")
    if m.is_zero or n.is_zero:
        raise ZeroModuleError("hom vanishing criterion needs nonzero modules")
    return basic_invariants(m).dimension < basic_invariants(n).order


def predicts_open_kernel(m: SubquotientModule, n: SubquotientModule) -> bool:
    """True iff M and N share no associated prime; then every kernel of a map M -> N
    is open (checked by tests/test_maps.py::test_kernel_is_open_where_predicted)."""
    return max_common_ass_dimension(m, n) < 0


def kernel_chain_bound(n: SubquotientModule) -> int:
    """Upper bound 2^val(N) on chain lengths among kernels of maps into N (checked by
    tests/test_maps.py::test_kernel_chains_of_maps_from_the_ring_are_bounded)."""
    if n.is_zero:
        return 1
    return 2 ** basic_invariants(n).valence


def max_common_ass_dimension(m: SubquotientModule, n: SubquotientModule) -> int:
    """Largest dimension of a common associated prime; -1 when there is none."""
    _check_ring(m, n, "modules")
    common = associated_primes(m) & associated_primes(n)
    return max((p.dim for p in common), default=-1)
