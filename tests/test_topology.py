import itertools
from operator import le

import pytest

from ordlen.chow import zero_cycle
from ordlen.errors import OrdlenError, ResourceCapError, ZeroModuleError
from ordlen.invariants import (
    associated_primes,
    basic_invariants,
    construct_submodule_of_length,
    length,
)
from ordlen.monomial import (
    MonomialIdeal,
    SubquotientModule,
    maximal_ideal,
    unit_ideal,
    zero_ideal,
)
from ordlen.ordinal import Ordinal
from ordlen.topology import (
    DEFAULT_POWER_CAP,
    EOpenPower,
    closure,
    find_e_open_power,
    hom_vanishes,
    is_i_open,
    is_open,
    is_open_in_ith_topology,
    is_strongly_additive,
    kernel_chain_bound,
    max_common_ass_dimension,
    predicts_open_kernel,
)


def ideal(n, *exps):
    return MonomialIdeal.make(n, exps)


def ring_mod(n, *exps):
    return SubquotientModule.quotient_ring(ideal(n, *exps))


M3 = ring_mod(3, (2, 0, 0), (1, 1, 0))  # len = w^2 + w
M2 = ring_mod(2, (2, 0), (1, 1))  # len = w + 1


class TestIsOpen:
    def test_whole_module_is_open(self):
        assert is_open(M3, M3.upper)

    def test_zero_submodule_not_open(self):
        assert not is_open(M3, M3.lower)

    def test_running_example(self):
        assert not is_open(M3, ideal(3, (1, 0, 0)))
        assert is_open(M3, ideal(3, (1, 0, 0), (0, 1, 0)))

    def test_maximal_ideal_open_when_not_artinian(self):
        # (x, y)/(x^2, xy) already carries the full length w + 1
        assert is_open(M2, maximal_ideal(2))

    def test_maximal_ideal_not_open_when_artinian(self):
        m = ring_mod(2, (2, 0), (1, 1), (0, 2))
        assert not is_open(m, maximal_ideal(2))


class TestStrongAdditivity:
    def test_cut_at_minimal_prime(self):
        assert is_strongly_additive(M3, ideal(3, (1, 0, 0)))

    def test_trivial_cuts(self):
        assert is_strongly_additive(M3, M3.lower)
        assert is_strongly_additive(M3, M3.upper)

    def test_failure_with_finite_part_below(self):
        # N = (x^2, xy)/(xy) has dimension 1 but Q = R/(x^2, xy) has order 0
        m = ring_mod(2, (1, 1))
        assert not is_strongly_additive(m, ideal(2, (2, 0), (1, 1)))


class TestIOpen:
    def test_one_open_submodule(self):
        k = construct_submodule_of_length(M3, Ordinal.omega_power(2))
        assert is_i_open(M3, k, 1)
        assert is_open_in_ith_topology(M3, k, 1)

    def test_open_submodule_is_not_one_open(self):
        k = ideal(3, (1, 0, 0), (0, 1, 0))
        assert not is_i_open(M3, k, 1)
        assert is_open_in_ith_topology(M3, k, 1)

    def test_minus_one_open_is_open(self):
        for k in [M3.lower, ideal(3, (1, 0, 0)), M3.upper]:
            assert is_i_open(M3, k, -1) == is_open(M3, k)

    def test_too_small_in_ith_topology(self):
        assert not is_open_in_ith_topology(M3, M3.lower, 1)


class TestClosure:
    def test_zero_submodule(self):
        assert closure(M2, M2.lower) == ideal(2, (1, 0))

    def test_closure_is_idempotent(self):
        c = closure(M2, M2.lower)
        assert closure(M2, c) == c

    def test_extensive(self):
        for k in [M2.lower, ideal(2, (1, 0)), maximal_ideal(2), unit_ideal(2)]:
            assert closure(M2, k).contains_ideal(k)

    def test_open_sets_without_finite_part_are_everything(self):
        # no finite-length torsion means the topology is indiscrete-free:
        # closures add nothing
        m = ring_mod(3, (1, 0, 0))
        assert closure(m, m.lower) == m.lower


class TestEOpenPower:
    def test_running_example_needs_square(self):
        res = find_e_open_power(M2)
        assert res.n == 2
        assert res.ideal == ideal(2, (2, 0), (1, 1), (0, 2))

    def test_domain_needs_first_power(self):
        assert find_e_open_power(ring_mod(2, (1, 0))).n == 1

    def test_artinian_gives_nilpotency_index(self):
        res = find_e_open_power(ring_mod(2, (2, 0), (1, 1), (0, 2)))
        assert res.n == 2
        assert ideal(2, (2, 0), (1, 1), (0, 2)).contains_ideal(res.ideal)

    def test_cap_is_enforced(self):
        with pytest.raises(ResourceCapError):
            find_e_open_power(M2, cap=1)

    def test_rejects_proper_subquotients(self):
        with pytest.raises(OrdlenError):
            find_e_open_power(M3.submodule(ideal(3, (1, 0, 0))))

    def test_zero_module(self):
        with pytest.raises(ZeroModuleError):
            find_e_open_power(SubquotientModule.quotient_ring(unit_ideal(2)))


class TestValueContract:
    """An e-open power is a named tuple that equals only its own type."""

    def test_unequal_to_plain_tuples(self):
        r = find_e_open_power(M2)
        assert r != (r.n, r.ideal) and not r == (r.n, r.ideal)
        # contents (2, ()), like the zero cycle and the zero ideal of k[x, y]
        assert EOpenPower(2, ()) != zero_cycle(2) and EOpenPower(2, ()) != zero_ideal(2)

    def test_equal_values_hash_equal(self):
        same = EOpenPower(n=2, ideal=ideal(2, (0, 2), (1, 1), (2, 0)))
        assert find_e_open_power(M2) == same and hash(find_e_open_power(M2)) == hash(same)

    def test_repr(self):
        assert repr(find_e_open_power(M2)) == (
            "EOpenPower(n=2, ideal=MonomialIdeal(ambient_n=2, gens=((2, 0), (1, 1), (0, 2))))"
        )

    def test_round_trip(self, clone):
        r = find_e_open_power(M2)
        back = clone(r)
        assert back == r and hash(back) == hash(r) and type(back) is EOpenPower


def e_open_reference(r_mod, cap):
    """The least power of a with (a^n + I)/I e-open, by definition and is_i_open.

    A monomial lies in a, the intersection of the primes, iff its support
    meets each of them, so a is generated by the minimal squarefree such
    monomials, and a^n by the sums of n-multisets of those.
    """
    e, n_vars = basic_invariants(r_mod).order, r_mod.ambient_n
    primes = [p.vars for p in associated_primes(r_mod) if p.dim == e]
    # the order is the least dimension of an associated prime, so one has dimension e
    assert primes
    hitting = [
        y
        for y in itertools.product((0, 1), repeat=n_vars)
        if all(any(y[v] for v in vs) for vs in primes)
    ]
    a = [y for y in hitting if not any(z != y and all(map(le, z, y)) for z in hitting)]
    for n in range(1, cap + 1):
        powers = [tuple(map(sum, zip(*c))) for c in itertools.combinations_with_replacement(a, n)]
        k = MonomialIdeal.make(n_vars, powers + list(r_mod.lower.gens))
        if is_i_open(r_mod, k, e):
            return EOpenPower(n, k)
    return ResourceCapError


def e_open_outcome(r_mod, cap):
    try:
        return find_e_open_power(r_mod, cap)
    except ResourceCapError:
        return ResourceCapError


def test_e_open_power_matches_the_reference(chain_corpus):
    # the same n and ideal, or both out of budget, at the default cap and at caps 1-3
    rings = [m for m, _ in chain_corpus if m.upper.is_unit and not m.is_zero]
    assert rings
    for r_mod in rings:
        for cap in (DEFAULT_POWER_CAP, 1, 2, 3):
            assert e_open_outcome(r_mod, cap) == e_open_reference(r_mod, cap)


class TestHomVanishing:
    def test_dimension_below_order(self):
        small = SubquotientModule.quotient_ring(maximal_ideal(2))  # dim 0
        big = ring_mod(2, (1, 0))  # ord 1
        assert hom_vanishes(small, big)
        assert not hom_vanishes(big, small)

    def test_identity_never_predicted_zero(self):
        assert not hom_vanishes(M3, M3)

    def test_zero_module_rejected(self):
        z = SubquotientModule(ideal(2, (1, 0)), ideal(2, (1, 0)))
        with pytest.raises(ZeroModuleError):
            hom_vanishes(z, M2)


class TestKernelPredictions:
    def test_disjoint_associated_primes(self):
        m = ring_mod(3, (1, 0, 0))
        n = ring_mod(3, (0, 0, 1))
        assert predicts_open_kernel(m, n)
        assert max_common_ass_dimension(m, n) == -1

    def test_shared_prime(self):
        assert not predicts_open_kernel(M3, ring_mod(3, (1, 0, 0)))
        assert max_common_ass_dimension(M3, ring_mod(3, (1, 0, 0))) == 2
        assert max_common_ass_dimension(M3, M3) == 2

    def test_chain_bound(self):
        assert kernel_chain_bound(M3) == 4
        assert kernel_chain_bound(ring_mod(3, (1, 0, 0))) == 2
        z = SubquotientModule(ideal(2, (1, 0)), ideal(2, (1, 0)))
        assert kernel_chain_bound(z) == 1
