import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlen.chow import prime, zero_cycle
from ordlen.errors import AmbientMismatchError, InvalidSubquotientError
from ordlen.monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    colon,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    maximal_ideal,
    prime_ideal,
    saturation,
    unit_ideal,
    zero_ideal,
)
from ordlen.oracle import DEFAULT_PROFILE, InstanceProfile, random_chain


def ideal(n, *exps):
    return MonomialIdeal.make(n, exps)


def monomials_up_to(n, degree):
    """Every monomial in n variables of total degree at most `degree`."""
    for exps in itertools.product(range(degree + 1), repeat=n):
        if sum(exps) <= degree:
            yield Monomial(exps)


monomial_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(0, 5)] * n)] * 2)
)
generator_sets = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=8))
)


class TestAgainstDefinitions:
    """Each exponent operation against its element-wise definition."""

    @given(monomial_pairs)
    def test_divides(self, pair):
        a, b = pair
        assert Monomial(a).divides(Monomial(b)) == all(x <= y for x, y in zip(a, b))

    @given(monomial_pairs)
    def test_times(self, pair):
        a, b = pair
        assert Monomial(a).times(Monomial(b)).exponents == tuple(x + y for x, y in zip(a, b))

    @given(monomial_pairs)
    def test_lcm(self, pair):
        a, b = pair
        assert Monomial(a).lcm(Monomial(b)).exponents == tuple(max(x, y) for x, y in zip(a, b))

    @given(monomial_pairs)
    def test_quotient_by(self, pair):
        a, b = pair
        expected = tuple(max(x - y, 0) for x, y in zip(a, b))
        assert Monomial(a).quotient_by(Monomial(b)).exponents == expected

    @given(monomial_pairs)
    def test_sort_key(self, pair):
        a, _ = pair
        assert Monomial(a).sort_key() == (sum(a), tuple(-x for x in a))

    @given(generator_sets)
    def test_make_is_a_sorted_antichain_with_the_same_members(self, case):
        n, gens = case
        made = MonomialIdeal.make(n, gens)
        keys = [g.sort_key() for g in made.gens]
        assert keys == sorted(set(keys))
        for g, h in itertools.permutations(made.gens, 2):
            assert not all(x <= y for x, y in zip(g.exponents, h.exponents))
        for m in monomials_up_to(n, 5):
            member = any(all(x <= y for x, y in zip(g, m.exponents)) for g in gens)
            assert made.contains(m) == member

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((0, -1))


class TestExponentTuple:
    """A monomial is the tuple of its exponents."""

    def test_equals_and_hashes_as_its_tuple(self):
        assert Monomial((1, 2)) == (1, 2)
        assert hash(Monomial((1, 2))) == hash((1, 2))

    def test_exponents_are_the_monomial(self):
        assert Monomial((1, 2)).exponents == (1, 2)

    def test_contains_takes_a_plain_tuple(self):
        i = ideal(2, (2, 0), (1, 1))
        assert i.contains((3, 1)) and not i.contains((1, 0))

    def test_make_takes_monomials_tuples_and_lists(self):
        mixed = MonomialIdeal.make(2, [Monomial((2, 0)), (1, 1), [0, 3], [2, 1]])
        assert mixed == ideal(2, (2, 0), (1, 1), (0, 3))
        assert all(type(g) is Monomial for g in mixed.gens)


class TestCanonicalForm:
    def test_redundant_generators_dropped(self):
        assert ideal(2, (1, 0), (2, 1)) == ideal(2, (1, 0))

    def test_duplicates_collapse(self):
        assert ideal(2, (1, 1), (1, 1)).gens == (Monomial((1, 1)),)

    def test_structural_equality(self):
        a = ideal(2, (2, 0), (1, 1))
        b = ideal(2, (1, 1), (2, 0), (2, 3))
        assert a == b and hash(a) == hash(b)

    def test_zero_and_unit(self):
        assert zero_ideal(2).is_zero
        assert unit_ideal(2).is_unit
        assert ideal(2, (0, 0), (1, 0)) == unit_ideal(2)


class TestMembership:
    def test_contains(self):
        i = ideal(2, (2, 0), (1, 1))
        assert i.contains(Monomial((3, 1)))
        assert not i.contains(Monomial((1, 0)))

    def test_contains_ideal_is_divisibility(self):
        i = ideal(2, (1, 0))
        assert i.contains_ideal(ideal(2, (2, 0), (1, 1)))
        assert not ideal(2, (2, 0)).contains_ideal(i)

    def test_contains_rejects_a_monomial_of_another_ring(self):
        # map() stops at the shorter tuple, so divisibility alone accepts both
        for m in ((1,), (5, 5, 5)):
            with pytest.raises(AmbientMismatchError):
                ideal(2, (1, 0)).contains(m)

    def test_contains_ideal_rejects_another_ring(self):
        for other in (zero_ideal(3), ideal(3, (1, 0, 5))):
            with pytest.raises(AmbientMismatchError, match="ideals over different rings"):
                ideal(2, (1, 0)).contains_ideal(other)


class TestSumIntersectionProduct:
    def test_sum(self):
        assert ideal_sum(ideal(2, (2, 0)), ideal(2, (1, 1))) == ideal(2, (2, 0), (1, 1))

    def test_intersection_example(self):
        # (x) ∩ (y) = (xy)
        assert ideal_intersection(ideal(2, (1, 0)), ideal(2, (0, 1))) == ideal(2, (1, 1))

    def test_intersection_is_membership_and(self):
        i = ideal(2, (2, 0), (1, 1))
        j = ideal(2, (0, 2), (1, 1))
        meet = ideal_intersection(i, j)
        for m in monomials_up_to(2, 4):
            assert meet.contains(m) == (i.contains(m) and j.contains(m))

    def test_square_of_maximal(self):
        assert ideal_power(maximal_ideal(2), 2) == ideal(2, (2, 0), (1, 1), (0, 2))

    def test_product_vs_power(self):
        m = maximal_ideal(2)
        assert ideal_product(m, m) == ideal_power(m, 2)

    def test_power_zero_is_unit(self):
        assert ideal_power(ideal(2, (1, 0)), 0) == unit_ideal(2)
        with pytest.raises(ValueError):
            ideal_power(ideal(2, (1, 0)), -1)


class TestColon:
    def test_against_membership_oracle(self):
        # m lies in (i : j) iff m*g lies in i for every generator g of j
        i = ideal(2, (2, 0), (1, 1))
        j = ideal(2, (1, 0), (0, 2))
        q = colon(i, j)
        for m in monomials_up_to(2, 4):
            expected = all(i.contains(m.times(g)) for g in j.gens)
            assert q.contains(m) == expected

    def test_basic_example(self):
        # ((x^2, xy) : x) = (x, y)
        assert colon(ideal(2, (2, 0), (1, 1)), ideal(2, (1, 0))) == maximal_ideal(2)

    def test_colon_by_zero_is_unit(self):
        assert colon(ideal(2, (2, 0)), zero_ideal(2)) == unit_ideal(2)

    def test_colon_by_unit_is_identity(self):
        i = ideal(2, (2, 0), (1, 1))
        assert colon(i, unit_ideal(2)) == i


class TestSaturation:
    def test_example(self):
        # ((x^2, xy) : (x,y)^inf) = (x)
        assert saturation(ideal(2, (2, 0), (1, 1)), maximal_ideal(2)) == ideal(2, (1, 0))

    def test_against_membership_oracle(self):
        # m is in (i : j^inf) iff m*g^k is in i for some k, per generator g;
        # degrees here are small enough that k = 6 is a safe ceiling
        i = ideal(3, (2, 1, 0), (0, 0, 3), (1, 0, 1))
        j = ideal(3, (0, 1, 0), (0, 0, 1))
        s = saturation(i, j)
        for m in monomials_up_to(3, 3):
            expected = all(
                any(i.contains(m.times(scale(g, k))) for k in range(7)) for g in j.gens
            )
            assert s.contains(m) == expected

    def test_by_non_prime_ideal(self):
        # (x^2, xy) has radical (x), so it saturates like x alone
        i = ideal(3, (2, 1, 0), (1, 0, 2), (0, 3, 1))
        j = ideal(3, (2, 0, 0), (1, 1, 0))
        s = saturation(i, j)
        assert s == ideal(3, (0, 1, 0), (0, 0, 2)) == saturation(i, ideal(3, (1, 0, 0)))
        for m in monomials_up_to(3, 3):
            expected = all(
                any(i.contains(m.times(scale(g, k))) for k in range(7)) for g in j.gens
            )
            assert s.contains(m) == expected

    def test_saturation_of_saturated_ideal(self):
        i = ideal(2, (1, 0))
        assert saturation(i, maximal_ideal(2)) == i

    def test_saturating_nonzero_by_anything_below_unit(self):
        assert saturation(ideal(2, (1, 1)), ideal(2, (1, 0))) == ideal(2, (0, 1))


def scale(g, k):
    return Monomial(tuple(k * e for e in g.exponents))


class TestSubquotient:
    def test_requires_inclusion(self):
        with pytest.raises(InvalidSubquotientError):
            SubquotientModule(ideal(2, (1, 0)), ideal(2, (0, 1)))

    def test_quotient_ring_and_zero(self):
        m = SubquotientModule.quotient_ring(ideal(2, (1, 0)))
        assert m.upper.is_unit and not m.is_zero
        assert SubquotientModule(ideal(2, (1, 0)), ideal(2, (1, 0))).is_zero

    def test_submodule_and_quotient_witnesses(self):
        m = SubquotientModule.quotient_ring(ideal(2, (2, 0), (1, 1)))
        k = ideal(2, (1, 0))
        assert m.submodule(k) == SubquotientModule(m.lower, k)
        assert m.quotient_by(k) == SubquotientModule(k, m.upper)
        with pytest.raises(InvalidSubquotientError):
            m.submodule(ideal(2, (0, 1)))
        with pytest.raises(InvalidSubquotientError, match="witness ideal not between I and J"):
            m.quotient_by(ideal(2, (0, 1)))

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            SubquotientModule(zero_ideal(2), unit_ideal(3))
        with pytest.raises(AmbientMismatchError):
            ideal_sum(zero_ideal(2), zero_ideal(3))

    def test_witness_over_another_ring(self):
        m = SubquotientModule.quotient_ring(ideal(2, (2, 0), (0, 2)))
        for k in (ideal(3, (1, 0, 0)), zero_ideal(3)):
            with pytest.raises(AmbientMismatchError, match="ideals over different rings"):
                m.submodule(k)
            with pytest.raises(AmbientMismatchError, match="ideals over different rings"):
                m.quotient_by(k)


def test_prime_ideal_roundtrip():
    p = prime(3, [0, 2])
    assert prime_ideal(p) == ideal(3, (1, 0, 0), (0, 0, 1))
    assert prime_ideal(prime(2, [])) == zero_ideal(2)


class TestValueContract:
    """Ideals, subquotients and profiles are named tuples that equal only
    their own type (a monomial equals its exponent tuple: TestExponentTuple)."""

    def test_ideal_unequal_to_plain_tuples(self):
        assert MonomialIdeal(2, ()) != (2, ()) and not MonomialIdeal(2, ()) == (2, ())
        assert zero_ideal(2) != zero_cycle(2)
        assert InstanceProfile() != (4, 6, 5, 0.5)

    def test_reprs(self):
        m = SubquotientModule(ideal(2, (1, 0)), unit_ideal(2))
        assert repr(m) == (
            "SubquotientModule(lower=MonomialIdeal(ambient_n=2, gens=((1, 0),)), "
            "upper=MonomialIdeal(ambient_n=2, gens=((0, 0),)))"
        )
        want = "InstanceProfile(max_vars=4, max_gens=6, max_degree=5, ring_bias=0.5)"
        assert repr(DEFAULT_PROFILE) == want

    def test_round_trip(self, clone):
        m, k = random_chain(3)
        for value in (m, k, zero_ideal(3), Monomial((1, 2)), InstanceProfile(max_vars=2)):
            back = clone(value)
            assert back == value and hash(back) == hash(value) and type(back) is type(value)

    def test_make_and_replace_run_the_checks(self):
        with pytest.raises(InvalidSubquotientError):
            SubquotientModule._make((unit_ideal(2), MonomialIdeal.make(2, [(1, 0)])))
        assert MonomialIdeal._make((2, ((1, 0), (2, 0)))) == MonomialIdeal.make(2, [(1, 0)])
        with pytest.raises(AmbientMismatchError):
            zero_ideal(2)._replace(gens=((1, 0, 0),))
        assert InstanceProfile()._replace(max_vars=2) == InstanceProfile(max_vars=2)


class TestOneConstructor:
    """MonomialIdeal(n, gens) canonicalises exactly as MonomialIdeal.make does."""

    def test_constructor_minimises_and_sorts(self):
        redundant = MonomialIdeal(2, (Monomial((1, 0)), Monomial((2, 0))))
        assert redundant == MonomialIdeal.make(2, [(1, 0)])
        assert MonomialIdeal(2, [(0, 1), (1, 0)]).gens == ((1, 0), (0, 1))

    def test_plain_tuple_of_wrong_length_is_an_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            MonomialIdeal(2, [(1, 0, 0)])
        # checked before minimising: (1,) must not divide (1, 0) away
        with pytest.raises(AmbientMismatchError):
            MonomialIdeal.make(2, [(1, 0), (1,)])
