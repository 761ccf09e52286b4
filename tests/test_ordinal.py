import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ordlen
import ordlen.errors
from ordlen.chow import Cycle, PrimeSupport
from ordlen.invariants import ModuleInvariants
from ordlen.monomial import Monomial, MonomialIdeal, SubquotientModule
from ordlen.oracle import InstanceProfile
from ordlen.ordinal import (
    ZERO,
    Ordinal,
    OrdinalClass,
    Value,
    cantor_sum,
    classify,
    leq,
    meet,
    scalar_mul,
    shuffle_difference,
    shuffle_sum,
    truncate_above,
    truncate_below,
    weaker,
)
from ordlen.topology import EOpenPower


def ordn(coeffs):
    return Ordinal.from_coeffs(coeffs)


W = Ordinal.omega_power(1)
W2 = Ordinal.omega_power(2)
ONE = Ordinal.from_int(1)

ordinals = st.dictionaries(st.integers(0, 5), st.integers(1, 5), max_size=4).map(ordn)


class TestCantorSum:
    def test_one_plus_omega_absorbs(self):
        assert cantor_sum(ONE, W) == W

    def test_omega_plus_one(self):
        assert cantor_sum(W, ONE) == ordn({1: 1, 0: 1})

    def test_lower_terms_absorbed(self):
        assert cantor_sum(ordn({2: 1, 0: 3}), W) == ordn({2: 1, 1: 1})

    def test_zero_right_identity(self):
        a = ordn({3: 2, 1: 1})
        assert cantor_sum(a, ZERO) == a


class TestShuffleSum:
    def test_coefficientwise(self):
        assert shuffle_sum(W, ordn({1: 1, 0: 1})) == ordn({1: 2, 0: 1})

    def test_disjoint_supports(self):
        assert shuffle_sum(W2, W) == ordn({2: 1, 1: 1})

    def test_doubling(self):
        a = ordn({2: 1, 1: 1})
        assert shuffle_sum(a, a) == ordn({2: 2, 1: 2})


class TestMeet:
    def test_coefficientwise_min(self):
        assert meet(ordn({1: 2, 0: 1}), ordn({1: 1, 0: 3})) == ordn({1: 1, 0: 1})

    def test_disjoint_support(self):
        assert meet(W2, W) == ZERO

    @given(ordinals)
    def test_idempotent(self, a):
        assert meet(a, a) == a


class TestOrders:
    def test_weaker_examples(self):
        assert weaker(W, ordn({2: 1, 1: 1}))
        assert not weaker(ordn({1: 1, 0: 1}), W2)
        assert weaker(ZERO, W2)

    def test_leq_examples(self):
        assert leq(ordn({1: 1, 0: 5}), W2)
        assert not leq(ordn({2: 1, 0: 1}), W2)

    @given(ordinals, ordinals)
    def test_leq_extends_weaker(self, a, b):
        if weaker(a, b):
            assert leq(a, b)


class TestTruncation:
    def test_keep_high_part(self):
        assert truncate_above(ordn({2: 1, 1: 1}), 1) == W2

    def test_all_terms_high_enough(self):
        a = ordn({2: 1, 1: 1})
        assert truncate_above(a, 0) == a

    def test_past_degree_gives_zero(self):
        a = ordn({2: 1, 1: 1})
        assert truncate_above(a, 2) == ZERO
        assert truncate_above(a, 7) == ZERO

    @given(ordinals, st.integers(-1, 6))
    def test_split_recombines(self, a, i):
        assert shuffle_sum(truncate_above(a, i), truncate_below(a, i)) == a


class TestScalarMul:
    def test_three_omega(self):
        assert scalar_mul(3, W) == ordn({1: 3})

    def test_zero(self):
        assert scalar_mul(0, ordn({2: 4})) == ZERO

    def test_two(self):
        assert scalar_mul(2, ordn({2: 1, 1: 1})) == ordn({2: 2, 1: 2})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scalar_mul(-1, W)

    @given(st.integers(0, 5), ordinals)
    def test_matches_folded_shuffle(self, n, a):
        acc = ZERO
        for _ in range(n):
            acc = shuffle_sum(acc, a)
        assert scalar_mul(n, a) == acc


class TestClassify:
    def test_limit_ordinal(self):
        c = classify(ordn({2: 1, 1: 1}))
        assert (c.degree, c.order, c.valence) == (2, 1, 2)
        assert c.is_limit and not c.is_successor

    def test_successor(self):
        c = classify(ordn({1: 1, 0: 1}))
        assert c.order == 0 and c.is_successor

    def test_finite(self):
        c = classify(Ordinal.from_int(5))
        assert (c.degree, c.valence, c.is_successor) == (0, 5, True)

    def test_zero_is_undefined(self):
        c = classify(ZERO)
        assert c.degree is None and c.order is None
        assert not c.is_limit and not c.is_successor


class TestAlgebraicLaws:
    @given(ordinals, ordinals)
    def test_shuffle_commutes(self, a, b):
        assert shuffle_sum(a, b) == shuffle_sum(b, a)

    @given(ordinals, ordinals, ordinals)
    def test_shuffle_associates(self, a, b, c):
        assert shuffle_sum(shuffle_sum(a, b), c) == shuffle_sum(a, shuffle_sum(b, c))

    @given(ordinals, ordinals, ordinals)
    def test_cantor_associates(self, a, b, c):
        assert cantor_sum(cantor_sum(a, b), c) == cantor_sum(a, cantor_sum(b, c))

    def test_cantor_not_commutative(self):
        assert cantor_sum(ONE, W) != cantor_sum(W, ONE)

    @given(ordinals, ordinals)
    def test_cantor_below_shuffle(self, a, b):
        assert leq(cantor_sum(a, b), shuffle_sum(a, b))

    @given(ordinals, ordinals)
    def test_weaker_iff_difference_witness(self, a, b):
        if weaker(a, b):
            c = shuffle_difference(b, a)
            assert shuffle_sum(a, c) == b
        else:
            assert any(c > b.coeff(e) for e, c in a.terms)

    @given(ordinals, ordinals, ordinals)
    def test_meet_is_infimum(self, a, b, d):
        m = meet(a, b)
        assert weaker(m, a) and weaker(m, b)
        if weaker(d, a) and weaker(d, b):
            assert weaker(d, m)

    @given(ordinals, ordinals)
    def test_cantor_equals_shuffle_criterion(self, a, b):
        equal = cantor_sum(a, b) == shuffle_sum(a, b)
        criterion = a.is_zero or b.is_zero or b.degree <= a.order
        assert equal == criterion


class TestAgainstDefinitions:
    """Each binary operation equals its coefficient-wise definition."""

    @given(ordinals, ordinals)
    def test_cantor_sum(self, a, b):
        # a's terms below b's degree are absorbed; the rest add up
        top = -1 if b.is_zero else b.degree
        coeffs = {e: a.coeff(e) for e in a.support if e >= top}
        for e in b.support:
            coeffs[e] = coeffs.get(e, 0) + b.coeff(e)
        assert cantor_sum(a, b) == Ordinal.from_coeffs(coeffs)

    @given(ordinals, ordinals)
    def test_shuffle_sum(self, a, b):
        assert shuffle_sum(a, b) == Ordinal.from_coeffs(a.terms + b.terms)

    @given(ordinals, ordinals)
    def test_meet(self, a, b):
        exps = a.support | b.support
        assert meet(a, b) == Ordinal.from_coeffs({e: min(a.coeff(e), b.coeff(e)) for e in exps})

    @given(ordinals, ordinals)
    def test_weaker(self, a, b):
        exps = a.support | b.support
        assert weaker(a, b) == all(a.coeff(e) <= b.coeff(e) for e in exps)

    @given(ordinals, ordinals)
    def test_shuffle_difference(self, a, b):
        if weaker(b, a):
            expected = Ordinal.from_coeffs({e: a.coeff(e) - b.coeff(e) for e in a.support})
            assert shuffle_difference(a, b) == expected
        else:
            with pytest.raises(ValueError):
                shuffle_difference(a, b)


class TestDisplay:
    def test_unicode(self):
        assert str(ordn({2: 1, 1: 1})) == "ω^2 + ω"
        assert str(ordn({1: 3, 0: 2})) == "3ω + 2"

    def test_ascii(self):
        assert ordn({2: 1, 1: 1}).display(ascii_only=True) == "w^2 + w"

    def test_zero(self):
        assert str(ZERO) == "0"


class TestValueContract:
    """Ordinals and their classifications are named tuples that equal only
    their own type, like every library value type."""

    def test_unequal_to_plain_tuples(self):
        assert Ordinal() != () and not Ordinal() == ()
        assert W != (((1, 1),),) and W != ((1, 1),)

    def test_equal_values_hash_equal(self):
        assert W == ordn({1: 1}) and hash(W) == hash(ordn({1: 1}))
        assert Ordinal() == ZERO and hash(Ordinal()) == hash(ZERO)

    def test_repr(self):
        assert repr(W) == "Ordinal(terms=((1, 1),))"
        assert repr(ZERO) == "Ordinal(terms=())"

    def test_round_trip(self, clone):
        a = ordn({2: 1, 0: 3})
        back = clone(a)
        assert back == a and hash(back) == hash(a) and type(back) is Ordinal

    def test_classification_unequal_to_plain_tuples(self):
        c = classify(W)
        assert c != tuple(c) and not c == tuple(c)

    def test_classification_equal_values_hash_equal(self):
        same = OrdinalClass(1, 1, 1, frozenset({1}), is_limit=True, is_successor=False)
        assert classify(W) == same and hash(classify(W)) == hash(same)

    def test_classification_repr(self):
        assert repr(classify(W)) == (
            "OrdinalClass(degree=1, order=1, valence=1, support=frozenset({1}), "
            "is_limit=True, is_successor=False)"
        )

    def test_classification_round_trip(self, clone):
        for value in (classify(ordn({2: 1, 0: 3})), classify(ZERO)):
            back = clone(value)
            assert back == value and hash(back) == hash(value) and type(back) is OrdinalClass

    def test_make_and_replace_run_the_checks(self):
        with pytest.raises(ValueError, match="bad Cantor term"):
            Ordinal()._replace(terms=((0, -1),))
        with pytest.raises(ValueError, match="not strictly decreasing"):
            Ordinal._make((((0, 1), (1, 1)),))
        assert W._replace(terms=((2, 1),)) == W2 and Ordinal._make(W) == W
        two_w = OrdinalClass._make((1, 1, 2, frozenset({1}), True, False))
        assert classify(W)._replace(valence=2) == two_w == classify(ordn({1: 2}))

    def test_every_library_value_type_is_a_value(self):
        value_types = {
            Ordinal, OrdinalClass, PrimeSupport, Cycle, MonomialIdeal,
            SubquotientModule, ModuleInvariants, EOpenPower, InstanceProfile,
        }
        assert all(issubclass(t, Value) for t in value_types)
        exported = (getattr(ordlen, name) for name in ordlen.__all__)
        classes = {c for c in exported if isinstance(c, type) and not issubclass(c, Exception)}
        # a monomial equals its exponent tuple by design (test_monomial.TestExponentTuple)
        assert Ordinal in classes and classes <= value_types | {Monomial}

    def test_star_import_binds_every_error_class_and_no_module(self):
        names = {}
        exec("from ordlen import *", names)
        del names["__builtins__"]
        errors = {c for c in vars(ordlen.errors).values() if isinstance(c, type)}
        assert len(errors) == 9 and errors <= set(names.values())
        # __all__ is written out: every public name of the package but its submodules
        public = {n for n in dir(ordlen) if not n.startswith("_")}
        modules = {n for n in public if isinstance(getattr(ordlen, n), types.ModuleType)}
        assert "errors" in modules and set(names) == public - modules
