import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlen.ordinal import (
    ZERO,
    Ordinal,
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
    """An Ordinal is a named tuple that equals only Ordinals."""

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
