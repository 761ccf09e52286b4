import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlen.chow import (
    Cycle,
    PrimeSupport,
    binord,
    cycle_add,
    cycle_leq,
    cycle_sub,
    prime,
    zero_cycle,
)
from ordlen.errors import AmbientMismatchError, NonEffectiveCycleError
from ordlen.monomial import zero_ideal
from ordlen.ordinal import Ordinal, shuffle_sum, weaker

N = 3
PX = prime(N, [0])
PXY = prime(N, [0, 1])
MAX = prime(N, [0, 1, 2])


def test_prime_dimension():
    assert PX.dim == 2
    assert PXY.dim == 1
    assert MAX.dim == 0
    assert prime(4, []).dim == 4


def test_prime_index_validation():
    with pytest.raises(ValueError):
        prime(2, [2])


def test_from_terms_canonicalizes():
    c = Cycle.from_terms(N, [(PXY, 1), (PX, 2), (PXY, -1)])
    assert c.terms == ((PX, 2),)
    assert c.coeff(PX) == 2
    assert c.coeff(PXY) == 0


def test_sort_key_is_hidden_from_equality_and_repr():
    assert PXY.sort_key() == (2, (0, 1))
    assert PrimeSupport.sort_key(MAX) == (3, (0, 1, 2))
    assert PXY == prime(N, [1, 0]) and hash(PXY) == hash(prime(N, [1, 0]))
    assert repr(PX) == "PrimeSupport(ambient_n=3, vars=frozenset({0}))"


def test_cycle_terms_must_be_canonical():
    with pytest.raises(ValueError):
        Cycle(N, ((PX, 0),))
    with pytest.raises(ValueError):
        Cycle(N, ((PXY, 1), (PX, 1)))
    with pytest.raises(ValueError):
        Cycle(N, ((PX, 1), (PX, 2)))
    assert Cycle(N, ((PX, 2), (PXY, -1))) == Cycle.from_terms(N, {PXY: -1, PX: 2})


def test_cycle_arithmetic():
    d = Cycle.from_terms(N, {PX: 1, PXY: 1})
    e = Cycle.from_terms(N, {PXY: 1})
    assert cycle_add(d, e) == Cycle.from_terms(N, {PX: 1, PXY: 2})
    assert cycle_sub(d, e) == Cycle.from_terms(N, {PX: 1})
    assert cycle_sub(e, d) == Cycle.from_terms(N, {PX: -1})
    assert cycle_sub(d, d) == zero_cycle(N)


def test_cycle_leq_is_coefficientwise():
    d = Cycle.from_terms(N, {PX: 1})
    e = Cycle.from_terms(N, {PX: 1, PXY: 3})
    assert cycle_leq(d, e)
    assert not cycle_leq(e, d)
    assert cycle_leq(zero_cycle(N), d)


def test_effectivity():
    assert Cycle.from_terms(N, {PX: 1}).is_effective
    assert zero_cycle(N).is_effective
    assert not Cycle.from_terms(N, {PX: -1}).is_effective


def test_ambient_mismatch_rejected():
    with pytest.raises(AmbientMismatchError):
        cycle_add(zero_cycle(2), zero_cycle(3))
    with pytest.raises(AmbientMismatchError):
        cycle_leq(zero_cycle(2), zero_cycle(3))
    with pytest.raises(AmbientMismatchError):
        Cycle.from_terms(2, {PX: 1})


class TestBinord:
    def test_mixed_cycle(self):
        # [(x)] + [(x,y)] in three variables has dimensions 2 and 1
        d = Cycle.from_terms(N, {PX: 1, PXY: 1})
        assert binord(d) == Ordinal.from_coeffs({2: 1, 1: 1})

    def test_multiplicity_three(self):
        d = Cycle.from_terms(2, {prime(2, [0, 1]): 3})
        assert binord(d) == Ordinal.from_coeffs({0: 3})

    def test_same_dimension_accumulates(self):
        d = Cycle.from_terms(N, {prime(N, [0]): 1, prime(N, [1]): 1})
        assert binord(d) == Ordinal.from_coeffs({2: 2})

    def test_zero(self):
        assert binord(zero_cycle(N)) == Ordinal()

    def test_rejects_negative(self):
        with pytest.raises(NonEffectiveCycleError):
            binord(Cycle.from_terms(N, {PX: -1}))


primes3 = st.frozensets(st.integers(0, N - 1), max_size=N).map(lambda s: prime(N, s))
effective_cycles = st.dictionaries(primes3, st.integers(1, 4), max_size=4).map(
    lambda d: Cycle.from_terms(N, d)
)


@given(effective_cycles, effective_cycles)
def test_binord_additive(d, e):
    assert binord(cycle_add(d, e)) == shuffle_sum(binord(d), binord(e))


@given(effective_cycles, effective_cycles)
def test_cycle_leq_gives_weaker(d, e):
    if cycle_leq(d, e):
        assert weaker(binord(d), binord(e))


@given(effective_cycles)
def test_valence_is_degree(d):
    assert binord(d).valence == d.degree


# cycles with coefficients of either sign, and differences of effective cycles
signed_cycles = st.one_of(
    st.dictionaries(primes3, st.integers(-4, 4).filter(bool), max_size=6).map(
        lambda d: Cycle.from_terms(N, d)
    ),
    st.builds(cycle_sub, effective_cycles, effective_cycles),
)


@given(signed_cycles, signed_cycles)
def test_cycle_add_is_from_terms(d, e):
    assert cycle_add(d, e) == Cycle.from_terms(N, d.terms + e.terms)


@given(signed_cycles, signed_cycles)
def test_cycle_sub_is_from_terms(d, e):
    assert cycle_sub(d, e) == Cycle.from_terms(N, d.terms + tuple((p, -c) for p, c in e.terms))


@given(signed_cycles, signed_cycles)
def test_cycle_leq_is_support_union(d, e):
    keys = d.support | e.support
    assert cycle_leq(d, e) == all(d.coeff(p) <= e.coeff(p) for p in keys)


@given(effective_cycles)
def test_binord_is_from_coeffs(d):
    assert binord(d) == Ordinal.from_coeffs([(p.dim, c) for p, c in d.terms])


class TestValueContract:
    """Primes and cycles are named tuples that equal only their own type."""

    def test_zero_cycle_is_not_the_zero_ideal(self):
        assert zero_cycle(2) != zero_ideal(2) and not zero_cycle(2) == zero_ideal(2)
        assert zero_cycle(2) != (2, ()) and not zero_cycle(2) == (2, ())

    def test_equal_values_hash_equal(self):
        c, d = Cycle.from_terms(N, {PX: 2, MAX: -1}), Cycle.from_terms(N, [(MAX, -1), (PX, 2)])
        assert c == d and hash(c) == hash(d)

    def test_cycle_repr(self):
        want = "Cycle(ambient_n=3, terms=((PrimeSupport(ambient_n=3, vars=frozenset({0})), 2),))"
        assert repr(Cycle.from_terms(N, {PX: 2})) == want

    def test_round_trip(self, clone):
        for value in (PX, prime(4, []), Cycle.from_terms(N, {PX: 2, MAX: -1}), zero_cycle(N)):
            back = clone(value)
            assert back == value and hash(back) == hash(value) and repr(back) == repr(value)
        assert clone(PXY).sort_key() == PXY.sort_key()

    def test_replace_recomputes_the_key(self):
        moved = prime(3, [0])._replace(vars=frozenset({1, 2}))
        assert moved == prime(3, [1, 2]) and moved.sort_key() == (2, (1, 2))
        assert PrimeSupport._make(PXY) == PXY and PXY._replace() == PXY
        with pytest.raises(ValueError, match="out of range"):
            PX._replace(vars=frozenset({3}))

    def test_make_and_replace_run_the_checks(self):
        with pytest.raises(ValueError, match="not canonical"):
            Cycle._make((2, ((prime(2, [0]), 0),)))
        with pytest.raises(AmbientMismatchError):
            zero_cycle(2)._replace(terms=((PX, 1),))
        c = Cycle.from_terms(N, {PX: 2, MAX: -1})
        assert Cycle._make(c) == c and c._replace(terms=()) == zero_cycle(N)
