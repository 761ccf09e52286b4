import hashlib
import io
import itertools
import random
import re
from functools import lru_cache
from heapq import heappop, heappush
from math import prod
from operator import le, neg

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ordlen import invariants
from ordlen.chow import Cycle, PrimeSupport, _cycle_of, _prime, prime, zero_cycle
from ordlen.cli import run_text
from ordlen.errors import (
    AmbientMismatchError,
    InvalidSubquotientError,
    SubmoduleSearchError,
    ZeroModuleError,
)
from ordlen.invariants import (
    ModuleInvariants,
    _pair_part,
    _slices,
    _socle,
    associated_primes,
    basic_invariants,
    construct_submodule_of_length,
    cycle_defect,
    dimension_filtration,
    filtration_chain,
    fundamental_cycle,
    height_rank,
    length,
    local_multiplicity,
)
from ordlen.monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    _divides,
    _intersect,
    _minimize,
    colon,
    ideal_intersection,
    ideal_sum,
    maximal_ideal,
    unit_ideal,
    variable,
    zero_ideal,
)
from ordlen.oracle import (
    DEFAULT_PROFILE,
    STRESS_PROFILE,
    InstanceProfile,
    oracle_artinian_length,
    oracle_lcl,
    random_chain,
)
from ordlen.ordinal import ZERO, Ordinal, OrdinalClass, shuffle_sum, truncate_below, weaker
from test_oracle import modules, subquotient


def ideal(n, *exps):
    return MonomialIdeal.make(n, exps)


def ring_mod(n, *exps):
    return SubquotientModule.quotient_ring(ideal(n, *exps))


# Running example: R = k[x,y,z], I = (x^2, xy).
M3 = ring_mod(3, (2, 0, 0), (1, 1, 0))
PX = prime(3, [0])
PXY = prime(3, [0, 1])
MAX3 = prime(3, [0, 1, 2])


class TestLocalMultiplicity:
    def test_at_minimal_prime(self):
        assert local_multiplicity(M3, PX) == 1

    def test_at_embedded_prime(self):
        assert local_multiplicity(M3, PXY) == 1

    def test_at_irrelevant_prime(self):
        assert local_multiplicity(M3, MAX3) == 0

    def test_artinian_multiplicity_three(self):
        m = ring_mod(2, (2, 0), (1, 1), (0, 2))
        assert local_multiplicity(m, prime(2, [0, 1])) == 3

    def test_vanishes_off_support(self):
        assert local_multiplicity(M3, prime(3, [2])) == 0

    def test_prime_over_another_ring(self):
        with pytest.raises(AmbientMismatchError):
            local_multiplicity(M3, prime(2, [0]))


class TestAssociatedPrimes:
    def test_running_example(self):
        assert associated_primes(M3) == {PX, PXY}

    def test_prime_quotient(self):
        assert associated_primes(ring_mod(3, (1, 0, 0))) == {PX}

    def test_zero_module(self):
        z = SubquotientModule(ideal(2, (1, 0)), ideal(2, (1, 0)))
        assert associated_primes(z) == frozenset()

    def test_subquotient(self):
        # (x)/(x^2, xy) is a shifted copy of R/(x, y)
        n = M3.submodule(ideal(3, (1, 0, 0)))
        assert associated_primes(n) == {PXY}
        assert length(n) == Ordinal.omega_power(1)


class TestFundamentalCycleAndLength:
    def test_running_example(self):
        assert fundamental_cycle(M3) == Cycle.from_terms(3, {PX: 1, PXY: 1})
        assert length(M3) == Ordinal.from_coeffs({2: 1, 1: 1})

    def test_artinian_square(self):
        m = ring_mod(2, (2, 0), (1, 1), (0, 2))
        assert fundamental_cycle(m) == Cycle.from_terms(2, {prime(2, [0, 1]): 3})
        assert length(m) == Ordinal.from_int(3)

    def test_polynomial_ring(self):
        r = SubquotientModule.quotient_ring(ideal(2))
        assert length(r) == Ordinal.omega_power(2)

    def test_zero_module(self):
        z = SubquotientModule(ideal(2, (1, 0)), ideal(2, (1, 0)))
        assert fundamental_cycle(z) == zero_cycle(2)
        assert length(z) == ZERO

    def test_mixed_in_two_variables(self):
        m = ring_mod(2, (2, 0), (1, 1))
        assert length(m) == Ordinal.from_coeffs({1: 1, 0: 1})

    @pytest.mark.parametrize("profile", [DEFAULT_PROFILE, STRESS_PROFILE],
                             ids=["default", "stress"])
    def test_cycles_pass_the_checked_constructors(self, profile):
        # the slice recursion builds its primes and cycles unchecked
        invariants._cycle.cache_clear()
        for seed in range(300):
            m, k = random_chain(seed, profile)
            for part in (m, *m.split(k)):
                fc = fundamental_cycle(part)
                assert Cycle._make(fc) == fc
                for p, _ in fc.terms:
                    assert p == PrimeSupport(p.ambient_n, p.vars)  # the stored key compares too


class TestHeightRank:
    def test_full_submodule(self):
        assert height_rank(M3, unit_ideal(3)) == ZERO

    def test_zero_submodule(self):
        assert height_rank(M3, M3.lower) == length(M3)

    def test_prime_witness(self):
        assert height_rank(M3, ideal(3, (1, 0, 0))) == Ordinal.omega_power(2)


class TestBasicInvariants:
    def test_running_example(self):
        inv = basic_invariants(M3)
        assert inv.order == 1
        assert inv.valence == 2
        assert inv.generic_length == 1
        assert inv.dimension == 2
        assert not inv.is_unmixed
        assert not inv.no_embedded_primes

    def test_unmixed_prime(self):
        inv = basic_invariants(ring_mod(3, (1, 0, 0)))
        assert inv.is_unmixed and inv.no_embedded_primes
        assert (inv.order, inv.dimension, inv.valence) == (2, 2, 1)

    def test_zero_module_raises(self):
        z = SubquotientModule(ideal(2, (1, 0)), ideal(2, (1, 0)))
        with pytest.raises(ZeroModuleError):
            basic_invariants(z)


class TestValueContract:
    """Module invariants are a named tuple that equals only its own type."""

    def test_unequal_to_plain_tuples_and_to_an_ordinal_class(self):
        inv = basic_invariants(M3)
        assert inv != tuple(inv) and not inv == tuple(inv)
        same = (1, 2, 3, 4, True, False)
        assert ModuleInvariants(*same) != OrdinalClass(*same)
        assert OrdinalClass(*same) != ModuleInvariants(*same)
        assert not ModuleInvariants(*same) == OrdinalClass(*same)

    def test_equal_values_hash_equal(self):
        same = ModuleInvariants(
            order=1, valence=2, generic_length=1, dimension=2,
            is_unmixed=False, no_embedded_primes=False,
        )
        assert basic_invariants(M3) == same and hash(basic_invariants(M3)) == hash(same)

    def test_repr(self):
        assert repr(basic_invariants(M3)) == (
            "ModuleInvariants(order=1, valence=2, generic_length=1, dimension=2, "
            "is_unmixed=False, no_embedded_primes=False)"
        )

    @pytest.mark.parametrize("i", [True, False, 0.5, 1.0], ids=["true", "false", "float", "integral_float"])
    def test_non_integer_filtration_index_is_a_type_error(self, i):
        # True was the index 1, and 0.5 reached islice's "Stop argument" ValueError
        with pytest.raises(TypeError, match="filtration index is not an integer"):
            dimension_filtration(M3, i)

    def test_round_trip(self, clone):
        inv = basic_invariants(M3)
        back = clone(inv)
        assert back == inv and hash(back) == hash(inv) and type(back) is ModuleInvariants


class TestDimensionFiltration:
    def test_running_example_cut_at_one(self):
        piece = dimension_filtration(M3, 1)
        assert piece.upper == ideal(3, (1, 0, 0))
        assert length(piece) == Ordinal.omega_power(1)

    def test_full_cut(self):
        piece = dimension_filtration(M3, 3)
        assert length(piece) == length(M3)

    def test_empty_cut(self):
        piece = dimension_filtration(M3, 0)
        assert piece.is_zero

    def test_below_everything(self):
        assert dimension_filtration(M3, -1).is_zero
        with pytest.raises(ValueError):
            dimension_filtration(M3, -2)

    def test_lengths_are_truncations(self):
        m = ring_mod(3, (1, 1, 0), (0, 2, 1), (2, 0, 2))
        for i in range(-1, 4):
            assert length(dimension_filtration(m, i)) == truncate_below(length(m), i)

    def test_zero_prime_saturates_to_the_unit_ideal(self):
        # the only associated prime of R/0 is (0), and 0 : (0)^infinity = (1)
        m = SubquotientModule.quotient_ring(zero_ideal(2))
        pieces = [dimension_filtration(m, i).upper for i in range(-1, 3)]
        assert pieces == [zero_ideal(2)] * 3 + [unit_ideal(2)]


def filtration_definition(m, i, box, big):
    """Whether each y of box lies in the K of dimension_filtration(m, i),
    by divisibility tests against the generators of I and J alone.

    K = (I : a^infinity) cap J for a the meet of the associated primes of
    dimension at most i, generated by the products of one variable from
    each.  With big at or above every generator exponent, y lies in
    I : x_S^infinity exactly when y with its exponents on S set to big
    lies in I.  A pick that holds another adds no condition.
    """

    def inside(gens, z):
        return any(all(map(le, g, z)) for g in gens)

    primes = [sorted(p.vars) for p in associated_primes(m) if p.dim <= i]
    picks = {frozenset(s) for s in itertools.product(*primes)}
    picks = [s for s in picks if not any(t < s for t in picks)]
    return [
        inside(m.upper.gens, y)
        and all(inside(m.lower.gens, [big if v in s else e for v, e in enumerate(y)]) for s in picks)
        for y in box
    ]


filtration_cases = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=5),
        st.none() | st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=4),
    )
)


@given(filtration_cases)
@example((2, [], None))  # R/0: its one prime (0) saturates 0 to (1)
def test_filtration_is_its_definition(case):
    # I is cut back into J, so I <= J; J = None is the unit ideal
    n, i_gens, j_gens = case
    j = unit_ideal(n) if j_gens is None else MonomialIdeal.make(n, j_gens)
    m = SubquotientModule(ideal_intersection(MonomialIdeal.make(n, i_gens), j), j)
    # every generator of K lies in the box, so membership there decides K
    big = max((e for g in m.lower.gens + m.upper.gens for e in g), default=0)
    box = list(itertools.product(range(big + 1), repeat=n))
    for i in range(-1, n + 1):
        k = dimension_filtration(m, i).upper
        assert [k.contains(y) for y in box] == filtration_definition(m, i, box, big)


@given(filtration_cases)
@example((2, [], None))
@example((2, [(1, 0)], [(1, 0)]))  # I = J: the zero module
def test_filtration_chain_is_the_pieces(case):
    n, i_gens, j_gens = case
    j = unit_ideal(n) if j_gens is None else MonomialIdeal.make(n, j_gens)
    m = SubquotientModule(ideal_intersection(MonomialIdeal.make(n, i_gens), j), j)
    if m.is_zero:
        with pytest.raises(ZeroModuleError):
            filtration_chain(m)
    else:
        d = basic_invariants(m).dimension
        pieces = [dimension_filtration(m, i).upper for i in range(d + 1)]
        assert filtration_chain(m) == pieces


class TestCycleDefect:
    def test_trivial_witnesses(self):
        assert cycle_defect(M3, M3.lower) == zero_cycle(3)
        assert cycle_defect(M3, M3.upper) == zero_cycle(3)

    def test_embedded_prime_loss(self):
        # cutting the running example at (x) drops the embedded component
        # of the quotient, so the defect picks up [(x,y)] with sign -1
        d = cycle_defect(M3, ideal(3, (1, 0, 0)))
        assert d.coeff(PX) == 0

    def test_effective_without_embedded_primes(self):
        m = ring_mod(2, (2, 0), (1, 1), (0, 2))
        for k in [ideal(2, (1, 0), (0, 1)), ideal(2, (1, 0), (0, 2))]:
            assert cycle_defect(m, k).is_effective


class TestConstructSubmodule:
    def test_single_omega(self):
        k = construct_submodule_of_length(M3, Ordinal.omega_power(1))
        assert k == ideal(3, (1, 0, 0))

    def test_full_length(self):
        mu = length(M3)
        k = construct_submodule_of_length(M3, mu)
        assert length(M3.submodule(k)) == mu

    def test_zero_target(self):
        assert construct_submodule_of_length(M3, ZERO) == M3.lower

    def test_every_weaker_ordinal_artinian(self):
        m = ring_mod(2, (2, 0), (1, 1), (0, 2))
        for c in range(4):
            target = Ordinal.from_coeffs({0: c})
            k = construct_submodule_of_length(m, target)
            assert length(m.submodule(k)) == target

    def test_every_weaker_ordinal_mixed(self):
        mu = length(M3)
        for a in range(mu.coeff(2) + 1):
            for b in range(mu.coeff(1) + 1):
                target = Ordinal.from_coeffs({2: a, 1: b})
                assert weaker(target, mu)
                k = construct_submodule_of_length(M3, target)
                assert length(M3.submodule(k)) == target

    def test_four_variable_cube(self):
        # R/(x_1^3, ..., x_4^3) has length 81; its socle x_1^2...x_4^2 comes
        # first in degree-lex order among the witnesses of length 1
        cube = ring_mod(4, *[tuple(3 if j == i else 0 for j in range(4)) for i in range(4)])
        k = construct_submodule_of_length(cube, Ordinal.from_int(1))
        assert k == MonomialIdeal.make(4, cube.lower.gens + ((2, 2, 2, 2),))
        assert construct_submodule_of_length(cube, length(cube)) == unit_ideal(4)

    def test_b_p_test_reaches_the_exponents_of_k(self):
        # (x^10, z^14)/(x^10 y, x y z^14) at 2ω^2: once K gains x^10, the prime
        # (y)'s socle member x z^14 lies in B_p = K : (xz)^∞ and comes before the
        # witness y z^14 of (x) in degree-lex order; lcm(x z^14, (xz)^b) is in K
        # only for b >= 10, so the B_p test must reach K's exponents
        m = SubquotientModule(ideal(3, (10, 1, 0), (1, 1, 14)), ideal(3, (10, 0, 0), (0, 0, 14)))
        nu = Ordinal.from_coeffs({2: 2})
        k = construct_submodule_of_length(m, nu)
        assert k == ideal(3, (10, 0, 0), (0, 1, 14))
        assert length(m.submodule(k)) == nu

    def test_rejects_non_weaker_target(self):
        with pytest.raises(InvalidSubquotientError):
            construct_submodule_of_length(M3, Ordinal.omega_power(3))

    @pytest.mark.parametrize("calls, reached", [(0, "ω"), (2, "2ω"), (4, "2ω + 1"), (5, "2ω + 2")])
    def test_failure_names_the_length_of_its_step(self, monkeypatch, calls, reached):
        # R/(x^2 y, x y^3) at its length 2ω + 2: two steps at the primes (x) and
        # (y), then two at (x, y), one _socle each per prime.  With every
        # _socle past the first `calls` empty, the error names the length that
        # the failed step would have reached
        m = ring_mod(2, (2, 1), (1, 3))
        socle, seen = invariants._socle, []

        def socle_until(*args):
            seen.append(None)
            return socle(*args) if len(seen) <= calls else ()

        monkeypatch.setattr(invariants, "_socle", socle_until)
        msg = "no monomial submodule of length %s found within degree 8 (module %r)" % (reached, m)
        with pytest.raises(SubmoduleSearchError, match=re.escape(msg)):
            construct_submodule_of_length(m, Ordinal.from_coeffs({1: 2, 0: 2}))


def scan_candidates(k, j, primes, bound):
    """The plain degree-lex scan, as an oracle for the candidate stream:
    every monomial x of degree at most bound with x outside k, x in j and
    p*x inside k for one of the primes p, in Monomial.sort_key order."""
    n = k.ambient_n
    gens = [[variable(n, v) for v in sorted(p.vars)] for p in primes]

    def exponents(d, r):
        # the r-tuples summing to d, lexicographically decreasing
        if r == 0:
            if d == 0:
                yield ()
            return
        for a in range(d, -1, -1):
            for rest in exponents(d - a, r - 1):
                yield (a, *rest)

    for d in range(bound + 1):
        for exps in exponents(d, n):
            x = Monomial(exps)
            if k.contains(x) or not j.contains(x):
                continue
            if any(all(k.contains(y.times(x)) for y in p) for p in gens):
                yield x


def scan_search(m, nu):
    """construct_submodule_of_length's search with scan_candidates as its stream."""
    mu = length(m)
    if not weaker(nu, mu):
        raise InvalidSubquotientError("target length is not weaker than the module length")
    n = m.ambient_n
    bound = max(m.lower.max_degree, m.upper.max_degree) + mu.valence
    ass = sorted(associated_primes(m), key=PrimeSupport.sort_key)
    k, target = m.lower, ZERO
    for exp, coeff in nu.terms:
        primes = [p for p in ass if p.dim == exp]
        for _ in range(coeff):
            target = shuffle_sum(target, Ordinal.omega_power(exp))
            for x in scan_candidates(k, m.upper, primes, bound):
                k2 = ideal_sum(k, MonomialIdeal.make(n, [x]))
                if length(SubquotientModule(m.lower, k2)) == target:
                    k = k2
                    break
            else:
                raise SubmoduleSearchError("no witness within degree %d" % bound)
    return k


candidate_cases = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=5),
        st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=3),
        st.lists(st.frozensets(st.integers(0, n - 1)), max_size=3),
        st.integers(0, 7),
    )
)


def exponents_of(i):
    return tuple(g.exponents for g in i.gens)


def heap_candidates(kg, j, primes, bound):
    """Exponent tuples of degree <= bound outside K in some (K : p) cap J, in
    sort_key order: a heap seeded with _socle's generators, each pop pushing
    its multiples by one variable.  Every y in (K : p) cap J - K is reached
    from a generator dividing it through divisors of y, all in (K : p) cap J
    and outside K, and pushes only raise the degree."""
    heap, seen, todo = [], set(), [x for p in primes for x in _socle(kg, j, p)]
    while True:
        for x in todo:
            if x not in seen and sum(x) <= bound and not in_ideal(kg, x):
                seen.add(x)
                heappush(heap, (sum(x), tuple(map(neg, x))))
        if not heap:
            return
        x = tuple(map(neg, heappop(heap)[1]))
        yield x
        todo = [x[:v] + (x[v] + 1,) + x[v + 1 :] for v in range(len(x))]


@given(candidate_cases)
def test_candidates_are_the_scan(case):
    n, k_gens, j_gens, prime_vars, bound = case
    k, j = MonomialIdeal.make(n, k_gens), MonomialIdeal.make(n, j_gens)
    primes = [PrimeSupport(n, vs) for vs in prime_vars]
    got = list(heap_candidates(exponents_of(k), exponents_of(j), primes, bound))
    assert got == [x.exponents for x in scan_candidates(k, j, primes, bound)]


socle_cases = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6),
        st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=4),
        st.frozensets(st.integers(0, n - 1)),
    )
)


def in_ideal(gens, y):
    return any(all(map(le, g, y)) for g in gens)


def minimal_points(top, member):
    """The minimal points y of the box 0 <= y <= top with member(y), in
    sort_key order: the generators of the monomial ideal that member
    decides, when the box holds all of them."""
    box = itertools.product(*(range(t + 1) for t in top))
    points = [
        y
        for y in box
        if member(y)
        and not any(y[v] and member(y[:v] + (y[v] - 1,) + y[v + 1 :]) for v in range(len(y)))
    ]
    return sorted(points, key=lambda y: (sum(y), tuple(-e for e in y)))


@given(socle_cases)
def test_socle_is_the_colon_outside_k(case):
    # the seeds are the generators of (K : p) cap J outside K: y in J with
    # y + e_i in K for every x_i in p, whose generators lie in the box of
    # K's and J's exponents; K need not lie in J, and p may be the zero prime
    n, k_gens, j_gens, vs = case
    k, j = MonomialIdeal.make(n, k_gens), MonomialIdeal.make(n, j_gens)
    p = PrimeSupport(n, vs)

    def member(y):
        raised = (y[:i] + (y[i] + 1,) + y[i + 1 :] for i in vs)
        return in_ideal(j_gens, y) and all(in_ideal(k_gens, z) for z in raised)

    top = [max((g[v] for g in k_gens + j_gens), default=0) for v in range(n)]
    expected = [y for y in minimal_points(top, member) if not in_ideal(k_gens, y)]
    kg = exponents_of(k)
    assert [y for y in _socle(kg, exponents_of(j), p) if not in_ideal(kg, y)] == expected


def test_cycle_memo_is_bounded():
    assert invariants._cycle.cache_info().maxsize == invariants._CYCLE_MEMO == 4096


def test_b_p_test_rejects_the_socle_members_in_k(monkeypatch, golden_profiles):
    # _socle may leave members of K in its antichain; at every step of the
    # search each of them lies in B_p = K : x_S^infinity (a generator of K
    # divides it on p), which the search tests for every member it takes
    in_k = []

    def recorded(kg, j, p):
        out = _socle(kg, j, p)
        in_k.extend((kg, p, x) for x in out if in_ideal(kg, x))
        return out

    monkeypatch.setattr(invariants, "_socle", recorded)
    for seed in range(300):
        m, _ = random_chain(9000 + seed, golden_profiles[seed % 4])
        mu = length(m)
        rng = random.Random(seed)
        for nu in [mu, Ordinal.from_coeffs({e: rng.randint(0, c) for e, c in mu.terms})]:
            search_outcome(construct_submodule_of_length, m, nu)
    assert len(in_k) > 100
    for kg, p, x in in_k:
        assert any(all(g[j] <= x[j] for j in p.vars) for g in kg), (kg, p, x)


def test_search_scans_are_linear_in_its_steps(monkeypatch):
    # the B_p test reads K, an antichain, so each of the 800 steps on
    # R/(x^400, y^2) scans a few generators; a list of every x adjoined so far,
    # never minimised, made the scans quadratic in the steps
    m = ring_mod(2, (400, 0), (0, 2))
    mu = length(m)
    assert mu == Ordinal.from_int(800)
    divides, scanned = invariants._divides, []

    def counted(gens, x):
        # the generators scanned, up to and including the first divisor of x
        for g in gens:
            scanned.append(g)
            if divides((g,), x):
                return True
        return False

    monkeypatch.setattr(invariants, "_divides", counted)
    assert construct_submodule_of_length(m, mu) == unit_ideal(2)
    assert len(scanned) <= 8 * 800


pair_part_cases = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6),
        st.frozensets(st.integers(0, n - 1)),
    )
)


@given(pair_part_cases)
def test_pair_part_is_its_definition(case):
    # y is in C_p iff for every x_i in p some generator g of I has g_j <= y_j
    # for all j in p - {i}; the generators lie in the box of I's exponents,
    # and the zero prime gives the unit ideal
    n, low_gens, vs = case
    low = exponents_of(MonomialIdeal.make(n, low_gens))

    def member(y):
        return all(any(all(g[j] <= y[j] for j in vs - {i}) for g in low) for i in vs)

    top = [max((g[v] for g in low), default=0) for v in range(n)]
    assert _pair_part(low, PrimeSupport(n, vs), n) == tuple(minimal_points(top, member))


def search_outcome(search, m, nu):
    try:
        return search(m, nu)
    except SubmoduleSearchError:
        return SubmoduleSearchError


def test_search_matches_the_scan(small_corpus):
    # the same witness K, or the same failure, as the scan-driven search on
    # every module at full length and at two seeded weaker targets
    chains = [random_chain(s, STRESS_PROFILE) if s % 5 == 0 else random_chain(s) for s in range(100)]
    modules = [m for m, _ in small_corpus + chains]
    for idx, m in enumerate(modules):
        mu = length(m)
        rng = random.Random(idx)
        weaker_targets = [Ordinal.from_coeffs({e: rng.randint(0, c) for e, c in mu.terms}) for _ in range(2)]
        for nu in [mu, *weaker_targets]:
            expected = search_outcome(scan_search, m, nu)
            assert search_outcome(construct_submodule_of_length, m, nu) == expected


def test_search_outcomes_are_pinned(golden_profiles):
    # the witness K (or the failure) of 1,000 seeded searches, at full length
    # and at one weaker target of 500 chains over four profiles, hashed: any
    # change to the search that moves one witness moves the digest
    digest = hashlib.sha256()
    for seed in range(500):
        m, _ = random_chain(9000 + seed, golden_profiles[seed % 4])
        mu = length(m)
        rng = random.Random(seed)
        for nu in [mu, Ordinal.from_coeffs({e: rng.randint(0, c) for e, c in mu.terms})]:
            outcome = search_outcome(construct_submodule_of_length, m, nu)
            got = "SubmoduleSearchError" if outcome is SubmoduleSearchError else outcome.gens
            digest.update(repr(got).encode() + b"\n")
    assert digest.hexdigest() == "dee22ce33ed8994e4316726824bb676f11fefecfcae250c10669e2e5c1054d46"


def is_witness(low, kg, up, primes, x):
    """Whether x lies in ((K : p) cap J cap C_p) - B_p for one of the primes p,
    each ideal decided by divisibility against generators, by definition:
    K : p holds x when x*x_i is in K for every x_i in p; C_p when for each
    x_i in p a generator of I divides x on p - {x_i}; B_p = K : x_S^infinity,
    S = vars - p, when a generator of K divides x on p."""
    def divides_on(g, vs):
        return all(g[j] <= x[j] for j in vs)

    return in_ideal(up, x) and any(
        all(in_ideal(kg, x[:i] + (x[i] + 1,) + x[i + 1 :]) for i in p.vars)
        and all(any(divides_on(g, p.vars - {i}) for g in low) for i in p.vars)
        and not any(divides_on(g, p.vars) for g in kg)
        for p in primes
    )


def replay_search(m, nu):
    """The search as a walk over heap_candidates, the walk that the closed
    form of construct_submodule_of_length replaces: each candidate x up to
    the first witness is decided both by is_witness and by len((K + (x))/I).

    Returns the witness K, or None when a step finds no witness, and the
    counts of candidates, of rejections, and of rejections with K : x a
    prime of the step's dimension, which only membership in C_p decides.
    """
    n, fc = m.ambient_n, fundamental_cycle(m)
    bound = max(m.lower.max_degree, m.upper.max_degree) + length(m).valence
    low, up = exponents_of(m.lower), exponents_of(m.upper)
    k, target, counts = m.lower, ZERO, [0, 0, 0]
    for exp, coeff in nu.terms:
        primes = [p for p, _ in fc.terms if p.dim == exp]
        for _ in range(coeff):
            target = shuffle_sum(target, Ordinal.omega_power(exp))
            for x in heap_candidates(exponents_of(k), up, primes, bound):
                k2 = ideal_sum(k, MonomialIdeal.make(n, [x]))
                verdict = is_witness(low, exponents_of(k), up, primes, x)
                assert verdict == (length(SubquotientModule(m.lower, k2)) == target), (m, k, x)
                counts[0] += 1
                if verdict:
                    k = k2
                    break
                counts[1] += 1
                quotient = colon(k, MonomialIdeal.make(n, [x]))
                if all(g.degree == 1 for g in quotient.gens) and n - len(quotient.gens) == exp:
                    counts[2] += 1
            else:
                return None, counts
    return k, counts


def test_each_candidate_is_decided_as_by_length():
    # seeded searches at full length and at a weaker target, over desk-scale,
    # stress and proper-submodule (J != R) chains of up to 6 variables
    profiles = [DEFAULT_PROFILE, STRESS_PROFILE, InstanceProfile(max_vars=6, ring_bias=0)]
    totals = [0, 0, 0]
    for seed in range(300):
        m, _ = random_chain(7000 + seed, profiles[seed % 3])
        mu = length(m)
        rng = random.Random(seed)
        for nu in [mu, Ordinal.from_coeffs({e: rng.randint(0, c) for e, c in mu.terms})]:
            k, counts = replay_search(m, nu)
            assert search_outcome(construct_submodule_of_length, m, nu) == (k or SubmoduleSearchError)
            totals = [a + b for a, b in zip(totals, counts)]
    candidates, rejected, by_standard_pair = totals
    assert candidates > rejected > by_standard_pair > 0


def test_standard_pair_condition_rejects_a_prime_colon():
    # R/(y^2, x^2 y) at w + 2: the search adjoins x^2, then xy, so that
    # K = (x^2, xy, y^2).  Then K : x is the maximal ideal p, yet (x, {}) is
    # no standard pair of I (no generator has y-degree 0): x is not in C_p,
    # so x adds nothing and the last witness is y
    m = ring_mod(2, (0, 2), (2, 1))
    k = ideal(2, (2, 0), (1, 1), (0, 2))
    assert colon(k, ideal(2, (1, 0))) == maximal_ideal(2)
    assert not in_ideal(_pair_part(exponents_of(m.lower), prime(2, [0, 1]), 2), (1, 0))
    assert length(SubquotientModule(m.lower, ideal_sum(k, ideal(2, (1, 0))))) == length(m.submodule(k))
    assert construct_submodule_of_length(m, Ordinal.from_coeffs({1: 1, 0: 2})) == ideal(2, (0, 1), (2, 0))


class TestDeepSearch:
    """Searches whose first witness lies far up the degree-lex order."""

    def test_hundred_in_six_variables(self):
        # R/(a^6, ..., f^6, abcdef): the first witness of length 1 has degree 25
        m = ring_mod(6, *[tuple(6 if j == i else 0 for j in range(6)) for i in range(6)], (1,) * 6)
        k = construct_submodule_of_length(m, Ordinal.from_int(100))
        assert k.contains_ideal(m.lower)
        assert oracle_artinian_length(m.submodule(k)) == 100

    def test_full_length_in_two_variables(self):
        m = ring_mod(2, (20, 0), (0, 20))
        assert construct_submodule_of_length(m, length(m)) == unit_ideal(2)

    STAIRCASE = "ring a,b,c,d,e,f\nI = a^6, b^6, c^6, d^6, e^6, f^6, a*b*c*d*e*f\n"

    def check_cli_search(self, target):
        # len K/I on the printed witness K exits 0 only if I <= K, and prints the target
        out = io.StringIO()
        assert run_text(self.STAIRCASE + "submodlen I %d\n" % target, out=out) == 0
        check = self.STAIRCASE + "K = %s\nlen K/I\n" % out.getvalue().strip().strip("()")
        out = io.StringIO()
        assert run_text(check, out=out) == 0
        assert out.getvalue() == "len K/I = %d\n" % target

    def test_thousand_through_the_cli(self):
        self.check_cli_search(1000)

    def test_three_thousand_through_the_cli(self):
        self.check_cli_search(3000)


def test_length_of_power_series_style_quotients():
    # R/(x,y) is a polynomial ring in one fewer variable
    m = SubquotientModule.quotient_ring(maximal_ideal(2))
    assert length(m) == Ordinal.from_int(1)
    assert length(ring_mod(2, (1, 0))) == Ordinal.omega_power(1)


class TestClosedForms:
    """Inputs far beyond a box scan, checked against counted closed forms."""

    def test_six_variable_staircase(self):
        # R/(x_i^5, x_1...x_6): the 5^6 monomials of the box minus the
        # 4^6 multiples of x_1...x_6 inside it
        m = ring_mod(6, *[tuple(5 if j == i else 0 for j in range(6)) for i in range(6)], (1,) * 6)
        assert length(m) == Ordinal.from_int(11529)

    def test_large_exponents_through_the_cli(self):
        out = io.StringIO()
        assert run_text("ring x,y\nI = x^4000, y^4000\nlen I\n", out=out) == 0
        assert "16000000" in out.getvalue()

    def test_large_exponents_mixed_dimension(self):
        # J/I for I = (x^3000, x^2000 y^1000), J = (x^500): the columns
        # x^a with 500 <= a < 2000 are free in y, and the 1000 x 1000 box
        # with 2000 <= a < 3000, b < 1000 is finite
        lower = ideal(2, (3000, 0), (2000, 1000))
        m = SubquotientModule(lower, ideal(2, (500, 0)))
        assert length(m) == Ordinal.from_coeffs({1: 1500, 0: 1000000})


slice_cases = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[st.integers(0, 5)] * n), max_size=8),
        st.integers(0, n - 1),
        st.sets(st.integers(0, 7), max_size=3),
    )
)


@given(slice_cases)
def test_slice_is_the_free_part_of_the_colon(case):
    # every cut's slice is the x_v-free generators of (i : x_v^k), the
    # slice's definition: the minimal x_v-free y with x_v^k * y in i; the
    # cuts are 0, every g_v and some extra values
    n, gens, v, extra = case
    exps = exponents_of(MonomialIdeal.make(n, gens))
    cuts = sorted({0} | {e[v] for e in exps} | extra)
    top = [0 if u == v else max((g[u] for g in gens), default=0) for u in range(n)]
    for k, got in zip(cuts, _slices(exps, v, cuts), strict=True):
        expected = minimal_points(top, lambda y: in_ideal(gens, y[:v] + (k,) + y[v + 1 :]))
        assert got == tuple(expected)


def fixed_degree(n, g, d):
    """g distinct monomials in n variables, each of d uniform variable draws."""
    rng = random.Random(7 * n + g)
    gens = set()
    while len(gens) < g:
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        gens.add(tuple(e))
    return MonomialIdeal.make(n, gens)


def test_length_of_a_wide_ideal():
    # the slice recursion's J_k cap I_top step (_intersect) on wide ideals; (8, 120, 12)
    # takes 0.3-0.6 s on a shared 2-vCPU VM
    for shape, coeffs in [
        ((6, 80, 10), {4: 1, 3: 76, 2: 264, 1: 422, 0: 210}),
        ((8, 60, 10), {6: 1, 5: 76, 4: 326, 3: 403, 2: 278, 1: 158, 0: 11}),
        ((8, 120, 12), {6: 1, 5: 73, 4: 537, 3: 1174, 2: 2034, 1: 1357, 0: 505}),
    ]:
        m = SubquotientModule.quotient_ring(fixed_degree(*shape))
        assert length(m) == Ordinal.from_coeffs(coeffs), shape


pure_power_cases = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.one_of(st.none(), st.integers(1, 5)), min_size=n, max_size=n)
)


@given(pure_power_cases)
@example([None, None])  # R/0
@example([3, 4, None])  # (x^3, y^4) in k[x,y,z]: a box of 12 at (x,y)
def test_pure_power_cycle_is_the_oracle(exps):
    # I = (x_i^a_i, i in S), the variables off S free: one box of prod a_i
    # standard pairs at (x_i : i in S), checked at every prime
    n = len(exps)
    gens = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps) if a]
    m = ring_mod(n, *gens)
    invariants._cycle.cache_clear()
    fc = fundamental_cycle(m)
    for k in range(n + 1):
        for vs in itertools.combinations(range(n), k):
            p = prime(n, vs)
            assert fc.coeff(p) == oracle_lcl(m, p), (exps, vs)


def counting(monkeypatch, *names):
    """Patch the named kernels of invariants to log their calls by name; the log."""
    calls = []
    for name in names:

        def counted(*args, kernel=getattr(invariants, name), name=name):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(invariants, name, counted)
    return calls


def test_pure_powers_are_not_sliced(monkeypatch):
    # a pure-power ideal with J = (1) is one box of standard pairs, counted
    # without slicing
    calls = counting(monkeypatch, "_slices")
    invariants._cycle.cache_clear()
    assert length(ring_mod(3, (5, 0, 0), (0, 6, 0), (0, 0, 7))) == Ordinal.from_int(210)
    assert calls == []


def test_trivial_slices_and_meets_are_skipped(monkeypatch):
    # in the structured row R/(x_1^2, ..., x_7^2, x_1...x_7) J = (1) is never
    # sliced, and each meet J_k cap I_top has a unit side: no _intersect call;
    # the box slice of each row is counted in place, so the rows of 7 down to
    # 2 variables make one memo miss each (13 when boxes went through the memo)
    calls = counting(monkeypatch, "_slices", "_intersect")
    invariants._cycle.cache_clear()
    row = [tuple(2 if j == i else 0 for j in range(7)) for i in range(7)]
    assert length(ring_mod(7, *row, (1,) * 7)) == Ordinal.from_int(2**7 - 1)
    assert calls.count("_slices") <= 6
    assert calls.count("_intersect") == 0
    assert invariants._cycle.cache_info().misses == 6


def test_an_unchanged_slice_keeps_its_meet(monkeypatch):
    # (x)/(x^5, x^4y, ..., xy^4), sliced on y: J_k = (x) at every cut and
    # I_top = (x), so the first cut's meet serves every later cut, and the
    # slices' own recursions meet nothing (their I_top is (1))
    calls = counting(monkeypatch, "_intersect")
    invariants._cycle.cache_clear()
    m = SubquotientModule(ideal(2, *[(5 - k, k) for k in range(5)]), ideal(2, (1, 0)))
    assert fundamental_cycle(m) == Cycle.from_terms(2, {prime(2, [0, 1]): 10})
    assert calls == ["_intersect"]


@lru_cache(maxsize=invariants._CYCLE_MEMO)
def reference_cycle(n, lower, upper):
    """invariants._cycle without its in-place boxes, its J = (1) fast paths
    and its carried meet: every slice through the memo, every meet J_k cap
    I_top from scratch, the last variable of I found one variable at a time."""
    if all(_divides(lower, h) for h in upper):
        return _cycle_of(n, ())
    if not lower:
        return _cycle_of(n, ((_prime(n, frozenset()), 1),))
    one = ((0,) * n,)
    if upper == one and all(g.count(0) == n - 1 for g in lower):
        s = frozenset(i for g in lower for i, e in enumerate(g) if e)
        return _cycle_of(n, ((_prime(n, s), prod(map(sum, lower))),))
    v = next(j for j in range(n - 1, -1, -1) if any(g[j] for g in lower))
    cuts = sorted({0} | {g[v] for g in lower + upper})
    lows = _slices(lower, v, cuts)
    ups = [one] * len(cuts) if upper == one else _slices(upper, v, cuts)
    top = lows[-1]
    free = () if top == one else reference_cycle(n, top, ups[-1]).terms
    acc = {}
    for k, nxt, low, up in zip(cuts, cuts[1:], lows, ups):
        if low == top:
            break
        meet = top if up == one else up if top == one else _intersect(up, top)
        for p, c in reference_cycle(n, low, meet).terms:
            s = p.vars | {v}
            acc[s] = acc.get(s, 0) + (nxt - k) * c
    terms = (*free, *((_prime(n, s), c) for s, c in acc.items()))
    return _cycle_of(n, tuple(sorted(terms, key=lambda t: t[0].key)))


def same_cycles(m):
    """_cycle and reference_cycle, both memos cleared, give equal terms in equal order."""
    invariants._cycle.cache_clear()
    reference_cycle.cache_clear()
    args = (m.ambient_n, m.lower.gens, m.upper.gens)
    return invariants._cycle(*args) == reference_cycle(*args)


@given(modules)
@example((2, [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4)], [(1, 0)], (0, 0), False))
def test_cycle_is_the_reference_cycle(spec):
    assert same_cycles(subquotient(*spec))


def test_wide_cycles_are_the_reference_cycles(monkeypatch):
    # and every subproblem's antichains, the carried meets among them, are as
    # _minimize leaves them, so that equal ideals share one memo entry
    engine = invariants._cycle

    def canonical(n, lower, upper):
        assert lower == _minimize(lower) and upper == _minimize(upper), (lower, upper)
        return engine(n, lower, upper)

    canonical.cache_clear = engine.cache_clear
    monkeypatch.setattr(invariants, "_cycle", canonical)
    for shape in [(4, 30, 8), (6, 80, 10), (8, 60, 10)]:
        assert same_cycles(SubquotientModule.quotient_ring(fixed_degree(*shape))), shape
