import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ordlen import monomial, oracle
from ordlen.chow import PrimeSupport, prime
from ordlen.errors import NotArtinianError
from ordlen.invariants import basic_invariants, length, local_multiplicity
from ordlen.monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    ideal_sum,
    prime_ideal,
    saturation,
    unit_ideal,
    zero_ideal,
)
from ordlen.oracle import (
    STRESS_PROFILE,
    InstanceProfile,
    krull_dimension,
    oracle_artinian_length,
    oracle_lcl,
    random_chain,
    random_instance,
)


def ideal(n, *exps):
    return MonomialIdeal.make(n, exps)


def ring_mod(n, *exps):
    return SubquotientModule.quotient_ring(ideal(n, *exps))


M3 = ring_mod(3, (2, 0, 0), (1, 1, 0))


class TestOracleLcl:
    def test_running_example(self):
        assert oracle_lcl(M3, prime(3, [0])) == 1
        assert oracle_lcl(M3, prime(3, [0, 1])) == 1
        assert oracle_lcl(M3, prime(3, [0, 1, 2])) == 0
        assert oracle_lcl(M3, prime(3, [1])) == 0

    def test_artinian_square(self):
        m = ring_mod(2, (2, 0), (1, 1), (0, 2))
        assert oracle_lcl(m, prime(2, [0, 1])) == 3

    def test_generic_point(self):
        # at the zero prime the multiplicity counts global components
        assert oracle_lcl(ring_mod(2), prime(2, [])) == 1
        assert oracle_lcl(M3, prime(3, [])) == 0

    def test_matches_engine_on_example_family(self):
        mods = [
            M3,
            ring_mod(2, (1, 1)),
            ring_mod(2, (2, 0), (1, 1)),
            M3.submodule(ideal(3, (1, 0, 0))),
        ]
        for m in mods:
            n = m.ambient_n
            for r in range(n + 1):
                for sub in itertools.combinations(range(n), r):
                    p = PrimeSupport(n, frozenset(sub))
                    assert oracle_lcl(m, p) == local_multiplicity(m, p)


class TestOracleArtinianLength:
    def test_square_of_maximal(self):
        assert oracle_artinian_length(ring_mod(2, (2, 0), (1, 1), (0, 2))) == 3

    def test_field(self):
        assert oracle_artinian_length(ring_mod(2, (1, 0), (0, 1))) == 1

    def test_zero_module(self):
        z = SubquotientModule(ideal(2, (1, 0)), ideal(2, (1, 0)))
        assert oracle_artinian_length(z) == 0

    def test_rejects_positive_dimension(self):
        with pytest.raises(NotArtinianError):
            oracle_artinian_length(ring_mod(2, (1, 0)))

    def test_matches_ordinal_length(self):
        m = ring_mod(2, (3, 0), (1, 1), (0, 2))
        assert length(m).coeff(0) == oracle_artinian_length(m)


def saturation_lcl(m, p):
    """lcl_p(J/I) through saturations: contract I and J at p, take the
    p-torsion of the contracted I, and count the box monomials on p."""
    n = m.ambient_n
    outside = MonomialIdeal.make(n, [tuple(0 if v in p.vars else 1 for v in range(n))])
    lower_c, upper_c = (saturation(x, outside) for x in (m.lower, m.upper))
    torsion = saturation(lower_c, prime_ideal(p))
    bounds = [
        max((g.exponents[v] for g in lower_c.gens), default=0) if v in p.vars else 1
        for v in range(n)
    ]
    monos = map(Monomial, itertools.product(*map(range, bounds)))
    return sum(
        1 for y in monos if torsion.contains(y) and upper_c.contains(y) and not lower_c.contains(y)
    )


def saturation_artinian_length(m):
    """The number of monomials in J - I, or NotArtinianError unless J <= I : x_v^inf
    for every variable x_v."""
    n = m.ambient_n
    for v in range(n):
        x_v = MonomialIdeal.make(n, [tuple(1 if j == v else 0 for j in range(n))])
        if not saturation(m.lower, x_v).contains_ideal(m.upper):
            raise NotArtinianError("variable %d is not nilpotent on the module" % v)
    bounds = [max((g.exponents[v] for g in m.lower.gens), default=0) for v in range(n)]
    monos = map(Monomial, itertools.product(*map(range, bounds)))
    return sum(1 for y in monos if m.upper.contains(y) and not m.lower.contains(y))


def all_primes(n):
    for r in range(n + 1):
        for sub in itertools.combinations(range(n), r):
            yield PrimeSupport(n, frozenset(sub))


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotArtinianError:
        return NotArtinianError


# (n, generators of I, extra generators of J, pure powers x_v^a_v added to I
# where a_v > 0, whether J = (1)); the pure powers make many draws Artinian
modules = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        *[st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=5)] * 2,
        st.tuples(*[st.integers(0, 4)] * n),
        st.booleans(),
    )
)


class TestAgainstSaturations:
    """Both oracles against the same counts made through saturation and prime_ideal."""

    @staticmethod
    def module(n, low, extra, powers, ring):
        pure = [tuple(a if j == v else 0 for j in range(n)) for v, a in enumerate(powers) if a]
        lower = MonomialIdeal.make(n, low + pure)
        upper = unit_ideal(n) if ring else ideal_sum(lower, MonomialIdeal.make(n, extra))
        return SubquotientModule(lower, upper)

    @given(modules)
    @example((3, [(2, 0, 0), (1, 1, 0)], [(1, 0, 0)], (0, 0, 0), False))
    @example((2, [(2, 0), (0, 3)], [(0, 1)], (0, 0), False))
    @example((2, [], [(1, 1)], (0, 0), False))
    def test_lcl(self, spec):
        m = self.module(*spec)
        for p in all_primes(m.ambient_n):
            assert oracle_lcl(m, p) == saturation_lcl(m, p)

    @given(modules)
    @example((2, [(2, 0), (0, 3)], [(0, 1)], (0, 0), False))
    @example((2, [(2, 0), (1, 1)], [], (0, 0), True))
    @example((2, [], [], (0, 0), False))
    def test_artinian_length(self, spec):
        m = self.module(*spec)
        assert outcome(oracle_artinian_length, m) == outcome(saturation_artinian_length, m)


def test_oracles_reach_no_ideal_kernel(monkeypatch):
    # with every ideal kernel of the engine patched to raise, both oracles
    # still answer, and answer as the saturation formulas did before patching
    mods = [
        M3,
        M3.submodule(ideal(3, (1, 0, 0))),
        ring_mod(2, (2, 0), (1, 1), (0, 2)),
        SubquotientModule(ideal(2, (3, 0), (0, 2)), ideal(2, (1, 0), (0, 1))),
        ring_mod(2, (1, 0)),
        ring_mod(2),
    ]

    def answers(lcl, artinian_length):
        return [
            ([lcl(m, p) for p in all_primes(m.ambient_n)], outcome(artinian_length, m))
            for m in mods
        ]

    want = answers(saturation_lcl, saturation_artinian_length)

    def unreachable(*args, **kwargs):
        raise AssertionError("an oracle reached an ideal kernel of the engine")

    monkeypatch.setattr(MonomialIdeal, "make", classmethod(unreachable))
    for name in ("_minimize", "_ideal", "_pairwise", "_meet"):
        monkeypatch.setattr(monomial, name, unreachable)
    for namespace in (monomial, oracle):
        for name in ("saturation", "ideal_intersection", "colon", "ideal_product"):
            monkeypatch.setattr(namespace, name, unreachable, raising=False)
    assert answers(oracle_lcl, oracle_artinian_length) == want


class TestKrullDimension:
    def test_examples(self):
        assert krull_dimension(zero_ideal(3)) == 3
        assert krull_dimension(ideal(3, (1, 0, 0))) == 2
        assert krull_dimension(ideal(2, (2, 0), (1, 1))) == 1
        assert krull_dimension(ideal(2, (2, 0), (1, 1), (0, 2))) == 0
        assert krull_dimension(unit_ideal(2)) == -1

    def test_agrees_with_module_dimension(self):
        for seed in range(60):
            m = random_instance(seed)
            if m.upper.is_unit and not m.is_zero:
                assert krull_dimension(m.lower) == basic_invariants(m).dimension


class TestGenerator:
    def test_deterministic(self):
        assert random_chain(42) == random_chain(42)
        assert random_instance(42) == random_instance(42)

    def test_profiles_respected(self):
        profile = InstanceProfile(max_vars=2, max_gens=3, max_degree=2)
        for seed in range(30):
            m, k = random_chain(seed, profile)
            assert m.ambient_n <= 2
            assert m.lower.max_degree <= 2

    def test_one_variable_ideals_are_principal(self):
        profile = InstanceProfile(max_vars=1, max_gens=5, max_degree=4)
        for seed in range(20):
            m = random_instance(seed, profile)
            assert len(m.lower.gens) <= 1

    def test_chains_are_valid(self):
        for seed in range(100):
            m, k = random_chain(seed)
            assert m.upper.contains_ideal(k)
            assert k.contains_ideal(m.lower)
            # constructing the two sides must not raise
            m.submodule(k)
            m.quotient_by(k)


def test_stress_profile_agreement():
    for seed in range(25):
        m = random_instance(seed, STRESS_PROFILE)
        n = m.ambient_n
        for r in range(n + 1):
            for sub in itertools.combinations(range(n), r):
                p = PrimeSupport(n, frozenset(sub))
                assert oracle_lcl(m, p) == local_multiplicity(m, p)
