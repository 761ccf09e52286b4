import hashlib
import itertools
from operator import add, le

import pytest

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
from ordlen.errors import (
    AmbientMismatchError,
    InvalidSubquotientError,
    OrdlenError,
    ResourceCapError,
    ZeroModuleError,
)
from ordlen.invariants import (
    _cycle,
    associated_primes,
    basic_invariants,
    construct_submodule_of_length,
    cycle_defect,
    dimension_filtration,
    filtration_chain,
    length,
)
from ordlen.monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    _meet,
    _minimize,
    _product,
    ideal_sum,
    maximal_ideal,
    prime_ideal,
    saturation,
    unit_ideal,
    zero_ideal,
)
from ordlen.oracle import STRESS_PROFILE, random_chain
from ordlen.ordinal import (
    Ordinal,
    cantor_sum,
    leq,
    meet,
    scalar_mul,
    shuffle_difference,
    shuffle_sum,
    truncate_above,
    truncate_below,
    weaker,
)
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

    @pytest.mark.parametrize("predicate", [is_i_open, is_open_in_ith_topology])
    @pytest.mark.parametrize("i", [True, 0.5, -1.0], ids=["true", "float", "integral_float"])
    def test_non_integer_topology_index_is_a_type_error(self, predicate, i):
        # 0.5 was answered as 0, and True as 1
        with pytest.raises(TypeError, match="topology index is not an integer"):
            predicate(M2, M2.upper, i)

    @pytest.mark.parametrize("cap", [True, 2.5, 2.0], ids=["true", "float", "integral_float"])
    def test_non_integer_power_cap_is_a_type_error(self, cap):
        # True searched up to the cap 1, and 2.5 reached range()'s TypeError
        with pytest.raises(TypeError, match="power cap is not an integer"):
            find_e_open_power(M2, cap=cap)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_power_cap_below_one_is_a_value_error(self, cap):
        # both searched nothing and raised ResourceCapError
        with pytest.raises(ValueError, match="power cap must be >= 1"):
            find_e_open_power(M2, cap=cap)

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


def test_e_open_power_tests_the_intersection_not_the_colon():
    # R/(x^2 y^2, x^4 y): a = (x, y) and I : a^infinity = (x^2 y).  The colon
    # test a^n <= I : (x^2 y) = (x^2, y) passes at n = 2, but x^3 y lies in
    # a^4 cap (x^2 y) and outside I; a^5 cap (x^2 y) lies in I
    r_mod = ring_mod(2, (2, 2), (4, 1))
    want = ideal(2, (2, 2), (5, 0), (4, 1), (1, 4), (0, 5))
    assert find_e_open_power(r_mod) == EOpenPower(5, want)
    assert not is_i_open(r_mod, ideal(2, (2, 2), (4, 0), (3, 1), (1, 3), (0, 4)), 0)


def e_open_outcome(r_mod, cap):
    try:
        return find_e_open_power(r_mod, cap)
    except ResourceCapError:
        return ResourceCapError


def test_e_open_power_matches_the_reference(chain_corpus):
    # the same n and ideal, or both out of budget, at the default cap and at caps 1-3,
    # on the shared corpus and on rings of up to 6 variables from the stress profile
    modules = [m for m, _ in chain_corpus] + [random_chain(s, STRESS_PROFILE)[0] for s in range(100)]
    rings = [m for m in modules if m.upper.is_unit and not m.is_zero]
    assert sum(m.ambient_n > 4 for m in rings) > 10  # only the stress profile goes past 4
    for r_mod in rings:
        for cap in (DEFAULT_POWER_CAP, 1, 2, 3):
            assert e_open_outcome(r_mod, cap) == e_open_reference(r_mod, cap)


def test_power_step_matches_minimise_then_filter(chain_corpus):
    # the e-open step drops the products in I before it minimises; the reference
    # minimises every product of power and a, then drops those in I
    modules = [m for m, _ in chain_corpus] + [random_chain(s, STRESS_PROFILE)[0] for s in range(400)]
    rings = [m for m in modules if m.upper.is_unit and not m.is_zero]
    steps = 0
    for r_mod in rings:
        n, low = r_mod.ambient_n, r_mod.lower.gens
        e = basic_invariants(r_mod).order
        a = _meet(([tuple(int(i == v) for i in range(n)) for v in sorted(p.vars)]
                   for p in associated_primes(r_mod) if p.dim == e), n)
        power = r_mod.upper.gens
        for _ in range(6):
            every = _minimize(tuple(map(add, g, h)) for g in power for h in a)
            want = tuple(f for f in every if not any(all(map(le, g, f)) for g in low))
            power = _product(power, a, low)
            assert power == want
            steps += bool(power)
    assert steps > 500


def golden_rings(profiles):
    """R/I for the lower ideal I of 1,000 seeded chains over the four golden profiles."""
    for seed in range(1000):
        m, _ = random_chain(12000 + seed, profiles[seed % 4])
        yield SubquotientModule.quotient_ring(m.lower)


def test_e_open_outcomes_are_pinned(golden_profiles):
    # the EOpenPower (or the error type) of 1,000 seeded rings at the default
    # cap and at cap 2, hashed: any change that moves one answer moves the digest
    digest = hashlib.sha256()
    for r_mod in golden_rings(golden_profiles):
        for cap in (DEFAULT_POWER_CAP, 2):
            try:
                got = find_e_open_power(r_mod, cap)
            except OrdlenError as err:
                got = type(err).__name__
            digest.update(repr(got).encode() + b"\n")
    assert digest.hexdigest() == "d3164758471bd5a5d21639b8555c796fa79a882f397932eef540ac3ba2aba8e3"


def test_e_open_saturation_is_the_filtration(golden_profiles):
    # I : a^infinity, for a the meet of the primes of dimension e = ord(R/I)
    # built as prime ideals, is K_e of the dimension filtration (no ring is
    # zero: I has no generator of degree 0)
    for r_mod in golden_rings(golden_profiles):
        ass = associated_primes(r_mod)
        e, n = min(p.dim for p in ass), r_mod.ambient_n
        a = MonomialIdeal(n, _meet((prime_ideal(p).gens for p in ass if p.dim == e), n))
        assert dimension_filtration(r_mod, e).upper == saturation(r_mod.lower, a)


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

    @pytest.mark.parametrize("predicate", [predicts_open_kernel, hom_vanishes,
                                           max_common_ass_dimension])
    def test_modules_over_different_rings(self, predicate):
        # R/(x) over k[x, y] and R/(x, y) over k[x, y, z]; either order, and
        # before the zero-module check of hom_vanishes
        small, big = ring_mod(2, (1, 0)), ring_mod(3, (1, 0, 0), (0, 1, 0))
        zero = SubquotientModule.quotient_ring(unit_ideal(3))
        for m, n in ((small, big), (big, small), (small, zero)):
            with pytest.raises(AmbientMismatchError, match="modules over different rings"):
                predicate(m, n)


def engine_ideals(m, k):
    """Every ideal the filtration, submodule and e-open searches return for J/I."""
    if not m.is_zero:
        yield from filtration_chain(m)
    for i in range(-1, 4):
        yield dimension_filtration(m, i).upper
    yield construct_submodule_of_length(m, length(m.submodule(k)))
    yield closure(m, k)
    if m.upper.is_unit and not m.is_zero:
        yield find_e_open_power(m).ideal


def test_engine_ideals_are_canonical_and_between(chain_corpus):
    # the engine wraps the antichains of its kernel without MonomialIdeal's
    # minimisation, sign and I <= K <= J checks, so all three are asserted here
    for m, k in chain_corpus:
        for got in engine_ideals(m, k):
            gens = got.gens
            assert got == MonomialIdeal(m.ambient_n, gens) and got.ambient_n == m.ambient_n
            # a sorted antichain by definition, without MonomialIdeal's own minimisation
            assert all(type(g) is Monomial for g in gens)
            assert list(gens) == sorted(gens, key=Monomial.sort_key)
            assert not any(g != h and all(map(le, g, h)) for g in gens for h in gens)
            assert all(e >= 0 for g in gens for e in g)
            assert got.contains_ideal(m.lower) and m.upper.contains_ideal(got)


class TestCheckedOnce:
    """Outside input is checked where it enters: a witness once, by split, and
    what the engine derives from checked values is not checked again."""

    WITNESS = ideal(3, (1, 0, 0))  # I <= (x) <= (1) for M3

    @pytest.mark.parametrize("call, checks", [
        (is_strongly_additive, 2),
        (cycle_defect, 2),
        (closure, 2),
        pytest.param(lambda m, k: dimension_filtration(m, 0), 0, id="dimension_filtration-0"),
    ])
    def test_containment_tests_per_call(self, monkeypatch, call, checks):
        calls = []
        contains_ideal = MonomialIdeal.contains_ideal

        def counted(self, other):
            calls.append(other)
            return contains_ideal(self, other)

        monkeypatch.setattr(MonomialIdeal, "contains_ideal", counted)
        call(M3, self.WITNESS)
        assert len(calls) == checks

    @staticmethod
    def count_builds(monkeypatch, *classes):
        """The classes whose checked __new__ runs from now on, one entry per call."""
        built = []
        for cls in classes:
            def counted(c, *args, _new=cls.__new__):
                built.append(c)
                return _new(c, *args)

            monkeypatch.setattr(cls, "__new__", staticmethod(counted))
        return built

    def test_derived_values_skip_the_constructors(self, monkeypatch):
        built = self.count_builds(monkeypatch, Monomial, MonomialIdeal, SubquotientModule)
        k = self.WITNESS
        ideal_sum(k, M3.lower)
        dimension_filtration(M3, 0)
        is_strongly_additive(M3, k)
        cycle_defect(M3, k)
        find_e_open_power(M3)
        assert built == []

    def test_times_checks_only_its_operand(self, monkeypatch):
        a = Monomial((1, 0, 2))
        built = self.count_builds(monkeypatch, Monomial)
        product = a.times((0, 3, 1))
        assert (type(product), product, len(built)) == (Monomial, (1, 3, 3), 1)

    def test_arithmetic_skips_the_value_constructors(self, monkeypatch):
        a, b = Ordinal.from_coeffs({2: 1, 0: 3}), Ordinal.from_coeffs({2: 2, 1: 1, 0: 3})
        d = Cycle.from_terms(3, {prime(3, [0]): 2})
        e = Cycle.from_terms(3, {prime(3, [0]): 2, prime(3, [0, 1]): 1})  # cycle_sub cancels at (x)
        twice, zero = Ordinal.from_coeffs({2: 4, 1: 2, 0: 6}), Ordinal()
        built = self.count_builds(monkeypatch, Ordinal, Cycle, PrimeSupport)
        for op in (cantor_sum, shuffle_sum, meet, weaker, leq, shuffle_difference):
            op(b, a)  # a is weaker than b, as shuffle_difference needs
        for op in (truncate_above, truncate_below):
            op(b, 1)
        assert (scalar_mul(2, b), scalar_mul(0, b)) == (twice, zero)
        for op in (cycle_add, cycle_sub, cycle_leq):
            op(d, e)
        binord(d)
        assert built == []

    def test_length_skips_the_value_constructors(self, monkeypatch):
        modules = [M3, M2] + [m for m, _ in (random_chain(s, STRESS_PROFILE) for s in range(20))]
        built = self.count_builds(monkeypatch, Ordinal, Cycle, PrimeSupport)
        _cycle.cache_clear()
        for m in modules:
            length(m)
        assert built == []

    def test_split_is_submodule_and_quotient(self, chain_corpus):
        for m, k in chain_corpus[:50]:
            assert m.split(k) == (SubquotientModule(m.lower, k), SubquotientModule(k, m.upper))

    def test_split_rejects_a_witness_outside(self):
        for k in (ideal(3, (0, 1, 0)), ideal(3, (3, 0, 0))):
            with pytest.raises(InvalidSubquotientError, match="witness ideal not between I and J"):
                M3.split(k)
