"""Exact relations between fundamental cycles, checked where no box oracle reaches.

Each relation sends _cycle, which slices on the largest-index variable
present, down a different recursion tree than the module it starts from:

- a permutation sigma of the variables permutes the cycle: fcyc(sigma M) =
  sigma fcyc(M);
- x_v -> x_v^c makes k[x_v] free of rank c over k[x_v^c], so lcl_p is
  multiplied by c when x_v is in p and is unchanged otherwise;
- over disjoint variables, M1 (x) M2 = (J1 J2)/(I1 J2 + J1 I2) in k[x, y]
  has coefficient lcl_p1(M1) lcl_p2(M2) at p1 + p2 (Sturmfels-Trung-Vogel
  1995, by standard pairs).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_invariants import fixed_degree

from ordlen.chow import Cycle, PrimeSupport, binord
from ordlen.invariants import associated_primes, fundamental_cycle, length
from ordlen.monomial import MonomialIdeal, SubquotientModule, ideal_product, ideal_sum
from ordlen.oracle import DEFAULT_PROFILE, STRESS_PROFILE, random_chain

# one module in three from the stress profile (up to 6 variables, degree 8)
modules = st.builds(
    lambda seed, profile: random_chain(seed, profile)[0],
    st.integers(0, 10**6),
    st.sampled_from([DEFAULT_PROFILE, DEFAULT_PROFILE, STRESS_PROFILE]),
)


def remap(m, move):
    """The module whose ideals have the generators move(g) for those g of J/I."""
    n = m.ambient_n
    lower, upper = (MonomialIdeal(n, map(move, i.gens)) for i in (m.lower, m.upper))
    return SubquotientModule(lower, upper)


def permuted(m, sigma):
    """sigma M for x_v -> x_sigma[v]: a generator's exponent at v moves to sigma[v]."""
    inverse = sorted(range(len(sigma)), key=sigma.__getitem__)
    return remap(m, lambda g: tuple(g[u] for u in inverse))


def permuted_cycle(fc, sigma):
    terms = [(PrimeSupport(fc.ambient_n, map(sigma.__getitem__, p.vars)), c) for p, c in fc.terms]
    return Cycle.from_terms(fc.ambient_n, terms)


def scaled(m, v, c):
    """M with x_v -> x_v^c."""
    return remap(m, lambda g: g[:v] + (c * g[v],) + g[v + 1 :])


def scaled_cycle(fc, v, c):
    return Cycle(fc.ambient_n, [(p, k * c if v in p.vars else k) for p, k in fc.terms])


def lifted(i, shift, total):
    """i, an ideal in k[x], as an ideal of k[x, y] with x at the positions from shift on."""
    pad = total - shift - i.ambient_n
    return MonomialIdeal(total, [(0,) * shift + g + (0,) * pad for g in i.gens])


def tensor(m1, m2):
    """(J1 J2)/(I1 J2 + J1 I2) over the disjoint variables of M1 and then of M2."""
    n1, total = m1.ambient_n, m1.ambient_n + m2.ambient_n
    i1, j1 = lifted(m1.lower, 0, total), lifted(m1.upper, 0, total)
    i2, j2 = lifted(m2.lower, n1, total), lifted(m2.upper, n1, total)
    lower = ideal_sum(ideal_product(i1, j2), ideal_product(j1, i2))
    return SubquotientModule(lower, ideal_product(j1, j2))


def tensor_cycle(fc1, fc2):
    n1, total = fc1.ambient_n, fc1.ambient_n + fc2.ambient_n
    terms = [
        (PrimeSupport(total, p1.vars | {n1 + v for v in p2.vars}), c1 * c2)
        for p1, c1 in fc1.terms
        for p2, c2 in fc2.terms
    ]
    return Cycle.from_terms(total, terms)


@settings(deadline=None)
@given(modules, st.data())
def test_permuting_the_variables_permutes_the_cycle(m, data):
    sigma = data.draw(st.permutations(range(m.ambient_n)))
    want = permuted_cycle(fundamental_cycle(m), sigma)
    moved = permuted(m, sigma)
    assert fundamental_cycle(moved) == want
    assert length(moved) == binord(want) and associated_primes(moved) == want.support


@settings(deadline=None)
@given(modules, st.data(), st.integers(1, 50))
def test_scaling_an_exponent_scales_the_multiplicities_at_its_primes(m, data, c):
    v = data.draw(st.integers(0, m.ambient_n - 1))
    want = scaled_cycle(fundamental_cycle(m), v, c)
    moved = scaled(m, v, c)
    assert fundamental_cycle(moved) == want
    assert length(moved) == binord(want) and associated_primes(moved) == want.support


@settings(deadline=None)
@given(modules, modules)
def test_products_over_disjoint_variables_multiply_the_cycles(m1, m2):
    assume(m1.ambient_n + m2.ambient_n <= 8)
    want = tensor_cycle(fundamental_cycle(m1), fundamental_cycle(m2))
    product = tensor(m1, m2)
    assert fundamental_cycle(product) == want
    assert length(product) == binord(want) and associated_primes(product) == want.support


def test_relations_on_a_wide_ideal():
    # fixed-degree (8, 60, 10), far past a box scan: reversed, and with x_0 -> x_0^400
    m = SubquotientModule.quotient_ring(fixed_degree(8, 60, 10))
    fc = fundamental_cycle(m)
    reverse = list(range(7, -1, -1))
    assert fundamental_cycle(permuted(m, reverse)) == permuted_cycle(fc, reverse)
    assert fundamental_cycle(scaled(m, 0, 400)) == scaled_cycle(fc, 0, 400)
