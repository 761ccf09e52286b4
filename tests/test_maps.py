"""Maps of monomial subquotients: multiplication by x^a from J/I to J'/I'.

It is defined when x^a J lies in J' and x^a I in I'.  Its kernel is
((I' : x^a) cap J)/I, its image (x^a J + I')/I', and the preimage of a
submodule K'/I' is ((K' : x^a) cap J + I)/I.  All three are built here
from the public colon, ideal_intersection, ideal_sum and ideal_product
alone, and checked against the topology's predicates.
"""

import itertools
import random

import pytest

from ordlen.errors import ZeroModuleError
from ordlen.invariants import filtration_chain
from ordlen.monomial import (
    MonomialIdeal,
    SubquotientModule,
    colon,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    maximal_ideal,
    variable,
)
from ordlen.topology import (
    find_e_open_power,
    hom_vanishes,
    is_i_open,
    is_open,
    is_open_in_ith_topology,
    kernel_chain_bound,
    predicts_open_kernel,
)

INDICES = (-1, 0, 1, 2)


def monomial(r, a):
    """The principal ideal (x^a) of k[x_1..x_r]."""
    return MonomialIdeal(r, [a])


def seeded_maps(chain_corpus, per_pair=5):
    """(M, N, x^a) with multiplication by x^a a map from M = J/I to N = J'/I'.

    Each module of the corpus is the source of maps into J'/I' with
    J' = J2 + x^a J and I' = I2 + x^a I, for the next module J2/I2 of the
    corpus over the same ring and a few seeded exponents a.
    """
    by_ring = {}
    for m, _ in chain_corpus:
        by_ring.setdefault(m.ambient_n, []).append(m)
    rng = random.Random(1)
    for mods in by_ring.values():
        for m, m2 in zip(mods, mods[1:] + mods[:1]):
            r = m.ambient_n
            for _ in range(per_pair):
                xa = monomial(r, tuple(rng.randint(0, 2) for _ in range(r)))
                lower = ideal_sum(m2.lower, ideal_product(xa, m.lower))
                upper = ideal_sum(m2.upper, ideal_product(xa, m.upper))
                yield m, SubquotientModule(lower, upper), xa


@pytest.fixture(scope="module")
def maps(chain_corpus):
    return list(seeded_maps(chain_corpus))


def kernel(m, n, xa):
    """K with kernel K/I of x^a: M -> N."""
    return ideal_intersection(colon(n.lower, xa), m.upper)


def image(m, n, xa):
    """The image of x^a: M -> N, a submodule of N."""
    return SubquotientModule(n.lower, ideal_sum(ideal_product(xa, m.upper), n.lower))


def preimage(m, xa, k):
    """P with P/I the preimage of K'/I' under x^a: M -> N."""
    return ideal_sum(ideal_intersection(colon(k, xa), m.upper), m.lower)


def target_submodules(n):
    """Proper submodules K'/I' of N = J'/I' to pull back, each once: the pieces of
    its dimension filtration, x_v J' + I', m^b J' + I' and, for a quotient
    ring, its e-open power.  K' = J' pulls back to all of J/I."""
    up, low, r = n.upper, n.lower, n.ambient_n
    if n.is_zero:
        return []
    found = list(filtration_chain(n))
    found += [ideal_product(monomial(r, variable(r, v)), up) for v in range(r)]
    found += [ideal_product(ideal_power(maximal_ideal(r), b), up) for b in (1, 2)]
    if up.is_unit:
        found.append(find_e_open_power(n).ideal)
    return [k for k in dict.fromkeys(ideal_sum(k, low) for k in found) if k != up]


def test_the_maps_are_well_defined(maps):
    assert len(maps) == 1000
    for m, n, xa in maps:
        assert n.upper.contains_ideal(ideal_product(xa, m.upper))
        assert n.lower.contains_ideal(ideal_product(xa, m.lower))


def test_preimages_of_open_submodules_are_open(maps):
    # every morphism is continuous in the canonical topology, and in the i-th:
    # an i-open K'/I' pulls back to a submodule open in the i-th topology
    opened = i_opened = 0
    for m, n, xa in maps:
        for k in target_submodules(n):
            pulled = preimage(m, xa, k)
            if is_open(n, k):
                assert is_open(m, pulled)
                opened += 1
            for i in INDICES:
                if is_i_open(n, k, i):
                    assert is_open_in_ith_topology(m, pulled, i)
                    i_opened += 1
    assert opened >= 1000 and i_opened >= 4000


def test_kernel_is_open_where_predicted(maps):
    predicted = [(m, n, xa) for m, n, xa in maps if predicts_open_kernel(m, n)]
    assert len(predicted) >= 50
    for m, n, xa in predicted:
        assert is_open(m, kernel(m, n, xa))


def test_image_is_zero_where_hom_vanishes(maps):
    vanishing = 0
    for m, n, xa in maps:
        try:
            vanishes = hom_vanishes(m, n)
        except ZeroModuleError:
            continue
        if vanishes:
            assert image(m, n, xa).is_zero
            vanishing += 1
    assert vanishing >= 20


def longest_chain(ideals):
    """The most members of a chain A_1 < A_2 < ... of strict inclusions among the ideals."""
    distinct, depth = set(ideals), {}

    def ending_at(b):
        if b not in depth:
            below = (ending_at(a) for a in distinct
                     if b.contains_ideal(a) and not a.contains_ideal(b))
            depth[b] = 1 + max(below, default=0)
        return depth[b]

    return max(map(ending_at, distinct), default=0)


def test_kernel_chains_of_maps_from_the_ring_are_bounded(chain_corpus):
    # maps R -> N by x^a, for x^a in J'; the kernel is I' : x^a.  Colons and
    # membership stop changing once every exponent of a reaches the largest
    # exponent of I' and J', so the box below it holds every kernel.
    small = [m for m, _ in chain_corpus if m.ambient_n <= 3]
    assert len(small) >= 50
    for n in small:
        r = n.ambient_n
        top = max((e for g in n.lower.gens + n.upper.gens for e in g), default=0)
        kernels = [
            colon(n.lower, monomial(r, a))
            for a in itertools.product(range(top + 1), repeat=r)
            if n.upper.contains(a)
        ]
        assert longest_chain(kernels) <= kernel_chain_bound(n)
