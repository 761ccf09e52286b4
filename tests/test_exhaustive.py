"""Every module generated inside a small exponent box, checked against the definitions.

A monomial ideal generated inside the box {0..b}^n is an antichain of that
box under divisibility, and a module J/I is a nested pair I <= J of such
ideals, so every small input can be listed (bounded-exhaustive testing;
the small scope hypothesis).  Tier-1 checks the (2, 3) and (3, 1) boxes.
Run as a script, with ordlen importable, it checks the fundamental cycle
on the (2, 4) and (3, 2) boxes and both searches on the (2, 4) box, and
prints one line per check and box:

    python tests/test_exhaustive.py
"""

import itertools
import time

import pytest

from ordlen import invariants
from ordlen.chow import Cycle, binord
from ordlen.invariants import construct_submodule_of_length, fundamental_cycle, length
from ordlen.monomial import MonomialIdeal, SubquotientModule
from ordlen.oracle import oracle_lcl
from ordlen.ordinal import Ordinal
from ordlen.topology import DEFAULT_POWER_CAP
from test_oracle import all_primes
from test_topology import e_open_outcome, e_open_reference

SMALL_BOXES = ((2, 3), (3, 1))
LARGE_BOXES = ((2, 4), (3, 2))
LARGE_SEARCH_BOXES = ((2, 4),)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def box_modules(n, b):
    """The ideals generated inside {0..b}^n, one per antichain of the box, and
    a generator of every module J/I with I <= J among them."""
    points = list(itertools.product(range(b + 1), repeat=n))
    antichains = []

    def grow(chain, start):
        antichains.append(chain)
        for i in range(start, len(points)):
            if not any(divides(q, points[i]) or divides(points[i], q) for q in chain):
                grow(chain + [points[i]], i + 1)

    grow([], 0)
    ideals = [(gens, MonomialIdeal.make(n, gens)) for gens in antichains]
    modules = (SubquotientModule(i, j) for low, i in ideals for up, j in ideals
               if all(any(divides(g, h) for g in up) for h in low))
    return [i for _, i in ideals], modules


@pytest.mark.parametrize("box, ideals, modules", [((2, 3), 70, 1764), ((3, 1), 20, 168)])
def test_box_enumerator_counts(box, ideals, modules):
    # the ideals are the antichains of the box: C(2b + 2, b + 1) of them for
    # n = 2, and the Dedekind number 20 for {0, 1}^3
    got, mods = box_modules(*box)
    assert (len(got), len(set(got)), sum(1 for _ in mods)) == (ideals, ideals, modules)


def check_cycles(n, b):
    """fundamental_cycle against oracle_lcl at every prime, on every module of
    the box, the memo cleared for each; the number of modules checked."""
    primes = list(all_primes(n))
    count = 0
    for m in box_modules(n, b)[1]:
        invariants._cycle.cache_clear()
        fc = fundamental_cycle(m)
        for p in primes:
            assert fc.coeff(p) == oracle_lcl(m, p), (m, p)
        count += 1
    return count


@pytest.mark.parametrize("box", SMALL_BOXES)
def test_fundamental_cycle_is_the_oracle_on_every_module_of_a_box(box):
    assert check_cycles(*box) > 0


def weaker_targets(mu):
    """Every ordinal weaker than mu, zero included: each coefficient from 0 up to mu's."""
    exps = [e for e, _ in mu.terms]
    for coeffs in itertools.product(*(range(c + 1) for _, c in mu.terms)):
        yield Ordinal.from_coeffs(zip(exps, coeffs))


def check_searches(n, b):
    """construct_submodule_of_length at every weaker target of every module of
    the box: I <= K <= J, and binord of oracle_lcl over every prime of K/I is
    the target; the number of targets searched."""
    primes = list(all_primes(n))
    count = 0
    for m in box_modules(n, b)[1]:
        for nu in weaker_targets(length(m)):
            k = construct_submodule_of_length(m, nu)
            assert k.contains_ideal(m.lower) and m.upper.contains_ideal(k), (m, nu, k)
            sub = SubquotientModule(m.lower, k)
            assert binord(Cycle.from_terms(n, {p: oracle_lcl(sub, p) for p in primes})) == nu, (m, nu, k)
            count += 1
    return count


def check_e_open(n, b):
    """find_e_open_power on every nonzero R/I of the box against e_open_reference,
    the least n found by definition; the number of rings checked."""
    rings = [SubquotientModule.quotient_ring(i) for i in box_modules(n, b)[0] if not i.is_unit]
    for r_mod in rings:
        assert e_open_outcome(r_mod, DEFAULT_POWER_CAP) == e_open_reference(r_mod, DEFAULT_POWER_CAP), r_mod
    return len(rings)


@pytest.mark.parametrize("box", SMALL_BOXES)
def test_search_reaches_every_weaker_target_of_a_box(box):
    assert check_searches(*box) > 0


@pytest.mark.parametrize("box", SMALL_BOXES)
def test_e_open_power_is_the_reference_on_every_ring_of_a_box(box):
    assert check_e_open(*box) > 0


if __name__ == "__main__":
    checks = [("cycle = oracle_lcl at every prime", "modules", check_cycles, LARGE_BOXES),
              ("search witness = target by oracle_lcl", "targets", check_searches, LARGE_SEARCH_BOXES),
              ("e-open power = reference", "rings", check_e_open, LARGE_SEARCH_BOXES)]
    for what, unit, check, boxes in checks:
        for box in boxes:
            start = time.perf_counter()
            count = check(*box)
            print("box %s: %d %s, %s, %.1f s" % (box, count, unit, what, time.perf_counter() - start))
