"""Every module generated inside a small exponent box, checked against the definitions.

A monomial ideal generated inside the box {0..b}^n is an antichain of that
box under divisibility, and a module J/I is a nested pair I <= J of such
ideals, so every small input can be listed (bounded-exhaustive testing;
the small scope hypothesis).  Tier-1 checks the (2, 3) and (3, 1) boxes.
Run as a script, with ordlen importable, it checks the (2, 4) and (3, 2)
boxes and prints one line per box:

    python tests/test_exhaustive.py
"""

import itertools
import time

import pytest

from ordlen import invariants
from ordlen.invariants import fundamental_cycle
from ordlen.monomial import MonomialIdeal, SubquotientModule
from ordlen.oracle import oracle_lcl
from test_oracle import all_primes

SMALL_BOXES = ((2, 3), (3, 1))
LARGE_BOXES = ((2, 4), (3, 2))


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


if __name__ == "__main__":
    for box in LARGE_BOXES:
        start = time.perf_counter()
        count = check_cycles(*box)
        print("box %s: %d modules, cycle = oracle_lcl at every prime, %.1f s"
              % (box, count, time.perf_counter() - start))
