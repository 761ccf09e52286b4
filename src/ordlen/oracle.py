"""Independent brute-force routes used to validate the main engine.

These deliberately avoid the engine's standard-pair slice count: local
multiplicities are recomputed by contracting through saturations and
scanning an exponent box, and classical lengths by direct monomial
counting.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .chow import PrimeSupport
from .errors import NotArtinianError
from .monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    ideal_sum,
    prime_ideal,
    saturation,
    unit_ideal,
)


def oracle_lcl(m: SubquotientModule, p: PrimeSupport) -> int:
    """Local multiplicity at p from saturations and a box scan, without standard pairs.

    Both ideals are first contracted through localization at p (saturation
    by the product of the outside variables); the p-torsion part is then
    the saturation by p itself.  Each torsion class has a unique monomial
    representative supported on p's variables, and those are counted
    inside the exponent box spanned by the contracted lower ideal.
    """
    n = m.ambient_n
    outside = Monomial(tuple(0 if v in p.vars else 1 for v in range(n)))
    unit_out = MonomialIdeal.make(n, [outside])
    lower_c = saturation(m.lower, unit_out)
    upper_c = saturation(m.upper, unit_out)
    torsion = saturation(lower_c, prime_ideal(p))
    bounds = [
        max((g.exponents[v] for g in lower_c.gens), default=0) if v in p.vars else 1
        for v in range(n)
    ]
    count = 0
    for exps in itertools.product(*(range(b) for b in bounds)):
        mono = Monomial(exps)
        if not lower_c.contains(mono) and torsion.contains(mono) and upper_c.contains(mono):
            count += 1
    return count


def oracle_artinian_length(m: SubquotientModule) -> int:
    """Classical length of an Artinian J/I: the number of monomials in J\\I.

    Raises NotArtinianError unless every variable is nilpotent on the
    module (x_v^k J inside I for some k).
    """
    n = m.ambient_n
    for v in range(n):
        x_v = MonomialIdeal.make(n, [tuple(1 if j == v else 0 for j in range(n))])
        if not saturation(m.lower, x_v).contains_ideal(m.upper):
            raise NotArtinianError("variable %d is not nilpotent on the module" % v)
    bounds = [max((g.exponents[v] for g in m.lower.gens), default=0) for v in range(n)]
    count = 0
    for exps in itertools.product(*(range(b) for b in bounds)):
        mono = Monomial(exps)
        if m.upper.contains(mono) and not m.lower.contains(mono):
            count += 1
    return count


def krull_dimension(i: MonomialIdeal) -> int:
    """Krull dimension of R/i via minimal transversals of generator supports.

    The minimal primes of a monomial ideal are the minimal hitting sets of
    its generators' supports, so the height is the smallest hitting set.
    The unit ideal gives the zero ring, reported as dimension -1.
    """
    if i.is_unit:
        return -1
    n = i.ambient_n
    supports = [g.support for g in i.gens]
    for r in range(n + 1):
        for sub in itertools.combinations(range(n), r):
            chosen = set(sub)
            if all(chosen & s for s in supports):
                return n - r
    raise AssertionError("unreachable: the full variable set hits every support")


@dataclass(frozen=True)
class InstanceProfile:
    """Bounds for the seeded instance generator (desk-scale by default)."""

    max_vars: int = 4
    max_gens: int = 6
    max_degree: int = 5
    ring_bias: float = 0.5


DEFAULT_PROFILE = InstanceProfile()
STRESS_PROFILE = InstanceProfile(max_vars=6, max_gens=8, max_degree=8)


def _random_monomial(rng: random.Random, n: int, max_degree: int, min_degree: int = 1) -> Monomial:
    d = rng.randint(min_degree, max(max_degree, min_degree))
    exps = [0] * n
    for _ in range(d):
        exps[rng.randrange(n)] += 1
    return Monomial(tuple(exps))


def random_instance(seed: int, profile: InstanceProfile = DEFAULT_PROFILE) -> SubquotientModule:
    """Deterministic random subquotient J/I; valid inclusions by construction."""
    m, _ = random_chain(seed, profile)
    return m


def random_chain(
    seed: int, profile: InstanceProfile = DEFAULT_PROFILE
) -> tuple[SubquotientModule, MonomialIdeal]:
    """Deterministic random module (I, J) together with a middle ideal K."""
    rng = random.Random(seed)
    n = rng.randint(1, profile.max_vars)
    lower = MonomialIdeal.make(
        n,
        [
            _random_monomial(rng, n, profile.max_degree)
            for _ in range(rng.randint(0, profile.max_gens))
        ],
    )
    if rng.random() < profile.ring_bias:
        upper = unit_ideal(n)
    else:
        extra = [_random_monomial(rng, n, profile.max_degree) for _ in range(rng.randint(1, 3))]
        upper = ideal_sum(lower, MonomialIdeal.make(n, extra))
    # middle ideal: adjoin multiples of upper generators so K stays inside J
    mids = []
    for _ in range(rng.randint(0, 2)):
        if upper.gens:
            base = rng.choice(upper.gens)
            mids.append(base.times(_random_monomial(rng, n, 2, min_degree=0)))
    middle = ideal_sum(lower, MonomialIdeal.make(n, mids))
    return SubquotientModule(lower, upper), middle
