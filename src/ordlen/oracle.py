"""Independent brute-force routes used to validate the main engine.

These share no code path with the engine: no standard pairs, no
minimisation, no ideal operation.  Membership is decided by definition,
with one divisibility test against the given generators.  For K at or
above every exponent of I and J, y lies in L : x_v^infinity exactly when
y + K*e_v lies in L, so localizing at a prime and taking torsion are each
one such test per point of an exponent box.  Classical lengths are direct
monomial counts.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .chow import PrimeSupport
from .errors import AmbientMismatchError, NotArtinianError
from .monomial import (
    Monomial,
    MonomialIdeal,
    SubquotientModule,
    ideal_sum,
    unit_ideal,
)
from .ordinal import Value


def _top(m: SubquotientModule) -> int:
    """A K at or above every generator exponent of I and of J."""
    return max((e for g in m.lower.gens + m.upper.gens for e in g), default=0)


def _below_top(low: MonomialIdeal, v: int) -> range:
    """The x_v-exponents below every x_v-exponent of I's generators."""
    return range(max((g[v] for g in low.gens), default=0))


def oracle_lcl(m: SubquotientModule, p: PrimeSupport) -> int:
    """Local multiplicity at p by definition, from a box scan without standard pairs.

    Localizing at p contracts L to L : x_out^infinity, x_out the product of
    the variables outside p: y lies in the contraction when y with every
    outside exponent set to K lies in L.  The p-torsion of the contracted
    I is its meet over the x_v in p of the contractions by x_v^infinity.
    Each torsion class has one monomial representative on p's variables;
    past the top x_v-exponent of I it lies in the contracted I, so only
    the box below those exponents is scanned.
    """
    if p.ambient_n != m.ambient_n:
        raise AmbientMismatchError("prime over a different ring")
    low, up, big = m.lower, m.upper, _top(m)
    box = [_below_top(low, v) if v in p.vars else (big,) for v in range(m.ambient_n)]
    return sum(
        1
        for y in itertools.product(*box)
        if up.contains(y)
        and not low.contains(y)
        and all(low.contains(y[:v] + (big,) + y[v + 1 :]) for v in p.vars)
    )


def oracle_artinian_length(m: SubquotientModule) -> int:
    """Classical length of an Artinian J/I: the number of monomials in J\\I.

    Raises NotArtinianError unless every variable is nilpotent on the
    module: x_v^k J inside I for some k, so each generator of J with its
    x_v-exponent set to K lies in I.
    """
    n = m.ambient_n
    low, up, big = m.lower, m.upper, _top(m)
    for v in range(n):
        if not all(low.contains(f[:v] + (big,) + f[v + 1 :]) for f in up.gens):
            raise NotArtinianError("variable %d is not nilpotent on the module" % v)
    box = (_below_top(low, v) for v in range(n))
    return sum(1 for y in itertools.product(*box) if up.contains(y) and not low.contains(y))


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


class InstanceProfile(Value, namedtuple("InstanceProfile", "max_vars max_gens max_degree ring_bias",
                                        defaults=(4, 6, 5, 0.5))):
    """Bounds for the seeded instance generator (desk-scale by default)."""

    __slots__ = ()


DEFAULT_PROFILE = InstanceProfile()
STRESS_PROFILE = InstanceProfile(max_vars=6, max_gens=8, max_degree=8)


def _random_monomial(rng: random.Random, n: int, max_degree: int, min_degree: int = 1) -> Monomial:
    d = rng.randint(min_degree, max(max_degree, min_degree))
    exps = [0] * n
    for _ in range(d):
        exps[rng.randrange(n)] += 1
    return Monomial(exps)


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
