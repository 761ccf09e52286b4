"""Seeded inputs and the per-item calls of the four benchmark workloads.

Every workload builds its inputs from a ``random.Random`` seeded with a
string, so the same ``--seed`` gives the same inputs in every interpreter
(string seeding does not depend on ``PYTHONHASHSEED``).  An item calls the
public ``ordlen`` API through module attributes (``cli.run_text``,
``invariants.length`` ...), never through names bound at import time, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass

from ordlen import chow, cli, invariants, ordinal, topology
from ordlen.chow import Cycle, PrimeSupport
from ordlen.errors import OrdlenError
from ordlen.monomial import MonomialIdeal, SubquotientModule
from ordlen.oracle import DEFAULT_PROFILE, STRESS_PROFILE, InstanceProfile, random_chain
from ordlen.ordinal import Ordinal

WORKLOADS = ("corpus", "structured", "search", "algebra")


class ItemFailed(Exception):
    """An item ended with a non-zero exit code or an ``OrdlenError``."""


def _rng(workload: str, seed: int, part: int, warm: bool) -> random.Random:
    # warm-up inputs come from a different stream than the timed ones, so
    # warming never turns the timed pass into cache hits
    return random.Random("%s:%s:%d:%d" % (workload, "warm" if warm else "timed", seed, part))


# ------------------------------------------------------------------ corpus

CORPUS_ITEMS = 1000
CORPUS_WARM_ITEMS = 40
CORPUS_STRESS_EVERY = 100  # one STRESS_PROFILE chain in a hundred: rare ones take ~1 s


@dataclass(frozen=True)
class CorpusItem:
    module: SubquotientModule  # J/I
    middle: MonomialIdeal  # K
    text: str  # the script handed to run_text


def var_names(n: int) -> list[str]:
    return ["x%d" % i for i in range(n)]


def _ideal_text(i: MonomialIdeal, names: list[str]) -> str:
    if i.is_zero:
        return "0"
    return ", ".join(cli.render_monomial(g, names) for g in i.gens)


def corpus_script(m: SubquotientModule, k: MonomialIdeal) -> str:
    names = var_names(m.ambient_n)
    lines = [
        "ring " + ",".join(names),
        "I = " + _ideal_text(m.lower, names),
        "K = " + _ideal_text(k, names),
    ]
    if m.upper.is_unit:
        ref, rest = "I", "K"
    else:
        lines.append("J = " + _ideal_text(m.upper, names))
        ref, rest = "J/I", "J/K"
    for cmd in ("len", "cycle", "ass", "filtration"):
        lines.append("%s %s" % (cmd, ref))
    lines += [
        "len K/I",
        "len " + rest,
        "open %s K" % ref,
        "iopen 0 %s K" % ref,
        "closure %s K" % ref,
    ]
    return "\n".join(lines) + "\n"


def corpus_inputs(rng: random.Random, count: int) -> list[CorpusItem]:
    items: list[CorpusItem] = []
    while len(items) < count:
        stress = len(items) % CORPUS_STRESS_EVERY == CORPUS_STRESS_EVERY - 1
        m, k = random_chain(rng.randrange(2**32), STRESS_PROFILE if stress else DEFAULT_PROFILE)
        if m.is_zero:  # the dimension filtration of the zero module is an error
            continue
        items.append(CorpusItem(m, k, corpus_script(m, k)))
    return items


def corpus_run(item: CorpusItem):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run_text(item.text, as_json=True, out=out, err=err)
    if code:
        raise ItemFailed("run_text exit %d: %s" % (code, err.getvalue().strip()))
    power = topology.find_e_open_power(item.module) if item.module.upper.is_unit else None
    return out.getvalue(), power


# -------------------------------------------------------------- structured

# (n, d) rows of R/(x_1^{d_1}, ..., x_n^{d_n}, x_1...x_n); each d_i is drawn
# from d +- STRUCTURED_SPREAD * d, which is no spread at all for small d.
# Growing n at small d and d at small n.  Five (2, ~120) rows of nearly
# equal cost sit around the median item, so it does not jump between rows;
# the slowest row, (2, 400), sets the tail.  A pass takes about 2 s, so a
# run holds enough passes for a steady median.
STRUCTURED_GRID = (
    (2, 400), (2, 130), (2, 125), (2, 120), (2, 115), (2, 110), (2, 90), (3, 10),
    (3, 8), (3, 7), (4, 4), (4, 3), (5, 3), (6, 2), (7, 2),
)
STRUCTURED_WARM_GRID = ((2, 40), (3, 5), (5, 2))
STRUCTURED_SPREAD = 0.02


def power_module(ds: tuple[int, ...], extra: tuple[tuple[int, ...], ...] = ()) -> SubquotientModule:
    """R/(x_1^d_1, ..., x_n^d_n) with the monomials in ``extra`` added to the ideal."""
    n = len(ds)
    gens = [tuple(d if j == i else 0 for j in range(n)) for i, d in enumerate(ds)]
    return SubquotientModule.quotient_ring(MonomialIdeal.make(n, gens + list(extra)))


def structured_module(ds: tuple[int, ...]) -> SubquotientModule:
    return power_module(ds, ((1,) * len(ds),))


def structured_inputs(rng: random.Random, grid) -> list[tuple[tuple[int, ...], SubquotientModule]]:
    items = []
    for n, d in grid:
        w = int(d * STRUCTURED_SPREAD)
        ds = tuple(rng.randint(d - w, d + w) for _ in range(n))
        items.append((ds, structured_module(ds)))
    return items


def structured_run(item):
    return invariants.length(item[1])


# ------------------------------------------------------------------ search

SEARCH_ITEMS = 200
SEARCH_WARM_ITEMS = 12
# Artinian staircases (x_1^d_1, ..., x_n^d_n, x^u): n and the range each d_i
# is drawn from; the corner x^u is drawn per variable below the powers
SEARCH_POWERS = ((1, 2, 40), (2, 2, 5), (3, 2, 3))
# (x_1^4, x_2^4, x_3^4) at full length, about 1.3 s: once per pass, at this index
SEARCH_BIG = (4, 4, 4)
SEARCH_BIG_AT = SEARCH_ITEMS // 2 + 1
# mixed modules: n -> the largest exponents a of x_0 and b_j of x_j, j >= 1
SEARCH_MIXED = {2: (6, 5), 3: (5, 2)}
SEARCH_RINGS = InstanceProfile(max_vars=4, max_gens=6, max_degree=5, ring_bias=1.0)


@dataclass(frozen=True)
class SearchItem:
    kind: str  # "submod" or "eopen"
    module: SubquotientModule
    target: Ordinal | None = None


def staircase(ds: tuple[int, ...], corner: tuple[int, ...]) -> tuple[SubquotientModule, Ordinal]:
    """R/(x_1^d_1, ..., x_n^d_n, x^corner) with 1 <= corner_i <= d_i, and its
    length prod(d_i) - prod(d_i - corner_i)."""
    mu = math.prod(ds) - math.prod(d - u for d, u in zip(ds, corner))
    return power_module(ds, (corner,)), Ordinal.from_int(mu)


def mixed_module(a: int, c: int, bs: tuple[int, ...], c_up: int) -> tuple[SubquotientModule, Ordinal]:
    """(x_0^c_up)/(x_0^a, x_0^c x_1^b_1 ... x_k^b_k) in n = k + 1 variables,
    with its length.

    With c_up <= c < a and some b_j > 0 the module has (c - c_up) omega^(n-1)
    from the prime (x_0) and (a - c) b_j omega^(n-2) from each embedded
    prime (x_0, x_j).
    """
    n = len(bs) + 1
    x0 = (a,) + (0,) * (n - 1)
    lower = MonomialIdeal.make(n, [x0, (c,) + bs])
    upper = MonomialIdeal.make(n, [(c_up,) + (0,) * (n - 1)])
    mu = Ordinal.from_coeffs({n - 1: c - c_up, n - 2: (a - c) * sum(bs)})
    return SubquotientModule(lower, upper), mu


def _weaker_target(rng: random.Random, mu: Ordinal, full: bool) -> Ordinal:
    """mu itself when ``full``, otherwise a nonzero ordinal weaker than mu."""
    if full:
        return mu
    nu = Ordinal.from_coeffs({e: rng.randint(0, c) for e, c in mu.terms})
    return nu if not nu.is_zero else mu


def _search_module(rng: random.Random, slot: int, turn: int) -> tuple[SubquotientModule, Ordinal | None]:
    """A module of the given slot; ``turn`` picks its number of variables, so
    that every pass has the same mix of sizes."""
    if slot == 0:  # e-open power of a seeded quotient ring
        return random_chain(rng.randrange(2**32), SEARCH_RINGS)[0], None
    if slot == 1:  # Artinian staircase
        n, lo, hi = SEARCH_POWERS[turn % len(SEARCH_POWERS)]
        ds = tuple(rng.randint(lo, hi) for _ in range(n))
        return staircase(ds, tuple(rng.randint(1, d) for d in ds))
    # mixed-dimension module
    n = sorted(SEARCH_MIXED)[turn % len(SEARCH_MIXED)]
    top_a, top_b = SEARCH_MIXED[n]
    a = rng.randint(2, top_a)
    c = rng.randint(1, a - 1)
    bs = (0,)
    while not any(bs):
        bs = tuple(rng.randint(0, top_b) for _ in range(n - 1))
    return mixed_module(a, c, bs, rng.randint(0, c - 1))


def search_inputs(rng: random.Random, count: int, exclude=frozenset()) -> list[SearchItem]:
    """``count`` items on distinct modules, none of them in ``exclude``.

    The searches are deterministic and ``length`` is memoised, so a module
    seen before would turn its whole search, or the shared prefix of one
    with another target, into cache hits.  The kinds of item, their sizes
    and full or partial targets rotate; the seed draws the exponents.
    """
    items: list[SearchItem] = []
    seen = set(exclude)
    while len(items) < count:
        idx = len(items)
        slot, turn = idx % 4, idx // 4
        if idx == SEARCH_BIG_AT:
            m, mu = staircase(SEARCH_BIG, SEARCH_BIG)
            items.append(SearchItem("submod", m, mu))
        else:
            m, mu = _search_module(rng, slot, turn if slot == 1 else slot)
            if m in seen:
                continue
            target = None if mu is None else _weaker_target(rng, mu, full=turn % 2 == 0)
            items.append(SearchItem("eopen" if mu is None else "submod", m, target))
        seen.add(m)
    return items


def search_run(item: SearchItem):
    if item.kind == "eopen":
        return topology.find_e_open_power(item.module)
    return invariants.construct_submodule_of_length(item.module, item.target)


# ----------------------------------------------------------------- algebra

ALGEBRA_ITEMS = 100
ALGEBRA_WARM_ITEMS = 5
# operations in item k: ALGEBRA_BATCHES[k % 5], 1000 on average.  Large
# batches keep item times steady; five sizes of twenty items each put the
# median (rank 50) and p90 (rank 90) in the middle of a size, so that both
# read a median of like items, not the host's noise between like items
ALGEBRA_BATCHES = (600, 800, 1000, 1200, 1400)
ALGEBRA_POOL = 64
ALGEBRA_TOP = 4  # ordinals below omega^4
ALGEBRA_VARS = 4
ALGEBRA_SORT = 4  # ordinals sorted by the total order in one operation
# operation codes; "sort" takes a list, "trunc_*" an ordinal and an index
ALGEBRA_OPS = (
    "cantor_sum", "shuffle_sum", "meet", "weaker", "sort", "truncate_above",
    "truncate_below", "cycle_add", "cycle_sub", "cycle_leq", "binord",
)


def _random_ordinal(rng: random.Random) -> Ordinal:
    return Ordinal.from_coeffs({e: rng.choice((0, 1, 2, 3, 7)) for e in range(ALGEBRA_TOP)})


def _random_cycle(rng: random.Random, n: int) -> Cycle:
    primes = [PrimeSupport(n, frozenset(v for v in range(n) if mask >> v & 1)) for mask in range(1 << n)]
    terms = {p: rng.randint(1, 4) for p in rng.sample(primes, rng.randint(1, min(6, len(primes))))}
    return Cycle.from_terms(n, terms)


def algebra_inputs(rng: random.Random, count: int) -> list[list[tuple]]:
    ords = [_random_ordinal(rng) for _ in range(ALGEBRA_POOL)]
    cycles = [
        [_random_cycle(rng, n) for _ in range(ALGEBRA_POOL // ALGEBRA_VARS)]
        for n in range(1, ALGEBRA_VARS + 1)
    ]
    kinds = [name if name in ("sort", "binord") else name.split("_")[0] for name in ALGEBRA_OPS]
    no, nc, ncut = len(ords), len(cycles[0]), ALGEBRA_TOP + 1
    items = []
    for k in range(count):
        # five random bytes pick one operation and its operands, so building
        # a hundred thousand operations keeps set-up short
        raw = rng.randbytes(5 * ALGEBRA_BATCHES[k % len(ALGEBRA_BATCHES)])
        batch = []
        for j in range(0, len(raw), 5):
            op = raw[j] % len(ALGEBRA_OPS)
            kind, r1, r2, r3, r4 = kinds[op], raw[j + 1], raw[j + 2], raw[j + 3], raw[j + 4]
            if kind == "sort":
                batch.append((op, [ords[r % no] for r in (r1, r2, r3, r4)[:ALGEBRA_SORT]], None))
            elif kind == "truncate":
                batch.append((op, ords[r1 % no], r2 % ncut - 1))
            elif kind in ("cycle", "binord"):
                pool = cycles[r1 % len(cycles)]
                batch.append((op, pool[r2 % nc], pool[r3 % nc]))
            else:
                batch.append((op, ords[r1 % no], ords[r2 % no]))
        items.append(batch)
    return items


def algebra_run(batch):
    out = []
    for op, a, b in batch:
        if op == 0:
            out.append(ordinal.cantor_sum(a, b))
        elif op == 1:
            out.append(ordinal.shuffle_sum(a, b))
        elif op == 2:
            out.append(ordinal.meet(a, b))
        elif op == 3:
            out.append(ordinal.weaker(a, b))
        elif op == 4:
            out.append(sorted(a))
        elif op == 5:
            out.append(ordinal.truncate_above(a, b))
        elif op == 6:
            out.append(ordinal.truncate_below(a, b))
        elif op == 7:
            out.append(chow.cycle_add(a, b))
        elif op == 8:
            out.append(chow.cycle_sub(a, b))
        elif op == 9:
            out.append(chow.cycle_leq(a, b))
        else:
            out.append(chow.binord(a))
    return out


# ------------------------------------------------------------------- table


def build(workload: str, seed: int, part: int = 0, warm: bool = False) -> list:
    """The items of pass ``part`` for this seed; ``warm`` gives its warm-up set."""
    rng = _rng(workload, seed, part, warm)
    if workload == "corpus":
        return corpus_inputs(rng, CORPUS_WARM_ITEMS if warm else CORPUS_ITEMS)
    if workload == "structured":
        return structured_inputs(rng, STRUCTURED_WARM_GRID if warm else STRUCTURED_GRID)
    if workload == "search":
        if warm:
            return search_inputs(rng, SEARCH_WARM_ITEMS)
        # the timed items share no module with the warm-up items
        warmed = {item.module for item in build(workload, seed, part, warm=True)}
        return search_inputs(rng, SEARCH_ITEMS, exclude=warmed)
    if workload == "algebra":
        return algebra_inputs(rng, ALGEBRA_WARM_ITEMS if warm else ALGEBRA_ITEMS)
    raise ValueError("unknown workload %r" % workload)


RUNNERS = {
    "corpus": corpus_run,
    "structured": structured_run,
    "search": search_run,
    "algebra": algebra_run,
}


def run_item(workload: str, item):
    """Run one item; engine errors that end an item become ItemFailed."""
    try:
        return RUNNERS[workload](item)
    except OrdlenError as exc:
        raise ItemFailed("%s: %s" % (type(exc).__name__, exc)) from exc
