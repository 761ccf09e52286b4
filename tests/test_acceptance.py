"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every test here re-derives its expected values from first principles (hand
calculations, independent oracles, or exhaustive enumeration) rather than
from the engine under test.
"""

import io
import itertools
import json
import random
import time

import pytest

from ordlen.chow import Cycle, PrimeSupport, cycle_leq, prime
from ordlen.cli import run_text
from ordlen.errors import NotArtinianError
from ordlen.invariants import (
    associated_primes,
    basic_invariants,
    construct_submodule_of_length,
    dimension_filtration,
    fundamental_cycle,
    length,
    local_multiplicity,
)
from ordlen.monomial import (
    MonomialIdeal,
    SubquotientModule,
    ideal_intersection,
    prime_ideal,
)
from ordlen.oracle import oracle_artinian_length, oracle_lcl
from ordlen.ordinal import (
    Ordinal,
    cantor_sum,
    leq,
    meet,
    scalar_mul,
    shuffle_sum,
    truncate_above,
    truncate_below,
    weaker,
)
from ordlen.topology import closure, is_i_open, is_open, is_strongly_additive


def ideal(n, *exps):
    return MonomialIdeal.make(n, exps)


def ring_mod(n, *exps):
    return SubquotientModule.quotient_ring(ideal(n, *exps))


@pytest.fixture
def announce(request):
    """Write a line on the real terminal, past pytest's output capture."""
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def _announce(line):
        if reporter is not None:
            reporter.write_line(line)
        else:  # pragma: no cover - plain python invocation
            print(line)

    return _announce


def run_criterion(announce, num, name, body):
    def report(ok):
        announce("[acceptance %2d] %-52s %s" % (num, name, "PASS" if ok else "FAIL"))

    try:
        body()
    except BaseException:
        report(False)
        raise
    report(True)


def all_primes(n):
    for r in range(n + 1):
        for sub in itertools.combinations(range(n), r):
            yield PrimeSupport(n, frozenset(sub))


# ------------------------------------------------------------------ 1


def test_criterion_01_golden_plane_with_embedded_line(announce):
    def body():
        start = time.perf_counter()
        m = ring_mod(3, (2, 0, 0), (1, 1, 0))
        px, pxy = prime(3, [0]), prime(3, [0, 1])
        assert length(m) == Ordinal.from_coeffs({2: 1, 1: 1})
        assert associated_primes(m) == {px, pxy}
        assert fundamental_cycle(m) == Cycle.from_terms(3, {px: 1, pxy: 1})
        k = ideal(3, (1, 0, 0))
        assert length(m.submodule(k)) == Ordinal.omega_power(1)
        assert not is_open(m, k)
        assert is_open(m, ideal(3, (1, 0, 0), (0, 1, 0)))
        assert time.perf_counter() - start < 1.0

    run_criterion(announce, 1, "golden example: plane with embedded line", body)


# ------------------------------------------------------------------ 2


def test_criterion_02_golden_triple_line_cycle(announce):
    def body():
        m = ring_mod(3, (2, 0, 0), (1, 1, 0), (0, 2, 0))
        pxy = prime(3, [0, 1])
        assert length(m) == scalar_mul(3, Ordinal.omega_power(1))
        assert fundamental_cycle(m) == Cycle.from_terms(3, {pxy: 3})
        assert length(m.submodule(ideal(3, (1, 0, 0), (0, 1, 0)))) == scalar_mul(
            2, Ordinal.omega_power(1)
        )
        assert length(ring_mod(3, (1, 0, 0), (0, 1, 0))) == Ordinal.omega_power(1)

    run_criterion(announce, 2, "golden example: triple line fundamental cycle", body)


# ------------------------------------------------------------------ 3


def test_criterion_03_golden_adic_topology(announce):
    def body():
        m = ring_mod(2, (2, 0), (1, 1))
        assert length(m) == Ordinal.from_coeffs({1: 1, 0: 1})
        assert closure(m, m.lower) == ideal(2, (1, 0))
        witnesses = [
            m.lower,
            ideal(2, (1, 0)),
            ideal(2, (2, 0), (1, 1), (0, 2)),
            ideal(2, (2, 0), (1, 1), (0, 3)),
            ideal(2, (1, 0), (0, 1)),
            ideal(2, (1, 0), (0, 2)),
            ideal(2, (2, 0), (0, 1)),
            m.upper,
        ]
        closed_non_open = [
            k for k in witnesses if closure(m, k) == k and not is_open(m, k)
        ]
        assert closed_non_open == [ideal(2, (1, 0))]

    run_criterion(announce, 3, "golden example: closure in the adic comparison", body)


# ------------------------------------------------------------------ 4


def test_criterion_04_domain_law(announce):
    def body():
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(1, 5)
            s = frozenset(rng.sample(range(n), rng.randint(0, n)))
            p = PrimeSupport(n, s)
            m = SubquotientModule.quotient_ring(prime_ideal(p))
            assert length(m) == Ordinal.omega_power(p.dim)
            assert basic_invariants(m).valence == 1

    run_criterion(announce, 4, "domain law: len R/p = omega^dim on 50 primes", body)


# ------------------------------------------------------------------ 5


def test_criterion_05_oracle_equivalence(announce, chain_corpus):
    def body():
        start = time.perf_counter()
        artinian_seen = 0
        for m, k in chain_corpus:
            for piece in (m, m.submodule(k), m.quotient_by(k)):
                oracle = {p: oracle_lcl(piece, p) for p in all_primes(piece.ambient_n)}
                for p, expected in oracle.items():
                    assert local_multiplicity(piece, p) == expected
                assert associated_primes(piece) == {p for p, c in oracle.items() if c > 0}
                try:
                    classical = oracle_artinian_length(piece)
                except NotArtinianError:
                    continue
                artinian_seen += 1
                assert length(piece) == Ordinal.from_int(classical)
        assert artinian_seen > 0
        assert time.perf_counter() - start < 60.0

    run_criterion(announce, 5, "oracle equivalence on 200 chains and their pieces", body)


# ------------------------------------------------------------------ 6


def test_criterion_06_semi_additivity(announce, chain_corpus):
    def body():
        for m, k in chain_corpus:
            n_part = m.submodule(k)
            q_part = m.quotient_by(k)
            mu = length(m)
            nu = length(n_part)
            theta = length(q_part)
            lower = cantor_sum(theta, nu)
            assert leq(lower, mu)
            assert leq(mu, shuffle_sum(theta, nu))
            assert weaker(lower, mu)
            assert weaker(nu, mu)
            assert cycle_leq(fundamental_cycle(n_part), fundamental_cycle(m))
            direct = mu == lower and mu == shuffle_sum(theta, nu)
            by_dimension = (
                n_part.is_zero
                or q_part.is_zero
                or basic_invariants(n_part).dimension <= basic_invariants(q_part).order
            )
            assert direct == by_dimension == is_strongly_additive(m, k)

    run_criterion(announce, 6, "semi-additivity on 200 seeded chains", body)


# ------------------------------------------------------------------ 7


def test_criterion_07_dimension_filtration(announce, chain_corpus):
    def body():
        for m, _ in chain_corpus:
            if m.is_zero:
                continue
            mu = length(m)
            d = basic_invariants(m).dimension
            pieces = [dimension_filtration(m, i) for i in range(-1, d + 1)]
            assert pieces[-1].upper == m.upper
            total = Ordinal()
            for i in range(d + 1):
                assert length(pieces[i + 1]) == truncate_below(mu, i)
                graded = SubquotientModule(pieces[i].upper, pieces[i + 1].upper)
                step = length(graded)
                total = shuffle_sum(total, step)
                if not graded.is_zero:
                    inv = basic_invariants(graded)
                    assert inv.is_unmixed and inv.dimension == i
                    assert step == Ordinal.omega_power(i, inv.generic_length)
                assert is_strongly_additive(m, pieces[i + 1].upper)
            assert total == mu

    run_criterion(announce, 7, "dimension filtration decomposes the length", body)


# ------------------------------------------------------------------ 8


def _openness_equivalences(m, k):
    n_part = m.submodule(k)
    by_len = length(n_part) == length(m)
    by_cycle = fundamental_cycle(n_part) == fundamental_cycle(m)
    by_valence = length(n_part).valence == length(m).valence
    by_lcl = all(
        local_multiplicity(n_part, p) == local_multiplicity(m, p)
        for p in associated_primes(m)
    )
    assert by_len == by_cycle == by_valence == by_lcl == is_open(m, k)
    return by_len


def _check_nillow_and_big(m, k):
    q_part = m.quotient_by(k)
    opn = is_open(m, k)
    if q_part.is_zero:
        assert opn
        return
    inv_m = basic_invariants(m)
    dim_q = basic_invariants(q_part).dimension
    if dim_q < inv_m.order:
        assert opn
    if opn:
        assert dim_q < inv_m.dimension
    elif inv_m.is_unmixed and dim_q < inv_m.dimension:
        assert opn


def _check_closure_laws(m, k):
    cl = closure(m, k)
    assert cl.contains_ideal(k)
    assert closure(m, cl) == cl
    finite_part = dimension_filtration(m, 0).upper
    assert (cl == k) == k.contains_ideal(finite_part)
    if not m.is_zero:
        separated = basic_invariants(m).order > 0
        assert separated == (closure(m, m.lower) == m.lower)
        if separated:
            assert cl == k


def test_criterion_08_topology_suite(announce, chain_corpus, small_corpus):
    def body():
        for m, k in chain_corpus:
            _openness_equivalences(m, k)
            if not m.is_zero:
                _check_nillow_and_big(m, k)
            _check_closure_laws(m, k)

        for m, k in small_corpus:
            if m.is_zero:
                continue
            mu = length(m)
            d = mu.degree
            nu = length(m.submodule(k))

            # intersections of constructed opens stay open; opens are
            # essential and dominate closures
            u_open = construct_submodule_of_length(m, mu)
            opens = [w for w in (u_open, m.upper, k) if is_open(m, w)]
            for u, w in itertools.product(opens, opens):
                meet_ideal = ideal_intersection(u, w)
                assert is_open(m, meet_ideal)
            for u in opens:
                assert closure(m, m.lower).contains_ideal(
                    dimension_filtration(m, 0).upper
                )
                for h in (k, m.upper):
                    if not m.submodule(h).is_zero:
                        cap = m.submodule(ideal_intersection(u, h))
                        assert not cap.is_zero

            # i-opens: existence, conjunctivity, and stability under
            # intersection with arbitrary submodules
            for i in range(-1, d):
                target = truncate_above(mu, i)
                u_i = construct_submodule_of_length(m, target)
                assert is_i_open(m, u_i, i)
                for w in (k, m.upper):
                    cap = ideal_intersection(u_i, w)
                    theta = length(m.submodule(cap))
                    nu_w = length(m.submodule(w))
                    assert theta == meet(nu_w, target)
                    assert theta == truncate_above(nu_w, i)
            assert weaker(truncate_above(nu, -1), nu)

    run_criterion(announce, 8, "topology suite: openness, closure, i-opens", body)


# ------------------------------------------------------------------ 9


def test_criterion_09_ordinal_algebra_exhaustive(announce):
    def body():
        start = time.perf_counter()
        universe = [
            Ordinal.from_coeffs({e: c for e, c in enumerate(coeffs) if c})
            for coeffs in itertools.product(range(4), repeat=4)
        ]
        assert len(universe) == 256
        for a in universe:
            assert meet(a, a) == a
            assert shuffle_sum(a, Ordinal()) == a
            assert cantor_sum(a, Ordinal()) == a
            assert cantor_sum(Ordinal(), a) == a
            for i in range(-1, 5):
                assert shuffle_sum(truncate_above(a, i), truncate_below(a, i)) == a
        for a, b in itertools.product(universe, universe):
            s = shuffle_sum(a, b)
            assert s == shuffle_sum(b, a)
            assert leq(cantor_sum(a, b), s)
            mab = meet(a, b)
            assert mab == meet(b, a)
            assert weaker(mab, a) and weaker(mab, b)
            if weaker(a, b):
                assert leq(a, b)
            if weaker(a, b) and weaker(b, a):
                assert a == b
            assert leq(a, b) or leq(b, a)
            criterion = a.is_zero or b.is_zero or b.degree <= a.order
            assert (cantor_sum(a, b) == s) == criterion
        assert time.perf_counter() - start < 5.0

    run_criterion(announce, 9, "exhaustive ordinal algebra on 256 x 256 pairs", body)


# ------------------------------------------------------------------ 10

CLI_CASES = [
    (
        "ring x,y,z\nI = x^2, x*y\nP = x\nQ = x, y\n"
        "len I\nass I\ncycle I\nopen I P\nopen I Q\n",
        [
            "len R/I = ω^2 + ω",
            "(x), (x,y)",
            "[(x)] + [(x,y)]",
            "not open (len = ω)",
            "open",
        ],
    ),
    (
        "ring x,y,z\nI = x^2, x*y, y^2\nP = x, y\n"
        "len I\ncycle I\nlen P/I\nlen P\n",
        ["len R/I = 3ω", "3[(x,y)]", "len P/I = 2ω", "len R/P = ω"],
    ),
    (
        "ring x,y\nI = x^2, x*y\nlen I\nclosure I I\n",
        ["len R/I = ω + 1", "(x)"],
    ),
]

CLI_ERRORS = [
    ("", 1),
    ("ring x,y\nI = x^\nlen I\n", 1),
    ("ring x,y\nI = 2\n", 1),
    ("garbage I\n", 1),
    ("len I\n", 2),
    ("ring x,y\nlen I\n", 2),
    ("ring x,y\nI = q\nlen I\n", 2),
    ("ring x,y\nI = x^2\nK = y\nopen I K\n", 2),
]


def test_criterion_10_cli_conformance(announce):
    def body():
        for script, expected in CLI_CASES:
            out = io.StringIO()
            assert run_text(script, out=out, err=io.StringIO()) == 0
            assert out.getvalue().splitlines() == expected
            out = io.StringIO()
            assert run_text(script, as_json=True, out=out, err=io.StringIO()) == 0
            objs = [json.loads(line) for line in out.getvalue().splitlines()]
            assert len(objs) == len(expected)
            for obj in objs:
                assert "cmd" in obj
        # spot-check one JSON payload against the text golden
        out = io.StringIO()
        run_text(CLI_CASES[0][0], as_json=True, out=out, err=io.StringIO())
        first = json.loads(out.getvalue().splitlines()[0])
        assert first == {
            "cmd": "len",
            "module": "R/I",
            "length": {"2": 1, "1": 1},
            "display": "ω^2 + ω",
        }
        for text, code in CLI_ERRORS:
            assert run_text(text, out=io.StringIO(), err=io.StringIO()) == code

    run_criterion(announce, 10, "CLI conformance: goldens and exit codes", body)
