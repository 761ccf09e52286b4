"""The correctness gate: every answer checked against a source the engine does not use.

- corpus: ``oracle_lcl`` over all monomial primes gives the cycle, the
  length and the associated primes; ``oracle_artinian_length`` checks the
  finite-length piece of the dimension filtration.
- structured: the closed form prod(d_i) - prod(d_i - 1).
- search: I <= K <= J and the oracle length of K/I equals the target; an
  e-open power n is e-open and power n - 1 is not, by oracle lengths.
- algebra: a dense-coefficient reference implemented here.

``check`` returns a list of messages, empty when every answer is right.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import workloads
from ordlen.chow import Cycle, PrimeSupport
from ordlen.monomial import MonomialIdeal, SubquotientModule, unit_ideal
from ordlen.oracle import oracle_artinian_length, oracle_lcl
from ordlen.ordinal import Ordinal


def _mask(p: PrimeSupport) -> int:
    return sum(1 << v for v in p.vars)


def dense(a: Ordinal) -> dict:
    return {str(e): c for e, c in a.terms}


def _sparse(coeffs: dict[int, int]) -> dict:
    return {str(e): c for e, c in sorted(coeffs.items(), reverse=True) if c}


# ------------------------------------------------------------- oracle side


def _primes(n: int):
    for mask in range(1 << n):
        yield mask, PrimeSupport(n, frozenset(v for v in range(n) if mask >> v & 1))


@lru_cache(maxsize=None)
def oracle_cycle(m: SubquotientModule, within: frozenset[int] | None = None) -> dict[int, int]:
    """{prime mask: local multiplicity}, nonzero entries only.

    Every monomial prime is examined unless ``within`` names the masks that
    can occur: a submodule N of M has lcl_p(N) <= lcl_p(M), since p-torsion
    is left exact, so Ass(M) bounds the primes of every submodule of M.
    The result is memoised (one item's checks meet the same module more
    than once) and must not be mutated.
    """
    out = {}
    for mask, p in _primes(m.ambient_n):
        if within is not None and mask not in within:
            continue
        c = oracle_lcl(m, p)
        if c:
            out[mask] = c
    return out


def cycle_length(cyc: dict[int, int], n: int) -> dict:
    coeffs: dict[int, int] = {}
    for mask, c in cyc.items():
        dim = n - bin(mask).count("1")
        coeffs[dim] = coeffs.get(dim, 0) + c
    return _sparse(coeffs)


def oracle_length(m: SubquotientModule, within: frozenset[int] | None = None) -> dict:
    return cycle_length(oracle_cycle(m, within), m.ambient_n)


def _truncate(length: dict, keep) -> dict:
    return {e: c for e, c in length.items() if keep(int(e))}


def _parse_mono(text: str, n: int) -> tuple[int, ...]:
    exps = [0] * n
    if text != "1":
        for factor in text.split("*"):
            var, _, exp = factor.partition("^")
            exps[int(var[1:])] += int(exp) if exp else 1
    return tuple(exps)


def _parse_ideal(monos: list[str], n: int) -> MonomialIdeal:
    return MonomialIdeal.make(n, [_parse_mono(t, n) for t in monos])


def _between(lower: MonomialIdeal, k: MonomialIdeal, upper: MonomialIdeal) -> bool:
    return k.contains_ideal(lower) and upper.contains_ideal(k)


def _product_ideal(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    return MonomialIdeal.make(a.ambient_n, [f.times(g) for f in a.gens for g in b.gens])


def check_e_open(r_mod: SubquotientModule, answer) -> list[str]:
    """Power n of a is e-open in R/I and power n - 1 is not, by oracle lengths."""
    n_vars = r_mod.ambient_n
    power, ideal = answer
    cyc = oracle_cycle(r_mod)
    length = cycle_length(cyc, n_vars)
    order = min(n_vars - bin(mask).count("1") for mask in cyc)
    # a = intersection of the order-dimension primes: its generators are the
    # squarefree monomials whose support meets every one of those primes
    low = [mask for mask in cyc if n_vars - bin(mask).count("1") == order]
    hitting = [
        tuple(1 if s >> v & 1 else 0 for v in range(n_vars))
        for s in range(1 << n_vars)
        if all(s & mask for mask in low)
    ]
    a = MonomialIdeal.make(n_vars, hitting)
    target = _truncate(length, lambda e: e > order)
    errors = []

    def e_open(n: int) -> tuple[bool, MonomialIdeal]:
        a_n = unit_ideal(n_vars)
        for _ in range(n):
            a_n = _product_ideal(a_n, a)
        k = MonomialIdeal.make(n_vars, a_n.gens + r_mod.lower.gens)
        sub = SubquotientModule(r_mod.lower, k)
        return oracle_length(sub, frozenset(cyc)) == target, k

    ok_n, k_n = e_open(power)
    if not ok_n:
        errors.append("power %d is not e-open" % power)
    if k_n != ideal:
        errors.append("returned ideal is not a^%d + I" % power)
    if power > 1 and e_open(power - 1)[0]:
        errors.append("power %d is already e-open" % (power - 1))
    return errors


def check_corpus_item(item: workloads.CorpusItem, answer) -> list[str]:
    text, power = answer
    m, k = item.module, item.middle
    n = m.ambient_n
    names = workloads.var_names(n)
    out = [json.loads(line) for line in text.splitlines()]
    if [o["cmd"] for o in out] != [
        "len", "cycle", "ass", "filtration", "len", "len", "open", "iopen", "closure"
    ]:
        return ["unexpected command outputs %r" % [o.get("cmd") for o in out]]
    errors = []
    cyc = oracle_cycle(m)
    ass = frozenset(cyc)  # bounds the primes of every submodule of J/I
    length = cycle_length(cyc, n)
    if out[0]["length"] != length:
        errors.append("len J/I %r, oracle %r" % (out[0]["length"], length))
    engine_cycle = {
        sum(1 << names.index(v) for v in term["vars"]): term["mult"] for term in out[1]["cycle"]
    }
    if engine_cycle != cyc:
        errors.append("cycle %r, oracle %r" % (engine_cycle, cyc))
    engine_ass = {sum(1 << names.index(v) for v in vs) for vs in out[2]["primes"]}
    if engine_ass != set(cyc):
        errors.append("ass %r, oracle %r" % (sorted(engine_ass), sorted(cyc)))

    pieces = [_parse_ideal(monos, n) for monos in out[3]["ideals"]]
    dim = max(n - bin(mask).count("1") for mask in cyc)
    if len(pieces) != dim + 1:
        errors.append("filtration has %d pieces for dimension %d" % (len(pieces), dim))
    for i, piece in enumerate(pieces):
        if not _between(m.lower, piece, m.upper):
            errors.append("filtration piece %d not between I and J" % i)
            continue
        sub = SubquotientModule(m.lower, piece)
        want = _truncate(length, lambda e: e <= i)
        if i == 0:
            got = _sparse({0: oracle_artinian_length(sub)})
        else:
            got = oracle_length(sub, ass)
        if got != want:
            errors.append("filtration piece %d has length %r, want %r" % (i, got, want))

    sub_cycle = oracle_cycle(SubquotientModule(m.lower, k), ass)
    sub_length = cycle_length(sub_cycle, n)
    if out[4]["length"] != sub_length:
        errors.append("len K/I %r, oracle %r" % (out[4]["length"], sub_length))
    rest = oracle_length(SubquotientModule(k, m.upper))
    if out[5]["length"] != rest:
        errors.append("len J/K %r, oracle %r" % (out[5]["length"], rest))
    if out[6]["open"] != (sub_cycle == cyc):
        errors.append("open is %r" % out[6]["open"])
    if out[7]["iopen"] != (sub_length == _truncate(length, lambda e: e > 0)):
        errors.append("iopen 0 is %r" % out[7]["iopen"])
    closure = _parse_ideal(out[8]["ideal"], n)
    if pieces and closure != MonomialIdeal.make(n, k.gens + pieces[0].gens):
        errors.append("closure is not K plus the finite-length piece")

    if m.upper.is_unit:
        errors += check_e_open(m, power)
    elif power is not None:
        errors.append("unexpected e-open power on a module that is not a ring")
    return errors


def check_search_item(item: workloads.SearchItem, answer) -> list[str]:
    m = item.module
    if item.kind == "eopen":
        return check_e_open(m, answer)
    if not _between(m.lower, answer, m.upper):
        return ["K is not between I and J"]
    sub = SubquotientModule(m.lower, answer)
    want = dense(item.target)
    if item.target.degree == 0:
        got = _sparse({0: oracle_artinian_length(sub)})
    else:
        got = oracle_length(sub)
    return [] if got == want else ["len K/I %r, target %r" % (got, want)]


def check_structured_item(item, answer) -> list[str]:
    ds = item[0]
    want = _sparse({0: math.prod(ds) - math.prod(d - 1 for d in ds)})
    got = dense(answer)
    return [] if got == want else ["length %r, closed form %r" % (got, want)]


# ------------------------------------------------------- dense reference


def _dord(a: Ordinal) -> dict[int, int]:
    return dict(a.terms)


def _dcyc(c: Cycle) -> dict[int, int]:
    return {_mask(p): v for p, v in c.terms}


def _clean(d: dict[int, int]) -> dict[int, int]:
    return {k: v for k, v in d.items() if v}


def _rank(d: dict[int, int]) -> tuple:
    return tuple(d.get(e, 0) for e in range(workloads.ALGEBRA_VARS + 1, -1, -1))


def reference_op(op: int, a, b):
    """The dense-coefficient answer of one algebra operation."""
    name = workloads.ALGEBRA_OPS[op]
    if name == "sort":
        return sorted((_dord(x) for x in a), key=_rank)
    if name == "truncate_above":
        return {e: c for e, c in _dord(a).items() if e > b}
    if name == "truncate_below":
        return {e: c for e, c in _dord(a).items() if e <= b}
    if name == "binord":
        n = a.ambient_n
        out: dict[int, int] = {}
        for mask, c in _dcyc(a).items():
            dim = n - bin(mask).count("1")
            out[dim] = out.get(dim, 0) + c
        return out
    if name.startswith("cycle"):
        x, y = _dcyc(a), _dcyc(b)
        keys = set(x) | set(y)
        if name == "cycle_leq":
            return all(x.get(k, 0) <= y.get(k, 0) for k in keys)
        sign = 1 if name == "cycle_add" else -1
        return _clean({k: x.get(k, 0) + sign * y.get(k, 0) for k in keys})
    x, y = _dord(a), _dord(b)
    keys = set(x) | set(y)
    if name == "shuffle_sum":
        return _clean({k: x.get(k, 0) + y.get(k, 0) for k in keys})
    if name == "meet":
        return _clean({k: min(x.get(k, 0), y.get(k, 0)) for k in keys})
    if name == "weaker":
        return all(x.get(k, 0) <= y.get(k, 0) for k in keys)
    # cantor_sum: a's terms above b's leading exponent, then b with its
    # leading coefficient raised by a's coefficient there
    if not y:
        return x
    top = max(y)
    out = {k: v for k, v in x.items() if k > top}
    out.update(y)
    out[top] = x.get(top, 0) + y[top]
    return out


def _engine_dense(value):
    if isinstance(value, Ordinal):
        return _dord(value)
    if isinstance(value, Cycle):
        return _dcyc(value)
    if isinstance(value, list):
        return [_engine_dense(v) for v in value]
    return value


def check_algebra_item(batch, answer) -> list[str]:
    errors = []
    for j, ((op, a, b), got) in enumerate(zip(batch, answer)):
        want = reference_op(op, a, b)
        if _engine_dense(got) != want:
            errors.append("op %d (%s): %r, reference %r" % (j, workloads.ALGEBRA_OPS[op], got, want))
    if len(answer) != len(batch):
        errors.append("%d answers for %d operations" % (len(answer), len(batch)))
    return errors


CHECKS = {
    "corpus": check_corpus_item,
    "structured": check_structured_item,
    "search": check_search_item,
    "algebra": check_algebra_item,
}


def check(workload: str, items: list, answers: list) -> list[str]:
    """Messages for every wrong answer; items that failed (None) are skipped."""
    errors = []
    for idx, (item, answer) in enumerate(zip(items, answers)):
        if answer is None:
            continue
        errors += ["item %d: %s" % (idx, e) for e in CHECKS[workload](item, answer)]
    return errors
