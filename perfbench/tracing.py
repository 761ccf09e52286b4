"""In-memory spans around the ordlen layer boundaries, and the per-layer metrics.

``install`` wraps every public function of the six layer modules (plus the
``MonomialIdeal.make`` constructor) and rebinds each module attribute that
callers look up, so calls between layers are seen without any change to
the library.  Methods such as ``contains`` and ``divides`` are not wrapped:
their time is charged to the span of the function that calls them.

A span is (trace id, name, parent span, start, end); the trace id is the
item index.  Spans are kept in flat arrays and written out once, at exit.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from array import array

LAYERS = ("cli", "topology", "invariants", "monomial", "chow", "ordinal")
ITEM = "item"  # the root span of one workload item, owned by no layer


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ITEM]
        self.trace = array("l")
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._trace_id = [0]
        # per-function records made by the hooks below, kept out of the spans
        self.records: dict[str, list] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, hook=None):
        """fn inside a span; the span also covers the wrapper's own bookkeeping,
        so tracing overhead lands in the callee's self time, not the caller's."""
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        stack, trace_id, start, end = self._stack, self._trace_id, self.start, self.end
        add_trace, add_name, add_parent = self.trace.append, self.name.append, self.parent.append
        add_start, add_end = start.append, end.append
        rec = self.records.setdefault(name, []) if hook else None

        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(start)
            add_trace(trace_id[0])
            add_name(name_id)
            add_parent(stack[-1])
            add_start(t0)
            add_end(t0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()
            if hook is not None:
                rec.append(hook(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def item(self, trace_id: int, fn, *args):
        """Run fn(*args) as the root span of one workload item."""
        self._trace_id[0] = trace_id
        return self.wrap(ITEM, fn)(*args)

    def dump(self, path) -> None:
        """Write every span as JSON columns; times in ns."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "trace": self.trace.tolist(),
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                },
                handle,
                separators=(",", ":"),
            )


# Hooks record what a call did; they run after the span closes, so their
# cost lands in the caller's self time, not the callee's.
def _gens_in_out(args, result):
    # MonomialIdeal.make(cls, ambient_n, gens)
    return (len(args[2]), len(result.gens))


def _lcm_pairs(args, result):
    return (len(args[0].gens) * len(args[1].gens), len(result.gens))


def _box(args, result):
    i = args[0]
    points = math.prod(max((g.exponents[v] for g in i.gens), default=0) for v in range(i.ambient_n))
    return (points, len(result))


def _args(args, result):
    return args


def _found(args, result):
    return len(result)


def _power(args, result):
    return result.n


HOOKS = {
    "monomial.make": _gens_in_out,
    "monomial.ideal_intersection": _lcm_pairs,
    "monomial.torsion_box_monomials": _box,
    "invariants.length": _args,
    "invariants.local_multiplicity": _args,
    "invariants.associated_primes": _found,
    "topology.find_e_open_power": _power,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module in ``tracer`` spans."""
    import ordlen

    modules = {layer: importlib.import_module("ordlen." + layer) for layer in LAYERS}
    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                attr.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != mod.__name__
            ):
                continue
            name = "%s.%s" % (layer, attr)
            wrapped[id(obj)] = tracer.wrap(name, obj, HOOKS.get(name))
    # rebind every attribute that callers look up, including names that one
    # module imported from another and the package's re-exports
    for mod in [ordlen, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    ideal_cls = modules["monomial"].MonomialIdeal
    make = ideal_cls.__dict__["make"].__func__
    ideal_cls.make = classmethod(tracer.wrap("monomial.make", make, HOOKS["monomial.make"]))


# ------------------------------------------------------------------ metrics


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for idx, par in enumerate(parent):
        if par >= 0:
            own[par] -= end[idx] - start[idx]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _union_ns(spans: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for s, e in sorted(spans):
        if reach is None or s >= reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self time, call counts and work counts from one traced pass.

    Shares divide by the summed duration of the item spans, on the same
    clock as the spans themselves.
    """
    names, name_of, parent = tracer.names, tracer.name, tracer.parent
    start, end, rec = tracer.start, tracer.end, tracer.records
    own = self_times(parent, start, end)
    index = {name: i for i, name in enumerate(names)}
    self_ns, calls = [0] * len(names), [0] * len(names)
    for k, i in enumerate(name_of):
        self_ns[i] += own[k]
        calls[i] += 1

    def count(name):
        return calls[index[name]] if name in index else 0

    def self_s(name):
        return self_ns[index[name]] / 1e9 if name in index else 0.0

    def spans(name):
        i = index.get(name, -1)
        return [k for k, j in enumerate(name_of) if j == i]

    def covered_s(ks):
        return _union_ns([(start[k], end[k]) for k in ks]) / 1e9

    def child_count(parent_name, child_name):
        p, c = index.get(parent_name, -1), index.get(child_name, -1)
        return sum(1 for k, j in enumerate(name_of) if j == c and parent[k] >= 0 and name_of[parent[k]] == p)

    out: dict[str, float] = {}
    for layer in LAYERS:
        members = [i for i, name in enumerate(names) if name.startswith(layer + ".")]
        out[layer + ".self_s"] = sum(self_ns[i] for i in members) / 1e9
        out[layer + ".calls"] = sum(calls[i] for i in members)
    timed_s = covered_s(spans(ITEM))

    make = rec.get("monomial.make", [])
    inter = rec.get("monomial.ideal_intersection", [])
    box = rec.get("monomial.torsion_box_monomials", [])
    gens_in = sum(a for a, _ in make)
    pairs = sum(a for a, _ in inter)
    points = sum(a for a, _ in box)
    lcl_calls = child_count("invariants.associated_primes", "invariants.local_multiplicity")
    # associated_primes never nests, so its records and spans share one order;
    # a call answered by the lru_cache has no child spans and is not counted
    has_children = set(parent)
    found = sum(
        f
        for k, f in zip(spans("invariants.associated_primes"), rec.get("invariants.associated_primes", []))
        if k in has_children
    )
    searches = spans("invariants.construct_submodule_of_length") + spans("topology.find_e_open_power")
    out.update(
        {
            "cli.parse.self_s": self_s("cli.parse"),
            "monomial.saturation.total_s": covered_s(spans("monomial.saturation")),
            "monomial.colon.calls": count("monomial.colon"),
            "monomial.ideal_intersection.calls": count("monomial.ideal_intersection"),
            "monomial.ideal_intersection.lcm_pairs": pairs,
            "monomial.ideal_intersection.keep_ratio": _ratio(sum(b for _, b in inter), pairs),
            "monomial.make.gens_in": gens_in,
            "monomial.make.keep_ratio": _ratio(sum(b for _, b in make), gens_in),
            "monomial.torsion_box_monomials.box_points": points,
            "monomial.torsion_box_monomials.hit_ratio": _ratio(sum(b for _, b in box), points),
            "invariants.associated_primes.lcl_calls": lcl_calls,
            "invariants.associated_primes.found_ratio": _ratio(found, lcl_calls),
            "invariants.length.calls": count("invariants.length"),
            "invariants.length.distinct": len(set(rec.get("invariants.length", []))),
            "invariants.local_multiplicity.calls": count("invariants.local_multiplicity"),
            "invariants.local_multiplicity.distinct": len(
                set(rec.get("invariants.local_multiplicity", []))
            ),
            "invariants.construct_submodule_of_length.self_s": self_s(
                "invariants.construct_submodule_of_length"
            ),
            "invariants.construct_submodule_of_length.length_calls": child_count(
                "invariants.construct_submodule_of_length", "invariants.length"
            ),
            "topology.find_e_open_power.self_s": self_s("topology.find_e_open_power"),
            "topology.find_e_open_power.steps": sum(rec.get("topology.find_e_open_power", [])),
            "ordinal.leq.calls": count("ordinal.leq"),
            "chow.binord.calls": count("chow.binord"),
            "trace.spans": len(start),
            "share.monomial_invariants": _ratio(
                out["monomial.self_s"] + out["invariants.self_s"], timed_s
            ),
            "share.ordinal_chow": _ratio(out["ordinal.self_s"] + out["chow.self_s"], timed_s),
            "share.searches": _ratio(covered_s(searches), timed_s),
        }
    )
    return out
