"""Benchmark runner for ordlen: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  Each pass is a fresh interpreter
(``worker.py``) with a single client in a closed loop over a fixed, seeded
item set of its own; passes repeat for ``--seconds`` and every metric is
the median over passes.  Times are CPU times of the pass process, scaled
to a nominal host speed by a reference loop the pass also times.  Every
untraced pass runs the correctness gate after its timed region.  With
``--trace 1`` traced and untraced passes alternate on the same item sets
and the per-layer metrics are reported instead.  ``--workload all`` runs
the four workloads one after another.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; any wrong answer exits 1 without metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("corpus", "structured", "search", "algebra")

MIN_PASSES = 3
MAX_PASSES = 40
MIN_SETUPS = 5
PASS_LIMIT_S = 60.0  # wall-clock limit of one pass; a killed pass fails its unfinished items
RUN_LIMIT_S = 150.0  # no pass may end later than this after the run started
# CPU times are reported at the host speed at which worker.reference() takes
# this long: each pass's times are scaled by REF_NOMINAL_S / its median sample
REF_NOMINAL_S = 0.005
# the environment of every pass: nothing inherited that could change the work
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "ORDLEN_CAP": "32",
    "PYTHONPYCACHEPREFIX": str(OUT / "pycache"),
}


class BenchError(Exception):
    """The benchmark itself could not run (missing source, crashed pass)."""


def tail_percentile(n: int) -> float:
    """The highest of p99.9/p99/p90/p50 with at least ten of n items beyond it;
    100 (the slowest item) when even p50 has fewer than ten."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:
            return p
    return 100.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def _env() -> dict[str, str]:
    env = {k: os.environ[k] for k in ("PATH", "HOME", "LANG", "LC_ALL", "TMPDIR") if k in os.environ}
    env.update(PINNED_ENV)
    return env


def spawn(args: list[str], limit: float) -> dict:
    """Run worker.py once; returns its parsed output lines and timings."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    killed = False
    try:
        out, err = proc.communicate(timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    wall = time.monotonic() - t_spawn
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if proc.returncode != 0 and not killed:
        raise BenchError("pass %s exited %d:\n%s" % (" ".join(args), proc.returncode, err[-2000:]))
    ready = next((o for o in lines if "ready" in o), None)
    done = next((o for o in lines if "done" in o), None)
    refs = (done or ready or {}).get("ref")
    scale = REF_NOMINAL_S / statistics.median(refs) if refs else 1.0
    return {
        "setup_s": ready["ready"] * scale if ready else None,
        "items": [o for o in lines if "i" in o],
        "done": done,
        "scale": scale,
        "n_items": ready["items"] if ready else None,
        "killed": killed,
        "wall": wall,
    }


def pass_metrics(p: dict, n_items: int) -> dict:
    lat = [o["s"] * p["scale"] for o in p["items"]]
    done = p["done"]
    timed = done["timed_s"] * p["scale"] if done else p["wall"]
    finished = sum(1 for o in p["items"] if o["ok"])
    tail_p = tail_percentile(n_items)
    return {
        "items_per_s": finished / timed,
        "item_p50_ms": percentile(lat, 50.0) * 1e3 if lat else p["wall"] * 1e3,
        "item_tail_ms": percentile(lat, tail_p) * 1e3 if lat else p["wall"] * 1e3,
        "peak_rss_mb": done["peak_rss_mb"] if done else None,
        "completed": finished,
        "timed_s": timed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]
    # compile the bytecode cache once so that every measured set-up finds it
    spawn(base + ["--setup-only"], PASS_LIMIT_S)

    passes, traced, setups, wrong, failures = [], [], [], [], []
    used, last = 0.0, 0.0  # pass wall time spent, correctness checks excluded
    longest = 0.0  # the longest pass so far, checks included
    stop = False
    while not stop and len(passes) < MAX_PASSES:
        if len(passes) >= MIN_PASSES and used + last > seconds:
            break
        for tracing in (False, True) if trace else (False,):
            elapsed = time.monotonic() - started
            if elapsed + max(2 * longest, 5.0) > RUN_LIMIT_S:
                stop = True
                break
            # a traced run repeats one item set, so its work counts repeat exactly
            part = 0 if trace else len(passes)
            args = base + ["--part", str(part)]
            if tracing:
                args.append("--trace")
                if not traced:
                    args += ["--spans", str(OUT / ("spans-%s.json" % workload))]
            p = spawn(args, min(PASS_LIMIT_S, RUN_LIMIT_S - elapsed))
            (traced if tracing else passes).append(p)
            done = p["done"] or {}
            wrong += ["pass %d %s" % (len(passes) - 1, w) for w in done.get("wrong", [])]
            failures += done.get("failures", [])
            if p["setup_s"] is not None:
                setups.append(p["setup_s"])
            last = p["wall"] - done.get("verify_s", 0.0)
            used += last
            longest = max(longest, p["wall"])
            if p["killed"]:
                stop = True
                break
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(base + ["--setup-only"], PASS_LIMIT_S)["setup_s"])
    if not any(p["done"] for p in passes):
        raise BenchError("no pass finished within %g s, so no answer was checked" % PASS_LIMIT_S)

    n_items = passes[0]["n_items"]
    per_pass = [pass_metrics(p, n_items) for p in passes]
    attempted = n_items * len(passes)
    completed = sum(m["completed"] for m in per_pass)
    rss = [m["peak_rss_mb"] for m in per_pass if m["peak_rss_mb"] is not None]
    if not rss:
        rss = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(m["items_per_s"] for m in per_pass),
        "item_p50_ms": statistics.median(m["item_p50_ms"] for m in per_pass),
        "item_tail_ms": statistics.median(m["item_tail_ms"] for m in per_pass),
        "peak_rss_mb": statistics.median(rss),
        "completed_ratio": completed / attempted,
    }
    info = {
        "passes": len(passes),
        "items_per_pass": n_items,
        "tail_percentile": tail_percentile(n_items),
        "setups": len(setups),
    }
    if trace:
        layer_runs = [p["done"]["layers"] for p in traced if p["done"]]
        if not layer_runs:
            raise BenchError("no traced pass finished")
        layers = {}
        for key, first in layer_runs[0].items():
            values = [run[key] for run in layer_runs]
            # counts repeat exactly between traced passes; times take the median
            layers[key] = first if isinstance(first, int) else statistics.median(values)
        untraced = statistics.median(p["done"]["timed_s"] * p["scale"] for p in passes if p["done"])
        traced_s = statistics.median(p["done"]["timed_s"] * p["scale"] for p in traced if p["done"])
        layers["trace.overhead_ratio"] = traced_s / untraced - 1.0
        info["traced_passes"] = len(traced)
        info["counts_repeat"] = all(
            run[k] == layer_runs[0][k]
            for run in layer_runs
            for k, v in layer_runs[0].items()
            if isinstance(v, int)
        )
        metrics = layers
    return {
        "workload": workload,
        "wrong": wrong,
        "failures": failures,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": metrics,
        "info": info,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ordlen" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no ordlen source tree at %s\n" % SRC)
        return 2
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2

    wrong = [res for res in results if res["wrong"]]
    for res in wrong:
        sys.stderr.write("perfbench: wrong answers on %s:\n" % res["workload"])
        sys.stderr.write("".join("  %s\n" % w for w in res["wrong"][:20]))
    if wrong:
        return 1

    out_metrics = {}
    for res in results:
        info = res["info"]
        print(
            "%s seed=%d: %d passes x %d items, tail=p%g, %d set-ups, %d/%d failed"
            % (res["workload"], args.seed, info["passes"], info["items_per_pass"],
               info["tail_percentile"], info["setups"], res["failed"], res["attempted"])
        )
        for failure in res["failures"][:5]:
            sys.stderr.write("perfbench: failed %s\n" % failure)
        for metric in wanted:
            name = metric["name"]
            if name not in res["metrics"]:
                sys.stderr.write("perfbench: metric %s was not measured\n" % name)
                return 2
            value = res["metrics"][name]
            print("  %-52s %14.6g %s" % (name, value, metric["unit"]))
            key = name if len(results) == 1 else "%s.%s" % (res["workload"], name)
            out_metrics[key] = {"value": value, "unit": metric["unit"]}
        if "counts_repeat" in info:
            print("  work counts repeat across %d traced passes: %s"
                  % (info["traced_passes"], info["counts_repeat"]))
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
