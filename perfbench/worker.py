"""One benchmark pass in a fresh interpreter: set up, warm up, time, report.

Run by ``run.py``; writes JSON lines to stdout:

    {"ready": <CPU s>, "items": <n>, "ref": [...]}  once ordlen and the inputs are built
    {"i": <index>, "s": <latency s>, "ok": b}         one per timed item, flushed
    {"done": ...}                                      timed region, peak RSS, findings

All times are CPU times of this process.  ``ref`` lists timings of a fixed
reference loop, taken after set-up and every ``REF_EVERY_S`` through the
timed region, so that ``run.py`` can take out the host's speed of the moment.

Pass ``--part`` k of a seed runs its own item set.  An untraced pass runs
the correctness gate after its timed region; with ``--trace`` the pass runs
under ``tracing`` spans instead and the final line carries the per-layer
metrics (its item set is the one an untraced pass of the same part checks).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)


REF_ITERS = 12000  # one reference sample: about 5 ms on the host in README.md
REF_AT_SETUP = 5  # samples taken right after set-up
REF_EVERY_S = 0.25  # CPU seconds of items between two samples in the timed region


def reference() -> float:
    """CPU time of a fixed pure-Python loop over tuples, dicts and small
    ints, the kind of work the engine does; it never calls ordlen.  The
    cyclic collector is off meanwhile, so the loop's time does not grow
    with the objects the engine has left alive."""
    gc.disable()
    try:
        t0 = time.process_time()
        acc: dict = {}
        for i in range(REF_ITERS):
            key = (i & 63, i % 7)
            acc[key] = acc.get(key, 0) + sum(key)
        return time.process_time() - t0
    finally:
        gc.enable()


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0, help="pass index; each has its own items")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--limit", type=int, default=None, help="run only the first N items")
    ap.add_argument("--spans", default=None, help="write the traced spans to this file")
    args = ap.parse_args(argv)

    items = workloads.build(args.workload, args.seed, args.part)[: args.limit]
    # CPU time of this process since it was spawned, interpreter start-up
    # included: set-up is single-threaded and reads only cached files
    ready = time.process_time()
    refs = [reference() for _ in range(REF_AT_SETUP)]
    _emit({"ready": ready, "items": len(items), "ref": refs})
    if args.setup_only:
        return 0

    for item in workloads.build(args.workload, args.seed, args.part, warm=True)[: args.limit]:
        try:
            workloads.run_item(args.workload, item)
        except workloads.ItemFailed:
            pass

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    answers, failures = [], []
    # CPU time of this process: the pass is single-threaded and does no I/O,
    # so this is its wall time less the time a shared host ran something else
    clock = time.process_time
    ref_s = 0.0
    t_begin = clock()
    next_ref = t_begin + REF_EVERY_S
    for idx, item in enumerate(items):
        t0 = clock()
        try:
            if tracer is None:
                answer = workloads.run_item(args.workload, item)
            else:
                answer = tracer.item(idx, workloads.run_item, args.workload, item)
            ok = True
        except workloads.ItemFailed as exc:
            answer, ok = None, False
            failures.append("item %d: %s" % (idx, exc))
        t1 = clock()
        answers.append(answer)
        _emit({"i": idx, "s": t1 - t0, "ok": ok})
        if t1 >= next_ref:
            refs.append(reference())
            ref_s += refs[-1]
            next_ref = clock() + REF_EVERY_S
    timed_s = clock() - t_begin - ref_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done = {
        "done": True,
        "timed_s": timed_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures[:5],
        "ref": refs,
    }
    if tracer is not None:
        import tracing

        done["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.dump(args.spans)
    else:
        import verify

        t0 = time.monotonic()
        done["wrong"] = verify.check(args.workload, items, answers)[:20]
        done["verify_s"] = time.monotonic() - t0
    _emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
