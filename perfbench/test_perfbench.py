"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from ordlen.ordinal import Ordinal  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = repr(workloads.build(workload, 7))
    assert repr(workloads.build(workload, 7)) == first
    assert repr(workloads.build(workload, 8)) != first
    assert repr(workloads.build(workload, 7, warm=True)) != first
    assert repr(workloads.build(workload, 7, part=1)) != first


def test_search_modules_are_distinct_and_not_warmed():
    items = workloads.build("search", 7)
    modules = [item.module for item in items]
    assert len(set(modules)) == len(modules)
    warm = {item.module for item in workloads.build("search", 7, warm=True)}
    assert not warm & set(modules)


@pytest.mark.parametrize("a,c,bs,c_up", [(4, 2, (3,), 1), (5, 1, (2, 1), 0), (3, 2, (0, 2), 1)])
def test_mixed_module_length_closed_form(a, c, bs, c_up):
    m, mu = workloads.mixed_module(a, c, bs, c_up)
    assert verify.oracle_length(m) == verify.dense(mu)


def test_tail_percentile_keeps_ten_items_beyond_it():
    assert run.tail_percentile(10000) == 99.9
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(99) == 50.0
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(19) == 100.0
    values = [float(v) for v in range(1, 1001)]
    assert run.percentile(values, 99.0) == 990.0  # ten values lie beyond it
    assert run.percentile(values, 50.0) == 500.0
    assert run.percentile(values, 100.0) == 1000.0


def test_self_time_subtracts_direct_children_only():
    # item [0, 100) holds a [10, 60), which holds b [20, 30) and c [40, 50);
    # d [70, 90) is a second child of the item
    parent = [-1, 0, 1, 1, 0]
    start = [0, 10, 20, 40, 70]
    end = [100, 60, 30, 50, 90]
    assert tracing.self_times(parent, start, end) == [30, 30, 10, 10, 20]


def test_union_counts_overlaps_once():
    assert tracing._union_ns([(0, 10), (5, 20), (30, 40), (32, 35)]) == 30


def _answers(workload, items):
    return [workloads.run_item(workload, item) for item in items]


def test_gate_rejects_a_corrupted_structured_answer():
    items = workloads.build("structured", 1)[-4:]
    answers = _answers("structured", items)
    assert verify.check("structured", items, answers) == []
    bad = list(answers)
    bad[0] = Ordinal.from_int(bad[0].coeff(0) + 1)
    assert verify.check("structured", items, bad)


def test_gate_rejects_a_corrupted_corpus_answer():
    items = workloads.build("corpus", 1)[:30]
    answers = _answers("corpus", items)
    assert verify.check("corpus", items, answers) == []
    text, power = answers[0]
    lines = [json.loads(line) for line in text.splitlines()]
    lines[0]["length"] = {"0": 10**6}
    bad = [("\n".join(json.dumps(o) for o in lines) + "\n", power)] + answers[1:]
    errors = verify.check("corpus", items, bad)
    assert errors and errors[0].startswith("item 0: len J/I")


def test_gate_rejects_a_corrupted_search_answer():
    items = workloads.build("search", 1)[:12]
    answers = _answers("search", items)
    assert verify.check("search", items, answers) == []
    idx = next(i for i, item in enumerate(items) if item.kind == "submod")
    bad = list(answers)
    bad[idx] = items[idx].module.lower  # K = I has length 0, never the target
    assert verify.check("search", items, bad)


def test_gate_rejects_a_corrupted_algebra_answer():
    items = workloads.build("algebra", 1)[:3]
    answers = _answers("algebra", items)
    assert verify.check("algebra", items, answers) == []
    bad = [list(a) for a in answers]
    j = next(j for j, (op, _, _) in enumerate(items[0]) if workloads.ALGEBRA_OPS[op] == "cantor_sum")
    bad[0][j] = Ordinal.from_int(123456)
    assert verify.check("algebra", items, bad)


def _traced_counts(workload, limit):
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--trace", "--limit", str(limit)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout
    layers = json.loads(out.splitlines()[-1])["layers"]
    return {k: v for k, v in layers.items() if isinstance(v, int)}


@pytest.mark.parametrize("workload,limit", [("corpus", 60), ("search", 20), ("algebra", 20)])
def test_two_traced_runs_count_the_same_work(workload, limit):
    first = _traced_counts(workload, limit)
    assert first["trace.spans"] > limit
    assert _traced_counts(workload, limit) == first


def test_wrappers_see_calls_between_layers():
    counts = _traced_counts("structured", 2)
    assert counts["invariants.length.calls"] == 2
    assert counts["monomial.colon.calls"] > 0
    assert counts["monomial.make.gens_in"] > 0


def test_wrong_answer_in_any_workload_prints_no_metrics(monkeypatch, capsys):
    def fake(workload, seed, seconds, trace):
        return {
            "workload": workload, "wrong": ["item 0: bad"] if workload == "algebra" else [],
            "failures": [], "attempted": 1, "failed": 0, "info": {},
            "metrics": {m["name"]: 1.0 for m in run.load_spec()["end_to_end"]},
        }

    monkeypatch.setattr(run, "run_workload", fake)
    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "1"]) == 1
    assert capsys.readouterr().out == ""


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
