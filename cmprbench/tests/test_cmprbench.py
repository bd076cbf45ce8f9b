"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q cmprbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from cmpr import autodiff, metrics, model
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


def test_brute_force_topk_matches_topk_report_with_ties():
    rng = np.random.default_rng(0)
    sim = rng.integers(0, 3, size=(40, 40)).astype(np.float64)  # many ties
    sim[np.arange(40), np.arange(40)] = rng.integers(0, 3, size=40)
    ks = (1, 5, 25)
    report = metrics.topk_report(sim, ks)
    top, mult = workloads.brute_force_topk(sim, ks)
    assert top == report.top_k
    assert mult == report.mult_top_k


def test_brute_force_topk_breaks_ties_to_the_lower_column():
    sim = np.ones((3, 3))
    top, _ = workloads.brute_force_topk(sim, (1, 2))
    # row i's partner is column i, behind the i tied columns before it
    assert top == {1: 1 / 3, 2: 2 / 3}


def test_op_counts_group_leaves_under_one_kind():
    tape = autodiff.Tape()
    view = model.ParamView(tape, model.ModelParams({"a.w": np.ones((2, 2)), "b.w": np.ones((2, 2))}))
    x = tape.leaf(np.ones((1, 2)), name="pixels")
    autodiff.matmul(autodiff.matmul(x, view["a.w"]), view["b.w"])
    assert workloads.op_counts(tape) == {"leaf": 3, "matmul": 2}


def test_self_time_subtracts_direct_children_and_units_sum_descendants():
    tracer = Tracer()
    tracer.spans = [
        ["step", 0, 100, -1],
        ["model.encode", 10, 40, 0],
        ["eval.chunk", 50, 90, 0],
        ["model.encode", 55, 85, 2],
        ["step", 200, 250, -1],
        ["model.encode", 210, 220, 4],
    ]
    times = tracer.self_times()
    assert times["step"]["self_ms"] == pytest.approx((30 + 40) / 1e6)
    assert times["eval.chunk"]["self_ms"] == pytest.approx(10 / 1e6)
    assert times["model.encode"]["count"] == 3
    assert tracer.units("step") == [
        {"model.encode": 60, "eval.chunk": 40},
        {"model.encode": 10},
    ]


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, pct = workloads.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 90.0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_of_every_workload_emits_every_named_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared[section]}
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(workloads.WORKLOADS)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0
    for workload in names:
        got = {name.split("/", 1)[1]: m["unit"] for name, m in result["metrics"].items()
               if name.startswith(workload + "/")}
        assert got == want, workload
        if section == "end_to_end":
            assert all(result["metrics"][f"{workload}/{n}"]["value"] > 0 for n in want)
