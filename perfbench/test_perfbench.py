"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The runs here use --quick, so each takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import kdeclass as kd  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", str(workloads.REFERENCE_SEED),
                 "--quick", "--trace", "0")
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = done.stdout.splitlines()
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines)
    assert any(line.startswith("fail_ratio = 0 ratio") for line in lines)
    # at the reference seed every op is held to its recorded outputs
    fp = next(line for line in lines if line.startswith("# fingerprints:")).split()
    assert fp[2] == fp[4] != "0"


def test_traced_quick_runs_report_every_layer_and_repeat_counts():
    runs = [result_of(bench("--workload", "risk", "--seed", "3", "--quick", "--trace", "1"))
            for _ in range(2)]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [n for n, u in units.items()
             if u == "count" or n.endswith((".support_frac", ".edge_frac"))]
    for r in runs:
        assert r["correct"] and r["failed"] == 0
        assert {k: v["unit"] for k, v in r["metrics"].items()} == units
    assert {n: runs[0]["metrics"][n] for n in exact} == {n: runs[1]["metrics"][n] for n in exact}
    for workload in WORKLOADS:
        assert runs[0]["metrics"][f"{workload}.kernels.call.n"]["value"] > 0


def test_study_ops_reproduce_run_study_rows():
    wl = workloads.Study(kd, seed=5, quick=True)
    rows = [wl.run(spec)[0] for spec in wl.unit(0)]
    for pid in wl.pairs:
        cfg = kd.ExperimentConfig(pid, n_list=wl.n_list, reps=1, seed=5)
        assert [r for r in rows if r.pair == pid] == list(kd.run_study(cfg).rows)


def test_tracer_binds_every_alias_and_removes_all_wrappers():
    original = kd.simulate.select_bandwidths
    tracer = spans.Tracer()
    with tracer.installed():
        assert kd.simulate.select_bandwidths is not original
        assert kd.select_bandwidths is kd.selector.select_bandwidths is kd.simulate.select_bandwidths
        assert "kdeclass.kde.KdeEstimate.__call__" in spans.installed_wrappers()
        est = kd.KdeEstimate([0.0, 1.0], 0.5)
        est(np.array([0.2, 3.0]))
        est(0.2)
    assert spans.installed_wrappers() == []
    assert kd.simulate.select_bandwidths is original
    table = spans.span_table(tracer.spans)
    assert table["kde.init"]["n"] == 1 and table["kde.scalar"]["n"] == 1
    # two points against two data: four dense pairs, one inside the support
    assert table["kde.eval"]["pairs_dense"] == 4 and table["kde.eval"]["pairs_support"] == 1
    assert table["kernels.call"]["n"] == 2 and table["kernels.call"]["elems"] == 5


def test_self_time_subtracts_direct_children():
    recs = [["a", 0.0, 10.0, -1, 0, None, 0.0], ["b", 1.0, 4.0, 0, 0, None, 0.0],
            ["c", 2.0, 3.0, 1, 0, None, 0.0], ["b", 5.0, 6.0, 0, 0, None, 0.0]]
    assert spans.self_times(recs) == [6.0, 2.0, 1.0, 1.0]
    assert spans.span_table(recs)["b"] == {"n": 2, "total_s": 4.0, "self_s": 3.0}
    # a child's wrapper time (its work counts) is not the parent's own time
    recs[3][6] = 0.5
    recs[2][6] = 0.25
    assert spans.self_times(recs)[:2] == [5.5, 1.75]
    assert spans.net_times(recs) == [9.25, 2.75, 1.0, 1.0]


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    for count in range(11, 200):
        value, pct, beyond = run.tail([float(i) for i in range(count)])
        assert beyond >= 10 and value == count - 1 - beyond


def test_reference_check_uses_stated_tolerances():
    want = {"i": 3, "err_min": 0.25, "fp_surface": "ab"}
    assert workloads.compare({"i": 3, "err_min": 0.25 + 1e-12, "fp_surface": "cd"}, want) == ([], 1, 0)
    problems, _, _ = workloads.compare({"i": 4, "err_min": 0.26, "fp_surface": "ab"}, want)
    assert len(problems) == 2


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
