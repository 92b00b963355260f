"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

For each workload, runs ``run.py --trace 0`` once per seed, seeds 0 to
runs - 1, at the run length in BENCHMARK.json, then two traced runs at seed
0 (each covers every workload).  For every end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound; for the
traced runs, whether every count repeated exactly.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: per-layer ratios of counts, which must repeat exactly like the counts
EXACT_RATIOS = (".support_frac", ".edge_frac")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("quartiles need at least four runs")

    seeds = list(range(args.runs))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "correct": all(r["correct"] for r in results), "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
            print(f"  {workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {bound}) {flag}", flush=True)
        report["workloads"][workload] = entry

    # every traced run covers all workloads; two at one seed must repeat
    # their counts exactly
    traced = [run_once(names[0], seeds[0], spec["run_seconds"], 1) for _ in range(2)]
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] == "count" or m["name"].endswith(EXACT_RATIOS)]
    repeat = all(traced[0]["metrics"][n] == traced[1]["metrics"][n] for n in exact)
    report["per_layer"] = {n: [t["metrics"][n]["value"] for t in traced]
                           for n in traced[0]["metrics"]}
    report["per_layer_counts_repeat"] = repeat
    report["traced_correct"] = all(t["correct"] for t in traced)
    print(f"traced: counts repeat {repeat}, correct {report['traced_correct']}", flush=True)

    meta = json.loads((BENCH / "out" / f"run-{names[0]}-s{seeds[-1]}-t0.json").read_text())["meta"]
    report["machine"] = {k: meta[k] for k in ("cpu", "nproc", "cpus_usable", "python",
                                              "numpy", "scipy", "git_sha")}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
