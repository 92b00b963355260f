"""Layered benchmark of kdeclass.

    python3 perfbench/run.py --workload study|risk|cvcheck --seed N \
        --seconds S --trace 0|1 [--quick]

Run from a checkout of the repository; the library is imported from its
``src`` directory.  Each workload runs in this one process as a closed loop
with one caller, with numerical libraries held to one thread.

--trace 0 times ops for at least S seconds and at least 30 ops, stopping
only between whole units of the workload's schedule, and reports the
end-to-end metrics.  Set-up (from before ``import kdeclass`` to the end of
the workload's set-up) is timed here and in six fresh child processes,
started between ops through the run; the median of the seven is reported.

--trace 1 reports the per-layer metrics (counts, self times) of all three
workloads, named ``<workload>.<layer metric>``: each workload runs its fixed
op list in its own child process, each op untraced and then under span
tracing, and the cvcheck child also times a small run_study on one and two
threads.  Only metrics a workload exercises are listed, so no per-layer
time is identically zero.

--quick runs one small unit per workload in seconds, for tests.
--record-reference rewrites reference.json from the outputs at the
reference seed.

Every op's output is checked.  Human-readable lines come first; the last line
of standard output is one JSON object with keys correct, attempted, failed
and metrics.  A run record (and, when traced, the spans) is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: set-ups timed in fresh child processes, besides the run's own
SETUP_CHILDREN = 6
#: thread pools held to one thread, here and in the child processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: a timed run measures at least this many ops, so its tail percentile is
#: at least p66; study (20 ops a unit) always measures two units, 40 ops
MIN_OPS = 30
#: ops between child set-ups, so the set-ups spread over the run
SETUP_EVERY = MIN_OPS // SETUP_CHILDREN


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("study", "risk", "cvcheck"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--trace-part", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_reference:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def _import_kdeclass():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kdeclass

    if Path(kdeclass.__file__).resolve().parent != src / "kdeclass":
        raise SystemExit(f"error: imported kdeclass from {kdeclass.__file__}, not {src}")
    return kdeclass


def _setup(args):
    """Import kdeclass and build the workload; returns (kd, workload, seconds)."""
    t0 = perf_counter()
    kd = _import_kdeclass()
    import workloads

    wl = workloads.WORKLOADS[args.workload](kd, args.seed, quick=args.quick)
    return kd, wl, perf_counter() - t0


def _child_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, params: dict) -> dict:
    import numpy
    import scipy

    return {"cpu": _cpu_model(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "params": params,
            "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS}}


def tail(durations: list[float]) -> tuple[float, int, int]:
    """Seconds per op at the highest whole percentile with at least ten ops
    beyond it (nearest rank), with that percentile and the ops beyond it.
    Below eleven ops there is none: the maximum is reported as p100."""
    ordered = sorted(durations)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100, 0
    pct = (100 * (count - 10)) // count
    rank = -(-pct * count // 100)  # ceil: nearest-rank percentile
    return ordered[rank - 1], pct, count - rank


def _run_op(wl, spec, reference):
    """Time one op and check it; returns (seconds, observed, problems,
    fingerprints compared, fingerprints matched)."""
    import workloads

    t0 = perf_counter()
    try:
        out = wl.run(spec)
    except Exception:  # a failed op is counted, and the run goes on
        return perf_counter() - t0, None, [traceback.format_exc(limit=3)], 0, 0
    seconds = perf_counter() - t0
    problems, observed = wl.check(spec, out)
    ref_problems, checked, matched = workloads.compare(observed, reference.get(wl.key(spec)))
    return seconds, observed, problems + ref_problems, checked, matched


def warm_up(wl):
    """Run the first op once, untimed and unchecked.  A fresh process's first
    op takes about 0.5 million page faults more than later ones while glibc
    malloc adapts its mmap threshold; a user pays that once per process, not
    per op."""
    wl.run(wl.unit(0)[0])


class Ledger:
    """Per-op results of one run."""

    def __init__(self):
        self.ops: list[dict] = []
        self.fp_checked = self.fp_matched = 0

    def add(self, key, seconds, observed, problems, checked, matched):
        self.ops.append({"key": key, "seconds": seconds, "ok": not problems,
                         "problems": problems, "observed": observed})
        self.fp_checked += checked
        self.fp_matched += matched
        for p in problems:
            print(f"op {key} FAILED: {p}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(not op["ok"] for op in self.ops)

    def fingerprints(self) -> dict:
        """sha256 over each kind of per-op fingerprint, in op order."""
        import workloads

        kinds = sorted({k for op in self.ops if op["observed"]
                        for k in op["observed"] if k.startswith("fp_")})
        return {k: workloads.sha(" ".join(op["observed"][k] for op in self.ops
                                          if op["observed"] and k in op["observed"]))
                for k in kinds}


def _reference(args) -> dict:
    import workloads

    if args.seed != workloads.REFERENCE_SEED:
        return {}
    data = json.loads((BENCH / "reference.json").read_text())
    return data["ops"].get(args.workload, {})


def timed_run(args, wl, own_setup: float) -> tuple[dict, Ledger, dict]:
    """Time whole units of ops.  Every SETUP_EVERY ops a fresh child process
    times the set-up again; spread over the run, the set-ups do not all fall
    into one passing change of machine speed.  Their wall time does not
    count towards the run's length."""
    reference = _reference(args)
    ledger = Ledger()
    setups = [own_setup]
    children = 0 if args.quick else SETUP_CHILDREN
    warm_up(wl)
    start = perf_counter()
    paused = 0.0
    u = 0
    while True:
        for spec in wl.unit(u):
            ledger.add(wl.key(spec), *_run_op(wl, spec, reference))
            if len(setups) <= children and len(ledger.ops) % SETUP_EVERY == 0:
                t0 = perf_counter()
                setups.append(_child_setup(args))
                paused += perf_counter() - t0
        u += 1
        timed = perf_counter() - start - paused
        if args.quick or (len(ledger.ops) >= MIN_OPS and timed >= args.seconds):
            break
    durations = [op["seconds"] for op in ledger.ops]
    value, pct, beyond = tail(durations)
    values = {
        "ops_per_s": len(durations) / sum(durations),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"op_s_tail": f"p{pct} of {len(durations)} ops, {beyond} beyond",
             "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
             "units": u}
    return values, ledger, notes


def trace_part(args, kd, wl) -> tuple[dict, Ledger, dict]:
    """The traced run of one workload, in its own process."""
    import spans
    import workloads

    reference = _reference(args)
    ledger = Ledger()
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.op = -1  # set-up spans: make_pair, crossings, the optimal plan
        traced_wl = type(wl)(kd, args.seed, quick=args.quick)
    warm_up(wl)
    # each op runs untraced, then traced, so drift in machine speed hits both
    plain_s = traced_s = 0.0
    for k, spec in enumerate(wl.trace_ops()):
        seconds, observed, *rest = _run_op(wl, spec, reference)
        ledger.add(wl.key(spec), seconds, observed, *rest)
        if observed is None:
            continue
        plain_s += seconds
        with tracer.installed():
            tracer.op = k
            t0 = perf_counter()
            out = traced_wl.run(spec)
            traced_s += perf_counter() - t0
        if any(observed.get(key) != v for key, v in traced_wl.observe(spec, out).items()):
            ledger.ops[-1]["ok"] = False
            ledger.ops[-1]["problems"].append("traced output differs from untraced output")

    values = spans.layer_metrics(tracer.spans)
    values["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    if args.workload == "cvcheck":
        threads, problems = workloads.thread_timing(kd, quick=args.quick)
        ledger.add("threads", 0.0, None, problems, 0, 0)
        values.update(threads)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{_tag(args, args.workload)}.jsonl")
    notes = {"span_table": spans.span_table(tracer.spans), "spans": len(tracer.spans)}
    return values, ledger, notes


def traced_run(args, spec) -> tuple[dict, int, int]:
    """Run every workload's trace part in a child process and prefix its
    metrics with the workload name."""
    values = {}
    attempted = failed = 0
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--trace", "1", "--trace-part"] + ["--quick"] * args.quick
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"trace of {name} failed with exit code {done.returncode}")
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(lines))
        part = json.loads(last)
        values.update({f"{name}.{k}": v for k, v in part["values"].items()})
        attempted += part["attempted"]
        failed += part["failed"]
    return values, attempted, failed


def _tag(args, workload) -> str:
    return (f"{workload}-s{args.seed}-t{args.trace}" + ("-part" if args.trace_part else "")
            + ("-quick" if args.quick else ""))


def record_reference(args) -> int:
    """Record every workload's op outputs at the reference seed."""
    kd = _import_kdeclass()
    import workloads

    ops = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(kd, workloads.REFERENCE_SEED)
        ops[name] = {}
        for u in range(workloads.REFERENCE_UNITS[name]):
            for spec in wl.unit(u):
                problems, observed = wl.check(spec, wl.run(spec))
                if problems:
                    raise RuntimeError(f"{name} {spec}: {problems}")
                ops[name][wl.key(spec)] = observed
        print(f"{name}: {len(ops[name])} ops recorded", flush=True)
    data = {"seed": workloads.REFERENCE_SEED, "git_sha": _git_sha(),
            "tolerances": workloads.TOLERANCES, "ops": ops}
    (BENCH / "reference.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


def _write_record(args, workload, params, result, notes, ledger=None):
    record = {"meta": metadata(args, params), "result": result, "notes": notes}
    if ledger is not None:
        record.update({"fingerprints": ledger.fingerprints(),
                       "fingerprints_vs_reference": [ledger.fp_matched, ledger.fp_checked],
                       "ops": ledger.ops})
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{_tag(args, workload)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    return record["meta"]


def _print_fail_ratio(failed, attempted):
    print(f"fail_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted} ops failed)")


def _print_ledger(ledger, notes):
    _print_fail_ratio(ledger.failed, len(ledger.ops))
    if ledger.fp_checked:
        print(f"# fingerprints: {ledger.fp_matched} of {ledger.fp_checked} match the reference")
    for name, row in sorted(notes.get("span_table", {}).items()):
        print(f"# span {name}: n={row['n']} total={row['total_s']:.4f}s self={row['self_s']:.4f}s")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "kdeclass" / "__init__.py").is_file():
        print(f"error: no kdeclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # before numpy is imported, here and in the child processes
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH))
    if args.record_reference:
        return record_reference(args)
    if args.setup_only:
        print(_setup(args)[2])
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.trace_part:
        kd, wl, _ = _setup(args)
        values, ledger, notes = trace_part(args, kd, wl)
        print(f"# trace of {args.workload}: {len(notes['span_table'])} span names, "
              f"{notes['spans']} spans")
        _print_ledger(ledger, notes)
        _write_record(args, args.workload, wl.params(), None, notes, ledger)
        print(json.dumps({"attempted": len(ledger.ops), "failed": ledger.failed,
                          "values": values}))
        return 0

    if args.trace:
        values, attempted, failed = traced_run(args, spec)
        ledger, params, notes = None, {}, {}
    else:
        kd, wl, own_setup = _setup(args)
        values, ledger, notes = timed_run(args, wl, own_setup)
        attempted, failed, params = len(ledger.ops), ledger.failed, wl.params()

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    meta = _write_record(args, args.workload, params, result, notes, ledger)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}{' quick' if args.quick else ''}")
    print(f"# {meta['cpu']}, nproc {meta['nproc']}, python {meta['python']}, "
          f"numpy {meta['numpy']}, scipy {meta['scipy']}, git {meta['git_sha'][:12]}")
    for name, m in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    if ledger is None:
        _print_fail_ratio(failed, attempted)
    else:
        _print_ledger(ledger, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
