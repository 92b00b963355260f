"""The benchmark's three workloads: what one op runs, the order ops run in,
and how every op's output is checked.

Each workload object does its set-up in its constructor and exposes

* ``unit(u)``: the u-th group of op specs.  The timed loop checks its
  deadline only between units, so every run measures whole units and the
  same mix of sizes;
* ``trace_ops()``: the fixed op list of a traced run, so its counts repeat;
* ``run(spec)``: one op, through the public kdeclass API only;
* ``observe(spec, out)``: the values recorded in the reference file;
* ``check(spec, out)``: invariants that hold at any seed, returning the
  problems found and the observed values.

At the reference seed `compare` also holds the observed values to the ones
recorded in ``reference.json`` from the first benchmarked commit.
"""

from __future__ import annotations

import hashlib
import math
from time import perf_counter

import numpy as np

#: seed whose op outputs are recorded in reference.json
REFERENCE_SEED = 0
#: recorded values that may move by rounding alone; everything else in the
#: reference (selected grid indices) must match exactly
TOLERANCES = {"err_min": 1e-9, "risk": 1e-6}
#: a trained rule's risk may undercut the Bayes risk by rounding only
BAYES_EPS = 1e-10
#: relative tolerance for locating a bandwidth on its candidate grid
GRID_RTOL = 1e-12
#: ops per workload recorded by `record_reference`, as a number of units
REFERENCE_UNITS = {"study": 3, "risk": 100, "cvcheck": 60}
#: op ids are seed * OP_STRIDE + op index, so seeds never share an op
OP_STRIDE = 1_000_000


def sha(text: str | bytes) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def candidate_grid(kd, n: int, config) -> np.ndarray:
    """The selector's candidate bandwidths for sample size n, rebuilt from
    the formulas in the SelectorConfig docs rather than read back."""
    r, kernel = config.pilot_deriv, config.kernel
    num = (2 * r + 1) * kernel.roughness(r)
    mu2 = kernel.moment(2)
    unit_pilot = (num / (mu2 * mu2 * kd.normal_deriv_roughness(r + 2) * n)) ** (1.0 / (2 * r + 5))
    hi = config.fine_grid_factor * unit_pilot if config.fine_grid else n ** (-config.c1)
    return np.geomspace(n ** (-config.c2), hi, config.grid_per_dim)


def grid_index(grid: np.ndarray, h: float) -> int | None:
    k = int(np.argmin(np.abs(grid - h)))
    return k if abs(grid[k] - h) <= GRID_RTOL * h else None


def compare(observed: dict, expected: dict | None) -> tuple[list[str], int, int]:
    """Problems against a recorded reference entry, plus the number of
    fingerprints compared and matched.  A fingerprint mismatch alone is not
    a problem: the tolerances decide correctness, the fingerprints show
    whether the output stayed bit-identical."""
    if expected is None:
        return [], 0, 0
    problems, checked, matched = [], 0, 0
    for key, want in expected.items():
        got = observed.get(key)
        if key.startswith("fp_"):
            checked += 1
            matched += got == want
        elif key in TOLERANCES:
            if got is None or not abs(got - want) <= TOLERANCES[key]:
                problems.append(f"{key} {got!r} differs from reference {want!r} "
                                f"by more than {TOLERANCES[key]:g}")
        elif got != want:
            problems.append(f"{key} {got!r} != reference {want!r}")
    return problems, checked, matched


class Workload:
    """What the three workloads share: op keys, and a traced run of the
    first ``trace_units`` units."""

    trace_units = 1

    def trace_ops(self) -> list[tuple]:
        return [spec for u in range(self.trace_units) for spec in self.unit(u)]

    @staticmethod
    def key(spec) -> str:
        return "/".join(map(str, spec))


class Study(Workload):
    """One op is one rate-study cell, exactly as `run_study` computes it."""

    name = "study"
    pairs = ("class1a", "class2a")

    def __init__(self, kd, seed: int, quick: bool = False):
        self.kd, self.seed = kd, int(seed)
        self.n_list = kd.DEFAULT_N_LIST[:2] if quick else kd.DEFAULT_N_LIST
        self.config = kd.SelectorConfig()
        self.models = {pid: kd.make_pair(pid) for pid in self.pairs}

    def params(self) -> dict:
        return {"pairs": list(self.pairs), "n_list": list(self.n_list),
                "rep": "unit index", "selector": repr(self.config)}

    def unit(self, u: int) -> list[tuple]:
        return [(pid, i, n, u) for pid in self.pairs for i, n in enumerate(self.n_list)]

    def trace_ops(self) -> list[tuple]:
        ends = (0, len(self.n_list) - 1)
        return [(pid, i, self.n_list[i], 0) for pid in self.pairs for i in ends]

    def run(self, spec):
        pid, n_index, n, rep = spec
        kd, pair = self.kd, self.models[pid]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.seed, n_index, rep))))
        x = pair.sample("f", n, rng)
        y = pair.sample("g", n, rng)
        sel = kd.select_bandwidths(x, y, pair.p, self.config, rng=rng)
        row = kd.StudyRow(pair=pid, n=n, rep=rep, h1=sel.h1, h2=sel.h2,
                          err_boot_min=sel.err_min, seed=self.seed)
        return row, sel

    def observe(self, spec, out) -> dict:
        row, sel = out
        return {"i": grid_index(sel.grid_h1, sel.h1),
                "j": grid_index(sel.grid_h2, sel.h2),
                "err_min": sel.err_min,
                "fp_surface": sha(sel.err_surface.tobytes()),
                "fp_row": sha(repr(row))}

    def check(self, spec, out):
        row, sel = out
        obs = self.observe(spec, out)
        problems = []
        grid = candidate_grid(self.kd, spec[2], self.config)
        for axis in (sel.grid_h1, sel.grid_h2):
            if axis.shape != grid.shape or not np.allclose(axis, grid, rtol=GRID_RTOL, atol=0.0):
                problems.append("candidate grid differs from the documented window")
        surface = sel.err_surface
        if obs["i"] is None or obs["j"] is None:
            problems.append("selected bandwidth is not on its candidate grid")
        elif not (np.all(np.isfinite(surface)) and np.all(surface >= 0.0)):
            problems.append("error surface is not finite and nonnegative")
        elif divmod(int(np.argmin(surface)), surface.shape[1]) != (obs["i"], obs["j"]):
            problems.append("selection is not the first minimum of the surface")
        elif sel.err_min != surface[obs["i"], obs["j"]]:
            problems.append("err_min is not the surface value at the selection")
        return problems, obs


class Risk(Workload):
    """One op is one `empirical_risk` replicate at the optimal plan for
    n = 2000; ops alternate between the two pairs."""

    name = "risk"
    pairs = ("class1a", "class2b")
    size = 2000

    def __init__(self, kd, seed: int, quick: bool = False):
        self.kd, self.seed = kd, int(seed)
        self.models, self.plans, self.bayes = {}, {}, {}
        for pid in self.pairs:
            pair = kd.make_pair(pid)
            self.models[pid] = pair
            self.plans[pid] = kd.optimal_bandwidths(pair, kd.crossings(pair), n=self.size)
            self.bayes[pid] = kd.bayes_risk(pair)
        self.trace_units = 1 if quick else 4

    def params(self) -> dict:
        return {"pairs": list(self.pairs), "m": self.size, "n": self.size, "reps": 1,
                "plans": {pid: [p.h1, p.h2] for pid, p in self.plans.items()},
                "bayes_risk": self.bayes, "op_seed": f"seed * {OP_STRIDE} + op index"}

    def unit(self, u: int) -> list[tuple]:
        return [(pid, len(self.pairs) * u + k) for k, pid in enumerate(self.pairs)]

    def _op_seed(self, spec) -> int:
        return self.seed * OP_STRIDE + spec[1]

    def run(self, spec):
        pid = spec[0]
        plan = self.plans[pid]
        return self.kd.empirical_risk(self.models[pid], self.size, self.size,
                                      plan.h1, plan.h2, reps=1, seed=self._op_seed(spec))

    def observe(self, spec, out) -> dict:
        return {"risk": out.per_rep[0], "fp_risk": sha(repr(out.per_rep))}

    def check(self, spec, out):
        obs = self.observe(spec, out)
        pid = spec[0]
        bayes = self.bayes[pid]
        problems = []
        if len(out.per_rep) != 1:
            problems.append("expected one replicate")
        elif not bayes - BAYES_EPS <= obs["risk"] <= 1.0:
            problems.append(f"risk {obs['risk']!r} below the Bayes risk {bayes!r}")
        if abs(out.err_bayes - bayes) > 1e-12:
            problems.append("reported Bayes risk differs from bayes_risk")
        if spec[1] < len(self.pairs):  # the first op of each pair
            problems += self._check_segments(spec, obs)
        return problems, obs

    def _check_segments(self, spec, obs) -> list[str]:
        """Rebuild the replicate's decision segments and score them again:
        they must partition the line, and their CDF masses must give back the
        replicate's risk.  Records the segments' fingerprint."""
        kd, pid = self.kd, spec[0]
        pair, plan = self.models[pid], self.plans[pid]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self._op_seed(spec), 0))))
        x = pair.sample("f", self.size, rng)
        y = pair.sample("g", self.size, rng)
        clf = kd.fit_classifier(x, y, plan.h1, plan.h2, pair.p)
        segs = kd.decision_segments(clf, -math.inf, math.inf, "ahat")
        obs["fp_segments"] = sha(repr(segs))
        problems = []
        edges_ok = segs[0][0] == -math.inf and segs[-1][1] == math.inf and all(
            a[1] == b[0] and a[2] != b[2] for a, b in zip(segs, segs[1:]))
        if not edges_ok:
            problems.append("decision segments do not partition the line")
        err = sum(pair.p * (pair.f.cdf(b) - pair.f.cdf(a)) if lab == kd.FROM_G
                  else (1.0 - pair.p) * (pair.g.cdf(b) - pair.g.cdf(a))
                  for a, b, lab in segs)
        if abs(err - obs["risk"]) > 1e-12:
            problems.append("segment masses do not give back the replicate's risk")
        return problems


class CvCheck(Workload):
    """One op is `run_cv_comparison` for one replicate: a bootstrap selection
    plus the leave-one-out argmin over the same 15x15 grid."""

    name = "cvcheck"
    pair_id = "class1a"
    size = 100

    def __init__(self, kd, seed: int, quick: bool = False):
        self.kd, self.seed = kd, int(seed)
        self.config = kd.SelectorConfig()
        self.grid = candidate_grid(kd, self.size, self.config)
        self.trace_units = 1 if quick else 3

    def params(self) -> dict:
        return {"pair": self.pair_id, "n": self.size, "reps": 1,
                "op_seed": f"seed * {OP_STRIDE} + op index"}

    def unit(self, u: int) -> list[tuple]:
        return [(u,)]

    def run(self, spec):
        return self.kd.run_cv_comparison(self.pair_id, n=self.size, reps=1,
                                         seed=self.seed * OP_STRIDE + spec[0])

    def observe(self, spec, out) -> dict:
        row = out.rows[0]
        idx = {k: grid_index(self.grid, row[k]) for k in ("h1_boot", "h2_boot", "h1_cv", "h2_cv")}
        return {"boot": [idx["h1_boot"], idx["h2_boot"]],
                "cv": [idx["h1_cv"], idx["h2_cv"]],
                "fp_row": sha(repr(sorted(row.items())))}

    def check(self, spec, out):
        obs = self.observe(spec, out)
        problems = []
        if len(out.rows) != 1 or out.rows[0]["rep"] != 0:
            problems.append("expected one replicate")
        if None in obs["boot"] + obs["cv"]:
            problems.append("a selected bandwidth is not on its candidate grid")
        return problems, obs


WORKLOADS = {w.name: w for w in (Study, Risk, CvCheck)}


def thread_timing(kd, quick: bool = False) -> tuple[dict, list[str]]:
    """Wall time of one small `run_study` with one and with two worker
    threads; the rows must be identical."""
    times, rows = {}, {}
    for threads in (1, 2):
        cfg = kd.ExperimentConfig("class1a", n_list=kd.DEFAULT_N_LIST[:2],
                                  reps=1 if quick else 4, threads=threads)
        t0 = perf_counter()
        rows[threads] = kd.run_study(cfg).rows
        times[threads] = perf_counter() - t0
    problems = [] if rows[1] == rows[2] else ["run_study rows differ between 1 and 2 threads"]
    return {"simulate.run_study_s.t1": times[1], "simulate.run_study_s.t2": times[2],
            "simulate.thread_speedup": times[1] / times[2]}, problems
