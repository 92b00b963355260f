"""Simulation studies: bandwidth-selection rate experiments, heavy-tail
misclassification growth, and the cross-validation negative control.

Every study is deterministic given its seed: each (sample size, replicate)
cell draws from its own generator, np.random.default_rng((seed, n_index,
rep)), so results are independent of evaluation order (and of the worker
threads of `run_study`), and reruns produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .classifier import (FROM_G, TrainedClassifier, _ahat_from_f,
                         decision_segments, fit_classifier)
from .densities import DensityPair, make_pair
from .errors import (DegenerateRegressionError, ParameterError, _checked_interval,
                     _require_finite, _require_integers)
from .selector import (SelectorConfig, _cv_surface, _first_argmin, _selector_config, sample_scale,
                       select_bandwidths)

__all__ = [
    "DEFAULT_N_LIST",
    "ExperimentConfig",
    "SlopeFit",
    "StudyRow",
    "StudyResult",
    "TailStudyResult",
    "CvComparisonResult",
    "fit_slope",
    "run_study",
    "run_tail_study",
    "run_cv_comparison",
]

#: Ten log-spaced sample sizes from 20 to 200: round(20 * 10^(k/9)).
DEFAULT_N_LIST = tuple(round(20 * 10 ** (k / 9)) for k in range(10))

#: Reference rate exponents drawn next to the fitted slope.
REFERENCE_SLOPES = (0.2, 1.0 / 9.0)


def _sizes(n_list, fewest: int) -> tuple[int, ...]:
    """The sample sizes as ints: at least `fewest` of them, each at least 2,
    strictly increasing so that rows come out in n order, one summary per n."""
    _require_integers(minimum=2, **{f"n_list[{i}]": n for i, n in enumerate(n_list)})
    sizes = tuple(int(n) for n in n_list)
    if len(sizes) < fewest or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(
            f"n_list must hold at least {fewest} strictly increasing sizes, got {sizes}")
    return sizes


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one rate study; `n_list` needs two sizes to fit a rate.

    Rows do not depend on `threads`, and 2 threads measured no faster than 1:
    each selection already evaluates its two populations on two threads.
    `threads` stays only because the benchmark's traced cvcheck run builds
    `ExperimentConfig(threads=2)` for its per-layer metric
    `cvcheck.simulate.thread_speedup`."""

    pair_id: str
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    reps: int = 100
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    seed: int = 0
    out_dir: str | None = None
    threads: int = 1

    def __post_init__(self):
        _require_integers(reps=self.reps, threads=self.threads, minimum=1)
        object.__setattr__(self, "selector", _selector_config(self.selector, "selector"))
        object.__setattr__(self, "n_list", _sizes(self.n_list, 2))
        _require_integers(seed=self.seed, minimum=0)
        for name in ("reps", "seed", "threads"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least-squares line through (log n, mean -log bandwidth)."""

    slope: float
    intercept: float
    points: tuple[tuple[float, float], ...]
    which: str = "h1"

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


@dataclass(frozen=True)
class StudyRow:
    pair: str
    n: int
    rep: int
    h1: float
    h2: float
    err_boot_min: float
    seed: int


@dataclass(frozen=True)
class StudyResult:
    pair_id: str
    rows: tuple[StudyRow, ...]
    summary: tuple[dict, ...]
    slope_h1: SlopeFit
    slope_h2: SlopeFit


def fit_slope(points, which: str = "h1") -> SlopeFit:
    """Closed-form least squares of y on x for a sequence of (x, y) pairs."""
    pts = [(float(x), float(y)) for x, y in points]
    if not np.all(np.isfinite(pts)):
        raise ParameterError("points must be finite")
    if len(pts) < 2:
        raise DegenerateRegressionError("need at least two points")
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateRegressionError("all x values are equal")
    slope = float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / sxx)
    intercept = float(ys.mean() - slope * xs.mean())
    return SlopeFit(slope=slope, intercept=intercept, points=tuple(pts), which=which)


def _study_cell(pair: DensityPair, pair_id: str, n_index: int, n: int, rep: int,
                cfg: ExperimentConfig) -> StudyRow:
    rng = np.random.default_rng((cfg.seed, n_index, rep))
    x = pair.sample("f", n, rng)
    y = pair.sample("g", n, rng)
    sel = select_bandwidths(x, y, pair.p, cfg.selector, rng=rng)
    return StudyRow(pair=pair_id, n=n, rep=rep, h1=sel.h1, h2=sel.h2,
                    err_boot_min=sel.err_min, seed=cfg.seed)


def run_study(cfg: ExperimentConfig) -> StudyResult:
    """Replicated bandwidth selection across sample sizes, with equal sample
    sizes m = n and p = 1/2, followed by the log-log rate regression of the
    per-n mean of -log(selected bandwidth) on log n."""
    pair = make_pair(cfg.pair_id)
    cells = [(i, n, rep) for i, n in enumerate(cfg.n_list)
             for rep in range(cfg.reps)]

    def cell(c):
        return _study_cell(pair, cfg.pair_id, *c, cfg)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            rows = tuple(pool.map(cell, cells))
    else:
        rows = tuple(map(cell, cells))

    summary = []
    pts1, pts2 = [], []
    for n in cfg.n_list:
        h1s = np.array([r.h1 for r in rows if r.n == n])
        h2s = np.array([r.h2 for r in rows if r.n == n])
        m1, m2 = float(np.mean(-np.log(h1s))), float(np.mean(-np.log(h2s)))
        s1 = float(np.std(-np.log(h1s), ddof=1)) if h1s.size > 1 else 0.0
        s2 = float(np.std(-np.log(h2s), ddof=1)) if h2s.size > 1 else 0.0
        summary.append({"pair": cfg.pair_id, "n": n,
                        "mean_neglog_h1": m1, "mean_neglog_h2": m2,
                        "sd_neglog_h1": s1, "sd_neglog_h2": s2})
        pts1.append((np.log(n), m1))
        pts2.append((np.log(n), m2))

    slope_h1 = fit_slope(pts1, "h1")
    slope_h2 = fit_slope(pts2, "h2")
    result = StudyResult(pair_id=cfg.pair_id, rows=rows, summary=tuple(summary),
                         slope_h1=slope_h1, slope_h2=slope_h2)
    if cfg.out_dir is not None:
        _write_study(result, cfg.out_dir)
    return result


def _write_csv(path: Path, header: list[str], rows) -> None:
    """CSV file with a header line and one line per dict row; csv writes
    each float as its shortest round-trip repr.  Creates the file's directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, header)
        w.writeheader()
        w.writerows(rows)


def _write_study(result: StudyResult, out_dir: str) -> None:
    out = Path(out_dir)
    pair = result.pair_id
    _write_csv(out / f"{pair}_replicates.csv",
               ["pair", "n", "rep", "h1", "h2", "err_boot_min", "seed"],
               map(asdict, result.rows))
    _write_csv(out / f"{pair}_summary.csv",
               ["pair", "n", "mean_neglog_h1", "mean_neglog_h2",
                "sd_neglog_h1", "sd_neglog_h2"], result.summary)
    _write_csv(out / f"{pair}_slopes.csv", ["pair", "which", "slope", "intercept"],
               ({"pair": pair, "which": fit.which, "slope": fit.slope,
                 "intercept": fit.intercept}
                for fit in (result.slope_h1, result.slope_h2)))

    # gnuplot-compatible plot data; the reference lines with the two rate
    # exponents pass through the center of the h1 regression line.
    xs = np.array([x for x, _ in result.slope_h1.points])
    fitted1 = np.array([result.slope_h1.predict(x) for x in xs])
    fitted2 = np.array([result.slope_h2.predict(x) for x in xs])
    cx, cy = float(xs.mean()), float(fitted1.mean())
    with open(out / f"{pair}_plotdata.dat", "w") as fh:
        fh.write("# logn mean_neglog_h1 mean_neglog_h2 fit_h1 fit_h2 "
                 "ref_slope_1_5 ref_slope_1_9\n")
        for k, x in enumerate(xs):
            y1 = result.slope_h1.points[k][1]
            y2 = result.slope_h2.points[k][1]
            refs = [cy + s * (x - cx) for s in REFERENCE_SLOPES]
            fh.write(" ".join(repr(float(v)) for v in
                              (x, y1, y2, fitted1[k], fitted2[k], *refs)) + "\n")


# ----------------------------------------------------------------------
# heavy-tail study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TailStudyResult:
    """Replicate table of the scaled tail misclassification integral plus
    the light-tailed contrast fractions."""

    alpha: float
    beta: float
    x0: float
    rows: tuple[dict, ...]           # n, rep, tail_integral, scaled
    scaled_by_n: tuple[tuple[int, float], ...]
    contrast_n: int
    contrast_rows: tuple[dict, ...]  # rep, frac_from_f
    contrast_fraction: float


def _train_rate_rule(pair: DensityPair, n: int, rep_seed) -> TrainedClassifier:
    """Rule trained on n draws per population at h = (IQR / 1.349) * n^(-1/5)."""
    rng = np.random.default_rng(rep_seed)
    x = pair.sample("f", n, rng)
    y = pair.sample("g", n, rng)
    rate = float(n) ** -0.2
    h1 = sample_scale(x, "iqr") * rate
    h2 = sample_scale(y, "iqr") * rate
    return fit_classifier(x, y, h1, h2, pair.p)


def _tail_integral(pair: DensityPair, n: int, rep_seed, x0: float) -> float:
    """One replicate of the integral over (x0, inf) of f at points the
    trained composite rule assigns to the second population; the integral
    is a sum of cdf differences over the rule's decision segments."""
    clf = _train_rate_rule(pair, n, rep_seed)
    segs = decision_segments(clf, x0, np.inf, "ahat")
    return float(sum(pair.f.cdf(b) - pair.f.cdf(a)
                     for a, b, lab in segs if lab == FROM_G))


def _contrast_fraction(pair: DensityPair, n: int, rep_seed,
                       grid: np.ndarray) -> float:
    """Fraction of far-tail grid points the trained composite rule assigns
    to the heavy(er)-tailed first population."""
    clf = _train_rate_rule(pair, n, rep_seed)
    return np.count_nonzero(_ahat_from_f(clf, grid)) / grid.size


def run_tail_study(alpha: float = 2.0, beta: float = 2.5,
                   n_list: tuple[int, ...] = (100, 400, 1600),
                   reps: int = 200, seed: int = 0,
                   x0: float | None = None,
                   contrast_n: int = 500,
                   contrast_grid: tuple[float, float, int] = (3.0, 6.0, 301),
                   out_dir: str | None = None) -> TailStudyResult:
    """Tail misclassification for the heavy-tailed pair, scaled by n*h.

    For each replicate the rule is trained on equal samples with the simple
    rate bandwidths h_j = (normalized-IQR scale) * n^(-1/5); the tail
    integral of f beyond x0 (default: the 0.99 quantile of f) over the
    region assigned to the second population is averaged over replicates
    and multiplied by n * n^(-1/5) = n^(4/5).

    The light-tailed contrast trains on a unit normal against a normal with
    variance 1/9 and reports the fraction of grid points in the far tail
    assigned to the first (heavier-tailed, and there correct) population.
    """
    lo, hi, count = contrast_grid
    _require_integers(reps=reps, minimum=1, **{"contrast_grid[2]": count})
    _require_integers(contrast_n=contrast_n, minimum=2)
    n_list = _sizes(n_list, 1)
    _require_integers(seed=seed, minimum=0)
    _checked_interval("contrast_grid", (lo, hi), finite=True)
    pair = make_pair("pareto", alpha=alpha, beta=beta)
    if x0 is None:
        x0 = float(pair.f.ppf(0.99))
    _require_finite(x0=x0)

    rows = []
    for i, n in enumerate(n_list):
        for rep in range(int(reps)):
            integral = _tail_integral(pair, n, (int(seed), i, rep), x0)
            rows.append({"n": n, "rep": rep, "tail_integral": integral,
                         "scaled": integral * float(n) ** 0.8})
    scaled_by_n = tuple(
        (n, float(np.mean([r["scaled"] for r in rows if r["n"] == n])))
        for n in n_list)

    contrast_pair = make_pair("contrast")
    grid = np.linspace(lo, hi, int(count))
    contrast_rows = tuple(
        {"rep": rep, "frac_from_f": _contrast_fraction(
            contrast_pair, contrast_n, (int(seed), len(n_list), rep), grid)}
        for rep in range(int(reps)))
    contrast_fraction = float(np.mean([r["frac_from_f"] for r in contrast_rows]))

    result = TailStudyResult(
        alpha=float(alpha), beta=float(beta), x0=x0, rows=tuple(rows),
        scaled_by_n=scaled_by_n, contrast_n=int(contrast_n),
        contrast_rows=contrast_rows, contrast_fraction=contrast_fraction)
    if out_dir is not None:
        _write_tail(result, out_dir)
    return result


def _write_tail(result: TailStudyResult, out_dir: str) -> None:
    out = Path(out_dir)
    _write_csv(out / "tail_replicates.csv", ["n", "rep", "tail_integral", "scaled"],
               result.rows)
    _write_csv(out / "tail_summary.csv", ["n", "mean_scaled"],
               ({"n": n, "mean_scaled": v} for n, v in result.scaled_by_n))
    _write_csv(out / "tail_contrast.csv", ["rep", "frac_from_f"], result.contrast_rows)


# ----------------------------------------------------------------------
# cross-validation negative control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CvComparisonResult:
    """Spread comparison between the bootstrap selector and the
    cross-validation argmin over the same candidate grid."""

    pair_id: str
    n: int
    rows: tuple[dict, ...]  # rep, h1_boot, h2_boot, h1_cv, h2_cv
    iqr_log_h1_boot: float
    iqr_log_h1_cv: float

    @property
    def spread_ratio(self) -> float:
        if self.iqr_log_h1_boot == 0.0:
            return 1.0 if self.iqr_log_h1_cv == 0.0 else float("inf")
        return self.iqr_log_h1_cv / self.iqr_log_h1_boot


def _cv_cell(pair: DensityPair, n: int, rep: int, seed: int,
             config: SelectorConfig) -> dict:
    rng = np.random.default_rng((seed, rep))
    x = pair.sample("f", n, rng)
    y = pair.sample("g", n, rng)
    sel = select_bandwidths(x, y, pair.p, config, rng=rng)
    i, j = _first_argmin(_cv_surface(x, y, sel.grid_h1, sel.grid_h2, pair.p,
                                     config.kernel))
    return {"rep": rep, "h1_boot": sel.h1, "h2_boot": sel.h2,
            "h1_cv": float(sel.grid_h1[i]), "h2_cv": float(sel.grid_h2[j])}


def run_cv_comparison(pair_id: str = "class1a", n: int = 100, reps: int = 50,
                      seed: int = 0, config: SelectorConfig | None = None,
                      out_dir: str | None = None) -> CvComparisonResult:
    """Replicated head-to-head of the bootstrap selector against the
    leave-one-out argmin on the same grid and data; reports interquartile
    ranges of log selected h1 and their CV/bootstrap ratio."""
    _require_integers(reps=reps, minimum=1)
    _require_integers(n=n, minimum=2)
    _require_integers(seed=seed, minimum=0)
    config = _selector_config(config)
    pair = make_pair(pair_id)
    rows = tuple(_cv_cell(pair, n, rep, int(seed), config) for rep in range(int(reps)))

    def iqr(vals):
        q75, q25 = np.percentile(vals, [75.0, 25.0])
        return float(q75 - q25)

    result = CvComparisonResult(
        pair_id=pair_id, n=int(n), rows=rows,
        iqr_log_h1_boot=iqr(np.log([r["h1_boot"] for r in rows])),
        iqr_log_h1_cv=iqr(np.log([r["h1_cv"] for r in rows])),
    )
    if out_dir is not None:
        _write_csv(Path(out_dir) / f"{pair_id}_cv_comparison.csv",
                   ["rep", "h1_boot", "h2_boot", "h1_cv", "h2_cv"], rows)
    return result
