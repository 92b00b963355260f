"""Simulation studies: determinism, output files, and the slope fits.

The studies are exercised at miniature sizes (tiny grids, few replicates);
the full-scale experiments live in the acceptance suite.  Every numeric
summary is recomputed from the replicate rows in the test, and the CSV
writers are checked for byte-identical reruns.
"""

import math

import numpy as np
import pytest

from helpers import dense_cv_surface
from kdeclass import (
    DEFAULT_N_LIST,
    TRIWEIGHT,
    CvComparisonResult,
    DegenerateRegressionError,
    ExperimentConfig,
    ParameterError,
    SelectorConfig,
    SlopeFit,
    cv_err,
    fit_slope,
    make_pair,
    run_cv_comparison,
    run_study,
    run_tail_study,
)
from kdeclass.selector import _cv_surface, _first_argmin

TINY_SELECTOR = SelectorConfig(boot_iters=20, grid_per_dim=5, quad_points=101)


def _tiny_cfg(**kwargs):
    defaults = dict(pair_id="class1a", n_list=(20, 26), reps=2,
                    selector=TINY_SELECTOR, seed=0)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ----------------------------------------------------------------------
# constants and slope fitting
# ----------------------------------------------------------------------
def test_default_n_list():
    assert DEFAULT_N_LIST == (20, 26, 33, 43, 56, 72, 93, 120, 155, 200)
    assert DEFAULT_N_LIST == tuple(round(20 * 10 ** (k / 9)) for k in range(10))


def test_fit_slope_exact_lines():
    xs = [1.0, 2.0, 3.0, 4.0]
    fit = fit_slope([(x, 0.2 * x + 1.0) for x in xs])
    assert fit.slope == pytest.approx(0.2, rel=1e-12)
    assert fit.intercept == pytest.approx(1.0, rel=1e-12)
    assert fit.which == "h1"
    assert fit.predict(10.0) == pytest.approx(3.0, rel=1e-12)

    fit2 = fit_slope([(x, x / 9.0) for x in xs], which="h2")
    assert fit2.slope == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert fit2.intercept == pytest.approx(0.0, abs=1e-14)
    assert fit2.which == "h2"


def test_fit_slope_shift_invariance():
    rng = np.random.default_rng(2)
    xs = np.linspace(1.0, 3.0, 7)
    ys = rng.normal(size=7)
    a = fit_slope(zip(xs, ys))
    b = fit_slope(zip(xs, ys + 5.0))
    assert b.slope == pytest.approx(a.slope, rel=1e-12)
    assert b.intercept == pytest.approx(a.intercept + 5.0, rel=1e-12)


def test_fit_slope_errors():
    with pytest.raises(DegenerateRegressionError):
        fit_slope([(1.0, 2.0)])
    with pytest.raises(DegenerateRegressionError):
        fit_slope([(1.0, 2.0), (1.0, 3.0)])


def test_fit_slope_rejects_non_finite_points():
    for bad in (math.nan, math.inf, -math.inf):
        for pts in ([(1.0, 2.0), (2.0, bad), (3.0, 5.0)],
                    [(1.0, 2.0), (bad, 3.0), (3.0, 5.0)]):
            with pytest.raises(ParameterError, match="points must be finite"):
                fit_slope(pts)


def test_experiment_config_validation():
    with pytest.raises(ParameterError):
        _tiny_cfg(n_list=(26, 20))
    with pytest.raises(ParameterError):
        _tiny_cfg(n_list=(1, 20))
    with pytest.raises(ParameterError):
        _tiny_cfg(n_list=(20,))  # a rate needs at least two sizes
    with pytest.raises(ParameterError):
        _tiny_cfg(reps=0)
    with pytest.raises(ParameterError):
        _tiny_cfg(threads=0)
    # counts must be whole numbers, not silently truncated
    for bad in (dict(reps=2.5), dict(reps=1.5), dict(reps=math.nan),
                dict(n_list=(20.5, 30)), dict(n_list=(20, math.inf)),
                dict(threads=1.5)):
        with pytest.raises(ParameterError):
            _tiny_cfg(**bad)
    assert _tiny_cfg(n_list=[20.0, 26.0]).n_list == (20, 26)
    whole = _tiny_cfg(reps=2.0, threads=1.0)
    assert (whole.reps, whole.threads) == (2, 1)
    assert type(whole.reps) is int and type(whole.threads) is int


# ----------------------------------------------------------------------
# run_study
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_study():
    return run_study(_tiny_cfg())


def test_run_study_rows(tiny_study):
    res = tiny_study
    assert res.pair_id == "class1a"
    assert len(res.rows) == 4
    assert [(r.n, r.rep) for r in res.rows] == [(20, 0), (20, 1), (26, 0), (26, 1)]
    for r in res.rows:
        assert r.pair == "class1a"
        assert r.seed == 0
        assert r.h1 > 0 and r.h2 > 0
        assert 0.0 <= r.err_boot_min <= 1.0


def test_run_study_deterministic(tiny_study):
    again = run_study(_tiny_cfg())
    assert again.rows == tiny_study.rows
    assert again.slope_h1 == tiny_study.slope_h1


def test_run_study_threads_match(tiny_study):
    threaded = run_study(_tiny_cfg(threads=2))
    assert threaded.rows == tiny_study.rows


def test_run_study_summary_recomputed(tiny_study):
    res = tiny_study
    assert len(res.summary) == 2
    for entry in res.summary:
        n = entry["n"]
        h1s = [r.h1 for r in res.rows if r.n == n]
        h2s = [r.h2 for r in res.rows if r.n == n]
        assert entry["mean_neglog_h1"] == pytest.approx(
            np.mean(-np.log(h1s)), rel=1e-14)
        assert entry["mean_neglog_h2"] == pytest.approx(
            np.mean(-np.log(h2s)), rel=1e-14)
        assert entry["sd_neglog_h1"] == pytest.approx(
            np.std(-np.log(h1s), ddof=1), rel=1e-12)


def test_run_study_slopes_recomputed(tiny_study):
    res = tiny_study
    pts = [(math.log(e["n"]), e["mean_neglog_h1"]) for e in res.summary]
    refit = fit_slope(pts, "h1")
    assert res.slope_h1.slope == pytest.approx(refit.slope, rel=1e-12)
    assert res.slope_h1.intercept == pytest.approx(refit.intercept, rel=1e-12)
    assert res.slope_h1.points == refit.points
    assert res.slope_h2.which == "h2"


def test_run_study_csv_outputs(tmp_path, tiny_study):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_study(_tiny_cfg(out_dir=str(out1)))
    run_study(_tiny_cfg(out_dir=str(out2)))
    names = ["class1a_replicates.csv", "class1a_summary.csv",
             "class1a_slopes.csv", "class1a_plotdata.dat"]
    for name in names:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
        assert len(b1) > 0

    # replicate file round-trips the rows exactly through repr
    lines = (out1 / "class1a_replicates.csv").read_text().strip().splitlines()
    assert lines[0] == "pair,n,rep,h1,h2,err_boot_min,seed"
    assert len(lines) == 1 + len(tiny_study.rows)
    first = lines[1].split(",")
    assert first[0] == "class1a"
    assert int(first[1]) == tiny_study.rows[0].n
    assert float(first[3]) == tiny_study.rows[0].h1


def test_run_study_plotdata_reference_lines(tmp_path, tiny_study):
    out = tmp_path / "plot"
    run_study(_tiny_cfg(out_dir=str(out)))
    rows = []
    for line in (out / "class1a_plotdata.dat").read_text().splitlines():
        if line.startswith("#"):
            continue
        rows.append([float(tok) for tok in line.split()])
    data = np.array(rows)
    assert data.shape == (2, 7)
    # column 0: log n; 1-2: observed means; 3-4: fitted lines; 5-6: references
    assert data[:, 0] == pytest.approx([math.log(20), math.log(26)], rel=1e-12)
    for k, entry in enumerate(tiny_study.summary):
        assert data[k, 1] == pytest.approx(entry["mean_neglog_h1"], rel=1e-12)
        assert data[k, 2] == pytest.approx(entry["mean_neglog_h2"], rel=1e-12)
        assert data[k, 3] == pytest.approx(
            tiny_study.slope_h1.predict(data[k, 0]), rel=1e-12)
        assert data[k, 4] == pytest.approx(
            tiny_study.slope_h2.predict(data[k, 0]), rel=1e-12)
    # the reference lines carry exactly the two rate exponents and pass
    # through the center of the fitted h1 line
    dx = data[1, 0] - data[0, 0]
    assert (data[1, 5] - data[0, 5]) / dx == pytest.approx(0.2, rel=1e-12)
    assert (data[1, 6] - data[0, 6]) / dx == pytest.approx(1.0 / 9.0, rel=1e-12)
    cx = data[:, 0].mean()
    cy = data[:, 3].mean()
    for col, slope in ((5, 0.2), (6, 1.0 / 9.0)):
        want = cy + slope * (data[:, 0] - cx)
        assert data[:, col] == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# run_tail_study
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_tail():
    return run_tail_study(n_list=(30, 60), reps=3, contrast_n=60,
                          contrast_grid=(3.0, 6.0, 21), seed=0)


def test_tail_study_default_threshold(tiny_tail):
    # alpha = 2: survival x^(-1), so the 0.99 quantile of f is exactly 100
    assert tiny_tail.alpha == 2.0 and tiny_tail.beta == 2.5
    assert tiny_tail.x0 == pytest.approx(100.0, rel=1e-12)


def test_tail_study_rows_and_scaling(tiny_tail):
    res = tiny_tail
    assert len(res.rows) == 6
    assert [(r["n"], r["rep"]) for r in res.rows] == [
        (30, 0), (30, 1), (30, 2), (60, 0), (60, 1), (60, 2)]
    for r in res.rows:
        assert 0.0 <= r["tail_integral"] <= 1.0
        assert r["scaled"] == pytest.approx(
            r["tail_integral"] * r["n"] ** 0.8, rel=1e-14)
    for n, mean_scaled in res.scaled_by_n:
        vals = [r["scaled"] for r in res.rows if r["n"] == n]
        assert mean_scaled == pytest.approx(np.mean(vals), rel=1e-14)


def test_tail_study_contrast(tiny_tail):
    res = tiny_tail
    assert res.contrast_n == 60
    assert len(res.contrast_rows) == 3
    for r in res.contrast_rows:
        assert 0.0 <= r["frac_from_f"] <= 1.0
    assert res.contrast_fraction == pytest.approx(
        np.mean([r["frac_from_f"] for r in res.contrast_rows]), rel=1e-14)


def test_tail_study_deterministic(tiny_tail):
    again = run_tail_study(n_list=(30, 60), reps=3, contrast_n=60,
                           contrast_grid=(3.0, 6.0, 21), seed=0)
    assert again.rows == tiny_tail.rows
    assert again.contrast_rows == tiny_tail.contrast_rows


def test_tail_study_x0_override_and_validation():
    res = run_tail_study(n_list=(30,), reps=1, contrast_n=40,
                         contrast_grid=(3.0, 6.0, 11), seed=1, x0=50.0)
    assert res.x0 == 50.0
    with pytest.raises(ParameterError):
        run_tail_study(reps=0)
    for bad in (dict(reps=1.5), dict(n_list=(30.5,)), dict(contrast_n=40.5),
                dict(n_list=(100, 100)), dict(n_list=(400, 100)), dict(n_list=()),
                dict(contrast_grid=(3.0, 6.0, 0)), dict(contrast_grid=(3.0, 6.0, 2.5))):
        with pytest.raises(ParameterError):
            run_tail_study(**bad)
    with pytest.raises(ParameterError):
        run_tail_study(alpha=2.0, beta=2.0, reps=1)      # needs beta > alpha
    with pytest.raises(ParameterError):
        run_tail_study(alpha=2.0, beta=3.5, reps=1)      # needs beta < alpha + 1
    with pytest.raises(ParameterError):
        run_tail_study(alpha=0.8, beta=1.2, reps=1)      # needs alpha > 1


def test_tail_study_csv_outputs(tmp_path):
    out = tmp_path / "tail"
    run_tail_study(n_list=(30,), reps=2, contrast_n=40,
                   contrast_grid=(3.0, 6.0, 11), seed=0, out_dir=str(out))
    reps = (out / "tail_replicates.csv").read_text().strip().splitlines()
    assert reps[0] == "n,rep,tail_integral,scaled"
    assert len(reps) == 3
    summary = (out / "tail_summary.csv").read_text().strip().splitlines()
    assert summary[0] == "n,mean_scaled"
    assert len(summary) == 2
    contrast = (out / "tail_contrast.csv").read_text().strip().splitlines()
    assert contrast[0] == "rep,frac_from_f"
    assert len(contrast) == 3


# ----------------------------------------------------------------------
# run_cv_comparison
# ----------------------------------------------------------------------
def test_cv_comparison_tiny(tmp_path):
    cfg = SelectorConfig(boot_iters=15, grid_per_dim=4, quad_points=101)
    out = tmp_path / "cv"
    res = run_cv_comparison(pair_id="class1a", n=40, reps=3, seed=0,
                            config=cfg, out_dir=str(out))
    assert res.pair_id == "class1a"
    assert res.n == 40
    assert len(res.rows) == 3
    assert [r["rep"] for r in res.rows] == [0, 1, 2]
    for r in res.rows:
        assert r["h1_boot"] > 0 and r["h1_cv"] > 0
    assert res.iqr_log_h1_boot >= 0.0
    assert res.iqr_log_h1_cv >= 0.0
    again = run_cv_comparison(pair_id="class1a", n=40, reps=3, seed=0, config=cfg)
    assert again.rows == res.rows

    lines = (out / "class1a_cv_comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "rep,h1_boot,h2_boot,h1_cv,h2_cv"
    assert len(lines) == 4

    with pytest.raises(ParameterError):
        run_cv_comparison(reps=0)
    for bad in (dict(n=30.7), dict(reps=1.5)):
        with pytest.raises(ParameterError):
            run_cv_comparison(**bad)


def test_cv_selected_bandwidths_come_from_grid():
    cfg = SelectorConfig(boot_iters=15, grid_per_dim=4, quad_points=101)
    res = run_cv_comparison(pair_id="class1a", n=40, reps=2, seed=3, config=cfg)
    lo, hi = 40 ** (-cfg.c2), cfg.fine_grid_factor * 40 ** 0  # bounds sanity
    for r in res.rows:
        assert r["h1_boot"] >= lo * (1 - 1e-12)
        assert r["h1_cv"] >= lo * (1 - 1e-12)


def test_cv_surface_matches_brute_force_cv_err():
    """Oracle: the surface equals cv_err cell for cell and the former
    per-candidate loop `dense_cv_surface`, on grids with and without
    duplicated candidates; its row-major first minimum is the first minimal
    cell also where distinct bandwidths tie (CV errors are step functions
    of h)."""
    pair = make_pair("class1a")
    grids = [(np.geomspace(0.1, 2.0, 7), np.geomspace(0.15, 1.5, 6)),
             (np.array([0.3, 0.3, 0.8, 0.8]), np.array([0.5, 0.25, 0.5]))]
    ties = 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x, y = pair.sample("f", 30, rng), pair.sample("g", 24, rng)
        for gh1, gh2 in grids:
            brute = np.array([[cv_err(x, y, float(a), float(b), pair.p)
                               for b in gh2] for a in gh1])
            surface = _cv_surface(x, y, gh1, gh2, pair.p, TRIWEIGHT)
            assert np.array_equal(surface, brute)
            assert np.array_equal(surface, dense_cv_surface(x, y, pair.p, gh1, gh2, TRIWEIGHT))
            minimal = np.flatnonzero(brute == brute.min())
            assert _first_argmin(surface) == divmod(int(minimal[0]), gh2.size)
            ties += minimal.size > 1
    assert ties >= 3  # the tie rule was exercised, not only unique minima


def test_spread_ratio_edge_cases():
    base = dict(pair_id="x", n=10, rows=())
    assert CvComparisonResult(**base, iqr_log_h1_boot=0.5,
                              iqr_log_h1_cv=1.25).spread_ratio == pytest.approx(2.5)
    assert CvComparisonResult(**base, iqr_log_h1_boot=0.0,
                              iqr_log_h1_cv=0.0).spread_ratio == 1.0
    assert CvComparisonResult(**base, iqr_log_h1_boot=0.0,
                              iqr_log_h1_cv=0.3).spread_ratio == float("inf")
