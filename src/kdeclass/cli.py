"""Command-line harness for the simulation studies.

Subcommands: `study` (bandwidth-selection rate experiment), `tail`
(heavy-tail misclassification growth plus the light-tailed contrast),
`cvcheck` (cross-validation negative control), and `risk-surface` (one
bootstrap error surface for a single training draw).

All configuration comes from flags, optionally preloaded from a key=value
config file (one `key = value` per line, `#` comments; keys mirror the flag
names); explicit flags override the file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .densities import PAIR_IDS, make_pair
from .errors import KdeClassError, ParameterError, _require_integers
from .selector import SelectorConfig, select_bandwidths
from .simulate import (
    DEFAULT_N_LIST,
    ExperimentConfig,
    _write_csv,
    run_cv_comparison,
    run_study,
    run_tail_study,
)

#: the --pair choices of each subcommand that has the flag; none of them
#: takes the alpha and beta that "pareto" needs
_PAIRS = {"study": ("class1a", "class1b", "class2a", "class2b"),
          "cvcheck": tuple(p for p in PAIR_IDS if p != "pareto")}
_PAIRS["risk-surface"] = _PAIRS["cvcheck"]


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sample-size list {text!r}") from exc


#: config-file keys and the parser of each value
_CONFIG_KEYS = {"reps": int, "n": int, "boot_iters": int, "grid": int, "seed": int,
                "c2": float, "alpha": float, "beta": float,
                "n_list": _parse_n_list, "pair": str, "out": str}


def _load_config(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        val = val.strip().strip("\"'")
        if key not in _CONFIG_KEYS:
            raise ParameterError(
                f"{path}:{lineno}: unknown key {key!r}; known keys: {sorted(_CONFIG_KEYS)}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParameterError(f"{path}:{lineno}: bad value {val!r} for key {key!r}") from exc
    return values


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit root seed")
    common.add_argument("--out", default=None, help="output directory for CSV files")
    common.add_argument("--config", default=None,
                        help="key=value file preloading any of the flags")
    selector = argparse.ArgumentParser(add_help=False)
    selector.add_argument("--boot-iters", type=int, default=100, dest="boot_iters",
                          help="bootstrap replicates per grid cell")
    selector.add_argument("--grid", type=int, default=15,
                          help="candidate bandwidths per axis")
    selector.add_argument("--c2", type=float, default=0.45,
                          help="lower grid edge exponent: smallest h is n^(-c2)")

    parser = argparse.ArgumentParser(
        prog="kdeclass",
        description="Simulation studies for kernel-density plug-in classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_study = sub.add_parser("study", parents=[common, selector],
                             help="replicated bandwidth selection across sample sizes")
    p_study.add_argument("--pair", choices=_PAIRS["study"],
                         help="required, as a flag or a --config key")
    p_study.add_argument("--n-list", type=_parse_n_list, default=DEFAULT_N_LIST,
                         dest="n_list", help="comma-separated sample sizes")
    p_study.add_argument("--reps", type=int, default=100)
    p_study.set_defaults(run=_cmd_study)

    p_tail = sub.add_parser("tail", parents=[common],
                            help="heavy-tail misclassification growth")
    p_tail.add_argument("--alpha", type=float, default=2.0)
    p_tail.add_argument("--beta", type=float, default=2.5)
    p_tail.add_argument("--n-list", type=_parse_n_list, default=(100, 400, 1600),
                        dest="n_list")
    p_tail.add_argument("--reps", type=int, default=200)
    p_tail.set_defaults(run=_cmd_tail)

    p_cv = sub.add_parser("cvcheck", parents=[common, selector],
                          help="cross-validation vs bootstrap selector spread")
    p_cv.add_argument("--pair", default="class1a", choices=_PAIRS["cvcheck"])
    p_cv.add_argument("--n", type=int, default=100)
    p_cv.add_argument("--reps", type=int, default=50)
    p_cv.set_defaults(run=_cmd_cvcheck)

    p_rs = sub.add_parser("risk-surface", parents=[common, selector],
                          help="bootstrap error surface for one training draw")
    p_rs.add_argument("--pair", choices=_PAIRS["risk-surface"],
                      help="required, as a flag or a --config key")
    p_rs.add_argument("--n", type=int, default=100)
    p_rs.set_defaults(run=_cmd_risk_surface)

    return parser, {"study": p_study, "tail": p_tail,
                    "cvcheck": p_cv, "risk-surface": p_rs}


def _selector_config(args) -> SelectorConfig:
    return SelectorConfig(boot_iters=args.boot_iters, grid_per_dim=args.grid,
                          c2=args.c2)


def _cmd_study(args) -> int:
    cfg = ExperimentConfig(pair_id=args.pair, n_list=args.n_list, reps=args.reps,
                           selector=_selector_config(args), seed=args.seed,
                           out_dir=args.out)
    res = run_study(cfg)
    for row in res.summary:
        print(f"pair={row['pair']} n={row['n']} "
              f"mean_neglog_h1={row['mean_neglog_h1']:.6f} "
              f"mean_neglog_h2={row['mean_neglog_h2']:.6f}")
    print(f"pair={res.pair_id} slope_h1={res.slope_h1.slope:.6f} "
          f"slope_h2={res.slope_h2.slope:.6f}")
    return 0


def _cmd_tail(args) -> int:
    res = run_tail_study(alpha=args.alpha, beta=args.beta, n_list=args.n_list,
                         reps=args.reps, seed=args.seed, out_dir=args.out)
    for n, v in res.scaled_by_n:
        print(f"n={n} scaled_tail_excess={v:.6g}")
    print(f"contrast_n={res.contrast_n} frac_from_f={res.contrast_fraction:.4f}")
    return 0


def _cmd_cvcheck(args) -> int:
    res = run_cv_comparison(pair_id=args.pair, n=args.n, reps=args.reps,
                            seed=args.seed, config=_selector_config(args),
                            out_dir=args.out)
    print(f"pair={res.pair_id} n={res.n} reps={len(res.rows)} "
          f"iqr_log_h1_boot={res.iqr_log_h1_boot:.6f} "
          f"iqr_log_h1_cv={res.iqr_log_h1_cv:.6f} "
          f"spread_ratio={res.spread_ratio:.4f}")
    return 0


def _cmd_risk_surface(args) -> int:
    _require_integers(seed=args.seed, minimum=0)
    _require_integers(n=args.n, minimum=2)  # a scale needs two observations
    pair = make_pair(args.pair)
    rng = np.random.default_rng(args.seed)
    x = pair.sample("f", args.n, rng)
    y = pair.sample("g", args.n, rng)
    sel = select_bandwidths(x, y, pair.p, _selector_config(args), rng=rng)
    print(f"pair={args.pair} n={args.n} h1={sel.h1!r} h2={sel.h2!r} "
          f"h3={sel.h3!r} h4={sel.h4!r} err_min={sel.err_min!r}")
    if args.out is not None:
        _write_csv(Path(args.out) / f"{args.pair}_risk_surface.csv", ["h1", "h2", "err_boot"],
                   ({"h1": h1, "h2": h2, "err_boot": sel.err_surface[i, j]}
                    for i, h1 in enumerate(sel.grid_h1)
                    for j, h2 in enumerate(sel.grid_h2)))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)

    parser, subparsers = _build_parser()
    if known.config is not None:
        # subcommands parse into their own namespace, so the file's values
        # must become defaults on every subparser; explicit flags still win
        try:
            values = _load_config(known.config)
        except (ParameterError, OSError, UnicodeDecodeError) as exc:  # a bad or missing file
            # the subcommand comes first: the top-level parser has no flags
            subparsers.get(argv[0], parser).error(f"argument --config: {exc}")
        for sub in subparsers.values():
            sub.set_defaults(**values)
    args = parser.parse_args(argv)
    # argparse checks neither that a pair from the config file is there nor
    # that it is one of the flag's choices
    choices = _PAIRS.get(args.command)
    if choices is not None and args.pair not in choices:
        sub = subparsers[args.command]
        if args.pair is None:
            sub.error("the following arguments are required: --pair")
        sub.error(f"argument --pair: invalid choice: {args.pair!r} "
                  f"(choose from {', '.join(map(repr, choices))})")
    try:
        return args.run(args)
    except KdeClassError as exc:  # a flag value the library refuses or cannot run
        subparsers[args.command].error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
