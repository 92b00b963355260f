"""Command-line interface: subcommands, outputs, and the config file."""

import re

import numpy as np
import pytest

from kdeclass import ParameterError
from kdeclass.cli import _CONFIG_KEYS, _build_parser, main


FAST = ["--boot-iters", "8", "--grid", "3"]


def test_study_command(tmp_path, capsys):
    out = tmp_path / "study"
    rc = main(["study", "--pair", "class1a", "--n-list", "20,26",
               "--reps", "1", "--seed", "0", "--out", str(out), *FAST])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "slope_h1=" in captured
    assert "n=20" in captured and "n=26" in captured
    for name in ["class1a_replicates.csv", "class1a_summary.csv",
                 "class1a_slopes.csv", "class1a_plotdata.dat"]:
        assert (out / name).exists()


def test_study_deterministic_output(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    argv = ["study", "--pair", "class2a", "--n-list", "20,26",
            "--reps", "2", "--seed", "3", *FAST]
    assert main([*argv, "--out", str(out1)]) == 0
    assert main([*argv, "--out", str(out2)]) == 0
    assert ((out1 / "class2a_replicates.csv").read_bytes()
            == (out2 / "class2a_replicates.csv").read_bytes())


def test_tail_command(tmp_path, capsys):
    out = tmp_path / "tail"
    rc = main(["tail", "--n-list", "30", "--reps", "1", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "scaled_tail_excess=" in captured
    assert "frac_from_f=" in captured
    assert (out / "tail_replicates.csv").exists()
    assert (out / "tail_summary.csv").exists()
    assert (out / "tail_contrast.csv").exists()


def test_cvcheck_command(capsys):
    rc = main(["cvcheck", "--pair", "class1a", "--n", "30", "--reps", "2",
               "--seed", "1", *FAST])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "spread_ratio=" in captured
    assert "reps=2" in captured


def test_risk_surface_command(tmp_path, capsys):
    out = tmp_path / "surface"
    rc = main(["risk-surface", "--pair", "class2a", "--n", "30",
               "--seed", "2", "--out", str(out), *FAST])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "err_min=" in captured
    lines = (out / "class2a_risk_surface.csv").read_text().strip().splitlines()
    assert lines[0] == "h1,h2,err_boot"
    assert len(lines) == 1 + 3 * 3  # grid 3 x 3
    surface = np.array([[float(tok) for tok in line.split(",")]
                        for line in lines[1:]])
    assert np.all(surface[:, 2] >= 0.0) and np.all(surface[:, 2] <= 1.0)
    # the printed err_min is the surface minimum
    err_min = float(captured.split("err_min=")[1].split()[0])
    assert err_min == surface[:, 2].min()


def test_config_file_preloads_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny smoke configuration\n"
        "n_list = 20,26\n"
        "reps = 1\n"
        "boot-iters = 8\n"
        "grid = 3\n"
        "seed = 4\n"
    )
    out = tmp_path / "out"
    rc = main(["study", "--pair", "class1a", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0
    lines = (out / "class1a_replicates.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2  # two sample sizes x one replicate
    assert "n=20" in capsys.readouterr().out


def test_explicit_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_list = 20,26\nreps = 1\nboot-iters = 8\ngrid = 3\n")
    out = tmp_path / "out"
    rc = main(["study", "--pair", "class1a", "--config", str(cfg),
               "--reps", "2", "--out", str(out)])
    assert rc == 0
    lines = (out / "class1a_replicates.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # the flag's two replicates, not the file's one


@pytest.mark.parametrize("command, made", [
    ("study", "class2b_replicates.csv"), ("risk-surface", "class2b_risk_surface.csv")])
def test_config_file_supplies_pair(tmp_path, command, made):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pair = class2b\nn_list = 20,26\nreps = 1\nn = 20\nboot-iters = 8\n"
                   "grid = 3\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / made).exists()


def test_pair_flag_overrides_config_pair(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pair = class2b\nn_list = 20,26\nreps = 1\nboot-iters = 8\ngrid = 3\n")
    out = tmp_path / "out"
    assert main(["study", "--pair", "class1a", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name.split("_")[0] for p in out.iterdir()) == ["class1a"] * 4


@pytest.mark.parametrize("command, text, error", [
    ("study", "reps = 1\n", "the following arguments are required: --pair"),
    ("risk-surface", "n = 20\n", "the following arguments are required: --pair"),
    ("study", "pair = pareto\n", "argument --pair: invalid choice: 'pareto'"),
    ("cvcheck", "pair = class9\n", "argument --pair: invalid choice: 'class9'"),
    ("risk-surface", "pair = class9\n", "argument --pair: invalid choice: 'class9'"),
])
def test_config_pair_missing_or_not_a_choice_exits(tmp_path, capsys, command, text, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(cfg)])
    assert info.value.code == 2
    assert f"kdeclass {command}: error: {error}" in capsys.readouterr().err


def test_config_keys_are_the_long_flags():
    """A flag added or removed without its config key, or a key without
    its flag, fails here."""
    _, subparsers = _build_parser()
    dests = {action.dest for sub in subparsers.values() for action in sub._actions
             if any(flag.startswith("--") and flag not in ("--config", "--help")
                    for flag in action.option_strings)}
    assert dests == set(_CONFIG_KEYS)


def test_config_file_threads_key_is_unknown(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    with pytest.raises(ParameterError, match=f"^{re.escape(str(cfg))}:1: unknown key 'threads'"):
        main(["tail", "--config", str(cfg)])


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("reps 3\n")
    with pytest.raises(ParameterError):
        main(["study", "--pair", "class1a", "--config", str(cfg)])


def test_cli_rejects_bad_arguments():
    with pytest.raises(SystemExit):
        main(["study", "--pair", "nosuchpair"])
    with pytest.raises(SystemExit):
        main(["nosuchcommand"])
    with pytest.raises(SystemExit):
        main(["study", "--pair", "class1a", "--n-list", "20,不"])
    with pytest.raises(SystemExit):
        main([])  # a subcommand is required


@pytest.mark.parametrize("command, absent, present", [
    ("tail", ("--boot-iters", "--grid", "--c2", "--threads"), ("--alpha", "--beta")),
    ("risk-surface", ("--threads",), ("--boot-iters", "--grid", "--c2")),
    ("study", ("--threads",), ("--boot-iters", "--grid", "--c2", "--n-list")),
    ("cvcheck", ("--threads",), ("--boot-iters", "--grid", "--c2")),
])
def test_subcommand_help_lists_only_the_flags_it_reads(capsys, command, absent, present):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert all(flag not in text for flag in absent)
    assert all(flag in text for flag in present)


@pytest.mark.parametrize("line, key", [("reps = abc", "reps"), ("n_list = 20,x", "n_list")])
def test_config_file_bad_value_names_file_line_and_key(tmp_path, line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\nseed = 1\n" + line + "\n")
    with pytest.raises(ParameterError) as info:
        main(["study", "--pair", "class1a", "--config", str(cfg)])
    message = str(info.value)
    assert message.startswith(f"{cfg}:3: ") and repr(key) in message
