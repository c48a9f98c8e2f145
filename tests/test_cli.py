"""Command-line interface: exit codes, precedence, deterministic output.

Commands run in-process through main(argv); every invocation writes into
a pytest-provided temporary directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from musselbed import (Grid, ModelParams, NumericalError,
                       positive_equilibrium, simulate_pde)
import musselbed
from musselbed import checks, cli, sim
from musselbed.cli import (EXIT_HYPOTHESIS, EXIT_IO, EXIT_NUMERICAL,
                           EXIT_OK, EXIT_USAGE, main)

BASE = ["--r", "2", "--alpha", "0.1", "--gamma", "0.5"]


def _run(argv):
    return main(argv)


def test_tau_star_report_contains_reference_delay(tmp_path, capsys):
    code = _run(["tau-star", *BASE, "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "2.35445346214" in out
    report = json.loads((tmp_path / "tau_star_report.json").read_text())
    assert report["tau_star"] == pytest.approx(2.35445346214238, abs=1e-9)
    assert report["crossing_modes"] == [0]
    table = (tmp_path / "critical_delays.csv").read_text().splitlines()
    assert table[0] == "n,j,omega,tau,transversality"
    assert len(table) == 2


def test_tau_star_writes_the_requested_ladder_of_delays(tmp_path):
    # Three crossing modes at this diffusivity and domain length.
    code = _run(["tau-star", *BASE, "--d", "0.05", "--l", "3", "--j-max", "2",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "critical_delays.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(n), int(j)) for n, j, *_ in rows] \
        == [(n, j) for n in range(3) for j in range(3)]
    for k in range(0, 9, 3):
        omega = float(rows[k][2])
        taus = [float(row[3]) for row in rows[k:k + 3]]
        for lo, hi in zip(taus, taus[1:]):
            assert hi - lo == pytest.approx(2.0 * math.pi / omega, rel=1e-9)


def test_classify_reports_boundary_stable_without_coexistence(tmp_path,
                                                              capsys):
    code = _run(["classify", "--r", "0.5", "--alpha", "0.1", "--gamma",
                 "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "bare-sediment state (0, 1): stable" in out
    report = json.loads((tmp_path / "classify_report.json").read_text())
    assert report["bare_state_stability"] == "stable"
    assert report["hypotheses"]["h1"] is False
    assert "equilibrium" not in report


def test_classify_reports_coexistence_analysis(tmp_path):
    code = _run(["classify", *BASE, "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "classify_report.json").read_text())
    assert report["equilibrium"]["m"] == pytest.approx(0.125, abs=1e-9)
    assert report["pattern_analysis"]["verdict"] == "stable"


def test_missing_config_exits_io_without_partial_output(tmp_path):
    out_dir = tmp_path / "results"
    code = _run(["tau-star", "--config", str(tmp_path / "absent.json"),
                 "--out", str(out_dir)])
    assert code == EXIT_IO
    assert not out_dir.exists()


def test_malformed_config_reports_line_and_column(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"params": {"r": 2.0,,}}')
    code = _run(["classify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 1 column" in err


def test_hypothesis_violation_exit_code(tmp_path):
    code = _run(["tau-star", "--r", "0.5", "--alpha", "0.1", "--gamma",
                 "0.5", "--out", str(tmp_path)])
    assert code == EXIT_HYPOTHESIS


def test_invalid_parameter_exit_code(tmp_path):
    code = _run(["classify", "--r", "2", "--alpha", "-0.1", "--gamma",
                 "0.5", "--out", str(tmp_path)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["simulate", *BASE, "--tau", "inf", "--ode", "--t-end", "1"],
    ["tau-star", *BASE, "--l", "inf"],
    ["classify", *BASE, "--gamma", "nan"],
    *(["simulate", *BASE, "--ode", flag, value]
      for flag in ("--t-end", "--dt") for value in ("inf", "nan")),
    *(["simulate", *BASE, "--ode", "--t-end", value] for value in ("-5", "0")),
])
def test_non_finite_parameter_is_a_usage_error(tmp_path, capsys, argv):
    code = _run([*argv, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--r-steps", "0"],
    ["tau-star", "--j-max", "-5"],
    ["verify", "--draws", "-1"],
    ["turing-curve", "--alpha-min", "0.5", "--alpha-max", "0.1"],
    ["hopf-curve", "--samples", "0"],
    ["hopf-curve", "--samples", "-3"],
    # Run-level sweep arguments fail every point alike: no sweep.csv.
    ["sweep", "--dt", "0"],
    ["sweep", "--dt", "-1"],
    ["sweep", "--t-end", "1e12"],
    ["sweep", "--transient-fraction", "1"],
    ["sweep", "--transient-fraction", "2"],
    ["simulate", "--transient-fraction", "1"],
    ["simulate", "--transient-fraction", "-0.5"],
    # ... also when no r of the range has an equilibrium (r < 1).
    *(["sweep", "--r-min", "0.2", "--r-max", "0.5", "--r-steps", "2", *run]
      for run in (["--dt", "0"], ["--t-end", "1e12"])),
], ids=["sweep-r-steps-0", "tau-star-j-max-neg", "verify-draws-neg",
        "turing-curve-reversed",
        "hopf-curve-samples-0", "hopf-curve-samples-neg", "sweep-dt-0",
        "sweep-dt-neg", "sweep-t-end-huge", "sweep-transient-fraction-1",
        "sweep-transient-fraction-2", "simulate-transient-fraction-1",
        "simulate-transient-fraction-neg", "sweep-no-equilibrium-dt-0",
        "sweep-no-equilibrium-t-end-huge"])
def test_count_option_out_of_range_is_a_usage_error(tmp_path, capsys, argv):
    code = _run([*argv, *BASE, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_simulate_rejects_a_bad_transient_fraction_before_integrating(
        tmp_path, capsys, monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("simulate integrated before checking its options")

    monkeypatch.setattr(sim, "_integrate", integrate)
    for run in ([], ["--ode"]):
        code = _run(["simulate", *BASE, *run, "--transient-fraction", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: transient fraction must lie in [0, 1)\n")
        assert os.listdir(tmp_path) == []


def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    command = cli._COMMANDS["hopf-curve"]
    monkeypatch.setitem(cli._COMMANDS, "hopf-curve",
                        command._replace(handler=exhausted))
    code = _run(["hopf-curve", *BASE, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: Unable to allocate 72.8 TiB for an array\n")


def test_missing_required_parameters_exit_code(tmp_path):
    code = _run(["classify", "--r", "2", "--out", str(tmp_path)])
    assert code == EXIT_USAGE


def test_precedence_config_then_set_then_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"r": 1.5, "alpha": 0.1,
                                          "gamma": 0.5}}))
    out_a = tmp_path / "a"
    code = _run(["classify", "--config", str(cfg),
                 "--set", "params.r=2.0", "--out", str(out_a)])
    assert code == EXIT_OK
    got = json.loads((out_a / "classify_report.json").read_text())
    assert got["params"]["r"] == 2.0

    out_b = tmp_path / "b"
    code = _run(["classify", "--config", str(cfg),
                 "--set", "params.r=2.0", "--r", "3.0", "--out",
                 str(out_b)])
    assert code == EXIT_OK
    got = json.loads((out_b / "classify_report.json").read_text())
    assert got["params"]["r"] == 3.0


def test_unknown_config_parameter_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"r": 2.0, "alpha": 0.1,
                                          "gamma": 0.5, "bogus": 1}}))
    code = _run(["classify", "--config", str(cfg), "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, config, key", [
    (["--set", "dtt=0.1"], {}, "dtt"),
    ([], {"grid_nn": 8}, "grid_nn"),
    (["--set", "n_max=3"], {}, "n_max"),
    (["--set", "run.dt=0.1"], {}, "run"),
], ids=["set-dtt", "config-grid-nn", "set-n-max", "set-dotted"])
def test_unknown_config_key_is_rejected(tmp_path, capsys, argv, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"r": 2.0, "alpha": 0.1,
                                          "gamma": 0.5}, **config}))
    out = tmp_path / "out"
    code = _run(["classify", "--config", str(cfg), *argv, "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: unknown config key(s): {key}\n"
    assert not out.exists()


def test_config_keys_of_other_commands_are_allowed(tmp_path):
    # One config file serves every command.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"r": 2.0, "alpha": 0.1,
                                          "gamma": 0.5},
                               "dt": 0.01, "grid_n": 128, "j_max": 1}))
    assert _run(["classify", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("value", ["-1", "1000000000", "3"],
                         ids=["n-max-neg", "n-max-huge", "n-max-3"])
def test_the_removed_mode_ceiling_option_is_a_usage_error(tmp_path, capsys,
                                                         value):
    # tau-star always scans up to the first mode that cannot cross.
    code = _run(["tau-star", *BASE, "--n-max", value, "--out",
                 str(tmp_path)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: --n-max {value}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, config, name", [
    ("simulate", {"ode": "false", "t_end": 1}, "ode"),
    ("turing-curve", {"resolution": 2.7}, "resolution"),
    ("tau-star", {"j_max": "x"}, "j_max"),
    ("verify", {"draws": True}, "draws"),
    ("simulate", {"ode": True, "dt": True, "t_end": 1}, "dt"),
])
def test_config_option_of_the_wrong_type_is_a_usage_error(
        tmp_path, capsys, command, config, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"r": 2.0, "alpha": 0.1,
                                          "gamma": 0.5}, **config}))
    out = tmp_path / "out"
    code = _run([command, "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: config option '{name}': ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("params", [None, [2.0, 0.1, 0.5], "r=2"],
                         ids=["set", "config-list", "config-string"])
def test_params_entry_that_is_not_an_object_is_a_usage_error(
        tmp_path, capsys, params):
    if params is None:
        argv = ["--set", "params=3"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": params}))
        argv = ["--config", str(cfg)]
    code = _run(["classify", *BASE, *argv, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: config entry 'params' must be a JSON "
                          "object")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, config, message", [
    (["--set", "foo"], None, "--set needs key=value, got 'foo'"),
    (["--set", "params.r=2", "--set", "params.r.x=1"], None,
     "--set path 'params.r.x' collides with a scalar"),
    ([], [1, 2], "config {} must hold a JSON object at top level"),
], ids=["set-without-value", "set-through-a-scalar", "config-list"])
def test_a_malformed_config_or_set_is_a_usage_error(
        tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)]
    out = tmp_path / "out"
    code = _run(["classify", *BASE, *argv, "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message.format(cfg)}\n"
    assert not out.exists()


def test_an_out_path_under_a_file_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = _run(["classify", *BASE, "--out", str(blocker / "out")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write classify_report.json: ")
    assert err.count("\n") == 1


def test_sweep_reports_the_window_it_finds(tmp_path, capsys):
    code = _run(["sweep", "--r", "1.4", "--alpha", "0.45", "--gamma", "8",
                 "--d", "1", "--r-min", "1.3", "--r-max", "1.6",
                 "--r-steps", "3", "--t-end", "1000", "--dt", "0.1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "sustained oscillation for r in [1.3, 1.6]\n")
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    assert report["oscillation_window"] == [1.3, 1.6]


def test_repeated_runs_are_byte_identical(tmp_path):
    for k, argv in enumerate((
            ["tau-star"],
            ["simulate", "--tau", "1", "--grid-n", "16", "--dt", "0.05",
             "--t-end", "31"],
            ["simulate", "--tau", "3.6", "--ode", "--t-end", "150"])):
        out_a, out_b = tmp_path / f"a{k}", tmp_path / f"b{k}"
        for out in (out_a, out_b):
            assert _run([*argv, *BASE, "--out", str(out)]) == EXIT_OK
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b)) and names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_csv_rows_format_each_cell_by_the_per_cell_rule(tmp_path):
    # A cell of a declared float column prints as f"{x:.12g}", numpy
    # floats included; a cell of any other column, bool and numpy integer
    # types included, prints as str(x).
    special = [-0.0, math.inf, -math.inf, math.nan, 1e16, 5e-324,
               2.2250738585072014e-308, 0.1, 1.0 / 3.0, np.float64(2.0 / 3.0),
               1e-5, -2.5e300]
    other = [1, True, False, "", "text", np.int64(7), None, 0]
    rows = [(x, cell, -x) for x, cell in zip(special, other * 2)]
    cli._write_csv(str(tmp_path), "cells.csv", ["a", "b", "c"], rows,
                   (float, object, float))
    want = ["a,b,c"] + [f"{x:.12g},{cell},{y:.12g}" for x, cell, y in rows]
    assert (tmp_path / "cells.csv").read_text() == "\n".join(want) + "\n"


def test_simulate_fields_hold_every_point_of_every_strided_frame(tmp_path):
    code = _run(["simulate", *BASE, "--tau", "1", "--grid-n", "16", "--dt",
                 "0.05", "--t-end", "31", "--out", str(tmp_path)])
    assert code == EXIT_OK
    p = ModelParams(r=2.0, alpha=0.1, gamma=0.5, tau=1.0)
    eq = positive_equilibrium(p)
    grid = Grid(16, p.l)

    def history(x, t):
        bump = 0.1 * np.cos(2 * x / p.l)
        return eq.m + bump, eq.a - bump

    traj = simulate_pde(p, history, grid, t_end=31.0, dt=0.05)
    stride = len(traj.times) // 200
    assert (len(traj.times), stride) == (621, 3)   # the last frame is left out
    want = ["t,x,m,a"] + [
        f"{traj.times[k]:.12g},{x:.12g},{traj.fields_m[k, j]:.12g},"
        f"{traj.fields_a[k, j]:.12g}"
        for k in range(0, len(traj.times), stride)
        for j, x in enumerate(grid.x())]
    assert (tmp_path / "fields.csv").read_text().splitlines() == want


@pytest.mark.parametrize("argv", [["--t-end", "1e9"],
                                  ["--tau", "1e6", "--dt", "1e-3"]],
                         ids=["frames", "delay-ring"])
def test_simulate_that_cannot_fit_is_a_usage_error(tmp_path, capsys, argv):
    code = _run(["simulate", *BASE, *argv, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: run would store ")
    assert err.count("\n") == 1
    assert not os.listdir(tmp_path)


def test_simulate_of_too_many_steps_is_a_usage_error(tmp_path, capsys):
    code = _run(["simulate", *BASE, "--ode", "--dt", "1e-9",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: run would take 6e+11 steps (limit 1e+07)")
    assert err.count("\n") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, message", [
    (["--t-end", "1e300", "--dt", "1e-10"],
     "run would take inf steps (limit 1e+07)"),
    (["--tau", "1e300", "--dt", "1e-10"], "tau / dt overflows"),
    (["--t-end", "1e-15", "--dt", "1e-320"],
     "run would take 1e+305 steps (limit 1e+07)"),
], ids=["steps", "delay", "frame-stride"])
def test_simulate_whose_step_count_overflows_is_a_usage_error(
        tmp_path, capsys, argv, message):
    code = _run(["simulate", *BASE, "--ode", *argv, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not os.listdir(tmp_path)


def test_sweep_with_an_overflowing_delay_is_a_usage_error(tmp_path, capsys):
    # The delay is shared by every point, so no point gets a row of its own.
    code = _run(["sweep", *BASE, "--tau", "1e300", "--dt", "1e-10",
                 "--r-steps", "2", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: tau / dt overflows")
    assert err.count("\n") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command, code, err", [
    ("classify", EXIT_OK, ""),
    ("tau-star", EXIT_HYPOTHESIS,
     "error: tau_star requires hypotheses h1-h3; failing: h1, h2, h3\n"),
    ("verify", EXIT_HYPOTHESIS,
     "error: no positive equilibrium: need 0 < alpha < 1 < r < 1/alpha, "
     "got alpha=1.0, r=2.0\n"),
])
def test_alpha_one_ends_on_a_documented_exit(tmp_path, capsys, command,
                                             code, err):
    # delta0 divides by 1 - alpha, and the oracles' raw a* by alpha + m* = 0.
    assert _run([command, "--alpha", "1", "--r", "2", "--gamma", "1",
                 "--d", "1", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == err
    if command == "classify":
        report = json.loads((tmp_path / "classify_report.json").read_text())
        assert report["hypotheses"]["details"][
            "delta0 undefined: alpha = 1"] == "nan"


@pytest.mark.parametrize("alpha, upper", [
    ("1e-100", "2.92893218813e+99"), ("1e-200", "2.92893218813e+199"),
    ("1e-300", "2.92893218813e+299"),
])
def test_hopf_curve_at_a_tiny_alpha_bisects_its_wide_bracket(
        tmp_path, capsys, alpha, upper):
    # The scan's cells are about 1/alpha / 10^4 wide: far more than 100
    # halvings from the 1e-12 tolerance.
    code = _run(["hopf-curve", "--gamma", "2", "--r", "2", "--d", "1",
                 "--alpha", alpha, "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        f"oscillation onset values of r: 2, {upper}\n")


def test_hopf_curve_at_the_least_alpha_is_a_usage_error(tmp_path, capsys):
    # 1/alpha is inf, so the r grid holds no finite value.
    code = _run(["hopf-curve", "--gamma", "2", "--r", "2", "--d", "1",
                 "--alpha", "5e-324", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, message", [
    (["classify", "--r", "abc"], "argument --r: invalid float value: 'abc'"),
    (["hopf-curve", "--samples", "1.5"],
     "argument --samples: invalid int value: '1.5'"),
    (["classify", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: command"),
], ids=["bad-float", "bad-int", "unknown-flag", "no-command"])
def test_a_command_line_that_does_not_parse_is_a_usage_error(
        tmp_path, capsys, argv, message):
    code = _run([*argv, "--out", str(tmp_path)] if argv else argv)
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not os.listdir(tmp_path)


def test_a_command_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        _run(["verify", "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: musselbed verify")


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_one_command_parser_parses_as_the_full_parser(tmp_path, command):
    # main builds only the subparser its argv names.
    full, only = cli._build_parser(), cli._build_parser(command)
    assert list(_subparsers(only)) == [command]
    assert (_subparsers(only)[command].format_help()
            == _subparsers(full)[command].format_help())
    argv = [command, *BASE, "--out", str(tmp_path)]
    assert only.parse_args(argv) == full.parse_args(argv)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("flags", [["--bogus", "1"], ["--r", "abc"]],
                         ids=["unknown-flag", "bad-value"])
def test_main_reports_a_parse_error_as_the_full_parser_does(
        tmp_path, capsys, command, flags):
    argv = [command, *flags, "--out", str(tmp_path)]
    with pytest.raises(cli.CliError) as full:
        cli._build_parser().parse_args(argv)
    assert main(argv) == full.value.code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {full.value}\n"


BLOCK_OVERFLOW = ("error: discrete spectrum: a 2x2 block of the operator "
                  "is not finite (d*mu or 1/gamma overflows)\n")


@pytest.mark.parametrize("argv, code, err, reason", [
    (["classify", "--alpha", "10", "--r", "1e300", "--gamma", "1"], EXIT_OK,
     "", "delta0^2 overflows"),
    (["tau-star", "--alpha", "10", "--r", "1e300", "--gamma", "1"],
     EXIT_HYPOTHESIS,
     "error: tau_star requires hypotheses h1-h3; failing: h1, h2, h3\n",
     None),
    (["classify", "--alpha", "1e-300", "--r", "2", "--gamma", "1"], EXIT_OK,
     "", "discriminant undefined: m*^2 underflows to 0"),
    (["classify", "--alpha", "0.1", "--r", "1.0000000001", "--gamma",
      "5e-324"], EXIT_OK, "",
     "rho0 undefined: gamma*(r - 1) underflows to 0"),
    (["normal-form", "--alpha", "0.1", "--r", "2", "--gamma", "5e-324"],
     EXIT_NUMERICAL,
     "error: adjoint eigenvector undefined: gamma*r*m* underflows to 0\n",
     None),
    (["classify", *BASE, "--l", "1e-200"], EXIT_OK, "", None),
    (["tau-star", *BASE, "--l", "1e-160"], EXIT_OK, "", None),
    (["normal-form", *BASE, "--l", "1e-160"], EXIT_OK, "", None),
    (["hopf-curve", "--alpha", "0.1", "--r", "2", "--gamma", "5e-324"],
     EXIT_NUMERICAL, "error: rho0 undefined: gamma*(r - 1) underflows to 0 "
     "at r = 1.000000001\n", None),
    (["tau-star", "--alpha", "1e-300", "--r", "2", "--gamma", "1"],
     EXIT_NUMERICAL, "error: mode 0: quartic middle coefficient underflows "
     "(t_n = 2.000e-300, whose square is below the normal range)\n", None),
    (["simulate", *BASE, "--l", "1e-150", "--t-end", "1"], EXIT_NUMERICAL,
     "error: diffusion matrix factorization failed (info 129)\n", None),
    (["normal-form", *BASE, "--l", "1e-6"], EXIT_OK, "", None),
    (["tau-star", *BASE, "--l", "1e-100"], EXIT_OK, "", None),
    (["normal-form", *BASE, "--l", "1e-100"], EXIT_OK, "", None),
    (["normal-form", "--r", "2277.763554921702", "--alpha", "1e-160",
      "--gamma", "4.3232516671103696e-05", "--d", "0.001374273309192517"],
     EXIT_NUMERICAL, "error: crossing phase omega*tau underflows to 0 "
     "(omega = 7.267e-77, tau = 0.000e+00)\n", None),
    (["normal-form", "--r", "1.523898510626989", "--alpha",
      "5.11236277441316e-06", "--gamma", "1e-160", "--l", "1e-300"],
     EXIT_NUMERICAL, "error: normal-form constants overflow: |g11| = "
     "1.222e+155, |g02| = 4.776e+155\n", None),
    (["normal-form", "--r", "2", "--alpha", "0.1", "--gamma", "1e-309"],
     EXIT_NUMERICAL, "error: quadratic brackets overflow: f_hat_20 or "
     "f_hat_11 is not finite\n", None),
    (["verify", "--r", "6.934668275807624", "--alpha",
      "0.0007963736603806847", "--gamma", "1.7e308", "--d",
      "1.6410208000439576e-05"], EXIT_NUMERICAL,
     "error: mode 2: discriminant t^2 - 4*gamma*d overflows\n", None),
    (["verify", *BASE, "--l", "1e-100", "--draws", "1", "--spectrum-n",
      "16"], EXIT_NUMERICAL, "error: verification suite found mismatches\n",
     None),
    (["verify", "--r", "2", "--alpha", "0.1", "--gamma", "1e-320"],
     EXIT_NUMERICAL, BLOCK_OVERFLOW, None),
    (["verify", *BASE, "--d", "1.7e308"], EXIT_NUMERICAL, BLOCK_OVERFLOW,
     None),
    (["simulate", *BASE, "--gamma", "1e284", "--l", "1e126", "--t-end", "2",
      "--dt", "0.1", "--grid-n", "16"], EXIT_NUMERICAL,
     "error: energy functional overflows\n", None),
], ids=["delta0-overflow", "tau-star-delta0-overflow", "m-squared-underflow",
        "rho0-underflow", "normal-form-gamma-underflow",
        "classify-wavenumber-overflow", "tau-star-wavenumber-overflow",
        "normal-form-wavenumber-overflow", "hopf-curve-gamma-underflow",
        "tau-star-script-t-underflow", "simulate-factorization-failure",
        "normal-form-small-domain", "tau-star-crossing-gap-overflow",
        "normal-form-crossing-gap-overflow", "normal-form-phase-underflow",
        "normal-form-g11-overflow", "normal-form-bracket-overflow",
        "verify-discriminant-overflow",
        "verify-k4-overflow", "verify-block-gamma-underflow",
        "verify-block-d-overflow", "simulate-energy-overflow"])
def test_an_overflow_or_underflow_ends_on_a_documented_exit(
        tmp_path, capsys, argv, code, err, reason):
    # Each of these ended in a traceback or on a wrong exit: normal-form
    # compared residuals that grow as 1/sqrt(l*pi) with an absolute
    # bound, and tau-star-script-t-underflow named an underflow as a
    # failed hypothesis.  simulate-factorization-failure keeps its exit
    # just above the spacings that Grid refuses.  An argv's own --d wins.
    assert _run([argv[0], "--d", "1", *argv[1:],
                 "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == err
    if reason is not None:
        report = json.loads((tmp_path / "classify_report.json").read_text())
        assert report["hypotheses"]["details"][reason] == "nan"


def test_no_result_record_reaches_the_json_writer(tmp_path, monkeypatch):
    # A record is a tuple, which _jsonable would write as a list.
    plain = cli._jsonable

    def checked(obj):
        assert not hasattr(obj, "_fields"), type(obj)
        return plain(obj)

    monkeypatch.setattr(cli, "_jsonable", checked)
    for command, small in _SMALL_FLAGS.items():
        assert _run([command, *BASE, *small, "--out",
                     str(tmp_path / command)]) == EXIT_OK, command


def test_hopf_curve_outputs_window(tmp_path, capsys):
    code = _run(["hopf-curve", "--r", "2", "--alpha", "0.45", "--gamma",
                 "8", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "hopf_report.json").read_text())
    rs = [pt["r"] for pt in report["points"]]
    assert rs[0] == pytest.approx(1.0865, abs=1e-3)
    assert rs[1] == pytest.approx(1.7286, abs=1e-3)


def test_turing_curve_at_a_tiny_alpha_scans_inside_h1(tmp_path):
    # 1/alpha = 1e8: the scan's old upper end, 1/alpha - 1e-9, rounded
    # back to 1/alpha, outside h1, and the command exited 2.
    code = _run(["turing-curve", *BASE, "--d", "0.01", "--alpha-min", "1e-8",
                 "--alpha-max", "1e-8", "--resolution", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "turing_curve.csv").read_text().splitlines()
    assert [row.split(",")[2] for row in rows[1:]] == ["0", "1"]


def test_normal_form_report_values(tmp_path):
    code = _run(["normal-form", *BASE, "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "normal_form_report.json").read_text())
    assert report["c1"]["re"] == pytest.approx(-2.2491276, abs=1e-5)
    assert report["c1"]["im"] == pytest.approx(-2.0316433, abs=1e-5)
    assert report["direction"] == "forward"
    assert report["orbit_stability"] == "stable"
    assert report["mu2"] > 0.0
    assert report["beta2"] < 0.0


def test_simulate_ode_writes_expected_files(tmp_path, capsys):
    code = _run(["simulate", *BASE, "--tau", "3.6", "--ode",
                 "--t-end", "150", "--out", str(tmp_path)])
    assert code == EXIT_OK
    names = sorted(os.listdir(tmp_path))
    assert names == ["fields.csv", "orbit_summary.json",
                     "plot_timeseries.py", "timeseries.csv"]
    header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
    assert header == "t,mean_m,mean_a,min_m,max_m,energy"
    summary = json.loads((tmp_path / "orbit_summary.json").read_text())
    assert set(summary) >= {"is_periodic", "period", "amplitude_m",
                            "spatial_inhomogeneity"}


def test_verify_subcommand_reports_all_checks_passing(tmp_path, capsys):
    code = _run(["verify", *BASE, "--draws", "5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    matrix = (tmp_path / "verify_matrix.csv").read_text().splitlines()
    assert matrix[0] == "check,status,detail"
    assert len(matrix) == 6
    assert all(",pass," in line for line in matrix[1:])


def test_verify_spectrum_gate_scales_with_the_grid(tmp_path, capsys):
    code = _run(["verify", *BASE, "--spectrum-n", "100", "--draws", "2",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_verify_spectrum_match_covers_a_crowded_spectrum(tmp_path):
    # At l ~ 2 and gamma ~ 2 the slow algae modes fill the rightmost
    # discrete eigenvalues, so compared roots lie deep in the spectrum.
    code = _run(["verify", "--r", "1.1917", "--alpha", "0.6045", "--gamma",
                 "2.2312", "--d", "1.9486", "--l", "1.9488", "--draws", "2",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "verify_matrix.csv").read_text().splitlines()
    assert any(row.startswith("discrete_spectrum_match,pass,")
               for row in rows)


def _spectrum_mismatch(out_dir: Path, spectrum_n: int) -> float:
    code = _run(["verify", *BASE, "--spectrum-n", str(spectrum_n),
                 "--draws", "1", "--out", str(out_dir)])
    assert code == EXIT_OK
    [row] = [row for row in
             (out_dir / "verify_matrix.csv").read_text().splitlines()
             if row.startswith("discrete_spectrum_match,")]
    assert row.startswith("discrete_spectrum_match,pass,")
    return float(row.rsplit(" ", 1)[1])


def test_verify_spectrum_refines_at_second_order_on_fine_grids(tmp_path):
    # Halving the spacing quarters the mismatch, up to 800 intervals.
    coarse = _spectrum_mismatch(tmp_path / "400", 400)
    fine = _spectrum_mismatch(tmp_path / "800", 800)
    assert coarse / fine == pytest.approx(4.0, rel=0.05)


def test_verify_matrix_is_pinned_at_the_reference_point(tmp_path):
    code = _run(["verify", *BASE, "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "verify_matrix.csv").read_text() == (
        "check,status,detail\n"
        "delay_free_consistency,pass,max identity residual 2.274e-13\n"
        "discrete_spectrum_match,pass,worst relative mismatch 3.304e-04\n"
        "newton_crossing_match,pass,|tracked - closed form| = 4.441e-16\n"
        "pairing_quadrature,pass,max pairing residual 4.393e-09\n"
        "region_map_consistency,pass,0 mismatching cells of 114\n")


@pytest.mark.parametrize("fault, detail", [
    (NumericalError("could not converge a starting root at tau = 0"),
     "tracker failed: could not converge a starting root at tau = 0"),
], ids=["numerical"])
def test_verify_reports_a_failed_tracker_as_a_fail_row(
        tmp_path, capsys, monkeypatch, fault, detail):
    def failing(*args):
        raise fault
    monkeypatch.setattr(checks, "newton_track_root", failing)
    code = _run(["verify", *BASE, "--draws", "2", "--out", str(tmp_path)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == "error: verification suite found mismatches\n"
    assert f"FAIL  newton_crossing_match: {detail}\n" in captured.out
    rows = (tmp_path / "verify_matrix.csv").read_text().splitlines()
    assert rows[3] == f"newton_crossing_match,FAIL,{detail}"
    assert sum(",FAIL," in row for row in rows) == 1


def _run_fresh(argv):
    """argv in a fresh interpreter, where numpy's RuntimeWarnings would
    reach stderr."""
    src = str(Path(musselbed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "musselbed.cli", *argv],
                          env=env, capture_output=True, text=True)


def test_simulate_that_blows_up_writes_one_error_line_only(tmp_path):
    # 1/(1 + m) is inf at m = -1, and the guard reports it.
    done = _run_fresh(["simulate", *BASE, "--ode", "--m0", "-1", "--a0",
                       "0.5", "--out", str(tmp_path)])
    assert done.returncode == EXIT_NUMERICAL
    assert done.stdout == ""
    assert done.stderr == ("error: field blow-up at t = 0.01 "
                           "(magnitude nan)\n")


@pytest.mark.parametrize("command, n", [("simulate", 128), ("verify", 200)])
def test_a_grid_spacing_below_the_float_range_is_refused_quietly(
        tmp_path, command, n):
    # h*h underflows to 0, and simulate and verify divide by it.
    done = _run_fresh([command, *BASE, "--d", "1", "--l", "1e-200",
                       "--out", str(tmp_path)])
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert done.stderr == (
        f"error: grid spacing l*pi/n = {math.pi * 1e-200 / n:.3e} (l = "
        f"1e-200, n = {n}) has a square below the normal float range\n")
    assert not os.listdir(tmp_path)


def test_a_domain_whose_length_overflows_is_refused_quietly(tmp_path):
    # l*pi overflows, and the grid and the history would use it.
    done = _run_fresh(["simulate", *BASE, "--d", "1", "--l", "1.7e308",
                       "--t-end", "1", "--out", str(tmp_path)])
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert done.stderr == ("error: domain length l*pi overflows "
                           "(l = 1.7e+308, n = 128)\n")
    assert not os.listdir(tmp_path)


def test_tau_star_where_the_wave_number_overflows_writes_no_nan(tmp_path):
    assert _run(["tau-star", *BASE, "--d", "1", "--l", "1e-160", "--out",
                 str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "tau_star_report.json").read_text())
    assert report["crossing_modes"] == [0]
    rows = (tmp_path / "critical_delays.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["0", "0"]]
    assert "nan" not in rows[1]


def test_classify_finds_the_discrete_minimum_past_mode_fifty(tmp_path):
    assert _run(["classify", "--r", "1.3", "--alpha", "0.3", "--gamma", "1",
                 "--d", "0.01", "--l", "100", "--out", str(tmp_path)]) \
        == EXIT_OK
    report = json.loads((tmp_path / "classify_report.json").read_text())
    pattern = report["pattern_analysis"]
    assert pattern["verdict"] == "turing-unstable"
    assert pattern["discrete_min_n"] == 232
    assert pattern["discrete_min_value"] == pytest.approx(-0.21083, abs=1e-5)


def test_classify_band_discriminant_stays_a_number_where_it_overflows(
        tmp_path):
    # g*g and 4*d*d0 both overflow: inf - inf was written as "nan".
    assert _run(["classify", "--r", "2", "--alpha", "0.1", "--gamma", "0.5",
                 "--d", "1.7976931348623157e308", "--out",
                 str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "classify_report.json").read_text())
    assert report["pattern_analysis"]["band_discriminant"] == "inf"
    assert report["pattern_analysis"]["verdict"] == "stable"


# Each command at its smallest useful size, for the sweep over the box.
_SMALL_FLAGS = {
    "classify": [], "hopf-curve": ["--samples", "5"],
    "turing-curve": ["--resolution", "2"], "tau-star": [], "normal-form": [],
    "simulate": ["--ode", "--t-end", "20", "--dt", "0.05"],
    "sweep": ["--r-steps", "2", "--t-end", "20", "--dt", "0.05"],
    "verify": ["--draws", "1", "--spectrum-n", "50"],
}


@st.composite
def _box_points(draw):
    """A point of the box that `musselbed verify` samples."""
    alpha = draw(st.floats(0.05, 0.9))
    return {"r": draw(st.floats(1.05, 1.0 / alpha, exclude_max=True)),
            "alpha": alpha, "gamma": draw(st.floats(0.1, 5.0)),
            "d": draw(st.floats(0.01, 2.0)), "l": draw(st.floats(0.5, 2.0))}


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(point=_box_points())
def test_every_command_ends_on_a_documented_exit_over_the_box(
        tmp_path, capsys, point):
    flags = [arg for name, value in point.items()
             for arg in (f"--{name}", repr(value))]
    for command, small in _SMALL_FLAGS.items():
        code = _run([command, *flags, *small, "--out",
                     str(tmp_path / command)])
        assert code in (EXIT_OK, EXIT_HYPOTHESIS, EXIT_NUMERICAL), command
        err = capsys.readouterr().err
        if code != EXIT_OK:
            assert err.startswith("error: ") and err.count("\n") == 1


# Each command at a short run, for the exit-code contract over any doubles.
_SHORT_RUNS = {
    "classify": [], "hopf-curve": [], "turing-curve": ["--resolution", "2"],
    "tau-star": [], "normal-form": [],
    "simulate": ["--t-end", "2", "--dt", "0.1", "--grid-n", "16"],
    "sweep": ["--r-steps", "2", "--t-end", "2", "--dt", "0.1"],
    "verify": ["--draws", "1", "--spectrum-n", "16"],
}
_REFERENCE_POINT = {"r": 2.0, "alpha": 0.1, "gamma": 0.5, "d": 1.0,
                    "l": 1.0, "tau": 0.0}


@st.composite
def _any_command_lines(draw):
    """A command at a short run at the reference point, with up to three
    parameters set to any double: NaN, infinities, subnormals, and every
    decade of the positive range."""
    command = draw(st.sampled_from(sorted(_SHORT_RUNS)))
    point = dict(_REFERENCE_POINT)
    doubles = (st.floats() | st.floats(min_value=0.0, exclude_min=True)
               | st.integers(-323, 308).map(lambda k: 10.0 ** k))
    for name in draw(st.sets(st.sampled_from(sorted(point)), min_size=1,
                             max_size=3)):
        point[name] = draw(doubles)
    flags = [arg for name, value in point.items()
             for arg in (f"--{name}", repr(value))]
    return [command, *flags, *_SHORT_RUNS[command]]


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_any_command_lines())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_doubles_end_on_a_documented_exit(tmp_path, capsys, argv):
    out = tempfile.mkdtemp(dir=tmp_path)
    code = _run([*argv, "--out", out])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_HYPOTHESIS, EXIT_NUMERICAL,
                    EXIT_IO)
    err = capsys.readouterr().err
    if code != EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert err == ""
    for name in os.listdir(out):
        assert "nan" not in _cells(Path(out, name)), name


def _cells(path):
    """The CSV cells or JSON values of a result file, as text, leaving
    out the hypothesis details of classify, which README documents as
    nan where a quantity is undefined."""
    if path.suffix == ".csv":
        return {cell for line in path.read_text().splitlines()
                for cell in line.split(",")}
    if path.suffix != ".json":
        return set()
    report = json.loads(path.read_text())
    report.get("hypotheses", {}).pop("details", None)
    cells = set()

    def walk(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for child in node:
                walk(child)
        else:
            cells.add(str(node))

    walk(report)
    return cells
