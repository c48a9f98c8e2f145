"""Command-line interface: exit codes, precedence, deterministic output.

Commands run in-process through main(argv); every invocation writes into
a pytest-provided temporary directory.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from musselbed import (Grid, ModelParams, NumericalError,
                       positive_equilibrium, simulate_pde)
from musselbed import checks
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


def test_sweep_without_r_values_is_a_usage_error(tmp_path, capsys):
    code = _run(["sweep", *BASE, "--r-steps", "0", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("command, config, name", [
    ("simulate", {"ode": "false", "t_end": 1}, "ode"),
    ("turing-curve", {"resolution": 2.7}, "resolution"),
    ("tau-star", {"n_max": "x"}, "n_max"),
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


def test_sweep_rows_report_an_overflowing_delay(tmp_path):
    code = _run(["sweep", *BASE, "--tau", "1e300", "--dt", "1e-10",
                 "--r-steps", "2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(",error,,,,ValueError: tau / dt overflows" in row
               for row in rows)


def test_hopf_curve_outputs_window(tmp_path, capsys):
    code = _run(["hopf-curve", "--r", "2", "--alpha", "0.45", "--gamma",
                 "8", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "hopf_report.json").read_text())
    rs = [pt["r"] for pt in report["points"]]
    assert rs[0] == pytest.approx(1.0865, abs=1e-3)
    assert rs[1] == pytest.approx(1.7286, abs=1e-3)


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


def test_verify_matrix_is_pinned_at_the_reference_point(tmp_path):
    code = _run(["verify", *BASE, "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "verify_matrix.csv").read_text() == (
        "check,status,detail\n"
        "delay_free_consistency,pass,max identity residual 2.274e-13\n"
        "discrete_spectrum_match,pass,worst relative mismatch 3.304e-04\n"
        "newton_crossing_match,pass,|tracked - closed form| = 2.573e-09\n"
        "pairing_quadrature,pass,max pairing residual 4.393e-09\n"
        "region_map_consistency,pass,0 mismatching cells of 114\n")


@pytest.mark.parametrize("fault, detail", [
    (OverflowError("math range error"), "tracker overflowed"),
    (NumericalError("could not converge a starting root at tau = 0"),
     "tracker failed: could not converge a starting root at tau = 0"),
], ids=["overflow", "numerical"])
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
