"""Self-test of the benchmark: every workload at a tiny size, the traced
run's metric table, the bare-directory refusal, and one perturbed value
per output check, so that no check is vacuous.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import workloads as W  # noqa: E402
from musselbed import (ModelParams, bilinear_pairing_quadrature,  # noqa: E402
                       eigenpair, hopf_coefficients, hopf_points_in_r,
                       newton_track_root, tau_star, turing_analysis,
                       turing_curve)
from tracing import layer_api  # noqa: E402

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


@pytest.fixture
def workdir(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", SRC)
    path = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(seed: int = 1) -> dict:
    """Each workload at a tiny size that still meets its checks."""
    return {
        "analysis": W.Analysis(seed, points_per_round=4, region_resolution=6),
        "sweep": W.Sweep(seed),
        "pde": W.Pde(seed, cases=((64, 2.0), (128, 3.6), (256, 3.6))),
        "cli": W.Cli(seed),
    }


@pytest.mark.parametrize("name", ["analysis", "sweep", "pde", "cli"])
def test_tiny_workload_passes_its_checks(name, workdir):
    wl = tiny()[name]
    if name == "cli":
        wl.commands = (W.COMMANDS[0], W.COMMANDS[3])
    result = harness.end_to_end(name, 1, 0.0, workdir, wl=wl,
                                setup_samples=1)
    assert result["correct"], result["report"]
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(harness.declared(BENCHMARK_JSON,
                                                "end_to_end"))
    assert all(v > 0 for v in metrics.values())
    if name != "analysis":
        assert result["failed"] == 0, result["report"]["failures"]


def test_traced_run_reports_every_per_layer_metric(workdir):
    result, tracer = harness.per_layer("analysis", 1, 0.0, workdir,
                                       workloads=tiny())
    assert result["correct"], result["report"]
    assert set(result["metrics"]) == set(
        harness.declared(BENCHMARK_JSON, "per_layer"))
    assert all(s.end >= s.start for s in tracer.spans)
    assert all(t >= -1e-9 for t in tracer.self_seconds())


def test_bare_directory_exits_without_a_result(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK_JSON, bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analysis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_analysis_point_outcomes():
    api = layer_api()
    assert W.Analysis._point(api, W.REFERENCE).ok
    # Inside the recruitment Hopf window h2 fails: the documented answer
    # is a HypothesisError, which counts as success.
    inadmissible = W.Analysis._point(api, ModelParams(r=1.4, alpha=0.45,
                                                      gamma=8.0))
    assert inadmissible.ok and not inadmissible.agreed


def test_only_documented_defects_leave_a_run_correct():
    def run(*failures):
        return [harness.Pass(ops=[W.Op("point", False, f) for f in failures])]

    analysis = tiny()["analysis"]
    assert harness.is_correct(analysis, run(*harness.KNOWN_DEFECTS))
    for failure in ("bench.errors.TypeError",
                    "closed forms accepted a point outside h1-h3",
                    "verify.newton_track_root.no_crossing;"
                    "verify.bilinear_pairing_quadrature.disagree"):
        assert not harness.is_correct(analysis, run(failure)), failure
    assert not harness.is_correct(tiny()["sweep"],
                                  run("verify.errors.OverflowError"))


def test_clock_scales_by_its_gauge():
    readings = iter([0.2, 0.6])
    clock = harness.Clock(lambda: next(readings), ref_s=0.2)
    result, raw, factor = clock.time(lambda: "done")
    assert result == "done" and raw >= 0
    assert factor == pytest.approx(0.5)
    # Fresh-process CLI calls are gauged by a fresh-process import.
    cli = W.Cli(1)
    assert harness.clock_for(cli)._gauge is harness.import_probe
    cli.in_process = True
    assert harness.clock_for(cli)._gauge is harness.probe


REF = W.REFERENCE
TS = tau_star(REF, j_max=3)
HC = hopf_coefficients(REF)
EP = eigenpair(REF, TS.n0, TS.omega, TS.tau)
PAIR = (REF, EP.q1, EP.q2, EP.m_norm, EP.omega, EP.tau_star, EP.n0)
SAME = bilinear_pairing_quadrature(*PAIR)
CROSS = bilinear_pairing_quadrature(*PAIR, conjugate_right=True)
CROSSING = newton_track_root(REF, TS.n0, 0.0, TS.tau * 1.3, 60).crossing_tau
WINDOW = tuple(pt.r for pt in hopf_points_in_r(0.45, 8.0))
BRACKETS = [tuple(turing_analysis(ModelParams(r=pt.r * f, alpha=0.3,
                                              gamma=1.0, d=0.01),
                                  strict=False).min_mode_value
                  for f in (1 - 1e-6, 1 + 1e-6))
            for pt in turing_curve((0.3, 0.3), 0.01, 1)]
COARSE = W._spectrum_mismatch(layer_api(), 100)
FINE = W._spectrum_mismatch(layer_api(), 200)
PERIOD = 25.0662

# (check, arguments it accepts, perturbed arguments it must reject)
CASES = [
    (W.check_reference, (TS.tau, TS.omega, HC.c1), [
        (TS.tau + 1e-5, TS.omega, HC.c1),
        (TS.tau, TS.omega + 1e-5, HC.c1),
        (TS.tau, TS.omega, HC.c1 + 1e-4),
        (TS.tau, TS.omega, HC.c1 + 1e-4j),
        (TS.tau, TS.omega, complex(-2.28261, -23.9865)),
    ]),
    (W.check_spectrum, (COARSE, FINE), [
        (COARSE, 2e-3), (2.0 * FINE, FINE)]),
    (W.check_turing_slice, (BRACKETS,), [
        ([],), ([(BRACKETS[0][0], BRACKETS[0][0])],)]),
    (W.check_region, (0, 10), [(1, 10), (0, 0)]),
    (W.check_window, WINDOW, [
        (WINDOW[0] + 2e-3, WINDOW[1]), (WINDOW[0], WINDOW[1] - 2e-3)]),
    (W.check_point, (TS.tau, CROSSING, SAME, CROSS), [
        (TS.tau, None, SAME, CROSS),
        (TS.tau, CROSSING + 1e-5, SAME, CROSS),
        (TS.tau, CROSSING, SAME + 1e-5, CROSS),
        (TS.tau, CROSSING, SAME, CROSS + 1e-5),
    ]),
    (W.check_sweep_point, (True, True, None), [
        (True, False, None), (False, True, None),
        (True, True, "NumericalError: blow-up")]),
    (W.check_pde, (2.0, 1e-7, False, None, 1e-14, 1e-9), [
        (2.0, 2e-3, False, None, 1e-14, 1e-9),
        (2.0, 1e-7, False, None, 1e-14, 1e-3),
        (2.0, 1e-7, False, None, 1e-14, float("nan")),
    ]),
    (W.check_pde, (3.6, 0.7, True, PERIOD, 1e-14, 0.01), [
        (3.6, 0.7, False, None, 1e-14, 0.01),
        (3.6, 0.7, True, PERIOD * 1.01, 1e-14, 0.01),
        (3.6, 0.7, True, 19.31, 1e-14, 0.01),
        (3.6, 0.7, True, PERIOD, 2e-3, 0.01),
    ]),
    (W.check_cli, (0, "d", "d"), [(3, "d", "d"), (0, "d", "e")]),
]


@pytest.mark.parametrize("check,good,bad", CASES,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _)
                              in enumerate(CASES)])
def test_check_rejects_perturbed_values(check, good, bad):
    assert check(*good) == []
    for args in bad:
        assert check(*args), f"{check.__name__} accepted {args!r}"


def test_declared_metrics_are_well_formed():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
