"""Timed and traced passes over the workloads, and the metrics they give.

The machine this runs on shares its cores: the same work can take 40%
longer for tens of seconds at a time.  So every timed unit (an op, the
prologue, a set-up import) is bracketed by a speed gauge that never runs
package code, and its wall time is also reported scaled to the reference
speed, at which the gauge takes its reference time.  In-process work is
gauged by `probe`, 3 ms of interpreter and small-array work.  That does
not track the speed of a 1.5 s fresh-process import (mostly loading
shared libraries and module code), so set-up imports and fresh-process
CLI calls are gauged by `import_probe`, a fresh interpreter importing
numpy and scipy.linalg.  The bounded end-to-end times are the scaled
ones; the report prints the raw ones beside them.

`end_to_end` measures with tracing off.  `per_layer` is the separate
traced run.  The named workload runs an untraced pass for half the
requested time and then the same rounds traced; the tracing overhead is
the difference.  Every other workload then runs one traced round, so
every per-layer metric gets a value whichever workload is named.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy

from tracing import Tracer, layer_api
from workloads import COMMANDS, WORKLOADS, Context, Op

SETUP_SAMPLES = 5
PROBE_REF_S = 0.003
SETUP_CODE = "import musselbed, musselbed.cli"
REFERENCE_IMPORT = "import numpy, scipy.linalg"
REFERENCE_IMPORT_S = 0.4
_PROBE_ARRAY = np.ones(129)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KNOWN_ERRORS = ("verify.errors.OverflowError",
                "delay.errors.ZeroDivisionError",
                "normal_form.errors.NumericalError")
# Reasons an analysis point may fail without making the run incorrect:
# the package's documented defects, and nothing else.
KNOWN_DEFECTS = KNOWN_ERRORS + ("verify.newton_track_root.no_crossing",)


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work,
    like the package's own; independent of the package."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    x = _PROBE_ARRAY
    for _ in range(200):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - t0


def _fresh_interpreter(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import numpy and scipy.linalg:
    the speed gauge for work done in fresh processes."""
    return _fresh_interpreter(REFERENCE_IMPORT)


class Clock:
    """Times units of work; each unit's scale factor is the gauge's
    reference time over the mean of the gauge readings just before and
    after it."""

    def __init__(self, gauge=probe, ref_s: float = PROBE_REF_S) -> None:
        self._gauge, self._ref_s = gauge, ref_s
        self._last = gauge()

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self._gauge()
        factor = self._ref_s / (0.5 * (self._last + after))
        self._last = after
        return result, raw, factor


def clock_for(wl) -> Clock:
    """The import gauge for a workload whose ops start fresh processes,
    the probe for the others."""
    if getattr(wl, "in_process", True):
        return Clock()
    return Clock(import_probe, REFERENCE_IMPORT_S)


@dataclass
class Pass:
    raw: float = 0.0      # wall time of the prologue and the ops
    scaled: float = 0.0   # the same at the reference speed
    rounds: int = 0
    agreed: int = 0
    ops: list[Op] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_pass(wl, ctx: Context, seconds: float = 0.0,
             rounds: int = 0) -> Pass:
    """Prologue, then whole rounds: exactly `rounds` if given, otherwise
    until the scaled work time reaches `seconds` (at least one round), so
    a slow spell on the machine does not change how much work a run does."""
    out = Pass()
    clock = clock_for(wl)
    tracer = ctx.tracer

    def unit(op_id: str, fn):
        if tracer:
            tracer.op = op_id
            with tracer.span(f"bench.{wl.name}.op"):
                result, raw, factor = clock.time(fn)
            tracer.scale[op_id] = factor
        else:
            result, raw, factor = clock.time(fn)
        out.raw += raw
        out.scaled += raw * factor
        return result, raw, factor

    out.agreed = unit(f"{wl.name}/prologue",
                      lambda: wl.prologue(ctx, out.failures))[0]
    while True:
        for name, fn in wl.round(ctx, out.rounds):
            op, raw, factor = unit(f"{wl.name}/{out.rounds}/{name}", fn)
            op.seconds, op.scaled = raw, raw * factor
            out.ops.append(op)
        out.rounds += 1
        if rounds:
            if out.rounds >= rounds:
                break
        elif out.scaled >= seconds:
            break
    return out


def is_correct(wl, passes: list[Pass]) -> bool:
    """Every pinned check passed, and every op succeeded, except analysis
    points that failed only on the package's documented defects: those
    count in `failed`, not against correctness."""
    for p in passes:
        if p.failures:
            return False
        for op in p.ops:
            if op.ok:
                continue
            if wl.name != "analysis" or not set(
                    op.failure.split(";")) <= set(KNOWN_DEFECTS):
                return False
    return True


def measure_setup(samples: int = SETUP_SAMPLES) -> list[tuple[float,
                                                              float]]:
    """Wall time of fresh interpreters importing the package and its CLI,
    as (raw, scaled) pairs, gauged by the reference import."""
    clock = Clock(import_probe, REFERENCE_IMPORT_S)
    times = []
    for _ in range(samples):
        _, raw, factor = clock.time(lambda: _fresh_interpreter(SETUP_CODE))
        times.append((raw, raw * factor))
    return times


def peak_rss_mb(wl, ops: list[Op]) -> float:
    """Largest resident set of the processes that ran the ops: the fresh
    CLI processes for `cli`, this process for the others."""
    if wl.name == "cli":
        kib = max(op.counts["maxrss_kib"] for op in ops)
    else:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib * 1024 / 1e6


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _percentiles(seconds: list[float]) -> dict:
    """Median, plus p90 when at least ten samples lie beyond it."""
    out = {"op_p50_ms": statistics.median(seconds) * 1e3}
    if len(seconds) >= 100:
        out["op_p90_ms"] = statistics.quantiles(seconds, n=10)[-1] * 1e3
    return out


def end_to_end(name: str, seed: int, seconds: float, workdir: str,
               wl=None, setup_samples: int = SETUP_SAMPLES) -> dict:
    wl = wl or WORKLOADS[name](seed)
    setup = measure_setup(setup_samples)
    ctx = Context(api=layer_api(), workdir=workdir)
    wl.setup(ctx)
    p = run_pass(wl, ctx, seconds)
    ok = sum(op.ok for op in p.ops)
    lat = _percentiles([op.scaled for op in p.ops])
    metrics = {"setup_s": statistics.median(s for _, s in setup),
               "ops_per_s": ok / p.scaled,
               "op_p50_ms": lat["op_p50_ms"],
               "peak_rss_mb": peak_rss_mb(wl, p.ops)}
    raw = _percentiles([op.seconds for op in p.ops])
    report = {
        "rounds": p.rounds, "ops": len(p.ops), "busy_s": p.raw,
        "busy_scaled_s": p.scaled,
        "failed_ratio": (len(p.ops) - ok) / len(p.ops),
        "failures": _failure_counts(p.ops),
        "setup_samples_s": [list(t) for t in setup],
        "raw": {"setup_s": statistics.median(r for r, _ in setup),
                "ops_per_s": ok / p.raw, **raw},
        "steps_per_s": sum(op.steps for op in p.ops) / p.scaled,
        "oracle_checks_per_s": (p.agreed + sum(op.agreed for op in p.ops))
        / p.scaled,
        "check_failures": p.failures, **lat}
    return _result(is_correct(wl, [p]), p.ops, metrics, report)


def per_layer(name: str, seed: int, seconds: float, workdir: str,
              workloads: dict | None = None) -> tuple[dict, Tracer]:
    workloads = workloads or {k: w(seed) for k, w in WORKLOADS.items()}
    tracer = Tracer()
    order = [name] + [k for k in workloads if k != name]
    traced: dict[str, Pass] = {}
    all_ops: list[Op] = []
    correct = True
    for key in order:
        wl = workloads[key]
        if key == "cli":
            wl.in_process = True
        wl.setup(Context(api=layer_api(), workdir=workdir))
        passes = []
        if key == name:
            plain = run_pass(wl, Context(api=layer_api(), workdir=workdir),
                             seconds / 2)
            passes.append(plain)
        traced[key] = run_pass(
            wl, Context(api=layer_api(tracer), tracer=tracer,
                        workdir=workdir),
            rounds=plain.rounds if key == name else 1)
        passes.append(traced[key])
        all_ops += [op for p in passes for op in p.ops]
        correct &= is_correct(wl, passes)
    metrics = layer_metrics(tracer, traced)
    overhead = traced[name].scaled - plain.scaled
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_share"] = overhead / plain.scaled
    report = {"untraced_s": plain.scaled, "traced_s": traced[name].scaled,
              "rounds": {k: p.rounds for k, p in traced.items()},
              "failures": _failure_counts(all_ops)}
    return _result(correct, all_ops, metrics, report), tracer


def _failure_counts(ops: list[Op]) -> dict[str, int]:
    return dict(Counter(tag for op in ops if not op.ok
                        for tag in op.failure.split(";")))


def _result(correct: bool, ops: list[Op], metrics: dict,
            report: dict) -> dict:
    return {"correct": correct, "attempted": len(ops),
            "failed": sum(not op.ok for op in ops), "metrics": metrics,
            "report": report}


def _mean(values: list[float]) -> float:
    if not values:
        raise RuntimeError("a per-layer metric has no samples")
    return statistics.fmean(values)


def layer_metrics(tracer: Tracer, traced: dict[str, Pass]) -> dict:
    """Per-layer numbers from the traced passes' spans and op counters."""
    spans = tracer.spans
    scale = [tracer.scale.get(s.op, 1.0) for s in spans]
    own = [t * f for t, f in zip(tracer.self_seconds(), scale)]

    def durations(name: str, workload: str, where: str = "") -> list[float]:
        return [(s.end - s.start) * f for s, f in zip(spans, scale)
                if s.name == name and s.op.startswith(workload + "/")
                and where in s.op]

    def layer_self(layer: str, workload: str) -> float:
        return sum(t for s, t in zip(spans, own)
                   if s.name.startswith(layer + ".")
                   and s.op.startswith(workload + "/"))

    def counts(workload: str) -> Counter:
        total: Counter = Counter()
        for op in traced[workload].ops:
            total.update(op.counts)
        return total

    an, sw, pde, cl = (counts(k) for k in ("analysis", "sweep", "pde", "cli"))
    spectrum200 = [i for i, s in enumerate(spans)
                   if s.name == "bench.spectrum_n200"]
    m = {
        "model.check_hypotheses.us":
            _mean(durations("model.check_hypotheses", "analysis")) * 1e6,
        "linear.hopf_points_in_r.ms":
            _mean(durations("linear.hopf_points_in_r", "analysis")) * 1e3,
        "linear.turing_curve.ms_per_alpha":
            _mean(durations("linear.turing_curve", "analysis")) * 1e3,
        "linear.turing_analysis.us":
            _mean(durations("linear.turing_analysis", "analysis")) * 1e6,
        "linear.busy_share":
            layer_self("linear", "analysis") / traced["analysis"].scaled,
        "delay.tau_star.us":
            _mean(durations("delay.tau_star", "analysis")) * 1e6,
        "delay.tau_star.crossing_modes": an["crossing_modes"],
        "normal_form.hopf_coefficients.us":
            _mean(durations("normal_form.hopf_coefficients",
                            "analysis")) * 1e6,
        "verify.newton_track_root.ms":
            _mean(durations("verify.newton_track_root", "analysis")) * 1e3,
        "verify.newton_track_root.agree_ratio":
            an["newton_agree"] / an["newton_calls"],
        "verify.newton_track_root.unconverged_steps":
            an["unconverged_steps"],
        "verify.bilinear_pairing_quadrature.ms":
            _mean(durations("verify.bilinear_pairing_quadrature",
                            "analysis")) * 1e3,
        "verify.discrete_spectrum.ms.n200": _mean(
            [(s.end - s.start) * f for s, f in zip(spans, scale)
             if s.name == "verify.discrete_spectrum"
             and s.parent in spectrum200]) * 1e3,
        "verify.grid_classify.ms":
            _mean(durations("verify.grid_classify", "analysis")) * 1e3,
        "sim.ode.us_per_step":
            sum(durations("sim.amplitude_sweep", "sweep")) / sw["ode_steps"]
            * 1e6,
        "sim.sweep.periodic_points": sw["periodic_points"],
        "sim.detect_orbit.ms": _mean(durations("sim.detect_orbit",
                                               "pde")) * 1e3,
        "sim.lyapunov_value.us": _mean(durations("sim.lyapunov_value",
                                                 "pde")) * 1e6,
        "sim.frames_stored": max(op.counts["frames"]
                                 for op in traced["pde"].ops),
        "sim.frames_mb": max(op.counts["frame_bytes"]
                             for op in traced["pde"].ops) / 1e6,
        "cli.self_s": layer_self("cli", "cli") / traced["cli"].rounds,
        "cli.bytes_written": cl["bytes_written"] / traced["cli"].rounds,
    }
    for n in (64, 128, 256):
        steps = sum(op.steps for op in traced["pde"].ops
                    if op.name.startswith(f"n{n}-"))
        m[f"sim.pde.us_per_step.n{n}"] = sum(
            durations("sim.simulate_pde", "pde", f"/n{n}-")) / steps * 1e6
    for cmd, _ in COMMANDS:
        m[f"cli.{cmd}.wall_s"] = _mean(durations(f"cli.{cmd}", "cli"))
    tags = Counter(tag for p in traced.values() for op in p.ops if not op.ok
                   for tag in op.failure.split(";"))
    for tag in KNOWN_ERRORS:
        m[tag] = tags[tag]
    m["errors.other"] = sum(v for k, v in tags.items()
                            if ".errors." in k and k not in KNOWN_ERRORS)
    m["verify.newton_track_root.no_crossing"] = tags[
        "verify.newton_track_root.no_crossing"]
    return m


def declared(benchmark_json: str, section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(benchmark_json, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}
