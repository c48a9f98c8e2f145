"""Batch command-line interface.

One invocation runs one subcommand against one parameter set, assembled
from an optional JSON config file, repeatable ``--set key=value``
overrides, and named flags (precedence: config < --set < flags).
All numeric output is serialized with 12 significant digits so repeated
runs with identical inputs produce byte-identical files.

Exit codes: 0 success, 1 configuration or usage error, 2 hypothesis
violation, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .delay import tau_star
from .exceptions import HypothesisError, NumericalError
from .linear import (boundary_stability, hopf_points_in_r, r_star,
                     turing_analysis, turing_curve)
from .model import (ModelParams, check_hypotheses, hopf_margin,
                    positive_equilibrium)
from .normal_form import hopf_coefficients
from .sim import (Grid, amplitude_sweep, detect_orbit, lyapunov_value,
                  simulate_ode, simulate_pde)
from . import delay as delay_mod
from . import linear as linear_mod
from . import verify as verify_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

class CliError(Exception):
    """Carries the exit code together with the user-facing message."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    """Everything one invocation needs: command, parameters, options."""

    command: str
    params: ModelParams
    options: dict[str, Any] = field(default_factory=dict)
    out_dir: str = "."


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _jsonable(obj: Any) -> Any:
    """Recursively convert values to JSON-friendly, precision-pinned form."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else str(obj)
    if isinstance(obj, complex):
        return {"re": float(_fmt(obj.real)), "im": float(_fmt(obj.imag))}
    if isinstance(obj, np.floating):
        return _jsonable(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.complexfloating):
        return _jsonable(complex(obj))
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _write_text(out_dir: str, name: str, text: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {name}: {exc}") from exc


def _write_json(out_dir: str, name: str, payload: Any) -> None:
    _write_text(out_dir, name,
                json.dumps(_jsonable(payload), indent=2, sort_keys=True)
                + "\n")


def _write_csv(out_dir: str, name: str, header: list[str],
               rows: list[list[Any]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_fmt(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    _write_text(out_dir, name, "\n".join(lines) + "\n")


def _load_config(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(
            EXIT_USAGE,
            f"config parse error in {path} at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise CliError(EXIT_USAGE,
                       f"config {path} must hold a JSON object at top level")
    return data


def _apply_set(config: dict[str, Any], assignment: str) -> None:
    if "=" not in assignment:
        raise CliError(EXIT_USAGE,
                       f"--set needs key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value: Any = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise CliError(EXIT_USAGE,
                           f"--set path {key!r} collides with a scalar")
        node = nxt
    node[parts[-1]] = value


_PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))
_REQUIRED_PARAMS = tuple(f.name for f in fields(ModelParams)
                         if f.default is MISSING)


class _Command(NamedTuple):
    """One subcommand: its handler, its help line and its options as
    name -> (type, default).  The flag is the name with dashes; a bool
    option is a switch.  A None default is worked out by the command
    itself (from the coexistence state, or by the callee)."""

    handler: Callable[[RunConfig], int]
    help: str
    options: dict[str, tuple[type, Any]]


def _build_params(config: dict[str, Any],
                  args: argparse.Namespace) -> ModelParams:
    raw = config.get("params", {})
    if not isinstance(raw, dict):
        raise CliError(EXIT_USAGE,
                       f"config entry 'params' must be a JSON object, "
                       f"got {raw!r}")
    raw = dict(raw)
    unknown = set(raw) - set(_PARAM_FIELDS)
    if unknown:
        raise CliError(EXIT_USAGE,
                       f"unknown parameter field(s) in config: "
                       f"{', '.join(sorted(unknown))}")
    for name in _PARAM_FIELDS:
        flag = getattr(args, f"param_{name}", None)
        if flag is not None:
            raw[name] = flag
    missing = [n for n in _REQUIRED_PARAMS if n not in raw]
    if missing:
        raise CliError(EXIT_USAGE,
                       f"missing required parameter(s): {', '.join(missing)}")
    try:
        values = {k: float(v) for k, v in raw.items()}
        return ModelParams(**values)
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_USAGE, f"invalid model parameters: {exc}") from exc


def _cast_option(name: str, kind: type, value: Any) -> Any:
    """A config value as the option's type; only true/false are booleans,
    booleans are not numbers and fractional numbers are not integers."""
    if kind is bool and not isinstance(value, bool):
        raise CliError(EXIT_USAGE, f"config option {name!r}: expected true "
                                   f"or false, got {value!r}")
    if kind is not bool and (isinstance(value, bool) or (
            kind is int and isinstance(value, float)
            and not value.is_integer())):
        what = "an integer" if kind is int else "a number"
        raise CliError(EXIT_USAGE, f"config option {name!r}: expected "
                                   f"{what}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(EXIT_USAGE,
                       f"config option {name!r}: {exc}") from exc


def _resolve_options(command: str, config: dict[str, Any],
                     args: argparse.Namespace) -> dict[str, Any]:
    """Every option of the command: named flag beats config entry beats
    default."""
    options: dict[str, Any] = {}
    for name, (kind, default) in _COMMANDS[command].options.items():
        value = getattr(args, name)
        if value is None and config.get(name) is not None:
            value = _cast_option(name, kind, config[name])
        options[name] = default if value is None else value
    return options


def _cmd_classify(cfg: RunConfig) -> int:
    p = cfg.params
    report = check_hypotheses(p)
    payload: dict[str, Any] = {
        "params": {k: getattr(p, k) for k in _PARAM_FIELDS},
        "hypotheses": {"h1": report.h1, "h2": report.h2, "h3": report.h3,
                       "details": dict(report.details)},
        "bare_state_stability": boundary_stability(p),
    }
    lines = [f"recruitment regime: "
             f"{'coexistence possible' if report.h1 else 'no positive state'}",
             f"bare-sediment state (0, 1): {payload['bare_state_stability']}"]
    if report.h1:
        eq = positive_equilibrium(p)
        turing = turing_analysis(p, strict=False)
        payload["equilibrium"] = {"m": eq.m, "a": eq.a}
        payload["pattern_analysis"] = {
            "verdict": turing.verdict,
            "marginal": turing.marginal,
            "band_slope": turing.g_r,
            "band_discriminant": turing.lambda_disc,
            "critical_wavenumber_sq": turing.kc_squared,
            "min_mode_value": turing.min_mode_value,
            "discrete_min_n": turing.discrete_min_n,
            "discrete_min_value": turing.discrete_min_value,
        }
        lines.append(f"coexistence state: m* = {_fmt(eq.m)}, "
                     f"a* = {_fmt(eq.a)}")
        lines.append(f"spatial stability verdict: {turing.verdict}")
    _write_json(cfg.out_dir, "classify_report.json", payload)
    print("\n".join(lines))
    return EXIT_OK


def _cmd_hopf_curve(cfg: RunConfig) -> int:
    p = cfg.params
    points = hopf_points_in_r(p.alpha, p.gamma)
    star = r_star(p.alpha)
    lo, hi = 1.0 + 1e-9, 1.0 / p.alpha - 1e-9
    rows = [[float(r), hopf_margin(replace(p, r=float(r)))]
            for r in np.linspace(lo, hi, cfg.options["samples"])]
    _write_csv(cfg.out_dir, "hopf_margin.csv", ["r", "oscillation_margin"],
               rows)
    _write_csv(cfg.out_dir, "hopf_points.csv",
               ["r", "transversality_sign"],
               [[pt.r, pt.transversality_sign] for pt in points])
    _write_json(cfg.out_dir, "hopf_report.json", {
        "alpha": p.alpha, "gamma": p.gamma, "r_star": star,
        "points": [{"r": pt.r, "transversality_sign": pt.transversality_sign}
                   for pt in points]})
    if points:
        listing = ", ".join(_fmt(pt.r) for pt in points)
        print(f"oscillation onset values of r: {listing}")
    else:
        print("no oscillation onset in the admissible r range")
    return EXIT_OK


def _cmd_turing_curve(cfg: RunConfig) -> int:
    p = cfg.params
    amin = cfg.options["alpha_min"]
    amax = cfg.options["alpha_max"]
    resolution = cfg.options["resolution"]
    pts = turing_curve((amin, amax), p.d, resolution)
    _write_csv(cfg.out_dir, "turing_curve.csv", ["alpha", "r", "branch"],
               [[pt.alpha, pt.r, pt.branch] for pt in pts])
    _write_json(cfg.out_dir, "turing_report.json", {
        "d": p.d, "alpha_range": [amin, amax], "resolution": resolution,
        "points": len(pts)})
    print(f"pattern-onset curve: {len(pts)} points written")
    return EXIT_OK


def _cmd_tau_star(cfg: RunConfig) -> int:
    p = cfg.params
    ts = tau_star(p, n_max=cfg.options["n_max"],
                  j_max=cfg.options["j_max"])
    _write_csv(cfg.out_dir, "critical_delays.csv",
               ["n", "j", "omega", "tau", "transversality"],
               [[hp.n, hp.j, hp.omega, hp.tau_crit, hp.transversality]
                for hp in ts.crossings])
    _write_json(cfg.out_dir, "tau_star_report.json", {
        "tau_star": ts.tau, "critical_mode": ts.n0, "omega": ts.omega,
        "crossing_modes": list(ts.s0)})
    print(f"first critical delay: tau* = {_fmt(ts.tau)} at mode {ts.n0}, "
          f"frequency {_fmt(ts.omega)}")
    return EXIT_OK


def _cmd_normal_form(cfg: RunConfig) -> int:
    hc = hopf_coefficients(cfg.params)
    ts, ep, cm = hc.tau_star, hc.eigenpair, hc.manifold
    payload = {
        "tau_star": ts.tau, "critical_mode": ts.n0, "omega": ts.omega,
        "eigenpair": {"q1": ep.q1, "q2": ep.q2, "m_norm": ep.m_norm},
        "g20": hc.g20, "g11": hc.g11, "g02": hc.g02, "g21": hc.g21,
        "c1": hc.c1, "mu2": hc.mu2, "beta2": hc.beta2, "t2": hc.t2,
        "direction": hc.direction, "orbit_stability": hc.orbit_stability,
        "period_trend": hc.period_trend,
        "manifold": {
            "w20_at_delay": list(cm.w20_m1), "w20_at_zero": list(cm.w20_0),
            "w11_at_delay": list(cm.w11_m1), "w11_at_zero": list(cm.w11_0),
            "e1": {str(n): list(v) for n, v in sorted(cm.e1.items())},
            "e2": {str(n): list(v) for n, v in sorted(cm.e2.items())},
            "f_hat_20": list(cm.f_hat_20), "f_hat_11": list(cm.f_hat_11),
            "q1_term": cm.q1_term, "q2_term": cm.q2_term,
        },
    }
    _write_json(cfg.out_dir, "normal_form_report.json", payload)
    print(f"c1(0) = {_fmt(hc.c1.real)} {hc.c1.imag:+.12g}i; "
          f"bifurcation {hc.direction}, orbit {hc.orbit_stability}, "
          f"rescaled period {hc.period_trend}")
    return EXIT_OK


def _history_factory(p: ModelParams, amplitude: float, wavenumber: int):
    eq = positive_equilibrium(p)

    def history(x: np.ndarray, t: float):
        bump = amplitude * np.cos(wavenumber * x / p.l)
        return eq.m + bump, eq.a - bump

    return history


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the time series and space-time field written next to this file.\"\"\"
import csv
import os.path as op

import matplotlib.pyplot as plt

here = op.dirname(op.abspath(__file__))
with open(op.join(here, "timeseries.csv")) as fh:
    rows = list(csv.DictReader(fh))
t = [float(r["t"]) for r in rows]
fig, axes = plt.subplots(2, 1, sharex=True, figsize=(8, 6))
axes[0].plot(t, [float(r["mean_m"]) for r in rows], label="mussel")
axes[0].plot(t, [float(r["mean_a"]) for r in rows], label="algae")
axes[0].set_ylabel("spatial mean")
axes[0].legend()
axes[1].plot(t, [float(r["min_m"]) for r in rows], label="min m")
axes[1].plot(t, [float(r["max_m"]) for r in rows], label="max m")
axes[1].set_xlabel("t")
axes[1].set_ylabel("mussel range")
axes[1].legend()
fig.tight_layout()
fig.savefig(op.join(here, "timeseries.png"), dpi=150)
print("wrote timeseries.png")
"""


def _cmd_simulate(cfg: RunConfig) -> int:
    p = cfg.params
    opts = cfg.options
    t_end, dt = opts["t_end"], opts["dt"]
    if opts["ode"]:
        m0, a0 = opts["m0"], opts["a0"]
        if m0 is None or a0 is None:
            eq = positive_equilibrium(p)
            m0 = eq.m * 1.05 if m0 is None else m0
            a0 = eq.a if a0 is None else a0
        traj = simulate_ode(p, m0, a0, t_end=t_end, dt=dt)
        grid = None
    else:
        grid = Grid(opts["grid_n"], p.l)
        history = _history_factory(p, opts["amplitude"], opts["wavenumber"])
        traj = simulate_pde(p, history, grid, t_end=t_end, dt=dt)
    summary = detect_orbit(traj, opts["transient_fraction"])

    fm, fa = traj.fields_m, traj.fields_a
    if grid is not None:
        energy = lyapunov_value(fm, fa, p, grid).tolist()
    else:
        energy = [p.gamma * p.r * (a - 1.0 - math.log(a)) + m if a > 0
                  else math.nan for m, a in zip(fm[:, 0].tolist(),
                                                fa[:, 0].tolist())]
    columns = (traj.times, fm.mean(axis=1), fa.mean(axis=1),
               fm.min(axis=1), fm.max(axis=1))
    _write_csv(cfg.out_dir, "timeseries.csv",
               ["t", "mean_m", "mean_a", "min_m", "max_m", "energy"],
               list(zip(*(c.tolist() for c in columns), energy)))

    frame_stride = max(1, len(traj.times) // 200)
    field_rows = []
    xs = grid.x() if grid is not None else np.zeros(1)
    for k in range(0, len(traj.times), frame_stride):
        t = float(traj.times[k])
        for j, x in enumerate(xs):
            field_rows.append([t, float(x), float(traj.fields_m[k][j]),
                               float(traj.fields_a[k][j])])
    _write_csv(cfg.out_dir, "fields.csv", ["t", "x", "m", "a"], field_rows)

    _write_json(cfg.out_dir, "orbit_summary.json", {
        "is_periodic": summary.is_periodic, "period": summary.period,
        "amplitude_m": list(summary.amplitude_m),
        "amplitude_a": list(summary.amplitude_a),
        "spatial_inhomogeneity": summary.spatial_inhomogeneity,
        "dt": traj.dt, "t_end": t_end})
    _write_text(cfg.out_dir, "plot_timeseries.py", _PLOT_SCRIPT)
    verdict = (f"periodic, period {_fmt(summary.period)}"
               if summary.is_periodic else "not periodic")
    print(f"run finished: {verdict}")
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig) -> int:
    p = cfg.params
    opts = cfg.options
    r_min, r_max, r_steps = opts["r_min"], opts["r_max"], opts["r_steps"]
    if r_steps < 1:
        raise CliError(EXIT_USAGE,
                       f"r_steps must be at least 1, got {r_steps}")
    rs = [float(v) for v in np.linspace(r_min, r_max, r_steps)]
    table = amplitude_sweep(p, rs, t_end=opts["t_end"], dt=opts["dt"],
                            transient_fraction=opts["transient_fraction"])
    rows = []
    oscillating = []
    for pt in table:
        if pt.summary is None:
            rows.append([pt.r, "error", "", "", "", pt.error or ""])
            continue
        s = pt.summary
        rows.append([pt.r, "yes" if s.is_periodic else "no",
                     _fmt(s.period) if s.period else "",
                     s.amplitude_m[0], s.amplitude_m[1], ""])
        if s.is_periodic:
            oscillating.append(pt.r)
    _write_csv(cfg.out_dir, "sweep.csv",
               ["r", "periodic", "period", "m_min", "m_max", "error"], rows)
    window = ([min(oscillating), max(oscillating)] if oscillating else None)
    _write_json(cfg.out_dir, "sweep_report.json", {
        "r_range": [r_min, r_max], "r_steps": r_steps,
        "oscillation_window": window})
    if window:
        print(f"sustained oscillation for r in "
              f"[{_fmt(window[0])}, {_fmt(window[1])}]")
    else:
        print("no sustained oscillation found in the swept range")
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    p = cfg.params
    checks: list[tuple[str, bool, str]] = []

    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(cfg.options["draws"]):
        alpha = float(rng.uniform(0.05, 0.9))
        r = float(rng.uniform(1.0 + 0.05, 1.0 / alpha - 1e-6))
        q = ModelParams(r=r, alpha=alpha, gamma=float(rng.uniform(0.1, 5.0)),
                        d=float(rng.uniform(0.01, 2.0)))
        for n in range(0, 6):
            free = linear_mod.char_coeffs_no_delay(q, n)
            lag = delay_mod.delay_char_coeffs(q, n)
            worst = max(worst,
                        abs(lag.t_n + lag.b - free.t_tilde),
                        abs(lag.d_n + lag.m_n - free.d_tilde))
    checks.append(("delay_free_consistency", worst < 1e-10,
                   f"max identity residual {worst:.3e}"))

    # Roots meet the whole spectrum; the error is second order in 1/N.
    grid = Grid(cfg.options["spectrum_n"], p.l)
    spectrum = verify_mod.discrete_spectrum(p, grid, 2 * grid.points)
    worst_rel = 0.0
    for n in range(0, 5):
        for lam in linear_mod.eigenvalues_no_delay(p, n):
            nearest = min(spectrum, key=lambda z: abs(z - lam))
            worst_rel = max(worst_rel, abs(nearest - lam) / max(abs(lam), 1e-12))
    checks.append(("discrete_spectrum_match",
                   worst_rel < 1e-3 * (200 / grid.n) ** 2,
                   f"worst relative mismatch {worst_rel:.3e}"))

    hc = hopf_coefficients(p)
    ts = hc.tau_star
    track = verify_mod.newton_track_root(p, ts.n0, 0.0, ts.tau * 1.3, 60)
    if track.crossing_tau is None:
        checks.append(("newton_crossing_match", False, "no crossing found"))
    else:
        gap = abs(track.crossing_tau - ts.tau)
        checks.append(("newton_crossing_match", gap < 1e-6,
                       f"|tracked - closed form| = {gap:.3e}"))

    ep = hc.eigenpair
    same = verify_mod.bilinear_pairing_quadrature(
        p, ep.q1, ep.q2, ep.m_norm, ep.omega, ep.tau_star, ep.n0)
    cross = verify_mod.bilinear_pairing_quadrature(
        p, ep.q1, ep.q2, ep.m_norm, ep.omega, ep.tau_star, ep.n0,
        conjugate_right=True)
    pair_err = max(abs(same - 1.0), abs(cross))
    checks.append(("pairing_quadrature", pair_err < 1e-6,
                   f"max pairing residual {pair_err:.3e}"))

    region = verify_mod.grid_classify((0.05, 0.6), (1.1, 3.0), p.d,
                                      p.gamma, resolution=12)
    mismatches = 0
    cells = 0
    for i, alpha in enumerate(region.alphas):
        for j, r in enumerate(region.rs):
            label = region.labels[i, j]
            if label in ("non-H1", "hopf"):
                continue
            cells += 1
            q = ModelParams(r=float(r), alpha=float(alpha),
                            gamma=p.gamma, d=p.d)
            verdict = turing_analysis(q, strict=False).verdict
            expected = "turing-unstable" if label == "T_b" else "stable"
            if verdict != expected:
                mismatches += 1
    checks.append(("region_map_consistency", mismatches == 0,
                   f"{mismatches} mismatching cells of {cells}"))

    rows = [[name, "pass" if ok else "FAIL", detail]
            for name, ok, detail in checks]
    _write_csv(cfg.out_dir, "verify_matrix.csv",
               ["check", "status", "detail"], rows)
    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"{'pass' if ok else 'FAIL'}  {name}: {detail}")
    if not all_ok:
        raise CliError(EXIT_NUMERICAL, "verification suite found mismatches")
    return EXIT_OK


_COMMANDS: dict[str, _Command] = {
    "classify": _Command(
        _cmd_classify,
        "hypotheses, equilibria and spatial stability verdict", {}),
    "hopf-curve": _Command(
        _cmd_hopf_curve,
        "oscillation-onset values of r at fixed alpha, gamma",
        {"samples": (int, 400)}),
    "turing-curve": _Command(
        _cmd_turing_curve, "pattern-onset curve in the (alpha, r) plane",
        {"alpha_min": (float, 0.05), "alpha_max": (float, 0.95),
         "resolution": (int, 50)}),
    "tau-star": _Command(
        _cmd_tau_star, "first critical delay and crossing table",
        {"n_max": (int, None), "j_max": (int, 0)}),
    "normal-form": _Command(
        _cmd_normal_form,
        "bifurcation direction and orbit stability at tau*", {}),
    "simulate": _Command(
        _cmd_simulate, "integrate the spatial system or its ODE reduction",
        {"grid_n": (int, 128), "dt": (float, 0.01), "t_end": (float, 600.0),
         "amplitude": (float, 0.1), "wavenumber": (int, 2),
         "m0": (float, None), "a0": (float, None),
         "transient_fraction": (float, 0.5), "ode": (bool, False)}),
    "sweep": _Command(
        _cmd_sweep, "amplitude sweep across a recruitment range",
        {"r_min": (float, 1.05), "r_max": (float, 1.8), "r_steps": (int, 31),
         "t_end": (float, 1200.0), "dt": (float, 0.01),
         "transient_fraction": (float, 0.6)}),
    "verify": _Command(
        _cmd_verify, "run the independent-oracle consistency suite",
        {"spectrum_n": (int, 200), "draws": (int, 25)}),
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--set", action="append", default=[], metavar="K=V",
                     help="override a config entry (repeatable; dotted keys)")
    sub.add_argument("--out", default=".", help="output directory")
    for name in _PARAM_FIELDS:
        sub.add_argument(f"--{name}", dest=f"param_{name}", type=float,
                         help=f"model parameter {name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musselbed",
        description="Bifurcation analysis and simulation of a delayed "
                    "mussel-algae reaction-diffusion model")
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd, command in _COMMANDS.items():
        sub = subs.add_parser(cmd, help=command.help)
        _add_common(sub)
        for name, (kind, default) in command.options.items():
            how = ({"action": "store_true", "default": None} if kind is bool
                   else {"type": kind})
            sub.add_argument(f"--{name.replace('_', '-')}", **how,
                             help=None if default is None
                             else f"default: {default}")
    return parser


def run(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    try:
        return _COMMANDS[cfg.command].handler(cfg)
    except CliError:
        raise
    except HypothesisError as exc:
        raise CliError(EXIT_HYPOTHESIS, str(exc)) from exc
    except NumericalError as exc:
        raise CliError(EXIT_NUMERICAL, str(exc)) from exc
    except (ValueError, KeyError) as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config: dict[str, Any] = {}
        if args.config:
            config = _load_config(args.config)
        for assignment in args.set:
            _apply_set(config, assignment)
        params = _build_params(config, args)
        cfg = RunConfig(command=args.command, params=params,
                        options=_resolve_options(args.command, config, args),
                        out_dir=args.out)
        return run(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
