"""Batch command-line interface.

One invocation runs one subcommand against one parameter set, assembled
from an optional JSON config file, repeatable ``--set key=value``
overrides, and named flags (precedence: config < --set < flags).
All numeric output is serialized with 12 significant digits so repeated
runs with identical inputs produce byte-identical files.

Exit codes: 0 success, 1 configuration or usage error, 2 hypothesis
violation, 3 numerical failure, 4 I/O failure.

A fresh process loads only what its command runs: this module imports
`exceptions` and `model` (neither loads numpy), and each ``_cmd_*``
handler imports its own layer, and numpy only if it uses it.  So
``--help``, ``classify``, ``tau-star``, ``turing-curve``, ``normal-form``
and ``hopf-curve`` run without numpy.  Only a PDE ``simulate`` loads
scipy, and of it only the compiled LAPACK module ``scipy.linalg._flapack``
(see `sim._lapack`); no command imports ``scipy.linalg``.  The layers
return NamedTuple records, since a dataclass generates and execs its
methods on every import; only `ModelParams` and `sim.Grid` stay
dataclasses, as they validate on construction and their fields are read
on the hot paths, where a dataclass field read is faster.  An argv that
starts with a command gets a parser of that command alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, fields, replace
from typing import Any, Callable, Iterable, NamedTuple, NoReturn, Optional

from .exceptions import HypothesisError, NumericalError
from .model import (ModelParams, check_hypotheses, hopf_margin,
                    positive_equilibrium)

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
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


def _grid(lo: float, hi: float, n: int, name: str) -> list[float]:
    """n evenly spaced floats from lo to hi, bit for bit numpy.linspace:
    i * step + lo (i / (n - 1) * (hi - lo) + lo where the step underflows
    to zero), with hi itself last.  The count is option `name`."""
    if n < 1:
        raise CliError(EXIT_USAGE, f"{name} must be at least 1, got {n}")
    if n == 1:
        return [0.0 * (hi - lo) + lo]
    step = (hi - lo) / (n - 1)
    return [(i * step if step else i / (n - 1) * (hi - lo)) + lo
            for i in range(n - 1)] + [hi]


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
               rows: Iterable[Iterable[Any]], kinds: tuple[type, ...]) -> None:
    """Write the header and rows as CSV.  Every row's cells have the types
    `kinds`, and one % template formats each row: "%.12g" (the text of
    _fmt) for a float cell, "%s" (str) for any other."""
    template = ",".join(["%.12g" if issubclass(kind, float) else "%s"
                         for kind in kinds])
    lines = [",".join(header)] + [template % tuple(row) for row in rows]
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

    handler: Callable[[ModelParams, dict[str, Any], str], None]
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
    default.  A config key that is neither `params` nor an option of some
    command is refused, so that a misspelt key is not read as a default."""
    unknown = set(config).difference(
        {"params"}, *(c.options for c in _COMMANDS.values()))
    if unknown:
        raise CliError(EXIT_USAGE, f"unknown config key(s): "
                                   f"{', '.join(sorted(unknown))}")
    options: dict[str, Any] = {}
    for name, (kind, default) in _COMMANDS[command].options.items():
        value = getattr(args, name)
        if value is None and config.get(name) is not None:
            value = _cast_option(name, kind, config[name])
        options[name] = default if value is None else value
    return options


def _cmd_classify(p: ModelParams, opts: dict[str, Any], out: str) -> None:
    from .linear import boundary_stability, turing_analysis

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
    _write_json(out, "classify_report.json", payload)
    print("\n".join(lines))


def _cmd_hopf_curve(p: ModelParams, opts: dict[str, Any], out: str) -> None:
    from .linear import hopf_points_in_r, r_star

    rs = _grid(1.0 + 1e-9, 1.0 / p.alpha - 1e-9, opts["samples"],
               "--samples")
    points = hopf_points_in_r(p.alpha, p.gamma)
    star = r_star(p.alpha)
    _write_csv(out, "hopf_margin.csv", ["r", "oscillation_margin"],
               [[r, hopf_margin(replace(p, r=r))] for r in rs],
               (float, float))
    _write_csv(out, "hopf_points.csv", ["r", "transversality_sign"],
               [[pt.r, pt.transversality_sign] for pt in points],
               (float, int))
    _write_json(out, "hopf_report.json", {
        "alpha": p.alpha, "gamma": p.gamma, "r_star": star,
        "points": [{"r": pt.r, "transversality_sign": pt.transversality_sign}
                   for pt in points]})
    if points:
        listing = ", ".join(_fmt(pt.r) for pt in points)
        print(f"oscillation onset values of r: {listing}")
    else:
        print("no oscillation onset in the admissible r range")


def _cmd_turing_curve(p: ModelParams, opts: dict[str, Any], out: str) -> None:
    from .linear import turing_curve

    amin, amax = opts["alpha_min"], opts["alpha_max"]
    resolution = opts["resolution"]
    pts = turing_curve((amin, amax), p.d, resolution)
    _write_csv(out, "turing_curve.csv", ["alpha", "r", "branch"],
               [[pt.alpha, pt.r, pt.branch] for pt in pts],
               (float, float, int))
    _write_json(out, "turing_report.json", {
        "d": p.d, "alpha_range": [amin, amax], "resolution": resolution,
        "points": len(pts)})
    print(f"pattern-onset curve: {len(pts)} points written")


def _cmd_tau_star(p: ModelParams, opts: dict[str, Any], out: str) -> None:
    from .delay import tau_star

    ts = tau_star(p, j_max=opts["j_max"])
    _write_csv(out, "critical_delays.csv",
               ["n", "j", "omega", "tau", "transversality"],
               [[hp.n, hp.j, hp.omega, hp.tau_crit, hp.transversality]
                for hp in ts.crossings], (int, int, float, float, float))
    _write_json(out, "tau_star_report.json", {
        "tau_star": ts.tau, "critical_mode": ts.n0, "omega": ts.omega,
        "crossing_modes": list(ts.s0)})
    print(f"first critical delay: tau* = {_fmt(ts.tau)} at mode {ts.n0}, "
          f"frequency {_fmt(ts.omega)}")


def _cmd_normal_form(p: ModelParams, opts: dict[str, Any], out: str) -> None:
    from .normal_form import hopf_coefficients

    hc = hopf_coefficients(p)
    ts, ep, cm = hc.tau_star, hc.eigenpair, hc.manifold
    payload = {
        "tau_star": ts.tau, "critical_mode": ts.n0, "omega": ts.omega,
        "eigenpair": {"q1": ep.q1, "q2": ep.q2, "m_norm": ep.m_norm},
        "g20": cm.g20, "g11": cm.g11, "g02": cm.g02, "g21": hc.g21,
        "c1": hc.c1, "mu2": hc.mu2, "beta2": hc.beta2, "t2": hc.t2,
        "direction": hc.direction, "orbit_stability": hc.orbit_stability,
        "period_trend": hc.period_trend,
        "manifold": {
            "w20_at_delay": cm.w20_m1, "w20_at_zero": cm.w20_0,
            "w11_at_delay": cm.w11_m1, "w11_at_zero": cm.w11_0,
            "e1": cm.e1, "e2": cm.e2,
            "f_hat_20": cm.f_hat_20, "f_hat_11": cm.f_hat_11,
            "q1_term": cm.q1_term, "q2_term": cm.q2_term,
        },
    }
    _write_json(out, "normal_form_report.json", payload)
    print(f"c1(0) = {_fmt(hc.c1.real)} {hc.c1.imag:+.12g}i; "
          f"bifurcation {hc.direction}, orbit {hc.orbit_stability}, "
          f"rescaled period {hc.period_trend}")


def _history_factory(p: ModelParams, amplitude: float, wavenumber: int):
    import numpy as np

    m, a = positive_equilibrium(p)

    def history(x: np.ndarray, t: float):
        # wavenumber * x can overflow for an l near the float range; the
        # run then refuses the non-finite history by itself.
        with np.errstate(over="ignore", invalid="ignore"):
            bump = amplitude * np.cos(wavenumber * x / p.l)
        return m + bump, a - bump

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


def _cmd_simulate(p: ModelParams, opts: dict[str, Any], out: str) -> None:
    from .sim import (Grid, _check_transient_fraction, detect_orbit,
                      lyapunov_value, simulate_ode, simulate_pde)

    # Fail before the run, not after integrating it.
    _check_transient_fraction(opts["transient_fraction"])
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
    columns = (traj.times, fm.mean(axis=1), fa.mean(axis=1), fm.min(axis=1),
               fm.max(axis=1), lyapunov_value(fm, fa, p, grid))
    _write_csv(out, "timeseries.csv",
               ["t", "mean_m", "mean_a", "min_m", "max_m", "energy"],
               zip(*(c.tolist() for c in columns)), (float,) * 6)

    # Every grid point of every len(times)//200-th frame, one per row;
    # each time and each point is formatted once.
    ks = slice(None, None, max(1, len(traj.times) // 200))
    xs = [_fmt(x) for x in (grid.x().tolist() if grid is not None
                            else [0.0])]
    ts = [_fmt(t) for t in traj.times[ks].tolist()]
    _write_csv(out, "fields.csv", ["t", "x", "m", "a"],
               zip([t for t in ts for _ in xs], xs * len(ts),
                   fm[ks].ravel().tolist(), fa[ks].ravel().tolist()),
               (str, str, float, float))

    _write_json(out, "orbit_summary.json", {
        "is_periodic": summary.is_periodic, "period": summary.period,
        "amplitude_m": list(summary.amplitude_m),
        "amplitude_a": list(summary.amplitude_a),
        "spatial_inhomogeneity": summary.spatial_inhomogeneity,
        "dt": traj.dt, "t_end": t_end})
    _write_text(out, "plot_timeseries.py", _PLOT_SCRIPT)
    verdict = (f"periodic, period {_fmt(summary.period)}"
               if summary.is_periodic else "not periodic")
    print(f"run finished: {verdict}")


def _cmd_sweep(p: ModelParams, opts: dict[str, Any], out: str) -> None:
    from .sim import amplitude_sweep

    r_min, r_max, r_steps = opts["r_min"], opts["r_max"], opts["r_steps"]
    table = amplitude_sweep(p, _grid(r_min, r_max, r_steps, "r_steps"),
                            t_end=opts["t_end"], dt=opts["dt"],
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
                     _fmt(s.amplitude_m[0]), _fmt(s.amplitude_m[1]), ""])
        if s.is_periodic:
            oscillating.append(pt.r)
    _write_csv(out, "sweep.csv",
               ["r", "periodic", "period", "m_min", "m_max", "error"], rows,
               (float,) + (str,) * 5)
    window = ([min(oscillating), max(oscillating)] if oscillating else None)
    _write_json(out, "sweep_report.json", {
        "r_range": [r_min, r_max], "r_steps": r_steps,
        "oscillation_window": window})
    if window:
        print(f"sustained oscillation for r in "
              f"[{_fmt(window[0])}, {_fmt(window[1])}]")
    else:
        print("no sustained oscillation found in the swept range")


def _cmd_verify(p: ModelParams, opts: dict[str, Any], out: str) -> None:
    from .checks import cross_checks

    checks = cross_checks(p, opts["spectrum_n"], opts["draws"])
    rows = [[c.name, "pass" if c.ok else "FAIL", c.detail] for c in checks]
    _write_csv(out, "verify_matrix.csv", ["check", "status", "detail"],
               rows, (str,) * 3)
    for name, status, detail in rows:
        print(f"{status}  {name}: {detail}")
    if not all(c.ok for c in checks):
        raise CliError(EXIT_NUMERICAL, "verification suite found mismatches")


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
        {"j_max": (int, 0)}),
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors: one `error:`
    line and exit code 1, like every other bad input.  ``--help`` still
    prints and exits 0."""

    def error(self, message: str) -> NoReturn:
        raise CliError(EXIT_USAGE, message)


def _build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of command `only` alone.  The
    latter parses an argv that starts with that command as the full
    parser does, with the same help, errors and Namespace."""
    parser = _Parser(
        prog="musselbed",
        description="Bifurcation analysis and simulation of a delayed "
                    "mussel-algae reaction-diffusion model")
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd, command in _COMMANDS.items():
        if only is not None and cmd != only:
            continue
        sub = subs.add_parser(cmd, help=command.help)
        _add_common(sub)
        for name, (kind, default) in command.options.items():
            how = ({"action": "store_true", "default": None} if kind is bool
                   else {"type": kind})
            sub.add_argument(f"--{name.replace('_', '-')}", **how,
                             help=None if default is None
                             else f"default: {default}")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # A call parses one command: build only its options.  Any other argv
    # (--help, a bad or missing command) gets the full parser.
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(only).parse_args(argv)
        config: dict[str, Any] = {}
        if args.config:
            config = _load_config(args.config)
        for assignment in args.set:
            _apply_set(config, assignment)
        params = _build_params(config, args)
        _COMMANDS[args.command].handler(
            params, _resolve_options(args.command, config, args), args.out)
        return EXIT_OK
    except CliError as exc:
        code, message = exc.code, str(exc)
    except HypothesisError as exc:
        code, message = EXIT_HYPOTHESIS, str(exc)
    except NumericalError as exc:
        code, message = EXIT_NUMERICAL, str(exc)
    except (ValueError, KeyError) as exc:
        code, message = EXIT_USAGE, str(exc)
    except MemoryError as exc:
        code, message = EXIT_USAGE, str(exc) or "out of memory"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
