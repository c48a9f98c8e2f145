"""The four benchmark workloads: seeded inputs, the ops they run, and checks.

A workload has three parts.  `setup` is untimed preparation.  `prologue`
is fixed per-run work that counts towards the run's wall time but is not
an op.  `round(ctx, k)` runs the k-th round of ops; its inputs depend only
on the seed and k, so a traced pass can repeat an untraced one exactly.
Runs stop at round boundaries, which keeps the mix of ops in every run the
same.

A round is a list of `(name, thunk)` pairs; the harness times each thunk,
and each thunk returns an `Op`.  Every check function returns a list of
failure messages, empty when the value passes, so the self-test can feed
each one a perturbed value.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import musselbed
from musselbed import (Grid, HypothesisError, ModelParams, cli,
                       eigenvalues_no_delay, positive_equilibrium)

from tracing import Tracer, traced_cli

PACKAGE_DIR = os.path.dirname(os.path.abspath(musselbed.__file__))

# README reference point.
REFERENCE = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0)

# Values the package computes and its tests pin at REFERENCE.  The two
# documented-failing reference values (c1 = -2.28261 - 23.9865i, and the
# period 19.31 at tau = 3.6) are deliberately not used.
PINNED_TAU_STAR = 2.35445
PINNED_OMEGA = 0.32534
PINNED_C1 = complex(-2.2491, -2.0316)
PINNED_DIGITS_TOL = 5e-6     # half a unit in the 5th decimal
PINNED_C1_TOL = 5e-5         # half a unit in the 4th decimal
PINNED_HOPF_WINDOW = (1.0865, 1.7286)   # alpha = 0.45, gamma = 8
PINNED_PERIOD = 25.07        # orbit period at tau = 3.6, measured at dt 0.01
PERIOD_TOL = 0.005           # relative; dt = 0.1 moves it by about 6e-5

# Oracle agreement gates, as `musselbed verify` applies them.
NEWTON_GAP_TOL = 1e-6
PAIRING_TOL = 1e-6


@dataclass
class Op:
    """Outcome of one op.  `failure` names why it failed, empty if it did
    not; `counts` holds per-layer counters read by the traced run.  The
    harness fills in the timings."""

    name: str
    ok: bool
    failure: str = ""
    steps: int = 0
    agreed: int = 0
    counts: Counter = field(default_factory=Counter)
    seconds: float = 0.0   # wall time
    scaled: float = 0.0    # wall time at the reference machine speed


@dataclass
class Context:
    """What a workload calls through: the layer functions, and a tracer
    when the pass is traced."""

    api: object
    tracer: Optional[Tracer] = None
    workdir: str = ""

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()


def error_name(exc: BaseException) -> str:
    """`<layer>.errors.<Type>`, the layer being the package module whose
    public function the benchmark called when the exception escaped."""
    tb = exc.__traceback__
    while tb is not None:
        path = os.path.abspath(tb.tb_frame.f_code.co_filename)
        if os.path.dirname(path) == PACKAGE_DIR:
            layer = os.path.splitext(os.path.basename(path))[0]
            return f"{layer}.errors.{type(exc).__name__}"
        tb = tb.tb_next
    return f"bench.errors.{type(exc).__name__}"


# ---------------------------------------------------------------- checks

def check_reference(tau: float, omega: float, c1: complex) -> list[str]:
    out = []
    if abs(tau - PINNED_TAU_STAR) > PINNED_DIGITS_TOL:
        out.append(f"tau* {tau!r} != {PINNED_TAU_STAR}")
    if abs(omega - PINNED_OMEGA) > PINNED_DIGITS_TOL:
        out.append(f"omega {omega!r} != {PINNED_OMEGA}")
    if (abs(c1.real - PINNED_C1.real) > PINNED_C1_TOL
            or abs(c1.imag - PINNED_C1.imag) > PINNED_C1_TOL):
        out.append(f"c1 {c1!r} != {PINNED_C1}")
    return out


def check_spectrum(coarse: float, fine: float) -> list[str]:
    """Worst relative eigenvalue mismatch at N=100 and N=200."""
    out = []
    if not fine <= 1e-3:
        out.append(f"spectrum mismatch at N=200 is {fine:.3e} > 1e-3")
    if not coarse > 3.0 * fine:
        out.append(f"spectrum does not refine at second order: "
                   f"N=100 {coarse:.3e}, N=200 {fine:.3e}")
    return out


def check_turing_slice(brackets: list[tuple[float, float]]) -> list[str]:
    """Each curve point must separate a positive continuous determinant
    minimum just below it from a negative one just above, or vice versa."""
    if not brackets:
        return ["turing curve slice has no points"]
    return [f"curve point {i} does not bracket a sign change: {lo!r}, {hi!r}"
            for i, (lo, hi) in enumerate(brackets) if not lo * hi < 0.0]


def check_region(mismatches: int, cells: int) -> list[str]:
    if cells == 0:
        return ["region map has no classifiable cells"]
    if mismatches:
        return [f"region map: {mismatches} of {cells} cells disagree "
                f"with turing_analysis"]
    return []


def check_window(lo: float, hi: float) -> list[str]:
    if (abs(lo - PINNED_HOPF_WINDOW[0]) > 1e-3
            or abs(hi - PINNED_HOPF_WINDOW[1]) > 1e-3):
        return [f"Hopf window ({lo!r}, {hi!r}) != {PINNED_HOPF_WINDOW}"]
    return []


def check_point(tau: float, crossing: Optional[float], same: complex,
                cross: complex) -> list[str]:
    """Oracle agreement for one admissible analysis point."""
    out = []
    if crossing is None:
        out.append("verify.newton_track_root.no_crossing")
    elif not abs(crossing - tau) < NEWTON_GAP_TOL:
        out.append("verify.newton_track_root.disagree")
    if not max(abs(same - 1.0), abs(cross)) < PAIRING_TOL:
        out.append("verify.bilinear_pairing_quadrature.disagree")
    return out


def check_sweep_point(inside: bool, periodic: Optional[bool],
                      error: Optional[str]) -> list[str]:
    if error is not None:
        return [f"sweep point failed: {error}"]
    if periodic != inside:
        where = "inside" if inside else "outside"
        return [f"verdict periodic={periodic} for a point {where} "
                f"the Hopf window"]
    return []


def check_pde(tau: float, deviation: float, periodic: bool,
              period: Optional[float], inhomogeneity: float,
              energy_gap: float) -> list[str]:
    """Decay at tau = 2.0; a periodic homogeneous orbit at tau = 3.6."""
    out = []
    if not math.isfinite(energy_gap):
        out.append("energy functional is not finite")
    if tau < 3.0:
        if not deviation < 1e-3:
            out.append(f"no decay at tau={tau}: deviation {deviation:.3e}")
        if not energy_gap < 1e-4:
            out.append(f"final energy off the equilibrium's by "
                       f"{energy_gap:.3e}")
        return out
    if not periodic or period is None:
        return out + [f"no periodic orbit at tau={tau}"]
    if not abs(period - PINNED_PERIOD) <= PERIOD_TOL * PINNED_PERIOD:
        out.append(f"period {period!r} not near {PINNED_PERIOD}")
    if not inhomogeneity < 1e-3:
        out.append(f"orbit not homogeneous: {inhomogeneity:.3e}")
    return out


def check_cli(code: int, digest: str, reference: str) -> list[str]:
    out = []
    if code != 0:
        out.append(f"exit code {code}")
    if digest != reference:
        out.append("outputs differ from the reference call")
    return out


# ------------------------------------------------------------- analysis

class Analysis:
    """Closed-form pipeline plus oracle cross-checks on seeded points."""

    name = "analysis"

    def __init__(self, seed: int, points_per_round: int = 128,
                 region_resolution: int = 24) -> None:
        self.seed = seed
        self.points_per_round = points_per_round
        self.region_resolution = region_resolution
        # A randomly shifted R_d low-discrepancy sequence (the k-th point
        # is shift + k * g**-(1..5) mod 1, g the root of g**6 = g + 1): the
        # share of points that hit each code path (and each known defect)
        # varies far less between seeds than with independent draws,
        # without leaving any part of the box out.  Rounds of 128 points
        # give the p90 latency more than ten samples beyond it.
        g = 1.0
        for _ in range(50):
            g = (1.0 + g) ** (1.0 / 6.0)
        self._step = g ** -np.arange(1.0, 6.0)
        self._shift = np.random.default_rng(seed).random(5)

    @staticmethod
    def params(u: np.ndarray) -> ModelParams:
        """Map a unit-cube point onto the box `musselbed verify` samples,
        plus the domain scale l."""
        alpha = 0.05 + 0.85 * u[0]
        r = 1.05 + (1.0 / alpha - 1e-6 - 1.05) * u[1]
        return ModelParams(r=float(r), alpha=float(alpha),
                           gamma=float(0.1 + 4.9 * u[2]),
                           d=float(0.01 + 1.99 * u[3]),
                           l=float(0.5 + 1.5 * u[4]))

    def setup(self, ctx: Context) -> None:
        pass

    def prologue(self, ctx: Context, failures: list[str]) -> int:
        """Reference values, spectrum refinement, one Turing-curve slice
        and one region map.  Returns the oracle checks that agreed."""
        api = ctx.api
        ts = api.tau_star(REFERENCE, j_max=3)
        hc = api.hopf_coefficients(REFERENCE)
        failures += check_reference(ts.tau, ts.omega, hc.c1)

        with ctx.span("bench.spectrum_n100"):
            coarse = _spectrum_mismatch(api, 100)
        with ctx.span("bench.spectrum_n200"):
            fine = _spectrum_mismatch(api, 200)
        spectrum = check_spectrum(coarse, fine)

        d = 0.01  # the curve exists only for small diffusivity ratios
        alpha = float(np.random.default_rng(self.seed).uniform(0.05, 0.9))
        brackets = []
        for pt in api.turing_curve((alpha, alpha), d, 1):
            lo, hi = (api.turing_analysis(
                ModelParams(r=pt.r * f, alpha=alpha, gamma=1.0, d=d),
                strict=False).min_mode_value for f in (1 - 1e-6, 1 + 1e-6))
            brackets.append((lo, hi))
        slice_ok = check_turing_slice(brackets)

        region = api.grid_classify((0.05, 0.6), (1.1, 3.0), REFERENCE.d,
                                   REFERENCE.gamma, self.region_resolution)
        mismatches = cells = 0
        for i, a in enumerate(region.alphas):
            for j, r in enumerate(region.rs):
                label = region.labels[i, j]
                if label in ("non-H1", "hopf"):
                    continue
                cells += 1
                verdict = api.turing_analysis(
                    ModelParams(r=float(r), alpha=float(a),
                                gamma=REFERENCE.gamma, d=REFERENCE.d),
                    strict=False).verdict
                expected = "turing-unstable" if label == "T_b" else "stable"
                mismatches += verdict != expected
        region_ok = check_region(mismatches, cells)
        failures += spectrum + slice_ok + region_ok
        return sum(not f for f in (spectrum, region_ok))

    def round(self, ctx: Context, k: int) -> list:
        n = self.points_per_round
        index = np.arange(k * n, (k + 1) * n)[:, None]
        points = (self._shift + index * self._step) % 1.0
        return [(f"point{i}", functools.partial(self._point, ctx.api,
                                                self.params(u)))
                for i, u in enumerate(points)]

    @staticmethod
    def _point(api, p: ModelParams) -> Op:
        """One point.  It succeeds with a HypothesisError exactly when
        check_hypotheses puts it outside h1-h3, and otherwise with closed
        forms whose oracle cross-checks agree."""
        counts: Counter = Counter()
        try:
            rep = api.check_hypotheses(p)
            admissible = rep.h1 and rep.h2 and rep.h3
            try:
                api.turing_analysis(p, strict=False)
                api.hopf_points_in_r(p.alpha, p.gamma)
                ts = api.tau_star(p, j_max=3)
                api.hopf_coefficients(p)
            except HypothesisError:
                if admissible:
                    raise
                return Op("point", True)
            if not admissible:
                return Op("point", False,
                          "closed forms accepted a point outside h1-h3")
            counts["crossing_modes"] += len(ts.s0)
            counts["newton_calls"] += 1
            track = api.newton_track_root(p, ts.n0, 0.0, ts.tau * 1.3, 60)
            counts["unconverged_steps"] += track.converged.count(False)
            ep = api.eigenpair(p, ts.n0, ts.omega, ts.tau)
            pair = (ep.q1, ep.q2, ep.m_norm, ep.omega, ep.tau_star, ep.n0)
            same = api.bilinear_pairing_quadrature(p, *pair)
            cross = api.bilinear_pairing_quadrature(p, *pair,
                                                    conjugate_right=True)
            failed = check_point(ts.tau, track.crossing_tau, same, cross)
        except Exception as exc:  # noqa: BLE001 - counted, not hidden
            return Op("point", False, error_name(exc), counts=counts)
        counts["newton_agree"] += not any("newton" in f for f in failed)
        return Op("point", not failed, ";".join(failed),
                  agreed=2 - len(failed), counts=counts)


def _spectrum_mismatch(api, n_grid: int, modes: int = 5) -> float:
    eigs = api.discrete_spectrum(REFERENCE, Grid(n_grid, REFERENCE.l),
                                 3 * modes)
    return max(min(abs(e - lam) for e in eigs) / abs(lam)
               for n in range(modes)
               for lam in eigenvalues_no_delay(REFERENCE, n))


# ---------------------------------------------------------------- sweep

class Sweep:
    """ODE amplitude sweeps across the recruitment Hopf window.

    Each op is one `amplitude_sweep` call at alpha = 0.45, gamma = 8 over
    two r values: one inside the Hopf window and one outside it, both
    drawn from the bands below.  At t_end = 1000 the verdict is reliable
    0.02 outside either window edge and 0.02 inside the upper one; orbits
    near the lower edge grow so slowly that the periodic verdict needs r
    at least 0.2 above it.
    """

    name = "sweep"
    BASE = ModelParams(r=1.4, alpha=0.45, gamma=8.0)
    T_END, DT, TRANSIENT = 1000.0, 0.1, 0.6
    EDGE, LOWER_INSIDE = 0.02, 0.2
    R_FLOOR, R_TOP = 1.005, 2.2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.window: Optional[tuple[float, float]] = None

    def setup(self, ctx: Context) -> None:
        pass

    def prologue(self, ctx: Context, failures: list[str]) -> int:
        points = ctx.api.hopf_points_in_r(self.BASE.alpha, self.BASE.gamma)
        if len(points) != 2:
            raise RuntimeError(f"expected two Hopf points, got {points}")
        self.window = (points[0].r, points[1].r)
        failures += check_window(*self.window)
        return 0

    def r_values(self, k: int) -> list[tuple[float, bool]]:
        """(r, inside the window) for the k-th op."""
        lo, hi = self.window
        rng = np.random.default_rng([self.seed, k])
        inside = rng.uniform(lo + self.LOWER_INSIDE, hi - self.EDGE)
        # Outside: uniform over both bands together.
        below = (lo - self.EDGE) - self.R_FLOOR
        u = rng.uniform(0.0, below + (self.R_TOP - hi - self.EDGE))
        outside = (self.R_FLOOR + u if u < below
                   else hi + self.EDGE + (u - below))
        return [(float(inside), True), (float(outside), False)]

    def round(self, ctx: Context, k: int) -> list:
        return [("sweep", functools.partial(self._run, ctx.api,
                                            self.r_values(k)))]

    def _run(self, api, draws: list[tuple[float, bool]]) -> Op:
        steps = len(draws) * int(round(self.T_END / self.DT))
        try:
            table = api.amplitude_sweep(
                self.BASE, [r for r, _ in draws], t_end=self.T_END,
                dt=self.DT, transient_fraction=self.TRANSIENT)
        except Exception as exc:  # noqa: BLE001
            return Op("sweep", False, error_name(exc))
        failed = []
        counts: Counter = Counter(ode_steps=steps)
        for (_, inside), pt in zip(draws, table):
            periodic = pt.summary.is_periodic if pt.summary else None
            counts["periodic_points"] += bool(periodic)
            failed += check_sweep_point(inside, periodic, pt.error)
        return Op("sweep", not failed, ";".join(failed), steps=steps,
                  counts=counts)


# ------------------------------------------------------------------ pde

class Pde:
    """The delay dichotomy of the PDE at the reference point.

    tau = 2.0 decays and tau = 3.6 gives a homogeneous orbit.  The initial
    history is the coexistence state plus a seeded cosine bump, kept below
    m* so every field starts positive.
    """

    name = "pde"
    CASES = ((128, 2.0), (128, 3.6), (64, 3.6), (256, 3.6))
    T_END, DT = 600.0, 0.1
    ENERGY_STRIDE = 100

    def __init__(self, seed: int, cases=CASES) -> None:
        rng = np.random.default_rng(seed)
        self.amplitude = float(rng.uniform(0.05, 0.1))
        self.wavenumber = int(rng.integers(1, 4))
        self.cases = cases

    def setup(self, ctx: Context) -> None:
        pass

    def prologue(self, ctx: Context, failures: list[str]) -> int:
        return 0

    def round(self, ctx: Context, k: int) -> list:
        return [(f"n{n}-tau{tau}", functools.partial(self._run, ctx.api, n,
                                                     tau))
                for n, tau in self.cases]

    def _run(self, api, n: int, tau: float) -> Op:
        p = ModelParams(r=REFERENCE.r, alpha=REFERENCE.alpha,
                        gamma=REFERENCE.gamma, d=REFERENCE.d, tau=tau)
        eq = positive_equilibrium(p)
        amp, wave = self.amplitude, self.wavenumber

        def history(x, t):
            bump = amp * np.cos(wave * x)
            return eq.m + bump, eq.a - bump

        grid = Grid(n, p.l)
        name = f"n{n}-tau{tau}"
        try:
            traj = api.simulate_pde(p, history, grid, t_end=self.T_END,
                                    dt=self.DT)
            summary = api.detect_orbit(traj)
            frames = range(0, len(traj.times), self.ENERGY_STRIDE)
            energies = [api.lyapunov_value(traj.fields_m[i], traj.fields_a[i],
                                           p, grid) for i in frames]
            final = api.lyapunov_value(traj.fields_m[-1], traj.fields_a[-1],
                                       p, grid)
        except Exception as exc:  # noqa: BLE001
            return Op(name, False, error_name(exc))
        steps = int(round(self.T_END / traj.dt))
        # Energy of the coexistence state, in closed form.
        rest = p.l * math.pi * (p.gamma * p.r * (eq.a - 1.0 - math.log(eq.a))
                                + eq.m)
        gap = (abs(final - rest) / abs(rest)
               if all(map(math.isfinite, energies)) else math.nan)
        deviation = max(float(np.max(np.abs(traj.fields_m[-1] - eq.m))),
                        float(np.max(np.abs(traj.fields_a[-1] - eq.a))))
        failed = check_pde(tau, deviation, summary.is_periodic,
                           summary.period, summary.spatial_inhomogeneity, gap)
        nbytes = traj.times.nbytes + traj.fields_m.nbytes + traj.fields_a.nbytes
        counts = Counter(frames=len(traj.times), frame_bytes=nbytes)
        return Op(name, not failed, ";".join(failed), steps=steps,
                  counts=counts)


# ------------------------------------------------------------------ cli

REFERENCE_FLAGS = ["--r", "2", "--alpha", "0.1", "--gamma", "0.5", "--d", "1"]

# All eight commands at the README reference parameters; the three long
# ones are sized down through their own flags.
COMMANDS = (
    ("classify", []),
    ("hopf-curve", []),
    ("turing-curve", ["--resolution", "2"]),
    ("tau-star", []),
    ("normal-form", []),
    ("simulate", ["--tau", "3.6", "--t-end", "60", "--dt", "0.05",
                  "--grid-n", "64"]),
    ("sweep", ["--r-steps", "3", "--t-end", "100", "--dt", "0.05"]),
    ("verify", []),
)


def _digest(stdout: str, out_dir: str) -> tuple[str, int]:
    """Hash of stdout and every output file, and the bytes written."""
    h = hashlib.sha256(stdout.encode())
    written = 0
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        written += len(data)
    return h.hexdigest(), written


def _call_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def reference_digests(commands, workdir: str) -> dict[str, str]:
    """Call each command in-process and hash its outputs.  `Cli.setup`
    runs this in a child interpreter (`python workloads.py WORKDIR
    COMMANDS_JSON`), so the calls leave nothing in the benchmark's own
    process."""
    out = {}
    for cmd, flags in commands:
        out_dir = os.path.join(workdir, cmd)
        shutil.rmtree(out_dir, ignore_errors=True)
        code, stdout = _call_in_process(
            [cmd, *REFERENCE_FLAGS, *flags, "--out", out_dir])
        if code != 0:
            raise RuntimeError(f"reference call of {cmd} exited {code}")
        out[cmd] = _digest(stdout, out_dir)[0]
    return out


class Cli:
    """Sequential fresh-process calls of every command.

    A traced pass calls `cli.main` in-process instead, since spans can
    only be recorded inside the benchmark's own process.
    """

    name = "cli"

    def __init__(self, seed: int, commands=COMMANDS) -> None:
        self.commands = commands
        self.reference: dict[str, str] = {}
        self.in_process = False

    def setup(self, ctx: Context) -> None:
        """Untimed reference call of each command, in one child
        interpreter; every later call must reproduce its outputs byte for
        byte."""
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             os.path.join(ctx.workdir, "reference"),
             json.dumps(self.commands)],
            capture_output=True, text=True, check=True)
        self.reference = json.loads(proc.stdout)

    def prologue(self, ctx: Context, failures: list[str]) -> int:
        return 0

    def round(self, ctx: Context, k: int) -> list:
        return [(cmd, functools.partial(self._run, ctx, cmd, flags))
                for cmd, flags in self.commands]

    def _run(self, ctx: Context, cmd: str, flags: list[str]) -> Op:
        out_dir = os.path.join(ctx.workdir, cmd)
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [cmd, *REFERENCE_FLAGS, *flags, "--out", out_dir]
        counts: Counter = Counter()
        if self.in_process:
            with ctx.span(f"cli.{cmd}"), (traced_cli(ctx.tracer)
                                          if ctx.tracer else nullcontext()):
                code, stdout = _call_in_process(argv)
        else:
            # wait4 gives this call's own peak resident set.
            proc = subprocess.Popen(
                [sys.executable, "-m", "musselbed.cli", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            counts["maxrss_kib"] = usage.ru_maxrss
        digest, written = _digest(stdout, out_dir)
        counts["bytes_written"] = written
        failed = check_cli(code, digest, self.reference[cmd])
        return Op(cmd, not failed, ";".join(failed), counts=counts)


WORKLOADS = {w.name: w for w in (Analysis, Sweep, Pde, Cli)}


if __name__ == "__main__":
    print(json.dumps(reference_digests(json.loads(sys.argv[2]), sys.argv[1])))
