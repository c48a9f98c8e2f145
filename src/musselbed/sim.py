"""Time integration of the delayed reaction-diffusion system.

Method of lines on (0, l*pi) with homogeneous Neumann conditions: second
order central differences with mirror ghost points, diffusion integrated
implicitly by the trapezoidal rule, kinetics (including the delayed
terms) explicitly by two-step Adams-Bashforth extrapolation.  The time
step is snapped to an exact divisor of the delay so the history is read
from a ring buffer without interpolation.  Runs that differ only in r
step together as lanes of one state array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .exceptions import NumericalError
from .model import ModelParams, positive_equilibrium, reaction_rhs

_BLOWUP = 1e6
_NEGATIVITY = -1e-10
_BOUND_SLACK = 1e-6
_DETECTION_FLOOR = 1e-6
_INTERVAL_CV_MAX = 0.02
_SUSTAIN_RATIO_MIN = 0.75
# Most bytes one run may hold in its delay history and stored frames.
_MAX_STORED_BYTES = 2 * 2**30
# Most time steps one run may take.
_MAX_STEPS = 10**7


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid on (0, l*pi) with n intervals (n + 1 points)."""

    n: int
    l: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 16:
            raise ValueError("grid must have at least 16 intervals")
        if self.l <= 0:
            raise ValueError("domain scale must be positive")

    @property
    def points(self) -> int:
        return self.n + 1

    @property
    def h(self) -> float:
        return self.l * math.pi / self.n

    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.l * math.pi, self.n + 1)


@dataclass(frozen=True)
class Trajectory:
    """Stored solution frames of one integration run.

    fields_m and fields_a have shape (frames, points); a single-point
    second axis marks a spatially reduced (ODE) run.
    """

    times: np.ndarray
    fields_m: np.ndarray
    fields_a: np.ndarray
    dt: float


@dataclass(frozen=True)
class OrbitSummary:
    """Periodicity verdict for the post-transient part of a trajectory."""

    is_periodic: bool
    period: Optional[float]
    amplitude_m: tuple[float, float]
    amplitude_a: tuple[float, float]
    spatial_inhomogeneity: float


def _snap_dt(tau: float, dt_requested: float) -> tuple[float, int]:
    """Largest step not exceeding the request that divides the delay."""
    if not 0 < dt_requested < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt_requested}")
    if tau <= 0:
        return dt_requested, 0
    lag_steps = max(1, math.ceil(tau / dt_requested - 1e-12))
    return tau / lag_steps, lag_steps


def _laplacian_apply(f: np.ndarray, h: float) -> np.ndarray:
    """Second difference along the last axis, mirror (zero-flux) closure."""
    out = np.empty_like(f)
    out[..., 1:-1] = f[..., :-2] - 2.0 * f[..., 1:-1] + f[..., 2:]
    out[..., 0] = 2.0 * (f[..., 1] - f[..., 0])
    out[..., -1] = 2.0 * (f[..., -2] - f[..., -1])
    return out / (h * h)


def _crank_factor(nx: int, h: float, coef: float) -> tuple[np.ndarray, ...]:
    """LU factors of I - coef*Laplacian for the implicit half step."""
    from scipy.linalg.lapack import dgttrf  # loaded only when a PDE runs

    inv_h2 = 1.0 / (h * h)
    lower = np.full(nx - 1, -coef * inv_h2)
    upper = lower.copy()
    upper[0] = lower[-1] = -2.0 * coef * inv_h2
    diag = np.full(nx, 1.0 + 2.0 * coef * inv_h2)
    *factors, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise NumericalError(f"diffusion matrix factorization failed "
                             f"(info {info})")
    return tuple(factors)


def _guard_message(t_now: float, hi_m: float, hi_a: float, lo_m: float,
                   lo_a: float, a_bound: float) -> Optional[str]:
    """Why one lane must stop, from its per-species extremes, or None.

    max(hi, -lo) is the largest magnitude, NaN exactly when the field
    holds a NaN, so the checks equal those made on the whole field.
    """
    peak = max(max(hi_m, -lo_m), max(hi_a, -lo_a))
    if not math.isfinite(peak) or peak > _BLOWUP:
        return f"field blow-up at t = {t_now:.4g} (magnitude {peak:.3e})"
    low = min(lo_m, lo_a)
    if low < _NEGATIVITY:
        return f"negative field at t = {t_now:.4g} (minimum {low:.3e})"
    if hi_a > a_bound:
        return (f"algae bound violated at t = {t_now:.4g} "
                f"(max {hi_a:.6g} > {a_bound:.6g})")
    return None


def _integrate(lanes: Sequence[ModelParams],
               history: Callable[[float], tuple[np.ndarray, np.ndarray]],
               grid: Optional[Grid], t_end: float, dt_requested: float,
               store_every: Optional[int]
               ) -> list[Trajectory | NumericalError]:
    """The one stepper behind the PDE, the ODE and sweeps.

    Each lane is one run; lanes share every parameter except r.  The
    state is a single (2, B, nx) array: species (m, a), lane, grid point.
    history(t) gives the (m, a) states at t in [-tau, 0], broadcastable
    to (B, nx).  grid None means the spatially homogeneous reduction
    (nx = 1, no diffusion).  A lane whose guards trip gets its
    NumericalError in place of a Trajectory and drops out of the run;
    the other lanes go on unchanged.
    """
    p = lanes[0]
    if any(replace(q, r=p.r) != p for q in lanes):
        raise ValueError("lanes may differ only in r")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    dt, lag = _snap_dt(p.tau, dt_requested)
    n_steps = max(1, int(round(t_end / dt)))
    if store_every is None:
        store_every = max(1, int(round(0.05 / dt)))
    if store_every < 1:
        raise ValueError("store_every must be a positive integer")
    n_lanes = len(lanes)
    nx = 1 if grid is None else grid.points
    slots = lag + 1
    n_frames = 1 + math.ceil(n_steps / store_every)
    stored = (slots + n_frames) * 2 * n_lanes * nx * 8
    if stored > _MAX_STORED_BYTES:
        raise ValueError(
            f"run would store {stored / 2**30:.3g} GiB of delay history and "
            f"frames (limit {_MAX_STORED_BYTES / 2**30:.3g} GiB); shorten "
            f"t_end or tau or raise dt")
    if n_steps > _MAX_STEPS:
        raise ValueError(f"run would take {n_steps:.3g} steps (limit "
                         f"{_MAX_STEPS:.3g}); shorten t_end or raise dt")

    hist = np.empty((slots, 2, n_lanes, nx))
    for j in range(-lag, 1):
        hist[j % slots, 0], hist[j % slots, 1] = history(j * dt)
    if not np.isfinite(hist).all():
        raise ValueError("initial history must be finite")
    y = hist[0].copy()
    a_bound = [max(float(np.max(np.abs(a0))), 1.0) + _BOUND_SLACK
               for a0 in y[1]]
    # Lanes drop out when they trip; `alive` maps the rows still stepped
    # to lane numbers, and limits holds each row's ceilings (blow-up for
    # m, the algae bound for a) for a check that is cheap when none trip.
    alive = np.arange(n_lanes)
    limits = np.array([[_BLOWUP] * n_lanes, a_bound])
    # Kinetics read parameters by attribute, so r can be the lanes' column.
    kin = SimpleNamespace(**vars(p))
    kin.r = np.array([[q.r] for q in lanes])
    errors: list[Optional[NumericalError]] = [None] * n_lanes

    if grid is not None:
        from scipy.linalg.lapack import dgttrs  # loaded only when a PDE runs

        coef_m, coef_a = 0.5 * dt * p.d, 0.5 * dt / p.gamma
        coef = np.array([coef_m, coef_a])[:, None, None]
        factors = (_crank_factor(nx, grid.h, coef_m),
                   _crank_factor(nx, grid.h, coef_a))

    times = np.zeros(n_frames)
    frames = np.empty((n_frames, 2, n_lanes, nx))
    frames[0] = y
    frame = 1
    cols: slice | np.ndarray = slice(None)   # frame columns of the rows
    prev: Optional[np.ndarray] = None

    for i in range(n_steps):
        delayed = hist[(i - lag) % slots]
        rate = np.empty_like(y)
        rate[0], rate[1] = reaction_rhs(y[0], y[1], delayed[0], delayed[1],
                                        kin)
        if prev is None:
            prev = rate
        eff = 1.5 * rate - 0.5 * prev
        prev = rate
        if grid is None:
            y = y + dt * eff
        else:
            y = y + coef * _laplacian_apply(y, grid.h) + dt * eff
            for s in (0, 1):
                # y[s].T is Fortran-ordered (nx, B): solved in place.
                _, info = dgttrs(*factors[s], y[s].T, overwrite_b=1)
                if info != 0:
                    raise NumericalError(f"diffusion solve failed "
                                         f"(info {info})")
        hist[(i + 1) % slots] = y

        hi = y.max(axis=-1)
        lo = y.min(axis=-1)
        if not (lo.min() >= _NEGATIVITY and (hi <= limits).all()):
            t_now = (i + 1) * dt
            keep = []
            for row, (hm, ha, lm, la, bound) in enumerate(zip(
                    *hi.tolist(), *lo.tolist(), limits[1].tolist())):
                msg = _guard_message(t_now, hm, ha, lm, la, bound)
                if msg is not None:
                    errors[alive[row]] = NumericalError(msg)
                keep.append(msg is None)
            if not all(keep):
                if not any(keep):
                    break
                y, prev = y[:, keep], prev[:, keep]
                hist = hist[:, :, keep]
                kin.r = kin.r[keep]
                limits = limits[:, keep]
                alive = cols = alive[keep]
        if (i + 1) % store_every == 0 or i == n_steps - 1:
            times[frame] = (i + 1) * dt
            frames[frame][:, cols] = y
            frame += 1

    return [errors[b] or Trajectory(times=times, fields_m=frames[:, 0, b],
                                    fields_a=frames[:, 1, b], dt=dt)
            for b in range(n_lanes)]


def simulate_pde(p: ModelParams,
                 initial_history: Callable[[np.ndarray, float],
                                           tuple[np.ndarray, np.ndarray]],
                 grid: Grid, t_end: float = 600.0,
                 dt: float = 0.01,
                 store_every: Optional[int] = None) -> Trajectory:
    """Integrate the full spatial system from a sampled history function.

    initial_history(x, t) must return the (m, a) profiles at time
    t in [-tau, 0] on the node array x.
    """
    if grid.l != p.l:
        raise ValueError("grid domain scale differs from the model's")
    x = grid.x()
    return _single(_integrate([p], lambda t: initial_history(x, t), grid,
                              t_end, dt, store_every))


def simulate_ode(p: ModelParams, m0: float, a0: float,
                 t_end: float = 600.0, dt: float = 0.01,
                 store_every: Optional[int] = None) -> Trajectory:
    """Integrate the spatially homogeneous reduction from a constant history."""
    state = (float(m0), float(a0))
    return _single(_integrate([p], lambda t: state, None, t_end, dt,
                              store_every))


def _single(runs: list[Trajectory | NumericalError]) -> Trajectory:
    """The trajectory of a one-lane run, or the error that stopped it."""
    if isinstance(runs[0], NumericalError):
        raise runs[0]
    return runs[0]


def lyapunov_value(m: np.ndarray, a: np.ndarray, p: ModelParams,
                   grid: Optional[Grid]) -> float | np.ndarray:
    """Energy functional gamma*r*(a - 1 - ln a) + m integrated over space.

    m and a are one frame (points,) or a stack of frames (frames, points);
    the result is one energy per frame.  grid None means the spatially
    homogeneous reduction, whose one point's integrand is the energy.
    Nonincreasing along solutions in the low-recruitment regime; zero
    exactly at the bare-sediment state (0, 1).
    """
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.min(a) <= 0.0:
        raise NumericalError("energy functional needs strictly positive a")
    integrand = p.gamma * p.r * (a - 1.0 - np.log(a)) + m
    if grid is None:
        return integrand[..., 0]
    return np.trapezoid(integrand, grid.x(), axis=-1)


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the local maxima of x with at least the given prominence.

    The same indices as scipy's `find_peaks(x, prominence=...)[0]`.  A
    maximum is a run of equal samples with a lower sample on each side,
    reported at its middle (left of centre for an even width).  Its
    prominence is its height over the higher of the lowest samples met
    walking out each way until a higher sample, a NaN, or the end of x.
    """
    x = np.asarray(x, dtype=float)
    change = np.flatnonzero(x[1:] != x[:-1])   # a NaN is a run of its own
    before, after = x[change], x[change + 1]
    top = (before < after)[:-1] & (before > after)[1:]
    peaks = (change[:-1][top] + 1 + change[1:][top]) // 2
    if peaks.size == 0:
        return peaks
    # Peaks and NaNs cut x into stretches that fall and then rise.  A walk
    # passes exactly the cuts no higher than its peak (never a NaN: no
    # comparison with NaN holds) and reaches the lowest sample of every
    # stretch it enters, so its lowest sample is the least of those
    # stretch minima.  low[j] is the least sample after cut j-1 up to and
    # including cut j, and low[-1] that of the samples after the last cut;
    # a stretch a walk enters always holds a number.
    cuts = np.sort(np.concatenate((peaks, np.flatnonzero(np.isnan(x)))))
    low = np.fmin.reduceat(np.append(x, np.nan),
                           np.concatenate(([0], cuts + 1))).tolist()
    height = x[cuts].tolist()
    left = _lowest_back_to_higher(low[:-1], height)
    right = _lowest_back_to_higher(low[:0:-1], height[::-1])[::-1]
    at = np.searchsorted(cuts, peaks)
    base = np.maximum(np.take(left, at), np.take(right, at))
    return peaks[x[peaks] - base >= prominence]


def _lowest_back_to_higher(low: list[float], height: list[float]
                           ) -> list[float]:
    """Per cut i, the least of low[k+1..i], where k is the last cut before
    i that is higher than cut i (or -1 if there is none).

    One pass, with a stack of the cuts that no later cut has passed yet,
    each with the least low back to its own higher cut.
    """
    out: list[float] = []
    stack: list[tuple[float, float]] = []
    for low_i, height_i in zip(low, height):
        least = low_i
        while stack and stack[-1][0] <= height_i:
            least = min(least, stack.pop()[1])
        out.append(least)
        stack.append((height_i, least))
    return out


def _signal_stats(sig: np.ndarray, times: np.ndarray
                  ) -> tuple[bool, Optional[float]]:
    """Periodicity of a scalar signal: (verdict, period)."""
    span = float(np.max(sig) - np.min(sig))
    if span <= _DETECTION_FLOOR or len(sig) < 8:
        return False, None
    prominence = max(_DETECTION_FLOOR, 0.02 * span)
    idx = _find_peaks(sig, prominence)
    if len(idx) < 5:
        return False, None
    # Parabola through each peak and its neighbours; a peak is never an
    # end sample, so both neighbours exist.
    y0, y1, y2 = sig[idx - 1], sig[idx], sig[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    offset = np.divide(0.5 * (y0 - y2), denom, out=np.zeros_like(denom),
                       where=denom != 0.0)
    peak_times = times[idx] + offset * (times[idx + 1] - times[idx])
    peak_values = y1 - 0.25 * (y0 - y2) * offset
    intervals = np.diff(peak_times)
    mean_iv = float(np.mean(intervals))
    if mean_iv <= 0:
        return False, None
    cv = float(np.std(intervals)) / mean_iv
    quarter = max(2, len(peak_values) // 4)
    base = float(np.min(sig))
    early_amp = float(np.mean(peak_values[:quarter])) - base
    late_amp = float(np.mean(peak_values[-quarter:])) - base
    sustained = early_amp <= 0 or late_amp / early_amp >= _SUSTAIN_RATIO_MIN
    if cv < _INTERVAL_CV_MAX and sustained:
        return True, mean_iv
    return False, None


def detect_orbit(traj: Trajectory,
                 transient_fraction: float = 0.5) -> OrbitSummary:
    """Classify the post-transient trajectory as periodic or not.

    Periodicity is read off the spatial mean of m: peak spacing must have
    a coefficient of variation below 2% and the peak amplitude must not
    be decaying (late-to-early amplitude ratio at least 0.75).
    """
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError("transient fraction must lie in [0, 1)")
    t_cut = traj.times[-1] * transient_fraction
    keep = traj.times >= t_cut
    if int(np.sum(keep)) < 8:
        return OrbitSummary(False, None, (math.nan, math.nan),
                            (math.nan, math.nan), math.nan)
    times = traj.times[keep]
    m_fields = traj.fields_m[keep]
    a_fields = traj.fields_a[keep]
    m_sig = m_fields.mean(axis=1)
    a_sig = a_fields.mean(axis=1)
    is_periodic, period = _signal_stats(m_sig, times)
    if m_fields.shape[1] > 1:
        stds = m_fields.std(axis=1)
        scale = np.maximum(np.abs(m_sig), 1e-300)
        inhomogeneity = float(np.max(stds / scale))
    else:
        inhomogeneity = 0.0
    return OrbitSummary(
        is_periodic=is_periodic, period=period,
        amplitude_m=(float(np.min(m_sig)), float(np.max(m_sig))),
        amplitude_a=(float(np.min(a_sig)), float(np.max(a_sig))),
        spatial_inhomogeneity=inhomogeneity)


@dataclass(frozen=True)
class SweepPoint:
    """One row of an amplitude sweep: parameters, verdict, or failure."""

    r: float
    summary: Optional[OrbitSummary]
    error: Optional[str]


def amplitude_sweep(p_base: ModelParams, r_values: list[float],
                    t_end: float = 1200.0, dt: float = 0.01,
                    transient_fraction: float = 0.6) -> list[SweepPoint]:
    """Run the homogeneous reduction across a recruitment range.

    Each run starts from a fixed small displacement of the coexistence
    state, and all runs step together as lanes of one integration;
    failures are recorded per point and the sweep continues.
    """
    outcomes: list = []   # per r: its exception, or (params, equilibrium)
    for r in r_values:
        try:
            p = replace(p_base, r=float(r))
            eq = positive_equilibrium(p)
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            outcomes.append(exc)
        else:
            outcomes.append((p, eq))
    lanes = [o for o in outcomes if isinstance(o, tuple)]
    runs: Iterator = iter(())
    if lanes:
        m0 = np.array([[eq.m * 1.05] for _, eq in lanes])
        a0 = np.array([[eq.a] for _, eq in lanes])
        try:
            runs = iter(_integrate([p for p, _ in lanes], lambda t: (m0, a0),
                                   None, t_end, dt, None))
        except Exception as exc:  # noqa: BLE001 - fails every lane alike
            runs = itertools.repeat(exc)

    table: list[SweepPoint] = []
    for r, outcome in zip(r_values, outcomes):
        if isinstance(outcome, tuple):
            outcome = next(runs)
        try:
            if isinstance(outcome, Exception):
                raise outcome
            summary = detect_orbit(outcome, transient_fraction)
            table.append(SweepPoint(r=float(r), summary=summary, error=None))
        except Exception as exc:  # noqa: BLE001 - per-point fault isolation
            table.append(SweepPoint(r=float(r), summary=None,
                                    error=f"{type(exc).__name__}: {exc}"))
    return table
