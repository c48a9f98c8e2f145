"""Time integration of the delayed reaction-diffusion system.

Method of lines on (0, l*pi) with homogeneous Neumann conditions: second
order central differences with mirror ghost points, diffusion integrated
implicitly by the trapezoidal rule, kinetics (including the delayed
terms) explicitly by two-step Adams-Bashforth extrapolation.  The time
step is snapped to an exact divisor of the delay so the history is read
from a ring buffer without interpolation.  Runs that differ only in r
are lanes of one integration.  A PDE run, or a homogeneous run of more
than _FLOAT_LANES lanes, steps its lanes together as one state array,
with one tridiagonal solve per step for every species and lane (a
block-diagonal matrix factored once per run) and the delayed kinetic
factor computed once per pass over the ring; each of its numpy calls
takes operands of one shape, mostly contiguous, with every scalar held
as an array made once per run.  A homogeneous run of at most
_FLOAT_LANES lanes steps each lane on its own in Python floats, which
carry a state of two numbers faster than numpy calls do.  Both loops
make the same IEEE operations and give the same bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from types import ModuleType
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

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
# Most lanes of a homogeneous run stepped one by one in Python floats; a
# wider run steps as one array.  On a quiet machine a float lane takes
# ~0.4-0.6 µs per step at tau = 0 and ~0.6-1 µs with a delay ring; the
# array loop takes ~14-21 µs per step at tau = 0 and ~9-14 µs with a
# ring, at nearly any width (2 shared Xeon cores, Python 3.11, numpy
# 2.4), so it wins from about 32-40 lanes at tau = 0 but from about 16-24
# with a ring, and a wider float loop would slow delayed runs.  On a busy
# one a float lane takes ~1.1-1.5 µs and the array loop ~14-15 µs at
# tau = 0 and ~11-12 µs with a ring: they cross at ~10-16 lanes.  The
# array loop's one-shape operands did not move the crossover measurably:
# a homogeneous row is one point wide.
_FLOAT_LANES = 16
# Most values of one temporary array: a window of the array loop's
# delayed factor, or a block of frames in the orbit detector.
_WINDOW_VALUES = 2**16


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
        if self.h * self.h < sys.float_info.min:
            raise ValueError(f"grid spacing l*pi/n = {self.h:.3e} (l = "
                             f"{self.l:.6g}, n = {self.n}) has a square "
                             f"below the normal float range")

    @property
    def points(self) -> int:
        return self.n + 1

    @property
    def h(self) -> float:
        return self.l * math.pi / self.n

    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.l * math.pi, self.n + 1)


class Trajectory(NamedTuple):
    """Stored solution frames of one integration run.

    fields_m and fields_a have shape (frames, points); a single-point
    second axis marks a spatially reduced (ODE) run.
    """

    times: np.ndarray
    fields_m: np.ndarray
    fields_a: np.ndarray
    dt: float


class OrbitSummary(NamedTuple):
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
    lags = tau / dt_requested
    if lags == math.inf:
        raise ValueError(f"tau / dt overflows (tau {tau:.3g}, dt "
                         f"{dt_requested:.3g}); shorten tau or raise dt")
    lag_steps = max(1, math.ceil(lags - 1e-12))
    return tau / lag_steps, lag_steps


_FLAPACK = "scipy.linalg._flapack"


def _lapack() -> ModuleType:
    """SciPy's compiled LAPACK module, without the scipy.linalg package.

    `import scipy.linalg` runs the package's __init__, which loads far
    more than the diffusion solve needs, in time and in memory; the
    extension module alone loads in a few milliseconds.  It is found
    under scipy's own directory and registered in sys.modules under its
    package name, which is also the cache: a later `import scipy.linalg`
    reuses it, so both give the very same routines.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    dirs = scipy.submodule_search_locations if scipy is not None else []
    spec = importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(d, "linalg") for d in dirs])
    if spec is None:
        raise ImportError(f"cannot find {_FLAPACK}", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    spec.loader.exec_module(module)
    return module


def _crank_factor(coefs: Sequence[float], nx: int, h: float
                  ) -> tuple[np.ndarray, ...]:
    """LU factors of the block-diagonal matrix of the implicit half step.

    One block I - c*Laplacian of nx rows per entry c of coefs, in order,
    with exact zeros between the blocks: the elimination adds only exact
    zeros across a block boundary, so each block factors, and with
    finite right-hand sides solves, exactly as it would alone.
    """
    inv_h2 = 1.0 / (h * h)
    c = np.asarray(coefs, dtype=float)[:, None]
    # Column j of a block's row holds its sub- and super-diagonal entry j;
    # entry nx - 1 is the zero that joins it to the next block.
    lower = np.repeat(-c * inv_h2, nx, axis=1)
    upper = lower.copy()
    upper[:, :1] = lower[:, -2:-1] = -2.0 * c * inv_h2
    upper[:, -1] = lower[:, -1] = 0.0
    diag = np.repeat(1.0 + 2.0 * c * inv_h2, nx, axis=1)
    *factors, info = _lapack().dgttrf(lower.ravel()[:-1], diag.ravel(),
                                      upper.ravel()[:-1])
    if info != 0:
        raise NumericalError(f"diffusion matrix factorization failed "
                             f"(info {info})")
    return tuple(factors)


def _guard_message(t_now: float, hi_m: float, hi_a: float, lo_m: float,
                   lo_a: float, a_bound: float) -> Optional[str]:
    """Why one lane must stop, from its per-species extremes, or None.

    max(hi, -lo) is a field's largest magnitude, and the peak is NaN
    exactly when either field holds a NaN (as its hi then is), so the
    checks equal those made on the whole state.
    """
    peak = max(hi_m, -lo_m, hi_a, -lo_a)
    if math.isnan(hi_m) or math.isnan(hi_a):
        peak = math.nan
    if not math.isfinite(peak) or peak > _BLOWUP:
        return f"field blow-up at t = {t_now:.4g} (magnitude {peak:.3e})"
    low = min(lo_m, lo_a)
    if low < _NEGATIVITY:
        return f"negative field at t = {t_now:.4g} (minimum {low:.3e})"
    if hi_a > a_bound:
        return (f"algae bound violated at t = {t_now:.4g} "
                f"(max {hi_a:.6g} > {a_bound:.6g})")
    return None


def _too_many_steps(steps: float) -> ValueError:
    """The refusal of a run of more than _MAX_STEPS steps."""
    return ValueError(f"run would take {steps:.3g} steps (limit "
                      f"{_MAX_STEPS:.3g}); shorten t_end or raise dt")


def _schedule(tau: float, t_end: float, dt_requested: float, width: int,
              store_every: Optional[int]) -> tuple[float, int, int, int, int]:
    """(dt, lag, n_steps, store_every, n_frames) of a run whose lanes hold
    width points in all, or the ValueError that refuses it for every lane."""
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    dt, lag = _snap_dt(tau, dt_requested)
    steps = t_end / dt
    # round() has no int for inf; a finite count is refused below, after
    # the storage it would need.
    if steps == math.inf:
        raise _too_many_steps(steps)
    n_steps = max(1, int(round(steps)))
    if store_every is None:
        # A stride past the last step stores just that step; capping it
        # there also keeps an overflowing 0.05 / dt countable.
        store_every = max(1, int(round(min(0.05 / dt, n_steps))))
    if store_every < 1:
        raise ValueError("store_every must be a positive integer")
    n_frames = 1 + math.ceil(n_steps / store_every)
    stored = (lag + 1 + n_frames) * 2 * width * 8
    if stored > _MAX_STORED_BYTES:
        raise ValueError(
            f"run would store {stored / 2**30:.3g} GiB of delay history and "
            f"frames (limit {_MAX_STORED_BYTES / 2**30:.3g} GiB); shorten "
            f"t_end or tau or raise dt")
    if n_steps > _MAX_STEPS:
        raise _too_many_steps(n_steps)
    return dt, lag, n_steps, store_every, n_frames


def _integrate(lanes: Sequence[ModelParams],
               history: Callable[[float], tuple[np.ndarray, np.ndarray]],
               grid: Optional[Grid], t_end: float, dt_requested: float,
               store_every: Optional[int]
               ) -> list[Trajectory | NumericalError]:
    """The one stepper behind the PDE, the ODE and sweeps.

    Each lane is one run; lanes share every parameter except r.
    history(t) gives the (m, a) states at t in [-tau, 0], broadcastable
    to (B, nx).  grid None means the spatially homogeneous reduction
    (nx = 1, no diffusion).  A lane whose guards trip gets its
    NumericalError in place of a Trajectory; the other lanes go on
    unchanged.

    The checks, the (slots, 2, B, nx) delay ring and the (frames, 2, B,
    nx) frame store are set up here for one of two loops, which give the
    same bits.  A homogeneous run of at most _FLOAT_LANES lanes steps
    each lane on its own in Python floats (_step_floats): its state is
    two numbers per lane, and a numpy call costs far more to make than
    that arithmetic.  PDE runs and wider runs step all lanes as one
    array (_step_arrays), where each call's cost is shared by every lane
    and grid point, so that loop makes as few calls per step as it can.
    """
    p = lanes[0]
    if any(replace(q, r=p.r) != p for q in lanes):
        raise ValueError("lanes may differ only in r")
    n_lanes = len(lanes)
    nx = 1 if grid is None else grid.points
    dt, lag, n_steps, store_every, n_frames = _schedule(
        p.tau, t_end, dt_requested, n_lanes * nx, store_every)
    slots = lag + 1

    hist = np.empty((slots, 2, n_lanes, nx))
    for j in range(-lag, 1):
        hist[j % slots, 0], hist[j % slots, 1] = history(j * dt)
    if not np.isfinite(hist).all():
        raise ValueError("initial history must be finite")
    # Past _BLOWUP _guard_message stops a lane whatever its algae bound,
    # so the loops' cheap checks let a rise no higher.
    a_bound = [min(max(float(np.max(np.abs(a0))), 1.0) + _BOUND_SLACK,
                   _BLOWUP) for a0 in hist[0, 1]]
    # Frame k holds the state after step min(k * store_every, n_steps).
    times = np.minimum(np.arange(n_frames) * store_every, n_steps) * dt
    frames = np.empty((n_frames, 2, n_lanes, nx))
    frames[0] = hist[0]
    # 1/(1 + m) at m = -1 is inf in numpy but raises in Python floats.
    # Only the initial history can hold it: every later delayed m has
    # passed the negativity guard.
    if (grid is None and n_lanes <= _FLOAT_LANES
            and not (hist[:, 0] == -1.0).any()):
        errors = [_step_floats(q, hist[:, :, b, 0], frames[:, :, b, 0], lag,
                               dt, n_steps, store_every, a_bound[b])
                  for b, q in enumerate(lanes)]
    else:
        errors = _step_arrays(lanes, hist, frames, grid, lag, dt, n_steps,
                              store_every, a_bound)
    return [errors[b] or Trajectory(times=times, fields_m=frames[:, 0, b],
                                    fields_a=frames[:, 1, b], dt=dt)
            for b in range(n_lanes)]


def _step_floats(q: ModelParams, ring: np.ndarray, out: np.ndarray,
                 lag: int, dt: float, n_steps: int, store_every: int,
                 a_bound: float) -> Optional[NumericalError]:
    """Step one homogeneous lane in Python floats; its error, or None.

    ring is the lane's (slots, 2) delay history and out its (frames, 2)
    store, views into the shared arrays read and written in place.  Each
    float operation is the one correctly rounded IEEE operation that
    _step_arrays makes per element, in the same order, and the guard
    check is its check on one lane, so both give the same bits.  Per
    step the loop keeps its books in a few ints: a slot counter that
    wraps (the slot a step reads is the one it then writes) and a
    countdown to the next stored frame; at lag 0 the delayed state is
    the current one and the ring is not touched.
    """
    rhs, low, high = reaction_rhs, _NEGATIVITY, _BLOWUP
    ring_m, ring_a = memoryview(ring[:, 0]), memoryview(ring[:, 1])
    out_m, out_a = memoryview(out[:, 0]), memoryview(out[:, 1])
    m, a = ring_m[0], ring_a[0]
    # Step i reads the state of step i - lag from slot k = (i + 1) % (lag
    # + 1).  The first step's rates stand in for the step before it.
    k = 1 if lag else 0
    prev_m, prev_a = rhs(m, a, ring_m[k], ring_a[k], q)
    frame, countdown = 1, store_every
    for i in range(n_steps):
        if lag:
            rate_m, rate_a = rhs(m, a, ring_m[k], ring_a[k], q)
        else:
            rate_m, rate_a = rhs(m, a, m, a, q)
        m = m + dt * (1.5 * rate_m - 0.5 * prev_m)
        a = a + dt * (1.5 * rate_a - 0.5 * prev_a)
        prev_m, prev_a = rate_m, rate_a
        if lag:
            ring_m[k], ring_a[k] = m, a
            k = k + 1 if k < lag else 0
        if not (low <= m <= high and low <= a <= a_bound):
            msg = _guard_message((i + 1) * dt, m, a, m, a, a_bound)
            if msg is not None:
                return NumericalError(msg)
        countdown -= 1
        if not countdown:
            out_m[frame], out_a[frame] = m, a
            frame += 1
            countdown = store_every
    if countdown != store_every:   # the last step, past the last stride
        out_m[frame], out_a[frame] = m, a
    return None


@np.errstate(all="ignore")   # the guards report every non-finite value
def _step_arrays(lanes: Sequence[ModelParams], hist: np.ndarray,
                 frames: np.ndarray, grid: Optional[Grid], lag: int,
                 dt: float, n_steps: int, store_every: int,
                 a_bound: list[float]) -> list[Optional[NumericalError]]:
    """Step every lane as one (2, B, nx) array; each lane's error or None.

    A lane whose guards trip is parked: its error is kept, and its rows of
    the state and of every ring slot are set to the bare-sediment state
    (m, a) = (0, 1), its rates and delayed factor to zero.  That state is
    a fixed point of the kinetics with a zero Laplacian, so the lane stays
    finite and inside every guard, and the array keeps one shape for the
    run; the frames of a tripped lane are never read.  Each numpy call
    works on every lane and grid point, and each element goes through the
    IEEE operations of model.reaction_rhs and of a solve per species, in
    their order, so the bits are theirs.  Each call takes operands of one
    shape: every scalar of a step (1, alpha and gamma in the algae rate,
    the Adams-Bashforth weights 1.5 and 0.5 and dt, each species'
    diffusion coefficient, r and 1 in the delayed factor) is an array of
    the very same values, made once per run.  Per step:

    - dm/dt is m times the delayed factor r*a(t - tau) - 1/(1 + m(t -
      tau)), which is computed for the whole ring (or, for a long ring,
      a window of _WINDOW_VALUES values) at once.
    - On a grid, the Laplacian is written into a buffer kept for the run.
      Its interior stencil runs over the flat state, one contiguous call
      per operation for all rows, with 2f as f + f; the mirror ends are
      then written over what it left at each row's ends, and the closure's
      doubling is in the divisor, h^2/2 at the ends and h^2 inside.  One
      tridiagonal solve of the state in its memory order takes the
      implicit half step of every species and lane: its matrix has a
      block per species and lane (_crank_factor), factored once per run.
    - The rates of this step and of the last live in two buffers that
      swap each step; they, the Adams-Bashforth sum and the kinetic
      temporaries are allocated once per run, and written with out=.
    - The guard check takes one maximum of the state's bit patterns read
      as unsigned integers, which passes every state in [+0, the least
      algae bound] with no NaN.  Only when that fails does it check the
      state's minimum and each row's maximum against its ceiling, and
      each row's minimum only when that trips.
    """
    p = lanes[0]
    n_lanes = len(lanes)
    slots = lag + 1
    # Updated in place, so every view below stays valid for the run.
    y = hist[0].copy()
    m, a = y
    # Each row's ceilings (blow-up for m, the algae bound for a); a state
    # no higher than the least of them passes them all.
    limits = np.array([[_BLOWUP] * n_lanes, a_bound])
    # Read as unsigned integers, the bit patterns of +0 up to the least
    # ceiling are exactly those no higher than its: a set sign bit (any
    # negative value, -0.0 too) or a NaN reads higher.
    bits = y.view(np.uint64)
    ceiling_bits = np.float64(min(a_bound)).view(np.uint64)
    errors: list[Optional[NumericalError]] = [None] * n_lanes
    # Ring slots per window of the delayed factor: the whole ring but for
    # a long one, whose copy could outgrow the storage limit.
    span = max(1, min(slots, _WINDOW_VALUES // y[0].size))
    growths, recips = np.empty((2, span, *m.shape))
    # Each scalar of a step as an array of its operand's shape, made once
    # per run: a call on operands of one shape is the cheapest numpy makes,
    # and every element meets the very value the scalar held.
    r = np.empty_like(growths)
    r[...] = np.array([q.r for q in lanes])[:, None]
    ones = np.ones_like(growths)
    one = ones[0]
    alpha, gamma = (np.full_like(m, c) for c in (p.alpha, p.gamma))
    c_now, c_last, c_dt = (np.full_like(y, c) for c in (1.5, 0.5, dt))
    # This step's rates and the last step's, each with its two rows as
    # views; they swap every step.
    now, last = ((rates, *rates) for rates in (np.empty_like(y),
                                               np.empty_like(y)))
    eff, half, ma = np.empty_like(y), np.empty_like(y), np.empty_like(m)

    if grid is not None:
        dgttrs = _lapack().dgttrs
        nx, h2 = grid.points, grid.h * grid.h
        coefs = (0.5 * dt * p.d, 0.5 * dt / p.gamma)
        coef = np.empty_like(y)
        coef[...] = np.array(coefs)[:, None, None]
        # h^2 inside and h^2/2 at both ends, which takes the mirror
        # closure's doubling: h^2/2 is exact, so x/(h^2/2) is (2x)/h^2
        # exactly unless 2x overflows, which no state the guards have
        # passed comes near.
        divisor = np.full_like(y, h2)
        divisor[..., ::nx - 1] = 0.5 * h2
        factors = _crank_factor(np.repeat(coefs, n_lanes), nx, grid.h)
        column, flat = y.reshape(-1, 1), y.reshape(-1)
        lap = np.empty_like(y)
        # The interior stencil runs over the flat state, every row at once;
        # what it writes across a row boundary lands on a row's end, which
        # the end formula then overwrites.
        lap_mid, lap_ends = lap.reshape(-1)[1:-1], lap[..., ::nx - 1]
        f_left, f_mid, f_right = flat[:-2], flat[1:-1], flat[2:]
        # Both ends at once: f[0] and f[-1], then f[1] and f[-2].
        y_ends, y_next = y[..., ::nx - 1], y[..., 1::nx - 3]

    # Step i reads slot k = (i + 1) % slots and then overwrites it.  The
    # delayed factor is held for the window of slots [first, end); end
    # starts at step 0's slot, so step 0 opens the first window.
    k, end = 0, 1 % slots
    frame, countdown = 1, store_every
    for i in range(n_steps):
        k = k + 1 if k < lag else 0
        if k == end or not k:
            # A new window from slot k: no slot of a window changes
            # before the window's steps have read it.
            first, end = k, min(slots, k - k % span + span)
            width = end - first
            growth, recip = growths[:width], recips[:width]
            np.multiply(r[:width], hist[first:end, 1], out=growth)
            np.add(ones[:width], hist[first:end, 0], out=recip)
            np.divide(ones[:width], recip, out=recip)
            growth -= recip
        (rate, rate_m, rate_a), prev = now, last[0]
        np.multiply(m, growth[k - first], out=rate_m)
        # (alpha * (1 - a) - m * a) / gamma
        np.subtract(one, a, out=rate_a)
        rate_a *= alpha
        np.multiply(m, a, out=ma)
        rate_a -= ma
        rate_a /= gamma
        if i == 0:
            prev[...] = rate
        np.multiply(rate, c_now, out=eff)
        np.multiply(prev, c_last, out=half)
        eff -= half
        eff *= c_dt
        now, last = last, now
        if grid is not None:
            # coef * (((f[i-1] - (f[i] + f[i])) + f[i+1]) / h^2), with the
            # mirror closure (f[1] - f[0]) / (h^2/2) at both ends.
            np.add(f_mid, f_mid, out=lap_mid)
            np.subtract(f_left, lap_mid, out=lap_mid)
            np.add(lap_mid, f_right, out=lap_mid)
            np.subtract(y_next, y_ends, out=lap_ends)
            lap /= divisor
            lap *= coef
            y += lap
        y += eff
        if grid is not None:
            _, info = dgttrs(*factors, column, overwrite_b=1)
            if info != 0:
                raise NumericalError(f"diffusion solve failed (info {info})")

        if not (bits.max() <= ceiling_bits
                or (y.min() >= _NEGATIVITY
                    and (y.max(axis=-1) <= limits).all())):
            if grid is not None and not np.isfinite(y).all():
                # In the block solve 0 * inf is NaN, so a non-finite value
                # reaches every row: solve the step again from the same
                # right-hand side (hist still holds the state before it)
                # one species at a time, each lane apart.
                np.add(hist[i % slots], lap, out=y)
                y += eff
                for s in (0, 1):
                    dgttrs(*_crank_factor(coefs[s:s + 1], nx, grid.h),
                           y[s].T, overwrite_b=1)
            hi, lo = y.max(axis=-1), y.min(axis=-1)
            t_now = (i + 1) * dt
            for b, (hm, ha, lm, la, bound) in enumerate(zip(
                    *hi.tolist(), *lo.tolist(), limits[1].tolist())):
                msg = _guard_message(t_now, hm, ha, lm, la, bound)
                if msg is not None:
                    errors[b] = NumericalError(msg)
                    y[0, b], y[1, b] = 0.0, 1.0   # parked at (0, 1)
                    hist[:, :, b] = y[:, b]
                    rate[:, b] = growth[:, b] = 0.0
            if None not in errors:
                break
        hist[k] = y
        countdown -= 1
        if not countdown:
            frames[frame] = y
            frame += 1
            countdown = store_every
    if countdown != store_every:   # the last step, past the last stride
        frames[frame] = y

    return errors


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


def _check_transient_fraction(transient_fraction: float) -> None:
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError("transient fraction must lie in [0, 1)")


def detect_orbit(traj: Trajectory,
                 transient_fraction: float = 0.5) -> OrbitSummary:
    """Classify the post-transient trajectory as periodic or not.

    Periodicity is read off the spatial mean of m: peak spacing must have
    a coefficient of variation below 2% and the peak amplitude must not
    be decaying (late-to-early amplitude ratio at least 0.75).  The
    frames from t_cut on are read in place: times never decreases, so
    they are a suffix.
    """
    _check_transient_fraction(transient_fraction)
    t_cut = traj.times[-1] * transient_fraction
    start = int(np.searchsorted(traj.times, t_cut))
    if len(traj.times) - start < 8:
        return OrbitSummary(False, None, (math.nan, math.nan),
                            (math.nan, math.nan), math.nan)
    times = traj.times[start:]
    m_fields = traj.fields_m[start:]
    m_sig = m_fields.mean(axis=1)
    a_sig = traj.fields_a[start:].mean(axis=1)
    is_periodic, period = _signal_stats(m_sig, times)
    if m_fields.shape[1] > 1:
        # A block of frames at a time, so no temporary holds them all.
        block = max(1, _WINDOW_VALUES // m_fields.shape[1])
        stds = np.concatenate([m_fields[j:j + block].std(axis=1)
                               for j in range(0, len(m_fields), block)])
        scale = np.maximum(np.abs(m_sig), 1e-300)
        inhomogeneity = float(np.max(stds / scale))
    else:
        inhomogeneity = 0.0
    return OrbitSummary(
        is_periodic=is_periodic, period=period,
        amplitude_m=(float(np.min(m_sig)), float(np.max(m_sig))),
        amplitude_a=(float(np.min(a_sig)), float(np.max(a_sig))),
        spatial_inhomogeneity=inhomogeneity)


class SweepPoint(NamedTuple):
    """One row of an amplitude sweep: parameters, verdict, or failure."""

    r: float
    summary: Optional[OrbitSummary]
    error: Optional[str]


def amplitude_sweep(p_base: ModelParams, r_values: list[float],
                    t_end: float = 1200.0, dt: float = 0.01,
                    transient_fraction: float = 0.6) -> list[SweepPoint]:
    """Run the homogeneous reduction across a recruitment range.

    Each run starts from a fixed small displacement of the coexistence
    state, and all runs step together as lanes of one integration.  A
    point whose equilibrium or run fails gets its error recorded and the
    sweep continues.  An argument that would fail every point alike (a
    bad transient_fraction, t_end or dt, or a run too long) raises before
    any step is taken, whether or not any point has an equilibrium.
    """
    _check_transient_fraction(transient_fraction)
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
    _schedule(p_base.tau, t_end, dt, max(1, len(lanes)), None)
    runs: Iterator = iter(())
    if lanes:
        m0 = np.array([[eq.m * 1.05] for _, eq in lanes])
        a0 = np.array([[eq.a] for _, eq in lanes])
        runs = iter(_integrate([p for p, _ in lanes], lambda t: (m0, a0),
                               None, t_end, dt, None))

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
