"""The batched stepper against a serial reference, and fault isolation.

`_reference_integrate` is the single-lane stepper the package used before
lanes were batched: one run at a time, the two species as separate
arrays, and a banded solve per species and step.  Both loops of the
batched stepper, few homogeneous lanes in Python floats and every other
run as one array, must reproduce it bit for bit, lane by lane.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import Callable, Optional

import numpy as np
import pytest
from scipy.linalg import solve_banded

from musselbed import (Grid, ModelParams, NumericalError, Trajectory,
                       amplitude_sweep, detect_orbit, positive_equilibrium,
                       reaction_rhs, simulate_ode, simulate_pde)
from musselbed.sim import _FLOAT_LANES, _integrate, _snap_dt

_BLOWUP = 1e6
_NEGATIVITY = -1e-10
_BOUND_SLACK = 1e-6


def _reference_laplacian(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = f[:-2] - 2.0 * f[1:-1] + f[2:]
    out[0] = 2.0 * (f[1] - f[0])
    out[-1] = 2.0 * (f[-1 - 1] - f[-1])
    return out / (h * h)


def _reference_crank_matrix(nx: int, h: float, coef: float) -> np.ndarray:
    ab = np.zeros((3, nx))
    inv_h2 = 1.0 / (h * h)
    ab[1, :] = 1.0 + 2.0 * coef * inv_h2
    ab[0, 1:] = -coef * inv_h2
    ab[2, :-1] = -coef * inv_h2
    ab[0, 1] = -2.0 * coef * inv_h2
    ab[2, -2] = -2.0 * coef * inv_h2
    return ab


def _reference_integrate(p: ModelParams,
                         m0_of: Callable[[float], np.ndarray],
                         a0_of: Callable[[float], np.ndarray], nx: int,
                         h: float, t_end: float, dt_requested: float,
                         diffusive: bool,
                         store_every: Optional[int] = None) -> Trajectory:
    dt, lag = _snap_dt(p.tau, dt_requested)
    n_steps = max(1, int(round(t_end / dt)))
    if store_every is None:
        store_every = max(1, int(round(0.05 / dt)))

    slots = lag + 1
    hist_m = np.empty((slots, nx))
    hist_a = np.empty((slots, nx))
    for j in range(-lag, 1):
        hist_m[j % slots] = m0_of(j * dt)
        hist_a[j % slots] = a0_of(j * dt)
    m = hist_m[0].copy()
    a = hist_a[0].copy()
    a_bound = max(float(np.max(np.abs(a))), 1.0) + _BOUND_SLACK

    if diffusive:
        ab_m = _reference_crank_matrix(nx, h, 0.5 * dt * p.d)
        ab_a = _reference_crank_matrix(nx, h, 0.5 * dt / p.gamma)

    times = [0.0]
    frames_m = [m.copy()]
    frames_a = [a.copy()]
    prev_rm: Optional[np.ndarray] = None
    prev_ra: Optional[np.ndarray] = None

    for i in range(n_steps):
        md = hist_m[(i - lag) % slots]
        ad = hist_a[(i - lag) % slots]
        rm, ra = reaction_rhs(m, a, md, ad, p)
        if prev_rm is None:
            prev_rm, prev_ra = rm, ra
        eff_m = 1.5 * rm - 0.5 * prev_rm
        eff_a = 1.5 * ra - 0.5 * prev_ra
        prev_rm, prev_ra = rm, ra
        if diffusive:
            rhs_m = m + 0.5 * dt * p.d * _reference_laplacian(m, h) \
                + dt * eff_m
            rhs_a = a + (0.5 * dt / p.gamma) * _reference_laplacian(a, h) \
                + dt * eff_a
            m = solve_banded((1, 1), ab_m, rhs_m)
            a = solve_banded((1, 1), ab_a, rhs_a)
        else:
            m = m + dt * eff_m
            a = a + dt * eff_a
        hist_m[(i + 1) % slots] = m
        hist_a[(i + 1) % slots] = a

        t_now = (i + 1) * dt
        peak = max(float(np.max(np.abs(m))), float(np.max(np.abs(a))))
        if not math.isfinite(peak) or peak > _BLOWUP:
            raise NumericalError(
                f"field blow-up at t = {t_now:.4g} (magnitude {peak:.3e})")
        low = min(float(np.min(m)), float(np.min(a)))
        if low < _NEGATIVITY:
            raise NumericalError(
                f"negative field at t = {t_now:.4g} (minimum {low:.3e})")
        if float(np.max(a)) > a_bound:
            raise NumericalError(
                f"algae bound violated at t = {t_now:.4g} "
                f"(max {float(np.max(a)):.6g} > {a_bound:.6g})")
        if (i + 1) % store_every == 0 or i == n_steps - 1:
            times.append(t_now)
            frames_m.append(m.copy())
            frames_a.append(a.copy())

    return Trajectory(times=np.asarray(times),
                      fields_m=np.asarray(frames_m),
                      fields_a=np.asarray(frames_a), dt=dt)


def _reference_ode(p: ModelParams, m0: float, a0: float, t_end: float,
                   dt: float) -> Trajectory:
    m_arr = np.array([float(m0)])
    a_arr = np.array([float(a0)])
    return _reference_integrate(p, lambda t: m_arr.copy(),
                                lambda t: a_arr.copy(), 1, 1.0, t_end, dt,
                                diffusive=False)


def _assert_identical(got: Trajectory, want: Trajectory) -> None:
    assert got.dt == want.dt
    assert got.fields_m.shape == want.fields_m.shape
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.fields_m, want.fields_m)
    assert np.array_equal(got.fields_a, want.fields_a)


REFERENCE = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0)


@pytest.mark.parametrize("tau", [0.0, 3.6])
def test_ode_matches_serial_reference_bit_for_bit(tau):
    p = replace(REFERENCE, tau=tau)
    eq = positive_equilibrium(p)
    got = simulate_ode(p, eq.m * 1.05, eq.a, t_end=150.0, dt=0.01)
    want = _reference_ode(p, eq.m * 1.05, eq.a, 150.0, 0.01)
    _assert_identical(got, want)


@pytest.mark.parametrize("n", [32, 64])
def test_pde_matches_serial_reference_bit_for_bit(n):
    p = replace(REFERENCE, tau=3.6)
    eq = positive_equilibrium(p)
    grid = Grid(n)
    x = grid.x()

    def history(x, t):
        bump = 0.1 * np.cos(2 * x) * (1.0 + 0.05 * t)
        return eq.m + bump, eq.a - bump

    got = simulate_pde(p, history, grid, t_end=100.0, dt=0.03)
    want = _reference_integrate(
        p, lambda t: np.asarray(history(x, t)[0], dtype=float),
        lambda t: np.asarray(history(x, t)[1], dtype=float),
        grid.points, grid.h, 100.0, 0.03, diffusive=True)
    _assert_identical(got, want)


@pytest.mark.parametrize("width", [3, _FLOAT_LANES + 1])
def test_sweep_matches_per_r_serial_runs(width):
    # Three lanes step one by one in Python floats; one lane more than
    # _FLOAT_LANES steps as one array.  Both must match the reference.
    assert 3 <= _FLOAT_LANES
    base = ModelParams(r=1.4, alpha=0.45, gamma=8.0)
    rs = [1.2, 1.5, 1.9, *np.linspace(1.25, 1.85, width - 3).tolist()]
    lanes = [replace(base, r=r) for r in rs]
    eqs = [positive_equilibrium(q) for q in lanes]
    want = [_reference_ode(q, eq.m * 1.05, eq.a, 400.0, 0.05)
            for q, eq in zip(lanes, eqs)]
    table = amplitude_sweep(base, rs, t_end=400.0, dt=0.05,
                            transient_fraction=0.6)
    assert [pt.r for pt in table] == rs
    for pt, ref in zip(table, want):
        assert pt.error is None
        assert pt.summary == detect_orbit(ref, 0.6)
    # The lanes themselves, not only their summaries.
    m0 = np.array([[eq.m * 1.05] for eq in eqs])
    a0 = np.array([[eq.a] for eq in eqs])
    runs = _integrate(lanes, lambda t: (m0, a0), None, 400.0, 0.05, None)
    for run, ref in zip(runs, want):
        _assert_identical(run, ref)


@pytest.mark.parametrize("case, grid_n, m0, a0, gamma, dt", [
    ("blow-up", None, 1.0, 1.0, 1e6, 0.01),
    # 1/(1 + m) is inf at once, where Python floats would raise.
    pytest.param("blow-up", None, -1.0, 0.5, 0.5, 0.01,
                 marks=pytest.mark.filterwarnings(
                     "ignore:divide by zero", "ignore:invalid value")),
    ("negative", None, -1e-3, 1.0, 0.5, 0.01),
    ("algae bound", 64, 0.0, 0.5, 0.5, 0.5),
])
def test_guards_trip_as_the_serial_reference_does(case, grid_n, m0, a0,
                                                  gamma, dt):
    p = replace(REFERENCE, gamma=gamma)
    if grid_n is None:
        run = lambda: simulate_ode(p, m0, a0, t_end=20.0, dt=dt)
        reference = lambda: _reference_ode(p, m0, a0, 20.0, dt)
    else:
        # A step in a: the implicit half step overshoots its top at large dt.
        grid = Grid(grid_n)
        x = grid.x()
        m_x = np.full_like(x, m0)
        a_x = np.where(x < 1.5, 1.0, a0)
        run = lambda: simulate_pde(p, lambda x, t: (m_x, a_x), grid,
                                   t_end=20.0, dt=dt)
        reference = lambda: _reference_integrate(
            p, lambda t: m_x, lambda t: a_x, grid.points, grid.h, 20.0, dt,
            diffusive=True)
    with pytest.raises(NumericalError) as got:
        run()
    with pytest.raises(NumericalError) as want:
        reference()
    assert case in str(got.value)
    assert str(got.value) == str(want.value)


def test_tripped_lane_is_isolated_without_warnings():
    p = replace(REFERENCE, tau=0.0)
    eq = positive_equilibrium(p)
    faulty = replace(p, r=1.8)
    serial = {}
    # The first goes negative at once, the second only near t = 4.6,
    # after the first has dropped out of the batch.
    for name, q, m0 in (("early", faulty, -1e-3), ("late", p, -1e-12)):
        with pytest.raises(NumericalError) as exc:
            simulate_ode(q, m0, 1.0, t_end=10.0, dt=0.01)
        serial[name] = str(exc.value)
    lanes = [p, faulty, p, p]
    m0 = np.array([[eq.m * 1.05], [-1e-3], [eq.m * 0.9], [-1e-12]])
    a0 = np.array([[eq.a], [1.0], [eq.a], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _integrate(lanes, lambda t: (m0, a0), None, 10.0, 0.01, None)
    assert isinstance(runs[1], NumericalError)
    assert str(runs[1]) == serial["early"]
    assert isinstance(runs[3], NumericalError)
    assert str(runs[3]) == serial["late"]
    _assert_identical(runs[0], simulate_ode(p, eq.m * 1.05, eq.a,
                                            t_end=10.0, dt=0.01))
    _assert_identical(runs[2], simulate_ode(p, eq.m * 0.9, eq.a,
                                            t_end=10.0, dt=0.01))


def test_blowup_lane_is_isolated_in_a_pde_batch():
    p = replace(REFERENCE, tau=0.0)
    eq = positive_equilibrium(p)
    grid = Grid(32)
    x = grid.x()
    with pytest.raises(NumericalError) as serial:
        simulate_pde(p, lambda x, t: (np.full_like(x, 5e5), np.ones_like(x)),
                     grid, t_end=50.0, dt=0.01)
    bump = 0.1 * np.cos(x)
    m0 = np.stack([np.full_like(x, 5e5), eq.m + bump])
    a0 = np.stack([np.ones_like(x), eq.a - bump])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _integrate([p, p], lambda t: (m0, a0), grid, 50.0, 0.01,
                          None)
    assert str(runs[0]) == str(serial.value)
    _assert_identical(runs[1], simulate_pde(
        p, lambda x, t: (eq.m + bump, eq.a - bump), grid, t_end=50.0,
        dt=0.01))


def test_lanes_must_share_all_parameters_but_r():
    with pytest.raises(ValueError):
        _integrate([REFERENCE, replace(REFERENCE, gamma=1.0)],
                   lambda t: (0.1, 0.5), None, 1.0, 0.01, None)


def test_non_finite_history_is_rejected():
    with pytest.raises(ValueError):
        simulate_pde(REFERENCE, lambda x, t: (np.full_like(x, math.nan),
                                              np.ones_like(x)),
                     Grid(16), t_end=1.0, dt=0.01)
