"""The batched stepper against a serial reference, and fault isolation.

`_reference_integrate` is the single-lane stepper the package used before
lanes were batched: one run at a time, the two species as separate
arrays, and a banded solve per species and step.  Both loops of the
batched stepper, few homogeneous lanes in Python floats and every other
run as one array, must reproduce it bit for bit, lane by lane.

Bit identity cannot catch a defect that the reference shares, so the
order of accuracy is pinned too: halving dt (or the grid spacing) must
divide the change of a result by about 4, as a second-order method
does.  A delay read one step off would make it about 2.
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
from musselbed import sim
from musselbed.sim import _FLOAT_LANES, _guard_message, _integrate, _snap_dt

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
            # A non-finite right-hand side goes through to the guard.
            m = solve_banded((1, 1), ab_m, rhs_m, check_finite=False)
            a = solve_banded((1, 1), ab_a, rhs_a, check_finite=False)
        else:
            m = m + dt * eff_m
            a = a + dt * eff_a
        hist_m[(i + 1) % slots] = m
        hist_a[(i + 1) % slots] = a

        t_now = (i + 1) * dt
        # numpy's max is NaN when either field holds a NaN.
        peak = float(np.max(np.abs(np.concatenate((m, a)))))
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


def _array_loop_not_taken(*args, **kwargs):
    raise AssertionError("a one-lane ODE run steps in Python floats")


@pytest.mark.parametrize("store_every", [1, 3, 7])
@pytest.mark.parametrize("tau, lag", [(0.0, 0), (0.1, 1), (3.6, 36)])
def test_float_loop_matches_serial_reference_at_every_stride(
        tau, lag, store_every, monkeypatch):
    # A history that varies over [-tau, 0] tells every ring slot apart.
    # 1500 steps: a stride of 7 leaves two steps past its last multiple,
    # and the last step is stored all the same.
    monkeypatch.setattr(sim, "_step_arrays", _array_loop_not_taken)
    p = replace(REFERENCE, tau=tau)
    assert _snap_dt(tau, 0.1)[1] == lag
    eq = positive_equilibrium(p)
    m_of = lambda t: np.array([eq.m * (1.05 + 0.01 * t)])
    a_of = lambda t: np.array([eq.a * (1.0 - 0.02 * t)])
    [got] = _integrate([p], lambda t: (m_of(t), a_of(t)), None, 150.0, 0.1,
                       store_every)
    want = _reference_integrate(p, m_of, a_of, 1, 1.0, 150.0, 0.1,
                                diffusive=False, store_every=store_every)
    assert len(got.times) == 1 + math.ceil(1500 / store_every)
    _assert_identical(got, want)


@pytest.mark.parametrize("m0, first", [(-1e-3, True), (-1e-12, False)],
                         ids=["first-step", "mid-run"])
@pytest.mark.parametrize("tau", [0.0, 3.6])
def test_float_loop_trips_as_the_serial_reference_does(tau, m0, first,
                                                       monkeypatch):
    # m0 < 0 grows like -exp(t): below the negativity floor at once, or
    # only near t = 4.6.
    monkeypatch.setattr(sim, "_step_arrays", _array_loop_not_taken)
    p = replace(REFERENCE, tau=tau)
    with pytest.raises(NumericalError) as got:
        simulate_ode(p, m0, 1.0, t_end=20.0, dt=0.1, store_every=7)
    with pytest.raises(NumericalError) as want:
        _reference_integrate(p, lambda t: np.array([m0]),
                             lambda t: np.array([1.0]), 1, 1.0, 20.0, 0.1,
                             diffusive=False, store_every=7)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("negative field at t = "
                                     + ("0.1 " if first else "4."))


@pytest.mark.parametrize("n, tau, l, rs", [
    pytest.param(32, 3.6, 1.0, (2.0,), id="32"),
    pytest.param(64, 3.6, 1.0, (2.0,), id="64"),
    # One ring slot (every pass of the delayed factor is one step long),
    # and two.
    pytest.param(32, 0.0, 1.0, (2.0,), id="32-lag0"),
    pytest.param(32, 0.03, 1.0, (2.0,), id="32-lag1"),
    # The fewest points per row, so row ends lie close together in the
    # flat stencil, and a spacing whose h^2/2 divides the mirror ends.
    pytest.param(16, 0.0, 2.5, (2.0,), id="16-l2.5-lag0"),
    # Three lanes that differ in r, each with its own profile: the flat
    # stencil runs across all six rows, and no row may read another's.
    pytest.param(16, 0.0, 1.0, (1.9, 2.0, 2.6), id="16-3-lanes-lag0"),
    pytest.param(16, 3.6, 1.0, (1.9, 2.0, 2.6), id="16-3-lanes"),
])
def test_pde_matches_serial_reference_bit_for_bit(n, tau, l, rs):
    lanes = [replace(REFERENCE, tau=tau, l=l, r=r) for r in rs]
    eqs = [positive_equilibrium(q) for q in lanes]
    grid = Grid(n, l)
    x = grid.x()

    def history(k, t):
        bump = 0.1 * np.cos((k + 2) * x / l) * (1.0 + 0.05 * t)
        return eqs[k].m + bump, eqs[k].a - bump

    def fields(t):
        m, a = zip(*(history(k, t) for k in range(len(lanes))))
        return np.stack(m), np.stack(a)

    runs = _integrate(lanes, fields, grid, 100.0, 0.03, None)
    assert _snap_dt(tau, 0.03)[1] == {0.0: 0, 0.03: 1, 3.6: 120}[tau]
    for k, (q, got) in enumerate(zip(lanes, runs)):
        want = _reference_integrate(
            q, lambda t: history(k, t)[0], lambda t: history(k, t)[1],
            grid.points, grid.h, 100.0, 0.03, diffusive=True)
        _assert_identical(got, want)


@pytest.mark.parametrize("window", [None, 700], ids=["ring", "7-slots"])
def test_pde_batch_matches_per_r_serial_runs_as_a_lane_drops_out(
        window, monkeypatch):
    # Three lanes of the block solve; the middle one starts a hair below
    # zero and goes negative near t = 6, after which two lanes go on.
    # The delayed factor is computed for the whole ring of 121 slots at
    # once, or for 7 slots (700 // 99 values per slot) at a time.
    if window is not None:
        monkeypatch.setattr(sim, "_WINDOW_VALUES", window)
    p = replace(REFERENCE, tau=3.6)
    grid = Grid(32)
    x = grid.x()
    lanes = [replace(p, r=r) for r in (2.0, 1.8, 2.3)]
    eqs = [positive_equilibrium(q) for q in lanes]
    bump = 0.05 * np.cos(x)
    m0 = np.stack([eqs[0].m + bump, np.full_like(x, -1e-12),
                   eqs[2].m - bump])
    a0 = np.stack([eqs[0].a - bump, np.ones_like(x), eqs[2].a + bump])
    runs = _integrate(lanes, lambda t: (m0, a0), grid, 30.0, 0.03, None)
    for q, run, m_b, a_b in zip(lanes, runs, m0, a0):
        reference = lambda: _reference_integrate(
            q, lambda t: m_b, lambda t: a_b, grid.points, grid.h, 30.0,
            0.03, diffusive=True)
        if isinstance(run, NumericalError):
            with pytest.raises(NumericalError) as want:
                reference()
            assert str(run) == str(want.value)
        else:
            _assert_identical(run, reference())
    assert "negative field at t = 5." in str(runs[1])
    assert not isinstance(runs[0], NumericalError)
    assert not isinstance(runs[2], NumericalError)


def test_non_finite_lane_stays_out_of_the_block_solve():
    # 1/(1 + m) is inf at m = -1: the first lane is NaN after one step.
    # The block solve would carry it into every other row; its
    # neighbour must run as it does alone.
    p = replace(REFERENCE, tau=0.0)
    eq = positive_equilibrium(p)
    grid = Grid(32)
    x = grid.x()
    bump = 0.1 * np.cos(x)
    m0 = np.stack([np.full_like(x, -1.0), eq.m + bump])
    a0 = np.stack([np.full_like(x, 0.5), eq.a - bump])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _integrate([p, p], lambda t: (m0, a0), grid, 5.0, 0.01,
                          None)
    assert str(runs[0]) == "field blow-up at t = 0.01 (magnitude nan)"
    _assert_identical(runs[1], simulate_pde(
        p, lambda x, t: (eq.m + bump, eq.a - bump), grid, t_end=5.0,
        dt=0.01))


@pytest.mark.parametrize("width", [2, _FLOAT_LANES + 1])
def test_algae_above_the_blow_up_level_stops_its_lane_alone(width):
    # a0 = 2e6 sets the lane's algae bound above the blow-up level.  The
    # reference stops it on its first step, whatever lanes run beside it.
    p = replace(REFERENCE, tau=0.0)
    eq = positive_equilibrium(p)
    with pytest.raises(NumericalError) as want:
        _reference_ode(p, 0.0, 2e6, 10.0, 0.01)
    m0 = np.full((width, 1), eq.m * 1.05)
    a0 = np.full((width, 1), eq.a)
    m0[0], a0[0] = 0.0, 2e6
    runs = _integrate([p] * width, lambda t: (m0, a0), None, 10.0, 0.01,
                      None)
    alone = _integrate([p], lambda t: (0.0, 2e6), None, 10.0, 0.01, None)
    assert str(runs[0]) == str(alone[0]) == str(want.value)
    assert "field blow-up at t = 0.01" in str(want.value)
    for run in runs[1:]:
        _assert_identical(run, _reference_ode(p, eq.m * 1.05, eq.a, 10.0,
                                              0.01))


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
    ("blow-up", None, -1.0, 0.5, 0.5, 0.01),
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the guards say it all
        with pytest.raises(NumericalError) as got:
            run()
    with pytest.raises(NumericalError) as want, np.errstate(all="ignore"):
        reference()
    assert case in str(got.value)
    assert str(got.value) == str(want.value)


# The array loop's guard first takes one maximum of the state's bit
# patterns read as unsigned integers.  That passes a state in [+0, the
# least algae bound] with no NaN; every other state, -0.0 and small
# negatives too, goes on to the full check.  Each case runs as the first
# of _FLOAT_LANES + 1 homogeneous lanes, so in the array loop, and alone
# on a grid, and must end as _reference_integrate does.
def _assert_leaves_the_fast_path(run) -> None:
    # Some state that passed the guard had a set sign bit or an algae
    # value above the least bound: only the full check could pass it.
    held = np.stack([run.fields_m[1:], run.fields_a[1:]])
    assert np.signbit(held).any() or held[1].max() > 1.0 + _BOUND_SLACK


ARRAY_GUARD_CASES = {
    # (m0, a0, gamma, dt, and a0 of the last lane if not its equilibrium):
    # how the first lane ends.
    # m < 0 decays towards -0 while a, slowed by a large gamma, keeps the
    # delayed factor r * a - 1 / (1 + m) below zero.
    "small-negative": ((-5e-11, 0.3, 50.0, 0.01, None), None),
    # Above the least algae bound of the run but within the lane's own.
    "own-algae-bound": ((0.1, 1.4, 0.5, 0.01, None), None),
    "negative": ((-1e-12, 1.0, 0.5, 0.01, None),
                 "negative field at t = 4.6"),
    "nan-m": ((-1.0, 0.5, 0.5, 0.01, None),
              "field blow-up at t = 0.01 (magnitude nan)"),
    # The explicit step overshoots to a = 1.45: past the lane's own bound,
    # not past the last lane's.
    "algae-bound": ((0.0, 0.7, 0.02, 0.5, 1.5),
                    "algae bound violated at t = 0.5 (max 1.45 > 1)"),
}


@pytest.mark.parametrize("case", ARRAY_GUARD_CASES)
def test_array_loop_guard_does_as_the_serial_reference(case):
    (m0, a0, gamma, dt, last_a), outcome = ARRAY_GUARD_CASES[case]
    p = replace(REFERENCE, gamma=gamma, tau=0.0)
    lanes = [p] + [replace(p, r=r)
                   for r in np.linspace(1.5, 2.5, _FLOAT_LANES).tolist()]
    starts = [(m0, a0)] + [(eq.m * 1.05, eq.a) for eq in
                           map(positive_equilibrium, lanes[1:])]
    if last_a is not None:
        starts[-1] = (starts[-1][0], last_a)
    m = np.array([[m_b] for m_b, _ in starts])
    a = np.array([[a_b] for _, a_b in starts])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _integrate(lanes, lambda t: (m, a), None, 10.0, dt, None)
    for q, (m_b, a_b), run in zip(lanes, starts, runs):
        try:
            with np.errstate(all="ignore"):
                want = _reference_ode(q, m_b, a_b, 10.0, dt)
        except NumericalError as exc:
            assert str(run) == str(exc)
        else:
            _assert_identical(run, want)
    if outcome is None:
        _assert_leaves_the_fast_path(runs[0])
    else:
        assert str(runs[0]).startswith(outcome)


def test_array_loop_guard_trips_on_a_nan_in_algae_alone():
    # alpha / gamma overflows, so every lane's first algae rate is inf and
    # its Adams-Bashforth sum inf - inf: a is NaN after one step, m not.
    p = replace(REFERENCE, gamma=1e-310, tau=0.0)
    lanes = [replace(p, r=r)
             for r in np.linspace(1.5, 2.5, _FLOAT_LANES + 1).tolist()]
    m = np.full((len(lanes), 1), 0.3)
    a = np.full((len(lanes), 1), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _integrate(lanes, lambda t: (m, a), None, 1.0, 0.01, None)
    for q, run in zip(lanes, runs):
        [alone] = _integrate([q], lambda t: (0.3, 0.5), None, 1.0, 0.01, None)
        with pytest.raises(NumericalError) as want, \
                np.errstate(all="ignore"):
            _reference_ode(q, 0.3, 0.5, 1.0, 0.01)
        assert str(run) == str(alone) == str(want.value) \
            == "field blow-up at t = 0.01 (magnitude nan)"


def _spike(x):
    # The least subnormal below zero at one node: the implicit half step
    # divides it by more than two, and m holds -0.0 there after a step.
    m = np.zeros_like(x)
    m[len(x) // 2] = -5e-324
    return m


PDE_GUARD_CASES = {   # (m(x), a(x), gamma, dt): how the run ends
    "negative-zero": ((_spike, lambda x: np.full_like(x, 0.3), 0.5, 0.01),
                      None),
    "small-negative": ((lambda x: np.full_like(x, -5e-11),
                        lambda x: np.full_like(x, 0.3), 50.0, 0.01), None),
    "negative": ((lambda x: np.full_like(x, -1e-12),
                  lambda x: np.ones_like(x), 0.5, 0.01),
                 "negative field at t = 4.6"),
    # A step in a: the implicit half step overshoots its top.
    "algae-bound": ((lambda x: np.zeros_like(x),
                     lambda x: np.where(x < 1.5, 1.0, 0.5), 0.5, 0.5),
                    "algae bound violated at t = "),
    "nan-m": ((lambda x: np.full_like(x, -1.0),
               lambda x: np.full_like(x, 0.5), 0.5, 0.01),
              "field blow-up at t = 0.01 (magnitude nan)"),
    "nan-a": ((lambda x: np.full_like(x, 0.3),
               lambda x: np.full_like(x, 0.5), 1e-310, 0.01),
              "field blow-up at t = 0.01 (magnitude nan)"),
}


@pytest.mark.parametrize("case", PDE_GUARD_CASES)
def test_pde_guard_does_as_the_serial_reference(case):
    (m_of, a_of, gamma, dt), outcome = PDE_GUARD_CASES[case]
    p = replace(REFERENCE, gamma=gamma, tau=0.0)
    grid = Grid(64)
    x = grid.x()
    m0, a0 = m_of(x), a_of(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [run] = _integrate([p], lambda t: (m0, a0), grid, 10.0, dt, 1)
    if outcome is None:
        _assert_identical(run, _reference_integrate(
            p, lambda t: m0, lambda t: a0, grid.points, grid.h, 10.0, dt,
            diffusive=True, store_every=1))
        _assert_leaves_the_fast_path(run)
        if case == "negative-zero":
            held = run.fields_m[1:]
            assert (np.signbit(held) & (held == 0.0)).any()
    else:
        with pytest.raises(NumericalError) as want, \
                np.errstate(all="ignore"):
            _reference_integrate(p, lambda t: m0, lambda t: a0, grid.points,
                                 grid.h, 10.0, dt, diffusive=True)
        assert str(run) == str(want.value)
        assert str(run).startswith(outcome)


def test_guard_message_sees_a_nan_in_either_field():
    blow_up = "field blow-up at t = 1 (magnitude nan)"
    assert _guard_message(1.0, 1.0, math.nan, 0.5, math.nan, 2.0) == blow_up
    assert _guard_message(1.0, math.nan, 1.0, math.nan, 0.5, 2.0) == blow_up
    assert _guard_message(1.0, 1.0, 1.0, 0.5, 0.5, 2.0) is None


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


def test_tripped_lane_is_parked_without_a_refactor(monkeypatch):
    # r * a0 overflows: the first lane's delayed factor is inf, so its m
    # blows up on the first step, and the block solve carries the NaN
    # into every row until the per-species re-solve.  Parked at (0, 1),
    # the lane stays finite for the rest of the run.
    p = replace(REFERENCE, tau=0.5)
    huge = replace(p, r=1e308)
    eq = positive_equilibrium(p)
    grid = Grid(32)
    x = grid.x()
    bump = 0.1 * np.cos(x)
    m0 = np.stack([np.full_like(x, 0.1), eq.m + bump])
    a0 = np.stack([np.full_like(x, 2.0), eq.a - bump])
    alone = _integrate([huge], lambda t: (m0[:1], a0[:1]), grid, 5.0, 0.01,
                       None)
    solo = simulate_pde(p, lambda x, t: (eq.m + bump, eq.a - bump), grid,
                        t_end=5.0, dt=0.01)
    blocks = []
    crank_factor = sim._crank_factor

    def spy(coefs, nx, h):
        blocks.append(len(coefs))
        return crank_factor(coefs, nx, h)

    monkeypatch.setattr(sim, "_crank_factor", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = _integrate([huge, p], lambda t: (m0, a0), grid, 5.0, 0.01,
                          None)
    assert isinstance(runs[0], NumericalError)
    assert str(runs[0]) == str(alone[0])
    assert "field blow-up at t = 0.01" in str(runs[0])
    _assert_identical(runs[1], solo)
    # One block factor per run, then one block per species to re-solve.
    assert blocks == [4, 1, 1]


def test_lanes_must_share_all_parameters_but_r():
    with pytest.raises(ValueError):
        _integrate([REFERENCE, replace(REFERENCE, gamma=1.0)],
                   lambda t: (0.1, 0.5), None, 1.0, 0.01, None)


def test_non_finite_history_is_rejected():
    with pytest.raises(ValueError):
        simulate_pde(REFERENCE, lambda x, t: (np.full_like(x, math.nan),
                                              np.ones_like(x)),
                     Grid(16), t_end=1.0, dt=0.01)


def _difference_ratio(values: list[float]) -> float:
    """(v0 - v1) / (v1 - v2) for results at steps h, h/2 and h/4."""
    return (values[0] - values[1]) / (values[1] - values[2])


STEPS = (0.02, 0.01, 0.005)


def test_ode_period_converges_at_second_order_in_dt():
    p = replace(REFERENCE, tau=3.6)
    eq = positive_equilibrium(p)
    periods = [detect_orbit(simulate_ode(p, eq.m * 1.05, eq.a, t_end=1200.0,
                                         dt=dt, store_every=1), 0.5).period
               for dt in STEPS]
    assert 3.5 <= _difference_ratio(periods) <= 4.5


def test_array_loop_converges_at_second_order_in_dt():
    p = replace(REFERENCE, tau=3.6)
    eq = positive_equilibrium(p)
    lanes = _FLOAT_LANES + 1
    ends = [_integrate([p] * lanes, lambda t: (eq.m * 1.05, eq.a), None,
                       20.0, dt, None)[0].fields_m[-1, 0] for dt in STEPS]
    assert 3.5 <= _difference_ratio(ends) <= 4.5


def test_pde_mode_converges_at_second_order_in_space():
    # The cos x amplitude of m - m* after one delay, by the trapezoidal
    # rule on the grid's own nodes.
    p = replace(REFERENCE, tau=1.0)
    eq = positive_equilibrium(p)
    amplitudes = []
    for n in (32, 64, 128):
        grid = Grid(n, p.l)
        x = grid.x()
        traj = simulate_pde(p, lambda x, t: (eq.m + 1e-6 * np.cos(x),
                                             np.full_like(x, eq.a)),
                            grid, t_end=1.0, dt=0.0025)
        weights = np.full(grid.points, grid.h)
        weights[[0, -1]] /= 2
        amplitudes.append(float(np.sum(weights * (traj.fields_m[-1] - eq.m)
                                       * np.cos(x))))
    assert 3.5 <= _difference_ratio(amplitudes) <= 4.5
