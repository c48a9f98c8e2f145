"""Time integration: convergence order, invariants, orbit detection.

The stepper is validated by Richardson refinement in both step size and
mesh width, by exact preservation of fixed points, by agreement between
the spatial solver on flat data and the plain ODE path, and by the
delay-induced transition from decay to sustained oscillation.  The
measured orbit period near onset is compared against the period-drift
rate predicted by the normal-form constants.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from musselbed import (Grid, ModelParams, NumericalError, OrbitSummary,
                       Trajectory, amplitude_sweep, detect_orbit,
                       hopf_coefficients, lyapunov_value,
                       positive_equilibrium, simulate_ode, simulate_pde,
                       tau_star)
from musselbed.sim import (_DETECTION_FLOOR, _INTERVAL_CV_MAX,
                           _SUSTAIN_RATIO_MIN, _find_peaks, _signal_stats)

REFERENCE = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0)
REF_OMEGA = 0.32534071178670415
REF_TAU = 2.35445346214238

# Orbit period at tau = 3.6, frozen from two independent integrators
# agreeing to four decimals.
LARGE_DELAY_PERIOD = 25.0665


def _with_tau(tau: float) -> ModelParams:
    return ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0, tau=tau)


def _cosine_history(p: ModelParams, amplitude: float = 0.1,
                    wavenumber: int = 2):
    eq = positive_equilibrium(p)

    def history(x: np.ndarray, t: float):
        bump = amplitude * np.cos(wavenumber * x / p.l)
        return eq.m + bump, eq.a - bump

    return history


def test_grid_validation_and_geometry():
    with pytest.raises(ValueError):
        Grid(8)
    grid = Grid(64, l=2.0)
    assert grid.points == 65
    assert grid.h == pytest.approx(2.0 * math.pi / 64.0, rel=1e-15)
    x = grid.x()
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert len(x) == 65


def test_grid_refuses_a_domain_whose_length_overflows():
    with pytest.raises(ValueError, match=r"l = 1\.7e\+308, n = 16"):
        Grid(16, l=1.7e308)
    assert Grid(16, l=5e307).x()[-1] == 5e307 * math.pi


def test_lyapunov_value_refuses_an_energy_that_overflows():
    # The integral over (0, l*pi) overflows; then gamma*r does, times 0.
    grid = Grid(16, l=5e307)
    ones = np.ones(grid.points)
    with pytest.raises(NumericalError, match="energy functional overflows"):
        lyapunov_value(ones, 2.0 * ones,
                       ModelParams(r=2.0, alpha=0.1, gamma=0.5), grid)
    with pytest.raises(NumericalError, match="energy functional overflows"):
        lyapunov_value(ones[:1], ones[:1],
                       ModelParams(r=2.0, alpha=0.1, gamma=1.7e308), None)


def test_step_size_snaps_to_divide_the_delay():
    p = _with_tau(2.0)
    traj = simulate_ode(p, 0.2, 0.5, t_end=1.0, dt=0.03)
    ratio = p.tau / traj.dt
    assert ratio == pytest.approx(round(ratio), abs=1e-12)
    assert traj.dt <= 0.03 + 1e-15


def test_equilibria_are_preserved_to_machine_precision():
    p = _with_tau(2.0)
    eq = positive_equilibrium(p)
    grid = Grid(32)

    def flat_history(x, t):
        return np.full_like(x, eq.m), np.full_like(x, eq.a)

    traj = simulate_pde(p, flat_history, grid, t_end=100.0, dt=0.01)
    dev_m = max(float(np.max(np.abs(f - eq.m))) for f in traj.fields_m)
    dev_a = max(float(np.max(np.abs(f - eq.a))) for f in traj.fields_a)
    assert dev_m < 1e-9
    assert dev_a < 1e-9


def test_flat_spatial_data_reproduces_the_ode_path():
    p = _with_tau(3.6)
    eq = positive_equilibrium(p)
    grid = Grid(16)

    def flat_history(x, t):
        return (np.full_like(x, eq.m * 1.05), np.full_like(x, eq.a))

    pde = simulate_pde(p, flat_history, grid, t_end=50.0, dt=0.01)
    ode = simulate_ode(p, eq.m * 1.05, eq.a, t_end=50.0, dt=0.01)
    assert len(pde.times) == len(ode.times)
    gap = 0.0
    for k in range(len(pde.times)):
        gap = max(gap, float(np.max(np.abs(pde.fields_m[k]
                                           - ode.fields_m[k][0]))))
    assert gap < 1e-9


def test_time_stepping_is_second_order():
    p = _with_tau(2.0)
    eq = positive_equilibrium(p)

    def final_m(dt: float) -> float:
        traj = simulate_ode(p, eq.m * 1.3, eq.a * 0.9, t_end=5.0, dt=dt)
        return float(traj.fields_m[-1][0])

    reference = final_m(0.000625)
    err_coarse = abs(final_m(0.01) - reference)
    err_fine = abs(final_m(0.005) - reference)
    assert err_coarse / err_fine > 3.0


def test_spatial_discretization_is_second_order():
    p = _with_tau(0.0)

    def final_profile(n: int) -> np.ndarray:
        traj = simulate_pde(p, _cosine_history(p), Grid(n), t_end=2.0,
                            dt=0.002)
        return traj.fields_m[-1]

    reference = final_profile(256)
    err = {}
    for n in (32, 64):
        stride = 256 // n
        err[n] = float(np.max(np.abs(final_profile(n) - reference[::stride])))
    assert err[32] / err[64] > 3.0


def test_orbit_detector_on_synthetic_signal():
    times = np.arange(0.0, 400.0, 0.05)
    sig = 0.5 + 0.2 * np.sin(2.0 * math.pi * times / 19.3)
    fields = sig.reshape(-1, 1)
    flat = np.full_like(fields, 0.5)
    traj = Trajectory(times=times, fields_m=fields, fields_a=flat, dt=0.05)
    summary = detect_orbit(traj, transient_fraction=0.25)
    assert summary.is_periodic
    assert summary.period == pytest.approx(19.3, abs=0.1)
    assert summary.amplitude_m[0] == pytest.approx(0.3, abs=1e-3)
    assert summary.amplitude_m[1] == pytest.approx(0.7, abs=1e-3)


def test_orbit_detector_rejects_decaying_signal():
    times = np.arange(0.0, 400.0, 0.05)
    sig = 0.5 + 0.2 * np.exp(-0.01 * times) \
        * np.sin(2.0 * math.pi * times / 19.3)
    fields = sig.reshape(-1, 1)
    traj = Trajectory(times=times, fields_m=fields,
                      fields_a=np.full_like(fields, 0.5), dt=0.05)
    assert not detect_orbit(traj, transient_fraction=0.25).is_periodic


def _masked_detect_orbit(traj: Trajectory,
                         transient_fraction: float) -> OrbitSummary:
    """detect_orbit on boolean-mask copies of the post-transient frames,
    with one std over all of them: the reference for the in-place form."""
    keep = traj.times >= traj.times[-1] * transient_fraction
    m_fields, a_fields = traj.fields_m[keep], traj.fields_a[keep]
    m_sig, a_sig = m_fields.mean(axis=1), a_fields.mean(axis=1)
    is_periodic, period = _signal_stats(m_sig, traj.times[keep])
    inhomogeneity = 0.0
    if m_fields.shape[1] > 1:
        inhomogeneity = float(np.max(m_fields.std(axis=1)
                                     / np.maximum(np.abs(m_sig), 1e-300)))
    return OrbitSummary(is_periodic, period,
                        (float(np.min(m_sig)), float(np.max(m_sig))),
                        (float(np.min(a_sig)), float(np.max(a_sig))),
                        inhomogeneity)


@pytest.mark.parametrize("case", ["pde-periodic", "pde-decaying", "ode"])
def test_orbit_detector_matches_the_masked_reference(case):
    # A PDE run stores 6001 frames of 33 points: the spread is taken
    # over four blocks.
    p = _with_tau(2.0 if case == "pde-decaying" else 3.6)
    if case == "ode":
        eq = positive_equilibrium(p)
        traj = simulate_ode(p, eq.m * 1.05, eq.a, t_end=600.0, dt=0.05)
    else:
        traj = simulate_pde(p, _cosine_history(p), Grid(32), t_end=600.0,
                            dt=0.1)
    for fraction in (0.0, 0.37, 0.5, 0.6):
        assert (detect_orbit(traj, fraction)
                == _masked_detect_orbit(traj, fraction)), fraction
    assert detect_orbit(traj, 0.5).is_periodic == (case != "pde-decaying")


def _reference_signal_stats(sig, times):
    """_signal_stats with its peaks refined one at a time, as a scalar
    loop with its own end-sample guards: the reference for the array
    form."""
    span = float(np.max(sig) - np.min(sig))
    if span <= _DETECTION_FLOOR or len(sig) < 8:
        return False, None
    idx = _find_peaks(sig, max(_DETECTION_FLOOR, 0.02 * span))
    if len(idx) < 5:
        return False, None
    peak_times = []
    peak_values = []
    for i in idx:
        if 0 < i < len(sig) - 1:
            y0, y1, y2 = sig[i - 1], sig[i], sig[i + 1]
            denom = y0 - 2.0 * y1 + y2
            offset = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
            dt_s = times[i + 1] - times[i] if i + 1 < len(times) else 0.0
            peak_times.append(times[i] + offset * dt_s)
            peak_values.append(y1 - 0.25 * (y0 - y2) * offset)
    if len(peak_times) < 5:
        return False, None
    intervals = np.diff(peak_times)
    mean_iv = float(np.mean(intervals))
    if mean_iv <= 0:
        return False, None
    cv = float(np.std(intervals)) / mean_iv
    quarter = max(2, len(peak_values) // 4)
    early = np.asarray(peak_values[:quarter])
    late = np.asarray(peak_values[-quarter:])
    base = float(np.min(sig))
    early_amp = float(np.mean(early)) - base
    late_amp = float(np.mean(late)) - base
    sustained = early_amp <= 0 or late_amp / early_amp >= _SUSTAIN_RATIO_MIN
    if cv < _INTERVAL_CV_MAX and sustained:
        return True, mean_iv
    return False, None


def test_signal_stats_matches_the_per_peak_reference():
    rng = np.random.default_rng(20261018)
    periodic = flat_tops = few_peaks = 0
    for k in range(600):
        n = int(rng.integers(8, 1500))
        if k % 2:
            times = np.cumsum(rng.uniform(0.02, 0.08, n))
        else:
            times = np.arange(n) * 0.05
        decay = 0.0 if k % 4 < 2 else rng.uniform(0.0, 0.02)
        sig = 0.5 + 0.2 * np.exp(-decay * times) * np.sin(
            2.0 * math.pi * times * rng.uniform(1.0, 40.0) / times[-1]
            + rng.uniform(0.0, 2.0 * math.pi))
        sig = sig + rng.normal(0.0, rng.choice([0.0, 1e-4, 1e-2]), n)
        if k % 3 == 0:
            sig = np.round(sig, int(rng.integers(1, 4)))
        got = _signal_stats(sig, times)
        want = _reference_signal_stats(sig, times)
        # Periods are positive and finite, so == compares them bit for bit.
        assert got == want, k
        periodic += got[0]
        span = float(np.max(sig) - np.min(sig))
        idx = _find_peaks(sig, max(_DETECTION_FLOOR, 0.02 * span))
        few_peaks += len(idx) < 5
        flat_tops += bool(np.any(sig[idx - 1] - 2.0 * sig[idx]
                                 + sig[idx + 1] == 0.0))
    # Every branch is exercised: 296 periodic, 114 with a flat top
    # (denominator 0), 34 with fewer than five peaks.
    assert periodic >= 100 and flat_tops >= 50 and few_peaks >= 25


def test_delay_dichotomy_decay_below_onset_oscillation_above():
    for tau in (0.0, 1.0, 2.0):
        p = _with_tau(tau)
        eq = positive_equilibrium(p)
        traj = simulate_ode(p, eq.m * 1.05, eq.a, t_end=400.0, dt=0.01)
        final = abs(float(traj.fields_m[-1][0]) - eq.m)
        assert final < 1e-4, f"tau={tau} should decay, deviation {final}"
        assert not detect_orbit(traj, 0.5).is_periodic
    for tau in (3.0, 3.6):
        p = _with_tau(tau)
        eq = positive_equilibrium(p)
        traj = simulate_ode(p, eq.m * 1.05, eq.a, t_end=600.0, dt=0.01)
        summary = detect_orbit(traj, 0.5)
        assert summary.is_periodic, f"tau={tau} should oscillate"


def test_orbit_period_far_from_onset():
    p = _with_tau(3.6)
    eq = positive_equilibrium(p)
    traj = simulate_ode(p, eq.m * 1.05, eq.a, t_end=600.0, dt=0.01)
    summary = detect_orbit(traj, 0.5)
    assert summary.is_periodic
    assert summary.period == pytest.approx(LARGE_DELAY_PERIOD, abs=0.05)


def test_measured_period_drift_matches_normal_form_prediction():
    # Near onset the orbit period obeys
    #   T(tau) = 2 pi / omega + (2 pi / omega)(1/tau* + t2/mu2)(tau - tau*),
    # so the sign and rate of the drift test mu2 and t2 together.
    hc = hopf_coefficients(REFERENCE)
    tau = 2.5
    predicted = (2.0 * math.pi / REF_OMEGA) \
        * (1.0 + (1.0 / REF_TAU + hc.t2 / hc.mu2) * (tau - REF_TAU))
    p = _with_tau(tau)
    eq = positive_equilibrium(p)
    traj = simulate_ode(p, eq.m * 1.05, eq.a, t_end=1600.0, dt=0.02)
    summary = detect_orbit(traj, 0.6)
    assert summary.is_periodic
    assert summary.period == pytest.approx(predicted, abs=0.15)
    # The orbit amplitude follows the square-root law with the frozen
    # modulus |2 Re c1 / beta-slope| baked into mu2.
    half_range = 0.5 * (summary.amplitude_m[1] - summary.amplitude_m[0])
    scale = math.sqrt((tau - REF_TAU) / hc.mu2)
    assert half_range == pytest.approx(2.0 * scale
                                       / math.sqrt(math.pi), rel=0.15)


def test_lyapunov_value_properties():
    p = ModelParams(r=0.4, alpha=0.5, gamma=0.5, d=1.0)
    grid = Grid(32)
    x = grid.x()
    # zero exactly at the mussel-free state
    zero = lyapunov_value(np.zeros_like(x), np.ones_like(x), p, grid)
    assert zero == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(515)
    frames = [(rng.uniform(0.0, 2.0, x.shape), rng.uniform(0.1, 1.8, x.shape))
              for _ in range(10)]
    for m, a in frames:
        assert lyapunov_value(m, a, p, grid) >= 0.0
    # A stack of frames gives each frame's energy, bit for bit.
    m, a = (np.array(stack) for stack in zip(*frames))
    assert lyapunov_value(m, a, p, grid).tolist() \
        == [lyapunov_value(mk, ak, p, grid) for mk, ak in frames]
    # The homogeneous reduction (grid None): the one point's integrand.
    want = [p.gamma * p.r * (ak - 1.0 - math.log(ak)) + mk
            for mk, ak in zip(m[:, 0].tolist(), a[:, 0].tolist())]
    assert lyapunov_value(m[:, :1], a[:, :1], p, None).tolist() \
        == pytest.approx(want, rel=1e-15)
    with pytest.raises(NumericalError):
        lyapunov_value(np.ones_like(x), np.zeros_like(x), p, grid)
    a[3, 7] = 0.0
    with pytest.raises(NumericalError):
        lyapunov_value(m, a, p, grid)


def test_negative_state_raises_numerical_error():
    p = _with_tau(0.0)
    with pytest.raises(NumericalError):
        simulate_ode(p, -1e-3, 1.0, t_end=10.0, dt=0.01)


def test_blowup_raises_numerical_error():
    p = _with_tau(0.0)
    with pytest.raises(NumericalError):
        simulate_ode(p, 5e5, 1.0, t_end=50.0, dt=0.01)


def test_run_that_cannot_fit_is_refused_before_it_starts():
    p = _with_tau(0.0)
    with pytest.raises(ValueError, match="GiB of delay history"):
        simulate_ode(p, 0.1, 0.5, t_end=1e9, dt=0.01)
    with pytest.raises(ValueError, match="GiB"):
        amplitude_sweep(ModelParams(r=2.0, alpha=0.45, gamma=8.0),
                        [0.5, 1.2, 1.4], t_end=1e9)


def test_domain_length_mismatch_is_rejected():
    p = ModelParams(r=2.0, alpha=0.1, gamma=0.5, l=2.0)
    with pytest.raises(ValueError):
        simulate_pde(p, _cosine_history(p), Grid(32, l=1.0), t_end=1.0,
                     dt=0.01)


def test_sweep_isolates_failures_per_point():
    base = ModelParams(r=2.0, alpha=0.45, gamma=8.0)
    table = amplitude_sweep(base, [0.5, 1.4], t_end=200.0, dt=0.02)
    assert table[0].summary is None
    assert "HypothesisError" in table[0].error
    assert table[1].summary is not None
    assert table[1].error is None


def test_first_delay_matches_dynamics_onset():
    # Integrate just below and just above the first critical delay: decay
    # on one side, growth on the other.
    ts = tau_star(REFERENCE)
    eq = positive_equilibrium(REFERENCE)
    below = ModelParams(r=2.0, alpha=0.10, gamma=0.5, tau=ts.tau - 0.15)
    above = ModelParams(r=2.0, alpha=0.10, gamma=0.5, tau=ts.tau + 0.15)
    kick = 1e-3
    dev = {}
    for tag, p in (("below", below), ("above", above)):
        traj = simulate_ode(p, eq.m * (1.0 + kick), eq.a, t_end=900.0,
                            dt=0.02)
        half = len(traj.times) // 2
        late = traj.fields_m[half:, 0]
        dev[tag] = float(np.max(np.abs(late - eq.m)))
    assert dev["below"] < kick * eq.m
    assert dev["above"] > 10.0 * kick * eq.m
