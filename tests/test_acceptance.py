"""End-to-end acceptance checks.

Each test pins one externally visible behavior of the package: reference
equilibrium values, the critical delay and its frequency, the normal-form
constants, the recruitment Hopf window, oracle/closed-form agreement,
long-horizon dynamics of the spatial model, boundedness and energy decay,
oscillation-window localization, and the cross-implementation property
suites.  A test collects its clauses and reports every violated one with
the measured and required values side by side.

Two clauses assert externally tabulated reference values (the imaginary
part of c1 and the orbit period implied by it) that disagree with every
independent re-derivation in this suite; they are kept faithful to the
tabulation and are expected to fail.  README.md documents the evidence.
"""

from __future__ import annotations

import numpy as np

from musselbed import (Grid, ModelParams, amplitude_sweep,
                       bilinear_pairing_quadrature, char_coeffs_no_delay,
                       char_residual, check_hypotheses, delay_char_coeffs,
                       detect_orbit, discrete_spectrum,
                       eigenpair, eigenvalues_no_delay, grid_classify,
                       hopf_coefficients, hopf_points_in_r, hypothesis_h1,
                       lyapunov_value, newton_track_root,
                       positive_equilibrium, simulate_ode, simulate_pde,
                       tau_star, turing_analysis)

REFERENCE = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0)

# 2 * pi / omega0 at the reference parameters: the linear-theory guess
# for the orbit period just past the critical delay.
LINEAR_PERIOD = 19.31263158758591

# Recruitment Hopf window endpoints at alpha = 0.45, gamma = 8.
R_LO = 1.08651100389
R_HI = 1.72860778192


def _check(failures: list[str], ok: bool, label: str, detail: str) -> None:
    if not ok:
        failures.append(f"{label}: {detail}")


def _assert_all(failures: list[str]) -> None:
    assert not failures, "\n" + "\n".join(failures)


def _cosine_history(m_center: float, a_center: float):
    def history(x: np.ndarray, t: float):
        bump = 0.1 * np.cos(2.0 * x)
        return m_center + bump, a_center - bump

    return history


def _final_deviation(traj, m_target: float, a_target: float) -> float:
    return max(float(np.max(np.abs(traj.fields_m[-1] - m_target))),
               float(np.max(np.abs(traj.fields_a[-1] - a_target))))


def _worst_spectrum_mismatch(p: ModelParams, n_grid: int,
                             modes: int) -> float:
    eigs = discrete_spectrum(p, Grid(n=n_grid, l=p.l), 3 * modes)
    worst = 0.0
    for n in range(modes):
        for lam in eigenvalues_no_delay(p, n):
            err = min(abs(e - lam) for e in eigs) / abs(lam)
            worst = max(worst, err)
    return worst


def test_coexistence_equilibrium_reference_values():
    failures: list[str] = []
    eq = positive_equilibrium(REFERENCE)
    _check(failures, abs(eq.m - 0.1250) <= 1e-4, "equilibrium m",
           f"measured {eq.m:.6f}, required 0.1250 +/- 1e-4")
    _check(failures, abs(eq.a - 0.4444) <= 1e-4, "equilibrium a",
           f"measured {eq.a:.6f}, required 0.4444 +/- 1e-4")
    _assert_all(failures)


def test_first_critical_delay_frequency_and_crossing_modes():
    failures: list[str] = []
    ts = tau_star(REFERENCE)
    _check(failures, abs(ts.omega - 0.3253) <= 1e-3, "crossing frequency",
           f"measured {ts.omega:.6f}, required 0.3253 +/- 1e-3")
    _check(failures, abs(ts.tau - 2.3545) <= 1e-3, "critical delay",
           f"measured {ts.tau:.6f}, required 2.3545 +/- 1e-3")
    _check(failures, set(ts.s0) == {0}, "crossing mode set",
           f"measured {set(ts.s0)}, required {{0}}")
    _assert_all(failures)


def test_normal_form_constants_and_orbit_classification():
    failures: list[str] = []
    hc = hopf_coefficients(REFERENCE)
    re_ref, im_ref = -2.28261, -23.9865
    re_err = abs(hc.c1.real - re_ref) / abs(re_ref)
    im_err = abs(hc.c1.imag - im_ref) / abs(im_ref)
    _check(failures, re_err <= 0.01, "Re c1 vs tabulated value",
           f"measured {hc.c1.real:.6f}, required within 1% of {re_ref}"
           f" (relative error {100 * re_err:.2f}%)")
    _check(failures, im_err <= 0.01, "Im c1 vs tabulated value",
           f"measured {hc.c1.imag:.6f}, required within 1% of {im_ref}"
           f" (relative error {100 * im_err:.2f}%)")
    _check(failures, hc.beta2 < 0.0, "orbit stability coefficient",
           f"measured beta2 = {hc.beta2:.6f}, required < 0")
    _check(failures, hc.mu2 > 0.0, "bifurcation direction coefficient",
           f"measured mu2 = {hc.mu2:.6f}, required > 0")
    _check(failures, hc.direction == "forward", "direction verdict",
           f"measured {hc.direction!r}, required 'forward'")
    _check(failures, hc.orbit_stability == "stable", "stability verdict",
           f"measured {hc.orbit_stability!r}, required 'stable'")
    _assert_all(failures)


def test_recruitment_hopf_window_endpoints():
    failures: list[str] = []
    points = hopf_points_in_r(0.45, 8.0)
    _check(failures, len(points) == 2, "number of Hopf points",
           f"measured {len(points)}, required 2")
    if len(points) == 2:
        _check(failures, abs(points[0].r - 1.0865) <= 1e-3,
               "lower Hopf point",
               f"measured {points[0].r:.6f}, required 1.0865 +/- 1e-3")
        _check(failures, abs(points[1].r - 1.7286) <= 1e-3,
               "upper Hopf point",
               f"measured {points[1].r:.6f}, required 1.7286 +/- 1e-3")
    _assert_all(failures)


def test_independent_oracles_match_closed_forms():
    failures: list[str] = []
    ts = tau_star(REFERENCE)
    track = newton_track_root(REFERENCE, 0, 0.0, 3.0, 40)
    _check(failures, track.crossing_tau is not None,
           "Newton-tracked crossing", "no sign change found on [0, 3]")
    if track.crossing_tau is not None:
        gap = abs(track.crossing_tau - ts.tau)
        _check(failures, gap <= 1e-6, "Newton crossing vs closed form",
               f"measured gap {gap:.3e}, required <= 1e-6")
    coarse = _worst_spectrum_mismatch(REFERENCE, 100, modes=5)
    fine = _worst_spectrum_mismatch(REFERENCE, 200, modes=5)
    _check(failures, fine <= 1e-3, "discretized spectrum at N = 200",
           f"worst relative mismatch {fine:.3e}, required <= 1e-3")
    _check(failures, coarse / fine > 3.0, "second-order refinement",
           f"mismatch ratio N=100/N=200 is {coarse / fine:.2f},"
           " required > 3")
    _assert_all(failures)


def test_delay_dichotomy_of_spatial_dynamics():
    failures: list[str] = []
    eq = positive_equilibrium(REFERENCE)
    grid = Grid(n=128)
    history = _cosine_history(eq.m, eq.a)

    p_low = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0, tau=2.0)
    settled = simulate_pde(p_low, history, grid, t_end=600.0, dt=0.01,
                           store_every=25)
    dev = _final_deviation(settled, eq.m, eq.a)
    _check(failures, dev < 1e-3, "convergence below the critical delay",
           f"final deviation from the coexistence state {dev:.3e},"
           " required < 1e-3")

    p_high = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0, tau=3.6)
    oscillating = simulate_pde(p_high, history, grid, t_end=600.0,
                               dt=0.01, store_every=25)
    summary = detect_orbit(oscillating)
    _check(failures, summary.is_periodic,
           "periodic orbit above the critical delay",
           "no sustained oscillation detected")
    _check(failures, summary.spatial_inhomogeneity < 1e-3,
           "spatial homogeneity of the orbit",
           f"measured inhomogeneity {summary.spatial_inhomogeneity:.3e},"
           " required < 1e-3")
    if summary.period is not None:
        period_err = abs(summary.period - LINEAR_PERIOD) / LINEAR_PERIOD
        _check(failures, period_err <= 0.15,
               "orbit period vs linear-theory value",
               f"measured period {summary.period:.4f}, required within"
               f" 15% of {LINEAR_PERIOD:.4f}"
               f" (relative error {100 * period_err:.1f}%)")
    _assert_all(failures)


def test_low_recruitment_convergence_to_bare_state():
    failures: list[str] = []
    p = ModelParams(r=0.5, alpha=0.10, gamma=0.5, d=1.0, tau=2.0)
    history = _cosine_history(0.1250, 4.0 / 9.0)
    traj = simulate_pde(p, history, Grid(n=128), t_end=200.0, dt=0.01,
                        store_every=25)
    dev = _final_deviation(traj, 0.0, 1.0)
    _check(failures, dev < 1e-3, "convergence to the bare-sediment state",
           f"final deviation from (0, 1) is {dev:.3e}, required < 1e-3")
    _assert_all(failures)


def test_population_boundedness_and_energy_decay():
    failures: list[str] = []

    p_ode = ModelParams(r=0.8, alpha=0.5, gamma=8.0)
    traj = simulate_ode(p_ode, 2.0, 0.9, t_end=600.0, dt=0.01,
                        store_every=10)
    late = traj.times >= 200.0
    m_sup = float(np.max(traj.fields_m[late]))
    _check(failures, m_sup <= 1.0 + 1e-3, "asymptotic mussel bound",
           f"measured late-time max m = {m_sup:.6f},"
           " required <= 1 + 1e-3")

    p_pde = ModelParams(r=0.4, alpha=0.5, gamma=0.5, d=1.0)
    grid = Grid(n=64)

    def history(x: np.ndarray, t: float):
        return 1.5 - 0.2 * np.cos(2.0 * x), 0.8 + 0.1 * np.cos(2.0 * x)

    run = simulate_pde(p_pde, history, grid, t_end=60.0, dt=0.01,
                       store_every=10)
    below_one = np.max(run.fields_m, axis=1) < 1.0
    _check(failures, bool(below_one.any()), "transient ends",
           "m never dropped below 1")
    if below_one.any():
        first = int(np.argmax(below_one))
        _check(failures, bool(below_one[first:].all()),
               "m stays below 1 after the transient",
               "m re-entered [1, inf) after first dropping below 1")
        values = [lyapunov_value(run.fields_m[k], run.fields_a[k],
                                 p_pde, grid)
                  for k in range(first, len(run.times))]
        worst_rise = float(np.max(np.diff(values)))
        _check(failures, worst_rise < 1e-6,
               "energy functional nonincreasing",
               f"largest increment {worst_rise:.3e}, required < 1e-6")
    _assert_all(failures)


def test_oscillation_window_localized_between_hopf_points():
    failures: list[str] = []
    r_values = [round(1.02 + 0.02 * i, 2) for i in range(10)]
    r_values += [1.30, 1.40, 1.50]
    r_values += [round(1.60 + 0.02 * i, 2) for i in range(11)]
    base = ModelParams(r=1.4, alpha=0.45, gamma=8.0)
    table = amplitude_sweep(base, r_values, t_end=3000.0, dt=0.02,
                            transient_fraction=0.6)
    for point in table:
        if point.error is not None:
            _check(failures, False, f"sweep point r = {point.r:g}",
                   f"failed with: {point.error}")
            continue
        periodic = point.summary.is_periodic
        if R_LO + 0.02 <= point.r <= R_HI - 0.02:
            _check(failures, periodic, f"inside window, r = {point.r:g}",
                   "expected a periodic orbit, found none")
        elif point.r <= R_LO - 0.02 or point.r >= R_HI + 0.02:
            _check(failures, not periodic,
                   f"outside window, r = {point.r:g}",
                   "expected decay, found a periodic orbit")
    _assert_all(failures)


def test_cross_implementation_property_suites():
    failures: list[str] = []
    rng = np.random.default_rng(20260816)

    def draw_params() -> ModelParams:
        alpha = float(rng.uniform(0.02, 0.7))
        r = float(rng.uniform(1.05, min(0.95 / alpha, 6.0)))
        return ModelParams(r=r, alpha=alpha,
                           gamma=float(rng.uniform(0.3, 10.0)),
                           d=float(10.0 ** rng.uniform(-3.0, 0.0)),
                           l=float(rng.uniform(0.5, 5.0)))

    # Delay-free reduction identities, 100 draws, modes 0..3.
    worst_identity = 0.0
    for _ in range(100):
        p = draw_params()
        for n in range(4):
            dc = delay_char_coeffs(p, n)
            nc = char_coeffs_no_delay(p, n)
            scale = max(1.0, abs(nc.t_tilde), abs(nc.d_tilde))
            worst_identity = max(
                worst_identity,
                abs(dc.t_n + dc.b - nc.t_tilde) / scale,
                abs(dc.d_n + dc.m_n - nc.d_tilde) / scale)
    _check(failures, worst_identity < 1e-10,
           "delay-free reduction identities",
           f"worst scaled residual {worst_identity:.3e},"
           " required < 1e-10")

    # Normalization invariant and crossing residuals on admissible draws.
    admissible: list[ModelParams] = []
    while len(admissible) < 15:
        p = draw_params()
        rep = check_hypotheses(p)
        if rep.h1 and rep.h2 and rep.h3:
            admissible.append(p)
    worst_norm = 0.0
    worst_residual = 0.0
    for p in admissible:
        ts = tau_star(p, j_max=2)
        ep = eigenpair(p, ts.n0, ts.omega, ts.tau)
        pairing = bilinear_pairing_quadrature(p, ep.q1, ep.q2, ep.m_norm,
                                              ts.omega, ts.tau, ts.n0)
        worst_norm = max(worst_norm, abs(pairing - 1.0))
        for hp in ts.crossings:
            if hp.n in ts.s0[:3]:
                worst_residual = max(
                    worst_residual,
                    abs(char_residual(p, hp.n, 1j * hp.omega, hp.tau_crit)))
    _check(failures, worst_norm < 1e-6, "pairing normalization",
           f"worst |(q*, q) - 1| = {worst_norm:.3e}, required < 1e-6")
    _check(failures, worst_residual < 1e-10,
           "critical-delay characteristic residuals",
           f"worst residual {worst_residual:.3e}, required < 1e-10")

    # Pattern-formation verdict vs the grid oracle, 100 draws.
    mismatches: list[str] = []
    count = 0
    while count < 100:
        p = draw_params()
        if not hypothesis_h1(p):
            continue
        count += 1
        verdict = turing_analysis(p, strict=False).verdict
        cell = grid_classify((p.alpha, p.alpha), (p.r, p.r), p.d,
                             p.gamma, resolution=2).labels[0, 0]
        expected = {"T_b": "turing-unstable",
                    "hopf": "hopf-unstable"}.get(cell, "stable")
        if verdict != expected:
            mismatches.append(
                f"(alpha={p.alpha:.4f}, r={p.r:.4f}, d={p.d:.4g},"
                f" gamma={p.gamma:.3f}): verdict {verdict!r}"
                f" vs grid label {cell!r}")
    _check(failures, not mismatches, "pattern verdict vs grid oracle",
           "; ".join(mismatches[:5]))
    _assert_all(failures)
