"""Consistency between the closed-form analysis and its numerical oracles.

Each oracle rebuilds its target from the raw model definition (dense
discretized operators, complex Newton continuation, direct sign scans),
so agreement here validates both routes at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from musselbed import (Grid, ModelParams, NumericalError, char_residual,
                       eigenpair, eigenvalues_no_delay, hypothesis_h1,
                       tau_star, turing_analysis)
from musselbed.verify import (_raw_kinetics_jacobian,
                              bilinear_pairing_quadrature, discrete_spectrum,
                              grid_classify, newton_track_root)

from draws import admissible_draws

REFERENCE = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0)
REF_TAU = 2.35445346214238


def _worst_spectrum_mismatch(p: ModelParams, n_grid: int,
                             modes: int = 5) -> float:
    spectrum = discrete_spectrum(p, Grid(n_grid, p.l), 3 * modes)
    worst = 0.0
    for n in range(modes):
        for lam in eigenvalues_no_delay(p, n):
            nearest = min(spectrum, key=lambda z: abs(z - lam))
            worst = max(worst,
                        abs(nearest - lam) / max(abs(lam), 1e-12))
    return worst


def test_discretized_operator_matches_closed_form_spectrum():
    assert _worst_spectrum_mismatch(REFERENCE, 200) < 1e-3


def test_spectrum_mismatch_refines_at_second_order():
    coarse = _worst_spectrum_mismatch(REFERENCE, 100)
    fine = _worst_spectrum_mismatch(REFERENCE, 200)
    assert coarse / fine > 3.0


def test_root_track_starts_from_the_delay_free_quadratic():
    track = newton_track_root(REFERENCE, 0, 0.0, 1.0, 10)
    roots = eigenvalues_no_delay(REFERENCE, 0)
    start = min(roots, key=lambda z: abs(z - track.roots[0]))
    assert abs(track.roots[0] - start) < 1e-10


def test_tracked_root_stays_on_the_characteristic_variety():
    track = newton_track_root(REFERENCE, 0, 0.0, 3.0, 40)
    assert all(track.converged)
    for tau, lam in zip(track.tau_values, track.roots):
        assert abs(char_residual(REFERENCE, 0, lam, tau)) < 1e-9


def test_tracked_crossing_matches_closed_form_delay():
    ts = tau_star(REFERENCE)
    track = newton_track_root(REFERENCE, 0, 0.0, ts.tau * 1.3, 60)
    assert track.crossing_tau is not None
    assert abs(track.crossing_tau - ts.tau) < 1e-6
    assert ts.tau == pytest.approx(REF_TAU, abs=1e-9)


def test_track_without_crossing_reports_none():
    track = newton_track_root(REFERENCE, 0, 0.0, REF_TAU * 0.8, 30)
    assert track.crossing_tau is None
    assert all(lam.real < 0.0 for lam in track.roots)


def test_track_validates_step_count():
    with pytest.raises(ValueError):
        newton_track_root(REFERENCE, 0, 0.0, 1.0, 0)


@pytest.fixture(scope="module")
def draw_tracks():
    """(p, tau_star, track over [0, 1.3 tau*]) at each admissible draw."""
    return [(p, ts, newton_track_root(p, ts.n0, 0.0, ts.tau * 1.3, 60))
            for p, ts in admissible_draws()]


def test_tracked_crossing_matches_tau_star_or_is_withheld_on_the_draws(
        draw_tracks):
    # The tracker used to overflow at 121 of these points and find no
    # crossing at 56.  It now withholds only the two whose crossing its
    # float coefficients do not fix to 1e-8: tau* = 3.2e8, and tau* =
    # 6.3e5, set only to 1.2e-7 by its inputs (see the 50-digit test).
    passes = 0
    for p, ts, track in draw_tracks:
        if track.crossing_tau is not None:
            assert abs(track.crossing_tau - ts.tau) < 1e-6, p
            passes += 1
    assert len(draw_tracks) == 284
    assert passes == 282


def _mp_crossing_delay(p: ModelParams, n: int, omega: float,
                       tau: float) -> float:
    """Oracle: the delay of mode n's imaginary-axis root near (omega, tau),
    solved from the raw model definition at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        al, r, g, d, l = (mpmath.mpf(x) for x in (p.alpha, p.r, p.gamma,
                                                  p.d, p.l))
        m = al * (r - 1) / (1 - al * r)
        a = al / (al + m)
        j_mm = m / (1 + m) ** 2
        ksq = (n / l) ** 2
        t_n = al + m + (1 + g * d) * ksq
        m_n = -j_mm * (al + m + ksq) + r * m * a
        d_n = d * ksq * (al + m + ksq)

        def residual(w, t):
            lam = mpmath.mpc(0, w)
            value = (g * lam ** 2 + t_n * lam + d_n
                     + (-g * j_mm * lam + m_n) * mpmath.exp(-lam * t))
            return [value.real, value.imag]

        _, t = mpmath.findroot(residual, (mpmath.mpf(omega),
                                          mpmath.mpf(tau)))
        return float(t)


def test_reported_large_delay_crossings_match_a_50_digit_solve(draw_tracks):
    checked = 0
    for p, ts, track in draw_tracks:
        if ts.tau > 1e4 and track.crossing_tau is not None:
            exact = _mp_crossing_delay(p, ts.n0, ts.omega, ts.tau)
            assert abs(track.crossing_tau - exact) <= 1e-8, p
            checked += 1
    assert checked == 4


def test_track_follows_two_real_roots_into_a_complex_pair():
    # The rightmost roots are real at tau = 0 and merge into a complex
    # pair on the way to tau*: Newton from a real root stays real.
    p = ModelParams(r=1.937933, alpha=0.3984, gamma=0.509, d=0.790,
                    l=0.826)
    ts = tau_star(p)
    assert ts.tau == pytest.approx(21.48, abs=0.01)
    track = newton_track_root(p, ts.n0, 0.0, ts.tau * 1.3, 60)
    assert all(track.converged)
    assert track.roots[0].imag == 0.0 and track.roots[-1].imag > 0.0
    assert abs(track.crossing_tau - ts.tau) < 1e-10


def test_track_of_a_mode_whose_wavenumber_overflows_is_a_numerical_error():
    p = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0, l=1e-200)
    with pytest.raises(NumericalError, match="coefficients overflow"):
        newton_track_root(p, 1, 0.0, 1.0, 2)


def _pairing_node_loop(p, q1, q2, m_norm, omega, tau, n0,
                       conjugate_right=False):
    """The pairing quadrature as a loop over its nodes, one node at a
    time: the reference for the one-array pass."""
    _, _, j_mm, j_ma, _ = _raw_kinetics_jacobian(p)
    if conjugate_right:
        right0 = np.array([1.0, q1]).conjugate()
        phase = -1j * omega * tau
    else:
        right0 = np.array([1.0, q1], dtype=complex)
        phase = 1j * omega * tau
    left0 = m_norm * np.array([q2, 1.0], dtype=complex)
    head = left0 @ right0
    kernel = tau * np.array([[j_mm, j_ma], [0.0, 0.0]])
    xs = np.linspace(-1.0, 0.0, 4000)
    integrand = np.empty(4000, dtype=complex)
    for k, xi in enumerate(xs):
        left = left0 * np.exp(-1j * omega * tau * (xi + 1.0))
        right = right0 * np.exp(phase * xi)
        integrand[k] = left @ (kernel @ right)
    return head + np.trapezoid(integrand, xs)


@pytest.mark.parametrize("conjugate_right", [False, True])
def test_pairing_quadrature_matches_its_node_loop(draw_tracks,
                                                  conjugate_right):
    # Every eighth draw: the loop takes ~20 ms a call.
    for p, ts, _ in draw_tracks[::8]:
        ep = eigenpair(p, ts.n0, ts.omega, ts.tau)
        args = (p, ep.q1, ep.q2, ep.m_norm, ep.omega, ep.tau_star, ep.n0)
        fast = bilinear_pairing_quadrature(*args, conjugate_right)
        assert abs(fast - _pairing_node_loop(*args, conjugate_right)) <= 1e-15


def test_region_map_agrees_with_band_analysis():
    region = grid_classify((0.05, 0.6), (1.1, 3.0), 0.01, 0.5,
                           resolution=15)
    seen = set()
    for i, alpha in enumerate(region.alphas):
        for j, r in enumerate(region.rs):
            label = region.labels[i, j]
            seen.add(label)
            p_ok = 0.0 < alpha < 1.0 < r < 1.0 / alpha
            assert (label == "non-H1") == (not p_ok)
            if not p_ok or label == "hopf":
                continue
            q = ModelParams(r=float(r), alpha=float(alpha), gamma=0.5,
                            d=0.01)
            verdict = turing_analysis(q, strict=False).verdict
            if label == "T_b":
                assert verdict == "turing-unstable"
            else:
                assert verdict == "stable"
    assert "T_b" in seen
    assert "non-H1" in seen


def test_region_map_flags_oscillatory_cells():
    # At a large time-scale ratio the window between the two r-onset
    # values is homogeneous-oscillatory, not band-forming.
    region = grid_classify((0.44, 0.46), (1.2, 1.6), 1.0, 8.0,
                           resolution=5)
    assert np.all(region.labels == "hopf")


def test_region_map_validates_resolution():
    with pytest.raises(ValueError):
        grid_classify((0.1, 0.5), (1.1, 2.0), 1.0, 0.5, resolution=1)


def test_spectrum_oracle_respects_time_scaling():
    # Doubling gamma halves the algae-branch eigenvalues in the
    # discretized operator exactly as in the closed form.
    slow = ModelParams(r=2.0, alpha=0.10, gamma=1.0, d=1.0)
    worst = _worst_spectrum_mismatch(slow, 150)
    assert worst < 2e-3


@pytest.mark.parametrize("gamma, d", [(1e-320, 1.0), (0.5, 1.7e308)])
def test_spectrum_oracle_refuses_a_block_that_overflows(gamma, d):
    p = ModelParams(r=2.0, alpha=0.10, gamma=gamma, d=d)
    with pytest.raises(NumericalError, match="block of the operator"):
        discrete_spectrum(p, Grid(16), 4)


def test_hypothesis_filter_matches_label():
    region = grid_classify((0.2, 0.9), (0.5, 5.0), 1.0, 0.5, resolution=9)
    for i, alpha in enumerate(region.alphas):
        for j, r in enumerate(region.rs):
            try:
                ok = hypothesis_h1(ModelParams(r=float(r),
                                               alpha=float(alpha),
                                               gamma=0.5))
            except ValueError:
                ok = False
            assert (region.labels[i, j] == "non-H1") == (not ok)
