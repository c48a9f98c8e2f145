"""Delayed characteristic analysis: crossing frequencies, critical delays.

The delayed coefficients are tied to the delay-free ones through exact
reduction identities, every reported crossing is substituted back into
the transcendental characteristic function, and the eigenvalue slope is
checked against a finite difference of Newton-tracked roots.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from musselbed import (HypothesisError, ModelParams, NumericalError,
                       char_coeffs_no_delay, char_residual, check_hypotheses,
                       delay_char_coeffs, eigenvalue_slope, mode_ceiling,
                       tau_star)
from musselbed import delay as delay_mod
from musselbed.verify import _newton

REFERENCE = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0)
REF_OMEGA = 0.32534071178670415
REF_TAU = 2.35445346214238
REF_SLOPE = 0.03727081517272211 - 0.040231468467524976j


def _seeded_admissible_params(count: int, seed: int = 6004):
    """Draws satisfying every structural hypothesis, reproducibly."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        alpha = float(rng.uniform(0.05, 0.9))
        r = float(rng.uniform(1.0 + 0.02, 1.0 / alpha - 1e-9))
        p = ModelParams(r=r, alpha=alpha,
                        gamma=float(rng.uniform(0.1, 8.0)),
                        d=float(rng.uniform(0.01, 2.0)))
        report = check_hypotheses(p)
        if report.h1 and report.h2 and report.h3:
            out.append(p)
    return out


def test_delayed_coefficients_reduce_to_delay_free_ones():
    # Setting the delay to zero merges the exponential terms into the
    # quadratic: t_n + b and d_n + m_n must reproduce the delay-free
    # trace and determinant coefficients exactly.
    for p in _seeded_admissible_params(50):
        for n in range(0, 6):
            lag = delay_char_coeffs(p, n)
            free = char_coeffs_no_delay(p, n)
            assert lag.t_n + lag.b == pytest.approx(free.t_tilde, abs=1e-10)
            assert lag.d_n + lag.m_n == pytest.approx(free.d_tilde, abs=1e-10)


def test_flat_mode_has_no_diffusive_damping():
    for p in _seeded_admissible_params(10, seed=41):
        assert delay_char_coeffs(p, 0).d_n == 0.0


def test_reference_crossing_frequency_and_first_delay():
    ts = tau_star(REFERENCE)
    (flat,) = [hp for hp in ts.crossings if hp.n == 0]
    assert flat.omega == pytest.approx(REF_OMEGA, abs=1e-9)
    assert ts.tau == pytest.approx(REF_TAU, abs=1e-9)
    assert ts.n0 == 0
    assert ts.omega == pytest.approx(REF_OMEGA, abs=1e-9)
    assert ts.s0 == (0,)


def test_characteristic_residual_vanishes_at_reported_crossings():
    for p in _seeded_admissible_params(25, seed=77):
        for hp in tau_star(p, j_max=2).crossings:
            residual = char_residual(p, hp.n, 1j * hp.omega, hp.tau_crit)
            assert abs(residual) < 1e-10


def test_critical_delays_are_increasing_and_evenly_spaced():
    for p in _seeded_admissible_params(15, seed=13):
        ts = tau_star(p, j_max=3)
        for n in ts.s0:
            table = [hp for hp in ts.crossings if hp.n == n]
            assert len(table) == 4
            spacing = 2.0 * math.pi / table[0].omega
            for j in range(1, 4):
                assert table[j].j == j
                gap = table[j].tau_crit - table[j - 1].tau_crit
                assert gap == pytest.approx(spacing, rel=1e-9)


def test_transversality_is_positive_at_crossings():
    for p in _seeded_admissible_params(25, seed=310):
        for hp in tau_star(p).crossings:
            assert hp.transversality > 0.0


def test_first_delay_is_minimal_over_crossing_modes():
    for p in _seeded_admissible_params(15, seed=96):
        try:
            ts = tau_star(p)
        except HypothesisError:
            continue
        for first in ts.crossings:
            assert first.tau_crit >= ts.tau - 1e-12


def _scanned_mode_ceiling(p: ModelParams, n_cap: int = 10_000) -> int:
    """Reference for mode_ceiling: scan modes for the first d_n >= m_n."""
    for n in range(n_cap + 1):
        c = delay_char_coeffs(p, n)
        if c.d_n - c.m_n >= 0.0:
            return n
    raise NumericalError(f"no crossing-free mode found below n = {n_cap}")


def test_closed_form_mode_ceiling_equals_the_mode_scan():
    rng = np.random.default_rng(812)
    points = []
    for _ in range(300):
        alpha = float(rng.uniform(0.05, 0.9))
        points.append(ModelParams(
            r=float(rng.uniform(1.05, 1.0 / alpha - 1e-6)), alpha=alpha,
            gamma=float(rng.uniform(0.1, 5.0)),
            d=float(rng.uniform(0.01, 2.0)), l=float(rng.uniform(0.5, 2.0))))
    # The box corner with the most modes below the ceiling.
    points += [replace(q, d=0.01 + 1e-4 * k, l=2.0 - 1e-3 * k)
               for k, q in enumerate(points[:30])]
    for p in points:
        assert mode_ceiling(p) == _scanned_mode_ceiling(p)


def test_mode_ceiling_refuses_a_ceiling_past_the_cap():
    p = replace(REFERENCE, l=1e5)
    with pytest.raises(NumericalError):
        _scanned_mode_ceiling(p)
    with pytest.raises(NumericalError, match="below n = 10000"):
        mode_ceiling(p)


def test_modes_above_the_ceiling_admit_no_crossing():
    for p in _seeded_admissible_params(15, seed=55):
        ceiling = mode_ceiling(p)
        assert max(tau_star(p).s0) < ceiling
        for n in range(ceiling, ceiling + 4):
            assert delay_mod._crossing(p, n) is None


def test_modes_whose_wave_number_overflows_admit_no_crossing():
    # (n/l)**2 is inf for every n >= 1: d_n - m_n is +inf and the gap
    # (d_n - m_n)(d_n + m_n) is inf * nan.
    p = replace(REFERENCE, l=1e-160)
    assert delay_mod._crossing(p, 1) is None
    ts = tau_star(p, j_max=1)
    assert ts.s0 == (0,)
    assert all(math.isfinite(hp.omega) and math.isfinite(hp.tau_crit)
               for hp in ts.crossings)


def test_crossing_refuses_a_nan_coefficient(monkeypatch):
    def coeffs(p, n):
        return delay_mod.SpectralCoeffsDelay(n, 1.0, math.nan, math.nan,
                                             0.0, 1.0)

    monkeypatch.setattr(delay_mod, "delay_char_coeffs", coeffs)
    with pytest.raises(NumericalError, match="d_n - m_n is not a number"):
        delay_mod._crossing(REFERENCE, 1)


def test_eigenvalue_slope_matches_tracked_root_difference():
    # Finite-difference oracle: Newton-converge the crossing root at
    # tau* +/- h and difference the results.
    h = 1e-6
    lam0 = 1j * REF_OMEGA
    lam_plus = _newton(REFERENCE, 0, lam0, REF_TAU + h)
    lam_minus = _newton(REFERENCE, 0, lam0, REF_TAU - h)
    assert lam_plus is not None and lam_minus is not None
    fd = (lam_plus - lam_minus) / (2.0 * h)
    slope = eigenvalue_slope(REFERENCE, 0, lam0, REF_TAU)
    assert slope.real == pytest.approx(fd.real, abs=1e-7)
    assert slope.imag == pytest.approx(fd.imag, abs=1e-7)
    assert slope.real == pytest.approx(REF_SLOPE.real, abs=1e-9)
    assert slope.imag == pytest.approx(REF_SLOPE.imag, abs=1e-9)


def test_first_delay_requires_hypotheses():
    with pytest.raises(HypothesisError):
        tau_star(ModelParams(r=0.5, alpha=0.10, gamma=0.5))


def _mp_crossing_frequency(p: ModelParams, n: int) -> float:
    """Oracle: mode n's crossing frequency from the raw model definition,
    in the textbook root formula at 50 digits, where its cancellation
    still leaves far more digits than a float holds."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r, al, g, d, l = (mpmath.mpf(x) for x in (p.r, p.alpha, p.gamma,
                                                  p.d, p.l))
        m = al * (r - 1) / (1 - al * r)
        a = (1 - al * r) / (r * (1 - al))
        ksq = (n / l) ** 2
        t_n = al + m + (1 + g * d) * ksq
        m_n = r * a * m * (1 - al * r - r * a * ksq)
        d_n = d * (al + m + ksq) * ksq
        b = -g * r ** 2 * a ** 2 * m
        big_t = t_n ** 2 - 2 * g * d_n - b ** 2
        gap = d_n ** 2 - m_n ** 2
        z = (-big_t + mpmath.sqrt(big_t ** 2 - 4 * g ** 2 * gap)) / (2 * g ** 2)
        return float(mpmath.sqrt(z))


# Mode 0 crosses at a frequency of order 1e-6 and 1e-8: d_n^2 - m_n^2 is
# tiny against the quartic's middle coefficient.
TINY_GAP = ModelParams(r=1.61404, alpha=0.618926, gamma=0.795208, d=1.48306,
                       l=0.739833)
TINIER_GAP = ModelParams(r=1.2468, alpha=0.80201, gamma=0.80382, d=1.0792,
                         l=1.8218)


def test_crossing_frequency_matches_extended_precision():
    points = [TINY_GAP, REFERENCE]
    points += _seeded_admissible_params(10, seed=5150)
    for p in points:
        for hp in tau_star(p).crossings:
            assert hp.omega == pytest.approx(_mp_crossing_frequency(p, hp.n),
                                             rel=1e-12, abs=0.0)


def test_first_delay_exists_at_a_tiny_crossing_frequency():
    ts = tau_star(TINIER_GAP)
    assert ts.n0 == 0
    assert ts.omega == pytest.approx(1.46877e-8, rel=1e-5)
    assert ts.tau == pytest.approx(1.06946e8, rel=1e-5)
    # 1 - alpha*r is 5e-5 here, so rounding the inputs alone moves omega
    # by a few 1e-12.
    assert ts.omega == pytest.approx(_mp_crossing_frequency(TINIER_GAP, 0),
                                     rel=1e-10, abs=0.0)
    assert abs(char_residual(TINIER_GAP, 0, 1j * ts.omega, ts.tau)) < 1e-10


def test_tau_star_keeps_every_requested_critical_delay():
    p = replace(REFERENCE, d=0.05, l=3.0)
    ts = tau_star(p, j_max=2)
    assert ts.s0 == (0, 1, 2)
    assert [(hp.n, hp.j) for hp in ts.crossings] \
        == [(n, j) for n in ts.s0 for j in range(3)]
    first = tau_star(p)
    assert first.crossings == tuple(hp for hp in ts.crossings if hp.j == 0)
    assert (first.tau, first.n0, first.omega) == (ts.tau, ts.n0, ts.omega)


def test_tau_star_builds_each_scanned_mode_once(monkeypatch):
    p = replace(REFERENCE, d=0.05, l=3.0)
    ceiling = mode_ceiling(p)
    calls = []
    original = delay_mod.delay_char_coeffs

    def counting(q, n):
        calls.append(n)
        return original(q, n)

    monkeypatch.setattr(delay_mod, "delay_char_coeffs", counting)
    tau_star(p, j_max=3)
    # mode_ceiling reads its constant term from mode 0's coefficients.
    assert calls == [0, *range(ceiling + 1)]
