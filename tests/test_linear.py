"""Delay-free spectral analysis: mode quadratics, Hopf-in-r, pattern onset.

The Hopf window in r is cross-checked against the real roots of an
independently assembled cubic polynomial, and the band classification
against a brute-force scan of the mode determinant.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from musselbed import (HypothesisError, ModelParams, boundary_stability,
                       char_coeffs_no_delay, eigenvalues_no_delay,
                       hopf_points_in_r, positive_equilibrium, r_star,
                       TuringCurvePoint, turing_analysis, turing_curve)
from musselbed.linear import (_EDGE, _SCAN_POINTS, _detcoeffs, _r_window,
                              _scan_roots)


def _seeded_admissible_params(count: int, seed: int = 1523):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        alpha = float(rng.uniform(0.05, 0.9))
        r = float(rng.uniform(1.0 + 0.02, 1.0 / alpha - 1e-9))
        out.append(ModelParams(r=r, alpha=alpha,
                               gamma=float(rng.uniform(0.1, 8.0)),
                               d=float(rng.uniform(0.01, 2.0))))
    return out


def test_mode_eigenvalues_satisfy_their_quadratic():
    for p in _seeded_admissible_params(25):
        for n in range(0, 6):
            c = char_coeffs_no_delay(p, n)
            for lam in eigenvalues_no_delay(p, n):
                residual = p.gamma * lam * lam + c.t_tilde * lam + c.d_tilde
                assert abs(residual) < 1e-9 * max(1.0, abs(lam) ** 2)


def test_mode_coefficients_are_even_in_the_wave_number():
    # Coefficients depend on n only through (n/l)^2.
    p = ModelParams(r=2.0, alpha=0.1, gamma=0.5, d=1.0, l=2.0)
    a = char_coeffs_no_delay(p, 2)
    b = char_coeffs_no_delay(replace_l(p, 1.0), 1)
    assert a.t_tilde == pytest.approx(b.t_tilde, rel=1e-14)
    assert a.d_tilde == pytest.approx(b.d_tilde, rel=1e-14)


def replace_l(p: ModelParams, l: float) -> ModelParams:
    return ModelParams(r=p.r, alpha=p.alpha, gamma=p.gamma, d=p.d,
                       tau=p.tau, l=l)


def test_crossing_direction_boundary_value():
    assert r_star(0.1) == pytest.approx(2.5, abs=1e-12)
    with pytest.raises(HypothesisError):
        r_star(1.5)


def test_hopf_window_matches_reference_anchors():
    points = hopf_points_in_r(0.45, 8.0)
    assert len(points) == 2
    assert points[0].r == pytest.approx(1.0865, abs=1e-3)
    assert points[1].r == pytest.approx(1.7286, abs=1e-3)
    assert points[0].transversality_sign == 1
    assert points[1].transversality_sign == -1


def test_hopf_window_matches_cubic_polynomial_roots():
    # delta0(r)^2 = rho0(r) clears denominators to the cubic
    # gamma*(r-1)*(1-alpha*r)^2 - r*(1-alpha)^3 = 0; its real roots in
    # (1, 1/alpha) are an independent oracle for the window edges.
    rng = np.random.default_rng(7211)
    checked = 0
    while checked < 12:
        alpha = float(rng.uniform(0.05, 0.9))
        gamma = float(rng.uniform(0.2, 12.0))
        lin = np.polynomial.polynomial.Polynomial([1.0, -alpha])
        factor = np.polynomial.polynomial.Polynomial([-1.0, 1.0])
        cubic = gamma * factor * lin * lin \
            - (1.0 - alpha) ** 3 * np.polynomial.polynomial.Polynomial([0.0, 1.0])
        roots = [float(z.real) for z in cubic.roots()
                 if abs(z.imag) < 1e-10 and 1.0 < z.real < 1.0 / alpha]
        expected = sorted(root for root in roots
                          if abs(root - r_star(alpha)) > 1e-9)
        got = [pt.r for pt in hopf_points_in_r(alpha, gamma)]
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-9)
        checked += 1


def test_crossing_signs_split_at_the_direction_boundary():
    for alpha, gamma in ((0.45, 8.0), (0.3, 5.0), (0.2, 10.0)):
        boundary = r_star(alpha)
        for pt in hopf_points_in_r(alpha, gamma):
            expected = 1 if pt.r < boundary else -1
            assert pt.transversality_sign == expected


def test_mussel_free_state_verdicts():
    assert boundary_stability(ModelParams(r=0.5, alpha=0.1, gamma=0.5)) \
        == "stable"
    assert boundary_stability(ModelParams(r=2.0, alpha=0.1, gamma=0.5)) \
        == "unstable"
    assert boundary_stability(ModelParams(r=1.0, alpha=0.1, gamma=0.5)) \
        == "marginal"


def _scanned_boundary_stability(p: ModelParams, n_max: int = 20) -> str:
    """Reference for boundary_stability: the rightmost eigenvalue over a
    scan of modes 0..n_max."""
    rightmost = max(
        max(p.r - 1.0 - p.d * p.wavenumber_sq(n),
            -(p.alpha + p.wavenumber_sq(n)) / p.gamma)
        for n in range(n_max + 1))
    if rightmost > 0.0:
        return "unstable"
    return "marginal" if rightmost == 0.0 else "stable"


def test_mussel_free_verdict_equals_the_mode_scan():
    rng = np.random.default_rng(3301)
    points = [ModelParams(r=float(rng.uniform(0.1, 4.0)),
                          alpha=float(rng.uniform(0.05, 0.95)),
                          gamma=float(rng.uniform(0.1, 8.0)),
                          d=float(rng.uniform(0.01, 2.0)),
                          l=float(rng.uniform(0.05, 50.0)))
              for _ in range(300)]
    points += [replace(q, r=1.0) for q in points[:30]]
    verdicts = {boundary_stability(p) for p in points}
    assert verdicts == {"stable", "marginal", "unstable"}
    for p in points:
        assert boundary_stability(p) == _scanned_boundary_stability(p)


def test_sign_scan_counts_each_exact_grid_zero_once():
    lo, hi = 1.0, 3.0
    step = (hi - lo) / _SCAN_POINTS
    x0 = lo + 4321 * step     # a grid point, bit for bit
    last = lo + _SCAN_POINTS * step
    assert _scan_roots(lambda x: x - x0, lo, hi) == [x0]
    assert _scan_roots(lambda x: (x - x0) ** 2, lo, hi) == [x0]
    assert _scan_roots(lambda x: (x - lo) * (x - last), lo, hi) \
        == [lo, last]
    # A sign change inside a cell is bisected.
    (root,) = _scan_roots(lambda x: x - (x0 + 0.5 * step), lo, hi)
    assert root == pytest.approx(x0 + 0.5 * step, abs=1e-12)


def test_sign_scan_finds_a_root_whose_end_value_product_underflows():
    # At 1e-170 the two end values of the root's cell are ~1e-174 and
    # their product underflows to zero; the root is the same as at 1e-100.
    c = 1.23456789
    roots = _scan_roots(lambda x: (x - c) * 1e-100, 1.0, 2.0)
    assert _scan_roots(lambda x: (x - c) * 1e-170, 1.0, 2.0) == roots
    (root,) = roots
    assert root == pytest.approx(c, abs=1e-12)


# 1/alpha - _EDGE rounds back to 1/alpha from 1/alpha = 2**24 on, and at
# the smallest alpha here the scan's last point, lo + _SCAN_POINTS * step,
# rounds up to 1/alpha from below it.
TINY_ALPHAS = [1e-8, 5e-8, 1.0327697309498036e-15]


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.95, 1e-7, *TINY_ALPHAS])
def test_scan_window_keeps_every_scan_point_inside_h1(alpha):
    lo, hi = _r_window(alpha)
    last = lo + _SCAN_POINTS * ((hi - lo) / _SCAN_POINTS)
    assert lo == 1.0 + _EDGE
    assert hi < 1.0 / alpha and last < 1.0 / alpha
    if 1.0 / alpha - _EDGE < 1.0 / alpha:
        assert hi == 1.0 / alpha - _EDGE   # the old end, bit for bit


@pytest.mark.parametrize("alpha", TINY_ALPHAS)
def test_pattern_onset_curve_stays_inside_h1_at_a_tiny_alpha(alpha):
    # Both scans share the window; hopf_margin alone never checked h1.
    points = turing_curve((alpha, alpha), 0.01, resolution=1)
    assert [pt.branch for pt in points] == [0, 1]
    assert all(1.0 < pt.r < 1.0 / alpha for pt in points)
    assert hopf_points_in_r(alpha, 0.5) == []


def test_band_verdict_matches_brute_force_scan():
    # Independent oracle: evaluate the mode determinant on a dense grid of
    # squared wave numbers and compare the sign of its minimum.
    for p in _seeded_admissible_params(40, seed=88):
        report = turing_analysis(p, strict=False)
        if report.verdict == "hopf-unstable":
            continue
        u = np.linspace(0.0, 400.0, 200_001)
        eq = positive_equilibrium(p)
        g = p.d * p.alpha / eq.a - p.r ** 2 * eq.a ** 2 * eq.m
        d0 = p.alpha * p.r * (p.r - 1.0) * eq.a
        brute_min = float(np.min(p.d * u * u + g * u + d0))
        if report.verdict == "turing-unstable":
            assert brute_min < 0.0
        else:
            assert brute_min >= -1e-9
        assert report.min_mode_value == pytest.approx(
            brute_min, abs=1e-4 * max(1.0, abs(brute_min)))


def test_band_slope_is_independent_of_gamma():
    base = ModelParams(r=1.5, alpha=0.3, gamma=0.5, d=0.05)
    alt = ModelParams(r=1.5, alpha=0.3, gamma=7.0, d=0.05)
    a = turing_analysis(base, strict=False)
    b = turing_analysis(alt, strict=False)
    assert a.g_r == pytest.approx(b.g_r, rel=1e-14)
    assert a.lambda_disc == pytest.approx(b.lambda_disc, rel=1e-14)


def test_pattern_onset_curve_sits_on_zero_discriminant():
    points = turing_curve((0.1, 0.6), 0.01, resolution=12)
    assert points, "expected onset points at small diffusivity ratio"
    for pt in points:
        p = ModelParams(r=pt.r, alpha=pt.alpha, gamma=1.0, d=0.01)
        report = turing_analysis(p, strict=False)
        assert report.lambda_disc == pytest.approx(0.0, abs=1e-6)
        assert report.g_r < 0.0


def test_pattern_onset_curve_validates_inputs():
    with pytest.raises(HypothesisError):
        turing_curve((0.5, 1.5), 0.01)
    with pytest.raises(ValueError):
        turing_curve((0.1, 0.6), 0.01, resolution=0)


def _per_point_turing_curve(alpha_range, d, resolution):
    """turing_curve with a validated ModelParams per scan point and the
    band coefficients written out from the model's closed forms: the
    reference that the float scan must equal bit for bit."""
    def coeffs(p):
        if not 0.0 < p.alpha < 1.0 < p.r < 1.0 / p.alpha:
            raise HypothesisError(f"outside h1 at r={p.r!r}")
        m = p.alpha * (p.r - 1.0) / (1.0 - p.alpha * p.r)
        a = (1.0 - p.alpha * p.r) / (p.r * (1.0 - p.alpha))
        g = p.d * (p.alpha + m) - m / (1.0 + m) ** 2
        return g, p.alpha * p.r * (p.r - 1.0) * a

    lo, hi = alpha_range
    points = []
    for i in range(resolution):
        alpha = lo if resolution == 1 else lo + (hi - lo) * i / (resolution - 1)

        def disc(r):
            g, d0 = coeffs(ModelParams(r=r, alpha=alpha, gamma=1.0, d=d))
            return g * g - 4.0 * d * d0

        branch = 0
        for root in _scan_roots(disc, 1.0 + _EDGE, 1.0 / alpha - _EDGE):
            g, _ = coeffs(ModelParams(r=root, alpha=alpha, gamma=1.0, d=d))
            if g < 0.0:
                points.append(TuringCurvePoint(alpha, root, branch))
                branch += 1
    return points


@pytest.mark.parametrize("alpha_range, d, resolution", [
    ((0.05, 0.95), 0.01, 50), ((0.05, 0.95), 0.05, 50),
    ((0.1, 0.6), 0.01, 2), ((0.1, 0.6), 0.01, 12),
    ((0.3, 0.3), 0.01, 1), ((0.3, 0.3), 0.01, 3)])
def test_pattern_onset_curve_equals_the_per_point_params_scan(
        alpha_range, d, resolution):
    def bits(points):
        return [(pt.alpha.hex(), pt.r.hex(), pt.branch) for pt in points]

    expected = bits(_per_point_turing_curve(alpha_range, d, resolution))
    assert expected
    assert bits(turing_curve(alpha_range, d, resolution)) == expected


def test_pattern_onset_curve_builds_no_params_per_scan_point(monkeypatch):
    built = []
    check = ModelParams.__post_init__

    def spy(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ModelParams, "__post_init__", spy)
    assert turing_curve((0.05, 0.95), 0.01, 50)
    assert len(built) <= 1


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
def test_pattern_onset_curve_rejects_a_bad_diffusivity_ratio(d):
    with pytest.raises(ValueError) as err:
        turing_curve((0.1, 0.6), d, resolution=3)
    assert str(err.value) == \
        f"d must be finite and strictly positive, got {d!r}"


@pytest.mark.parametrize("alpha, r", [(0.5, 2.0), (0.4, 0.9), (0.2, 5.0)])
def test_band_coefficients_of_floats_reject_a_point_outside_h1(alpha, r):
    with pytest.raises(HypothesisError) as want:
        positive_equilibrium(ModelParams(r=r, alpha=alpha, gamma=1.0, d=0.01))
    with pytest.raises(HypothesisError) as got:
        _detcoeffs(alpha, r, 0.01)
    assert str(got.value) == str(want.value)


def test_strict_band_analysis_rejects_oscillatory_base_state():
    # A homogeneous oscillatory instability makes the band verdict
    # meaningless; strict mode refuses, lenient mode labels it.
    p = ModelParams(r=1.4, alpha=0.45, gamma=8.0)
    with pytest.raises(HypothesisError):
        turing_analysis(p)
    assert turing_analysis(p, strict=False).verdict == "hopf-unstable"
