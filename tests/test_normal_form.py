"""Hopf normal form: eigenfunctions, projections, first Lyapunov constant.

Oracles used here: the center eigenvectors are substituted into a raw
assembly of the characteristic matrix, the normalization is re-derived
by numerical quadrature of the adjoint pairing, the kinetics expansion
is compared to the full nonlinear remainder, and the final constants are
re-assembled from their defining combinations with independent
arithmetic.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter

import numpy as np
import pytest

from musselbed import (HypothesisError, ModelParams, center_manifold_terms,
                       eigenpair, eigenvalue_slope, hopf_coefficients,
                       nonlinear_expansion, positive_equilibrium, tau_star)
from musselbed import normal_form as normal_form_mod
from musselbed.verify import bilinear_pairing_quadrature

REFERENCE = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0)
REF_OMEGA = 0.32534071178670415
REF_TAU = 2.35445346214238

# Frozen outputs at the reference parameters, cross-validated against
# time-domain measurements of orbit amplitude and period drift.
REF_Q1 = -1.2972415702710163 + 0.937878879625054j
REF_Q2 = 0.39506172839506154 + 2.185742777796961j
REF_NORM = -0.14019824788133606 - 0.18643917290201537j
REF_G20 = 0.8181728699846725 + 1.9338864480739615j
REF_G11 = -1.0484869560912606 - 1.196437333751585j
REF_G02 = -2.7572624246823434 - 4.497187212249039j
REF_G21 = -8.423253936396492 + 12.753137682466438j
REF_C1 = -2.2491276281826806 - 2.031643275132245j
REF_MU2 = 25.63038313241418
REF_BETA2 = -4.498255256365361
REF_T2 = -5.064198636405117
REF_PHYSICAL_PERIOD_SLOPE = 4.386695521294092

# Nonflat critical mode: on a ten-fold domain the n = 1 mode crosses
# slightly after the flat one with every hypothesis intact.
WIDE = ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0, l=10.0)
(WIDE_N1,) = [hp for hp in tau_star(WIDE).crossings if hp.n == 1]


def _raw_characteristic_matrix(p: ModelParams, n: int, lam: complex,
                               tau: float) -> np.ndarray:
    """Mode-n characteristic matrix assembled from the linearization."""
    eq = positive_equilibrium(p)
    ksq = p.wavenumber_sq(n)
    j11 = eq.m / (1.0 + eq.m) ** 2
    decay = cmath.exp(-lam * tau)
    return np.array([
        [lam + p.d * ksq - j11 * decay, -p.r * eq.m * decay],
        [eq.a, p.gamma * lam + p.alpha + eq.m + ksq],
    ], dtype=complex)


def test_eigenvectors_annihilate_the_characteristic_matrix():
    cases = [(REFERENCE, 0, REF_OMEGA, REF_TAU)]
    cases.append((WIDE, 1, WIDE_N1.omega, WIDE_N1.tau_crit))
    for p, n, omega, tau in cases:
        ep = eigenpair(p, n, omega, tau)
        delta = _raw_characteristic_matrix(p, n, 1j * omega, tau)
        right = delta @ np.array([1.0, ep.q1])
        # The stored adjoint vector carries the time-scaling weight; its
        # gamma multiple is the plain left null vector.
        left = np.array([p.gamma * ep.q2, 1.0]) @ delta
        assert np.max(np.abs(right)) < 1e-10
        assert np.max(np.abs(left)) < 1e-10


def test_reference_eigenpair_values():
    ep = eigenpair(REFERENCE, 0, REF_OMEGA, REF_TAU)
    assert ep.q1 == pytest.approx(REF_Q1, abs=1e-12)
    assert ep.q2 == pytest.approx(REF_Q2, abs=1e-12)
    assert ep.m_norm == pytest.approx(REF_NORM, abs=1e-12)


def test_eigenpair_rejects_points_off_the_characteristic_variety():
    with pytest.raises(Exception):
        eigenpair(REFERENCE, 0, REF_OMEGA * 1.1, REF_TAU)


def test_adjoint_pairing_normalization_by_quadrature():
    cases = [(REFERENCE, 0, REF_OMEGA, REF_TAU)]
    cases.append((WIDE, 1, WIDE_N1.omega, WIDE_N1.tau_crit))
    for p, n, omega, tau in cases:
        ep = eigenpair(p, n, omega, tau)
        same = bilinear_pairing_quadrature(p, ep.q1, ep.q2, ep.m_norm,
                                           omega, tau, n)
        cross = bilinear_pairing_quadrature(p, ep.q1, ep.q2, ep.m_norm,
                                            omega, tau, n,
                                            conjugate_right=True)
        assert abs(same - 1.0) < 1e-6
        assert abs(cross) < 1e-6


def _truncated_kinetics(ex, u_now: float, u_delay: float, v_now: float,
                        v_delay: float) -> tuple[float, float]:
    """The expansion's truncated (cubic) kinetics at a deviation point."""
    f1 = (ex.uv_delay * u_now * v_delay
          + ex.uu_cross * u_now * u_delay
          + ex.uu_delay * u_delay ** 2
          + ex.uuu_delay * u_delay ** 3
          + ex.u_uu_delay * u_now * u_delay ** 2)
    return f1, ex.uv_now * u_now * v_now


def test_kinetics_expansion_matches_nonlinear_remainder():
    p = REFERENCE
    eq = positive_equilibrium(p)
    expansion = nonlinear_expansion(p)
    j11 = eq.m / (1.0 + eq.m) ** 2

    def mussel_remainder(u, ud, vd):
        full = (eq.m + u) * (p.r * (eq.a + vd) - 1.0 / (1.0 + eq.m + ud))
        return full - (j11 * ud + p.r * eq.m * vd)

    rng = np.random.default_rng(2218)
    for _ in range(50):
        u, ud, v, vd = (float(x) for x in rng.uniform(-1e-2, 1e-2, 4))
        f1, f2 = _truncated_kinetics(expansion, u, ud, v, vd)
        assert f1 == pytest.approx(mussel_remainder(u, ud, vd), abs=5e-9)
        # The algae kinetics are exactly bilinear, so the expansion's
        # second component is exact, not truncated.
        assert f2 == pytest.approx(-u * v, abs=1e-18)


def test_kinetics_expansion_truncation_is_fourth_order():
    p = REFERENCE
    eq = positive_equilibrium(p)
    expansion = nonlinear_expansion(p)
    j11 = eq.m / (1.0 + eq.m) ** 2

    def gap(scale: float) -> float:
        u, ud, vd = 0.7 * scale, -0.9 * scale, 0.4 * scale
        full = (eq.m + u) * (p.r * (eq.a + vd) - 1.0 / (1.0 + eq.m + ud))
        remainder = full - (j11 * ud + p.r * eq.m * vd)
        return abs(remainder
                   - _truncated_kinetics(expansion, u, ud, 0.0, vd)[0])

    ratio = gap(2e-2) / gap(1e-2)
    assert 12.0 < ratio < 20.0


def test_kinetics_expansion_matches_symbolic_taylor_series():
    # Independent oracle: sympy expands the raw kinetics in the deviation
    # variables; every quadratic and cubic monomial must be one of the
    # expansion's fields, with the same coefficient.
    sp = pytest.importorskip("sympy")
    u, ud, v, vd, eps = sp.symbols("u ud v vd eps")
    fields = {"f1": {(1, 0, 0, 1): "uv_delay", (1, 1, 0, 0): "uu_cross",
                     (0, 2, 0, 0): "uu_delay", (0, 3, 0, 0): "uuu_delay",
                     (1, 2, 0, 0): "u_uu_delay"},
              "f2": {(1, 0, 1, 0): "uv_now"}}
    rng = np.random.default_rng(1405)
    for _ in range(3):
        alpha = float(rng.uniform(0.05, 0.9))
        p = ModelParams(r=float(rng.uniform(1.05, 1.0 / alpha - 1e-6)),
                        alpha=alpha, gamma=float(rng.uniform(0.1, 5.0)))
        eq = positive_equilibrium(p)
        expansion = nonlinear_expansion(p)
        m, a, r, al = (sp.Rational(x) for x in (eq.m, eq.a, p.r, p.alpha))
        kinetics = {"f1": (m + u) * (r * (a + vd) - 1 / (1 + m + ud)),
                    "f2": al * (1 - (a + v)) - (m + u) * (a + v)}
        scaled = {u: eps * u, ud: eps * ud, v: eps * v, vd: eps * vd}
        for name, f in kinetics.items():
            series = sp.series(f.subs(scaled), eps, 0, 4).removeO()
            found = {}
            for order in (2, 3):
                poly = sp.Poly(sp.expand(series.coeff(eps, order)),
                               u, ud, v, vd)
                found.update(poly.as_dict())
            assert set(found) == set(fields[name])
            for monomial, field in fields[name].items():
                assert getattr(expansion, field) == pytest.approx(
                    float(found[monomial]), rel=1e-14, abs=0.0)


def test_reference_quadratic_projections():
    ep = eigenpair(REFERENCE, 0, REF_OMEGA, REF_TAU)
    cm = center_manifold_terms(REFERENCE, ep)
    assert cm.g20 == pytest.approx(REF_G20, abs=1e-9)
    assert cm.g11 == pytest.approx(REF_G11, abs=1e-9)
    assert cm.g02 == pytest.approx(REF_G02, abs=1e-9)


def test_quadratic_projections_vanish_for_nonflat_modes():
    ep = eigenpair(WIDE, 1, WIDE_N1.omega, WIDE_N1.tau_crit)
    cm = center_manifold_terms(WIDE, ep)
    assert (cm.g20, cm.g11, cm.g02) == (0j, 0j, 0j)
    assert sorted(cm.e1) == [0, 2]
    assert sorted(cm.e2) == [0, 2]
    assert cm.q2_term != 0.0
    for vec in (cm.w20_m1, cm.w20_0, cm.w11_m1, cm.w11_0):
        assert np.all(np.isfinite(np.asarray(vec).view(float)))


def test_manifold_correction_solves_rechecked_externally():
    p = REFERENCE
    eq = positive_equilibrium(p)
    ep = eigenpair(p, 0, REF_OMEGA, REF_TAU)
    cm = center_manifold_terms(p, ep)
    j11 = eq.m / (1.0 + eq.m) ** 2
    tau = REF_TAU
    weight = 1.0 / math.sqrt(p.l * math.pi)

    def generator(n: int, z: complex) -> np.ndarray:
        ksq = p.wavenumber_sq(n)
        return tau * np.array([
            [j11 * cmath.exp(-z) - p.d * ksq,
             p.r * eq.m * cmath.exp(-z)],
            [-eq.a / p.gamma, (-(p.alpha + eq.m) - ksq) / p.gamma],
        ], dtype=complex)

    two_iwt = 2j * REF_OMEGA * tau
    lhs = (two_iwt * np.eye(2) - generator(0, two_iwt)) @ cm.e1[0]
    rhs = tau * weight * np.asarray(cm.f_hat_20)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    lhs2 = generator(0, 0.0) @ cm.e2[0]
    rhs2 = -tau * weight * np.asarray(cm.f_hat_11)
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-10


def test_reference_lyapunov_constants():
    hc = hopf_coefficients(REFERENCE)
    assert hc.manifold.g20 == pytest.approx(REF_G20, abs=1e-9)
    assert hc.manifold.g11 == pytest.approx(REF_G11, abs=1e-9)
    assert hc.manifold.g02 == pytest.approx(REF_G02, abs=1e-9)
    assert hc.g21 == pytest.approx(REF_G21, abs=1e-8)
    assert hc.c1 == pytest.approx(REF_C1, abs=1e-8)
    assert hc.mu2 == pytest.approx(REF_MU2, abs=1e-6)
    assert hc.beta2 == pytest.approx(REF_BETA2, abs=1e-8)
    assert hc.t2 == pytest.approx(REF_T2, abs=1e-6)
    assert hc.direction == "forward"
    assert hc.orbit_stability == "stable"
    assert hc.period_trend == "decreasing"
    # The intermediates it returns are the ones a step-by-step run builds.
    ts = tau_star(REFERENCE)
    ep = eigenpair(REFERENCE, ts.n0, ts.omega, ts.tau)
    cm = center_manifold_terms(REFERENCE, ep)
    assert hc.tau_star == ts
    assert hc.eigenpair == ep
    assert (hc.manifold.q1_term, hc.manifold.q2_term) == (cm.q1_term,
                                                          cm.q2_term)
    assert ((hc.manifold.g20, hc.manifold.g11, hc.manifold.g02)
            == (cm.g20, cm.g11, cm.g02))


def test_hopf_coefficients_runs_each_manifold_stage_once(monkeypatch):
    calls: Counter[str] = Counter()
    stages = ("_quadratic_brackets", "_mode_integrals",
              "nonlinear_expansion")
    for name in stages:
        def counted(*args, _name=name,
                    _original=getattr(normal_form_mod, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(normal_form_mod, name, counted)
    for p in (REFERENCE, WIDE):
        calls.clear()
        hopf_coefficients(p)
        assert calls == {name: 1 for name in stages}


def test_lyapunov_constant_assembles_from_projections():
    hc = hopf_coefficients(REFERENCE)
    cm = hc.manifold
    rebuilt = (1j / (2.0 * REF_OMEGA * REF_TAU)
               * (cm.g20 * cm.g11 - 2.0 * abs(cm.g11) ** 2
                  - abs(cm.g02) ** 2 / 3.0)
               + hc.g21 / 2.0)
    assert hc.c1 == pytest.approx(rebuilt, abs=1e-12)


def test_classification_constants_assemble_from_slope_and_c1():
    hc = hopf_coefficients(REFERENCE)
    slope = eigenvalue_slope(REFERENCE, 0, 1j * REF_OMEGA, REF_TAU)
    assert hc.mu2 == pytest.approx(-hc.c1.real / (REF_TAU * slope.real),
                                   rel=1e-10)
    assert hc.beta2 == pytest.approx(2.0 * hc.c1.real, rel=1e-12)
    expected_t2 = -(hc.c1.imag + hc.mu2 * (REF_OMEGA + REF_TAU * slope.imag)) \
        / (REF_OMEGA * REF_TAU)
    assert hc.t2 == pytest.approx(expected_t2, rel=1e-10)


def test_physical_period_grows_despite_rescaled_trend():
    # The rescaled-period coefficient is negative, but the physical orbit
    # period still increases with the delay:
    # dT/dtau = (2 pi / omega) (1/tau* + t2/mu2) > 0.
    hc = hopf_coefficients(REFERENCE)
    slope = (2.0 * math.pi / REF_OMEGA) * (1.0 / REF_TAU + hc.t2 / hc.mu2)
    assert slope == pytest.approx(REF_PHYSICAL_PERIOD_SLOPE, abs=1e-6)
    assert slope > 0.0
    assert hc.t2 < 0.0


def test_lyapunov_constants_require_hypotheses():
    with pytest.raises(HypothesisError):
        hopf_coefficients(ModelParams(r=0.5, alpha=0.10, gamma=0.5))


def test_first_delay_location_is_domain_size_invariant():
    # The flat mode ignores the domain size, so the wide domain keeps the
    # same first critical delay while gaining nonflat crossing modes.
    narrow = tau_star(REFERENCE)
    wide = tau_star(WIDE)
    assert wide.tau == pytest.approx(narrow.tau, rel=1e-12)
    assert wide.n0 == 0
    assert len(wide.s0) > 1


def test_long_delay_crossing_passes_the_pairing_guards():
    # tau* is about 5e3 here, so the pairing identities hold only with a
    # crossing frequency accurate to nearly every digit.
    p = ModelParams(r=2.12225, alpha=0.465185, gamma=0.888162, d=1.58105,
                    l=1.56506)
    hc = hopf_coefficients(p)
    assert hc.tau_star.tau == pytest.approx(5215.73, rel=1e-5)
    assert math.isfinite(abs(hc.c1))
