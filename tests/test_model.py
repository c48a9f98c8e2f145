"""Kinetics, equilibria, and hypothesis predicates.

Closed-form equilibrium components are checked against an independent
nullcline-intersection root find, and the kinetic rates against values
computed by hand from the model definition.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import bisect

from musselbed import (HypothesisError, ModelParams, check_hypotheses,
                       delta0, hypothesis_h1, positive_equilibrium,
                       reaction_rhs, rho0)
from musselbed.model import delayed_self_term, zero_mode_det


def _seeded_admissible_params(count: int, seed: int = 471):
    """Random parameter sets with a coexistence state, reproducibly."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        alpha = float(rng.uniform(0.05, 0.9))
        r = float(rng.uniform(1.0 + 0.02, 1.0 / alpha - 1e-9))
        out.append(ModelParams(r=r, alpha=alpha,
                               gamma=float(rng.uniform(0.1, 8.0)),
                               d=float(rng.uniform(0.01, 2.0))))
    return out


def test_kinetic_rates_match_hand_computed_point():
    # dm = 0.5*(2*0.5 - 1/1.5) = 1/6, da = (0.1*0.5 - 0.25)/0.5 = -0.4
    p = ModelParams(r=2.0, alpha=0.1, gamma=0.5)
    dm, da = reaction_rhs(0.5, 0.5, 0.5, 0.5, p)
    assert dm == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert da == pytest.approx(-0.4, abs=1e-15)


def test_kinetic_rates_broadcast_over_arrays():
    p = ModelParams(r=2.0, alpha=0.1, gamma=0.5)
    m = np.array([0.5, 0.125, 0.0])
    a = np.array([0.5, 4.0 / 9.0, 1.0])
    dm, da = reaction_rhs(m, a, m, a, p)
    for k in range(3):
        dm_k, da_k = reaction_rhs(float(m[k]), float(a[k]),
                                  float(m[k]), float(a[k]), p)
        assert dm[k] == pytest.approx(dm_k, abs=1e-15)
        assert da[k] == pytest.approx(da_k, abs=1e-15)


def test_delayed_arguments_enter_only_the_mussel_equation():
    p = ModelParams(r=2.0, alpha=0.1, gamma=0.5)
    base = reaction_rhs(0.4, 0.6, 0.2, 0.9, p)
    moved = reaction_rhs(0.4, 0.6, 0.3, 0.7, p)
    assert base[0] != moved[0]
    assert base[1] == moved[1]


def test_boundary_state_is_a_fixed_point():
    for p in _seeded_admissible_params(5):
        dm, da = reaction_rhs(0.0, 1.0, 0.0, 1.0, p)
        assert dm == 0.0
        assert da == 0.0


def test_coexistence_state_zeroes_the_kinetics():
    for p in _seeded_admissible_params(30):
        eq = positive_equilibrium(p)
        dm, da = reaction_rhs(eq.m, eq.a, eq.m, eq.a, p)
        assert abs(dm) < 1e-14
        assert abs(da) < 1e-14


def test_coexistence_state_matches_nullcline_intersection():
    # Independent route: a(m) = alpha/(alpha+m) from the algae nullcline,
    # then bisect r*a(m) - 1/(1+m) = 0 on m.
    for p in _seeded_admissible_params(30):
        def growth_balance(m: float) -> float:
            return p.r * p.alpha / (p.alpha + m) - 1.0 / (1.0 + m)

        hi = 1.0
        while growth_balance(hi) > 0.0:
            hi *= 2.0
        m_root = bisect(growth_balance, 1e-12, hi, xtol=1e-14)
        eq = positive_equilibrium(p)
        assert eq.m == pytest.approx(m_root, abs=1e-10)
        assert eq.a == pytest.approx(p.alpha / (p.alpha + m_root), abs=1e-10)


def test_reference_equilibrium_values():
    eq = positive_equilibrium(ModelParams(r=2.0, alpha=0.10, gamma=0.5))
    assert eq.m == pytest.approx(0.1250, abs=1e-12)
    assert eq.a == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_equilibrium_component_identities():
    for p in _seeded_admissible_params(30):
        eq = positive_equilibrium(p)
        assert eq.a == pytest.approx(p.alpha / (p.alpha + eq.m), rel=1e-12)
        assert p.r * eq.a * (1.0 + eq.m) == pytest.approx(1.0, rel=1e-12)
        assert delta0(p) == pytest.approx(p.r * eq.a, rel=1e-12)


def test_equilibrium_requires_admissible_parameters():
    for bad in (ModelParams(r=0.5, alpha=0.1, gamma=0.5),
                ModelParams(r=1.0, alpha=0.1, gamma=0.5),
                ModelParams(r=10.0, alpha=0.1, gamma=0.5),
                ModelParams(r=1.5, alpha=0.95, gamma=0.5)):
        assert not hypothesis_h1(bad)
        with pytest.raises(HypothesisError):
            positive_equilibrium(bad)


def test_parameter_validation_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        ModelParams(r=-1.0, alpha=0.1, gamma=0.5)
    with pytest.raises(ValueError):
        ModelParams(r=2.0, alpha=0.0, gamma=0.5)
    with pytest.raises(ValueError):
        ModelParams(r=2.0, alpha=0.1, gamma=0.5, d=0.0)
    with pytest.raises(ValueError):
        ModelParams(r=2.0, alpha=0.1, gamma=0.5, tau=-0.1)
    with pytest.raises(ValueError):
        ModelParams(r=2.0, alpha=0.1, gamma=0.5, l=0.0)
    # tau = 0 is the delay-free case and must be accepted
    ModelParams(r=2.0, alpha=0.1, gamma=0.5, tau=0.0)


@pytest.mark.parametrize("field", ["r", "alpha", "gamma", "d", "tau", "l"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_parameter_validation_rejects_non_finite_values(field, value):
    values = {"r": 2.0, "alpha": 0.1, "gamma": 0.5, field: value}
    with pytest.raises(ValueError, match="finite"):
        ModelParams(**values)


def test_wavenumber_squared():
    p = ModelParams(r=2.0, alpha=0.1, gamma=0.5, l=2.0)
    assert p.wavenumber_sq(0) == 0.0
    assert p.wavenumber_sq(3) == pytest.approx(2.25, rel=1e-15)
    # Where (n/l)**2 overflows it is inf, as where n/l itself does.
    for l in (1e-200, 1e-310):
        tiny = ModelParams(r=2.0, alpha=0.1, gamma=0.5, l=l)
        assert tiny.wavenumber_sq(0) == 0.0
        assert tiny.wavenumber_sq(1) == math.inf


def test_hypothesis_report_on_reference_parameters():
    report = check_hypotheses(ModelParams(r=2.0, alpha=0.10, gamma=0.5, d=1.0))
    assert report.h1 and report.h2 and report.h3
    names = [name for name, _ in report.details]
    assert len(names) == len(set(names))


def test_hypothesis_report_without_coexistence_state():
    report = check_hypotheses(ModelParams(r=0.5, alpha=0.10, gamma=0.5))
    assert not report.h1
    assert not report.h2
    assert not report.h3


def test_hypothesis_report_at_alpha_one_names_the_undefined_delta0():
    # delta0 divides by 1 - alpha: the report says so instead of raising.
    report = check_hypotheses(ModelParams(r=2.0, alpha=1.0, gamma=1.0))
    assert (report.h1, report.h2, report.h3) == (False, False, False)
    assert [name for name, _ in report.details] == [
        "alpha", "r", "delta0 undefined: alpha = 1"]


def test_homogeneous_stability_predicate_tracks_trace_sign():
    # delta0^2 - rho0 < 0 is equivalent to a positive delay-free trace
    # margin of the homogeneous mode; check the equivalence on draws.
    for p in _seeded_admissible_params(40, seed=92):
        eq = positive_equilibrium(p)
        trace_margin = (p.alpha / eq.a
                        - p.gamma * p.r ** 2 * eq.a ** 2 * eq.m)
        gap = delta0(p) ** 2 - rho0(p)
        assert (gap < 0.0) == (trace_margin > 0.0) or (
            math.isclose(gap, 0.0, abs_tol=1e-12))


def test_linearization_entries_match_the_symbolic_jacobian():
    # Independent oracle: sympy differentiates the shipped kinetics at the
    # equilibrium.  The delayed self-term is d(dm/dt)/dm(t - tau), alpha + m*
    # is -gamma * d(da/dt)/da, and the zero-mode determinant is gamma times
    # the determinant of the delay-free Jacobian.
    sp = pytest.importorskip("sympy")
    m, a, md, ad = sp.symbols("m a md ad")
    rng = np.random.default_rng(2608)
    for _ in range(3):
        alpha = float(rng.uniform(0.05, 0.9))
        p = ModelParams(r=float(rng.uniform(1.05, 0.9 / alpha)), alpha=alpha,
                        gamma=float(rng.uniform(0.1, 5.0)))
        eq = positive_equilibrium(p)
        exact = SimpleNamespace(**{k: sp.Rational(getattr(p, k))
                                   for k in ("r", "alpha", "gamma")})
        rates = [f.xreplace({x: sp.Rational(x) for x in f.atoms(sp.Float)})
                 for f in reaction_rhs(m, a, md, ad, exact)]
        at_eq = {m: sp.Rational(eq.m), md: sp.Rational(eq.m),
                 a: sp.Rational(eq.a), ad: sp.Rational(eq.a)}
        jacobian = sp.Matrix([[sp.diff(f, x) + sp.diff(f, xd)
                               for x, xd in ((m, md), (a, ad))]
                              for f in rates]).subs(at_eq)
        delayed = sp.diff(rates[0], md).subs(at_eq)
        assert delayed_self_term(eq.m) == pytest.approx(float(delayed),
                                                        rel=1e-14)
        assert p.alpha + eq.m == pytest.approx(
            float(-exact.gamma * jacobian[1, 1]), rel=1e-14)
        assert zero_mode_det(p.alpha, p.r, eq.a) == pytest.approx(
            float(exact.gamma * jacobian.det()), rel=1e-14)
