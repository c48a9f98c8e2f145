"""The closed forms paired with their independent oracles.

`cross_checks` is the suite behind ``musselbed verify``.  This is the one
module that imports both an oracle (from `verify`) and its target, so
that `verify` stays independent of the code it checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .delay import delay_char_coeffs
from .exceptions import NumericalError
from .linear import char_coeffs_no_delay, eigenvalues_no_delay, turing_analysis
from .model import ModelParams, positive_equilibrium
from .normal_form import hopf_coefficients
from .sim import Grid
from .verify import (bilinear_pairing_quadrature, discrete_spectrum,
                     grid_classify, newton_track_root)

IDENTITY_TOL = 1e-10
# At 200 intervals; the discretization error is second order in 1/N.
SPECTRUM_TOL = 1e-3
NEWTON_GAP_TOL = 1e-6
PAIRING_TOL = 1e-6


class Check(NamedTuple):
    """One comparison: the disagreement measured and the gate it must stay
    below; a check that measured nothing (no crossing) has value inf."""

    name: str
    value: float
    tolerance: float
    detail: str

    @property
    def ok(self) -> bool:
        return bool(self.value < self.tolerance)


def cross_checks(p: ModelParams, spectrum_n: int = 200,
                 draws: int = 25) -> list[Check]:
    """The five closed-form-versus-oracle checks at p, in report order."""
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    # Every check but the first is taken at p's coexistence state; without
    # one the oracles' raw formulas can divide by zero (at alpha = 1).
    positive_equilibrium(p)
    checks: list[Check] = []

    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(draws):
        alpha = float(rng.uniform(0.05, 0.9))
        r = float(rng.uniform(1.0 + 0.05, 1.0 / alpha - 1e-6))
        q = ModelParams(r=r, alpha=alpha, gamma=float(rng.uniform(0.1, 5.0)),
                        d=float(rng.uniform(0.01, 2.0)))
        for n in range(0, 6):
            _, t_tilde, d_tilde = char_coeffs_no_delay(q, n)
            _, t_n, m_n, d_n, b, _ = delay_char_coeffs(q, n)
            worst = max(worst, abs(t_n + b - t_tilde),
                        abs(d_n + m_n - d_tilde))
    checks.append(Check("delay_free_consistency", worst, IDENTITY_TOL,
                        f"max identity residual {worst:.3e}"))

    # Roots meet the whole spectrum.
    grid = Grid(spectrum_n, p.l)
    spectrum = discrete_spectrum(p, grid, 2 * grid.points)
    worst_rel = 0.0
    for n in range(0, 5):
        for lam in eigenvalues_no_delay(p, n):
            nearest = min(spectrum, key=lambda z: abs(z - lam))
            worst_rel = max(worst_rel,
                            abs(nearest - lam) / max(abs(lam), 1e-12))
    checks.append(Check("discrete_spectrum_match", worst_rel,
                        SPECTRUM_TOL * (200 / grid.n) ** 2,
                        f"worst relative mismatch {worst_rel:.3e}"))

    hc = hopf_coefficients(p)
    ts = hc.tau_star
    crossing, detail = None, "no crossing found"
    try:
        crossing = newton_track_root(p, ts.n0, 0.0, ts.tau * 1.3,
                                     60).crossing_tau
    except OverflowError:
        detail = "tracker overflowed"
    except NumericalError as exc:
        detail = f"tracker failed: {exc}"
    gap = math.inf if crossing is None else abs(crossing - ts.tau)
    if crossing is not None:
        detail = f"|tracked - closed form| = {gap:.3e}"
    checks.append(Check("newton_crossing_match", gap, NEWTON_GAP_TOL, detail))

    ep = hc.eigenpair
    same = bilinear_pairing_quadrature(
        p, ep.q1, ep.q2, ep.m_norm, ep.omega, ep.tau_star, ep.n0)
    cross = bilinear_pairing_quadrature(
        p, ep.q1, ep.q2, ep.m_norm, ep.omega, ep.tau_star, ep.n0,
        conjugate_right=True)
    pair_err = max(abs(same - 1.0), abs(cross))
    checks.append(Check("pairing_quadrature", pair_err, PAIRING_TOL,
                        f"max pairing residual {pair_err:.3e}"))

    alphas, rs, labels = grid_classify((0.05, 0.6), (1.1, 3.0), p.d,
                                       p.gamma, resolution=12)
    mismatches = 0
    cells = 0
    for i, alpha in enumerate(alphas):
        for j, r in enumerate(rs):
            label = labels[i, j]
            if label in ("non-H1", "hopf"):
                continue
            cells += 1
            q = ModelParams(r=float(r), alpha=float(alpha),
                            gamma=p.gamma, d=p.d)
            verdict = turing_analysis(q, strict=False).verdict
            expected = "turing-unstable" if label == "T_b" else "stable"
            if verdict != expected:
                mismatches += 1
    checks.append(Check("region_map_consistency", mismatches, 1,
                        f"{mismatches} mismatching cells of {cells}"))
    return checks
