"""Consistency between the closed-form analysis and its numerical oracles.

Each oracle rebuilds its target from the raw model definition (dense
discretized operators, complex Newton continuation, direct sign scans),
so agreement here validates both routes at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from musselbed import (Grid, ModelParams, NumericalError, char_residual,
                       eigenvalues_no_delay, hypothesis_h1, tau_star,
                       turing_analysis)
from musselbed.verify import (discrete_spectrum, grid_classify,
                              newton_track_root)

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
