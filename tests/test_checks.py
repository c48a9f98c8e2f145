"""The cross-check suite behind `musselbed verify`, called in-process."""

from __future__ import annotations

import math

from musselbed import ModelParams
from musselbed.checks import Check, cross_checks


def test_cross_checks_report_five_gated_checks_in_order():
    got = cross_checks(ModelParams(r=2.0, alpha=0.1, gamma=0.5),
                       spectrum_n=100, draws=2)
    assert [c.name for c in got] == [
        "delay_free_consistency", "discrete_spectrum_match",
        "newton_crossing_match", "pairing_quadrature",
        "region_map_consistency"]
    for c in got:
        assert c.ok == (c.value < c.tolerance) and c.ok
    # The spectrum gate is 1e-3 at 200 intervals and scales as (200/N)^2.
    assert got[1].tolerance == 4e-3


def test_a_check_passes_only_strictly_below_its_tolerance():
    assert Check("x", 0.5, 1, "").ok
    assert not Check("x", 1, 1, "").ok
    assert not Check("x", math.inf, 1e-6, "no crossing found").ok
