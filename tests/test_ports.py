"""The in-package bisection and peak finder against their scipy originals.

`linear._bisect` and `sim._find_peaks` stand in for `scipy.optimize.bisect`
and `scipy.signal.find_peaks`, so that importing the package loads no
scipy subpackage but `scipy.linalg`.  The scipy functions stay the
independent oracle here: every case must give the same floats and the
same indices, bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import bisect
from scipy.signal import find_peaks, peak_prominences

import musselbed
from musselbed import (ModelParams, delta0, hopf_points_in_r, rho0,
                       turing_curve)
from musselbed import linear
from musselbed.linear import _bisect
from musselbed.sim import _find_peaks


def _assert_same_peaks(x, prominence: float) -> None:
    want = find_peaks(x, prominence=prominence)[0]
    got = _find_peaks(np.asarray(x, dtype=float), prominence)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _signals(kind: str, count: int = 300):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(count):
        n = int(rng.integers(0, 80))
        if kind == "random":
            yield rng.normal(size=n)
        elif kind == "rounded":
            yield np.round(rng.normal(size=n), 1)
        elif kind == "three-valued":
            yield rng.integers(0, 3, size=n).astype(float)
        elif kind == "walk":
            yield np.cumsum(rng.normal(size=n))
        elif kind == "nan":
            x = rng.integers(0, 4, size=n).astype(float)
            x[rng.random(n) < 0.15] = np.nan
            yield x


@pytest.mark.parametrize("kind", ["random", "rounded", "three-valued",
                                  "walk", "nan"])
@pytest.mark.parametrize("prominence", [0.0, 0.3, 1.0, 2.5])
def test_find_peaks_matches_scipy_on_seeded_signals(kind, prominence):
    for x in _signals(kind):
        _assert_same_peaks(x, prominence)


@pytest.mark.parametrize("x", [
    [2.0, 2.0, 1.0, 3.0, 0.0],          # plateau at the left end
    [0.0, 3.0, 1.0, 2.0, 2.0],          # plateau at the right end
    [1.0, 1.0, 1.0, 1.0],               # one plateau, end to end
    [0.0, 2.0, 2.0, 0.0],               # even-width top: left of centre
    [0.0, 2.0, 2.0, 2.0, 0.0, 2.0, 0.0],
    [0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 0.0],  # a shoulder, then the top
    [5.0, 1.0, 3.0, 1.0, 3.0, 1.0, 5.0],  # equal peaks between higher ends
])
@pytest.mark.parametrize("prominence", [0.0, 1.0, 2.0, 4.0])
def test_find_peaks_matches_scipy_on_plateaus(x, prominence):
    _assert_same_peaks(x, prominence)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_find_peaks_matches_scipy_on_short_signals(n):
    for x in (np.zeros(n), np.arange(n, dtype=float),
              np.array([0.0, 1.0, 0.0][:n]), np.array([1.0, 0.0, 1.0][:n])):
        _assert_same_peaks(x, 0.0)


def test_find_peaks_threshold_equal_to_a_prominence_keeps_the_peak():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=40)
        for prom in peak_prominences(x, find_peaks(x)[0])[0]:
            _assert_same_peaks(x, prom)
            _assert_same_peaks(x, np.nextafter(prom, np.inf))


def test_find_peaks_matches_scipy_on_an_orbit_signal():
    t = np.linspace(0.0, 400.0, 4001)
    rng = np.random.default_rng(3)
    x = 0.2 + 0.05 * np.sin(2.0 * np.pi * t / 25.07) * np.exp(-t / 900.0)
    for noisy in (x, x + 1e-4 * rng.normal(size=t.size)):
        for prominence in (1e-6, 0.02 * float(np.ptp(noisy))):
            _assert_same_peaks(noisy, prominence)


def _trace_gap(alpha: float, gamma: float):
    def f(r: float) -> float:
        p = ModelParams(r=r, alpha=alpha, gamma=gamma)
        return delta0(p) ** 2 - rho0(p)
    return f


def test_bisect_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(500):
        c, k = rng.normal(), rng.uniform(0.5, 3.0)
        a, b = c - rng.uniform(0.0, 2.0), c + rng.uniform(1e-9, 2.0)

        def f(x, c=c, k=k):
            return float(np.tanh(k * (x - c)) + 1e-3 * (x - c) ** 3)
        assert _bisect(f, a, b, xtol=1e-12) == bisect(f, a, b, xtol=1e-12)
        assert _bisect(f, b, a, xtol=1e-12) == bisect(f, b, a, xtol=1e-12)
    # values whose products underflow to zero or overflow
    for scale in (1e-200, -1e-200, 1e200):
        for c in (0.3, 0.7):
            def g(x, c=c, scale=scale):
                return scale * (x - c)
            assert _bisect(g, 0.0, 1.0, xtol=1e-12) \
                == bisect(g, 0.0, 1.0, xtol=1e-12)
    # the Hopf-window bracket of the README's sweep point
    f = _trace_gap(0.45, 8.0)
    grid = np.linspace(1.0 + 1e-9, 1.0 / 0.45 - 1e-9, 201)
    values = [f(r) for r in grid]
    brackets = [(grid[i], grid[i + 1]) for i in range(200)
                if values[i] * values[i + 1] < 0.0]
    assert brackets
    for a, b in brackets:
        assert _bisect(f, a, b, xtol=1e-12) == bisect(f, a, b, xtol=1e-12)


def test_bisect_returns_an_endpoint_root_and_rejects_bad_brackets():
    assert _bisect(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
    assert _bisect(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0
    for scale in (1.0, 1e-200, -1e-200):
        def same_sign(x, scale=scale):
            return scale * (x * x + 1.0)
        with pytest.raises(ValueError):
            bisect(same_sign, -1.0, 1.0, xtol=1e-12)
        with pytest.raises(ValueError, match="different signs"):
            _bisect(same_sign, -1.0, 1.0, xtol=1e-12)


def test_bisect_raises_on_nan_like_scipy():
    def f(x):
        return x if x < 0.5 else float("nan")
    with pytest.raises(ValueError):
        bisect(f, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _bisect(f, -1.0, 2.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _bisect(lambda x: float("nan"), -1.0, 2.0, xtol=1e-12)


def test_bisect_raises_when_it_runs_out_of_halvings_like_scipy():
    def f(x):
        return x - 1e-300
    with pytest.raises(RuntimeError):
        bisect(f, -1.0, 1.0, xtol=5e-324)
    with pytest.raises(RuntimeError):
        _bisect(f, -1.0, 1.0, xtol=5e-324)


def _scipy_bisect(f, a, b, xtol):
    return bisect(f, a, b, xtol=xtol)


def test_scans_give_the_same_roots_with_scipy_bisect(monkeypatch):
    hopf = hopf_points_in_r(0.45, 8.0)
    curve = turing_curve((0.1, 0.6), 0.01, resolution=3)
    assert len(hopf) == 2 and curve
    monkeypatch.setattr(linear, "_bisect", _scipy_bisect)
    assert hopf_points_in_r(0.45, 8.0) == hopf
    assert turing_curve((0.1, 0.6), 0.01, resolution=3) == curve


def test_package_import_loads_no_heavy_scipy_subpackage():
    banned = ("scipy.signal", "scipy.optimize", "scipy.stats",
              "scipy.integrate")
    src = str(Path(musselbed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, musselbed, musselbed.cli; "
            "print('\\n'.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = [m for m in done.stdout.split()
              if any(m == b or m.startswith(b + ".") for b in banned)]
    assert not loaded, f"import musselbed loaded {loaded}"
