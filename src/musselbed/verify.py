"""Independent numerical oracles for the closed-form analysis.

Every function here re-derives its target quantity from the raw model
definition — discretized operators, complex Newton continuation of the
transcendental characteristic function, brute-force sign scans — without
calling the closed-form code paths it is meant to validate.  Agreement
between the two routes is asserted by the test suite, not assumed here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import NumericalError
from .model import ModelParams, positive_equilibrium
from .sim import Grid

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 60
_TRACK_MAX_DEPTH = 6
_PAIRING_POINTS = 4000


@dataclass(frozen=True)
class RootTrack:
    """A characteristic root followed along the delay axis.

    crossing_tau is the delay at which the tracked real part changes
    sign, refined by bisection, or None when no crossing occurs on the
    tracked interval.
    """

    tau_values: tuple[float, ...]
    roots: tuple[complex, ...]
    mode: int
    converged: tuple[bool, ...]
    crossing_tau: Optional[float]


@dataclass(frozen=True)
class RegionMap:
    """Cell-wise stability classification over an (alpha, r) rectangle."""

    alphas: np.ndarray
    rs: np.ndarray
    labels: np.ndarray  # shape (len(alphas), len(rs)), short strings


def _raw_kinetics_jacobian(p: ModelParams) -> tuple[float, float, float, float, float]:
    """Equilibrium and linearization entries recomputed from scratch.

    Returns (m*, a*, dm/dm_delayed, dm/da_delayed, plus the a-row is
    reconstructed by the callers).  Deliberately independent of the
    closed-form module.
    """
    m_eq = p.alpha * (p.r - 1.0) / (1.0 - p.alpha * p.r)
    a_eq = p.alpha / (p.alpha + m_eq)
    j_mm = m_eq / (1.0 + m_eq) ** 2
    j_ma = p.r * m_eq
    j_am = -a_eq
    return m_eq, a_eq, j_mm, j_ma, j_am


def discrete_spectrum(p: ModelParams, grid: Grid, count: int) -> list[complex]:
    """Rightmost eigenvalues of the discretized delay-free linearization.

    Builds the full 2(N+1)-dimensional generalized eigenvalue problem
    (time-scaling matrix on the left) with an explicitly assembled
    second-difference Laplacian and dense solve; returns the `count`
    eigenvalues of largest real part.
    """
    m_eq, a_eq, j_mm, j_ma, j_am = _raw_kinetics_jacobian(p)
    j_aa = -(p.alpha + m_eq)
    nx = grid.points
    h = grid.h
    lap = np.zeros((nx, nx))
    for i in range(nx):
        lap[i, i] = -2.0
        if i > 0:
            lap[i, i - 1] = 1.0
        if i < nx - 1:
            lap[i, i + 1] = 1.0
    lap[0, 1] = 2.0
    lap[-1, -2] = 2.0
    lap /= h * h
    eye = np.eye(nx)
    upper = np.hstack([p.d * lap + j_mm * eye, j_ma * eye])
    lower = np.hstack([j_am * eye, lap + j_aa * eye])
    a_mat = np.vstack([upper, lower])
    b_mat = np.diag(np.concatenate([np.ones(nx), p.gamma * np.ones(nx)]))
    values = scipy.linalg.eig(a_mat, b_mat, right=False)
    order = np.argsort(-values.real)
    return [complex(values[i]) for i in order[:count]]


def _char_and_derivative(p: ModelParams, n: int, lam: complex,
                         tau: float) -> tuple[complex, complex]:
    """Transcendental characteristic function of mode n and its
    lambda-derivative, assembled from raw parameters."""
    m_eq, a_eq, j_mm, j_ma, j_am = _raw_kinetics_jacobian(p)
    ksq = (n / p.l) ** 2
    t_n = p.alpha + m_eq + (1.0 + p.gamma * p.d) * ksq
    b = -p.gamma * j_mm
    m_n = -j_mm * (p.alpha + m_eq + ksq) - j_ma * j_am
    d_n = p.d * ksq * (p.alpha + m_eq + ksq)
    decay = cmath.exp(-lam * tau)
    value = p.gamma * lam * lam + t_n * lam + (b * lam + m_n) * decay + d_n
    deriv = 2.0 * p.gamma * lam + t_n + (b - tau * (b * lam + m_n)) * decay
    return value, deriv


def _newton(p: ModelParams, n: int, guess: complex,
            tau: float) -> Optional[complex]:
    lam = guess
    for _ in range(_NEWTON_MAX_ITER):
        value, deriv = _char_and_derivative(p, n, lam, tau)
        if abs(value) < _NEWTON_TOL:
            return lam
        if deriv == 0:
            return None
        step = value / deriv
        lam = lam - step
        if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            return None
    value, _ = _char_and_derivative(p, n, lam, tau)
    return lam if abs(value) < _NEWTON_TOL else None


def _delay_free_start(p: ModelParams, n: int) -> complex:
    """Rightmost root at tau = 0 from the quadratic, assembled raw."""
    m_eq, a_eq, j_mm, j_ma, j_am = _raw_kinetics_jacobian(p)
    ksq = (n / p.l) ** 2
    trace_term = (p.alpha + m_eq + (1.0 + p.gamma * p.d) * ksq
                  - p.gamma * j_mm)
    det_term = (p.d * ksq * (p.alpha + m_eq + ksq)
                - j_mm * (p.alpha + m_eq + ksq) - j_ma * j_am)
    disc = complex(trace_term * trace_term - 4.0 * p.gamma * det_term)
    root_a = (-trace_term + disc ** 0.5) / (2.0 * p.gamma)
    root_b = (-trace_term - disc ** 0.5) / (2.0 * p.gamma)
    return root_a if root_a.real >= root_b.real else root_b


def newton_track_root(p: ModelParams, n: int, tau_from: float,
                      tau_to: float, steps: int) -> RootTrack:
    """Follow one characteristic root of mode n across a delay interval.

    Starts from the rightmost delay-free root Newton-converged at
    tau_from, then continues with warm starts.  A divergent target is
    retried on recursively halved sub-steps; if it still fails it is
    recorded unconverged and the track resumes from the last good root.
    The first sign change of the tracked real part is refined by
    bisection (with Newton re-convergence at each probe) to 1e-8.
    """
    if steps < 1:
        raise ValueError("need at least one continuation step")
    start = _newton(p, n, _delay_free_start(p, n), tau_from)
    if start is None:
        raise NumericalError(
            f"could not converge a starting root at tau = {tau_from:.6g}")
    taus = np.linspace(tau_from, tau_to, steps + 1)
    roots: list[complex] = [start]
    converged: list[bool] = [True]

    def advance(lam: complex, tau_a: float, tau_b: float,
                depth: int) -> Optional[complex]:
        found = _newton(p, n, lam, tau_b)
        if found is not None:
            return found
        if depth >= _TRACK_MAX_DEPTH:
            return None
        mid = 0.5 * (tau_a + tau_b)
        half = advance(lam, tau_a, mid, depth + 1)
        if half is None:
            return None
        return advance(half, mid, tau_b, depth + 1)

    last_good = start
    last_good_tau = tau_from
    for k in range(1, len(taus)):
        nxt = advance(last_good, last_good_tau, float(taus[k]), 0)
        if nxt is None:
            roots.append(last_good)
            converged.append(False)
        else:
            roots.append(nxt)
            converged.append(True)
            last_good = nxt
            last_good_tau = float(taus[k])

    crossing: Optional[float] = None
    for k in range(1, len(taus)):
        if not (converged[k - 1] and converged[k]):
            continue
        re_a, re_b = roots[k - 1].real, roots[k].real
        if re_a == 0.0:
            crossing = float(taus[k - 1])
            break
        if re_a * re_b < 0.0:
            lo, hi = float(taus[k - 1]), float(taus[k])
            lam_lo = roots[k - 1]
            sign_lo = math.copysign(1.0, re_a)
            for _ in range(200):
                if hi - lo <= 1e-8:
                    break
                mid = 0.5 * (lo + hi)
                lam_mid = _newton(p, n, lam_lo, mid)
                if lam_mid is None:
                    break
                if math.copysign(1.0, lam_mid.real) == sign_lo:
                    lo, lam_lo = mid, lam_mid
                else:
                    hi = mid
            crossing = 0.5 * (lo + hi)
            break

    return RootTrack(tau_values=tuple(float(t) for t in taus),
                     roots=tuple(roots), mode=n,
                     converged=tuple(converged), crossing_tau=crossing)


def bilinear_pairing_quadrature(p: ModelParams, q1: complex, q2: complex,
                                m_norm: complex, omega: float, tau: float,
                                n0: int, conjugate_right: bool = False
                                ) -> complex:
    """Trapezoidal evaluation of the adjoint pairing integral.

    Re-derives the pairing of q*(s) = m_norm (q2, 1) e^{-i omega tau s}
    with q(theta) = (1, q1) e^{i omega tau theta} (or its conjugate) by
    numerical quadrature of the distributed-delay term, independently of
    the closed-form normalization algebra.
    """
    m_eq, a_eq, j_mm, j_ma, j_am = _raw_kinetics_jacobian(p)
    if conjugate_right:
        right0 = np.array([1.0, q1]).conjugate()
        phase = -1j * omega * tau
    else:
        right0 = np.array([1.0, q1], dtype=complex)
        phase = 1j * omega * tau
    left0 = m_norm * np.array([q2, 1.0], dtype=complex)
    head = left0 @ right0
    kernel = tau * np.array([[j_mm, j_ma], [0.0, 0.0]])
    xs = np.linspace(-1.0, 0.0, _PAIRING_POINTS)
    integrand = np.empty(_PAIRING_POINTS, dtype=complex)
    for k, xi in enumerate(xs):
        left = left0 * np.exp(-1j * omega * tau * (xi + 1.0))
        right = right0 * np.exp(phase * xi)
        integrand[k] = left @ (kernel @ right)
    return head + np.trapezoid(integrand, xs)


def _region_row(alpha: float, r_values: np.ndarray, d: float,
                gamma: float) -> list[str]:
    """Classify one alpha-row of the plane by direct sign evaluation."""
    labels = []
    window: Optional[tuple[float, float]] = None
    if 0.0 < alpha < 1.0:
        r_hi = 1.0 / alpha
        scan = np.linspace(1.0 + 1e-6, r_hi - 1e-6, 400)
        m_eq = alpha * (scan - 1.0) / (1.0 - alpha * scan)
        a_eq = alpha / (alpha + m_eq)
        g = d * alpha / a_eq - scan ** 2 * a_eq ** 2 * m_eq
        det0 = alpha * scan * (scan - 1.0) * a_eq
        lam_disc = g * g - 4.0 * d * det0
        inside = (g < 0.0) & (lam_disc > 0.0)
        if np.any(inside):
            window = (float(scan[inside][0]), float(scan[inside][-1]))
    for r in r_values:
        if not (0.0 < alpha < 1.0 < r < 1.0 / alpha):
            labels.append("non-H1")
            continue
        m_eq = alpha * (r - 1.0) / (1.0 - alpha * r)
        a_eq = alpha / (alpha + m_eq)
        trace0 = alpha / a_eq - gamma * r ** 2 * a_eq ** 2 * m_eq
        if trace0 <= 0.0:
            labels.append("hopf")
            continue
        g = d * alpha / a_eq - r ** 2 * a_eq ** 2 * m_eq
        det0 = alpha * r * (r - 1.0) * a_eq
        lam_disc = g * g - 4.0 * d * det0
        if g >= 0.0:
            labels.append("T_d")
        elif lam_disc > 0.0:
            labels.append("T_b")
        elif window is not None and r > window[0]:
            labels.append("T_c")
        else:
            labels.append("T_a")
    return labels


def grid_classify(alpha_range: tuple[float, float],
                  r_range: tuple[float, float], d: float, gamma: float,
                  resolution: int = 50) -> RegionMap:
    """Classify an (alpha, r) rectangle into stability regions.

    Labels: T_a (stable, below the pattern window), T_b (pattern
    forming), T_c (stable, above it), T_d (no band minimum at positive
    wave number), hopf (homogeneous oscillatory instability), non-H1.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    alphas = np.linspace(alpha_range[0], alpha_range[1], resolution)
    rs = np.linspace(r_range[0], r_range[1], resolution)
    labels = np.empty((resolution, resolution), dtype=object)
    for i, alpha in enumerate(alphas):
        labels[i, :] = _region_row(float(alpha), rs, d, gamma)
    return RegionMap(alphas=alphas, rs=rs, labels=labels)
