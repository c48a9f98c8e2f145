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
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import NumericalError
from .model import ModelParams
from .sim import Grid

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 60
_TRACK_MAX_DEPTH = 6
_CROSSING_TOL = 1e-8
_EPS = math.ulp(1.0)
_PAIRING_POINTS = 4000


class RootTrack(NamedTuple):
    """A characteristic root followed along the delay axis.

    crossing_tau is the delay at which the tracked real part changes
    sign, polished on the imaginary axis, or None when no crossing occurs
    on the tracked interval or the first one is not resolved to 1e-8.
    """

    tau_values: tuple[float, ...]
    roots: tuple[complex, ...]
    mode: int
    converged: tuple[bool, ...]
    crossing_tau: Optional[float]


class RegionMap(NamedTuple):
    """Cell-wise stability classification over an (alpha, r) rectangle."""

    alphas: np.ndarray
    rs: np.ndarray
    labels: np.ndarray  # shape (len(alphas), len(rs)), short strings


def _raw_kinetics_jacobian(p: ModelParams) -> tuple[float, float, float, float, float]:
    """Equilibrium and linearization entries recomputed from scratch.

    Returns (m*, a*, j_mm, j_ma, j_am): the derivatives of the m-rate in
    the delayed m and in the delayed a, and j_am = -a*, the derivative
    of gamma times the a-rate in m.  Deliberately independent of the
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

    The 2(N+1)-dimensional problem is A v = lambda B v, with B =
    diag(1, gamma) per point, for the explicit second-difference
    Laplacian L with mirror ends (L[0, 1] = L[N, N-1] = 2/h^2).  Each
    block of B^-1 A is c*I + c'*L, so the blocks commute and its spectrum
    is the union, over the eigenvalues mu of L, of the spectra of the
    2x2 matrices [[d*mu + j_mm, j_ma], [j_am/gamma, (mu + j_aa)/gamma]].
    The mu come from a symmetric eigensolve: scaling the two end points
    by sqrt(2) makes L symmetric, with sqrt(2)/h^2 on both end
    off-diagonals.  Returns the `count` eigenvalues of largest real part,
    a tie (a conjugate pair) in the order of decreasing imaginary part.
    Raises NumericalError where a block entry is not finite.
    """
    m_eq, a_eq, j_mm, j_ma, j_am = _raw_kinetics_jacobian(p)
    j_aa = -(p.alpha + m_eq)
    nx = grid.points
    off = np.ones(nx - 1)
    off[0] = off[-1] = math.sqrt(2.0)
    lap = np.diag(np.full(nx, -2.0)) + np.diag(off, 1) + np.diag(off, -1)
    mu = np.linalg.eigvalsh(lap / (grid.h * grid.h))
    blocks = np.empty((nx, 2, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        blocks[:, 0, 0] = p.d * mu + j_mm
        blocks[:, 0, 1] = j_ma
        blocks[:, 1, 0] = j_am / p.gamma
        blocks[:, 1, 1] = (mu + j_aa) / p.gamma
    if not np.isfinite(blocks).all():
        raise NumericalError("discrete spectrum: a 2x2 block of the "
                             "operator is not finite (d*mu or 1/gamma "
                             "overflows)")
    values = np.linalg.eigvals(blocks).ravel().astype(complex)
    order = np.lexsort((-values.imag, -values.real))
    return [complex(values[i]) for i in order[:count]]


def _mode_terms(p: ModelParams,
                n: int) -> tuple[float, float, float, float, float, float]:
    """Coefficients (gamma, t_n, b, m_n, d_n) of mode n's transcendental
    characteristic function
    gamma lam^2 + t_n lam + (b lam + m_n) e^{-lam tau} + d_n,
    assembled from raw parameters, and the sum of the moduli of m_n's two
    terms, which sets its rounding error.  A square beyond the float
    range is a NumericalError."""
    try:
        m_eq, a_eq, j_mm, j_ma, j_am = _raw_kinetics_jacobian(p)
        ksq = (n / p.l) ** 2
    except OverflowError as exc:
        raise NumericalError(
            f"mode {n}: characteristic coefficients overflow") from exc
    t_n = p.alpha + m_eq + (1.0 + p.gamma * p.d) * ksq
    b = -p.gamma * j_mm
    m_n = -j_mm * (p.alpha + m_eq + ksq) - j_ma * j_am
    d_n = p.d * ksq * (p.alpha + m_eq + ksq)
    m_size = abs(j_mm * (p.alpha + m_eq + ksq)) + abs(j_ma * j_am)
    return p.gamma, t_n, b, m_n, d_n, m_size


def _char_and_derivative(terms: tuple[float, ...], lam: complex,
                         tau: float) -> tuple[complex, complex]:
    """The characteristic function of `_mode_terms` and its
    lambda-derivative at (lam, tau)."""
    gamma, t_n, b, m_n, d_n, _ = terms
    decay = cmath.exp(-lam * tau)
    value = gamma * lam * lam + t_n * lam + (b * lam + m_n) * decay + d_n
    deriv = 2.0 * gamma * lam + t_n + (b - tau * (b * lam + m_n)) * decay
    return value, deriv


def _newton(terms: tuple[float, ...], guess: complex,
            tau: float) -> Optional[complex]:
    """A root of the characteristic function at delay tau, Newton-converged
    from guess, or None.  A value beyond the float range (exp(-lam tau) or
    |value|) is non-convergence."""
    lam = guess
    try:
        for _ in range(_NEWTON_MAX_ITER):
            value, deriv = _char_and_derivative(terms, lam, tau)
            if abs(value) < _NEWTON_TOL:
                return lam
            if deriv == 0:
                return None
            step = value / deriv
            lam = lam - step
            if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
                return None
        value, _ = _char_and_derivative(terms, lam, tau)
        return lam if abs(value) < _NEWTON_TOL else None
    except OverflowError:
        return None


def _delay_free_start(terms: tuple[float, ...]) -> complex:
    """Rightmost root at tau = 0, of gamma lam^2 + (t_n + b) lam
    + d_n + m_n."""
    gamma, t_n, b, m_n, d_n, _ = terms
    trace_term = t_n + b
    disc = trace_term * trace_term - 4.0 * gamma * (d_n + m_n)
    return (-trace_term + cmath.sqrt(disc)) / (2.0 * gamma)


def _polish_crossing(terms: tuple[float, ...], lam_a: complex,
                     lam_b: complex, tau_a: float,
                     tau_b: float) -> Optional[float]:
    """The delay at which the root tracked from lam_a (at tau_a) to lam_b
    (at tau_b) crosses the imaginary axis, or None where it is not
    resolved to _CROSSING_TOL.

    Newton on Delta(i omega, tau) = 0 in the two real unknowns (omega,
    tau), seeded by linear interpolation of Re lam over the bracket and
    the mean |Im lam| at its ends.  The crossing's bound is the last step
    plus the rounding of Delta, eps times the sum of its terms' moduli
    (m_n's two terms apart), carried through the 2x2 solve.
    """
    gamma, t_n, b, m_n, d_n, m_size = terms
    re_a, re_b = lam_a.real, lam_b.real
    tau = tau_a + ((tau_b - tau_a) * re_a / (re_a - re_b) if re_a else 0.0)
    omega = 0.5 * (abs(lam_a.imag) + abs(lam_b.imag))
    bound = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        lam = complex(0.0, omega)
        value, deriv = _char_and_derivative(terms, lam, tau)
        # Columns d/d(omega) = i dDelta/dlam and d/d(tau), rows Re and Im.
        by_omega = 1j * deriv
        by_tau = -lam * (b * lam + m_n) * cmath.exp(-lam * tau)
        det = by_omega.real * by_tau.imag - by_tau.real * by_omega.imag
        if det == 0.0 or not math.isfinite(det):
            return None
        step_omega = (value.real * by_tau.imag
                      - by_tau.real * value.imag) / det
        step_tau = (by_omega.real * value.imag
                    - by_omega.imag * value.real) / det
        rounding = _EPS * (gamma * omega * omega + abs(t_n * omega)
                           + abs(b * omega) + m_size + abs(d_n)) / abs(det)
        noise_omega = rounding * (abs(by_tau.real) + abs(by_tau.imag))
        noise_tau = rounding * (abs(by_omega.real) + abs(by_omega.imag))
        omega -= step_omega
        tau -= step_tau
        if not (math.isfinite(omega) and math.isfinite(tau)):
            return None
        bound = noise_tau + abs(step_tau)
        if abs(step_tau) <= noise_tau and abs(step_omega) <= noise_omega:
            break
    return tau if bound <= _CROSSING_TOL else None


def newton_track_root(p: ModelParams, n: int, tau_from: float,
                      tau_to: float, steps: int) -> RootTrack:
    """Follow one characteristic root of mode n across a delay interval.

    Starts from the rightmost delay-free root Newton-converged at
    tau_from, then continues with warm starts.  A divergent target is
    retried on recursively halved sub-steps; at the deepest one a real
    root is retried once off the real axis, where two real roots merge
    into a complex pair, keeping the upper-half-plane root.  A target
    that still fails is recorded unconverged and the track resumes from
    the last good root.  The first sign change of the tracked real part
    is polished by Newton in (omega, tau) on the imaginary axis, and
    reported only where resolved to 1e-8.
    """
    if steps < 1:
        raise ValueError("need at least one continuation step")
    terms = _mode_terms(p, n)
    start = _newton(terms, _delay_free_start(terms), tau_from)
    if start is None:
        raise NumericalError(
            f"could not converge a starting root at tau = {tau_from:.6g}")
    taus = np.linspace(tau_from, tau_to, steps + 1)
    roots: list[complex] = [start]
    converged: list[bool] = [True]

    def advance(lam: complex, tau_a: float, tau_b: float,
                depth: int) -> Optional[complex]:
        found = _newton(terms, lam, tau_b)
        if found is not None:
            return found
        if depth >= _TRACK_MAX_DEPTH:
            # Newton keeps a real iterate real, so it cannot follow a
            # real root into the complex pair that two real roots merge
            # into.
            if lam.imag != 0.0:
                return None
            found = _newton(terms, lam + 1e-3 * abs(lam) * 1j, tau_b)
            if found is None:
                return None
            return complex(found.real, abs(found.imag))
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
        if re_a == 0.0 or re_a * re_b < 0.0:
            crossing = _polish_crossing(terms, roots[k - 1], roots[k],
                                        float(taus[k - 1]), float(taus[k]))
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
    nodes = xs[:, None]
    left = left0 * np.exp(-1j * omega * tau * (nodes + 1.0))
    right = right0 * np.exp(phase * nodes)
    # left @ (kernel @ right) at each node, as stacked matrix products.
    integrand = (left[:, None, :] @ (kernel @ right[:, :, None]))[:, 0, 0]
    return head + np.trapezoid(integrand, xs)


def _band_signs(alpha, r, d: float) -> tuple[np.ndarray, ...]:
    """m*, a*, the band slope g and its discriminant at (alpha, r),
    elementwise."""
    m_eq = alpha * (r - 1.0) / (1.0 - alpha * r)
    a_eq = alpha / (alpha + m_eq)
    g = d * alpha / a_eq - r ** 2 * a_eq ** 2 * m_eq
    det0 = alpha * r * (r - 1.0) * a_eq
    return m_eq, a_eq, g, g * g - 4.0 * d * det0


def grid_classify(alpha_range: tuple[float, float],
                  r_range: tuple[float, float], d: float, gamma: float,
                  resolution: int = 50) -> RegionMap:
    """Classify an (alpha, r) rectangle into stability regions.

    Labels: T_a (stable, below the pattern window), T_b (pattern
    forming), T_c (stable, above it), T_d (no band minimum at positive
    wave number), hopf (homogeneous oscillatory instability), non-H1.
    Every cell is classified at once, by direct sign evaluation.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    alphas = np.linspace(alpha_range[0], alpha_range[1], resolution)
    rs = np.linspace(r_range[0], r_range[1], resolution)
    a = alphas[:, None]
    with np.errstate(all="ignore"):   # a cell outside h1 is non-H1 anyway
        # A row's pattern window starts at the first r of a 400-point scan
        # of (1, 1/alpha) with g < 0 and a positive discriminant, if any.
        scan = np.linspace(1.0 + 1e-6, 1.0 / alphas - 1e-6, 400, axis=-1)
        _, _, g, lam_disc = _band_signs(a, scan, d)
        inside = (g < 0.0) & (lam_disc > 0.0)
        first = scan[np.arange(resolution), inside.argmax(axis=1)]
        starts = np.where(inside.any(axis=1), first, np.inf)[:, None]
        m_eq, a_eq, g, lam_disc = _band_signs(a, rs, d)
        trace0 = a / a_eq - gamma * rs ** 2 * a_eq ** 2 * m_eq
        h1 = (0.0 < a) & (a < 1.0) & (1.0 < rs) & (rs < 1.0 / a)
    labels = np.select(
        [~h1, trace0 <= 0.0, g >= 0.0, lam_disc > 0.0, rs > starts],
        ["non-H1", "hopf", "T_d", "T_b", "T_c"], "T_a")
    return RegionMap(alphas=alphas, rs=rs, labels=labels.astype(object))
