"""Delay-induced spectral analysis at the coexistence state.

With digestion delay tau, mode n of the linearization has the transcendental
characteristic function

    gamma*lam^2 + t_n*lam + (b*lam + m_n)*exp(-lam*tau) + d_n,

whose purely imaginary crossings this module locates.  `tau_star` reports
them all: the first overall critical delay and, for each crossing mode, the
frequency, the ladder of critical delays and the crossing speed
(transversality).
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple, Optional

from .exceptions import HypothesisError, NumericalError
from .model import (ModelParams, check_hypotheses, delayed_self_term,
                    positive_equilibrium)

TWO_PI = 2.0 * math.pi
# tau_star scans this many modes past the first crossing-free one, and
# refuses a ceiling past the cap rather than start a long useless scan.
_CEILING_MARGIN = 5
_CEILING_CAP = 10_000


class SpectralCoeffsDelay(NamedTuple):
    """Mode-n coefficients of the delayed characteristic function.

    script_t is the quartic's middle coefficient t_n**2 - 2*gamma*d_n - b**2,
    positive whenever the homogeneous mode is delay-free stable.
    """

    n: int
    t_n: float
    m_n: float
    d_n: float
    b: float
    script_t: float


class HopfPoint(NamedTuple):
    """A critical delay for mode n: the j-th delay at which the mode's
    eigenvalue pair reaches the imaginary axis at frequency omega.

    transversality is the (always positive) crossing-speed expression
    guaranteeing the pair genuinely enters the right half plane.
    """

    n: int
    j: int
    omega: float
    tau_crit: float
    transversality: float


class TauStar(NamedTuple):
    """First overall critical delay.

    tau is the minimum over contributing modes of the first critical delay,
    attained by mode n0 at frequency omega.  s0 lists every mode (up to the
    scanned ceiling) admitting an imaginary-axis crossing, and crossings
    holds the critical delays j = 0..j_max of each such mode, mode by mode.
    """

    tau: float
    n0: int
    omega: float
    s0: tuple[int, ...]
    crossings: tuple[HopfPoint, ...]


def delay_char_coeffs(p: ModelParams, n: int) -> SpectralCoeffsDelay:
    """Coefficients of mode n's delayed characteristic function."""
    m, a = positive_equilibrium(p)
    ksq = p.wavenumber_sq(n)
    t_n = p.alpha + m + (1.0 + p.gamma * p.d) * ksq
    m_n = p.r * a * m * (1.0 - p.alpha * p.r - p.r * a * ksq)
    d_n = p.d * (p.alpha + m + ksq) * ksq
    b = -p.gamma * delayed_self_term(m)
    script_t = t_n * t_n - 2.0 * p.gamma * d_n - b * b
    return SpectralCoeffsDelay(n, t_n, m_n, d_n, b, script_t)


def char_residual(p: ModelParams, n: int, lam: complex, tau: float) -> complex:
    """Residual of mode n's delayed characteristic function at (lam, tau)."""
    c = delay_char_coeffs(p, n)
    return (p.gamma * lam * lam + c.t_n * lam
            + (c.b * lam + c.m_n) * cmath.exp(-lam * tau) + c.d_n)


def _crossing(p: ModelParams, n: int) -> Optional[HopfPoint]:
    """Mode n's first (j = 0) critical delay from one set of coefficients,
    or None when the mode admits no imaginary-axis crossing.

    lam = i*omega gives gamma^2 z^2 + script_t z + gap = 0 in z = omega**2,
    with a unique positive root exactly when gap = d_n**2 - m_n**2 < 0.
    The crossing phase is the two-argument arctangent of the exact
    (cos, sin) pair of the crossing condition, in [0, 2*pi)."""
    _, t_n, m_n, d_n, b, script_t = delay_char_coeffs(p, n)
    if script_t <= 0.0:
        if t_n * t_n < sys.float_info.min:
            # script_t <= t_n**2, which has lost its digits to underflow.
            raise NumericalError(
                f"mode {n}: quartic middle coefficient underflows "
                f"(t_n = {t_n:.3e}, whose square is below the normal range)")
        raise HypothesisError(
            f"mode {n}: quartic middle coefficient is not positive "
            "(homogeneous mode is not delay-free stable)"
        )
    gap = d_n * d_n - m_n * m_n
    if math.isnan(gap):   # inf - inf: both squares overflow
        gap = (d_n - m_n) * (d_n + m_n)
    if gap >= 0.0:
        if d_n + m_n <= 0.0:
            raise HypothesisError(
                f"mode {n}: nonpositive delay-free determinant (d_n + m_n <= 0); "
                "the mode is already unstable without delay"
            )
        return None
    radicand = script_t ** 2 - 4.0 * p.gamma ** 2 * gap
    if radicand <= 0.0:
        raise NumericalError(f"mode {n}: degenerate crossing (zero radicand)")
    root = math.sqrt(radicand)
    # z = (-script_t + root) / (2 gamma^2) loses every digit when the gap
    # is small against script_t; this form has no cancellation.
    omega = math.sqrt(-2.0 * gap / (script_t + root))
    den = m_n ** 2 + omega ** 2 * b ** 2   # >= m_n**2 > 0 when gap < 0
    cos_val = ((p.gamma * m_n - b * t_n) * omega ** 2 - m_n * d_n) / den
    sin_val = (m_n * t_n * omega + omega * b * (p.gamma * omega ** 2 - d_n)) / den
    angle = math.atan2(sin_val, cos_val) % TWO_PI
    return HopfPoint(n, 0, omega, angle / omega, root / den)


def _ladder(first: HopfPoint, j_max: int) -> list[HopfPoint]:
    """first and the next j_max critical delays of its mode, 2*pi/omega
    apart."""
    return [first._replace(j=j,
                           tau_crit=first.tau_crit + TWO_PI * j / first.omega)
            for j in range(j_max + 1)]


def mode_ceiling(p: ModelParams) -> int:
    """Scan ceiling for crossing modes: first n with d_n - m_n >= 0, plus margin.

    In u = (n/l)^2, d_n - m_n is the upward parabola d u^2 + B u - C with
    B = d (alpha + m*) + m*/(1+m*)^2 > 0 and C = m_0 = r a* m* (1 - alpha r)
    > 0 under h1, so every mode with u at or past its positive root u_plus
    admits no crossing.  u_plus is taken in its cancellation-free form.
    """
    eq = positive_equilibrium(p)
    b = p.d * (p.alpha + eq.m) + delayed_self_term(eq.m)
    c = delay_char_coeffs(p, 0).m_n
    u_plus = 2.0 * c / (b + math.sqrt(b * b + 4.0 * p.d * c))
    n = math.ceil(p.l * math.sqrt(u_plus))
    if n > _CEILING_CAP:
        raise NumericalError(
            f"no crossing-free mode found below n = {_CEILING_CAP}")
    return n + _CEILING_MARGIN


def tau_star(p: ModelParams, n_max: Optional[int] = None, j_max: int = 0) -> TauStar:
    """First critical delay over all modes, with the per-mode crossing report.

    Scans modes 0..n_max (default: mode_ceiling) for imaginary-axis
    crossings and returns the smallest first critical delay along with the
    attaining mode and frequency.  Raises when no mode admits a crossing —
    the coexistence state then stays stable for every delay.  Raises
    ValueError for a negative n_max or j_max, and for an n_max past the
    largest ceiling mode_ceiling returns.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be nonnegative, got {j_max}")
    if n_max is not None and not 0 <= n_max <= _CEILING_CAP + _CEILING_MARGIN:
        raise ValueError(f"n_max must lie in [0, "
                         f"{_CEILING_CAP + _CEILING_MARGIN}], got {n_max}")
    report = check_hypotheses(p)
    if not (report.h1 and report.h2 and report.h3):
        failed = [name for name, ok in
                  (("h1", report.h1), ("h2", report.h2), ("h3", report.h3))
                  if not ok]
        raise HypothesisError(
            f"tau_star requires hypotheses h1-h3; failing: {', '.join(failed)}"
        )
    if n_max is None:
        n_max = mode_ceiling(p)
    firsts = [_crossing(p, n) for n in range(n_max + 1)]
    firsts = [hp for hp in firsts if hp is not None]
    if not firsts:
        raise HypothesisError(
            "no mode admits an imaginary-axis crossing: the coexistence "
            "state is stable for every delay"
        )
    best = min(firsts, key=lambda hp: hp.tau_crit)
    return TauStar(
        tau=best.tau_crit,
        n0=best.n,
        omega=best.omega,
        s0=tuple(hp.n for hp in firsts),
        crossings=tuple(hp for first in firsts
                        for hp in _ladder(first, j_max)),
    )


def eigenvalue_slope(p: ModelParams, n: int, lam: complex, tau: float) -> complex:
    """d(lam)/d(tau) along a root branch of mode n's characteristic function."""
    c = delay_char_coeffs(p, n)
    shift = cmath.exp(-lam * tau)
    numerator = lam * (c.b * lam + c.m_n) * shift
    denominator = (2.0 * p.gamma * lam + c.t_n
                   + (c.b - tau * (c.b * lam + c.m_n)) * shift)
    if denominator == 0:
        raise NumericalError(f"mode {n}: vanishing slope denominator at {lam!r}")
    return numerator / denominator
