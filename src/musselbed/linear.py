"""Delay-free linear analysis at the coexistence state.

Per cosine mode n the linearization yields the quadratic

    gamma * lambda^2 + t_tilde(n) * lambda + d_tilde(n) = 0,

whose coefficients and roots this module computes, along with the stability
of the mussel-free state, the Hopf critical values of the capture rate r for
the non-spatial system, and the diffusion-driven (Turing) instability
report and critical curve.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .exceptions import HypothesisError, NumericalError
from .model import (
    ModelParams,
    check_hypotheses,
    coexistence_state,
    delayed_self_term,
    hopf_margin,
    positive_equilibrium,
    zero_mode_det,
)

# Number of initial subdivisions for sign-scans before bisection; the scanned
# functions are smooth with at most a handful of roots, so a dense scan plus
# bisection is robust and still cheap.
_SCAN_POINTS = 10_000
_EDGE = 1e-9
# Enough halvings for any finite bracket: its width is below 2**1024, and
# 2**1024 / 2**k < 1e-12 (the scans' xtol) once k >= 1064, as 1e-12 >
# 2**-40.  A bracket that converges within fewer halvings stops at the
# same step whatever the cap.
_BISECT_MAXITER = 1100
_BISECT_RTOL = 4.0 * math.ulp(1.0)


class SpectralCoeffsNoDelay(NamedTuple):
    """Mode-n quadratic coefficients: gamma*lam^2 + t_tilde*lam + d_tilde = 0."""

    n: int
    t_tilde: float
    d_tilde: float


class TuringReport(NamedTuple):
    """Diffusion-driven instability classification at one parameter point.

    g_r is the quadratic's slope coefficient in k^2, lambda_disc the
    discriminant g_r^2 - 4*d*d_tilde(0), kc_squared the continuous minimizer
    of the mode determinant (present only when the defining bracket is
    positive), and min_mode_value the continuous minimum of the determinant
    over k^2 >= 0.  The verdict is "stable", "turing-unstable", or
    "hopf-unstable"; marginal flags a zero-minimum borderline case that was
    conservatively classified stable.  The least value over the integer
    modes is reported separately since admissible wave numbers are n/l.
    """

    g_r: float
    lambda_disc: float
    kc_squared: Optional[float]
    min_mode_value: float
    verdict: str
    marginal: bool
    discrete_min_n: int
    discrete_min_value: float


class RHopfPoint(NamedTuple):
    """A Hopf critical value of r for the non-spatial system.

    transversality_sign is +1 when the eigenvalue pair crosses into the right
    half plane as r increases through r_hopf, -1 when it crosses back.
    """

    r: float
    transversality_sign: int


def _bisect(f: Callable[[float], float], a: float, b: float,
            xtol: float) -> float:
    """Root of f in [a, b] by bisection, step for step as scipy's `bisect`.

    Halves the bracket at most _BISECT_MAXITER times, moving a to the
    midpoint when f there has the sign of f(a), and stops once the
    half-width is below xtol + 4*eps*|midpoint|.  Signs are compared, not
    multiplied, so that values whose product underflows to zero still
    steer the search.  A NaN value of f or a bracket without a sign change
    is a ValueError; running out of halvings a RuntimeError.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    fa, fb = value(a), value(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    dm = b - a
    for _ in range(_BISECT_MAXITER):
        dm *= 0.5
        xm = a + dm
        fm = value(xm)
        if (fm > 0.0) == (fa > 0.0):
            a = xm
        if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise RuntimeError(f"bisection failed to converge after "
                       f"{_BISECT_MAXITER} iterations, value is {a}")


def _scan_roots(f: Callable[[float], float], lo: float,
                hi: float) -> list[float]:
    """Roots of f on [lo, hi], in increasing order, from a sign-scan of
    _SCAN_POINTS cells: every grid point where f is exactly zero, and the
    bisected root of every cell whose end values have opposite signs.
    Signs are compared, as in _bisect, where the product of the end values
    is not positive: two tiny values of opposite sign can have a product
    that underflows to zero.  Any other cell costs one product."""
    step = (hi - lo) / _SCAN_POINTS
    roots: list[float] = []
    prev_x, prev_f = lo, f(lo)
    for i in range(1, _SCAN_POINTS + 1):
        x = lo + i * step
        fx = f(x)
        if prev_f == 0.0:
            roots.append(prev_x)
        elif prev_f * fx <= 0.0 and fx != 0.0 and (fx > 0.0) != (prev_f > 0.0):
            roots.append(_bisect(f, prev_x, x, xtol=1e-12))
        prev_x, prev_f = x, fx
    if prev_f == 0.0:
        roots.append(prev_x)
    return roots


def _r_window(alpha: float) -> tuple[float, float]:
    """The ends (lo, hi) of a scan in r over (1, 1/alpha), each _EDGE inside.

    Once half an ulp of 1/alpha passes _EDGE (1/alpha at or above 2**24),
    1/alpha - _EDGE rounds back to 1/alpha, outside h1; hi is then the
    largest float below 1/alpha, lowered further while the scan's last
    point, lo + _SCAN_POINTS * step, would round up to 1/alpha.  Where the
    scan stays inside without it, hi is 1/alpha - _EDGE as before.
    """
    top = 1.0 / alpha
    lo, hi = 1.0 + _EDGE, min(top - _EDGE, math.nextafter(top, 0.0))
    while lo + _SCAN_POINTS * ((hi - lo) / _SCAN_POINTS) >= top:
        hi = math.nextafter(hi, 0.0)
    return lo, hi


def char_coeffs_no_delay(p: ModelParams, n: int) -> SpectralCoeffsNoDelay:
    """Quadratic coefficients of mode n for the delay-free linearization."""
    eq = positive_equilibrium(p)
    g, d0 = _detcoeffs(p.alpha, p.r, p.d)
    ksq = p.wavenumber_sq(n)
    t_tilde = (p.alpha + eq.m + (1.0 + p.gamma * p.d) * ksq
               - p.gamma * delayed_self_term(eq.m))
    try:
        d_tilde = p.d * ksq ** 2 + g * ksq + d0
    except OverflowError:   # as ksq itself is inf where it overflows
        d_tilde = math.inf
    return SpectralCoeffsNoDelay(n, t_tilde, d_tilde)


def eigenvalues_no_delay(p: ModelParams, n: int) -> tuple[complex, complex]:
    """The two roots of mode n's quadratic, plus-branch first."""
    c = char_coeffs_no_delay(p, n)
    disc = complex(c.t_tilde * c.t_tilde - 4.0 * p.gamma * c.d_tilde)
    if math.isinf(disc.real):
        raise NumericalError(f"mode {n}: discriminant t^2 - 4*gamma*d "
                             f"overflows")
    root = disc ** 0.5
    return (
        (-c.t_tilde + root) / (2.0 * p.gamma),
        (-c.t_tilde - root) / (2.0 * p.gamma),
    )


def boundary_stability(p: ModelParams) -> str:
    """Stability verdict for the mussel-free state (0, 1).

    Mode n contributes real eigenvalues r - 1 - d*n^2/l^2 and
    -(alpha + n^2/l^2)/gamma.  Both decrease in n, so the rightmost
    eigenvalue is mode 0's max(r - 1, -alpha/gamma), and the verdict
    follows its sign: "stable" when negative, "unstable" when positive,
    "marginal" at zero (exactly r = 1).
    """
    rightmost = max(p.r - 1.0, -p.alpha / p.gamma)
    if rightmost > 0.0:
        return "unstable"
    if rightmost == 0.0:
        return "marginal"
    return "stable"


def r_star(alpha: float) -> float:
    """Capture rate where the Hopf transversality in r changes sign.

    Equals (alpha + sqrt(alpha^2 + 8*alpha))/(4*alpha); eigenvalue pairs
    cross rightward at Hopf points below this value and leftward above it.
    """
    if not 0.0 < alpha < 1.0:
        raise HypothesisError(f"r_star needs 0 < alpha < 1, got {alpha!r}")
    return 0.25 * (alpha + math.sqrt(alpha * alpha + 8.0 * alpha)) / alpha


def hopf_points_in_r(alpha: float, gamma: float) -> list[RHopfPoint]:
    """All Hopf critical values of r for the non-spatial system.

    Finds the roots of hopf_margin in r on (1, 1/alpha) by a dense
    sign-scan followed by bisection.  Points coinciding with r_star (where
    the crossing speed vanishes) are excluded.  Returns the empty list when
    the trace never changes sign.  Raises NumericalError when gamma*(r - 1),
    which rho0 divides by, underflows to 0 at the window's low end; it
    grows with r, so it is then positive across the window.
    """
    if not 0.0 < alpha < 1.0:
        raise HypothesisError(f"hopf_points_in_r needs 0 < alpha < 1, got {alpha!r}")

    lo, hi = _r_window(alpha)
    if gamma * (lo - 1.0) == 0.0:
        raise NumericalError(f"rho0 undefined: gamma*(r - 1) underflows to "
                             f"0 at r = {lo!r}")

    def margin(r: float) -> float:
        return hopf_margin(ModelParams(r=r, alpha=alpha, gamma=gamma))

    rs = r_star(alpha)
    return [RHopfPoint(root, 1 if root < rs else -1)
            for root in _scan_roots(margin, lo, hi)
            if abs(root - rs) > 1e-9]


def _detcoeffs(alpha: float, r: float, d: float) -> tuple[float, float]:
    """(g, d_tilde_0): slope and intercept of the determinant in k^2.

    Works on plain floats, so a scan builds no ModelParams per point; d is
    the caller's to validate.  Raises HypothesisError outside h1.
    """
    m, a = coexistence_state(alpha, r)
    return d * (alpha + m) - delayed_self_term(m), zero_mode_det(alpha, r, a)


def turing_analysis(p: ModelParams, strict: bool = True) -> TuringReport:
    """Classify diffusion-driven instability of the coexistence state.

    The mode determinant is the upward parabola d*u^2 + g*u + d_tilde(0) in
    u = k^2; the state is stable against all spatial modes when g >= 0, or
    when g < 0 with negative discriminant.  A negative continuous minimum
    while the homogeneous mode stays stable is the Turing verdict.

    Requires the homogeneous mode to be stable (the h2 predicate); with
    strict=True its failure raises, otherwise the verdict "hopf-unstable"
    is returned with the remaining fields still filled in.
    """
    report = check_hypotheses(p)
    if not report.h1:
        raise HypothesisError("turing_analysis requires the coexistence state (h1)")
    g, d0 = _detcoeffs(p.alpha, p.r, p.d)
    disc = g * g - 4.0 * p.d * d0
    if math.isnan(disc):   # inf - inf: both products overflow
        root = 2.0 * math.sqrt(p.d) * math.sqrt(d0)
        disc = (g - root) * (g + root)
    kc_sq: Optional[float] = None
    modes = range(0)
    if g < 0.0:
        kc_sq = -g / (2.0 * p.d)
        min_value = d0 - g * g / (4.0 * p.d)
        # Convex in u: least at mode 0 or next to l*kc, where the modes
        # have (n/l)**2 = inf if l*kc overflows.
        near = p.l * math.sqrt(kc_sq)
        if near < math.inf:
            modes = range(max(1, math.floor(near) - 1), math.floor(near) + 3)
    else:
        min_value = d0

    best_n, best_value = 0, d0
    for n in modes:
        u = p.wavenumber_sq(n)
        value = p.d * u * u + g * u + d0
        if value < best_value:
            best_n, best_value = n, value

    marginal = False
    if not report.h2:
        if strict:
            raise HypothesisError(
                "homogeneous mode is not delay-free stable (h2 fails): "
                "the diffusion-driven classification does not apply"
            )
        verdict = "hopf-unstable"
    elif g >= 0.0 or disc < 0.0:
        verdict = "stable"
    elif disc == 0.0:
        verdict = "stable"
        marginal = True
    else:
        verdict = "turing-unstable"
    return TuringReport(
        g_r=g,
        lambda_disc=disc,
        kc_squared=kc_sq,
        min_mode_value=min_value,
        verdict=verdict,
        marginal=marginal,
        discrete_min_n=best_n,
        discrete_min_value=best_value,
    )


class TuringCurvePoint(NamedTuple):
    """One point of the diffusion-driven instability threshold curve."""

    alpha: float
    r: float
    branch: int


def turing_curve(alpha_range: tuple[float, float], d: float,
                 resolution: int = 50) -> list[TuringCurvePoint]:
    """Threshold curve of diffusion-driven instability in the (alpha, r) plane.

    For each alpha in the sampled range, finds the r-values in (1, 1/alpha)
    where the continuous minimum of the mode determinant touches zero
    (discriminant root with negative slope coefficient), by sign-scan plus
    bisection.  Alphas admitting no root contribute no points.  The curve is
    independent of gamma and of the domain length; admissibility of discrete
    wave numbers is the business of turing_analysis.
    """
    lo, hi = alpha_range
    if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
        raise HypothesisError(
            f"turing_curve needs 0 < alpha range < 1, got {alpha_range!r}"
        )
    if lo > hi:
        raise ValueError(f"alpha range must not decrease, got {alpha_range!r}")
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    ModelParams(r=1.0, alpha=lo, gamma=1.0, d=d)  # a bad d raises here

    points: list[TuringCurvePoint] = []
    for i in range(resolution):
        alpha = lo if resolution == 1 else lo + (hi - lo) * i / (resolution - 1)

        def disc(r: float) -> float:
            g, d0 = _detcoeffs(alpha, r, d)
            return g * g - 4.0 * d * d0

        branch = 0
        for root in _scan_roots(disc, *_r_window(alpha)):
            g, d0 = _detcoeffs(alpha, root, d)
            if g >= 0.0:
                continue
            kc_sq = -g / (2.0 * d)
            residual = d * kc_sq * kc_sq + g * kc_sq + d0
            if abs(residual) > 1e-8:
                raise NumericalError(
                    f"curve point (alpha={alpha}, r={root}) leaves determinant "
                    f"residual {residual!r} at the critical wave number"
                )
            points.append(TuringCurvePoint(alpha, root, branch))
            branch += 1
    return points
