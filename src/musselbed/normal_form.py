"""Center-manifold reduction at the first critical delay.

Everything here works in rescaled time t -> t/tau, so the critical delay
appears as the unit delay and the bifurcation parameter is the deviation
from tau_star.  The reduction runs per Fourier mode n0 (the mode whose
eigenvalue pair crosses the imaginary axis first) and produces the cubic
normal-form constant c1(0) together with the derived quantities mu2,
beta2 and T2 that classify the bifurcating periodic orbit.

Scaling convention, stated once: the kinetic part of the abstract
evolution equation is Gamma^{-1} * (f1, f2), so every second-component
quantity carries a factor 1/gamma.  The adjoint eigenvector is paired
through the Gamma-weighted bilinear form; its second-row entry therefore
also carries 1/gamma relative to the raw left null vector of the mode
matrix.  All of it is scalar algebra on one mode's 2x2 system, done on
Python complex scalars; a vector is a pair of them.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .delay import TauStar, char_residual, eigenvalue_slope, tau_star
from .exceptions import NumericalError
from .model import ModelParams, delayed_self_term, positive_equilibrium

_RESIDUAL_TOL = 1e-8
# Genuine branch or sign errors violate the pairing identity at O(1);
# roundoff at long-delay crossings can reach a few 1e-10.
_PAIRING_TOL = 1e-8
_SOLVE_TOL = 1e-12
_DET_GUARD = 1e-14

_Vec = tuple[complex, complex]


class Eigenpair(NamedTuple):
    """Center eigenfunctions of the critical mode and their normalization.

    q(theta) = (1, q1)^T e^{i omega tau theta} spans the crossing
    eigendirection; the adjoint direction is q*(s) = m_norm (q2, 1)
    e^{-i omega tau s}.  m_norm enforces a unit bilinear pairing between
    the two.
    """

    q1: complex
    q2: complex
    m_norm: complex
    omega: float
    tau_star: float
    n0: int


class NonlinearExpansion(NamedTuple):
    """Taylor coefficients of the kinetics at the positive equilibrium.

    Written for deviation variables (u, v) = (m - m*, a - a*); subscripts
    name the monomial: `now` is evaluation at theta = 0, `delay` at the
    delayed argument.  The first equation's nonlinearity is

        f1 = uv_delay * u_now * v_delay
           + uu_cross * u_now * u_delay
           + uu_delay * u_delay**2
           + uuu_delay * u_delay**3
           + u_uu_delay * u_now * u_delay**2  + higher order,

    and the second equation's is f2 = uv_now * u_now * v_now.  The 1/gamma
    scaling is applied later, not here.
    """

    uv_delay: float
    uu_cross: float
    uu_delay: float
    uuu_delay: float
    u_uu_delay: float
    uv_now: float


class CenterManifoldTerms(NamedTuple):
    """Quadratic normal-form constants, manifold corrections and the
    cubic-projection brackets.

    g20, g11 and g02 are the quadratic constants; all three vanish for a
    nonzero critical mode because the cubed cosine integrates to zero
    over the domain.  w20_*/w11_* are the projection-weighted values of
    the quadratic manifold coefficients at the delayed argument
    (theta = -1) and at theta = 0; they are exactly the combinations
    consumed by the cubic bracket q2_term.  e1 and e2 hold the
    particular-solution vectors per contributing spatial mode.  quartic
    is the integral of the critical mode's fourth power, the weight of
    q1_term in g21.
    """

    g20: complex
    g11: complex
    g02: complex
    w20_m1: _Vec
    w20_0: _Vec
    w11_m1: _Vec
    w11_0: _Vec
    e1: dict[int, _Vec]
    e2: dict[int, _Vec]
    f_hat_20: _Vec
    f_hat_11: _Vec
    q1_term: complex
    q2_term: complex
    quartic: float


class HopfCoefficients(NamedTuple):
    """Normal-form constants and the resulting orbit classification,
    with the crossing, eigenpair and manifold terms they were built from;
    the quadratic constants g20, g11 and g02 are the manifold's."""

    g21: complex
    c1: complex
    mu2: float
    beta2: float
    t2: float
    direction: str
    orbit_stability: str
    period_trend: str
    tau_star: TauStar
    eigenpair: Eigenpair
    manifold: CenterManifoldTerms


def eigenpair(p: ModelParams, n0: int, omega: float, tau: float) -> Eigenpair:
    """Center eigendirections of mode n0 at a verified imaginary crossing.

    Raises NumericalError when (i*omega, tau) is not actually a root of the
    mode's characteristic function, when gamma*r*m* or omega*tau
    underflows to 0 (the adjoint and the reduction divide by them), or
    when the closed-form normalization fails the pairing identity
    (q*, conj q) = 0.
    """
    residual = char_residual(p, n0, 1j * omega, tau)
    if abs(residual) > _RESIDUAL_TOL:
        raise NumericalError(
            f"(i*{omega:.6g}, tau={tau:.6g}) is not a characteristic root of "
            f"mode {n0}: residual {abs(residual):.3e}")
    eq = positive_equilibrium(p)
    ksq = p.wavenumber_sq(n0)
    shift = 1j * p.gamma * omega + p.alpha + eq.m + ksq
    rot = cmath.exp(-1j * omega * tau)
    q1 = -eq.a / shift
    # Left null vector of the mode matrix is (shift/(r m* e^{-i w tau}), 1);
    # the adjoint for the Gamma-weighted pairing carries an extra 1/gamma.
    coupling = p.gamma * p.r * eq.m * rot
    if coupling == 0:
        raise NumericalError("adjoint eigenvector undefined: gamma*r*m* "
                             "underflows to 0")
    q2 = shift / coupling
    j_mm = delayed_self_term(eq.m)
    denom = (q1 + q2) + tau * q2 * (j_mm + q1 * p.r * eq.m) * rot
    if abs(denom) < _DET_GUARD:
        raise NumericalError("degenerate eigenvector normalization")
    m_norm = 1.0 / denom
    # (q*, q) = 1 holds by construction of m_norm; (q*, conj q) = 0 is
    # the identity left to check.
    wt = omega * tau
    if wt == 0:
        raise NumericalError(f"crossing phase omega*tau underflows to 0 "
                             f"(omega = {omega:.3e}, tau = {tau:.3e})")
    q1c = q1.conjugate()
    cross = m_norm * ((q2 + q1c) + tau * q2
                      * (j_mm + q1c * p.r * eq.m)
                      * math.sin(wt) / wt)
    if abs(cross) > _PAIRING_TOL:
        raise NumericalError(
            f"eigenvector pairing identity violated: (q*,conj q)={cross:.3e}")
    return Eigenpair(q1=q1, q2=q2, m_norm=m_norm,
                     omega=omega, tau_star=tau, n0=n0)


def nonlinear_expansion(p: ModelParams) -> NonlinearExpansion:
    """Quadratic and cubic kinetics coefficients at the positive equilibrium."""
    eq = positive_equilibrium(p)
    s = 1.0 + eq.m
    return NonlinearExpansion(
        uv_delay=p.r,
        uu_cross=1.0 / s ** 2,
        uu_delay=-eq.m / s ** 3,
        uuu_delay=eq.m / s ** 4,
        u_uu_delay=-1.0 / s ** 3,
        uv_now=-1.0,
    )


def _quadratic_brackets(p: ModelParams, ep: Eigenpair,
                        ex: NonlinearExpansion) -> tuple[_Vec, _Vec, _Vec]:
    """Kinetics evaluated on the quadratic monomials of the center basis.

    Returns the three 2-vectors multiplying z^2, z*conj z and conj z^2 in
    Gamma^{-1} f restricted to the eigenplane (spatial profile factored
    out).  The conj z^2 vector is the conjugate of the z^2 one.
    """
    c2, c3 = ex.uu_cross, -ex.uu_delay
    em = cmath.exp(-1j * ep.omega * ep.tau_star)
    q1 = ep.q1
    f20 = (2 * ex.uv_delay * q1 * em + 2 * c2 * em - 2 * c3 * em ** 2,
           2.0 * ex.uv_now * q1 / p.gamma)
    f11 = (complex(2 * (ex.uv_delay * q1 * em + c2 * em).real - 2 * c3),
           ex.uv_now * (q1 + q1.conjugate()) / p.gamma)
    f02 = (f20[0].conjugate(), f20[1].conjugate())
    return f20, f11, f02


def _mode_integrals(p: ModelParams, n0: int) -> tuple[float, float, dict[int, float]]:
    """Exact integrals of the normalized cosine basis over (0, l*pi).

    Returns (cube integral of the critical mode, quartic integral, and the
    weights of each contributing mode in the quadratic-projection table).
    """
    lpi = p.l * math.pi
    if n0 == 0:
        return 1.0 / math.sqrt(lpi), 1.0 / lpi, {0: 1.0 / math.sqrt(lpi)}
    return 0.0, 1.5 / lpi, {0: 1.0 / math.sqrt(lpi),
                            2 * n0: 1.0 / math.sqrt(2.0 * lpi)}


def _solve(a: tuple[_Vec, _Vec], b: _Vec, singular: str,
           unstable: str) -> _Vec:
    """x with a x = b by Gaussian elimination with partial pivoting (Cramer's
    rule is not backward stable: past tau* ~ 1e7 it trips _SOLVE_TOL).
    Raises NumericalError(singular) for |det a| < _DET_GUARD and
    NumericalError(unstable) for a row whose residual exceeds _SOLVE_TOL
    times the larger of 1 and the row's sum of absolute terms, as the
    right-hand sides grow as 1/sqrt(l*pi)."""
    (a00, a01), (a10, a11) = a
    det = a00 * a11 - a01 * a10
    if abs(det) < _DET_GUARD:
        raise NumericalError(f"{singular} (determinant {abs(det):.3e})")
    rows = [(a00, a01, b[0]), (a10, a11, b[1])]
    (u0, u1, y0), (l0, l1, y1) = rows[::-1] if abs(a10) > abs(a00) else rows
    factor = l0 / u0
    x1 = (y1 - factor * y0) / (l1 - factor * u1)
    x0 = (y0 - u1 * x1) / u0
    if any(abs(r0 * x0 + r1 * x1 - y) > _SOLVE_TOL
           * max(1.0, abs(r0) * abs(x0) + abs(r1) * abs(x1) + abs(y))
           for r0, r1, y in rows):
        raise NumericalError(unstable)
    return x0, x1


def center_manifold_terms(p: ModelParams, ep: Eigenpair
                          ) -> CenterManifoldTerms:
    """Quadratic constants, manifold coefficients and the cubic brackets.

    Projects the quadratic brackets onto the center direction for g20,
    g11 and g02, solves the two linear systems per contributing spatial
    mode for the particular-solution vectors, assembles the manifold
    coefficients at the delayed argument and at zero, and evaluates the
    two brackets whose weighted sum is g21.  A singular
    quadratic-frequency system signals a resonance and is reported,
    never regularized.
    """
    eq = positive_equilibrium(p)
    j_mm = delayed_self_term(eq.m)
    tau = ep.tau_star
    wt = ep.omega * tau
    cube, quart, weights = _mode_integrals(p, ep.n0)
    ex = nonlinear_expansion(p)
    f20, f11, f02 = _quadratic_brackets(p, ep, ex)
    scale = tau * ep.m_norm * cube
    g20, g11, g02 = (scale * (ep.q2 * f[0] + f[1]) if cube else 0j
                     for f in (f20, f11, f02))

    def resolvent(n: int, s: complex) -> tuple[_Vec, _Vec]:
        """s - tau * L_n(e^{-s}): mode n's linear system at frequency s."""
        ksq = p.wavenumber_sq(n)
        decay = cmath.exp(-s)
        return ((s - tau * (j_mm * decay - p.d * ksq),
                 -(tau * (p.r * eq.m * decay))),
                (tau * (eq.a / p.gamma),
                 s - tau * ((-(p.alpha + eq.m) - ksq) / p.gamma)))

    e1: dict[int, _Vec] = {}
    e2: dict[int, _Vec] = {}
    for n, weight in weights.items():
        e1[n] = _solve(resolvent(n, 2j * wt),
                       (tau * weight * f20[0], tau * weight * f20[1]),
                       f"resonance: twice the crossing frequency is an "
                       f"eigenvalue of mode {n}",
                       f"ill-conditioned quadratic solve, mode {n}")
        e2[n] = _solve(resolvent(n, 0.0),
                       (tau * weight * f11[0], tau * weight * f11[1]),
                       f"singular zero-frequency system for mode {n}: the "
                       f"steady state is degenerate",
                       f"ill-conditioned static solve, mode {n}")

    q0, q0c = (1.0, ep.q1), (1.0, ep.q1.conjugate())

    def w(theta: float, plus: complex, minus: complex,
          e: dict[int, _Vec], s: complex) -> _Vec:
        """plus q e^{i wt theta} - minus conj(q) e^{-i wt theta}, times cube,
        plus each mode's e[n] e^{s theta} times its weight."""
        rise, fall = cmath.exp(1j * wt * theta), cmath.exp(-1j * wt * theta)
        out = [(plus * q0[j] * rise - minus * q0c[j] * fall) * cube
               for j in (0, 1)]
        for n, weight in weights.items():
            out = [v + x * cmath.exp(s * theta) * weight
                   for v, x in zip(out, e[n])]
        return out[0], out[1]

    w20 = (-g20 / (1j * wt), g02.conjugate() / (3j * wt), e1, 2j * wt)
    w11 = (g11 / (1j * wt), g11.conjugate() / (1j * wt), e2, 0.0)
    w20_m1, w20_0 = w(-1.0, *w20), w(0.0, *w20)
    w11_m1, w11_0 = w(-1.0, *w11), w(0.0, *w11)

    c2, c3, c4, c5 = (ex.uu_cross, -ex.uu_delay, ex.uuu_delay,
                      -ex.u_uu_delay)
    em = cmath.exp(-1j * wt)
    epl = em.conjugate()
    q1, q1c = ep.q1, ep.q1.conjugate()

    q1_term = ep.q2 * (6.0 * c4 * em - 2.0 * c5 * (2.0 + em ** 2))
    q2_term = (ep.q2 * (ex.uv_delay * (2.0 * w11_m1[1] + w20_m1[1]
                               + q1c * epl * w20_0[0]
                               + 2.0 * q1 * em * w11_0[0])
                        + c2 * (2.0 * w11_m1[0] + w20_m1[0]
                                + epl * w20_0[0] + 2.0 * em * w11_0[0])
                        - 2.0 * c3 * (2.0 * em * w11_m1[0]
                                      + epl * w20_m1[0]))
               + (ex.uv_now / p.gamma) * (2.0 * w11_0[1] + w20_0[1]
                                          + q1c * w20_0[0]
                                          + 2.0 * q1 * w11_0[0]))

    return CenterManifoldTerms(
        g20=g20, g11=g11, g02=g02,
        w20_m1=w20_m1, w20_0=w20_0, w11_m1=w11_m1, w11_0=w11_0,
        e1=e1, e2=e2, f_hat_20=f20, f_hat_11=f11,
        q1_term=q1_term, q2_term=q2_term, quartic=quart)


def hopf_coefficients(p: ModelParams) -> HopfCoefficients:
    """Full normal-form pipeline at the first critical delay.

    Locates tau_star and its critical mode, builds the eigendirections,
    the quadratic constants and the manifold corrections, assembles g21
    and c1(0), and classifies the bifurcating orbit by the signs of mu2,
    beta2 and T2.
    """
    ts = tau_star(p)
    ep = eigenpair(p, ts.n0, ts.omega, ts.tau)
    cm = center_manifold_terms(p, ep)
    g20, g11, g02 = cm.g20, cm.g11, cm.g02
    g21 = ep.tau_star * ep.m_norm * (cm.q1_term * cm.quartic + cm.q2_term)
    wt = ep.omega * ep.tau_star
    try:
        c1 = (1j / (2.0 * wt)
              * (g20 * g11 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0)
              + g21 / 2.0)
    except OverflowError as exc:
        raise NumericalError(f"normal-form constants overflow: |g11| = "
                             f"{abs(g11):.3e}, |g02| = {abs(g02):.3e}"
                             ) from exc
    slope = eigenvalue_slope(p, ts.n0, 1j * ts.omega, ts.tau)
    if slope.real == 0.0:
        raise NumericalError("vanishing transversality at the crossing")
    mu2 = -c1.real / (ep.tau_star * slope.real)
    beta2 = 2.0 * c1.real
    t2 = -(c1.imag + mu2 * (ep.omega + ep.tau_star * slope.imag)) / wt
    return HopfCoefficients(
        g21=g21, c1=c1,
        mu2=mu2, beta2=beta2, t2=t2,
        direction="forward" if mu2 > 0 else "backward",
        orbit_stability="stable" if beta2 < 0 else "unstable",
        period_trend="increasing" if t2 > 0 else "decreasing",
        tau_star=ts, eigenpair=ep, manifold=cm,
    )
