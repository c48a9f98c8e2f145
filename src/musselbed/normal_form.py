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
matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .delay import TauStar, char_residual, eigenvalue_slope, tau_star
from .exceptions import NumericalError
from .model import ModelParams, positive_equilibrium

_RESIDUAL_TOL = 1e-8
# Genuine branch or sign errors violate the pairing identities at O(1);
# roundoff at long-delay crossings can reach a few 1e-10.
_PAIRING_TOL = 1e-8
_SOLVE_TOL = 1e-12
_DET_GUARD = 1e-14


@dataclass(frozen=True)
class Eigenpair:
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


@dataclass(frozen=True)
class NonlinearExpansion:
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

    def evaluate(self, u_now: float, u_delay: float,
                 v_now: float, v_delay: float) -> tuple[float, float]:
        """Evaluate the truncated (cubic) kinetics at a deviation point."""
        f1 = (self.uv_delay * u_now * v_delay
              + self.uu_cross * u_now * u_delay
              + self.uu_delay * u_delay ** 2
              + self.uuu_delay * u_delay ** 3
              + self.u_uu_delay * u_now * u_delay ** 2)
        f2 = self.uv_now * u_now * v_now
        return f1, f2


@dataclass(frozen=True)
class CenterManifoldTerms:
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
    w20_m1: np.ndarray
    w20_0: np.ndarray
    w11_m1: np.ndarray
    w11_0: np.ndarray
    e1: dict[int, np.ndarray]
    e2: dict[int, np.ndarray]
    f_hat_20: np.ndarray
    f_hat_11: np.ndarray
    q1_term: complex
    q2_term: complex
    quartic: float


@dataclass(frozen=True)
class HopfCoefficients:
    """Normal-form constants and the resulting orbit classification,
    with the crossing, eigenpair and manifold terms they were built from."""

    g20: complex
    g11: complex
    g02: complex
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
    mode's characteristic function, or when the closed-form normalization
    fails its own pairing identities.
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
    q2 = shift / (p.gamma * p.r * eq.m * rot)
    denom = (q1 + q2) + tau * q2 * (eq.delayed_self + q1 * p.r * eq.m) * rot
    if abs(denom) < _DET_GUARD:
        raise NumericalError("degenerate eigenvector normalization")
    m_norm = 1.0 / denom
    ep = Eigenpair(q1=q1, q2=q2, m_norm=m_norm,
                   omega=omega, tau_star=tau, n0=n0)
    same, cross = _pairings(p, ep)
    if abs(same - 1.0) > _PAIRING_TOL or abs(cross) > _PAIRING_TOL:
        raise NumericalError(
            f"eigenvector pairing identities violated: (q*,q)={same:.3e}, "
            f"(q*,conj q)={cross:.3e}")
    return ep


def _pairings(p: ModelParams, ep: Eigenpair) -> tuple[complex, complex]:
    """Closed-form bilinear pairings (q*, q) and (q*, conj q)."""
    eq = positive_equilibrium(p)
    wt = ep.omega * ep.tau_star
    rot = cmath.exp(-1j * wt)
    same = ep.m_norm * ((ep.q1 + ep.q2)
                        + ep.tau_star * ep.q2
                        * (eq.delayed_self + ep.q1 * p.r * eq.m) * rot)
    q1c = ep.q1.conjugate()
    cross = ep.m_norm * ((ep.q2 + q1c)
                         + ep.tau_star * ep.q2
                         * (eq.delayed_self + q1c * p.r * eq.m)
                         * math.sin(wt) / wt)
    return same, cross


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
                        ex: NonlinearExpansion
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kinetics evaluated on the quadratic monomials of the center basis.

    Returns the three 2-vectors multiplying z^2, z*conj z and conj z^2 in
    Gamma^{-1} f restricted to the eigenplane (spatial profile factored
    out).
    """
    c2, c3 = ex.uu_cross, -ex.uu_delay
    em = cmath.exp(-1j * ep.omega * ep.tau_star)
    epl = em.conjugate()
    q1, q1c = ep.q1, ep.q1.conjugate()
    f20 = np.array([2 * p.r * q1 * em + 2 * c2 * em - 2 * c3 * em ** 2,
                    -2.0 * q1 / p.gamma], dtype=complex)
    f11 = np.array([2 * (p.r * q1 * em + c2 * em).real - 2 * c3,
                    -(q1 + q1c) / p.gamma], dtype=complex)
    f02 = np.array([2 * p.r * q1c * epl + 2 * c2 * epl - 2 * c3 * epl ** 2,
                    -2.0 * q1c / p.gamma], dtype=complex)
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
    tau = ep.tau_star
    wt = ep.omega * tau
    cube, quart, weights = _mode_integrals(p, ep.n0)
    ex = nonlinear_expansion(p)
    f20, f11, f02 = _quadratic_brackets(p, ep, ex)
    if cube == 0.0:
        g20 = g11 = g02 = 0j
    else:
        scale = tau * ep.m_norm * cube
        g20 = scale * (ep.q2 * f20[0] + f20[1])
        g11 = scale * (ep.q2 * f11[0] + f11[1])
        g02 = scale * (ep.q2 * f02[0] + f02[1])

    def generator(n: int, z: complex) -> np.ndarray:
        ksq = p.wavenumber_sq(n)
        decay = cmath.exp(-z)
        return tau * np.array(
            [[eq.delayed_self * decay - p.d * ksq, p.r * eq.m * decay],
             [-eq.a / p.gamma, (-(p.alpha + eq.m) - ksq) / p.gamma]],
            dtype=complex)

    e1: dict[int, np.ndarray] = {}
    e2: dict[int, np.ndarray] = {}
    for n, weight in weights.items():
        rhs20 = tau * weight * f20
        rhs11 = tau * weight * f11
        a_res = 2j * wt * np.eye(2) - generator(n, 2j * wt)
        det = a_res[0, 0] * a_res[1, 1] - a_res[0, 1] * a_res[1, 0]
        if abs(det) < _DET_GUARD:
            raise NumericalError(
                f"resonance: twice the crossing frequency is an eigenvalue "
                f"of mode {n} (determinant {abs(det):.3e})")
        vec1 = np.linalg.solve(a_res, rhs20)
        if np.max(np.abs(a_res @ vec1 - rhs20)) > _SOLVE_TOL:
            raise NumericalError(f"ill-conditioned quadratic solve, mode {n}")
        a_zero = generator(n, 0.0)
        det0 = a_zero[0, 0] * a_zero[1, 1] - a_zero[0, 1] * a_zero[1, 0]
        if abs(det0) < _DET_GUARD:
            raise NumericalError(
                f"singular zero-frequency system for mode {n}: the steady "
                f"state is degenerate (determinant {abs(det0):.3e})")
        vec2 = np.linalg.solve(a_zero, -rhs11)
        if np.max(np.abs(a_zero @ vec2 + rhs11)) > _SOLVE_TOL:
            raise NumericalError(f"ill-conditioned static solve, mode {n}")
        e1[n] = vec1
        e2[n] = vec2

    q0 = np.array([1.0, ep.q1], dtype=complex)
    q0c = q0.conjugate()

    def w20(theta: float) -> np.ndarray:
        base = (-g20 / (1j * wt) * q0 * cmath.exp(1j * wt * theta)
                - g02.conjugate() / (3j * wt) * q0c
                * cmath.exp(-1j * wt * theta)) * cube
        for n, weight in weights.items():
            base = base + e1[n] * cmath.exp(2j * wt * theta) * weight
        return base

    def w11(theta: float) -> np.ndarray:
        base = (g11 / (1j * wt) * q0 * cmath.exp(1j * wt * theta)
                - g11.conjugate() / (1j * wt) * q0c
                * cmath.exp(-1j * wt * theta)) * cube
        for n, weight in weights.items():
            base = base + e2[n] * weight
        return base

    w20_m1, w20_0 = w20(-1.0), w20(0.0)
    w11_m1, w11_0 = w11(-1.0), w11(0.0)

    c2, c3, c4, c5 = (ex.uu_cross, -ex.uu_delay, ex.uuu_delay,
                      -ex.u_uu_delay)
    em = cmath.exp(-1j * wt)
    epl = em.conjugate()
    q1, q1c = ep.q1, ep.q1.conjugate()

    q1_term = ep.q2 * (6.0 * c4 * em - 2.0 * c5 * (2.0 + em ** 2))
    q2_term = (ep.q2 * (p.r * (2.0 * w11_m1[1] + w20_m1[1]
                               + q1c * epl * w20_0[0]
                               + 2.0 * q1 * em * w11_0[0])
                        + c2 * (2.0 * w11_m1[0] + w20_m1[0]
                                + epl * w20_0[0] + 2.0 * em * w11_0[0])
                        - 2.0 * c3 * (2.0 * em * w11_m1[0]
                                      + epl * w20_m1[0]))
               - (1.0 / p.gamma) * (2.0 * w11_0[1] + w20_0[1]
                                    + q1c * w20_0[0] + 2.0 * q1 * w11_0[0]))

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
    c1 = (1j / (2.0 * wt)
          * (g20 * g11 - 2.0 * abs(g11) ** 2 - abs(g02) ** 2 / 3.0)
          + g21 / 2.0)
    slope = eigenvalue_slope(p, ts.n0, 1j * ts.omega, ts.tau)
    if slope.real == 0.0:
        raise NumericalError("vanishing transversality at the crossing")
    mu2 = -c1.real / (ep.tau_star * slope.real)
    beta2 = 2.0 * c1.real
    t2 = -(c1.imag + mu2 * (ep.omega + ep.tau_star * slope.imag)) / wt
    return HopfCoefficients(
        g20=g20, g11=g11, g02=g02, g21=g21, c1=c1,
        mu2=mu2, beta2=beta2, t2=t2,
        direction="forward" if mu2 > 0 else "backward",
        orbit_stability="stable" if beta2 < 0 else "unstable",
        period_trend="increasing" if t2 > 0 else "decreasing",
        tau_star=ts, eigenpair=ep, manifold=cm,
    )
