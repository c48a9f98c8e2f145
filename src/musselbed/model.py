"""Core model: parameters, kinetics, equilibria, and hypothesis predicates.

The dimensionless system on the interval (0, l*pi) is

    dm/dt       = d * Lap(m) + m(t) * (r * a(t - tau) - 1 / (1 + m(t - tau))),
    gamma da/dt = Lap(a) + alpha * (1 - a(t)) - m(t) * a(t),

with homogeneous Neumann boundary conditions: m is the mussel biomass, a the
algae concentration.  `reaction_rhs` evaluates the kinetic (non-diffusive)
part with the time-scale ratio gamma already folded into the algae equation,
so it is the right-hand side actually integrated by the simulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .exceptions import HypothesisError


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model parameters.

    r      rescaled capture rate
    alpha  exchange rate between the algae bed and the overlying water
    gamma  time-scale ratio between the two species
    d      diffusivity ratio (mussel over algae)
    tau    digestion delay
    l      domain half-length; the spatial domain is (0, l*pi)

    All fields must be finite and strictly positive except tau, which may
    be zero.  Mode n of the Neumann Laplacian has wave number n/l.
    """

    r: float
    alpha: float
    gamma: float
    d: float = 1.0
    tau: float = 0.0
    l: float = 1.0

    def __post_init__(self) -> None:
        for name in ("r", "alpha", "gamma", "d", "l"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} must be finite and strictly positive, "
                    f"got {value!r}")
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(
                f"tau must be finite and nonnegative, got {self.tau!r}")

    def wavenumber_sq(self, n: int) -> float:
        """Squared wave number (n/l)**2 of the n-th cosine mode, inf where
        it overflows, as it is where n/l itself does."""
        try:
            return (n / self.l) ** 2
        except OverflowError:
            return math.inf


class Equilibrium(NamedTuple):
    """A spatially homogeneous steady state (m, a)."""

    m: float
    a: float


class HypothesisReport(NamedTuple):
    """Outcome of the three structural hypothesis checks.

    h1: the coexistence state exists (0 < alpha < 1 < r < 1/alpha).
    h2: the homogeneous mode is delay-free stable (delta0^2 - rho0 < 0).
    h3: zero is excluded as an eigenvalue for every spatial mode.

    `details` records the evaluated quantities (or the reason a predicate
    could not be evaluated) as (name, value) pairs, value possibly NaN.
    """

    h1: bool
    h2: bool
    h3: bool
    details: tuple[tuple[str, float], ...]


def reaction_rhs(m_now, a_now, m_delayed, a_delayed, p: ModelParams):
    """Kinetic rates (dm/dt, da/dt) at the given current and delayed states.

    With matched arguments (m_delayed == m_now, a_delayed == a_now) this is
    the delay-free kinetics.  Accepts scalars or numpy arrays elementwise.
    """
    dm = m_now * (p.r * a_delayed - 1.0 / (1.0 + m_delayed))
    da = (p.alpha * (1.0 - a_now) - m_now * a_now) / p.gamma
    return dm, da


def h1_holds(alpha: float, r: float) -> bool:
    """True iff 0 < alpha < 1 < r < 1/alpha (strict, exact comparisons)."""
    return 0.0 < alpha < 1.0 < r < 1.0 / alpha


def hypothesis_h1(p: ModelParams) -> bool:
    """h1_holds at the parameter point: the coexistence state exists."""
    return h1_holds(p.alpha, p.r)


def coexistence_state(alpha: float, r: float) -> tuple[float, float]:
    """(m*, a*) of the coexistence state, from plain floats.

    m* = alpha*(r - 1)/(1 - alpha*r) and a* = (1 - alpha*r)/(r*(1 - alpha));
    both components are strictly positive exactly when h1 holds, and a
    HypothesisError is raised when it does not.
    """
    if not h1_holds(alpha, r):
        raise HypothesisError(
            "no positive equilibrium: need 0 < alpha < 1 < r < 1/alpha, "
            f"got alpha={alpha!r}, r={r!r}"
        )
    return (alpha * (r - 1.0) / (1.0 - alpha * r),
            (1.0 - alpha * r) / (r * (1.0 - alpha)))


def positive_equilibrium(p: ModelParams) -> Equilibrium:
    """The coexistence steady state (m*, a*); see coexistence_state."""
    return Equilibrium(*coexistence_state(p.alpha, p.r))


def delayed_self_term(m: float) -> float:
    """m/(1+m)^2 at the mussel level m, the derivative of dm/dt in the
    delayed m."""
    return m / (1.0 + m) ** 2


def delta0(p: ModelParams) -> float:
    """(1 - alpha*r)/(1 - alpha); equals r*a* whenever the coexistence state exists."""
    return (1.0 - p.alpha * p.r) / (1.0 - p.alpha)


def rho0(p: ModelParams) -> float:
    """r*(1 - alpha)/(gamma*(r - 1)); defined only for r != 1."""
    if p.r == 1.0:
        raise ZeroDivisionError("rho0 is undefined at r = 1")
    return p.r * (1.0 - p.alpha) / (p.gamma * (p.r - 1.0))


def hopf_margin(p: ModelParams) -> float:
    """delta0^2 - rho0: negative exactly where h2 holds, zero at Hopf points."""
    return delta0(p) ** 2 - rho0(p)


def zero_mode_det(alpha: float, r: float, a: float) -> float:
    """alpha*r*(r - 1)*a, from plain floats; at the algae level a* it is
    gamma times the kinetic Jacobian's determinant."""
    return alpha * r * (r - 1.0) * a


def check_hypotheses(p: ModelParams) -> HypothesisReport:
    """Evaluate the three structural hypotheses with strict comparisons.

    h2 is delta0(r)^2 - rho0(r) < 0.  h3 holds when either
    d*gamma*rho0 - delta0^2 > 0, or that quantity is negative and
    (d*gamma*rho0 - delta0^2)^2 - 4*d*D0/m*^2 < 0, where D0 is
    zero_mode_det at the coexistence state.

    Boundary cases (equalities) are reported false.  When r <= 1 makes
    rho0 undefined, or the coexistence state is missing, h2/h3 are
    reported false with the reason recorded in details, and so they are
    when alpha = 1 makes delta0 undefined, when gamma*(r - 1) underflows
    to 0 (rho0 divides by it) and when delta0^2 overflows.  When m*^2
    underflows to 0 the discriminant is undefined, and h3 holds exactly
    when d*gamma*rho0 - delta0^2 > 0.
    """
    details: list[tuple[str, float]] = [("alpha", p.alpha), ("r", p.r)]
    h1 = hypothesis_h1(p)
    if p.r <= 1.0:
        details.append(("rho0 undefined: r <= 1", math.nan))
        return HypothesisReport(h1, False, False, tuple(details))
    if p.alpha == 1.0:
        details.append(("delta0 undefined: alpha = 1", math.nan))
        return HypothesisReport(h1, False, False, tuple(details))
    if p.gamma * (p.r - 1.0) == 0.0:
        details.append(("rho0 undefined: gamma*(r - 1) underflows to 0",
                        math.nan))
        return HypothesisReport(h1, False, False, tuple(details))

    d0 = delta0(p)
    if math.isfinite(d0) and math.isinf(d0 * d0):
        # hopf_margin's delta0 ** 2 would raise OverflowError.  This
        # needs alpha*r > 1, so h1 fails too.
        details.append(("delta0^2 overflows", math.nan))
        return HypothesisReport(h1, False, False, tuple(details))
    r0 = rho0(p)
    h2_value = hopf_margin(p)
    h2 = h2_value < 0.0
    details.append(("delta0^2 - rho0", h2_value))

    if not h1:
        # r > 1 but alpha*r >= 1: no coexistence state, so the mode
        # determinants entering h3 are meaningless.
        details.append(("h3 unevaluated: no coexistence state", math.nan))
        return HypothesisReport(h1, h2, False, tuple(details))

    eq = positive_equilibrium(p)
    d_tilde_0 = zero_mode_det(p.alpha, p.r, eq.a)
    spread = p.d * p.gamma * r0 - d0 * d0
    details.append(("d*gamma*rho0 - delta0^2", spread))
    m_sq = eq.m * eq.m
    if m_sq == 0.0:
        details.append(("discriminant undefined: m*^2 underflows to 0",
                        math.nan))
        return HypothesisReport(h1, h2, spread > 0.0, tuple(details))
    disc = spread * spread - 4.0 * p.d * d_tilde_0 / m_sq
    h3 = spread > 0.0 or (spread < 0.0 and disc < 0.0)
    details.append(("(d*gamma*rho0 - delta0^2)^2 - 4*d*D0/m*^2", disc))
    return HypothesisReport(h1, h2, h3, tuple(details))
