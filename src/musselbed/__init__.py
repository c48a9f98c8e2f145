"""Bifurcation analysis of a delayed mussel-algae reaction-diffusion model.

The package splits into closed-form analysis (`model`, `linear`, `delay`,
`normal_form`), time integration (`sim`), and independent numerical
oracles that re-derive the same quantities from raw definitions
(`verify`).  The `cli` module exposes every piece as a batch command.
"""

from .delay import (HopfPoint, SpectralCoeffsDelay, TauStar, char_residual,
                    delay_char_coeffs, eigenvalue_slope, mode_ceiling,
                    tau_star)
from .exceptions import HypothesisError, MusselbedError, NumericalError
from .linear import (RHopfPoint, SpectralCoeffsNoDelay, TuringCurvePoint,
                     TuringReport, boundary_stability, char_coeffs_no_delay,
                     eigenvalues_no_delay, hopf_points_in_r, r_star,
                     turing_analysis, turing_curve)
from .model import (Equilibrium, HypothesisReport, ModelParams,
                    check_hypotheses, delta0, hypothesis_h1,
                    positive_equilibrium, reaction_rhs, rho0)
from .normal_form import (CenterManifoldTerms, Eigenpair, HopfCoefficients,
                          NonlinearExpansion, center_manifold_terms,
                          eigenpair, hopf_coefficients, nonlinear_expansion)
from .sim import (Grid, OrbitSummary, SweepPoint, Trajectory,
                  amplitude_sweep, detect_orbit, lyapunov_value,
                  simulate_ode, simulate_pde)
from .verify import (RegionMap, RootTrack, bilinear_pairing_quadrature,
                     discrete_spectrum, grid_classify, newton_track_root)

__version__ = "1.0.0"

__all__ = [
    "CenterManifoldTerms",
    "Eigenpair",
    "Equilibrium",
    "Grid",
    "HopfCoefficients",
    "HopfPoint",
    "HypothesisError",
    "HypothesisReport",
    "ModelParams",
    "MusselbedError",
    "NonlinearExpansion",
    "NumericalError",
    "OrbitSummary",
    "RHopfPoint",
    "RegionMap",
    "RootTrack",
    "SpectralCoeffsDelay",
    "SpectralCoeffsNoDelay",
    "SweepPoint",
    "TauStar",
    "Trajectory",
    "TuringCurvePoint",
    "TuringReport",
    "amplitude_sweep",
    "bilinear_pairing_quadrature",
    "boundary_stability",
    "center_manifold_terms",
    "char_coeffs_no_delay",
    "char_residual",
    "check_hypotheses",
    "delay_char_coeffs",
    "delta0",
    "detect_orbit",
    "discrete_spectrum",
    "eigenpair",
    "eigenvalue_slope",
    "eigenvalues_no_delay",
    "grid_classify",
    "hopf_coefficients",
    "hopf_points_in_r",
    "hypothesis_h1",
    "lyapunov_value",
    "mode_ceiling",
    "newton_track_root",
    "nonlinear_expansion",
    "positive_equilibrium",
    "r_star",
    "reaction_rhs",
    "rho0",
    "simulate_ode",
    "simulate_pde",
    "tau_star",
    "turing_analysis",
    "turing_curve",
    "__version__",
]
