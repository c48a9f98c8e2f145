"""Bifurcation analysis of a delayed mussel-algae reaction-diffusion model.

The package splits into closed-form analysis (`model`, `linear`, `delay`,
`normal_form`), time integration (`sim`), and independent numerical
oracles that re-derive the same quantities from raw definitions
(`verify`), paired with the closed forms in `checks`.  The `cli` module
exposes every piece as a batch command.

Names resolve lazily (PEP 562): a public name or a submodule is imported
on first access, so a process loads only the layers it uses.
"""

from importlib import import_module

__version__ = "1.0.0"

# Each public name under the module that defines it.
_EXPORTS = {
    "delay": ("HopfPoint", "SpectralCoeffsDelay", "TauStar", "char_residual",
              "delay_char_coeffs", "eigenvalue_slope", "mode_ceiling",
              "tau_star"),
    "exceptions": ("HypothesisError", "MusselbedError", "NumericalError"),
    "linear": ("RHopfPoint", "SpectralCoeffsNoDelay", "TuringCurvePoint",
               "TuringReport", "boundary_stability", "char_coeffs_no_delay",
               "eigenvalues_no_delay", "hopf_points_in_r", "r_star",
               "turing_analysis", "turing_curve"),
    "model": ("Equilibrium", "HypothesisReport", "ModelParams",
              "check_hypotheses", "delta0", "hypothesis_h1",
              "positive_equilibrium", "reaction_rhs", "rho0"),
    "normal_form": ("CenterManifoldTerms", "Eigenpair", "HopfCoefficients",
                    "NonlinearExpansion", "center_manifold_terms", "eigenpair",
                    "hopf_coefficients", "nonlinear_expansion"),
    "sim": ("Grid", "OrbitSummary", "SweepPoint", "Trajectory",
            "amplitude_sweep", "detect_orbit", "lyapunov_value",
            "simulate_ode", "simulate_pde"),
    "verify": ("RegionMap", "RootTrack", "bilinear_pairing_quadrature",
               "discrete_spectrum", "grid_classify", "newton_track_root"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = (*_EXPORTS, "checks", "cli")

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
