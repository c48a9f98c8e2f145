"""The 300 box draws that the roadmap's oracle counts are measured on.

Points from `numpy.random.default_rng(3)`, drawn one point at a time in
the order alpha, r, gamma, d, l, each uniform on the box that `musselbed
verify` and the benchmark's analysis workload sample.  At 16 of them h2
or h3 fails; the other 284 have a first critical delay, from 0.089 to
3.2e8.
"""

from __future__ import annotations

import numpy as np

from musselbed import HypothesisError, ModelParams, TauStar, tau_star


def box_draws() -> list[ModelParams]:
    rng = np.random.default_rng(3)
    out = []
    for _ in range(300):
        alpha = float(rng.uniform(0.05, 0.9))
        r = float(rng.uniform(1.05, 1.0 / alpha))
        gamma = float(rng.uniform(0.1, 5.0))
        d = float(rng.uniform(0.01, 2.0))
        l = float(rng.uniform(0.5, 2.0))
        out.append(ModelParams(r=r, alpha=alpha, gamma=gamma, d=d, l=l))
    return out


def admissible_draws() -> list[tuple[ModelParams, TauStar]]:
    """(p, tau_star(p, j_max=3)) at each draw that has a crossing."""
    out = []
    for p in box_draws():
        try:
            out.append((p, tau_star(p, j_max=3)))
        except HypothesisError:
            pass
    return out
