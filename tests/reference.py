"""Exact references of the well-mixed fraction equation, which tests compare
the simulator against.

For constant switch rates the normal fraction of a space-free population
obeys d(mu)/dt = f(mu) with

    f(mu) = -mu*K1 + (1-mu)*K2 + D*mu*(1-mu),

whose roots nu* < 0 < mu* are `kinetics.equilibrium_roots`.
"""

from __future__ import annotations

import numpy as np

from autophagy_tumor.kinetics import ReactionEquilibrium


def reaction_rate_f(mu, D: float, K1: float, K2: float):
    return -mu * K1 + (1.0 - mu) * K2 + D * mu * (1.0 - mu)


def mu_ode_closed_form(z0: float, t, eq: ReactionEquilibrium, D: float):
    """Exact solution z(t) of dz/dt = f(z), z(0) = z0, for constant rates.

    Uses the invariant (z - mu*)/(z - nu*) = exp(-D*(mu*-nu*)*t) * (z0 - mu*)/(z0 - nu*).
    `t` may be a scalar or an array. Valid for z0 > nu* (below the repelling
    root the solution escapes to -infinity in finite time).
    """
    if z0 <= eq.nu_star:
        raise ValueError(f"z0={z0} must exceed the negative root nu*={eq.nu_star}")
    w = np.exp(-D * (eq.mu_star - eq.nu_star) * np.asarray(t, dtype=float))
    w = w * ((z0 - eq.mu_star) / (z0 - eq.nu_star))
    # w < 1 always (the t=0 ratio is < 1 and decays), so no pole here
    z = (eq.mu_star - w * eq.nu_star) / (1.0 - w)
    return float(z) if np.ndim(t) == 0 else z


def wellmixed_pointwise_bound(z0: float, t, eq: ReactionEquilibrium, D: float):
    """Envelope for |z(t) - mu*|: coefficient * exp(-D*(mu*-nu*)*t) * |z0 - mu*|.

    The coefficient (max(z0, mu*) - nu*)/(z0 - nu*) equals 1 for z0 >= mu*.
    """
    if z0 <= eq.nu_star:
        raise ValueError(f"z0={z0} must exceed the negative root nu*={eq.nu_star}")
    coef = (max(z0, eq.mu_star) - eq.nu_star) / (z0 - eq.nu_star)
    return coef * np.exp(-D * (eq.mu_star - eq.nu_star) * np.asarray(t, dtype=float)) * abs(
        z0 - eq.mu_star
    )
