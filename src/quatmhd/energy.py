"""Energy functional J(u, B), its term bookkeeping, and the computable
coercivity conditions.

J(u,B) = (1/Re)||Du||^2 - (1/mu0) Sc<Vec((DB)B), u>
         + (1/Rm)||DB||^2 + Sc<Sc(uD)B - Sc(BD)u, B>
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import QField, h1_norm, l2_norm, sc_inner
from .mhd import MHDParams, _derive, _Derived
from .operators import dirac_fwd

__all__ = [
    "EnergyReport",
    "energy",
    "coercivity_radius",
    "is_coercive",
    "lower_bound_estimate",
]


@dataclass(frozen=True)
class EnergyReport:
    J: float
    viscous_u: float
    viscous_B: float
    lorentz_coupling: float
    induction_coupling: float
    coercivity_ok: bool
    rho_max: float


def energy(u: QField, B: QField, params: MHDParams,
           Cs: float | None = None) -> EnergyReport:
    """Evaluate J(u, B) and its four terms. When the Poisson constant Cs is
    supplied, the coercivity radius and flag are evaluated at ||B||_H1;
    otherwise rho_max is NaN and the flag false."""
    return _energy_of(u, B, params, Cs, _derive(u, B, params.mu0),
                      None if Cs is None else h1_norm(B))


def _energy_of(u: QField, B: QField, params: MHDParams, Cs: float | None,
               d: _Derived, B_h1: float | None) -> EnergyReport:
    """energy(u, B, params, Cs) from the state's mhd._derive fields d and
    B_h1 = ||B||_H1 (read only with Cs)."""
    viscous_u = l2_norm(dirac_fwd(u)) ** 2 / params.Re
    viscous_B = d.DB_l2 ** 2 / params.Rm
    lor = sc_inner(d.lor, u)
    ind = sc_inner(d.ind, B)
    J = viscous_u - lor + viscous_B + ind
    if Cs is None:
        ok, rho = False, math.nan
    else:
        rho = coercivity_radius(params, Cs)
        ok = is_coercive(B_h1, params, Cs)
    return EnergyReport(J, viscous_u, viscous_B, lor, ind, ok, rho)


def coercivity_radius(params: MHDParams, Cs: float) -> float:
    """rho < min{Cs/Re, Cs/Rm} / (1 + 1/(2 mu0))."""
    if Cs <= 0:
        raise ValueError("Cs must be positive")
    return min(Cs / params.Re, Cs / params.Rm) / (1.0 + 1.0 / (2.0 * params.mu0))


def is_coercive(B_h1: float, params: MHDParams, Cs: float) -> bool:
    """Sufficient coercivity condition: ||B||_H1 strictly below the radius."""
    if B_h1 < 0:
        raise ValueError("B_h1 must be nonnegative")
    return B_h1 < coercivity_radius(params, Cs)


def lower_bound_estimate(u_h1: float, B_h1: float, params: MHDParams,
                         Cs: float) -> float:
    """The displayed two-bracket lower bound
    [Cs/Re - (1/2)(2 + 1/mu0) ||B||] ||u||^2
    + [Cs/Rm - (1/2)(2 + 1/mu0) ||B||] ||B||^2.
    Evaluated verbatim; not asserted as a bound of energy()."""
    if u_h1 < 0 or B_h1 < 0:
        raise ValueError("norms must be nonnegative")
    half = 0.5 * (2.0 + 1.0 / params.mu0) * B_h1
    return (Cs / params.Re - half) * u_h1**2 + (Cs / params.Rm - half) * B_h1**2
