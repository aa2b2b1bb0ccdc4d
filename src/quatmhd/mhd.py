"""Stationary incompressible viscous MHD: nonlinear terms, strong and weak
residuals, the TQT integral-form right-hand sides, and the discrete Leray
projection.

Conventions. States are cell-centered quaternion fields with u, B pure
vectors and p scalar, zero-mean. Sc(aD)w is realized as the advection
(a.grad)w with central differences; D^2 is realized as -laplacian via the
factorization of the Laplacian. The coefficient exponents of the integral
form differ between the source schemes and are selected by exponent_mode:
"linear" (Re, Rm on the nonlinear terms), "squared" (Re^2, Rm^2), or
"mixed" (linear on the nonlinear velocity term, squared on the pressure
term, as displayed for the contraction scheme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .grid import BoundaryData, QField, VoxelDomain, sc_inner
from .operators import (OperatorSet, _dcen, _dfwd, dirac_fwd, div_fwd,
                        grad_bwd, laplacian)
from .quaternion import qmul_arr

__all__ = [
    "MHDParams",
    "MHDState",
    "convective",
    "lorentz",
    "M_of",
    "residual_strong",
    "residual_weak",
    "tqt_rhs_u",
    "tqt_rhs_B",
    "tqt_rhs_p",
    "leray_project",
    "boundary_B_term",
]

_MODES = ("linear", "squared", "mixed")


@dataclass
class MHDParams:
    """Physical parameters and boundary data of the stationary MHD system."""

    Re: float
    Rm: float
    mu0: float = 1.0
    boundary_h: BoundaryData | None = None
    exponent_mode: str = "linear"

    def __post_init__(self):
        for name in ("Re", "Rm", "mu0"):
            v = getattr(self, name)
            if not (isinstance(v, Real) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if self.exponent_mode not in _MODES:
            raise ValueError(f"exponent_mode must be one of {_MODES}")

    def coeff_u(self) -> float:
        """Coefficient of the nonlinear bracket in the u equation."""
        return {"linear": self.Re, "squared": self.Re**2,
                "mixed": self.Re}[self.exponent_mode] / self.mu0

    def coeff_p(self) -> float:
        """Coefficient of the pressure term in the u equation."""
        return {"linear": self.Re, "squared": self.Re**2,
                "mixed": self.Re**2}[self.exponent_mode]

    def coeff_B(self) -> float:
        """Coefficient of the nonlinear bracket in the B equation."""
        return {"linear": self.Rm, "squared": self.Rm**2,
                "mixed": self.Rm**2}[self.exponent_mode]

    def coeff_prhs(self) -> float:
        """Coefficient of the pressure-equation right-hand side."""
        return {"linear": 1.0, "squared": 1.0,
                "mixed": self.Re}[self.exponent_mode] / self.mu0


@dataclass
class MHDState:
    """Velocity, magnetic field, and zero-mean pressure."""

    u: QField
    B: QField
    p: QField

    def __post_init__(self):
        for name, f in (("u", self.u), ("B", self.B)):
            if not f.is_pure(1e-14 * max(1.0, np.abs(f.values).max())):
                raise ValueError(f"{name} must be a pure vector field")
        if np.abs(self.p.values[..., 1:]).max(initial=0.0) > 0:
            raise ValueError("p must be scalar-valued")
        # enforce the zero-mean normalization of the pressure
        self.p.values[..., 0] -= self.p.values[..., 0].mean()

    @staticmethod
    def zeros(domain: VoxelDomain) -> "MHDState":
        return MHDState(QField.zeros(domain), QField.zeros(domain),
                        QField.zeros(domain))

    def copy(self) -> "MHDState":
        return MHDState(self.u.copy(), self.B.copy(), self.p.copy())


def _require_pure(f: QField, what: str) -> None:
    if not f.is_pure(1e-12 * max(1.0, np.abs(f.values).max())):
        raise ValueError(f"{what} must be a pure vector field")


def convective(a: QField, w: QField) -> QField:
    """Advection (a.grad)w with central differences, the realization of
    the scalar-part operator Sc(aD) applied to w."""
    _require_pure(a, "advection field a")
    h = a.domain.h
    out = np.zeros_like(w.values)
    for i in range(3):
        out += a.values[..., 1 + i:2 + i] * _dcen(w.values, i, h)
    return QField(a.domain, out)


def lorentz(B: QField, mu0: float) -> QField:
    """Magnetic forcing (1/mu0) Vec((DB) B); for divergence-free B this is
    the classical (1/mu0)(curl B) x B."""
    _require_pure(B, "B")
    prod = qmul_arr(dirac_fwd(B).values, B.values)
    prod[..., 0] = 0.0
    return QField(B.domain, prod / mu0)


def M_of(u: QField, B: QField, mu0: float) -> QField:
    """Nonlinearity M(u) = Sc(uD)u - (1/mu0) Vec((DB) B)."""
    return convective(u, u) - lorentz(B, mu0)


def _dirac_scalar(p: QField) -> QField:
    """D applied to a scalar field: the forward-difference gradient."""
    h = p.domain.h
    out = np.zeros_like(p.values)
    for i in range(3):
        out[..., 1 + i] = _dfwd(p.values[..., 0], i, h)
    return QField(p.domain, out)


def _interior_norm(arr: np.ndarray, domain: VoxelDomain) -> float:
    """L2 norm over the non-collar cells (the one-sided fallback layers are
    excluded from residual measurements)."""
    mask = ~domain.collar_mask(1)
    return float(np.sqrt((arr[mask] ** 2).sum() * domain.cell_volume))


def residual_strong(state: MHDState, params: MHDParams,
                    ops: OperatorSet) -> tuple[float, float, float, float]:
    """L2 norms (over non-collar cells) of the momentum residual
    (1/Re) D^2 u - Sc(uD)u + Dp - (1/mu0) Vec((DB)B), the induction residual
    (1/Rm) D^2 B + Sc(uD)B - Sc(BD)u, and of div u, div B."""
    u, B, p = state.u, state.B, state.p
    dom = u.domain
    mom = (-(1.0 / params.Re) * laplacian(u) - convective(u, u)
           + _dirac_scalar(p) - lorentz(B, params.mu0))
    ind = (-(1.0 / params.Rm) * laplacian(B) + convective(u, B)
           - convective(B, u))
    return (_interior_norm(mom.values, dom),
            _interior_norm(ind.values, dom),
            _interior_norm(div_fwd(u), dom),
            _interior_norm(div_fwd(B), dom))


def residual_weak(state: MHDState, params: MHDParams, test_v: QField,
                  test_w: QField) -> tuple[float, float]:
    """Weak residuals of the momentum and induction rows against
    zero-boundary test fields (test_w additionally divergence-free).
    Viscous terms are integrated by parts onto the adjoint-pair Dirac
    operators: sc_inner(D+ a, D+ v)."""
    _require_pure(test_v, "test_v")
    _require_pure(test_w, "test_w")
    if np.abs(test_v.values[test_v.domain.collar_mask(1)]).max(initial=0.0) > 0:
        raise ValueError("test fields must vanish on the boundary collar")
    if np.abs(test_w.values[test_w.domain.collar_mask(1)]).max(initial=0.0) > 0:
        raise ValueError("test fields must vanish on the boundary collar")
    u, B, p = state.u, state.B, state.p
    r_mom = ((1.0 / params.Re) * sc_inner(dirac_fwd(u), dirac_fwd(test_v))
             - sc_inner(convective(u, u), test_v)
             + sc_inner(_dirac_scalar(p), test_v)
             - sc_inner(lorentz(B, params.mu0), test_v))
    r_ind = ((1.0 / params.Rm) * sc_inner(dirac_fwd(B), dirac_fwd(test_w))
             + sc_inner(convective(u, B), test_w)
             - sc_inner(convective(B, u), test_w))
    return r_mom, r_ind


def tqt_rhs_u(state: MHDState, params: MHDParams, ops: OperatorSet,
              p: QField | None = None) -> QField:
    """Right-hand side of the velocity row of the integral form:
    c_u TQT[Vec((DB)B) - Sc(uD)u] - c_p TQT D p evaluated at the
    linearization point `state` (pressure override via `p`)."""
    u, B = state.u, state.B
    if p is None:
        p = state.p
    bracket = params.mu0 * lorentz(B, params.mu0) - convective(u, u)
    out = params.coeff_u() * ops.TQT(bracket)
    out = out - params.coeff_p() * ops.TQT(_dirac_scalar(p))
    return out


def tqt_rhs_B(state: MHDState, params: MHDParams, ops: OperatorSet,
              u: QField | None = None) -> QField:
    """Right-hand side of the magnetic row: c_B TQT[Sc(BD)u - Sc(uD)B]."""
    B = state.B
    if u is None:
        u = state.u
    bracket = convective(B, u) - convective(u, B)
    return params.coeff_B() * ops.TQT(bracket)


def tqt_rhs_p(state: MHDState, params: MHDParams, ops: OperatorSet) -> QField:
    """Scalar right-hand side of the pressure equation:
    c Sc(QT[Vec((DB)B) - Sc(uD)u])."""
    u, B = state.u, state.B
    bracket = params.mu0 * lorentz(B, params.mu0) - convective(u, u)
    qt = ops.bergman_Q(ops.teodorescu(bracket))
    out = np.zeros_like(qt.values)
    out[..., 0] = params.coeff_prhs() * qt.values[..., 0]
    return QField(state.u.domain, out)


def leray_project(u: QField, ops: OperatorSet) -> QField:
    """Remove the gradient part: solve the collar-Dirichlet Poisson problem
    for div u and subtract the backward gradient, which annihilates the
    forward divergence on the non-collar cells."""
    _require_pure(u, "u")
    phi = ops.poisson_scalar(-div_fwd(u))
    pf = QField(u.domain, np.zeros_like(u.values))
    pf.values[..., 0] = phi
    return u - QField(u.domain, grad_bwd(pf).values)


def boundary_B_term(params: MHDParams, ops: OperatorSet) -> QField:
    """Boundary contribution to B for nonzero data h: F_Gamma h plus the
    Teodorescu potential of the monogenic part of D H, where H is the
    harmonic extension of h. Returns zero for h = None."""
    dom = ops.domain
    if params.boundary_h is None:
        return QField.zeros(dom)
    H = harmonic_extension(params.boundary_h, ops)
    out = ops.cauchy(params.boundary_h) + ops.teodorescu(
        ops.bergman_P(dirac_fwd(H)))
    out.values[..., 0] = 0.0  # B is a pure vector field
    return out


def harmonic_extension(g: BoundaryData, ops: OperatorSet) -> QField:
    """Componentwise discrete harmonic extension of boundary values g:
    solve the cell-centered Laplace problem with Dirichlet face data."""
    dom = ops.domain
    rhs = np.zeros((dom.num_cells, 4))
    flat = np.ravel_multi_index(tuple(dom.face_cell.T), dom.n)
    # ghost anti-reflection: a face with value g contributes 2g/h^2
    np.add.at(rhs, flat, 2.0 * g.values / dom.h**2)
    out = np.stack([ops.poisson_faces(rhs[:, c]) for c in range(4)], axis=-1)
    return QField(dom, out.reshape(dom.shape + (4,)))
