"""Stationary incompressible viscous MHD: nonlinear terms, strong and weak
residuals, the TQT integral-form right-hand sides (each takes the fields it
reads, not a state), the linearized map TQT Sc(u~D) of the Schauder scheme
(_convect_solve), and the discrete Leray projection. convective and
_convect_solve share one advection kernel, _advect, which applies the
centered-difference matrices of operators._centered_matrix to the stored
components-first arrays, the matrices that solvers.convection_norm reads.

The integral form's TQT is the collar-Dirichlet solve (poisson_dirichlet),
and its Q T is D+_gz L^-1, so no right-hand side applies the Teodorescu,
Cauchy or Bergman operators. _derive computes what the rows of a state
(u, B) read, once: D+B, the Lorentz force from it, the advection (u, u)
and the induction term Sc(uD)B - Sc(BD)u. residual_strong and energy
derive through it, and the outer loop shares one derivation between a
state's residual and energy rows and the next step's bracket,
momentum_bracket(lor, uu), which the velocity row and the pressure
equation share. The boundary term of B is the vector part of the
harmonic extension of the face data.

Conventions. States are cell-centered quaternion fields, values (4, n1, n2,
n3), with u, B pure vectors (values[1:]) and p scalar (values[0]),
zero-mean. Sc(aD)w is realized as the advection
(a.grad)w with central differences; D^2 is realized as -laplacian via the
factorization of the Laplacian. D p of a scalar p is grad_bwd, the
adjoint of the div+ inside pressure_S. exponent_mode selects the exponents
(a, b, c) of c_u = Re^a/mu0, c_p = Re^b, c_B = Rm^c that every row, residual
and series reads: "linear" (1, 1, 1), "squared" (2, 2, 2) or "mixed"
(1, 2, 2), as displayed for the contraction scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (BoundaryData, QField, VoxelDomain, _finite, _first_live,
                   _inner, l2_norm, sc_inner)
from .operators import (OperatorSet, _along_axis, _centered_matrix,
                        dirac_fwd, div_fwd, grad_bwd, laplacian)
from .quaternion import _add_unit

__all__ = [
    "MHDParams",
    "MHDState",
    "convective",
    "lorentz",
    "M_of",
    "residual_strong",
    "residual_weak",
    "momentum_bracket",
    "tqt_rhs_u",
    "tqt_rhs_B",
    "tqt_rhs_p",
    "leray_project",
    "boundary_B_term",
]

_EXPONENTS = {"linear": (1, 1, 1), "squared": (2, 2, 2), "mixed": (1, 2, 2)}


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
            _finite(getattr(self, name), name, low=0.0)
        if self.exponent_mode not in _EXPONENTS:
            raise ValueError(f"exponent_mode must be in {tuple(_EXPONENTS)}")
        # the coefficients scale every update; each must be a positive float
        for name, coeff in (("c_u", self.coeff_u), ("c_p", self.coeff_p),
                            ("c_B", self.coeff_B),
                            ("c_u/c_p", self.coeff_prhs)):
            try:
                value = coeff()
            except OverflowError:
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"coefficient {name} = {value:g} is not finite and "
                    f"positive (Re={self.Re:g}, Rm={self.Rm:g}, "
                    f"mu0={self.mu0:g}, exponent_mode={self.exponent_mode})")

    def coeff_u(self) -> float:
        """Coefficient c_u = Re^a/mu0 of the bracket in the u equation."""
        return self.Re ** _EXPONENTS[self.exponent_mode][0] / self.mu0

    def coeff_p(self) -> float:
        """Coefficient c_p = Re^b of the pressure term in the u equation."""
        return self.Re ** _EXPONENTS[self.exponent_mode][1]

    def coeff_B(self) -> float:
        """Coefficient c_B = Rm^c of the bracket in the B equation."""
        return self.Rm ** _EXPONENTS[self.exponent_mode][2]

    def coeff_prhs(self) -> float:
        """Coefficient c_u/c_p of the pressure-equation right-hand side."""
        return self.coeff_u() / self.coeff_p()


@dataclass
class MHDState:
    """Velocity, magnetic field, and zero-mean pressure."""

    u: QField
    B: QField
    p: QField

    def __post_init__(self):
        for name, f in (("u", self.u), ("B", self.B)):
            _require_pure(f, name, 1e-14)
        if np.abs(self.p.values[1:]).max(initial=0.0) > 0:
            raise ValueError("p must be scalar-valued")
        # the zero-mean normalization of the pressure, on a copy: the
        # caller's field stays as given
        self.p = self.p.copy()
        self.p.values[0] -= self.p.values[0].mean()

    @staticmethod
    def zeros(domain: VoxelDomain) -> "MHDState":
        return MHDState(QField.zeros(domain), QField.zeros(domain),
                        QField.zeros(domain))

    def copy(self) -> "MHDState":
        return MHDState(self.u.copy(), self.B.copy(), self.p.copy())


def _require_pure(f: QField, what: str, rtol: float = 1e-12) -> None:
    """ValueError unless f's scalar part is within rtol of the field's
    scale. An identically zero scalar part passes without the max over
    the field that sets the scale; a NaN is nonzero and takes the test."""
    if (f.values[0].any()
            and not f.is_pure(rtol * max(1.0, np.abs(f.values).max()))):
        raise ValueError(f"{what} must be a pure vector field")


def convective(a: QField, w: QField) -> QField:
    """Advection (a.grad)w with central differences, the realization of
    the scalar-part operator Sc(aD) applied to w. A scalar part of w that
    is identically zero is not differenced, and the result is +0.0 without
    differencing when no entry of a or of w is live (_first_live)."""
    _require_pure(a, "advection field a")
    out = np.zeros(w.values.shape)
    lo = _first_live(w.values)
    if lo < len(out) and _first_live(a.values) < len(a.values):
        _advect(a.values[1:], w.values[lo:], a.domain.h, out[lo:])
    return QField(a.domain, out)


def _advect(a: np.ndarray, v: np.ndarray, h: float,
            out: np.ndarray | None = None) -> np.ndarray:
    """sum_i a_i D^c_i v over the last three axes of v, leading axes
    batched, added to out (zeros if None): a the vector part of an
    advection field, shape (3,) + the domain's, and D^c_i the centered
    difference matrix along axis i (_centered_matrix)."""
    out = np.zeros(v.shape) if out is None else out
    for i in range(3):
        out += a[i] * _along_axis(v, _centered_matrix(v.shape, i, h), i)
    return out


def _convect_solve(a: np.ndarray, v: np.ndarray,
                   ops: OperatorSet) -> np.ndarray:
    """A v = L^-1 _advect(a, v), a = u~.values[1:], L^-1 the collar solve.
    TQT Sc(u~D) acts on each quaternion component by A, so each component
    equals that of TQT(convective(u~, .)) bit for bit."""
    return ops.poisson_scalar(_advect(a, v, ops.domain.h))


def lorentz(B: QField, mu0: float) -> QField:
    """Magnetic forcing (1/mu0) Vec((DB) B); for divergence-free B this is
    the classical (1/mu0)(curl B) x B."""
    return _lorentz_of(B, dirac_fwd(B), mu0)


def _lorentz_of(B: QField, DB: QField, mu0: float) -> QField:
    """lorentz(B, mu0) from DB = dirac_fwd(B), for a caller that reads DB
    too: sum_j DB_j e_j B in place (quaternion._add_unit), +0.0 when no
    entry of B is live and without the terms of B's zero scalar part
    (_first_live); so an inf in DB stays inf where a full product's
    inf * 0 is NaN, which the divergence guards see either way."""
    _require_pure(B, "B")
    lo = _first_live(B.values)
    if lo == len(B.values):
        return QField.zeros(B.domain)
    out = np.zeros(B.values.shape)
    for j in range(4):
        _add_unit(out, j, lambda c: DB.values[j] * B.values[c], lo)
    out[0] = 0.0
    out /= mu0
    return QField(B.domain, out)


def M_of(u: QField, B: QField, mu0: float) -> QField:
    """Nonlinearity M(u) = Sc(uD)u - (1/mu0) Vec((DB) B)."""
    return convective(u, u) - lorentz(B, mu0)


class _Derived(NamedTuple):
    """What the residual row, the energy row and the next outer step's
    bracket read of one state (u, B) (_derive)."""

    DB_l2: float  # l2_norm(dirac_fwd(B))
    lor: QField   # lorentz(B, mu0), from that D+B
    uu: QField    # convective(u, u)
    ind: QField   # convective(u, B) - convective(B, u)


def _derive(u: QField, B: QField, mu0: float) -> _Derived:
    """Derive each entry of _Derived once. D+B is computed once, for its
    norm and the Lorentz force, and not kept."""
    DB = dirac_fwd(B)
    return _Derived(l2_norm(DB), _lorentz_of(B, DB, mu0), convective(u, u),
                    convective(u, B) - convective(B, u))


def _interior_norm(arr: np.ndarray, domain: VoxelDomain) -> float:
    """L2 norm over the non-collar cells (grid._inner), read in place: the
    one-sided fallback layers are excluded from residual measurements."""
    return float(np.sqrt((arr[_inner()] ** 2).sum() * domain.cell_volume))


def residual_strong(state: MHDState,
                    params: MHDParams) -> tuple[float, float, float, float]:
    """L2 norms (over non-collar cells) of the momentum residual
    (1/(c_u mu0)) D^2 u + (1/mu0) Sc(uD)u + (c_p/(c_u mu0)) Dp - lor, the
    induction residual (1/c_B) D^2 B + Sc(uD)B - Sc(BD)u (the rows the
    solvers solve), and of div u, div B; lor = (1/mu0) Vec((DB)B)."""
    return _residuals(state, params,
                      _derive(state.u, state.B, params.mu0))


def _residuals(state: MHDState, params: MHDParams,
               d: _Derived) -> tuple[float, float, float, float]:
    """residual_strong(state, params) from the state's _derive fields d."""
    u, B, p = state.u, state.B, state.p
    dom = u.domain
    cu_mu0 = params.coeff_u() * params.mu0
    # each residual field is freed once its norm is taken
    mom = _interior_norm((-(1.0 / cu_mu0) * laplacian(u)
                          + (1.0 / params.mu0) * d.uu
                          + (params.coeff_p() / cu_mu0) * grad_bwd(p)
                          - d.lor).values, dom)
    ind = _interior_norm((-(1.0 / params.coeff_B()) * laplacian(B)
                          + d.ind).values, dom)
    return (mom, ind, _interior_norm(div_fwd(u), dom),
            _interior_norm(div_fwd(B), dom))


def residual_weak(state: MHDState, params: MHDParams, test_v: QField,
                  test_w: QField) -> tuple[float, float]:
    """Weak residuals of the momentum and induction rows of
    residual_strong against zero-boundary test fields (test_w additionally
    divergence-free). Viscous terms are integrated by parts onto the
    adjoint-pair Dirac operators: sc_inner(D+ a, D+ v)."""
    _require_pure(test_v, "test_v")
    _require_pure(test_w, "test_w")
    for t in (test_v, test_w):
        if np.abs(t.values[:, t.domain.collar_mask(1)]).max(initial=0.0) > 0:
            raise ValueError("test fields must vanish on the boundary collar")
    u, B, p = state.u, state.B, state.p
    cu_mu0 = params.coeff_u() * params.mu0
    r_mom = ((1.0 / cu_mu0) * sc_inner(dirac_fwd(u), dirac_fwd(test_v))
             + (1.0 / params.mu0) * sc_inner(convective(u, u), test_v)
             + (params.coeff_p() / cu_mu0) * sc_inner(grad_bwd(p), test_v)
             - sc_inner(lorentz(B, params.mu0), test_v))
    r_ind = ((1.0 / params.coeff_B())
             * sc_inner(dirac_fwd(B), dirac_fwd(test_w))
             + sc_inner(convective(u, B), test_w)
             - sc_inner(convective(B, u), test_w))
    return r_mom, r_ind


def momentum_bracket(lor: QField, uu: QField, params: MHDParams) -> QField:
    """Vec((DB)B) - Sc(uD)u, as mu0 lor - uu from the Lorentz force
    lor = lorentz(B, mu0) and uu = convective(u, u): the bracket that the
    velocity row and the pressure equation share."""
    return params.mu0 * lor - uu


def tqt_rhs_u(bracket: QField, p: QField, params: MHDParams,
              ops: OperatorSet) -> QField:
    """Right-hand side of the velocity row of the integral form:
    c_u TQT bracket - c_p TQT D p, bracket = Vec((DB)B) - Sc(uD)u
    (momentum_bracket), D p = grad_bwd(p). TQT is linear, so it is applied
    once, to the pure field c_u bracket - c_p D p, and solves its three
    vector components (poisson_dirichlet). For the p of pressure_recover
    the result is div+-free on the non-collar cells."""
    f = params.coeff_u() * bracket - params.coeff_p() * grad_bwd(p)
    _require_pure(f, "TQT right side")
    return ops.poisson_dirichlet(f)


def tqt_rhs_B(u: QField, B: QField, params: MHDParams,
              ops: OperatorSet) -> QField:
    """Right-hand side of the magnetic row: c_B TQT[Sc(BD)u - Sc(uD)B],
    the bracket pure for pure u and B, so its three vector components
    are solved (poisson_dirichlet)."""
    bracket = convective(B, u) - convective(u, B)
    _require_pure(bracket, "TQT right side")
    return params.coeff_B() * ops.poisson_dirichlet(bracket)


def tqt_rhs_p(bracket: QField, params: MHDParams,
              ops: OperatorSet) -> QField:
    """Scalar right-hand side of the pressure equation, c Sc(QT bracket)
    with bracket = Vec((DB)B) - Sc(uD)u. Q T = D+_gz L^-1 for the lattice
    pair of poisson_dirichlet, so this is c Sc(D+_gz L^-1 bracket): the
    ghost-zero -div+ of three collar solves, which
    OperatorSet._sc_dirac_solve applies as the sine transform of the
    bracket's non-collar block and the second pass of pressure_S. A
    bracket with no live entry (_first_live) gives +0.0 without the
    solve."""
    out = np.zeros_like(bracket.values)
    if _first_live(bracket.values) < len(out):
        out[0] = params.coeff_prhs() * ops._sc_dirac_solve(bracket.values[1:])
    return QField(bracket.domain, out)


def leray_project(u: QField, ops: OperatorSet) -> QField:
    """Remove the gradient part: solve the collar-Dirichlet Poisson problem
    for div u and subtract the backward gradient, which annihilates the
    forward divergence on the non-collar cells."""
    _require_pure(u, "u")
    phi = ops.poisson_scalar(-div_fwd(u))
    pf = QField(u.domain, np.zeros_like(u.values))
    pf.values[0] = phi
    return u - QField(u.domain, grad_bwd(pf).values)


def boundary_B_term(params: MHDParams, ops: OperatorSet) -> QField:
    """Boundary contribution to B for nonzero data h: Vec H, H the harmonic
    extension of h. The integral form's term F_Gamma h + T P D H is the
    Borel-Pompeiu form H = F tr H + T D H of H less T Q D H, and D H of a
    harmonic H is monogenic, so Q D H = 0. Returns zero for h = None."""
    dom = ops.domain
    if params.boundary_h is None:
        return QField.zeros(dom)
    out = harmonic_extension(params.boundary_h, ops)
    out.values[0] = 0.0  # B is a pure vector field
    return out


def harmonic_extension(g: BoundaryData, ops: OperatorSet) -> QField:
    """Componentwise discrete harmonic extension of boundary values g:
    solve the cell-centered Laplace problem with Dirichlet face data."""
    dom = ops.domain
    rhs = np.zeros((4,) + dom.shape)
    cells = (slice(None),) + tuple(dom.face_cell.T)
    # ghost anti-reflection: a face with value g contributes 2g/h^2
    np.add.at(rhs, cells, 2.0 * g.values.T / dom.h**2)
    return QField(dom, ops.poisson_faces(rhs))
