"""Fixed-point solution schemes for the stationary MHD system.

Two schemes are provided. The contraction (Banach) scheme iterates the
explicit updates

    u_n = c_u TQT[Vec((DB_{n-1})B_{n-1}) - Sc(u_{n-1}D)u_{n-1}] - c_p TQT D p_n
    B_n : inner iteration  B^(i) = c_B TQT[Sc(B^(i-1)D)u_n - Sc(u_nD)B^(i-1)]

with the pressure recovered from Sc(Qp) = c Sc(QT[...]) by conjugate
gradients. TQT is the collar-Dirichlet Poisson solve (poisson_dirichlet)
and QT is D+_gz L^-1, so neither scheme applies the Teodorescu, Cauchy or
Bergman operators. TQT solves each component alone, so it maps the pure
brackets of pure iterates to pure fields. D p is grad_bwd, the adjoint of
the div+ in pressure_S, so u_n is div+-free and only B is Leray-projected.
The Schauder scheme linearizes at (u~, B~) and inverts the two operators
I + c TQT Sc(u~ D) by truncated Neumann series (neumann_apply_u and
neumann_apply_B, given u~ and the one convection_norm(u~) both scale, c
being c_u and c_B), refusing when q = c convection_norm(u~) is >= 1.
TQT Sc(u~D) acts on each quaternion component by the same scalar map
A v = L^-1 sum_i u~_i D^c_i v (D^c_i the centered difference, L^-1 the
collar solve). So convection_norm is ||A||, from Lanczos on A^T A, and
each series runs on the three vector components as one batch.

This module holds both Krylov methods of the package: conjugate
gradients (_cg) for the pressure and the Lanczos recurrence, with
safeguarded Newton for its Ritz values (_top_eigenvalue), for the
convection norm. Each Lanczos step applies the centered differences and
their transposes as per-axis matrix products and L^-2 as one
sine-transform pair, and each CG step applies pressure_S, whose matrix
chains read their transposed factors from contiguous stacks built once
per OperatorSet. Both loops, and the Neumann series, update their
vectors in place.

Both schemes run one outer loop, _outer_loop. It derives each state's
D+B, Lorentz force, advection and induction term once (mhd._derive), for
the state's residual and energy rows and for the next step's bracket
Vec((DB)B) - Sc(uD)u. Each step recovers the pressure from that bracket,
calls the scheme's update for (u, B), and writes the change, residual,
energy and condition rows; the loop owns the tol stop and the
divergence guards. The schemes differ only in the update and in their own
row entries. A solve's ConvergenceReport is these rows and the tol flag.

Constants (C1, Cs, CD, Cu, k) are estimated once per domain: C1,
lambda_min and k = ||TQT|| from the closed-form discrete Dirichlet spectra,
the rest as sampled extremal ratios of lattice operators with a x2 safety
factor (estimate_constants). The samples are separable, and their H1 and
D+ norms come from Gram matrices of their 1-D factors (_separable_norms).
No constant applies the continuum T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import _energy_of
from .grid import (QField, _diff, _finite, _integer, h1_norm, l2_norm,
                   lq_norm)
from .mhd import (MHDParams, MHDState, _advect, _convect_solve, _derive,
                  _lorentz_of, _require_pure, _residuals, boundary_B_term,
                  convective, leray_project, lorentz, momentum_bracket,
                  tqt_rhs_B, tqt_rhs_p, tqt_rhs_u)
from .operators import (_BACKWARD, OperatorSet, _along_axis,
                        _centered_matrix, dirac_fwd, grad_bwd)
from .quaternion import UNIT_MUL
from .sampling import _draws, _gaussian, _samples, _uniforms

__all__ = [
    "ConstantsBundle",
    "SolverConfig",
    "ConvergenceReport",
    "ConditionViolation",
    "DivergenceError",
    "estimate_constants",
    "cond1_threshold",
    "check_cond1",
    "schauder_threshold",
    "check_schauder_bound",
    "lipschitz_Ln",
    "theorem4_thresholds",
    "check_theorem4",
    "pressure_recover",
    "banach_inner_B",
    "banach_solve",
    "convection_norm",
    "neumann_apply_u",
    "neumann_apply_B",
    "schauder_solve",
]

# stop rules: the relative CG residual of pressure_recover and the CG
# iterations without a new residual minimum after which it gives up (on
# right sides in range(S) the residual falls at every iteration), and the
# relative-change stop, step cap and start seed of the Lanczos estimate in
# convection_norm, and the relative bracket width at which its Ritz values
# stop (_top_eigenvalue).
_CG_TOL = 1e-12
_CG_STALL = 20
_NORM_TOL = 1e-6
_NORM_MAXIT = 100
_NORM_SEED = 0
_RITZ_TOL = 1e-13
# the number of random field pairs estimate_constants samples
_SAMPLES = 30


class ConditionViolation(RuntimeError):
    """A smallness condition required by the scheme is violated."""

    def __init__(self, message: str, q: float):
        super().__init__(message)
        self.q = q


class DivergenceError(RuntimeError):
    """The iteration left the contractive regime (norm blow-up or sustained
    growth of the state changes)."""


@dataclass(frozen=True)
class ConstantsBundle:
    C1: float
    Cs: float
    CD: float
    Cu: float
    k: float
    lambda_min: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.C1, self.Cs, self.CD, self.Cu, self.k, self.lambda_min) <= 0:
            raise ValueError("all constants must be positive")
        if self.C1 > (1.0 + 1e-9) / self.lambda_min:
            raise ValueError("C1 must not exceed 1/lambda_min")
        if self.k > 1.1 * self.C1:
            raise ValueError("k must satisfy k <= 1.1 C1")


@dataclass
class SolverConfig:
    method: str = "banach"
    tol: float = 1e-8
    max_outer: int = 500
    max_inner: int = 200
    neumann_max_terms: int = 64
    neumann_term_tol: float = 1e-12

    def __post_init__(self):
        if self.method not in ("banach", "schauder_neumann"):
            raise ValueError("method must be banach or schauder_neumann")
        for name in ("tol", "neumann_term_tol"):
            _finite(getattr(self, name), name, low=0.0)
        for name in ("max_outer", "max_inner", "neumann_max_terms"):
            _integer(getattr(self, name), name, 1)


@dataclass
class ConvergenceReport:
    """The record of one solve: a row per outer step (the convergence-CSV
    dict, plus that step's EnergyReport under "energy")."""
    converged: bool = False  # met cfg.tol
    rows: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def _gram_pairs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of ||u||_H1^2 and ||D+u||^2 of a pure u as pairs of
    separable fields, for _separable_norms.

    A field (sign, c, j, v) is sign times component u_c with its axis-j
    factor differenced: v = 1 forward (h1_norm's difference), 2 backward,
    0 not at all. On axis i its 1-D vectors are the rows
    (v_i 3 + c - 1) 4 + t of _separable_norms' stack, t the term and v_i
    = v on axis j, 0 on the others. Each quantity is a sum over groups of
    ||sum of the group's fields||^2: ||u||_H1^2 has a group for u_c and
    for each d_j u_c, ||D+u||^2 one per output component r of
    sum_j e_j d_j u, the difference of each as _BACKWARD picks it.
    Returns, per ordered pair (a, b) of fields of one group, the first
    rows of a and of b on each axis, (P, 3) each, and the pair's product
    of signs in the two quantities, (P, 2)."""
    h1 = [[(1.0, c, 0, 0)] for c in (1, 2, 3)]
    h1 += [[(1.0, c, j, 1)] for c in (1, 2, 3) for j in range(3)]
    dplus = [[(sign, c, j, 2 if _BACKWARD[j, c] else 1)
              for j in range(3) for sign, c in [UNIT_MUL[1 + j][r]] if c > 0]
             for r in range(4)]

    def first_rows(field):
        _, c, j, v = field
        return [((v if i == j else 0) * 3 + c - 1) * 4 for i in range(3)]

    pairs = [(first_rows(a), first_rows(b), [a[0] * b[0] * (q == 0),
                                             a[0] * b[0] * (q == 1)])
             for q, groups in enumerate((h1, dplus))
             for group in groups for a in group for b in group]
    return tuple(np.array(x) for x in zip(*pairs))


_PAIRS = _gram_pairs()


def _separable_norms(factors: list[np.ndarray], h: float) -> np.ndarray:
    """(||u||_H1, ||D+u||) of S pure fields from their 1-D factors,
    factors[i] of shape (S, 4, 4, n_i) as sampling._samples gives them.

    A difference along axis i of a sum of separable products acts on the
    axis-i factor alone (fallback rows included), and an inner product of
    two such sums is a sum of products of 1-D inner products. So both
    squared norms are sums, over the pairs of _gram_pairs, of products of
    entries of three Gram matrices: per sample and axis, that of the 36
    vectors (plain, forward and backward differences of 3 components by
    4 terms). The Gram products run in einsum's own loop, never BLAS."""
    first, second, weight = _PAIRS
    t = np.arange(4)
    prod = 1.0
    for i, f in enumerate(factors):
        x = f[:, 1:]
        v = np.concatenate([x, _diff(x, 2, h), _diff(x, 2, h, backward=True)],
                           axis=1).reshape(len(f), 36, -1)
        g = np.einsum("sap,sbp->sab", v, v)
        prod = prod * g[:, first[:, i, None, None] + t[:, None],
                        second[:, i, None, None] + t]
    return np.sqrt(prod.sum(axis=(2, 3)) @ weight * h**3)


def estimate_constants(ops: OperatorSet, seed: int = 0) -> ConstantsBundle:
    """Estimate the bundle of norm constants on the domain of ops.

    C1 = 1/lambda_min and k = ||TQT|| = op_norm_TQT() are closed forms
    (provenance "analytic"). Cs is twice the largest sampled ratio of the
    three lattice estimates ||Sc(uD)u||_{5/4} / ||u||_H1^2,
    ||Vec((DB)B)||_{5/4} / ||B||_H1^2 and ||D+B|| / ||B||_H1. The composed
    form ||T Sc(uD)u|| / ||u||_H1^2 of the paper is not sampled: the
    solvers' TQT is the lattice solve, and on cubes of side 0.01 to 100 at
    n = 8..32 that ratio reached at most 1.4% of the largest of the other
    three. CD doubles the largest sampled ||Du|| / ||u||_H1; Cu halves the
    smallest sampled ||Du||^2 / ||u||_H1^2 (a coercivity constant is a
    lower bound).

    The samples are _SAMPLES pairs (u, B) of separable pure bump fields,
    their numbers drawn in one call to the SplitMix64 stream of seed
    (sampling._draws). D+B, Sc(uD)u, the Lorentz force and the 5/4-norms
    are taken on the lattice fields, formed a pair at a time; ||u||_H1,
    ||B||_H1 and ||D+u|| come from all the fields' 1-D factors in one
    _separable_norms call, equal to h1_norm and l2_norm(dirac_fwd(.)) up
    to rounding.
    """
    lam = ops.lambda_min()
    C1 = 1.0 / lam
    k = ops.op_norm_TQT()
    factors, fields = _samples(ops.domain, _draws(seed, 2 * _SAMPLES, kmax=2),
                               pure=True)
    lattice = np.empty((_SAMPLES, 3))
    for n in range(_SAMPLES):
        u, B = next(fields), next(fields)
        DB = dirac_fwd(B)
        lattice[n] = (lq_norm(convective(u, u), 1.25),
                      lq_norm(_lorentz_of(B, DB, 1.0), 1.25), l2_norm(DB))
    norms = _separable_norms(factors, ops.domain.h)
    uh, Bh, Du = norms[0::2, 0], norms[1::2, 0], norms[0::2, 1]
    live = (uh != 0.0) & (Bh != 0.0)
    if not live.any():
        raise ValueError("all samples degenerate")
    uh, Bh, Du, lattice = uh[live], Bh[live], Du[live], lattice[live]
    bundle = ConstantsBundle(
        C1=C1,
        Cs=2.0 * float(max((lattice[:, 0] / uh**2).max(),
                           (lattice[:, 1] / Bh**2).max(),
                           (lattice[:, 2] / Bh).max())),
        CD=2.0 * float((Du / uh).max()),
        Cu=0.5 * float((Du**2 / uh**2).min()),
        k=k,
        lambda_min=lam,
        provenance={"C1": "analytic", "lambda_min": "analytic",
                    "Cs": "estimated", "CD": "estimated",
                    "Cu": "estimated", "k": "analytic"},
    )
    return bundle


def cond1_threshold(c: ConstantsBundle, Rm: float) -> float:
    """1/(2 C1 Cs Rm^2), the bound check_cond1 puts on ||u||_H1."""
    return 1.0 / (2.0 * c.C1 * c.Cs * Rm**2)


def check_cond1(u_h1: float, c: ConstantsBundle, Rm: float) -> bool:
    """Inner-iteration contraction condition ||u||_H1 < cond1_threshold."""
    if u_h1 < 0:
        raise ValueError("u_h1 must be nonnegative")
    return u_h1 < cond1_threshold(c, Rm)


def schauder_threshold(c: ConstantsBundle, params: MHDParams) -> float:
    """min{mu0/(Re^2 k CD), 1/(Rm^2 k CD)}, the bound of Theorem 2."""
    return min(params.mu0 / (params.Re**2 * c.k * c.CD),
               1.0 / (params.Rm**2 * c.k * c.CD))


def check_schauder_bound(u_h1: float, c: ConstantsBundle,
                         params: MHDParams) -> bool:
    """||u~||_H1 <= schauder_threshold (non-strict)."""
    if u_h1 < 0:
        raise ValueError("u_h1 must be nonnegative")
    return u_h1 <= schauder_threshold(c, params)


def lipschitz_Ln(c: ConstantsBundle, C3: float, C4: float, F: float,
                 params: MHDParams) -> float:
    """L_n = 2 Re^2 C1 (Cs C3 + ((1/2 + Cs) C4 / mu0) Rm^2 C1 F)."""
    if min(C3, C4, F) < 0:
        raise ValueError("history norms must be nonnegative")
    return 2.0 * params.Re**2 * c.C1 * (
        c.Cs * C3
        + (0.5 + c.Cs) * C4 / params.mu0 * params.Rm**2 * c.C1 * F)


def theorem4_thresholds(c: ConstantsBundle, params: MHDParams,
                        supB_h1: float) -> tuple[float, float, float]:
    """(a/16, W, b) of the small-data conditions of Theorem 4, with
    a = 1/(C1^2 Cs^2 Re^4), W = sqrt(a/4 - (1/mu0) sup||B_n||^2) and
    b = 4 Cs^2 Re^2 (8 W Re^2 C1 Cs - 1)/(1 + 2 Cs). W and b are NaN when
    the radicand is negative."""
    a = 1.0 / (c.C1**2 * c.Cs**2 * params.Re**4)
    radicand = a / 4.0 - supB_h1**2 / params.mu0
    if radicand < 0:
        return a / 16.0, math.nan, math.nan
    W = math.sqrt(radicand)
    b = (4.0 * c.Cs**2 * params.Re**2
         * (8.0 * W * params.Re**2 * c.C1 * c.Cs - 1.0) / (1.0 + 2.0 * c.Cs))
    return a / 16.0, W, b


def check_theorem4(c: ConstantsBundle, params: MHDParams,
                   supB_h1: float) -> tuple[bool, float]:
    """Small-data conditions of the contraction scheme,
    (1/mu0) sup||B_n||^2 <= a/16 and Rm^2 < b (theorem4_thresholds).
    Returns (both_ok, W); W is NaN when the radicand is negative (the first
    condition already failed in that case)."""
    if supB_h1 < 0:
        raise ValueError("supB_h1 must be nonnegative")
    a16, W, b = theorem4_thresholds(c, params, supB_h1)
    return supB_h1**2 / params.mu0 <= a16 and params.Rm**2 < b, W


# ---------------------------------------------------------------------------
# the Krylov methods: pressure recovery by conjugate gradients, the
# convection norm by Lanczos
# ---------------------------------------------------------------------------

def _cg(apply_A, b: np.ndarray, tol: float,
        maxit: int) -> tuple[np.ndarray, int, str]:
    """Conjugate gradients (Hestenes & Stiefel 1952) for a symmetric
    positive semidefinite A, no preconditioner, from x = 0; returns x, the
    iterations completed and why it stopped: "" once ||r|| <= tol ||b||,
    else a phrase for the caller's message. It also stops after maxit
    iterations, after _CG_STALL iterations without a new minimum of ||r||,
    or when the curvature d.Ad of a direction d is not positive (A d = 0,
    or NaN after an overflow). Inner products and norms are elementwise
    sums, as in convection_norm, and the updates are in place: apply_A
    must return a new array, which _cg overwrites. For b outside range(A)
    x grows without bound while ||r|| stalls, for the caller's residual
    check to reject."""
    x = np.zeros_like(b)
    rr = float((b * b).sum())
    if rr == 0.0:
        return x, 0, ""
    stop = tol * math.sqrt(rr)
    r, d = b.copy(), b.copy()
    rr_min, since_min = rr, 0
    for it in range(1, maxit + 1):
        Ad = apply_A(d)
        curvature = float((d * Ad).sum())
        if not curvature > 0.0:
            return x, it - 1, "a direction without positive curvature"
        alpha = rr / curvature
        # alpha A d updates r in place in Ad, which then holds alpha d and
        # r.r in turn: no buffer lives through the next apply_A
        Ad *= alpha
        r -= Ad
        x += np.multiply(alpha, d, out=Ad)
        rr, rr_prev = float(np.multiply(r, r, out=Ad).sum()), rr
        if math.sqrt(rr) <= stop:
            return x, it, ""
        if rr < rr_min:
            rr_min, since_min = rr, 0
        else:
            since_min += 1
            if since_min >= _CG_STALL:
                return x, it, ("the residual stalled: no new minimum in "
                               f"{_CG_STALL} iterations")
        d *= rr / rr_prev
        d += r
    return x, maxit, f"the cap maxit={maxit}"


def _top_eigenvalue(a, b, rtol: float = 0.0) -> float:
    """Largest eigenvalue of the symmetric tridiagonal matrix T with
    diagonal a and off-diagonal b, by safeguarded Newton on its
    characteristic polynomial p(x) = det(T - x I).

    One pass of the LDL^T pivot recurrence d_i = a_i - x - b_{i-1}^2 /
    d_{i-1} and of its derivative d_i' = b_{i-1}^2 d_{i-1}' / d_{i-1}^2 - 1
    gives the Sturm count (T has as many eigenvalues below x as negative
    pivots; a zero pivot counts as negative) and p'/p = sum_i d_i'/d_i.
    Above every eigenvalue p'/p = sum_i 1/(x - lambda_i), so the Newton
    point x - p/p' does not fall below lambda_max and x - len(a) p/p'
    does not exceed it. From the Gershgorin upper bound the passes keep a
    bracket [lo, hi] of those bounds and the Sturm counts. The next x is
    the last Newton point if it lies inside the bracket and either in its
    lower half or the bracket is already no wider than bisection's would
    be after one pass more; else the midpoint. So where Newton converges
    only linearly (a near-multiple top eigenvalue, or a start far above a
    spread spectrum) the passes bisect. A Newton point that rounding puts
    on or below lambda_max becomes the lower end; the next x is then
    rtol/2 (at least one float) above it, where bisection from the
    previous point would take up to a dozen passes to close the bracket.
    The loop stops once the bracket is no wider than rtol times its
    larger end, or at adjacent floats (rtol = 0). It returns the last
    Newton point, else the upper end; a NaN or inf entry gives NaN
    without a pass. Plain floats, so no LAPACK call, whose first use
    costs about 0.5 MiB of workspace."""
    if not all(map(math.isfinite, [*a, *b])):
        return math.nan
    n = len(a)
    r = [abs(x) for x in b] + [0.0]
    lo = min(ai - ri - rj for ai, ri, rj in zip(a, [0.0] + r, r))
    hi = max(ai + ri + rj for ai, ri, rj in zip(a, [0.0] + r, r))
    x, newton, width = hi, None, hi - lo
    while hi - lo > rtol * max(abs(lo), abs(hi)):
        below, d, dd, f = 0, 1.0, 0.0, 0.0
        for i, ai in enumerate(a):
            q = b[i - 1] * b[i - 1] / d if i else 0.0
            dd = q * dd / d - 1.0
            d = (ai - x - q) or -1e-300
            below += d < 0
            f += dd / d
        if below < n:
            lo = x
        elif f > 0.0:
            hi, newton = x, x - 1.0 / f
            lo = max(lo, x - n / f)
        else:
            hi, newton = x, None
        width *= 0.5  # bisection's bracket after as many passes
        mid = 0.5 * (lo + hi)
        if newton == lo:  # Newton landed on or below lambda_max by rounding
            x = min(mid, max(lo + 0.5 * rtol * abs(lo),
                             math.nextafter(lo, hi)))
        elif (newton is not None and lo < newton < hi
                and (newton <= mid or hi - lo <= 0.5 * width)):
            x = newton
        else:
            x = mid
        if not lo < x < hi:
            break
    return newton if newton is not None and lo <= newton <= hi else hi


def pressure_recover(rhs: QField, ops: OperatorSet,
                     maxit: int = 2000) -> QField:
    """Zero-mean scalar p with Sc(Q p) = rhs, for a scalar rhs in range(S).

    S: p -> Sc(Q(p)) is symmetric positive semidefinite with a nontrivial
    kernel (scalar fields whose embedding is Bergman-monogenic, the
    constants among them). Each apply is ops.pressure_S: two passes of
    per-axis DST-I matrix products, not a full 4-component Q. The
    solvers' right-hand sides, scalar parts of Q applies, lie in range(S):
    <p, Sc(Q f)> = <Q p, f> = 0 for p in the kernel. For those, conjugate
    gradients (_cg) started from zero keep all iterates in range(S) and
    return the minimum-norm solution, stopping when the residual falls to
    _CG_TOL ||rhs|| or after maxit iterations. The result must pass a 1e-8
    gate on the normal-equation residual S(S p - rhs), or RuntimeError
    names the iterations run and why CG stopped; a non-finite residual
    fails the gate too. Any other right-hand side ends in that
    RuntimeError: its part in the kernel of S is never reduced, so the
    residual stalls while the iterates grow, and CG gives up after
    _CG_STALL iterations without a new residual minimum. The result is
    shifted to zero mean, the normalization used for the pressure
    throughout; range(S) is orthogonal to the constants, so that shift
    only removes rounding.
    """
    dom = ops.domain
    if np.abs(rhs.values[1:]).max(initial=0.0) > 0:
        raise ValueError("pressure right-hand side must be scalar")
    S = ops.pressure_S
    r0 = rhs.values[0]
    if np.linalg.norm(r0) == 0.0:
        return QField.zeros(dom)
    x, iters, why = _cg(S, r0, _CG_TOL, maxit)
    # normal-equation residual S(Sx - r); `not <=` so that NaN fails
    normal_res = np.linalg.norm(S(S(x) - r0))
    normal_ref = np.linalg.norm(S(r0))
    if normal_ref > 0 and not normal_res <= 1e-8 * normal_ref:
        raise RuntimeError(
            "pressure_recover did not converge: relative normal-equation "
            f"residual {normal_res / normal_ref:.3e} after {iters} CG "
            f"iterations{', ' + why if why else ''}")
    x -= x.mean()
    out = np.zeros((4,) + dom.shape)
    out[0] = x
    return QField(dom, out)


def convection_norm(ut: QField, ops: OperatorSet) -> float:
    """L2 operator norm of v -> TQT Sc(u~D) v on quaternion fields.

    The map is the scalar map A of _convect_solve on each component, so
    its norm is ||A||, the square root of the largest eigenvalue of
    A^T A w = sum_i D^c_i^T (u~_i L^-2 sum_j u~_j D^c_j w) (L^-1 is
    symmetric). The forward half is _convect_solve's mhd._advect, the
    backward half the transposes of its matrices D^c_i
    (operators._centered_matrix) by _along_axis, and L^-2 is one
    sine-transform pair with two divides by the symbol
    (OperatorSet._collar_solve), not two collar solves. The Lanczos
    recurrence of A^T A from a random scalar field v_1 = v / ||v||, v the
    standard normals of sampling's SplitMix64 stream of _NORM_SEED,

        A^T A v_k = beta_k v_{k-1} + alpha_k v_k + beta_{k+1} v_{k+1},

    with elementwise-sum inner products and in-place updates, builds the
    tridiagonal whose largest eigenvalue (_top_eigenvalue, safeguarded
    Newton to a relative _RITZ_TOL) is the Ritz value; it is taken once a
    step moves it by <= _NORM_TOL relative or beta_{k+1} = 0. A is linear
    in u~, so it runs on u~ / max|u~|: the pivot recurrence squares the
    off-diagonal, which under- or overflows beyond about 1e+-154, as
    A^T A's entries would for |u~| beyond about 1e+-77. u~ = 0 gives 0.0;
    a NaN or inf in u~ raises ValueError before any solve. RuntimeError
    names the _NORM_MAXIT steps when they do not get there."""
    _require_pure(ut, "advection field u~")
    a = ut.values[1:]
    scale = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("convection_norm: the advection field u~ has a "
                         "non-finite entry")
    if scale == 0.0:
        return 0.0
    a = a / scale
    D = [_centered_matrix(ops.domain.shape, i, ops.domain.h)
         for i in range(3)]
    v = _gaussian(_uniforms(_NORM_SEED, ops.domain.shape + (2,)))
    v = v / float(np.sqrt((v * v).sum()))
    alpha, beta, top = [], [], 0.0
    for _ in range(_NORM_MAXIT):
        s = ops._collar_solve(_advect(a, v, ops.domain.h), 2)
        w = sum(_along_axis(a[i] * s, D[i].T, i) for i in range(3))
        # s, read only by w, holds v.w, alpha v, beta v_prev and w.w in turn
        alpha.append(float(np.multiply(v, w, out=s).sum()))
        w -= np.multiply(alpha[-1], v, out=s)
        if beta:
            w -= np.multiply(beta[-1], v_prev, out=s)
        b = float(np.sqrt(np.multiply(w, w, out=s).sum()))
        prev, top = top, _top_eigenvalue(alpha, beta, _RITZ_TOL)
        if abs(top - prev) <= _NORM_TOL * top or b == 0.0:
            return scale * math.sqrt(top)
        beta.append(b)
        w /= b
        v_prev, v = v, w
    raise RuntimeError("convection_norm: Lanczos not converged after "
                       f"{_NORM_MAXIT} steps")


# ---------------------------------------------------------------------------
# Neumann series solves of the linearized convection maps
# ---------------------------------------------------------------------------

def _neumann_solve(ut: QField, c: float, norm: float, f: QField,
                   ops: OperatorSet, cfg: SolverConfig,
                   names: tuple[str, str]) -> tuple[QField, float, int]:
    """Solve [I + c TQT Sc(u~D)] x = TQT f by truncated Neumann series
    for a pure f; returns (x, q, terms used), x pure. q = c norm >= 1
    raises ConditionViolation, before any solve, naming the unknown and q
    by `names`, e.g. ("u", "q1"). The map acts on each component alike
    (_convect_solve), so the series runs on the three vector components
    as one batch."""
    q = c * norm
    if q >= 1.0:
        raise ConditionViolation(f"Neumann series for {names[0]} refused: "
                                 f"{names[1]} = {q:.6g} >= 1", q)
    _require_pure(f, "Neumann right side")
    _require_pure(ut, "advection field u~")
    a = ut.values[1:]
    term = ops.poisson_scalar(f.values[1:])
    x = term.copy()  # the sum, in place; term is overwritten below
    rnorm = np.sqrt((x * x).sum())
    used = 1
    for used in range(2, cfg.neumann_max_terms + 1):
        term = _convect_solve(a, term, ops)
        term *= -c
        x += term
        if (np.sqrt((term * term).sum())
                < cfg.neumann_term_tol * max(rnorm, 1e-300)):
            break
    out = np.zeros(f.values.shape)
    out[1:] = x
    return QField(f.domain, out), q, used


def neumann_apply_u(ut: QField, lor: QField, p: QField, params: MHDParams,
                    ops: OperatorSet, cfg: SolverConfig,
                    norm: float) -> tuple[QField, float, int]:
    """Solve [I + c_u TQT Sc(u~D)] u = TQT[c_u mu0 lor - c_p Dp] by Neumann
    series, lor = lorentz(B, mu0), Dp = grad_bwd(p); returns (u, q1, terms
    used). Refuses when q1 >= 1. `norm` is convection_norm(u~, ops)."""
    c_u = params.coeff_u()
    f = c_u * params.mu0 * lor - params.coeff_p() * grad_bwd(p)
    return _neumann_solve(ut, c_u, norm, f, ops, cfg, ("u", "q1"))


def neumann_apply_B(ut: QField, Bt: QField, u: QField, params: MHDParams,
                    ops: OperatorSet, cfg: SolverConfig,
                    norm: float) -> tuple[QField, float, int]:
    """Solve [I + c_B TQT Sc(u~D)] B = c_B TQT Sc(B~D) u by Neumann
    series; returns (B, q2, terms used). Refuses when q2 >= 1.
    `norm` is convection_norm(u~, ops)."""
    c_B = params.coeff_B()
    return _neumann_solve(ut, c_B, norm, c_B * convective(Bt, u), ops, cfg,
                          ("B", "q2"))


# ---------------------------------------------------------------------------
# the outer fixed-point loop of both schemes
# ---------------------------------------------------------------------------

def _outer_loop(params: MHDParams, ops: OperatorSet, cfg: SolverConfig,
                init: MHDState | None, constants: ConstantsBundle | None,
                update, conditions) -> tuple[MHDState, ConvergenceReport]:
    """The outer fixed-point iteration of both schemes.

    Each new state's D+B, Lorentz force lor, advection uu and induction
    term are derived once (mhd._derive), for its residual and energy rows; of
    the initial state only lor and uu are computed, before step 1. Step n
    builds bracket = momentum_bracket from the lor and uu of prev, the
    previous state, recovers p from the bracket and calls
    update(prev, p, lor, bracket, B_bd, B_h1) -> (u, B, row entries);
    B_bd is the boundary term of B, None for zero data, and B_h1 the H1
    norm of prev.B, the last entry of its history. With a
    constants bundle the row also gets cond1 at the new u and
    conditions(hist_u, hist_B), the scheme's checks on the H1 norm
    histories (initial state first). The loop stops
    once the relative change falls below cfg.tol (report.converged) and
    raises DivergenceError on a 1e3-fold norm blow-up, before any row of
    the new fields, or on a state change that grew 5 steps in a row."""
    state = init if init is not None else MHDState.zeros(ops.domain)
    B_bd = (boundary_B_term(params, ops) if params.boundary_h is not None
            else None)
    report = ConvergenceReport()
    # an overflow reaches the norms as inf or NaN, which the guards below
    # report, so the initial norms and each step up to its guard run
    # without NumPy's overflow warnings
    quiet = {"over": "ignore", "invalid": "ignore"}
    with np.errstate(**quiet):
        hist_u = [h1_norm(state.u)]
        hist_B = [h1_norm(state.B)]
        # the initial state has no rows: only its bracket's two fields
        lor, uu = lorentz(state.B, params.mu0), convective(state.u, state.u)
    limit = 1e3 * max(1.0, hist_u[0] + hist_B[0])
    if not math.isfinite(limit):
        raise DivergenceError("initial state norm ||u||_H1 + ||B||_H1 = "
                              f"{hist_u[0] + hist_B[0]:.3g}")
    grow = 0
    for n in range(1, cfg.max_outer + 1):
        prev = state
        with np.errstate(**quiet):
            bracket = momentum_bracket(lor, uu, params)
            del uu
            p = pressure_recover(tqt_rhs_p(bracket, params, ops), ops)
            u, B, entries = update(prev, p, lor, bracket, B_bd, hist_B[-1])
            del lor, bracket  # two full fields, not read by the rows below
            hist_u.append(h1_norm(u))
            hist_B.append(h1_norm(B))
        if not hist_u[-1] + hist_B[-1] <= limit:
            raise DivergenceError(
                f"state norm blow-up at iteration {n}: "
                f"{hist_u[-1] + hist_B[-1]:.3g}")
        state = MHDState(u, B, p)
        row = {"iter": n, "du": h1_norm(u - prev.u),
               "dB": h1_norm(B - prev.B), "dp": l2_norm(state.p - prev.p),
               **entries}
        del prev  # three full fields, not read by the rows below
        if constants is not None:
            row["cond1"] = check_cond1(hist_u[-1], constants, params.Rm)
            row.update(conditions(hist_u, hist_B))
        derived = _derive(u, B, params.mu0)
        res = _residuals(state, params, derived)
        erep = _energy_of(u, B, params, constants.Cs if constants else None,
                          derived, hist_B[-1])
        # the next step reads lor and uu; the induction term is freed here
        lor, uu = derived.lor, derived.uu
        del derived
        row.update(energy=erep, Jenergy=erep.J, res_mom=res[0],
                   res_ind=res[1], divu=res[2], divB=res[3])
        report.rows.append(row)
        scale = max(1.0, hist_u[-1] + hist_B[-1] + l2_norm(state.p))
        if _change(row) / scale < cfg.tol:
            report.converged = True
            break
        if n >= 2 and _change(row) > _change(report.rows[-2]):
            grow += 1
            if grow >= 5:
                raise DivergenceError(
                    f"state change grew 5 consecutive steps at iteration {n}")
        else:
            grow = 0
    return state, report


def _change(row: dict) -> float:
    """The step's state change du + dB + dp of a report row."""
    return row["du"] + row["dB"] + row["dp"]


# ---------------------------------------------------------------------------
# contraction (Banach) scheme
# ---------------------------------------------------------------------------

def banach_inner_B(u_n: QField, B_init: QField, B_init_h1: float,
                   params: MHDParams, ops: OperatorSet, cfg: SolverConfig,
                   boundary: QField | None = None) -> tuple[QField, int, float]:
    """Inner iteration B^(i) = c_B TQT[Sc(B^(i-1)D)u_n - Sc(u_nD)B^(i-1)]
    (+ fixed boundary term). Returns (B, iterations, last contraction ratio).
    Non-contraction (check via check_cond1) shows up as ratio >= 1; an H1
    norm above 1e3 max(1, B_init_h1) raises DivergenceError, B_init_h1
    being h1_norm(B_init), which the outer loop already holds."""
    B = B_init
    limit = 1e3 * max(1.0, B_init_h1)
    prev_change = math.nan
    ratio = 0.0
    for i in range(1, cfg.max_inner + 1):
        B_new = tqt_rhs_B(u_n, B, params, ops)
        if boundary is not None:
            B_new = B_new + boundary
        norm = h1_norm(B_new)
        if not norm <= limit:
            raise DivergenceError(f"inner B blow-up at step {i}: {norm:.3g}")
        change = h1_norm(B_new - B)
        if prev_change and not math.isnan(prev_change):
            ratio = change / prev_change
        prev_change = change
        B = B_new
        if change <= cfg.tol * max(1.0, norm):
            return B, i, ratio
    return B, cfg.max_inner, ratio


def banach_solve(params: MHDParams, ops: OperatorSet, cfg: SolverConfig,
                 init: MHDState | None = None,
                 constants: ConstantsBundle | None = None,
                 ) -> tuple[MHDState, ConvergenceReport]:
    """Outer contraction iteration of the integral form.

    Each step recovers p_n from the previous state, updates u_n explicitly
    (div+-free, see tqt_rhs_u) and runs the inner B iteration, projecting
    B_n onto divergence-free fields. With a constants bundle, the per-step
    Lipschitz constant L_n is evaluated from the iterate history and logged
    with the Theorem 2 bound at u_n and the Theorem 4 conditions."""
    def update(prev, p, lor, bracket, B_bd, B_h1):
        u = tqt_rhs_u(bracket, p, params, ops)
        B, _, _ = banach_inner_B(u, prev.B, B_h1, params, ops, cfg,
                                 boundary=B_bd)
        return u, leray_project(B, ops), {}

    def conditions(hist_u, hist_B):
        C3 = hist_u[-2] + (hist_u[-3] if len(hist_u) > 2 else 0.0)
        C4 = hist_B[-2] + (hist_B[-3] if len(hist_B) > 2 else 0.0)
        F = 2.0 * constants.Cs * (hist_B[-1] + hist_B[-2])
        ok4, _ = check_theorem4(constants, params, max(hist_B))
        return {"Ln": lipschitz_Ln(constants, C3, C4, F, params), "thm4": ok4,
                "thm2": check_schauder_bound(hist_u[-1], constants, params)}

    return _outer_loop(params, ops, cfg, init, constants, update, conditions)


# ---------------------------------------------------------------------------
# Schauder / Neumann scheme
# ---------------------------------------------------------------------------

def schauder_solve(params: MHDParams, ops: OperatorSet, cfg: SolverConfig,
                   init: MHDState | None = None,
                   constants: ConstantsBundle | None = None,
                   ) -> tuple[MHDState, ConvergenceReport]:
    """Outer fixed-point loop on the linearization map (u~, B~) -> (u, B),
    with the linear solves done by truncated Neumann series and B
    projected onto divergence-free fields (u is div+-free at the fixed
    point, by banach_solve's pressure pairing). The ratios q1, q2 and the
    Theorem 2 bound at u~ are logged every step; a measured series ratio
    q >= 1 raises ConditionViolation."""
    def update(prev, p, lor, bracket, B_bd, _B_h1):
        # both series linearize at prev.u: one norm estimate serves both;
        # the u series reads the bracket's Lorentz force, not the bracket.
        # Both return pure fields
        norm = convection_norm(prev.u, ops)
        u, q1, _ = neumann_apply_u(prev.u, lor, p, params, ops, cfg, norm)
        B, q2, _ = neumann_apply_B(prev.u, prev.B, u, params, ops, cfg, norm)
        if B_bd is not None:
            B = B + B_bd
        return u, leray_project(B, ops), {"q1": q1, "q2": q2}

    def conditions(hist_u, hist_B):
        return {"thm2": check_schauder_bound(hist_u[-2], constants, params)}

    return _outer_loop(params, ops, cfg, init, constants, update, conditions)
