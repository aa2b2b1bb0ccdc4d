import math

import numpy as np
import pytest

from quatmhd.grid import (BoundaryData, QField, build_domain, h1_norm,
                          l2_norm, lq_norm, trace_boundary)
from quatmhd.mhd import (MHDParams, MHDState, _convect_solve, convective,
                         leray_project, lorentz, residual_strong)
from quatmhd.operators import (OperatorSet, _along_axis, _centered_matrix,
                               dirac_fwd, grad_bwd)
from quatmhd.sampling import (_draws, _gaussian, _samples, _uniforms,
                              random_pure_bump, random_smooth)
from quatmhd.solvers import (ConditionViolation, ConstantsBundle,
                             DivergenceError, SolverConfig, banach_inner_B,
                             banach_solve,
                             check_cond1, check_schauder_bound,
                             check_theorem4, convection_norm,
                             estimate_constants, lipschitz_Ln,
                             neumann_apply_B, neumann_apply_u,
                             pressure_recover, schauder_solve, _cg,
                             _NORM_MAXIT, _NORM_SEED, _NORM_TOL, _RITZ_TOL,
                             _separable_norms, _top_eigenvalue)

ALL_ONES = ConstantsBundle(C1=1.0, Cs=1.0, CD=1.0, Cu=1.0, k=1.0,
                           lambda_min=1.0)


def _small_boundary(dom, eps, seed=0):
    rng = np.random.default_rng(seed)
    vals = np.zeros((dom.num_faces, 4))
    x = dom.face_center
    vals[:, 1] = eps * np.sin(2 * np.pi * x[:, 1])
    vals[:, 2] = eps * np.cos(2 * np.pi * x[:, 2])
    vals[:, 3] = eps * rng.standard_normal(dom.num_faces) * 0.1
    return BoundaryData(dom, vals)


# ---------------------------------------------------------------------------
# constants bundle
# ---------------------------------------------------------------------------

def test_bundle_invariants_enforced():
    with pytest.raises(ValueError):
        ConstantsBundle(C1=2.0, Cs=1.0, CD=1.0, Cu=1.0, k=1.0,
                        lambda_min=1.0)  # C1 > 1/lambda_min
    with pytest.raises(ValueError):
        ConstantsBundle(C1=1.0, Cs=1.0, CD=1.0, Cu=1.0, k=1.2,
                        lambda_min=1.0)  # k > 1.1 C1
    with pytest.raises(ValueError):
        ConstantsBundle(C1=1.0, Cs=-1.0, CD=1.0, Cu=1.0, k=1.0,
                        lambda_min=1.0)


def test_estimate_constants(ops12):
    c = estimate_constants(ops12, seed=0)
    assert c.C1 == pytest.approx(1.0 / ops12.lambda_min(), rel=0.01)
    assert c.k <= 1.1 * c.C1
    assert c.provenance["C1"] == "analytic"
    assert c.provenance["Cs"] == "estimated"
    assert c.provenance["k"] == "analytic"
    # determinism for a fixed seed
    c2 = estimate_constants(ops12, seed=0)
    assert (c.Cs, c.CD, c.Cu, c.k) == (c2.Cs, c2.CD, c2.Cu, c2.k)


def _stream_bumps(dom, seed, count):
    """The pure bump fields of the first `count` fields' draws of the
    SplitMix64 stream of seed (sampling._draws), each from the 3-D formula
    of sampling._samples, one cosine product per term, not from 1-D
    factors."""
    k, phase, amp = _draws(seed, count, kmax=2)
    s = (dom.cell_centers() - dom.origin) / (np.asarray(dom.n) * dom.h)
    bump = np.prod((4.0 * s * (1.0 - s)) ** 3, axis=-1)
    for f in range(count):
        vals = np.zeros((4,) + dom.shape)
        for c, t in np.ndindex(4, 4):
            vals[c] += (c > 0) * amp[f, c, t] * bump * np.prod(
                [np.cos(2 * np.pi * k[f, c, t, i] * s[..., i]
                        + phase[f, c, t, i]) for i in range(3)], axis=0)
        yield QField(dom, vals)


def _unpruned_ratios(ops, seed, samples=30):
    """(Cs, CD, Cu) of the sampling loop with all four Cs families, the
    composed ||T Sc(uD)u|| / ||u||_H1^2 included (T applied on every
    sample), and D+B computed twice, on the fields of the stream that
    estimate_constants draws, u and B taking turns."""
    fields = _stream_bumps(ops.domain, seed, 2 * samples)
    ratios_s, ratios_d, ratios_c = [], [], []
    for _ in range(samples):
        u, B = next(fields), next(fields)
        uh, Bh = h1_norm(u), h1_norm(B)
        conv = convective(u, u)
        ratios_s += [lq_norm(conv, 1.25) / uh**2,
                     lq_norm(lorentz(B, 1.0), 1.25) / Bh**2,
                     l2_norm(dirac_fwd(B)) / Bh,
                     l2_norm(ops.teodorescu(conv)) / uh**2]
        Du = l2_norm(dirac_fwd(u))
        ratios_d.append(Du / uh)
        ratios_c.append(Du**2 / uh**2)
    return 2.0 * max(ratios_s), 2.0 * max(ratios_d), 0.5 * min(ratios_c)


@pytest.mark.parametrize("n, extent, seed", [
    (8, 1.0, 0), (8, 1.0, 3), (12, 1.0, 0), (12, 1.0, 3), (8, 10.0, 3)])
def test_constants_skip_matches_unpruned_loop(n, extent, seed):
    # the composed T ratio, which estimate_constants does not sample, never
    # sets Cs: the bundle is that of the four-family loop on the 3-D
    # formula's fields, up to the rounding of the 1-D factors and of the
    # separable H1 and D+ norms (at most 4.6e-16 relative on these cases)
    ops = OperatorSet(build_domain((0.0, 0.0, 0.0), (extent,) * 3, n))
    c = estimate_constants(ops, seed=seed)
    ref = _unpruned_ratios(ops, seed)
    for got, want in zip((c.Cs, c.CD, c.Cu), ref):
        assert abs(got - want) <= 1e-13 * want
    assert (c.C1, c.lambda_min) == (1.0 / ops.lambda_min(), ops.lambda_min())
    assert c.k == ops.op_norm_TQT()


@pytest.mark.parametrize("origin, extent, n", [
    ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 8),
    ((0.1, -0.2, 0.3), (0.6, 0.8, 1.0), (6, 8, 10)),
    ((0.0, 0.0, 0.0), (10.0, 10.0, 10.0), 8)])
def test_separable_norms_match_the_lattice_norms(origin, extent, n):
    # the Gram-matrix norms of estimate_constants against h1_norm and
    # l2_norm(dirac_fwd(.)) of the lattice fields of the same samples
    dom = build_domain(origin, extent, n)
    factors, fields = _samples(dom, _draws(11, 8, kmax=2), pure=True)
    norms = _separable_norms(factors, dom.h)
    ref = np.array([[h1_norm(u), l2_norm(dirac_fwd(u))] for u in fields])
    assert norms.shape == (8, 2)
    assert np.abs(norms - ref).max() <= 1e-13 * ref.min()


@pytest.mark.parametrize("extent, n", [((1.0, 1.0, 1.0), 8),
                                       ((0.6, 0.8, 1.0), (6, 8, 10)),
                                       ((1.0, 1.0, 1.0), 16)])
def test_separable_norms_of_all_samples_match_per_pair_calls(extent, n):
    # estimate_constants takes the norms of its 60 fields in one call; the
    # Gram products and their sums run per sample, so that call gives the
    # 30 calls of two fields each bit for bit (measured difference 0)
    dom = build_domain((0.0, 0.0, 0.0), extent, n)
    factors, _ = _samples(dom, _draws(0, 60, kmax=2), pure=True)
    pairs = [_separable_norms([f[j:j + 2] for f in factors], dom.h)
             for j in range(0, 60, 2)]
    assert np.array_equal(_separable_norms(factors, dom.h),
                          np.concatenate(pairs))


# ---------------------------------------------------------------------------
# condition arithmetic
# ---------------------------------------------------------------------------

def test_check_cond1():
    assert check_cond1(0.0, ALL_ONES, Rm=1.0)
    assert not check_cond1(0.5, ALL_ONES, Rm=1.0)  # threshold 1/2, strict
    assert check_cond1(0.5 - 1e-12, ALL_ONES, Rm=1.0)


def test_check_schauder_bound():
    params = MHDParams(Re=1.0, Rm=1.0, mu0=1.0)
    assert check_schauder_bound(0.0, ALL_ONES, params)
    assert check_schauder_bound(1.0, ALL_ONES, params)  # non-strict at 1
    assert not check_schauder_bound(1.0 + 1e-12, ALL_ONES, params)


def test_lipschitz_Ln_hand_values():
    params = MHDParams(Re=1.0, Rm=1.0, mu0=1.0)
    assert lipschitz_Ln(ALL_ONES, 0.0, 0.0, 1.0, params) == 0.0
    # all inputs 1: 2 * (1 + (1/2 + 1) * 1) = 5
    assert lipschitz_Ln(ALL_ONES, 1.0, 1.0, 1.0, params) == 5.0
    p2 = MHDParams(Re=2.0, Rm=1.0, mu0=1.0)
    # doubling Re multiplies the leading factor by 4 (with the C4 term at 0)
    assert lipschitz_Ln(ALL_ONES, 1.0, 0.0, 0.0, p2) \
        == 4.0 * lipschitz_Ln(ALL_ONES, 1.0, 0.0, 0.0, params)


def test_check_theorem4_hand_values():
    params = MHDParams(Re=1.0, Rm=1.0, mu0=1.0)
    ok, W = check_theorem4(ALL_ONES, params, supB_h1=0.0)
    assert ok and W == pytest.approx(0.5, abs=1e-15)
    # second condition threshold: Rm^2 < 4(8 * 0.5 - 1)/3 = 4 -> Rm = 1 ok
    params_big = MHDParams(Re=1.0, Rm=2.0, mu0=1.0)
    ok_big, _ = check_theorem4(ALL_ONES, params_big, supB_h1=0.0)
    assert not ok_big  # Rm^2 = 4 is not < 4
    # boundary case of condition (a): supB^2/mu0 == 1/16 passes (non-strict)
    ok_edge, W_edge = check_theorem4(ALL_ONES, params, supB_h1=0.25)
    assert math.isfinite(W_edge)
    # negative radicand: condition (a) already failed, W is NaN
    ok_neg, W_neg = check_theorem4(ALL_ONES, params, supB_h1=10.0)
    assert not ok_neg and math.isnan(W_neg)


# ---------------------------------------------------------------------------
# pressure recovery
# ---------------------------------------------------------------------------

def test_pressure_recover_zero(dom12, ops12):
    assert not pressure_recover(QField.zeros(dom12), ops12).values.any()


def test_pressure_recover_rejects_vector_rhs(dom12, ops12):
    with pytest.raises(ValueError):
        pressure_recover(random_pure_bump(dom12, seed=0), ops12)


def test_pressure_recover_manufactured(dom12, ops12):
    def S(parr):
        f = np.zeros((4,) + dom12.shape)
        f[0] = parr
        return ops12.bergman_Q(QField(dom12, f)).values[0]

    rng = np.random.default_rng(3)
    # manufacture p0 inside range(S): S is symmetric positive semidefinite,
    # so range(S) is the recoverable complement of its kernel; constants
    # lie in that kernel, so every S(x) is already zero-mean
    p0 = S(rng.standard_normal(dom12.shape))
    assert abs(p0.mean()) <= 1e-12 * np.linalg.norm(p0)
    rhs = np.zeros((4,) + dom12.shape)
    rhs[0] = S(p0)
    p = pressure_recover(QField(dom12, rhs), ops12)
    err = np.linalg.norm(p.values[0] - p0) / np.linalg.norm(p0)
    assert err <= 1e-6
    assert abs(p.values[0].mean()) <= 1e-12


def _pressure_operator(n):
    """S: p -> Sc(Q p) on flat arrays, on a box of n cells of side 0.1."""
    dom = build_domain((0.1, -0.2, 0.3), tuple(0.1 * m for m in n), n)
    ops = OperatorSet(dom)

    def S(parr):
        f = np.zeros((4,) + dom.shape)
        f[0] = parr.reshape(dom.shape)
        return ops.bergman_Q(QField(dom, f)).values[0].ravel()
    return dom, S


@pytest.mark.parametrize("n", [(8, 8, 8), (6, 8, 10)])
def test_cg_matches_scipy_consistent(n):
    # on a consistent system _cg lands on SciPy's MINRES solution: both
    # keep their iterates in range(S), so both return the minimum-norm x
    from scipy.sparse.linalg import LinearOperator, minres
    dom, S = _pressure_operator(n)
    b = S(np.random.default_rng(18).standard_normal(dom.num_cells))
    lin = LinearOperator((b.size, b.size), matvec=S, rmatvec=S)
    ref, info = minres(lin, b, rtol=1e-12, maxiter=2000)
    got, iters, why = _cg(S, b, 1e-12, 2000)
    assert info == 0 and iters < 2000 and why == ""
    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)


def test_pressure_recover_rejects_rhs_outside_range(dom8, ops8):
    # a random scalar field has a component in the kernel of S: no p
    # solves Sc(Q p) = rhs, and the normal-residual gate says so
    rhs = np.zeros((4,) + dom8.shape)
    rhs[0] = np.random.default_rng(20).standard_normal(dom8.shape)
    with pytest.raises(RuntimeError, match="normal-equation residual"):
        pressure_recover(QField(dom8, rhs), ops8, maxit=200)


def test_pressure_recover_never_returns_a_non_finite_pressure(dom8, ops8,
                                                              monkeypatch):
    # outside range(S) the CG iterates grow without bound; at the default
    # maxit the gate still rejects them, and it rejects a NaN x too, whose
    # residual compares False with any bound
    import quatmhd.solvers as solvers
    rhs = np.zeros((4,) + dom8.shape)
    rhs[0] = np.random.default_rng(20).standard_normal(dom8.shape)
    x, _, _ = _cg(ops8.pressure_S, rhs[0], solvers._CG_TOL, 2000)
    assert np.isfinite(x).all()
    with pytest.raises(RuntimeError, match="normal-equation residual"):
        pressure_recover(QField(dom8, rhs), ops8)
    rhs[0] = ops8.pressure_S(rhs[0])
    monkeypatch.setattr(solvers, "_cg",
                        lambda S, b, tol, maxit: (np.full_like(b, np.nan), 1,
                                                  ""))
    with pytest.raises(RuntimeError, match="residual nan after 1 CG"):
        pressure_recover(QField(dom8, rhs), ops8)


@pytest.mark.parametrize("n", [8, 12, 16, 24])
def test_pressure_recover_gives_up_on_a_stalled_residual(n, monkeypatch):
    # outside range(S) the CG residual never falls below its first value
    # (at n = 12 and 24 the curvature stays positive for all 2000
    # iterations); CG gives up after _CG_STALL iterations without a new
    # minimum, and the gate names the stall
    dom = build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), n)
    ops = OperatorSet(dom)
    rhs = np.zeros((4,) + dom.shape)
    rhs[0] = np.random.default_rng(20).standard_normal(dom.shape)
    applies = []
    apply_S = OperatorSet.pressure_S

    def counted(self, p):
        applies.append(1)
        return apply_S(self, p)

    monkeypatch.setattr(OperatorSet, "pressure_S", counted)
    with pytest.raises(RuntimeError, match="the residual stalled"):
        pressure_recover(QField(dom, rhs), ops)
    assert len(applies) <= 100


def test_cg_stops_at_a_direction_without_curvature():
    # b in the kernel of A: the first direction has d.Ad = 0
    x, iters, why = _cg(lambda d: 0.0 * d, np.ones(5), 1e-12, 10)
    assert not x.any() and iters == 0
    assert why == "a direction without positive curvature"


def test_pressure_recover_applies_no_full_Q(dom8, ops8, monkeypatch):
    # every S apply goes through pressure_S, not the 4-component Q
    rhs = np.zeros((4,) + dom8.shape)
    rhs[0] = ops8.bergman_Q(random_pure_bump(dom8, seed=6)).values[0]
    ref = pressure_recover(QField(dom8, rhs), ops8)

    def no_full_Q(self, f):
        raise AssertionError("pressure_recover applied bergman_Q")

    monkeypatch.setattr(OperatorSet, "bergman_Q", no_full_Q)
    got = pressure_recover(QField(dom8, rhs), ops8)
    assert np.array_equal(got.values, ref.values)
    assert ref.values.any()


@pytest.mark.parametrize("dom", ["dom8", "dom12", "dom16"])
def test_cg_iterations_match_stencil_path(dom, request, stencil_pressure):
    # CG over the matrix-chain pressure_S runs as many iterations as over
    # the stencil composition it replaced, on a fixed right side in
    # range(S), and lands on the same p
    from quatmhd.solvers import _CG_TOL
    dom = request.getfixturevalue(dom)
    ops = OperatorSet(dom)
    b = ops.bergman_Q(random_pure_bump(dom, seed=6)).values[0]
    got, iters, _ = _cg(ops.pressure_S, b, _CG_TOL, 2000)
    ref, ref_iters, _ = _cg(lambda p: stencil_pressure.S(ops, p), b, _CG_TOL,
                            2000)
    assert iters == ref_iters < 2000
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_pressure_recover_names_the_iteration_cap(dom12, ops12):
    rhs = np.zeros((4,) + dom12.shape)
    rhs[0] = ops12.bergman_Q(random_pure_bump(dom12, seed=4)).values[0]
    with pytest.raises(RuntimeError, match=r"after 1 CG iterations, "
                                           r"the cap maxit=1"):
        pressure_recover(QField(dom12, rhs), ops12, maxit=1)


# ---------------------------------------------------------------------------
# Neumann series solves
# ---------------------------------------------------------------------------

def test_neumann_zero_linearization(dom12, ops12):
    # mixed mode: c_u = Re/mu0 and c_p = Re^2 from the table
    params = MHDParams(Re=1.3, Rm=0.7, mu0=1.7, exponent_mode="mixed")
    cfg = SolverConfig(method="schauder_neumann")
    zero = MHDState.zeros(dom12)
    B = random_pure_bump(dom12, seed=1)
    pv = np.zeros((4,) + dom12.shape)
    pv[0] = random_pure_bump(dom12, seed=2).values[1]
    pv[0] -= pv[..., 0].mean()
    p = QField(dom12, pv)
    u, q1, terms = neumann_apply_u(zero.u, lorentz(B, params.mu0), p, params,
                                   ops12, cfg, convection_norm(zero.u, ops12))
    assert q1 == 0.0 and terms <= 2
    ref = ops12.poisson_dirichlet(params.Re * lorentz(B, params.mu0)
                                  - params.Re**2 * grad_bwd(p))
    assert l2_norm(u - ref) <= 1e-13 * max(l2_norm(ref), 1e-300)


def test_neumann_residual(dom12, ops12):
    # with a nonzero linearization point, (I + A)u reproduces the right side;
    # mixed mode: c_u = Re/mu0, c_p = Re^2, c_B = Rm^2
    params = MHDParams(Re=1.3, Rm=0.9, mu0=1.7, exponent_mode="mixed")
    cfg = SolverConfig(method="schauder_neumann")
    ut = 0.1 * random_pure_bump(dom12, seed=3)
    st = MHDState(ut, random_pure_bump(dom12, seed=4), QField.zeros(dom12))
    pv = np.zeros((4,) + dom12.shape)
    pv[0] = random_pure_bump(dom12, seed=5).values[1]
    pv[0] -= pv[..., 0].mean()
    p = QField(dom12, pv)
    norm = convection_norm(ut, ops12)
    u, q1, _ = neumann_apply_u(ut, lorentz(st.B, params.mu0), p, params,
                               ops12, cfg, norm)
    assert q1 < 0.9
    c = params.Re / params.mu0
    r = ops12.poisson_dirichlet(params.Re * lorentz(st.B, params.mu0)
                                - params.Re**2 * grad_bwd(p))
    lhs = u + c * ops12.poisson_dirichlet(convective(ut, u))
    assert l2_norm(lhs - r) <= 1e-8 * l2_norm(r)

    B, q2, _ = neumann_apply_B(ut, st.B, u, params, ops12, cfg, norm)
    assert q2 < 0.9
    rB = params.Rm**2 * ops12.poisson_dirichlet(convective(st.B, u))
    lhsB = B + params.Rm**2 * ops12.poisson_dirichlet(convective(ut, B))
    assert l2_norm(lhsB - rB) <= 1e-8 * max(l2_norm(rB), 1e-300)


def test_schauder_one_norm_estimate_per_step(dom8, ops8, monkeypatch):
    # both Neumann series scale the same map v -> TQT Sc(u~D) v, so one
    # convection_norm per outer step gives q2 = (c_B / c_u) q1
    import quatmhd.solvers as solvers
    calls = []
    norm = solvers.convection_norm

    def counted(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(solvers, "convection_norm", counted)
    params = MHDParams(Re=1.5, Rm=0.5, mu0=2.0)
    u0 = leray_project(0.05 * random_pure_bump(dom8, seed=10), ops8)
    init = MHDState(u0, 0.05 * random_pure_bump(dom8, seed=11),
                    QField.zeros(dom8))
    cfg = SolverConfig(method="schauder_neumann", max_outer=3)
    _, report = schauder_solve(params, ops8, cfg, init=init)
    assert len(calls) == report.iterations == len(report.rows) >= 2
    scale = params.coeff_B() / params.coeff_u()
    for row in report.rows:
        assert 0.0 < row["q1"] < 1.0
        assert row["q2"] == pytest.approx(scale * row["q1"], rel=1e-12)


def _dense_convection_map(ut, ops):
    """The matrix of v -> TQT Sc(u~D) v on flattened quaternion fields,
    one column per unit field."""
    dom = ops.domain
    eye = np.eye(4 * math.prod(dom.shape))
    return np.stack([ops.poisson_dirichlet(convective(ut, QField(
        dom, e.reshape((4,) + dom.shape)))).values.ravel() for e in eye],
        axis=1)


@pytest.mark.parametrize("n, extent", [(6, (1.0, 1.0, 1.0)),
                                       ((5, 7, 6), (0.5, 0.7, 0.6))])
def test_convection_norm_matches_dense_norm(n, extent):
    # the 2-norm of the 4-component map, not its spectral radius
    dom = build_domain((0.1, -0.2, 0.3), extent, n)
    ops = OperatorSet(dom)
    ut = 0.3 * random_pure_bump(dom, seed=3)
    ref = np.linalg.norm(_dense_convection_map(ut, ops), 2)
    assert convection_norm(ut, ops) == pytest.approx(ref, rel=1e-6)


def test_convection_norm_of_zero_field(ops8, dom8):
    assert convection_norm(QField.zeros(dom8), ops8) == 0.0


@pytest.mark.parametrize("scale", [1e-170, 1e-100, 1e100, 1e170])
def test_convection_norm_is_linear_in_the_field(ops8, dom8, scale):
    # the squared off-diagonal of the Sturm sequence would under- or
    # overflow on the unscaled A^T A of these fields
    ut = random_pure_bump(dom8, seed=3)
    assert convection_norm(scale * ut, ops8) / scale == pytest.approx(
        convection_norm(ut, ops8), rel=1e-12)


def _lanczos(apply_A, v):
    """Lanczos recurrence of a symmetric apply_A from the nonzero array v,
    as a generator of (v_k, alpha_k, beta_k, beta_{k+1}) with

        A v_k = beta_k v_{k-1} + alpha_k v_k + beta_{k+1} v_{k+1},

    beta_1 = ||v||, ending after a zero beta_{k+1}. The slow-path oracle
    of convection_norm's inline loop."""
    beta = float(np.sqrt((v * v).sum()))
    v, v_prev = v / beta, None
    while True:
        w = apply_A(v)
        alpha = float((v * w).sum())
        w = w - alpha * v
        if v_prev is not None:
            w -= beta * v_prev
        beta_next = float(np.sqrt((w * w).sum()))
        yield v, alpha, beta, beta_next
        if beta_next == 0.0:
            return
        w /= beta_next
        v_prev, v, beta = v, w, beta_next


def _normal_map(a, x, ops):
    """A^T A x = sum_i D^c_i^T (a_i L^-2 sum_j a_j D^c_j x), with the
    per-axis centered-difference matrices and the one-pair L^-2 of
    convection_norm: L^-1 is symmetric, and A is mhd._convect_solve on
    scalar arrays."""
    D = [_centered_matrix(ops.domain.shape, i, ops.domain.h)
         for i in range(3)]
    s = sum(a[i] * _along_axis(x, D[i], i) for i in range(3))
    s = ops._collar_solve(s, 2)
    return sum(_along_axis(a[i] * s, D[i].T, i) for i in range(3))


def _convection_norm_oracle(ut, ops):
    """convection_norm composed from the Lanczos generator and the
    normal map, with the same stop rules."""
    a = ut.values[1:]
    scale = float(np.abs(a).max(initial=0.0))
    a = a / scale
    v = _gaussian(_uniforms(_NORM_SEED, ops.domain.shape + (2,)))
    steps = _lanczos(lambda x: _normal_map(a, x, ops), v)
    alpha, beta, top = [], [], 0.0
    for _, (_, al, _, b) in zip(range(_NORM_MAXIT), steps):
        alpha.append(al)
        prev, top = top, _top_eigenvalue(alpha, beta, _RITZ_TOL)
        if abs(top - prev) <= _NORM_TOL * top or b == 0.0:
            return scale * math.sqrt(top)
        beta.append(b)
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("n, extent", [(8, (1.0, 1.0, 1.0)),
                                       ((5, 7, 6), (0.5, 0.7, 0.6))])
@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_convection_norm_matches_the_generator_oracle(n, extent, scale):
    # the inline Lanczos loop does every operation of the generator
    # composition in the same order, so the norm agrees bit for bit
    dom = build_domain((0.1, -0.2, 0.3), extent, n)
    ops = OperatorSet(dom)
    for seed in (3, 4):
        ut = scale * random_pure_bump(dom, seed=seed)
        assert convection_norm(ut, ops) == _convection_norm_oracle(ut, ops)


@pytest.mark.parametrize("n, extent", [(8, (1.0, 1.0, 1.0)),
                                       ((5, 7, 6), (0.5, 0.7, 0.6))])
def test_collar_solve_squared_is_two_poisson_solves(n, extent):
    # one sine-transform pair with two divides by the symbol against two
    # collar solves, for a scalar array and a batch of three
    dom = build_domain((0.1, -0.2, 0.3), extent, n)
    ops = OperatorSet(dom)
    rng = np.random.default_rng(8)
    for shape in (dom.shape, (3,) + dom.shape):
        rhs = rng.standard_normal(shape)
        ref = ops.poisson_scalar(ops.poisson_scalar(rhs))
        got = ops._collar_solve(rhs, 2)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert not got[..., 0, :, :].any() and not got[..., -1].any()
        assert np.array_equal(ops._collar_solve(rhs, 1),
                              ops.poisson_scalar(rhs))


@pytest.mark.parametrize("n, extent", [(8, (1.0, 1.0, 1.0)),
                                       ((5, 7, 6), (0.5, 0.7, 0.6))])
def test_convection_norm_map_matches_convect_solve(n, extent):
    # the map A of convection_norm, on the per-axis centered-difference
    # matrices, against mhd._convect_solve, which applies the same
    # matrices in the same order, bit for bit; and the map through the
    # transposed matrices against A's adjoint
    dom = build_domain((0.1, -0.2, 0.3), extent, n)
    ops = OperatorSet(dom)
    rng = np.random.default_rng(9)
    a, x, y = (rng.standard_normal(s) for s in
               ((3,) + dom.shape, dom.shape, dom.shape))
    D = [_centered_matrix(dom.shape, i, dom.h) for i in range(3)]
    Ax = ops.poisson_scalar(sum(a[i] * _along_axis(x, D[i], i)
                                for i in range(3)))
    assert Ax.tobytes() == _convect_solve(a, x, ops).tobytes()
    ATy = sum(_along_axis(a[i] * ops.poisson_scalar(y), D[i].T, i)
              for i in range(3))
    assert float((Ax * y).sum()) == pytest.approx(float((x * ATy).sum()),
                                                  rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_convection_norm_rejects_a_non_finite_field(ops8, dom8, bad,
                                                    monkeypatch):
    # a NaN or inf u~ is refused before any collar solve, without a NumPy
    # warning, instead of running every Lanczos step on NaNs
    import warnings
    solves = []
    solve = OperatorSet._collar_solve

    def counted(self, rhs, power):
        solves.append(power)
        return solve(self, rhs, power)

    monkeypatch.setattr(OperatorSet, "_collar_solve", counted)
    ut = random_pure_bump(dom8, seed=3)
    ut.values[2, 3, 4, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="advection field u~ has a "
                                             "non-finite entry"):
            convection_norm(ut, ops8)
    assert not solves


def test_convection_norm_cap_raises(ops8, dom8, monkeypatch):
    import quatmhd.solvers as solvers
    monkeypatch.setattr(solvers, "_NORM_MAXIT", 2)
    with pytest.raises(RuntimeError, match="convection_norm: Lanczos not "
                                           "converged after 2 steps"):
        convection_norm(random_pure_bump(dom8, seed=3), ops8)


def _bisect_top(a, b, lo=-np.inf, rtol=0.0):
    """The Sturm bisection _top_eigenvalue replaced, from the Gershgorin
    bounds with lo raising the lower one, as convection_norm called it with
    the previous Ritz value; returns the upper end and the passes of the
    pivot recurrence."""
    r = [abs(x) for x in b] + [0.0]
    lo = max(lo, min(ai - ri - rj for ai, ri, rj in zip(a, [0.0] + r, r)))
    hi = max(ai + ri + rj for ai, ri, rj in zip(a, [0.0] + r, r))
    passes = 0
    while hi - lo > rtol * max(abs(lo), abs(hi)):
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        passes += 1
        below, d = 0, 1.0
        for i, ai in enumerate(a):
            d = ai - x - (b[i - 1] ** 2 / d if i else 0.0)
            d = d or -1e-300
            below += d < 0
        if below == len(a):
            hi = x
        else:
            lo = x
    return hi, passes


def _newton_top(a, b):
    """_top_eigenvalue(a, b, _RITZ_TOL) and its passes of the pivot
    recurrence, each one enumerate(a) in the solvers module."""
    import builtins
    import quatmhd.solvers as solvers
    passes = []

    def counted(seq):
        passes.append(1)
        return builtins.enumerate(seq)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "enumerate", counted, raising=False)
        top = _top_eigenvalue(a, b, _RITZ_TOL)
    return top, len(passes)


def _recorded_ritz_calls(run):
    """(a, b, prev, Ritz value) of each _top_eigenvalue call of run(),
    prev being the Ritz value of the call before it in the same norm
    estimate (0 for the first), as convection_norm passed it to the
    bisection that Newton replaced."""
    import quatmhd.solvers as solvers
    calls = []

    def recorded(a, b, rtol):
        value = _top_eigenvalue(a, b, rtol)
        prev = calls[-1][3] if calls and len(a) > 1 else 0.0
        calls.append((list(a), list(b), prev, value))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_top_eigenvalue", recorded)
        run()
    return calls


@pytest.mark.parametrize("dom", ["dom8", "dom12"])
def test_convection_norm_ritz_newton(dom, request):
    # every Ritz value of convection_norm against eigvalsh on the same
    # Lanczos tridiagonal, to _RITZ_TOL relative, in no more passes of the
    # pivot recurrence than the bisection up from the previous Ritz value
    dom = request.getfixturevalue(dom)
    calls = _recorded_ritz_calls(lambda: convection_norm(
        random_pure_bump(dom, seed=3), OperatorSet(dom)))
    assert len(calls) >= 5
    for a, b, prev, top in calls:
        ref = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1)
                                 + np.diag(b, -1))[-1]
        assert abs(top - ref) <= _RITZ_TOL * ref
        got, passes = _newton_top(a, b)
        assert got == top
        assert passes <= _bisect_top(a, b, prev, _RITZ_TOL)[1]


def _near_multiple_tops(k, m, gap, seed):
    """The Lanczos tridiagonal of a k x k symmetric matrix whose top m
    eigenvalues lie within gap of 1, the others spread over [0, 0.5]."""
    rng = np.random.default_rng(seed)
    lam = np.r_[np.linspace(0.0, 0.5, k - m), 1.0 - gap * rng.random(m - 1),
                1.0]
    Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
    A = (Q * lam) @ Q.T
    V = [np.ones(k) / math.sqrt(k)]
    a, b = [], []
    for j in range(k):
        w = A @ V[-1]
        a.append(float(V[-1] @ w))
        for v in V:  # full reorthogonalization
            w -= (v @ w) * v
        if j < k - 1:
            b.append(float(np.linalg.norm(w)))
            V.append(w / b[-1])
    return a, b


def test_ritz_values_by_newton(dom16):
    # the Newton Ritz value against eigvalsh, to _RITZ_TOL relative plus
    # eigvalsh's own rounding, in no more passes of the pivot recurrence
    # than the bisection it replaced: on the tridiagonals of warm n = 16
    # Schauder solves (against the bisection from the previous Ritz value,
    # as convection_norm ran it), those scaled by 1e+-100, and near-double
    # and near-triple, double, simple and diagonal cases
    def warm_solve():
        _, report = schauder_solve(
            MHDParams(Re=1.0, Rm=1.0, exponent_mode="mixed"),
            OperatorSet(dom16),
            SolverConfig(method="schauder_neumann", tol=1e-10),
            init=_warm_state(dom16))
        assert report.converged

    recorded = [c[:3] for c in _recorded_ritz_calls(warm_solve)]
    assert len(recorded) >= 20
    cases = list(recorded)
    for s in (1e-100, 1e100):
        cases += [([s * x for x in a], [s * x for x in b], -np.inf)
                  for a, b, _ in recorded[::4]]
    for m, gap, seed in [(2, 1e-6, 0), (2, 1e-10, 1), (2, 1e-13, 2),
                         (3, 1e-10, 3), (3, 1e-13, 4), (5, 1e-13, 5)]:
        cases.append(_near_multiple_tops(13, m, gap, seed) + (-np.inf,))
    cases += [([1.0, 1.0 + 1e-10, 0.5, 0.3], [0.0, 1e-3, 1e-3], -np.inf),
              ([1.0, 0.5, 1.0], [0.0, 0.0], -np.inf),  # double, split
              ([2.5], [], -np.inf), ([-2.5], [], -np.inf),
              ([0.3, 1.2, 0.7, 1.2], [0.0, 0.0, 0.0], -np.inf),
              ([float(abs(i - 10)) for i in range(21)], [1.0] * 20,
               -np.inf)]  # Wilkinson's W21+, a near-double top
    total = np.zeros(2, dtype=int)  # passes over the solves' tridiagonals
    for k, (a, b, lo) in enumerate(cases):
        T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        ref = np.linalg.eigvalsh(T)[-1]
        top, passes = _newton_top(a, b)
        _, bisected = _bisect_top(a, b, lo, _RITZ_TOL)
        assert abs(top - ref) <= (_RITZ_TOL * abs(ref)
                                  + 1e-15 * len(a) * np.abs(T).max())
        assert passes <= bisected
        if k < len(recorded):
            total += (passes, bisected)
    assert total[0] <= total[1] / 3


def test_ritz_value_of_a_nan_tridiagonal():
    # a NaN or inf entry, wherever it stands, gives NaN before any pass
    for a, b in [([np.nan, 1.0], [1.0]), ([np.inf, 1.0], [1.0]),
                 ([1.0, np.nan], [1.0]), ([1.0, 2.0, 3.0], [1.0, -np.inf])]:
        top, passes = _newton_top(a, b)
        assert passes == 0 and math.isnan(top)


def test_neumann_refuses_large_q(dom12, ops12, monkeypatch):
    # huge Reynolds numbers push both series ratios past 1; each series
    # refuses before it applies a single collar solve
    params = MHDParams(Re=1e4, Rm=1e4)
    cfg = SolverConfig(method="schauder_neumann")
    st = MHDState(random_pure_bump(dom12, seed=6),
                  random_pure_bump(dom12, seed=7), QField.zeros(dom12))
    norm = convection_norm(st.u, ops12)
    solves = []
    solve = OperatorSet.poisson_scalar

    def counted(self, rhs):
        solves.append(1)
        return solve(self, rhs)

    monkeypatch.setattr(OperatorSet, "poisson_scalar", counted)
    with pytest.raises(ConditionViolation) as err_u:
        neumann_apply_u(st.u, lorentz(st.B, params.mu0), st.p, params,
                        ops12, cfg, norm)
    with pytest.raises(ConditionViolation) as err_B:
        neumann_apply_B(st.u, st.B, st.u, params, ops12, cfg, norm)
    assert err_u.value.q >= 1.0 and err_B.value.q >= 1.0
    assert not solves


# ---------------------------------------------------------------------------
# inner B iteration
# ---------------------------------------------------------------------------

def test_inner_B_zero_velocity(dom12, ops12):
    params = MHDParams(Re=1.0, Rm=1.0)
    cfg = SolverConfig()
    B0 = random_pure_bump(dom12, seed=7)
    B, iters, _ = banach_inner_B(QField.zeros(dom12), B0, h1_norm(B0),
                                 params, ops12, cfg)
    assert not B.values.any()
    assert iters <= 2


def test_inner_B_contraction_ratio(dom12, ops12):
    params = MHDParams(Re=1.0, Rm=1.0)
    cfg = SolverConfig(tol=1e-12)
    c = estimate_constants(ops12, seed=0)
    u = 0.05 * random_pure_bump(dom12, seed=8)
    assert check_cond1(h1_norm(u), c, params.Rm)
    B0 = random_pure_bump(dom12, seed=9)
    B, iters, ratio = banach_inner_B(u, B0, h1_norm(B0), params, ops12,
                                     cfg)
    bound = 2 * params.Rm**2 * c.C1 * c.Cs * h1_norm(u)
    assert ratio <= bound * 1.1
    # fixed point: one more application reproduces B
    from quatmhd.mhd import tqt_rhs_B
    again = tqt_rhs_B(u, B, params, ops12)
    assert h1_norm(again - B) <= cfg.tol * 10 * max(1.0, h1_norm(B))


# ---------------------------------------------------------------------------
# outer solvers
# ---------------------------------------------------------------------------

def test_banach_zero_data(dom12, ops12):
    params = MHDParams(Re=1.0, Rm=1.0)
    state, report = banach_solve(params, ops12, SolverConfig())
    assert report.iterations <= 2
    assert not state.u.values.any()
    assert not state.B.values.any()
    assert not state.p.values.any()
    last = report.rows[-1]
    assert (last["res_mom"], last["res_ind"], last["divu"], last["divB"]) \
        == (0.0, 0.0, 0.0, 0.0)


def test_schauder_zero_data(dom12, ops12):
    params = MHDParams(Re=1.0, Rm=1.0)
    state, report = schauder_solve(params, ops12,
                                   SolverConfig(method="schauder_neumann"))
    assert report.iterations <= 2
    assert not state.u.values.any()
    assert not state.B.values.any()


def test_banach_small_data_converges(dom12, ops12):
    params = MHDParams(Re=1.0, Rm=1.0, mu0=1.0, exponent_mode="mixed",
                       boundary_h=_small_boundary(dom12, 1e-5))
    c = estimate_constants(ops12, seed=0)
    state, report = banach_solve(params, ops12, SolverConfig(tol=1e-12),
                                 constants=c)
    assert report.iterations < 50
    assert state.B.values.any()  # boundary data drives a nonzero field
    last = report.rows[-1]
    assert last["thm4"]
    # the last row's residuals are those of the returned state
    assert ((last["res_mom"], last["res_ind"], last["divu"], last["divB"])
            == residual_strong(state, params))


def test_schauder_ln_bit_identical_recompute(dom12, ops12):
    params = MHDParams(Re=1.0, Rm=1.0, mu0=1.0, exponent_mode="mixed",
                       boundary_h=_small_boundary(dom12, 1e-5))
    c = estimate_constants(ops12, seed=0)
    _, report = banach_solve(params, ops12, SolverConfig(tol=1e-12),
                             constants=c)
    assert report.iterations >= 2
    # every row's Ln is lipschitz_Ln of the H1 norm history (no hidden
    # state): rebuild that history from runs cut after 1..K steps, the
    # zero start first
    hist_u, hist_B = [0.0], [0.0]
    for k in range(1, report.iterations + 1):
        state, _ = banach_solve(params, ops12,
                                SolverConfig(tol=1e-12, max_outer=k),
                                constants=c)
        hist_u.append(h1_norm(state.u))
        hist_B.append(h1_norm(state.B))
    for n, row in enumerate(report.rows, start=1):
        C3 = hist_u[n - 1] + (hist_u[n - 2] if n > 1 else 0.0)
        C4 = hist_B[n - 1] + (hist_B[n - 2] if n > 1 else 0.0)
        F = 2.0 * c.Cs * (hist_B[n] + hist_B[n - 1])
        assert row["Ln"] == lipschitz_Ln(c, C3, C4, F, params)


SOLVE = {"banach": banach_solve, "schauder_neumann": schauder_solve}


@pytest.mark.parametrize("method", SOLVE)
def test_outer_loop_aborts_on_norm_blow_up(ops8, prescribed_iterates,
                                           method):
    # step 2 sets ||u||_H1 + ||B||_H1 = 2e3 > 1e3 max(1, initial norms = 0);
    # without the guard the state stops changing and the loop converges
    prescribed_iterates([1.0, 1.0, 1e6])
    params = MHDParams(Re=1.0, Rm=1.0)
    cfg = SolverConfig(method=method, max_outer=10, max_inner=2)
    with pytest.raises(DivergenceError,
                       match="state norm blow-up at iteration 2: 2e"):
        SOLVE[method](params, ops8, cfg)


@pytest.mark.parametrize("method", SOLVE)
def test_outer_loop_aborts_on_growing_changes(ops8, prescribed_iterates,
                                              method):
    # u and B grow by 1.2 per iterate: the state change grows from
    # step 3 on while the norms stay far below the blow-up bound, so the
    # fifth growing step in a row, step 7, aborts
    prescribed_iterates([1.2**k for k in range(40)])
    params = MHDParams(Re=1.0, Rm=1.0)
    cfg = SolverConfig(method=method, max_outer=10)
    with pytest.raises(DivergenceError,
                       match="state change grew 5 consecutive steps at "
                             "iteration 7"):
        SOLVE[method](params, ops8, cfg)


# ---------------------------------------------------------------------------
# budget of operator applies
# ---------------------------------------------------------------------------

def _warm_state(dom):
    """Divergence-free u and B of H1 norm 1e-3, zero p."""
    from quatmhd.sampling import random_divfree
    fields = [random_divfree(dom, seed=s) for s in (1, 2)]
    u0, B0 = [QField(dom, 1e-3 / h1_norm(f) * f.values) for f in fields]
    return MHDState(u0, B0, QField.zeros(dom))


def test_apply_budget(dom8, monkeypatch):
    # T (a padded FFT convolution) and Q are the costliest applies; the
    # counts are pinned so that added applies show up here. Setup: k is a
    # closed form and every Cs ratio is a lattice one, so no T is applied.
    # Warm Banach and Schauder solves (3 outer steps each): TQT is the
    # collar solve and QT is D+_gz L^-1, so neither T nor Q is applied.
    # The sine-transform solves of each Schauder step are pinned too: 9, 7
    # and 6 L^-2 solves (_collar_solve(., 2)), one a Lanczos step of
    # convection_norm, and 9, 7 and 5 collar solves (poisson_scalar) for
    # 4 + 4, 3 + 3 and 2 + 2 Neumann terms and the one projection, of B.
    # The pressure right side and the pressure operator make none: their
    # sine transforms are the matrix chains of pressure_S, applied 38 + 3
    # times a step by CG and its normal-residual gate
    import quatmhd.solvers as solvers
    counts = {"teodorescu": 0, "bergman_Q": 0, "poisson_scalar": 0,
              "pressure_S": 0, "L^-2": 0}
    for name in list(counts)[:4]:
        method = getattr(OperatorSet, name)

        def counted(self, f, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, f)
        monkeypatch.setattr(OperatorSet, name, counted)
    collar_solve = OperatorSet._collar_solve

    def counted_pair(self, rhs, power):
        counts["L^-2"] += power == 2
        return collar_solve(self, rhs, power)
    monkeypatch.setattr(OperatorSet, "_collar_solve", counted_pair)
    ops = OperatorSet(dom8)
    c = estimate_constants(ops, seed=3)
    assert counts["teodorescu"] == counts["bergman_Q"] == 0
    params = MHDParams(Re=1.0, Rm=1.0, exponent_mode="mixed")
    counts.update(teodorescu=0, bergman_Q=0)
    _, report = banach_solve(params, ops, SolverConfig(tol=1e-10),
                             init=_warm_state(dom8), constants=c)
    assert report.converged and report.iterations == 3
    assert counts["teodorescu"] == counts["bergman_Q"] == 0
    # collar solves and pressure_S applies per Schauder step, read at the
    # start of the next step and at the end
    per_step, bracket = [], solvers.momentum_bracket

    def step_start(*args):
        per_step.append((counts["poisson_scalar"], counts["L^-2"],
                         counts["pressure_S"]))
        return bracket(*args)
    monkeypatch.setattr(solvers, "momentum_bracket", step_start)
    counts.update(poisson_scalar=0, pressure_S=0)
    _, report = schauder_solve(
        params, ops, SolverConfig(method="schauder_neumann", tol=1e-10),
        init=_warm_state(dom8), constants=c)
    assert report.converged and report.iterations == 3
    assert counts["teodorescu"] == counts["bergman_Q"] == 0
    per_step.append((counts["poisson_scalar"], counts["L^-2"],
                     counts["pressure_S"]))
    assert np.diff(per_step, axis=0).tolist() == [[9, 9, 41], [7, 7, 41],
                                                  [5, 6, 41]]


def _count_stencils(monkeypatch):
    """Count the one-sided differences (grid._diff), the applies of a
    centered first- or second-difference matrix (operators._stencil_matrix,
    or its transpose, by operators._along_axis) and the collar solves
    (OperatorSet.poisson_scalar), under the names their callers look them
    up by. Returns the counts and a list that gets (_diff, stencil matrix
    applies, poisson_scalar) at the start of each outer step, as in
    test_apply_budget."""
    import quatmhd.grid as grid
    import quatmhd.mhd as mhd
    import quatmhd.operators as operators
    import quatmhd.solvers as solvers
    counts = {"_diff": 0, "matrix": 0, "poisson_scalar": 0}
    diff, stencil, along = grid._diff, operators._stencil_matrix, \
        operators._along_axis
    built = set()

    def counted_diff(*args, **kwargs):
        counts["_diff"] += 1
        return diff(*args, **kwargs)

    def recorded_stencil(*args):
        S = stencil(*args)
        built.add(id(S))
        return S

    def counted_along(x, M, axis):
        counts["matrix"] += id(M if M.base is None else M.base) in built
        return along(x, M, axis)
    for module in (grid, operators):
        monkeypatch.setattr(module, "_diff", counted_diff)
    monkeypatch.setattr(operators, "_stencil_matrix", recorded_stencil)
    for module in (operators, mhd, solvers):
        monkeypatch.setattr(module, "_along_axis", counted_along)
    solve = OperatorSet.poisson_scalar

    def counted_solve(self, rhs):
        counts["poisson_scalar"] += 1
        return solve(self, rhs)
    monkeypatch.setattr(OperatorSet, "poisson_scalar", counted_solve)
    per_step, bracket = [], solvers.momentum_bracket

    def step_start(*args):
        per_step.append(tuple(counts.values()))
        return bracket(*args)
    monkeypatch.setattr(solvers, "momentum_bracket", step_start)
    return counts, per_step


def test_stencil_budget(dom8, ops8, monkeypatch):
    # the one-sided differences (grid._diff) and the stencil matrix
    # applies (centered first and second differences) of warm n = 8 solves
    # per outer step, read at the start of each step and at the end as in
    # test_apply_budget, so that a field derived twice shows up here. A
    # pure field's scalar part is not differenced, and its three vector
    # components are one batch: D+B takes 9 _diff, an advection or a
    # Laplacian 3 matrix applies. A Banach step takes 48 _diff and 15
    # applies, plus 6 and 6 per inner B iteration (2 in step 1, then 1).
    # Of those, the derived fields of the new state take 9 _diff and 9
    # applies (one D+B, three advections, the last two kept as their
    # difference), its residual row's two Laplacians 6 applies and its
    # energy row's D+u 9 _diff. Deriving them again for each row and for
    # the bracket would take 90 and 18 more. The inner B loop reads the H1
    # norm of its start from the outer loop's history instead of
    # differencing it again. A Schauder step takes the same 48 and 15,
    # plus 3 applies for the magnetic right side convective(B, u), 3 per
    # Neumann term (6, 4 and 2 terms in steps 1 to 3) and 6 per Lanczos
    # step of convection_norm (9, 7 and 6 steps, as in test_apply_budget)
    counts, per_step = _count_stencils(monkeypatch)
    params = MHDParams(Re=1.0, Rm=1.0, exponent_mode="mixed")
    got = {}
    for method in SOLVE:
        per_step.clear()
        _, report = SOLVE[method](
            params, ops8, SolverConfig(method=method, tol=1e-10),
            init=_warm_state(dom8))
        assert report.iterations == 3
        per_step.append(tuple(counts.values()))
        got[method] = np.diff(per_step, axis=0)[:, :2].tolist()
    assert got == {"banach": [[60, 27], [54, 21], [54, 21]],
                   "schauder_neumann": [[48, 90], [48, 72], [48, 60]]}


def test_cold_start_budget(dom8, ops8, monkeypatch):
    # a cold Banach solve with face data starts from u = B = p = 0. The
    # stencils, the TQT solves and the H1 norms skip identically zero
    # operands (grid._first_live), so the zero state's H1 norms and
    # bracket difference nothing, and step 1 makes no u solve, no pressure
    # right side, no div u and no inner B advection or solve: B is the
    # boundary term twice. Counted as (_diff, stencil matrix applies,
    # poisson_scalar) before step 1, then per step. Step 1's 33 _diff are
    # the inner loop's three nonzero H1 norms (9), the Leray step (6) and
    # the rows of the new state (18: the H1 norm of B and of its change,
    # D+B and div B), its 3 applies the Laplacian of B in the residual
    # row, and its one collar solve is the Leray step's. Differencing the
    # zero operands too would take (15, 3, 0) before step 1 and (60, 27, 4)
    # in it, as in step 2
    counts, per_step = _count_stencils(monkeypatch)
    params = MHDParams(Re=1.0, Rm=1.0, exponent_mode="mixed",
                       boundary_h=_small_boundary(dom8, 1e-5))
    per_step.append(tuple(counts.values()))
    _, report = banach_solve(params, ops8, SolverConfig(tol=1e-10))
    assert report.converged
    per_step.append(tuple(counts.values()))
    assert np.diff(per_step, axis=0).tolist() == [[0, 0, 0], [33, 3, 1],
                                                  [60, 27, 4]]


@pytest.mark.parametrize("method", SOLVE)
@pytest.mark.parametrize("start", ["warm", "boundary"])
def test_rows_match_standalone_residual_and_energy(dom8, ops8, method,
                                                   start):
    # the loop derives each state's fields once and shares them between
    # its rows; every row equals residual_strong and energy evaluated
    # alone on that step's state, bit for bit. The state of step k is the
    # result of the same solve cut at max_outer = k
    from quatmhd.energy import energy
    if start == "warm":
        init, h = _warm_state(dom8), None
    else:
        init, h = None, _small_boundary(dom8, 1e-5)
    params = MHDParams(Re=1.0, Rm=1.0, exponent_mode="mixed", boundary_h=h)
    c = estimate_constants(ops8, seed=3)
    run = lambda k: SOLVE[method](
        params, ops8, SolverConfig(method=method, tol=1e-10, max_outer=k),
        init=init, constants=c)
    _, report = run(100)
    assert report.converged and report.iterations >= 2
    for k, row in enumerate(report.rows, start=1):
        state, _ = run(k)
        assert (row["res_mom"], row["res_ind"], row["divu"],
                row["divB"]) == residual_strong(state, params)
        assert row["energy"] == energy(state.u, state.B, params, c.Cs)


def _count_brackets(monkeypatch):
    """Count the convective(u, u) calls and the Lorentz products
    (_lorentz_of, which lorentz calls too) of mhd and solvers, under the
    names those modules look them up by."""
    import quatmhd.mhd as mhd
    import quatmhd.solvers as solvers
    counts = {"convective_uu": 0, "lorentz": 0}
    convective_, lorentz_of_ = mhd.convective, mhd._lorentz_of

    def counted_convective(a, w):
        counts["convective_uu"] += a is w
        return convective_(a, w)

    def counted_lorentz(B, DB, mu0):
        counts["lorentz"] += 1
        return lorentz_of_(B, DB, mu0)

    for module in (mhd, solvers):
        monkeypatch.setattr(module, "convective", counted_convective)
        monkeypatch.setattr(module, "_lorentz_of", counted_lorentz)
    return counts


def test_banach_bracket_once_per_step(dom8, ops8, monkeypatch):
    # each state's Lorentz force and convective(u, u) are computed once:
    # the initial state's before step 1, and each new state's in
    # mhd._derive for its residual and energy rows, which the next step's
    # bracket reuses. So a K-step solve evaluates each K + 1 times. The
    # inner B loop advects only (u, B) pairs
    counts = _count_brackets(monkeypatch)
    params = MHDParams(Re=1.0, Rm=1.0, exponent_mode="mixed")
    _, report = banach_solve(params, ops8, SolverConfig(tol=1e-10),
                             init=_warm_state(dom8))
    assert report.iterations == 3
    assert counts == {"convective_uu": 3 + 1, "lorentz": 3 + 1}


def test_schauder_lorentz_once_per_step(dom8, ops8, monkeypatch):
    # the Lorentz force of the bracket is also the u series' right side,
    # so a K-step Schauder solve evaluates it K + 1 times too, as the
    # Banach solve does
    counts = _count_brackets(monkeypatch)
    params = MHDParams(Re=1.0, Rm=1.0, exponent_mode="mixed")
    _, report = schauder_solve(
        params, ops8, SolverConfig(method="schauder_neumann", tol=1e-10),
        init=_warm_state(dom8))
    assert report.iterations == 3
    assert counts == {"convective_uu": 3 + 1, "lorentz": 3 + 1}


@pytest.mark.parametrize("solve", [banach_solve, schauder_solve])
def test_solve_leaves_init_unchanged(dom8, ops8, solve):
    # the outer loop and the inner B loop start from the caller's state
    # without copying it, so no step may write into it
    init = _warm_state(dom8)
    before = [f.values.tobytes() for f in (init.u, init.B, init.p)]
    params = MHDParams(Re=1.0, Rm=1.0, exponent_mode="mixed")
    method = "banach" if solve is banach_solve else "schauder_neumann"
    _, report = solve(params, ops8, SolverConfig(method=method, tol=1e-10),
                      init=init)
    assert report.iterations == 3
    assert [f.values.tobytes() for f in (init.u, init.B, init.p)] == before


def _xyz_field(x, eps):
    """eps grad(xyz) at the points x, as pure quaternions."""
    out = np.zeros(x.shape[:-1] + (4,))
    out[..., 1:] = eps * np.stack([x[..., 1] * x[..., 2],
                                   x[..., 0] * x[..., 2],
                                   x[..., 0] * x[..., 1]], axis=-1)
    return out


@pytest.mark.parametrize("method", SOLVE)
@pytest.mark.parametrize("n", [8, 16, 24])
def test_exact_harmonic_solution(n, method):
    # psi = xyz is harmonic, for the 7-point stencil too, and B* = eps grad
    # psi has D+ B* = 0 to rounding. So u = 0, p = 0, B = B* solves the
    # system with face data tr B*, for any Re, Rm and mu0; the harmonic
    # extension of that data is B* itself, and the solvers must return it
    dom = build_domain((0.1, -0.2, 0.3), (1.0, 1.0, 1.0), n)
    ops = OperatorSet(dom)
    eps = 1e-5
    h = BoundaryData(dom, _xyz_field(dom.face_center, eps))
    params = MHDParams(Re=2.0, Rm=3.0, mu0=0.5, exponent_mode="mixed",
                       boundary_h=h)
    state, report = SOLVE[method](params, ops,
                                  SolverConfig(method=method, tol=1e-12))
    ref = QField(dom, np.moveaxis(_xyz_field(dom.cell_centers(), eps), -1, 0))
    assert report.converged
    assert l2_norm(state.B - ref) <= 1e-12 * l2_norm(ref)
    assert l2_norm(state.u) <= 1e-12 * l2_norm(ref)


@pytest.fixture(scope="module")
def probe_data(dom12):
    """Smooth random face data of order one on the unit cube, n = 12: the
    data drive a flow, so the pressure enters the velocity row."""
    return trace_boundary(random_smooth(dom12, 5))


@pytest.mark.parametrize("mu0", [1.0, 1.7])
@pytest.mark.parametrize("mode", ["linear", "squared", "mixed"])
def test_schemes_solve_one_momentum_row(ops12, probe_data, mode, mu0):
    # both schemes solve the momentum row of the mode's table to rounding
    # and agree in u; the rest of their gap is the placement of the Leray
    # step on B, which the two schemes apply at different points
    params = MHDParams(Re=3.0, Rm=3.0, mu0=mu0, exponent_mode=mode,
                       boundary_h=probe_data)
    u = {}
    for method, solve in SOLVE.items():
        state, report = solve(params, ops12,
                              SolverConfig(method=method, tol=1e-12))
        assert report.converged
        lor = l2_norm(lorentz(state.B, mu0))
        assert report.rows[-1]["res_mom"] <= 1e-9 * lor
        u[method] = state.u
    gap = l2_norm(u["banach"] - u["schauder_neumann"])
    assert gap <= 2e-3 * l2_norm(u["banach"])


@pytest.mark.parametrize("method, scales, Re", [
    pytest.param("banach", None, 30.0, id="banach-inner-B"),
    pytest.param("schauder_neumann", [1.0, 1.0, 1e150], 1.0,
                 id="schauder_neumann-prescribed")])
def test_diverging_solve_warns_nothing(ops12, probe_data,
                                       prescribed_iterates, method, scales,
                                       Re):
    # a diverging solve ends in DivergenceError alone, before a norm,
    # residual or energy row of the grown fields overflows. On the probe
    # data in mixed mode at Re = Rm = 30 the Banach inner B iteration grows
    # without bound; a prescribed step to 1e150 g puts fields whose squares
    # overflow into the outer loop
    import warnings
    if scales is not None:
        prescribed_iterates(scales)
    params = MHDParams(Re=Re, Rm=Re, exponent_mode="mixed",
                       boundary_h=probe_data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="blow-up"):
            SOLVE[method](params, ops12,
                          SolverConfig(method=method, tol=1e-12))
