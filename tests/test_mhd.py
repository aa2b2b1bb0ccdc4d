import numpy as np
import pytest

from quatmhd.grid import (BoundaryData, QField, build_domain, l2_norm,
                          sc_inner, trace_boundary, zero_boundary)
from quatmhd.mhd import (MHDParams, MHDState, M_of, _advect, _lorentz_of,
                         _require_pure, boundary_B_term, convective,
                         harmonic_extension, leray_project, lorentz,
                         momentum_bracket, residual_strong, residual_weak,
                         tqt_rhs_B, tqt_rhs_p, tqt_rhs_u)
from quatmhd.grid import _diff
from quatmhd.operators import (OperatorSet, _sine_solve, dirac_fwd, div_fwd,
                               grad_bwd)
from quatmhd.quaternion import qmul_arr
from quatmhd.sampling import random_divfree, random_pure_bump


def _pure_coord(dom, coord_axis, comp, scale=1.0):
    vals = np.zeros((4,) + dom.shape)
    vals[comp] = scale * dom.cell_centers()[..., coord_axis]
    return QField(dom, vals)


def _pure_const(dom, v):
    vals = np.zeros((4,) + dom.shape)
    vals[1:] = np.reshape(v, (3, 1, 1, 1))
    return QField(dom, vals)


def _inner(dom, width=1):
    return ~dom.collar_mask(width)


# ---------------------------------------------------------------------------
# params / state
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        MHDParams(Re=0.0, Rm=1.0)
    with pytest.raises(ValueError):
        MHDParams(Re=1.0, Rm=1.0, exponent_mode="cubic")


def test_exponent_mode_tables():
    # c_u = Re^a/mu0, c_p = Re^b, c_B = Rm^c, and the pressure right side
    # c_u/c_p: 1/mu0 in "linear" and "squared", 1/(Re mu0) in "mixed"
    for mode, coeffs in (("linear", (4.0, 2.0, 3.0)),
                         ("squared", (8.0, 4.0, 9.0)),
                         ("mixed", (4.0, 4.0, 9.0))):
        p = MHDParams(Re=2.0, Rm=3.0, mu0=0.5, exponent_mode=mode)
        assert (p.coeff_u(), p.coeff_p(), p.coeff_B()) == coeffs
        assert p.coeff_prhs() == coeffs[0] / coeffs[1]


def test_state_purity_enforced(dom8):
    vals = np.zeros((4,) + dom8.shape)
    vals[0] = 1.0
    with pytest.raises(ValueError):
        MHDState(QField(dom8, vals), QField.zeros(dom8), QField.zeros(dom8))
    vals2 = np.zeros((4,) + dom8.shape)
    vals2[2] = 1.0
    with pytest.raises(ValueError):
        MHDState(QField.zeros(dom8), QField.zeros(dom8), QField(dom8, vals2))
    # a NaN in the scalar part is nonzero: it takes the test and fails it
    vals3 = np.zeros((4,) + dom8.shape)
    vals3[0, 1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="B must be a pure vector field"):
        MHDState(QField.zeros(dom8), QField(dom8, vals3), QField.zeros(dom8))


def test_state_pressure_zero_mean(dom8):
    vals = np.zeros((4,) + dom8.shape)
    vals[0] = 3.5
    st = MHDState(QField.zeros(dom8), QField.zeros(dom8), QField(dom8, vals))
    assert abs(st.p.values[0].mean()) <= 1e-14


def test_state_leaves_caller_pressure(dom8):
    # the zero-mean shift is applied to the state's own copy
    p = QField.zeros(dom8)
    p.values[0] = 1.0
    st = MHDState(QField.zeros(dom8), QField.zeros(dom8), p)
    assert (p.values[0] == 1.0).all()
    assert not st.p.values.any()


# ---------------------------------------------------------------------------
# nonlinear terms
# ---------------------------------------------------------------------------

def test_convective_zero_advector(dom8):
    w = random_pure_bump(dom8, seed=0)
    out = convective(QField.zeros(dom8), w)
    assert not out.values.any()


def test_convective_directional_derivative(dom8):
    a = _pure_const(dom8, (1.0, 0.0, 0.0))
    w = _pure_coord(dom8, 0, 2)  # x1 e2
    out = convective(a, w).values
    assert np.allclose(out[:, _inner(dom8)].T, [0, 0, 1.0, 0], atol=1e-12)


def test_convective_matches_componentwise_oracle(dom8):
    a = random_pure_bump(dom8, seed=1)
    w = random_pure_bump(dom8, seed=2)
    out = convective(a, w).values
    h = dom8.h
    ref = np.zeros_like(out)
    for ax in range(3):
        d = (np.roll(w.values, -1, axis=1 + ax)
             - np.roll(w.values, 1, axis=1 + ax)) / (2 * h)
        ref += a.values[1 + ax] * d
    inner = _inner(dom8)
    assert np.abs(out[:, inner] - ref[:, inner]).max() <= 1e-12


def test_convective_rejects_non_pure(dom8):
    vals = np.zeros((4,) + dom8.shape)
    vals[0] = 1.0
    with pytest.raises(ValueError):
        convective(QField(dom8, vals), QField.zeros(dom8))


@pytest.mark.parametrize("scalar, pure", [(0.0, True), (1e-13, True),
                                           (1e-11, False), (np.nan, False)])
def test_require_pure_tolerance(dom8, scalar, pure):
    # a scalar part is measured against 1e-12 max(1, max|f|); an
    # identically zero one passes without that max, and a NaN fails
    f = random_pure_bump(dom8, seed=4)
    f.values[1:] /= np.abs(f.values).max()
    f.values[0, 2, 3, 4] = scalar
    if pure:
        _require_pure(f, "f")
    else:
        with pytest.raises(ValueError, match="f must be a pure"):
            _require_pure(f, "f")


def test_lorentz_constant_field(dom8):
    out = lorentz(_pure_const(dom8, (0.4, -0.3, 1.0)), 1.0)
    assert not out.values.any()


def test_lorentz_linear_field(dom8):
    # B = x2 e1: curl B = (0, 0, -1), (curl B) x B = -x2 e2
    B = _pure_coord(dom8, 1, 1)
    out = lorentz(B, 1.0).values
    x2 = dom8.cell_centers()[..., 1]
    inner = _inner(dom8)
    assert np.allclose(out[2][inner], -x2[inner], atol=1e-12)
    assert np.allclose(out[0][inner], 0.0, atol=1e-12)


def test_lorentz_matches_cross_product_form(dom8):
    B = random_pure_bump(dom8, seed=3)
    mu0 = 1.7
    out = lorentz(B, mu0).values
    # oracle: classical (curl B) x B with the backward-difference curl and
    # the forward-difference divergence of the staggered D+
    h = dom8.h
    f = [(np.roll(B.values[1:], -1, axis=1 + ax)
          - B.values[1:]) / h for ax in range(3)]
    b = [(B.values[1:]
          - np.roll(B.values[1:], 1, axis=1 + ax)) / h for ax in range(3)]
    curl = np.stack([b[1][2] - b[2][1],
                     b[2][0] - b[0][2],
                     b[0][1] - b[1][0]])
    div = f[0][0] + f[1][1] + f[2][2]
    # Vec((DB)B) = (curl B) x B - (div B) B; the div term vanishes only in
    # the continuum, so the discrete oracle keeps it
    ref = (np.cross(curl, B.values[1:], axis=0)
           - div * B.values[1:]) / mu0
    inner = _inner(dom8, 2)
    assert np.abs(out[1:][:, inner] - ref[:, inner]).max() <= 1e-10
    assert lorentz(B, mu0).is_pure()


def test_lorentz_of_matches_hamilton_product(dom8):
    # _lorentz_of accumulates Vec((DB) B) without the terms that read B's
    # zero scalar part: on finite data the values are those of the full
    # Hamilton product's vector part over mu0
    mu0 = 1.7
    DB = QField(dom8, np.random.default_rng(9).standard_normal(
        (4,) + dom8.shape))
    for B in (random_pure_bump(dom8, seed=3), _pure_coord(dom8, 0, 2)):
        for D in (dirac_fwd(B), DB):
            ref = qmul_arr(D.values, B.values)
            ref[0] = 0.0
            assert np.array_equal(_lorentz_of(B, D, mu0).values, ref / mu0)


def test_M_of_recomposition(dom8):
    u = random_pure_bump(dom8, seed=4)
    B = random_pure_bump(dom8, seed=5)
    m = M_of(u, B, 2.0)
    ref = convective(u, u) - lorentz(B, 2.0)
    assert np.abs(m.values - ref.values).max() <= 1e-14
    assert not M_of(QField.zeros(dom8), _pure_const(dom8, (1, 2, 3)),
                    1.0).values.any()


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_residual_strong_trivial_states(dom8):
    params = MHDParams(Re=1.0, Rm=1.0)
    zero = MHDState.zeros(dom8)
    assert residual_strong(zero, params) == (0.0, 0.0, 0.0, 0.0)
    st = MHDState(QField.zeros(dom8), _pure_const(dom8, (1.0, -2.0, 0.5)),
                  QField.zeros(dom8))
    assert residual_strong(st, params) == (0.0, 0.0, 0.0, 0.0)


def test_residual_strong_matches_classical_assembly(dom12):
    from quatmhd.mhd import _interior_norm
    from quatmhd.operators import laplacian
    u = random_pure_bump(dom12, seed=6)
    B = random_pure_bump(dom12, seed=7)
    pv = np.zeros((4,) + dom12.shape)
    pv[0] = random_pure_bump(dom12, seed=8).values[1]
    st = MHDState(u, B, QField(dom12, pv))
    # grad- p by np.diff, undefined on the collar layer the norms skip
    gradp = np.zeros((4,) + dom12.shape)
    for i in range(3):
        gradp[1 + i] = np.diff(st.p.values[0], axis=i,
                               prepend=np.nan) / dom12.h
    for mode, (a, b, c) in (("linear", (1, 1, 1)), ("squared", (2, 2, 2)),
                            ("mixed", (1, 2, 2))):
        params = MHDParams(Re=2.0, Rm=3.0, mu0=1.5, exponent_mode=mode)
        mom, ind, divu, divB = residual_strong(st, params)
        # oracle: the velocity row
        # -Lap u = (Re^a/mu0)(Vec((DB)B) - (u.grad)u) - Re^b grad- p
        # divided by Re^a and the magnetic row at Rm^c, each term
        # assembled from its classical vector-calculus form
        Re_a, mu0 = params.Re**a, params.mu0
        mom_ref = (-(1.0 / Re_a) * laplacian(u).values
                   + (1.0 / mu0) * convective(u, u).values
                   + params.Re**b / Re_a * gradp
                   - lorentz(B, mu0).values)
        ind_ref = (-(1.0 / params.Rm**c) * laplacian(B).values
                   + convective(u, B).values - convective(B, u).values)
        assert mom == pytest.approx(_interior_norm(mom_ref, dom12),
                                    rel=1e-10)
        assert ind == pytest.approx(_interior_norm(ind_ref, dom12),
                                    rel=1e-10)
        assert divu == pytest.approx(_interior_norm(div_fwd(u), dom12),
                                     rel=1e-10)
        assert divB == pytest.approx(_interior_norm(div_fwd(B), dom12),
                                     rel=1e-10)


@pytest.mark.parametrize("n", [3, 8, (6, 8, 10), (17, 9, 33)])
def test_interior_norm_matches_masked_norm(n):
    # _interior_norm reads the non-collar block in place; the boolean-mask
    # gather it replaced sums the same squares in another order
    from quatmhd.mhd import _interior_norm
    counts = (n,) * 3 if isinstance(n, int) else n
    dom = build_domain((0.1, -0.2, 0.3), tuple(0.1 * m for m in counts), n)
    mask = ~dom.collar_mask(1)
    for seed, comps in ((0, ()), (1, (4,)), (2, (3,))):
        arr = np.random.default_rng(seed).standard_normal(comps + dom.shape)
        ref = float(np.sqrt((arr[..., mask] ** 2).sum() * dom.cell_volume))
        got = _interior_norm(arr, dom)
        assert abs(got - ref) <= 4 * np.finfo(float).eps * ref
        assert (got == 0.0) == (ref == 0.0)


def test_residual_weak_zero_state(dom8):
    params = MHDParams(Re=1.0, Rm=1.0)
    v = zero_boundary(random_pure_bump(dom8, seed=9), width=1)
    w = zero_boundary(random_pure_bump(dom8, seed=10), width=1)
    assert residual_weak(MHDState.zeros(dom8), params, v, w) == (0.0, 0.0)


def test_residual_weak_pressure_orthogonality(dom12):
    # the adjoint of grad_bwd on zero-collar fields is -div+, so the
    # pressure term of residual_weak vanishes on a div+-free test field:
    # the forward curl of a potential supported away from the collar
    # (forward differences commute)
    A = zero_boundary(random_pure_bump(dom12, seed=11), width=3).values[1:]
    d = lambda c, ax: _diff(A[c], ax, dom12.h)
    vv = np.zeros((4,) + dom12.shape)
    vv[1] = d(2, 1) - d(1, 2)
    vv[2] = d(0, 2) - d(2, 0)
    vv[3] = d(1, 0) - d(0, 1)
    v = QField(dom12, vv)
    assert not vv[:, dom12.collar_mask(1)].any()
    pv = np.zeros((4,) + dom12.shape)
    pv[0] = random_pure_bump(dom12, seed=12).values[1]
    p = QField(dom12, pv)
    gap = abs(sc_inner(grad_bwd(p), v))
    assert gap <= 1e-12 * l2_norm(grad_bwd(p)) * l2_norm(v)
    # so the weak momentum residual does not see p at all
    params = MHDParams(Re=2.0, Rm=3.0, mu0=1.5)
    u, B = random_pure_bump(dom12, seed=13), random_pure_bump(dom12, seed=14)
    w = zero_boundary(random_pure_bump(dom12, seed=15), width=1)
    r0 = residual_weak(MHDState(u, B, QField.zeros(dom12)), params, v, w)[0]
    r1 = residual_weak(MHDState(u, B, p), params, v, w)[0]
    assert r1 == pytest.approx(r0, rel=1e-12)


def test_residual_weak_rejects_bad_tests(dom8):
    params = MHDParams(Re=1.0, Rm=1.0)
    bad = random_pure_bump(dom8, seed=13)
    bad.values[1, 0, 0, 0] = 1.0  # nonzero on the collar
    good = zero_boundary(random_pure_bump(dom8, seed=14), width=1)
    with pytest.raises(ValueError):
        residual_weak(MHDState.zeros(dom8), params, bad, good)


# ---------------------------------------------------------------------------
# integral-form right-hand sides
# ---------------------------------------------------------------------------

def test_tqt_rhs_zero_state(dom8, ops8):
    params = MHDParams(Re=1.0, Rm=1.0)
    zero = MHDState.zeros(dom8)
    bracket = momentum_bracket(lorentz(zero.B, params.mu0),
                               convective(zero.u, zero.u), params)
    assert not tqt_rhs_u(bracket, zero.p, params, ops8).values.any()
    assert not tqt_rhs_B(zero.u, zero.B, params, ops8).values.any()
    assert not tqt_rhs_p(bracket, params, ops8).values.any()


@pytest.mark.parametrize("mode", ["linear", "squared", "mixed"])
def test_tqt_rhs_u_single_apply(dom8, ops8, mode):
    # one TQT of c_u bracket - c_p Dp against TQT applied to each term
    params = MHDParams(Re=1.7, Rm=0.6, mu0=1.3, exponent_mode=mode)
    pv = np.zeros((4,) + dom8.shape)
    pv[0] = random_pure_bump(dom8, seed=25).values[1]
    st = MHDState(random_pure_bump(dom8, seed=23),
                  random_pure_bump(dom8, seed=24), QField(dom8, pv))
    bracket = (params.mu0 * lorentz(st.B, params.mu0)
               - convective(st.u, st.u))
    ref = (params.coeff_u() * ops8.poisson_dirichlet(bracket)
           - params.coeff_p() * ops8.poisson_dirichlet(grad_bwd(st.p)))
    bracket = momentum_bracket(lorentz(st.B, params.mu0),
                               convective(st.u, st.u), params)
    got = tqt_rhs_u(bracket, st.p, params, ops8)
    assert l2_norm(got - ref) <= 1e-13 * l2_norm(ref)


@pytest.mark.parametrize("mode", ["linear", "squared", "mixed"])
def test_tqt_rhs_u_is_divergence_free(dom12, ops12, mode):
    # with p from the pressure equation, c_u TQT bracket - c_p TQT grad- p
    # has div+ = 0 on the non-collar cells: grad_bwd is the adjoint of the
    # div+ that pressure_S pairs it with, and c_prhs = c_u/c_p
    from quatmhd.mhd import _interior_norm
    from quatmhd.solvers import pressure_recover
    params = MHDParams(Re=3.0, Rm=2.0, mu0=1.7, exponent_mode=mode)
    u, B = random_pure_bump(dom12, seed=31), random_pure_bump(dom12, seed=32)
    bracket = momentum_bracket(lorentz(B, params.mu0), convective(u, u),
                               params)
    p = pressure_recover(tqt_rhs_p(bracket, params, ops12), ops12)
    out = tqt_rhs_u(bracket, p, params, ops12)
    div = dom12.h * _interior_norm(div_fwd(out), dom12)
    assert div <= 1e-11 * l2_norm(out)


def test_tqt_rhs_B_vanishes_without_velocity(dom8, ops8):
    params = MHDParams(Re=1.0, Rm=1.0)
    st = MHDState(QField.zeros(dom8), random_pure_bump(dom8, seed=15),
                  QField.zeros(dom8))
    assert not tqt_rhs_B(st.u, st.B, params, ops8).values.any()


def test_tqt_rhs_p_independent_recomputation(dom8, ops8, lattice_pair):
    # c Sc(Q T- bracket) with the lattice T- of the test oracle, the T of
    # the solvers' TQT
    params = MHDParams(Re=1.3, Rm=0.8, mu0=2.0, exponent_mode="mixed")
    st = MHDState(random_pure_bump(dom8, seed=16),
                  random_pure_bump(dom8, seed=17), QField.zeros(dom8))
    bracket = lorentz(st.B, 1.0) - convective(st.u, st.u)
    got = tqt_rhs_p(momentum_bracket(lorentz(st.B, params.mu0),
                                     convective(st.u, st.u), params),
                    params, ops8)
    assert not got.values[1:].any()
    ref = params.coeff_prhs() * ops8.bergman_Q(
        lattice_pair(dom8).T_minus(bracket)).values[0]
    scale = np.abs(ref).max()
    assert np.abs(got.values[0] - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [(8, 8, 8), (6, 8, 10), (3, 9, 5), (2, 6, 6)])
def test_tqt_rhs_p_matches_stencil_path(n, stencil_pressure):
    # the sine transform and pressure_S's second pass against the ghost-zero
    # -div+ of three collar solves, written out as stencils
    from quatmhd.operators import OperatorSet
    dom = build_domain((0.1, -0.2, 0.3), tuple(0.1 * m for m in n), n)
    ops = OperatorSet(dom)
    params = MHDParams(Re=1.3, Rm=0.8, mu0=2.0, exponent_mode="mixed")
    vals = np.zeros((4,) + n)
    vals[1:] = np.random.default_rng(26).standard_normal((3,) + n)
    got = tqt_rhs_p(QField(dom, vals), params, ops)
    assert not got.values[1:].any()
    ref = params.coeff_prhs() * stencil_pressure.sc_dirac_solve(ops, vals[1:])
    assert np.abs(got.values[0] - ref).max() <= 1e-14 * np.abs(ref).max()
    assert got.values.any() == (min(n) > 2)


@pytest.mark.parametrize("mode", ["linear", "squared", "mixed"])
def test_tqt_rhs_solve_vector_part(dom8, ops8, mode):
    # the velocity and magnetic rows solve the three vector components of
    # their pure brackets: byte for byte the 4-component collar solve
    params = MHDParams(Re=1.7, Rm=0.6, mu0=1.3, exponent_mode=mode)
    pv = np.zeros((4,) + dom8.shape)
    pv[0] = random_pure_bump(dom8, seed=27).values[2]
    st = MHDState(random_pure_bump(dom8, seed=28),
                  random_pure_bump(dom8, seed=29), QField(dom8, pv))
    bracket = momentum_bracket(lorentz(st.B, params.mu0),
                               convective(st.u, st.u), params)
    f = params.coeff_u() * bracket - params.coeff_p() * grad_bwd(st.p)
    ref = QField(dom8, ops8.poisson_scalar(f.values))
    got = tqt_rhs_u(bracket, st.p, params, ops8)
    assert got.values.tobytes() == ref.values.tobytes()
    f = convective(st.B, st.u) - convective(st.u, st.B)
    ref = params.coeff_B() * QField(dom8, ops8.poisson_scalar(f.values))
    got = tqt_rhs_B(st.u, st.B, params, ops8)
    assert got.values.tobytes() == ref.values.tobytes()


def _zero_pure_fields(dom):
    """Identically zero pure fields: every entry +0.0, which convective and
    poisson_dirichlet skip, and one with -0.0 on about a third of the cells of its
    vector part, which they compute."""
    signed = np.zeros((4,) + dom.shape)
    signed[1:][np.random.default_rng(8).random((3,) + dom.shape) < 0.3] = -0.0
    return [QField.zeros(dom), QField(dom, signed)]


def test_zero_operands_match_full_computation(dom8, ops8):
    # convective with either argument zero, and the TQT solve, the
    # Lorentz force and the pressure right side of a zero operand, give
    # the full computation's result bit for bit, signed zeros included;
    # the full computations are _advect on all four components, the
    # collar solve's sine transforms, qmul_arr and _sc_dirac_solve called
    # directly
    h = dom8.h
    w = random_pure_bump(dom8, seed=31)
    for z in _zero_pure_fields(dom8):
        for a, v in ((z, w), (w, z), (z, z)):
            ref = _advect(a.values[1:], v.values, h)
            assert convective(a, v).values.tobytes() == ref.tobytes()
            assert not np.signbit(ref).any()
        ref = np.zeros((4,) + dom8.shape)
        inner = (slice(1, None),) + (slice(1, -1),) * 3
        ref[inner] = _sine_solve(z.values[inner], ops8._collar_bases,
                                 ops8._collar_symbol)
        assert ops8.poisson_dirichlet(z).values.tobytes() == ref.tobytes()
        assert not np.signbit(ref).any()
        # the Lorentz product and the pressure right side of a zero B and
        # a zero bracket
        ref = qmul_arr(dirac_fwd(z).values, z.values)
        ref[0] = 0.0
        ref /= 1.3
        assert lorentz(z, 1.3).values.tobytes() == ref.tobytes()
        params = MHDParams(Re=1.7, Rm=0.6, mu0=1.3)
        ref = np.zeros((4,) + dom8.shape)
        ref[0] = params.coeff_prhs() * ops8._sc_dirac_solve(z.values[1:])
        assert tqt_rhs_p(z, params, ops8).values.tobytes() == ref.tobytes()


def test_tqt_rhs_rejects_non_pure_bracket(dom8, ops8):
    params = MHDParams(Re=1.0, Rm=1.0)
    bracket = random_pure_bump(dom8, seed=30)
    bracket.values[0] = 1.0
    with pytest.raises(ValueError, match="TQT right side"):
        tqt_rhs_u(bracket, QField.zeros(dom8), params, ops8)


# ---------------------------------------------------------------------------
# Leray projection and boundary handling
# ---------------------------------------------------------------------------

def test_leray_fixes_divfree(dom12, ops12):
    from quatmhd.mhd import _interior_norm
    u = random_divfree(dom12, seed=18)
    out = leray_project(u, ops12)
    assert l2_norm(out - u) <= 1e-10 * l2_norm(u)


def test_leray_kills_gradients(dom12, ops12):
    phi = zero_boundary(random_pure_bump(dom12, seed=19), width=2)
    sv = np.zeros((4,) + dom12.shape)
    sv[0] = phi.values[1]
    from quatmhd.operators import grad_bwd
    g = grad_bwd(QField(dom12, sv))
    gv = np.zeros_like(g.values)
    gv[1:] = g.values[1:]
    gradf = QField(dom12, gv)
    out = leray_project(gradf, ops12)
    from quatmhd.mhd import _interior_norm
    assert _interior_norm(out.values, dom12) <= 1e-6 * l2_norm(gradf)


def test_leray_divergence_reduction(dom12, ops12):
    from quatmhd.mhd import _interior_norm
    u = random_pure_bump(dom12, seed=20)
    out = leray_project(u, ops12)
    before = _interior_norm(div_fwd(u), dom12)
    after = _interior_norm(div_fwd(out), dom12)
    assert after <= 1e-6 * before


def test_convective_skew_symmetry(dom12):
    from quatmhd.grid import h1_norm
    a = random_divfree(dom12, seed=21)
    w = zero_boundary(random_pure_bump(dom12, seed=22), width=1)
    gap = abs(sc_inner(convective(a, w), w))
    assert gap <= 1e-8 * h1_norm(a) * h1_norm(w) ** 2


def test_harmonic_extension_matches_boundary(dom12, ops12):
    # constant boundary data extends to the constant field
    g = BoundaryData(dom12, np.tile([0.0, 1.0, -2.0, 0.5],
                                    (dom12.num_faces, 1)))
    H = harmonic_extension(g, ops12)
    assert np.allclose(H.values.T, [0.0, 1.0, -2.0, 0.5], atol=1e-10)


def test_boundary_B_term_zero_data(dom8, ops8):
    params = MHDParams(Re=1.0, Rm=1.0, boundary_h=BoundaryData.zeros(dom8))
    assert not boundary_B_term(params, ops8).values.any()
    params0 = MHDParams(Re=1.0, Rm=1.0)
    assert not boundary_B_term(params0, ops8).values.any()


def test_boundary_B_term_is_pure(dom8, ops8):
    rng = np.random.default_rng(23)
    vals = np.zeros((dom8.num_faces, 4))
    vals[:, 1:] = 1e-3 * rng.standard_normal((dom8.num_faces, 3))
    params = MHDParams(Re=1.0, Rm=1.0, boundary_h=BoundaryData(dom8, vals))
    out = boundary_B_term(params, ops8)
    assert out.is_pure()
    assert out.values.any()
