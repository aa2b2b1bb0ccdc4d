import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from quatmhd.grid import (QField, build_domain, l2_norm, sc_inner,
                          trace_boundary, zero_boundary)
from quatmhd.operators import (_nested_dissection, dirac_bwd, dirac_central,
                               dirac_fwd, dirac_fwd_matrix, div_fwd, laplacian,
                               operator_set)
from quatmhd.sampling import random_bump, random_smooth


def _coord_field(dom, coord_axis, comp):
    vals = np.zeros(dom.shape + (4,))
    vals[..., comp] = dom.cell_centers()[..., coord_axis]
    return QField(dom, vals)


def _interior(dom, width=1):
    return ~dom.collar_mask(width)


# ---------------------------------------------------------------------------
# Dirac operator
# ---------------------------------------------------------------------------

def test_dirac_constant_is_zero(dom8):
    vals = np.zeros(dom8.shape + (4,))
    vals[...] = (1.0, -2.0, 0.5, 3.0)
    for op in (dirac_fwd, dirac_bwd, dirac_central):
        assert not op(QField(dom8, vals)).values.any()


def test_dirac_linear_divergence(dom8):
    # u = x1 e1: Du = -div u = -1 (scalar part), no curl
    du = dirac_fwd(_coord_field(dom8, 0, 1)).values
    inner = _interior(dom8)
    assert np.allclose(du[inner], [-1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_dirac_linear_curl(dom8):
    # u = x2 e1: curl (x2, 0, 0) = (0, 0, -1)
    du = dirac_fwd(_coord_field(dom8, 1, 1)).values
    inner = _interior(dom8)
    assert np.allclose(du[inner], [0.0, 0.0, 0.0, -1.0], atol=1e-12)


def test_dirac_div_curl_split(dom8):
    u = random_smooth(dom8, seed=0)
    pure = u.values.copy()
    pure[..., 0] = 0.0
    u = QField(dom8, pure)
    du = dirac_fwd(u)
    # oracle: componentwise forward-difference div and curl
    h = dom8.h
    d = [(np.roll(u.values[..., 1 + ax], -1, axis=ax)
          - u.values[..., 1 + ax]) / h for ax in range(3)]
    div = d[0] + d[1] + d[2]
    inner = _interior(dom8, 2)
    assert np.allclose(du.values[..., 0][inner], -div[inner], atol=1e-10)


def test_laplacian_quadratic(dom8):
    # scalar x1^2 has exact 7-point Laplacian 2 in the interior
    vals = np.zeros(dom8.shape + (4,))
    vals[..., 0] = dom8.cell_centers()[..., 0] ** 2
    lap = laplacian(QField(dom8, vals)).values
    inner = _interior(dom8)
    assert np.allclose(lap[inner], [2.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_laplacian_matches_stencil(dom8):
    u = random_smooth(dom8, seed=1)
    lap = laplacian(u).values
    v = u.values
    h2 = dom8.h ** 2
    stencil = (np.roll(v, 1, 0) + np.roll(v, -1, 0)
               + np.roll(v, 1, 1) + np.roll(v, -1, 1)
               + np.roll(v, 1, 2) + np.roll(v, -1, 2) - 6 * v) / h2
    inner = _interior(dom8)
    scale = np.abs(stencil[inner]).max()
    assert np.abs(lap[inner] - stencil[inner]).max() <= 1e-12 * scale


def test_adjoint_pairing(dom12):
    for seed in range(3):
        u = zero_boundary(random_smooth(dom12, seed=seed), width=1)
        v = zero_boundary(random_smooth(dom12, seed=seed + 7), width=1)
        gap = abs(sc_inner(dirac_fwd(u), v) - sc_inner(u, dirac_bwd(v)))
        assert gap <= 1e-12 * l2_norm(u) * l2_norm(v)


# ---------------------------------------------------------------------------
# Teodorescu / Cauchy
# ---------------------------------------------------------------------------

def test_teodorescu_zero(ops8):
    assert not ops8.teodorescu(QField.zeros(ops8.domain)).values.any()


def test_teodorescu_odd_kernel_center():
    # constant field on a cube with odd n: the value at the center cell is 0
    from quatmhd.grid import build_domain
    from quatmhd.operators import operator_set
    dom = build_domain((0, 0, 0), (1, 1, 1), 9)
    ops = operator_set(dom)
    vals = np.zeros(dom.shape + (4,))
    vals[..., 0] = 1.0
    out = ops.teodorescu(QField(dom, vals))
    assert np.allclose(out.values[4, 4, 4], 0.0, atol=1e-13)


def test_dirac_teodorescu_right_inverse(ops16):
    dom = ops16.domain
    f = random_smooth(dom, seed=0, kmax=1)
    err = dirac_central(ops16.teodorescu(f)) - f
    centers = dom.cell_centers()
    lo = np.asarray(dom.origin)
    hi = lo + np.asarray(dom.n) * dom.h
    far = np.minimum(centers - lo, hi - centers).min(axis=-1) >= 3 * dom.h
    assert np.abs(err.values[far]).max() <= 0.05 * np.abs(f.values).max()


def test_cauchy_zero(ops8):
    from quatmhd.grid import BoundaryData
    out = ops8.cauchy(BoundaryData.zeros(ops8.domain))
    assert not out.values.any()


def test_cauchy_reproduces_constants(ops16):
    dom = ops16.domain
    vals = np.zeros(dom.shape + (4,))
    c = (1.0, 0.5, -0.25, 2.0)
    vals[...] = c
    out = ops16.cauchy(trace_boundary(QField(dom, vals)))
    mid = tuple(n // 2 for n in dom.n)
    assert np.allclose(out.values[mid], c, rtol=0.02)


def test_borel_pompeiu(ops16):
    # the Dirac operator inside T is the second-order central form; the
    # first-order one-sided forms cap the identity error near 15% at n=16
    dom = ops16.domain
    f = random_bump(dom, seed=0, kmax=0)
    recon = ops16.cauchy(trace_boundary(f)) + ops16.teodorescu(dirac_central(f))
    assert l2_norm(recon - f) <= 0.05 * l2_norm(f)


# ---------------------------------------------------------------------------
# Poisson solver
# ---------------------------------------------------------------------------

def test_poisson_zero(ops8):
    assert not ops8.poisson_dirichlet(QField.zeros(ops8.domain)).values.any()


def test_poisson_eigenfunction(ops16):
    # discrete Dirichlet eigenfunction of the 7-point stencil on the
    # non-collar block: sin-product with analytic eigenvalue
    dom = ops16.domain
    n = dom.n[0]
    m = n - 2
    h = dom.h
    idx = np.arange(1, m + 1)
    s = np.sin(np.pi * idx / (m + 1))
    eig = np.zeros(dom.shape)
    eig[1:-1, 1:-1, 1:-1] = s[:, None, None] * s[None, :, None] * s[None, None, :]
    lam = 3 * (4 / h**2) * math.sin(np.pi / (2 * (m + 1))) ** 2
    rhs = np.zeros(dom.shape + (4,))
    rhs[..., 0] = eig
    w = ops16.poisson_dirichlet(QField(dom, rhs))
    assert np.allclose(w.values[..., 0], eig / lam, atol=1e-10)
    assert not w.values[..., 1:].any()


def test_poisson_residual(ops12):
    dom = ops12.domain
    rhs = random_smooth(dom, seed=2)
    w = ops12.poisson_dirichlet(rhs)
    res = laplacian(w) + rhs
    inner = _interior(dom)
    num = np.sqrt((res.values[inner] ** 2).sum())
    den = np.sqrt((rhs.values[inner] ** 2).sum())
    assert num <= 1e-10 * den
    # the collar of the solution is exactly zero (discrete H^1_0)
    assert not w.values[dom.collar_mask(1)].any()


# ---------------------------------------------------------------------------
# Bergman / Hodge projections
# ---------------------------------------------------------------------------

def test_projections_partition_identity(ops12):
    f = random_smooth(ops12.domain, seed=3)
    P, Q = ops12.bergman_P(f), ops12.bergman_Q(f)
    assert l2_norm(P + Q - f) <= 1e-12 * l2_norm(f)
    assert l2_norm(ops12.bergman_P(P) - P) <= 1e-8 * l2_norm(f)
    assert abs(sc_inner(P, Q)) <= 1e-8 * l2_norm(f) ** 2


def test_q_matches_real_gram_oracle(ops8):
    # oracle: the real 4m x 4m Gram of D+ on zero-collar columns in cell
    # order, solved directly; bergman_Q factors the equivalent complex
    # 2m x 2m form in nested-dissection order
    box = operator_set(build_domain((0, 0, 0), (0.6, 0.8, 1.0), (6, 8, 10)))
    rng = np.random.default_rng(11)
    for ops in (ops8, box):
        dom = ops.domain
        keep = np.repeat(~dom.collar_mask(1).ravel(), 4)
        phi = sparse.csc_matrix(dirac_fwd_matrix(dom)[:, keep])
        lu = splu(sparse.csc_matrix(phi.T @ phi))
        full = rng.standard_normal(dom.shape + (4,))
        scalar = np.zeros(dom.shape + (4,))
        scalar[..., 0] = rng.standard_normal(dom.shape)  # pressure_recover input
        for vals in (full, scalar):
            ref = (phi @ lu.solve(phi.T @ vals.ravel())).reshape(vals.shape)
            got = ops.bergman_Q(QField(dom, vals)).values
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "n", [(8, 8, 8), (6, 8, 10), (3, 9, 5), (3, 3, 3), (2, 6, 6)])
def test_nested_dissection_permutes_interior(n):
    # (2, 6, 6) has no interior cells
    dom = build_domain((0, 0, 0), tuple(0.1 * m for m in n), n)
    order = _nested_dissection(dom)
    assert np.array_equal(np.sort(order),
                          np.flatnonzero(~dom.collar_mask(1).ravel()))


def test_gram_fill_nested_dissection(ops16):
    # 1.94M complex entries in nested-dissection order, 2.98M under COLAMD
    _, _, lu = ops16._gram()
    assert lu.L.nnz + lu.U.nnz <= 2.2e6


def test_q_fixes_gradient_fields(ops12):
    g = zero_boundary(random_bump(ops12.domain, seed=4), width=2)
    dg = dirac_fwd(g)
    assert l2_norm(ops12.bergman_Q(dg) - dg) <= 1e-6 * l2_norm(dg)


def test_p_nearly_fixes_constants(ops8, ops12, ops16):
    # in the continuum constants are monogenic, so Q annihilates them; the
    # discrete gradient space is not exactly orthogonal to constants (the
    # one-sided difference layer breaks the telescoping sum), leaving a
    # boundary artifact that shrinks under refinement
    errs = []
    for ops in (ops8, ops12, ops16):
        dom = ops.domain
        vals = np.zeros(dom.shape + (4,))
        vals[...] = (0.3, -1.2, 0.7, 0.1)
        c = QField(dom, vals)
        errs.append(l2_norm(ops.bergman_Q(c)) / l2_norm(c))
        assert l2_norm(ops.bergman_P(c) + ops.bergman_Q(c) - c) \
            <= 1e-12 * l2_norm(c)
    assert errs[0] < 0.3
    assert errs[2] < errs[1] < errs[0]


# ---------------------------------------------------------------------------
# spectral constants
# ---------------------------------------------------------------------------

def test_lambda_min_analytic(ops16):
    h = ops16.domain.h
    ref = 3 * (4 / h**2) * math.sin(math.pi * h / 2) ** 2
    assert ops16.lambda_min() == pytest.approx(ref, rel=1e-6)
    # the continuum value 3 pi^2 is approached from below
    assert ops16.lambda_min() < 3 * math.pi ** 2


def test_op_norm_bound(ops12):
    k = ops12.op_norm_TQT()
    assert 0 < k <= 1.1 / ops12.lambda_min()


def test_div_fwd_of_gradient_consistent(ops8):
    # div(grad phi) equals the 7-point Laplacian of phi away from the collar
    dom = ops8.domain
    phi = zero_boundary(random_bump(dom, seed=5), width=2)
    g = dirac_fwd(phi)
    pv = np.zeros_like(g.values)
    pv[..., 1:] = g.values[..., 1:]
    div = div_fwd(QField(dom, pv))
    assert div.shape == dom.shape
