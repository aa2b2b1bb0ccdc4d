import math

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from quatmhd.grid import (BoundaryData, QField, build_domain, h1_norm,
                          l2_norm, sc_inner, trace_boundary, zero_boundary)
from quatmhd.grid import _diff
from quatmhd.mhd import _advect, _convect_solve, convective
from quatmhd.operators import (_BACKWARD, _along_axes, _along_axis,
                               _centered_matrix, _dst1, _dst2, _kernel,
                               _kernel_convolve, _staggered, _wrapped,
                               curl_bwd, dirac_bwd, dirac_central, dirac_fwd,
                               div_fwd, grad_bwd, laplacian, OperatorSet)
from quatmhd.quaternion import LEFT_MUL, UNIT_MUL, qmul_arr
from quatmhd.sampling import random_bump, random_pure_bump, random_smooth


def _coord_field(dom, coord_axis, comp):
    vals = np.zeros((4,) + dom.shape)
    vals[comp] = dom.cell_centers()[..., coord_axis]
    return QField(dom, vals)


def _interior(dom, width=1):
    return ~dom.collar_mask(width)


# boxes of the oracle tests: cube, unequal axes with extent (0.6, 0.8, 1.0),
# an axis of 3 cells (one non-collar layer) and one of 2 (no non-collar cell)
BOXES = [(8, 8, 8), (6, 8, 10), (3, 9, 5), (2, 6, 6)]


def _box(n):
    return OperatorSet(build_domain((0.1, -0.2, 0.3),
                                    tuple(0.1 * m for m in n), n))


def _pure(vec):
    """The pure quaternion array with vector part vec, shape (3, ...)."""
    out = np.zeros((4,) + vec.shape[1:])
    out[1:] = vec
    return out


def _cauchy_dense(ops, g):
    """Direct sum of the Cauchy kernel over every cell-face pair."""
    dom = ops.domain
    x = dom.cell_centers().reshape(-1, 1, 3)
    d = x - dom.face_center[None]                       # (N, M, 3)
    k = np.zeros((4,) + d.shape[:2])
    k[1:] = (d / ((d**2).sum(-1) ** 1.5)[..., None]).transpose(2, 0, 1)
    ng = qmul_arr(_pure(dom.face_normal.T), g.values.T)  # (4, M)
    out = qmul_arr(k, ng[:, None]).sum(axis=2)
    out *= ops.sigma_F / (4.0 * np.pi) * dom.face_area
    return out.reshape((4,) + dom.shape)


def _teodorescu_dense(ops, f):
    """Direct sum of the Teodorescu kernel over every pair of distinct
    cells."""
    dom = ops.domain
    x = dom.cell_centers().reshape(-1, 3)
    d = x[:, None] - x[None]                            # (N, N, 3)
    r3 = (d**2).sum(-1) ** 1.5
    np.fill_diagonal(r3, np.inf)
    k = np.zeros((4,) + d.shape[:2])
    k[1:] = (d / r3[..., None]).transpose(2, 0, 1)
    out = qmul_arr(k, f.values.reshape(4, 1, -1)).sum(axis=2)
    out *= ops.sigma_T / (4.0 * np.pi) * dom.h**3
    return out.reshape((4,) + dom.shape)


def _poisson_matrix_collar(dom):
    """7-point -Laplacian on the non-collar cells with zero collar values,
    assembled cell by cell; returns the matrix and the flat cell indices."""
    h2 = dom.h**2
    idx = np.flatnonzero(~dom.collar_mask(1).ravel())
    pos = -np.ones(dom.num_cells, dtype=int)
    pos[idx] = np.arange(idx.size)
    n1, n2, n3 = dom.n
    rows, cols, vals = [], [], []
    for p, flat in enumerate(idx):
        rows.append(p)
        cols.append(p)
        vals.append(6.0 / h2)
        for stride in (n2 * n3, n3, 1):
            for nb in (flat - stride, flat + stride):
                if pos[nb] >= 0:
                    rows.append(p)
                    cols.append(pos[nb])
                    vals.append(-1.0 / h2)
    A = sparse.csc_matrix((vals, (rows, cols)), shape=(idx.size, idx.size))
    return A, idx


def _poisson_matrix_faces(dom):
    """SPD cell-centered -Laplacian with zero Dirichlet data on the faces.

    The ghost value behind each face is the anti-reflection -u of the first
    cell, so the first and last diagonal entries per axis are 3/h^2."""
    h2 = dom.h**2

    def m1(n):
        d = np.full(n, 2.0)
        d[0] = d[-1] = 3.0
        return sparse.diags([-np.ones(n - 1), d, -np.ones(n - 1)], [-1, 0, 1]) / h2

    n1, n2, n3 = dom.n
    I1, I2, I3 = (sparse.identity(k) for k in (n1, n2, n3))
    A = (sparse.kron(sparse.kron(m1(n1), I2), I3)
         + sparse.kron(sparse.kron(I1, m1(n2)), I3)
         + sparse.kron(sparse.kron(I1, I2), m1(n3)))
    return sparse.csr_matrix(A)


# difference of D+ along axis j (row) on input component c (column):
# 1 backward, 0 forward
STAGGER = [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]


def _diff_matrix(n, kind):
    """1-D stencil of n cells as a dense unscaled matrix, row by row, over
    (ghost, v_0, ..., v_{n-1}, ghost): the forward or backward difference
    with the one-sided fallback row of dirac_fwd/dirac_bwd ("fwd", "bwd")
    or a zero ghost value ("fwd0", "bwd0"); 2h times the centered
    difference ("cen"); h^2 times the second difference ("second")."""
    m = np.zeros((n, n + 2))
    for i in range(n):
        k = i + 1  # column of v_i
        if kind == "fwd":
            j = min(k, n - 1)  # the last row repeats the one before
            m[i, j], m[i, j + 1] = -1.0, 1.0
        elif kind == "bwd":
            j = max(k, 2)  # the first row repeats the one after
            m[i, j - 1], m[i, j] = -1.0, 1.0
        elif kind == "fwd0":
            m[i, k], m[i, k + 1] = -1.0, 1.0
        elif kind == "bwd0":
            m[i, k - 1], m[i, k] = -1.0, 1.0
        elif kind == "cen" and i == 0:
            m[i, 1:4] = -3.0, 4.0, -1.0
        elif kind == "cen" and i == n - 1:
            m[i, n - 2:n + 1] = 1.0, -4.0, 3.0
        elif kind == "cen":
            m[i, k - 1], m[i, k + 1] = -1.0, 1.0
        else:
            j = min(max(k, 2), n - 1)  # face rows: the stencil one cell in
            m[i, j - 1:j + 2] = 1.0, -2.0, 1.0
    return m


def _apply_rows(m, v, axis):
    """_diff_matrix m applied along `axis` of the last three axes of v
    between two zero ghost layers, row by row: each output is the sum of
    its row's nonzero terms. On integer data every term and sum is exact,
    so the result is the stencil's bit for bit, signed zeros included."""
    v = np.moveaxis(v, axis - 3, 0)
    zero = np.zeros((1,) + v.shape[1:])
    v = np.concatenate([zero, v, zero])
    out = np.empty((m.shape[0],) + v.shape[1:])
    for i, row in enumerate(m):
        cols = np.flatnonzero(row)
        acc = row[cols[0]] * v[cols[0]]
        for c in cols[1:]:
            acc = acc + row[c] * v[c]
        out[i] = acc
    return np.moveaxis(out, 0, axis - 3)


def _integer_data(rng, shape):
    """Integers in [-3, 3] with about a third of the entries -0.0."""
    v = rng.integers(-3, 4, size=shape).astype(float)
    v[rng.random(shape) < 0.3] = -0.0
    return v


def _staggered_matrix(dom, fwd, bwd, adjoint):
    """Sparse matrix of the staggered Dirac pair on flattened (4, n1, n2,
    n3) fields, quaternion component outermost. D+ (adjoint False) takes the
    STAGGER difference of each input component and multiplies by e_j; D-
    multiplies by e_j first and takes the flipped difference of each
    output component."""
    out = sparse.csr_matrix((4 * dom.num_cells,) * 2)
    for j in range(3):
        for c in range(4):
            back = STAGGER[j][c] != adjoint
            mats = [sparse.identity(m) for m in dom.n]
            mats[j] = sparse.csr_matrix(
                _diff_matrix(dom.n[j], bwd if back else fwd)[:, 1:-1] / dom.h)
            pick = np.zeros((4, 4))
            pick[c, c] = 1.0
            unit = pick @ LEFT_MUL[1 + j] if adjoint else LEFT_MUL[1 + j] @ pick
            out = out + sparse.kron(
                unit, sparse.kron(sparse.kron(mats[0], mats[1]), mats[2]))
    return sparse.csr_matrix(out)


def _ghost_zero_phi(dom):
    """D+ with ghost-zero differences on zero-collar fields, as a dense
    matrix whose columns are its values on the non-collar unit fields."""
    cols = []
    for k in np.flatnonzero(np.tile(~dom.collar_mask(1).ravel(), 4)):
        e = np.zeros(4 * dom.num_cells)
        e[k] = 1.0
        cols.append(_staggered(e.reshape((4,) + dom.shape), dom.h,
                               ghost=True).ravel())
    return np.array(cols).T


# ---------------------------------------------------------------------------
# Dirac operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", BOXES[:3])
def test_staggered_pair_matches_matrix(n):
    dom = _box(n).domain
    rng = np.random.default_rng(15)
    # nonzero on the collar, so the fallback and ghost rows are exercised
    vals = rng.standard_normal((4,) + dom.shape)
    u = QField(dom, vals)
    ghost = lambda flip: _staggered(vals, dom.h, flip, ghost=True).ravel()
    cases = [
        (dirac_fwd(u).values.ravel(), ("fwd", "bwd", False)),
        (dirac_bwd(u).values.ravel(), ("fwd", "bwd", True)),
        (ghost(False), ("fwd0", "bwd0", False)),
        (ghost(True), ("fwd0", "bwd0", True)),
    ]
    for got, args in cases:
        ref = _staggered_matrix(dom, *args) @ vals.ravel()
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    # the ghost-zero D- is the transpose of the ghost-zero D+
    plus = _staggered_matrix(dom, "fwd0", "bwd0", False)
    minus = _staggered_matrix(dom, "fwd0", "bwd0", True)
    assert abs(minus - plus.T).max() <= 1e-12 * abs(plus).max()
    # dirac_central, to rounding the unit sum sum_j e_j d_j u of the
    # slice-form centered difference of all four components
    ref = np.zeros_like(vals)
    for j in range(3):
        ref += qmul_arr(np.eye(4)[1 + j], _dcen_slices(vals, j, dom.h))
    got = dirac_central(u).values
    assert np.abs(got - ref).max() <= ULP * np.abs(ref).max()
    # the stencils themselves, bit for bit their dense 1-D matrices, on
    # integer data with -0.0 entries and h = 1/2, every row exact; the
    # matrix products give a zero as +0.0 where the rows may give -0.0
    v = _integer_data(rng, (4,) + dom.shape)
    for ax in range(3):
        for kind, backward, ghost0 in [("fwd", False, False),
                                       ("bwd", True, False),
                                       ("fwd0", False, True),
                                       ("bwd0", True, True)]:
            ref = _apply_rows(_diff_matrix(dom.n[ax], kind), v, ax) / 0.5
            got = _diff(v, ax, 0.5, backward, ghost0)
            assert got.tobytes() == ref.tobytes(), (kind, ax)
        for second, kind, scale in [(False, "cen", 1.0),
                                    (True, "second", 0.25)]:
            ref = _apply_rows(_diff_matrix(dom.n[ax], kind), v, ax) / scale
            got = _along_axis(
                v, _centered_matrix(v.shape, ax, 0.5, second), ax)
            assert np.array_equal(got, ref), (kind, ax)
            assert not np.signbit(got[got == 0]).any()


@pytest.mark.parametrize("m", [3, 4, 7])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_dcen_transpose_matches_dense_matrix(m, axis):
    # the dense matrix of the slice-form centered difference on the whole
    # array, its one-sided face rows included, columns from unit arrays,
    # against the per-axis matrix applied along the axis to a batch of
    # two, and its transpose. The matrix is built once per (m, h) and is
    # read-only
    shape = [4, 5, 3]
    shape[axis] = m
    shape = tuple(shape)
    eye = np.eye(math.prod(shape))
    M = np.stack([_dcen_slices(e.reshape(shape), axis, 0.3).ravel()
                  for e in eye], axis=1)
    D = _centered_matrix(shape, axis, 0.3)
    assert D.shape == (m, m) and not D.flags.writeable
    assert _centered_matrix((2,) + shape, axis, 0.3) is D
    w = np.random.default_rng(m + 10 * axis).standard_normal((2,) + shape)
    flat = w.reshape(2, -1).T
    for got, ref in [(_along_axis(w, D, axis), M @ flat),
                     (_along_axis(w, D.T, axis), M.T @ flat)]:
        assert got.shape == w.shape
        got = got.reshape(2, -1).T
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _diff_slices(vals, axis, h, backward=False, ghost=False, out=None):
    """grid._diff in per-axis slice form, the oracle of its flat pass."""
    if out is None:
        out = np.empty(vals.shape)
    v, d = vals.swapaxes(0, axis - 3), out.swapaxes(0, axis - 3)
    if backward:
        np.subtract(v[1:], v[:-1], out=d[1:])
        d[0] = v[0] if ghost else d[1]
    else:
        np.subtract(v[1:], v[:-1], out=d[:-1])
        if ghost:
            np.subtract(0.0, v[-1], out=d[-1])
        else:
            d[-1] = d[-2]
    out /= h
    return out


# the rounding bound of a matrix product against the slice forms below:
# a few units in the last place of the largest entry
ULP = 4 * np.finfo(float).eps


def _dcen_slices(vals, axis, h):
    """The centered difference along `axis` in per-axis slice form, the
    oracle of its matrix (_centered_matrix)."""
    out = np.empty(vals.shape)
    v, d = vals.swapaxes(0, axis - 3), out.swapaxes(0, axis - 3)
    np.subtract(v[2:], v[:-2], out=d[1:-1])
    d[0] = -3 * v[0] + 4 * v[1] - v[2]
    d[-1] = 3 * v[-1] - 4 * v[-2] + v[-3]
    out /= 2 * h
    return out


def _lap_slices(v, h2):
    """laplacian in per-axis slice form, the oracle of its second-difference
    matrices."""
    out = np.zeros(v.shape)
    second = np.empty(v.shape)
    for ax in range(3):
        w, s = v.swapaxes(0, ax - 3), second.swapaxes(0, ax - 3)
        s[1:-1] = w[2:] - 2 * w[1:-1] + w[:-2]
        s[0] = w[0] - 2 * w[1] + w[2]
        s[-1] = w[-1] - 2 * w[-2] + w[-3]
        second /= h2
        out += second
    return out


def _signed_data(rng, shape):
    """Normal samples with about a fifth of the entries +0.0 or -0.0."""
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v


# unequal axes, 3-cell axes, no batch axis and one or two leading batch
# axes; _diff also on an axis of 2 cells
CONTIGUOUS_SHAPES = [(3, 5, 4), (4, 3, 7, 6), (2, 3, 6, 3, 5)]


@pytest.mark.parametrize("shape", CONTIGUOUS_SHAPES + [(4, 2, 6, 3)])
def test_diff_matches_slice_form(shape):
    # the one flat subtraction per difference equals the per-axis slices
    # bit for bit, signed zeros included, forward and backward, with the
    # fallback and the ghost rows, into a new array and into `out`
    rng = np.random.default_rng(len(shape) + sum(shape))
    for v in (_signed_data(rng, shape), _integer_data(rng, shape)):
        for axis in range(3):
            for backward in (False, True):
                for ghost in (False, True):
                    ref = _diff_slices(v, axis, 0.3, backward, ghost)
                    got = _diff(v, axis, 0.3, backward, ghost)
                    assert got.tobytes() == ref.tobytes()
                    out = np.full(shape, np.nan)
                    assert _diff(v, axis, 0.3, backward, ghost,
                                 out=out) is out
                    assert out.tobytes() == ref.tobytes()


def test_diff_rejects_non_contiguous_out():
    v = np.ones((4, 5, 6))
    with pytest.raises(ValueError, match="C-contiguous"):
        _diff(v, 1, 0.5, out=np.empty((4, 5, 6, 2))[..., 0])


@pytest.mark.parametrize("shape", CONTIGUOUS_SHAPES)
def test_dcen_and_laplacian_match_slice_form(shape):
    # the centered-difference and second-difference matrices applied along
    # each axis, leading axes batched, against the slice forms: equal on
    # integer data at h = 1/2, where every row is exact (a zero may differ
    # in sign), and to rounding at h = 0.3
    rng = np.random.default_rng(len(shape) + sum(shape))
    for v, h in ((_signed_data(rng, shape), 0.3),
                 (_integer_data(rng, shape), 0.5)):
        for axis in range(3):
            got = _dcen_apply(v, axis, h)
            ref = _dcen_slices(v, axis, h)
            _assert_rounding(got, ref, exact=h == 0.5)
        _assert_rounding(_laplacian_all(v, h), _lap_slices(v, h**2),
                         exact=h == 0.5)


def _assert_rounding(got, ref, exact):
    """got equals ref (exact), or to ULP times the largest |ref|."""
    if exact:
        assert np.array_equal(got, ref)
    else:
        assert np.abs(got - ref).max() <= ULP * np.abs(ref).max()


@pytest.mark.parametrize("n, h", [((8, 8, 8), 1 / 16), ((6, 8, 10), 0.05),
                                  ((3, 9, 5), 0.1)],
                         ids=["n8-h16th", "n6x8x10", "n3x9x5"])
def test_centered_operators_match_slice_form(n, h):
    # convective, _convect_solve, laplacian and dirac_central against the
    # slice forms: bit for bit on integer data at h = 1/16, where every
    # row and sum is exact and each result accumulates from +0.0, and to
    # ULP times the largest |ref| on the (6, 8, 10) box of extent
    # (0.3, 0.4, 0.5) and the (3, 9, 5) box
    ops = OperatorSet(build_domain((0.1, -0.2, 0.3),
                                   tuple(h * m for m in n), n))
    dom = ops.domain
    rng = np.random.default_rng(sum(n))
    data = _integer_data if h == 1 / 16 else _signed_data
    v = data(rng, (4,) + n)
    a = data(rng, (4,) + n)
    a[0] = 0.0
    adv = np.zeros_like(v)
    for i in range(3):
        adv += a[1 + i] * _dcen_slices(v, i, h)
    dirac = np.zeros_like(v)
    for j in range(3):
        dirac += qmul_arr(np.eye(4)[1 + j], _dcen_slices(v, j, h))
    u, w = QField(dom, v), QField(dom, a)
    cases = {"convective": (convective(w, u).values, adv),
             "_convect_solve": (_convect_solve(a[1:], v, ops),
                                ops.poisson_scalar(adv)),
             "laplacian": (laplacian(u).values, _lap_slices(v, h**2)),
             "dirac_central": (dirac_central(u).values, dirac)}
    for name, (got, ref) in cases.items():
        if h == 1 / 16:
            assert got.tobytes() == ref.tobytes(), name
        else:
            assert np.abs(got - ref).max() <= ULP * np.abs(ref).max(), name


def test_dirac_fwd_is_div_grad_curl(dom8):
    # D+ u = (-div+ u, grad+ u0 + curl- u), fallback rows included
    u = random_smooth(dom8, seed=6)
    du = dirac_fwd(u).values
    ref = curl_bwd(u).values
    for i in range(3):
        ref[1 + i] += _diff(u.values[0], i, dom8.h)
    ref[0] = -div_fwd(u)
    assert np.abs(du - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dirac_constant_is_zero(dom8):
    vals = np.zeros((4,) + dom8.shape)
    vals[...] = np.reshape((1.0, -2.0, 0.5, 3.0), (4, 1, 1, 1))
    for op in (dirac_fwd, dirac_bwd, dirac_central):
        assert not op(QField(dom8, vals)).values.any()


def test_dirac_linear_divergence(dom8):
    # u = x1 e1: Du = -div u = -1 (scalar part), no curl
    du = dirac_fwd(_coord_field(dom8, 0, 1)).values
    inner = _interior(dom8)
    assert np.allclose(du[:, inner].T, [-1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_dirac_linear_curl(dom8):
    # u = x2 e1: curl (x2, 0, 0) = (0, 0, -1)
    du = dirac_fwd(_coord_field(dom8, 1, 1)).values
    inner = _interior(dom8)
    assert np.allclose(du[:, inner].T, [0.0, 0.0, 0.0, -1.0], atol=1e-12)


def test_dirac_div_curl_split(dom8):
    u = random_smooth(dom8, seed=0)
    pure = u.values.copy()
    pure[0] = 0.0
    u = QField(dom8, pure)
    du = dirac_fwd(u)
    # oracle: componentwise forward-difference div and curl
    h = dom8.h
    d = [(np.roll(u.values[1 + ax], -1, axis=ax)
          - u.values[1 + ax]) / h for ax in range(3)]
    div = d[0] + d[1] + d[2]
    inner = _interior(dom8, 2)
    assert np.allclose(du.values[0][inner], -div[inner], atol=1e-10)


@pytest.mark.parametrize("n, extent, axis", [
    (2, (1.0, 1.0, 1.0), 0),
    ((3, 3, 2), (1.5, 1.5, 1.0), 2),
], ids=["n2", "n332"])
@pytest.mark.parametrize("op", [laplacian, dirac_central,
                                lambda u: convective(u, u)],
                         ids=["laplacian", "dirac_central", "convective"])
def test_face_stencils_refuse_two_cell_axis(n, extent, axis, op):
    # the one-sided face rows read three layers; a 2-cell axis has two
    dom = build_domain((0.0, 0.0, 0.0), extent, n)
    u = random_smooth(dom, seed=0)
    u.values[0] = 0.0
    with pytest.raises(ValueError, match=f"axis {axis} has 2"):
        op(u)


def test_laplacian_quadratic(dom8):
    # scalar x1^2 has exact 7-point Laplacian 2 in the interior
    vals = np.zeros((4,) + dom8.shape)
    vals[0] = dom8.cell_centers()[..., 0] ** 2
    lap = laplacian(QField(dom8, vals)).values
    inner = _interior(dom8)
    assert np.allclose(lap[:, inner].T, [2.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_laplacian_matches_stencil(dom8):
    u = random_smooth(dom8, seed=1)
    lap = laplacian(u).values
    v = u.values
    h2 = dom8.h ** 2
    stencil = (np.roll(v, 1, 1) + np.roll(v, -1, 1)
               + np.roll(v, 1, 2) + np.roll(v, -1, 2)
               + np.roll(v, 1, 3) + np.roll(v, -1, 3) - 6 * v) / h2
    inner = _interior(dom8)
    scale = np.abs(stencil[:, inner]).max()
    assert np.abs(lap[:, inner] - stencil[:, inner]).max() <= 1e-12 * scale
    # with the face rows, bit for bit the dense 1-D second differences, on
    # integer data with -0.0 entries, h = 1/2 and an axis of 3 cells
    rng = np.random.default_rng(16)
    for n in BOXES[:3]:
        v = _integer_data(rng, (4,) + n)
        ref = np.zeros_like(v)
        for ax in range(3):
            ref += _apply_rows(_diff_matrix(n[ax], "second"), v, ax) / 0.25
        u = QField(build_domain((0.0, 0.0, 0.0),
                                tuple(0.5 * m for m in n), n), v)
        assert laplacian(u).values.tobytes() == ref.tobytes()


def _dcen_apply(v, axis, h):
    """The centered-difference matrix applied along `axis` of v."""
    return _along_axis(v, _centered_matrix(v.shape, axis, h), axis)


def _laplacian_all(v, h):
    """laplacian's second-difference matrices on every component of v, the
    zero ones too, accumulated from +0.0."""
    out = np.zeros(v.shape)
    for ax in range(3):
        out += _along_axis(v, _centered_matrix(v.shape, ax, h, True), ax)
    return out


def _staggered_all(vals, h, flip=False, ghost=False, central=False):
    """_staggered differencing all four components, the zero ones too."""
    out = np.zeros_like(vals)
    for j in range(3):
        for r, (sign, c) in enumerate(UNIT_MUL[1 + j]):
            out[r] += sign * (
                _dcen_apply(vals[c], j, h) if central
                else _diff(vals[c], j, h, _BACKWARD[j, c] != flip, ghost))
    return out


def _pure_fields(dom):
    """Seeded pure fields with entries of both signs; the last one has a
    scalar part of -0.0 on a third of the cells."""
    fields = [random_pure_bump(dom, seed=s) for s in (3, 4)]
    vals = random_smooth(dom, seed=5).values.copy()
    vals[0] = np.where(np.random.default_rng(5).random(dom.shape) < 0.3,
                       -0.0, 0.0)
    return fields + [QField(dom, vals)]


@pytest.mark.parametrize("n", BOXES[:3])
def test_pure_field_stencils_match_all_components(n):
    # on a field whose scalar part is identically zero the stencils skip
    # that component; the result is the four-component computation's, bit
    # for bit, signed zeros included
    dom = build_domain((0.1, -0.2, 0.3), tuple(0.1 * m for m in n), n)
    h = dom.h
    fields = _pure_fields(dom)
    for u in fields:
        v = u.values
        for kw in [{}, {"flip": True}, {"ghost": True},
                   {"flip": True, "ghost": True}, {"central": True}]:
            ref = _staggered_all(v, h, **kw).tobytes()
            assert _staggered(v, h, **kw).tobytes() == ref, kw
        assert (dirac_fwd(u).values.tobytes()
                == _staggered_all(v, h).tobytes())
        assert (dirac_bwd(u).values.tobytes()
                == _staggered_all(v, h, flip=True).tobytes())
        assert (laplacian(u).values.tobytes()
                == _laplacian_all(v, h).tobytes())
        for a in fields:
            ref = _advect(a.values[1:], v, h)
            assert convective(a, u).values.tobytes() == ref.tobytes()


def _zero_fields(dom):
    """Identically zero fields: every entry +0.0, which the stencils skip,
    and one with -0.0 on about a third of the cells of every component,
    which they difference."""
    signed = np.zeros((4,) + dom.shape)
    signed[np.random.default_rng(7).random(signed.shape) < 0.3] = -0.0
    return [QField.zeros(dom), QField(dom, signed)]


@pytest.mark.parametrize("n", BOXES[:3])
def test_zero_operands_match_full_computation(n):
    # an identically zero operand gives, without differencing or solving,
    # the full computation's result bit for bit, signed zeros included:
    # +0.0 everywhere for an all-+0.0 operand. The full computations are
    # the four-component _staggered, the second-difference matrices and
    # _diff called directly
    ops = _box(n)
    dom, h = ops.domain, ops.domain.h
    for z in _zero_fields(dom):
        v = z.values
        refs = {}
        for kw in [{}, {"flip": True}, {"ghost": True},
                   {"flip": True, "ghost": True}, {"central": True}]:
            ref = refs[tuple(kw)] = _staggered_all(v, h, **kw)
            assert _staggered(v, h, **kw).tobytes() == ref.tobytes(), kw
        got = {"dirac_fwd": (dirac_fwd(z), refs[()]),
               "dirac_bwd": (dirac_bwd(z), refs[("flip",)]),
               "dirac_central": (dirac_central(z), refs[("central",)])}
        w = ops.poisson_scalar(_staggered_all(v, h, flip=True, ghost=True))
        got["bergman_Q"] = (ops.bergman_Q(z), _staggered_all(w, h,
                                                             ghost=True))
        got["laplacian"] = (laplacian(z), _laplacian_all(v, h))
        grad = np.zeros_like(v)
        for i in range(3):
            _diff(v[0], i, h, backward=True, out=grad[1 + i])
        got["grad_bwd"] = (grad_bwd(z), grad)
        div = sum(_diff(v[1 + i], i, h) for i in range(3))
        assert div_fwd(z).tobytes() == div.tobytes()
        for name, (field, ref) in got.items():
            assert field.values.tobytes() == ref.tobytes(), name
            # the all-+0.0 operand gives +0.0; on the signed one the
            # gradient, which writes its differences, keeps -0.0 entries
            assert np.signbit(ref).any() == (np.signbit(v).any()
                                             and name == "grad_bwd"), name
        total = (v**2).sum()
        for ax in range(3):
            total += (_diff(v, ax, h) ** 2).sum()
        ref = float(np.sqrt(total * dom.cell_volume))
        assert np.float64(h1_norm(z)).tobytes() == np.float64(ref).tobytes()


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
    dom = build_domain((0, 0, 0), (1, 1, 1), 9)
    ops = OperatorSet(dom)
    vals = np.zeros((4,) + dom.shape)
    vals[0] = 1.0
    out = ops.teodorescu(QField(dom, vals))
    assert np.allclose(out.values[:, 4, 4, 4], 0.0, atol=1e-13)


def test_dirac_teodorescu_right_inverse(ops16):
    dom = ops16.domain
    f = random_smooth(dom, seed=0, kmax=1)
    err = dirac_central(ops16.teodorescu(f)) - f
    centers = dom.cell_centers()
    lo = np.asarray(dom.origin)
    hi = lo + np.asarray(dom.n) * dom.h
    far = np.minimum(centers - lo, hi - centers).min(axis=-1) >= 3 * dom.h
    assert np.abs(err.values[:, far]).max() <= 0.05 * np.abs(f.values).max()


@pytest.mark.parametrize("part", ["full", "pure"])
@pytest.mark.parametrize("n", BOXES)
def test_teodorescu_matches_dense_sum(n, part):
    ops = _box(n)
    vals = np.random.default_rng(5).standard_normal((4,) + ops.domain.shape)
    if part == "pure":
        vals[0] = 0.0
    f = QField(ops.domain, vals)
    ref = _teodorescu_dense(ops, f)
    got = ops.teodorescu(f).values
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def _pure_left_mul(K, f):
    """The components of pure(K) f written out term by term, elementwise
    over arrays: the oracle of _kernel_convolve's product."""
    K1, K2, K3 = K
    f0, f1, f2, f3 = f
    return [
        -(K1 * f1 + K2 * f2 + K3 * f3),
        K1 * f0 + K2 * f3 - K3 * f2,
        K2 * f0 + K3 * f1 - K1 * f3,
        K3 * f0 + K1 * f2 - K2 * f1,
    ]


@pytest.mark.parametrize("n", BOXES)
def test_kernel_convolve_product_matches_expanded_form(n):
    # the product of the kernel's and the field's Fourier coefficients
    # accumulates in unit order (quaternion._add_unit): components 0 and 1
    # keep the term-by-term form's order, bit for bit, and components 2
    # and 3 regroup their sums, to a few rounding errors
    ops = _box(n)
    dom = ops.domain
    f = np.random.default_rng(6).standard_normal((4,) + dom.shape)
    offsets = [_wrapped(m) * dom.h for m in dom.n]
    axes = (0, 1, 2)
    pad = [len(o) for o in offsets]
    Kh = [np.fft.rfftn(Ki, s=pad, axes=axes)
          for Ki in _kernel(offsets, 0.3)]
    fh = [np.fft.rfftn(fc, s=pad, axes=axes) for fc in f]
    crop = tuple(slice(m) for m in dom.n)
    ref = np.stack([np.fft.irfftn(c, s=pad, axes=axes)[crop]
                    for c in _pure_left_mul(Kh, fh)])
    got = _kernel_convolve(offsets, 0.3, f, axes)
    assert np.array_equal(got[:2], ref[:2])
    eps = np.finfo(float).eps
    assert np.abs(got - ref).max() <= 4 * eps * np.abs(ref).max()


def test_cauchy_zero(ops8):
    from quatmhd.grid import BoundaryData
    out = ops8.cauchy(BoundaryData.zeros(ops8.domain))
    assert not out.values.any()


def test_cauchy_reproduces_constants(ops16):
    dom = ops16.domain
    vals = np.zeros((4,) + dom.shape)
    c = (1.0, 0.5, -0.25, 2.0)
    vals[...] = np.reshape(c, (4, 1, 1, 1))
    out = ops16.cauchy(trace_boundary(QField(dom, vals)))
    mid = tuple(n // 2 for n in dom.n)
    assert np.allclose(out.values[(slice(None),) + mid], c, rtol=0.02)


@pytest.mark.parametrize("n", BOXES)
def test_cauchy_matches_dense_sum(n):
    ops = _box(n)
    rng = np.random.default_rng(12)
    g = BoundaryData(ops.domain,
                     rng.standard_normal((ops.domain.num_faces, 4)))
    ref = _cauchy_dense(ops, g)
    got = ops.cauchy(g).values
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


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


@pytest.mark.parametrize("n", BOXES + [(3, 3, 3)])
def test_poisson_scalar_matches_sparse_lu(n):
    ops = _box(n)
    dom = ops.domain
    rhs = np.random.default_rng(13).standard_normal(dom.shape)
    got = ops.poisson_scalar(rhs)
    A, idx = _poisson_matrix_collar(dom)
    if idx.size == 0:
        assert not got.any()
        return
    ref = np.zeros(dom.num_cells)
    ref[idx] = splu(A).solve(rhs.ravel()[idx])
    assert np.linalg.norm(got.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", BOXES + [(3, 3, 3)])
def test_poisson_faces_matches_sparse_lu(n):
    ops = _box(n)
    dom = ops.domain
    rhs = np.random.default_rng(14).standard_normal(dom.shape)
    ref = splu(sparse.csc_matrix(_poisson_matrix_faces(dom))).solve(rhs.ravel())
    got = ops.poisson_faces(rhs)
    assert np.linalg.norm(got.ravel() - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("m", range(1, 18))
def test_sine_bases_orthonormal(m):
    for B in (_dst1(m), _dst2(m)):
        assert np.abs(B.T @ B - np.eye(m)).max() <= 1e-14


def test_sine_bases_match_scipy_dst():
    from scipy.fft import dst
    x = np.random.default_rng(15).standard_normal(11)
    assert np.allclose(_dst1(11) @ x, dst(x, type=1, norm="ortho"),
                       rtol=0, atol=1e-14)
    assert np.allclose(_dst2(11) @ x, dst(x, type=2, norm="ortho"),
                       rtol=0, atol=1e-14)


def test_poisson_dirichlet_is_componentwise(ops12):
    rhs = random_smooth(ops12.domain, seed=16, kmax=3)
    got = ops12.poisson_dirichlet(rhs).values
    for c in range(4):
        ref = ops12.poisson_scalar(rhs.values[c])
        assert np.abs(got[c] - ref).max() <= 1e-15 * np.abs(ref).max()


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
    rhs = np.zeros((4,) + dom.shape)
    rhs[0] = eig
    w = ops16.poisson_dirichlet(QField(dom, rhs))
    assert np.allclose(w.values[0], eig / lam, atol=1e-10)
    assert not w.values[1:].any()


def test_poisson_residual(ops12):
    dom = ops12.domain
    rhs = random_smooth(dom, seed=2)
    w = ops12.poisson_dirichlet(rhs)
    res = laplacian(w) + rhs
    inner = _interior(dom)
    num = np.sqrt((res.values[:, inner] ** 2).sum())
    den = np.sqrt((rhs.values[:, inner] ** 2).sum())
    assert num <= 1e-10 * den
    # the collar of the solution is exactly zero (discrete H^1_0)
    assert not w.values[:, dom.collar_mask(1)].any()


# ---------------------------------------------------------------------------
# Bergman / Hodge projections
# ---------------------------------------------------------------------------

def test_projections_partition_identity(ops12):
    f = random_smooth(ops12.domain, seed=3)
    P, Q = ops12.bergman_P(f), ops12.bergman_Q(f)
    assert l2_norm(P + Q - f) <= 1e-12 * l2_norm(f)
    assert l2_norm(ops12.bergman_P(P) - P) <= 1e-8 * l2_norm(f)
    assert abs(sc_inner(P, Q)) <= 1e-8 * l2_norm(f) ** 2


def test_q_matches_real_gram_oracle():
    # oracle: the real 4m x 4m Gram of the ghost-zero D+ on zero-collar
    # columns, solved directly; bergman_Q applies it as stencils around
    # four DST-I Poisson solves
    rng = np.random.default_rng(11)
    for n in BOXES[:3]:
        ops = _box(n)
        dom = ops.domain
        phi = _ghost_zero_phi(dom)
        gram = phi.T @ phi
        full = rng.standard_normal((4,) + dom.shape)
        scalar = np.zeros((4,) + dom.shape)
        scalar[0] = rng.standard_normal(dom.shape)  # pressure_recover input
        for vals in (full, scalar):
            ref = (phi @ np.linalg.solve(gram, phi.T @ vals.ravel())
                   ).reshape(vals.shape)
            got = ops.bergman_Q(QField(dom, vals)).values
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", BOXES)
def test_pressure_S_matches_bergman_Q(n, stencil_pressure):
    # the matrix-chain pressure operator against Sc(Q(p e0)) and against
    # the stencil composition it replaces, to rounding; p is nonzero on the
    # collar, which all must ignore alike. The second input has signed
    # zeros and an all-zero plane
    ops = _box(n)
    p = np.random.default_rng(21).standard_normal(ops.domain.shape)
    signed = np.where(p > 0.5, -0.0, np.where(p < -0.5, 0.0, p))
    signed[:, 1] = -0.0
    for q in (p, signed):
        f = np.zeros((4,) + ops.domain.shape)
        f[0] = q
        ref = ops.bergman_Q(QField(ops.domain, f)).values[0]
        got = ops.pressure_S(q)
        tol = 1e-14 * np.abs(ref).max()
        assert np.abs(got - ref).max() <= tol
        assert np.abs(got - stencil_pressure.S(ops, q)).max() <= tol
        assert got.any() == (min(n) > 2)  # (2, 6, 6) has no non-collar cell


def _chain_on_views(x, mats):
    """The stack of A_j x as _chain computed it before its transposed
    factors were built contiguous: the last axis reads mats[2] through a
    strided swapaxes view. The test oracle of _chain."""
    (m0, n0), (m1, n1), (m2, n2) = (c.shape[1:] for c in mats)
    y = mats[0].reshape(3 * m0, n0) @ x.reshape(n0, n1 * n2)
    y = mats[1][:, None] @ y.reshape(3, m0, n1, n2)
    y = y.reshape(3, m0 * m1, n2) @ mats[2].swapaxes(1, 2)
    return y.reshape(3, m0, m1, m2)


def _chain_T_on_views(y, mats):
    """sum_j A_j^T y[j] as _chain_T computed it on the swapaxes view of
    mats[1]. The test oracle of _chain_T."""
    (m0, n0), (m1, n1), (m2, n2) = (c.shape[1:] for c in mats)
    x = y.reshape(3, m0 * m1, m2) @ mats[2]
    x = mats[1].swapaxes(1, 2)[:, None] @ x.reshape(3, m0, m1, n2)
    x = mats[0].reshape(3 * m0, n0).T @ x.reshape(3 * m0, n1 * n2)
    return x.reshape(n0, n1, n2)


@pytest.mark.parametrize("n", [(8, 8, 8), (5, 7, 6)])
def test_pressure_chains_match_the_view_oracle(n):
    # the contiguous transposed factor stacks equal the swapaxes views bit
    # for bit, and so do pressure_S and _sc_dirac_solve built on them
    ops = _box(n)
    mats = ops._grad_factors
    for a, stack in ops._grad_factors_T.items():
        assert stack.flags.c_contiguous
        assert np.array_equal(stack, mats[a].swapaxes(1, 2))
    rng = np.random.default_rng(22)
    p = rng.standard_normal(ops.domain.shape)
    y = _chain_on_views(p, mats) / ops._collar_symbol
    assert np.array_equal(ops.pressure_S(p), _chain_T_on_views(y, mats))
    g = rng.standard_normal((3,) + ops.domain.shape)
    y = _along_axes(g[:, 1:-1, 1:-1, 1:-1], ops._collar_bases)
    assert np.array_equal(ops._sc_dirac_solve(g),
                          _chain_T_on_views(y / ops._collar_symbol, mats))


def test_q_fixes_gradient_fields(ops12):
    g = zero_boundary(random_bump(ops12.domain, seed=4), width=2)
    dg = dirac_fwd(g)
    assert l2_norm(ops12.bergman_Q(dg) - dg) <= 1e-6 * l2_norm(dg)


def test_p_nearly_fixes_constants(ops8, ops12, ops16):
    # in the continuum constants are monogenic, so Q annihilates them and
    # P = I - Q fixes them; the ghost-zero D- of a constant vanishes on every
    # non-collar cell, so the discrete pair does too, to rounding
    for ops in (ops8, ops12, ops16):
        dom = ops.domain
        vals = np.zeros((4,) + dom.shape)
        vals[...] = np.reshape((0.3, -1.2, 0.7, 0.1), (4, 1, 1, 1))
        c = QField(dom, vals)
        assert l2_norm(ops.bergman_Q(c)) <= 1e-14 * l2_norm(c)
        assert l2_norm(ops.bergman_P(c) - c) <= 1e-14 * l2_norm(c)
        assert l2_norm(ops.bergman_P(c) + ops.bergman_Q(c) - c) \
            <= 1e-12 * l2_norm(c)


# ---------------------------------------------------------------------------
# spectral constants
# ---------------------------------------------------------------------------

def test_lambda_min_analytic(ops16):
    h = ops16.domain.h
    ref = 3 * (4 / h**2) * math.sin(math.pi * h / 2) ** 2
    assert ops16.lambda_min() == pytest.approx(ref, rel=1e-6)
    # the continuum value 3 pi^2 is approached from below
    assert ops16.lambda_min() < 3 * math.pi ** 2


@pytest.mark.parametrize("n", [8, 16, 32, (3, 9, 5)])
def test_lambda_min_matches_closed_form(n):
    # the DST-II symbol's smallest entry, sum_axes (4/h^2) sin^2(pi/(2 n_axis))
    ops = _box((n,) * 3 if isinstance(n, int) else n)
    h = ops.domain.h
    ref = sum((4 / h**2) * math.sin(math.pi / (2 * m)) ** 2
              for m in ops.domain.n)
    assert abs(ops.lambda_min() - ref) <= 1e-13 * ref


@pytest.mark.parametrize("n", [4, (3, 5, 4)])
def test_lambda_min_is_top_of_face_solve(n):
    # lambda_min reads the DST-II symbol; one over it is the largest
    # eigenvalue of the assembled face solve, which checks that solve
    ops = _box((n,) * 3 if isinstance(n, int) else n)
    size = ops.domain.num_cells
    M = np.array([ops.poisson_faces(e.reshape(ops.domain.shape)).ravel()
                  for e in np.eye(size)]).T
    assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()
    top = np.linalg.eigvalsh(M)[-1]
    assert abs(1.0 / ops.lambda_min() - top) <= 1e-12 * top


@pytest.mark.parametrize("size", [1, 2, 5, 12])
def test_top_eigenvalue_matches_eigvalsh(size):
    from quatmhd.solvers import _top_eigenvalue
    rng = np.random.default_rng(size)
    a, b = rng.standard_normal(size), rng.standard_normal(size - 1)
    T = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    top = np.linalg.eigvalsh(T)[-1]
    assert abs(_top_eigenvalue(list(a), list(b)) - top) \
        <= 1e-14 * np.abs(T).max()


def test_op_norm_bound(ops12):
    k = ops12.op_norm_TQT()
    assert 0 < k <= 1.1 / ops12.lambda_min()


def test_op_norm_matches_dense_eigenvalue():
    # the Lanczos estimate against the largest eigenvalue of the assembled
    # TQT, which is symmetric
    dom = build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 6)
    ops = OperatorSet(dom)
    size = dom.num_cells * 4
    cols = [ops.poisson_dirichlet(QField(dom, e.reshape((4,) + dom.shape)))
            .values.ravel() for e in np.eye(size)]
    A = np.array(cols).T
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    ref = np.linalg.eigvalsh(A)[-1]
    assert abs(ops.op_norm_TQT() - ref) <= 1e-9 * ref


def test_op_norm_without_non_collar_cells():
    # an axis of two cells leaves TQT = poisson_dirichlet zero
    ops = _box((2, 6, 6))
    assert ops.op_norm_TQT() == 0.0
    f = random_smooth(ops.domain, seed=0)
    assert not ops.poisson_dirichlet(f).values.any()


# ---------------------------------------------------------------------------
# the lattice Teodorescu pair: TQT is the collar-Dirichlet solve
# ---------------------------------------------------------------------------

def _rel(got, ref):
    return np.linalg.norm(got.values - ref.values) / np.linalg.norm(ref.values)


@pytest.mark.parametrize("n", [(6, 6, 6), (8, 8, 8), (3, 5, 4)])
def test_lattice_pair_identities(n, lattice_pair):
    # T+ = D- A, T- = D+ A from the lattice Green function; Q T- = D+_gz L^-1,
    # T+ Q T- = L^-1 and T+ D+_gz w = w for zero-collar w, to rounding
    ops = _box(n)
    dom = ops.domain
    pair = lattice_pair(dom)
    d_plus_gz = lambda w: QField(dom, _staggered(w.values, dom.h, ghost=True))
    for seed in range(2):
        f = random_smooth(dom, seed=seed)
        L = ops.poisson_dirichlet(f)
        qt = ops.bergman_Q(pair.T_minus(f))
        assert _rel(qt, d_plus_gz(L)) <= 1e-12
        assert _rel(pair.T_plus(qt), L) <= 1e-12
        w = zero_boundary(random_bump(dom, seed=seed + 2), width=1)
        assert _rel(pair.T_plus(d_plus_gz(w)), w) <= 1e-12


def test_lattice_green_function(lattice_pair):
    # Watson's G(0) and -Lap G = delta, the property the identities rest on
    G = lattice_pair.green(6)
    assert G[0, 0, 0] == pytest.approx(0.2527310098586630, rel=1e-14)
    idx = np.abs(np.arange(-6, 7))
    Gf = G[idx[:, None, None], idx[None, :, None], idx[None, None, :]]
    lap = 6 * Gf[1:-1, 1:-1, 1:-1] - sum(
        np.roll(Gf, s, a)[1:-1, 1:-1, 1:-1] for a in range(3) for s in (1, -1))
    lap[5, 5, 5] -= 1.0
    assert np.abs(lap).max() <= 1e-14


def test_lambda_min_computed_once(dom8, monkeypatch):
    ops = OperatorSet(dom8)
    first = ops.lambda_min()
    calls = []
    monkeypatch.setattr(OperatorSet, "poisson_faces",
                        lambda self, rhs: calls.append(1))
    assert ops.lambda_min() == first
    assert not calls


def test_div_fwd_of_gradient_consistent(ops8):
    # div(grad phi) equals the 7-point Laplacian of phi away from the collar
    dom = ops8.domain
    phi = zero_boundary(random_bump(dom, seed=5), width=2)
    g = dirac_fwd(phi)
    pv = np.zeros_like(g.values)
    pv[1:] = g.values[1:]
    div = div_fwd(QField(dom, pv))
    assert div.shape == dom.shape
