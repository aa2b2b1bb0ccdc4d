import numpy as np
import pytest

from quatmhd.grid import (BoundaryData, QField, build_domain, h1_norm,
                          l2_inner, l2_norm, lq_norm, sc_inner,
                          trace_boundary, zero_boundary)
from quatmhd.grid import _inner
from quatmhd.quaternion import Quaternion
from quatmhd.sampling import random_smooth


def _const(dom, q):
    vals = np.zeros((4,) + dom.shape)
    vals[...] = np.reshape(q, (4, 1, 1, 1))
    return QField(dom, vals)


def test_build_domain_counts(dom8):
    assert dom8.num_cells == 512
    assert dom8.num_faces == 384  # 6 * 8^2


def test_build_domain_minimal():
    d = build_domain((0, 0, 0), (1, 1, 1), 2)
    assert d.num_cells == 8
    assert d.num_faces == 24
    assert d.collar_mask(1).all()  # every cell touches the boundary


def test_build_domain_rejects_degenerate():
    with pytest.raises(ValueError):
        build_domain((0, 0, 0), (1, 1, 1), 1)
    with pytest.raises(ValueError):
        build_domain((0, 0, 0), (1.0, 2.0, 1.0), 8)  # anisotropic h
    with pytest.raises(ValueError, match="n must be an integer"):
        build_domain((0, 0, 0), (1, 1, 1), 4.9)  # not truncated to 4
    with pytest.raises(ValueError, match=r"origin\[1\] must be a finite"):
        build_domain((0, float("nan"), 0), (1, 1, 1), 8)


def test_boundary_face_normals(dom8):
    norms = np.linalg.norm(dom8.face_normal, axis=1)
    assert np.array_equal(norms, np.ones(dom8.num_faces))
    # each normal is +/- a coordinate axis direction
    assert (np.abs(dom8.face_normal).sum(axis=1) == 1.0).all()
    # discrete divergence theorem on constants: signed areas sum to zero
    total = (dom8.face_normal * dom8.h**2).sum(axis=0)
    assert np.allclose(total, 0.0, atol=1e-12)


def test_l2_inner_constants(dom8):
    e1 = _const(dom8, (0, 1, 0, 0))
    e2 = _const(dom8, (0, 0, 1, 0))
    assert l2_inner(e1, e1).as_array() == pytest.approx([1, 0, 0, 0])
    # conj(e1) e2 = -e1 e2 = -e3, unit volume
    assert l2_inner(e1, e2).as_array() == pytest.approx([0, 0, 0, -1])
    zero = QField.zeros(dom8)
    assert not l2_inner(e1, zero).as_array().any()


def test_l2_inner_rejects_domain_mismatch(dom8, dom12):
    with pytest.raises(ValueError):
        l2_inner(QField.zeros(dom8), QField.zeros(dom12))


def test_sc_inner_properties(dom8):
    e1 = _const(dom8, (0, 1, 0, 0))
    e2 = _const(dom8, (0, 0, 1, 0))
    assert sc_inner(e1, e2) == 0.0
    u = random_smooth(dom8, seed=0)
    v = random_smooth(dom8, seed=1)
    assert sc_inner(u, v) == pytest.approx(sc_inner(v, u), rel=1e-13)
    assert sc_inner(u, u) > 0
    assert sc_inner(QField.zeros(dom8), QField.zeros(dom8)) == 0.0


def test_cauchy_schwarz(dom8):
    for seed in range(5):
        u = random_smooth(dom8, seed=seed)
        v = random_smooth(dom8, seed=seed + 10)
        assert abs(sc_inner(u, v)) <= l2_norm(u) * l2_norm(v) * (1 + 1e-13)


def test_l2_norm_squared_is_self_inner(dom8):
    u = random_smooth(dom8, seed=2)
    assert l2_norm(u) ** 2 == pytest.approx(sc_inner(u, u), rel=1e-13)


def test_norms_of_constant_field(dom8):
    c = _const(dom8, (0.5, -1.0, 2.0, 0.25))
    mag = abs(Quaternion(0.5, -1.0, 2.0, 0.25))
    assert l2_norm(c) == pytest.approx(mag, rel=1e-13)
    assert h1_norm(c) == pytest.approx(mag, rel=1e-13)


def test_l2_norm_linear_field(dom16):
    # u = x1 e1: integral of x^2 over the unit cube is 1/3 (midpoint rule
    # carries an O(h^2) defect)
    x1 = dom16.cell_centers()[..., 0]
    vals = np.zeros((4,) + dom16.shape)
    vals[1] = x1
    assert l2_norm(QField(dom16, vals)) == pytest.approx(1 / np.sqrt(3),
                                                         rel=1e-3)


def test_lq_norm_range(dom8):
    u = random_smooth(dom8, seed=3)
    assert lq_norm(QField.zeros(dom8), 1.25) == 0.0
    assert lq_norm(u, 2.0) == pytest.approx(l2_norm(u), rel=1e-13)
    with pytest.raises(ValueError):
        lq_norm(u, 1.0)
    with pytest.raises(ValueError):
        lq_norm(u, 1.6)


def test_trace_and_zero_boundary(dom8):
    c = _const(dom8, (1.0, 2.0, 3.0, 4.0))
    tr = trace_boundary(c)
    assert np.allclose(tr.values, [1.0, 2.0, 3.0, 4.0])
    z = zero_boundary(random_smooth(dom8, seed=4))
    assert not trace_boundary(z).values.any()
    again = zero_boundary(z)
    assert np.array_equal(again.values, z.values)


def test_zero_boundary_fixes_interior_fields(dom8):
    u = random_smooth(dom8, seed=5)
    vals = np.zeros_like(u.values)
    inner = ~dom8.collar_mask(1)
    vals[:, inner] = u.values[:, inner]
    w = QField(dom8, vals)
    assert np.array_equal(zero_boundary(w).values, w.values)


def test_boundary_data_shape_checked(dom8):
    with pytest.raises(ValueError):
        BoundaryData(dom8, np.zeros((10, 4)))
    assert BoundaryData.zeros(dom8).values.shape == (384, 4)


# ---------------------------------------------------------------------------
# the layout helpers against the constructions they replaced
# ---------------------------------------------------------------------------

# cubes, unequal boxes and a 2-cell axis, at origins up to +-1e4 (a -0.0
# entry checks the zero sign of the face centers on the side at the origin)
LAYOUT_BOXES = [((0.0, 0.0, 0.0), 2), ((-0.0, 1.5, -2.5), 3),
                ((1e4, -1e4, 0.3), 8), ((0.1, -0.2, 0.3), (6, 8, 10)),
                ((-1e4, -0.0, 1e4), (2, 3, 2)),
                ((3.7, -1e4, 9999.5), (17, 9, 33))]


def _layout_domain(origin, n):
    counts = (n,) * 3 if isinstance(n, int) else n
    return build_domain(origin, tuple(0.37 * m for m in counts), n)


def _collar_mask_slices(shape, w):
    """The collar as six slices, one per box side."""
    m = np.zeros(shape, dtype=bool)
    m[:w], m[-w:] = True, True
    m[:, :w], m[:, -w:] = True, True
    m[:, :, :w], m[:, :, -w:] = True, True
    return m


def _zero_boundary_masked(u, w):
    """A copy of u with the six-slice collar set to 0.0."""
    out = u.values.copy()
    out[:, _collar_mask_slices(u.domain.shape, w)] = 0.0
    return out


def _faces_meshgrid(origin, n, h):
    """Face cells, normals and centers, block by block from two meshgrids
    of the tangential indices."""
    cells, normals, centers = [], [], []
    for ax in range(3):
        for side in (0, 1):
            uax, vax = [a for a in range(3) if a != ax]
            iu, iv = np.meshgrid(np.arange(n[uax]), np.arange(n[vax]),
                                 indexing="ij")
            cell = np.zeros(iu.shape + (3,), dtype=int)
            cell[..., uax], cell[..., vax] = iu, iv
            cell[..., ax] = 0 if side == 0 else n[ax] - 1
            nrm = np.zeros(3)
            nrm[ax] = -1.0 if side == 0 else 1.0
            cent = np.zeros(iu.shape + (3,))
            cent[..., uax] = origin[uax] + (iu + 0.5) * h
            cent[..., vax] = origin[vax] + (iv + 0.5) * h
            cent[..., ax] = origin[ax] + (0.0 if side == 0 else n[ax] * h)
            cells.append(cell.reshape(-1, 3))
            normals.append(np.broadcast_to(nrm, (iu.size, 3)).copy())
            centers.append(cent.reshape(-1, 3))
    return [np.concatenate(a) for a in (cells, normals, centers)]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


@pytest.mark.parametrize("origin, n", LAYOUT_BOXES)
def test_build_domain_faces_match_meshgrid_oracle(origin, n):
    dom = _layout_domain(origin, n)
    cell, normal, center = _faces_meshgrid(dom.origin, dom.n, dom.h)
    assert _same_bits(dom.face_cell, cell)
    assert _same_bits(dom.face_normal, normal)
    assert _same_bits(dom.face_center, center)
    assert all(a.flags.c_contiguous
               for a in (dom.face_cell, dom.face_normal, dom.face_center))


@pytest.mark.parametrize("origin, n", LAYOUT_BOXES)
def test_cell_centers_are_the_cell_center_formula(origin, n):
    dom = _layout_domain(origin, n)
    x = dom.cell_centers()
    for i, m in enumerate(dom.n):
        ref = dom.origin[i] + (np.arange(m) + 0.5) * dom.h
        line = np.moveaxis(x[..., i], i, 0).reshape(m, -1)
        assert _same_bits(line[:, 0], ref)
        assert (line == line[:, :1]).all()


@pytest.mark.parametrize("origin, n", LAYOUT_BOXES)
@pytest.mark.parametrize("width", [1, 2, 3, 17])
def test_collar_and_zero_boundary_match_slice_oracles(origin, n, width):
    dom = _layout_domain(origin, n)
    assert _same_bits(dom.collar_mask(width),
                      _collar_mask_slices(dom.shape, width))
    vals = random_smooth(dom, seed=width).values.copy()
    vals[:, ::3] = -0.0  # signed zeros inside and on the collar
    u = QField(dom, vals)
    z = zero_boundary(u, width)
    assert _same_bits(z.values, _zero_boundary_masked(u, width))
    assert not np.shares_memory(z.values, u.values)
    block = np.zeros(dom.shape)
    block[_inner(width)] = 1.0
    assert _same_bits(block == 0.0, dom.collar_mask(width))


@pytest.mark.parametrize("width", [0, -1, 2.5, True, "1", None])
def test_collar_width_must_be_a_positive_integer(dom8, width):
    # width 0 used to mark every cell: slice(0, -0) is empty
    u = random_smooth(dom8, seed=1)
    for call in (lambda: dom8.collar_mask(width),
                 lambda: zero_boundary(u, width), lambda: _inner(width)):
        with pytest.raises(ValueError, match="width must be an integer"):
            call()
    assert zero_boundary(u, np.int64(2)).values.tobytes() == (
        zero_boundary(u, 2).values.tobytes())
