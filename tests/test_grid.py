import numpy as np
import pytest

from quatmhd.grid import (BoundaryData, QField, build_domain, h1_norm,
                          l2_inner, l2_norm, lq_norm, sc_inner,
                          trace_boundary, zero_boundary)
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
