import numpy as np
import pytest

from quatmhd.quaternion import (LEFT_MUL, Quaternion, conj, conj_arr,
                                product_split, qmul, qmul_arr, sc, vec)

E1 = Quaternion(0, 1, 0, 0)
E2 = Quaternion(0, 0, 1, 0)
E3 = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)


def _rand_q(rng):
    return Quaternion(*rng.standard_normal(4))


def test_basis_products():
    assert qmul(E1, E2) == E3
    assert qmul(E2, E1) == -E3
    for e in (E1, E2, E3):
        assert qmul(e, e) == Quaternion(-1, 0, 0, 0)


def test_identity_element():
    rng = np.random.default_rng(0)
    q = _rand_q(rng)
    assert qmul(ONE, q) == q
    assert qmul(q, ONE) == q


def test_pure_square_is_negative_dot():
    # x = y = e1: -x.y + x cross y = -1
    assert qmul(E1, E1) == Quaternion(-1, 0, 0, 0)


def test_conj_definition():
    assert conj(Quaternion(1, 2, 3, 4)) == Quaternion(1, -2, -3, -4)
    rng = np.random.default_rng(1)
    q = _rand_q(rng)
    assert conj(conj(q)) == q


def test_norm_via_conjugate():
    q = Quaternion(1, 1, 1, 1)
    assert sc(qmul(conj(q), q)) == 4.0
    rng = np.random.default_rng(2)
    q = _rand_q(rng)
    assert sc(qmul(conj(q), q)) == pytest.approx(abs(q) ** 2, rel=1e-15)


def test_sc_vec_split():
    q = Quaternion(1, 2, 3, 4)
    assert sc(q) == 1.0
    assert vec(q) == Quaternion(0, 2, 3, 4)


def test_product_split_orthogonal_and_parallel():
    s, v = product_split(E1, E2)
    assert s == 0.0 and v == E3
    s, v = product_split(E3, E3)
    assert s == -1.0 and v == Quaternion(0, 0, 0, 0)


def test_product_split_recombines():
    rng = np.random.default_rng(3)
    x = Quaternion(0, *rng.standard_normal(3))
    y = Quaternion(0, *rng.standard_normal(3))
    s, v = product_split(x, y)
    # oracle: dot and cross products computed directly
    xv, yv = np.array([x.v1, x.v2, x.v3]), np.array([y.v1, y.v2, y.v3])
    assert s == pytest.approx(-xv @ yv, rel=1e-14)
    assert np.allclose([v.v1, v.v2, v.v3], np.cross(xv, yv), rtol=1e-14)
    full = qmul(x, y)
    assert full.s == pytest.approx(s, rel=1e-14)
    assert vec(full) == v


def test_product_split_rejects_non_pure():
    with pytest.raises(ValueError):
        product_split(ONE, E1)


def test_conjugate_antihomomorphism():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b = _rand_q(rng), _rand_q(rng)
        left = conj(qmul(a, b)).as_array()
        right = qmul(conj(b), conj(a)).as_array()
        assert np.allclose(left, right, rtol=0, atol=1e-14)


def test_multiplicativity_of_norm():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = _rand_q(rng), _rand_q(rng)
        assert abs(qmul(a, b)) == pytest.approx(abs(a) * abs(b), rel=1e-14)


def test_qmul_arr_broadcasts():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3, 5))
    b = rng.standard_normal((4, 3, 5))
    out = qmul_arr(a, b)
    for i in range(3):
        for j in range(5):
            ref = qmul(Quaternion(*a[:, i, j]), Quaternion(*b[:, i, j]))
            assert np.allclose(out[:, i, j], ref.as_array(), atol=1e-14)


def _hamilton(a, b):
    """The Hamilton product on (4, ...) arrays written out term by term:
    the oracle of qmul_arr."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ])


def test_qmul_arr_matches_expanded_product():
    # qmul_arr accumulates sum_j a_j e_j b from +0.0 in unit order, the
    # term order of the written-out product: equal values, NaN where it
    # has NaN (inf - inf, inf * 0); only the sign of a zero may differ
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 4, 500))
    for x in (a, b):
        pick = rng.random(x.shape)
        x[pick < 0.15] = 0.0
        x[(pick >= 0.15) & (pick < 0.3)] = -0.0
        x[(pick >= 0.3) & (pick < 0.35)] = np.inf
        x[(pick >= 0.35) & (pick < 0.4)] = -np.inf
    # trailing axes broadcast, a single quaternion against an array too
    with np.errstate(invalid="ignore"):
        for x in (a, a[:, :1], a[:, 0]):
            assert np.array_equal(qmul_arr(x, b), _hamilton(x, b),
                                  equal_nan=True)


def test_left_mul_matrices_match_qmul():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((10, 4))
    for k in range(4):
        assert np.array_equal(x @ LEFT_MUL[k].T, qmul_arr(np.eye(4)[k], x.T).T)


# ---------------------------------------------------------------------------
# complex 2x2 representation: an independent oracle for the quaternion product
# ---------------------------------------------------------------------------

def _to_cpair(a):
    # q = z1 + z2*e2 with z1 = s + v1*i, z2 = v2 + v3*i, as (z1, conj(z2))
    a = np.asarray(a, dtype=float)
    return np.stack([a[..., 0] + 1j * a[..., 1],
                     a[..., 2] - 1j * a[..., 3]], axis=-1)


def _from_cpair(c):
    return np.stack([c[..., 0].real, c[..., 0].imag,
                     c[..., 1].real, -c[..., 1].imag], axis=-1)


def _chi(q):
    # left multiplication by q on complex pairs: [[z1, -z2], [conj z2, conj z1]]
    q = np.asarray(q, dtype=float)
    z1 = q[..., 0] + 1j * q[..., 1]
    z2 = q[..., 2] + 1j * q[..., 3]
    return np.stack([np.stack([z1, -z2], axis=-1),
                     np.stack([z2.conj(), z1.conj()], axis=-1)], axis=-2)


def test_chi_of_units():
    # pins the oracle to the standard representation, so that the checks
    # below compare qmul with it and not with some other algebra
    assert np.array_equal(_chi(np.eye(4)[0]), np.eye(2))
    assert np.array_equal(_chi(np.eye(4)[1]), [[1j, 0], [0, -1j]])
    assert np.array_equal(_chi(np.eye(4)[2]), [[0, -1], [1, 0]])
    assert np.array_equal(_chi(np.eye(4)[3]), [[0, -1j], [-1j, 0]])


def test_chi_homomorphism_and_adjoint():
    rng = np.random.default_rng(9)
    p, q = rng.standard_normal((2, 10, 4))
    assert np.allclose(_chi(qmul_arr(p.T, q.T).T), _chi(p) @ _chi(q),
                       rtol=0, atol=1e-14)
    assert np.array_equal(_chi(conj_arr(q.T).T),
                          np.conj(np.swapaxes(_chi(q), -1, -2)))


def test_chi_acts_as_left_multiplication():
    rng = np.random.default_rng(10)
    q, x = rng.standard_normal((2, 10, 4))
    by_chi = _from_cpair(np.einsum("...ij,...j->...i", _chi(q),
                                   _to_cpair(x)))
    assert np.allclose(by_chi, qmul_arr(q.T, x.T).T, rtol=0, atol=1e-14)
    for k in range(4):
        unit = _from_cpair(np.einsum("ij,...j->...i", _chi(np.eye(4)[k]),
                                     _to_cpair(x)))
        assert np.array_equal(unit, x @ LEFT_MUL[k].T)
