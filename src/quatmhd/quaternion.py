"""Real quaternion arithmetic.

Scalar `Quaternion` values plus vectorized helpers acting on ``(4, ...)``
arrays, the components (s, v1, v2, v3) on the leading axis, the layout of
grid fields. The basis satisfies e1*e2 = -e2*e1 = e3 and
e1^2 = e2^2 = e3^2 = -1. UNIT_MUL, derived from LEFT_MUL, lists how e_j
permutes and signs the components; _add_unit applies it in place, for
every product of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "qmul",
    "conj",
    "sc",
    "vec",
    "product_split",
    "qmul_arr",
    "conj_arr",
    "LEFT_MUL",
    "UNIT_MUL",
]


@dataclass(frozen=True)
class Quaternion:
    """A quaternion s + v1*e1 + v2*e2 + v3*e3."""

    s: float = 0.0
    v1: float = 0.0
    v2: float = 0.0
    v3: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.v1, self.v2, self.v3])

    @staticmethod
    def from_array(a) -> "Quaternion":
        a = np.asarray(a, dtype=float)
        return Quaternion(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.s + other.s, self.v1 + other.v1,
                          self.v2 + other.v2, self.v3 + other.v3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.s - other.s, self.v1 - other.v1,
                          self.v2 - other.v2, self.v3 - other.v3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.s, -self.v1, -self.v2, -self.v3)

    def __abs__(self) -> float:
        return float(np.sqrt(self.s**2 + self.v1**2 + self.v2**2 + self.v3**2))

    def is_pure(self, tol: float = 0.0) -> bool:
        return abs(self.s) <= tol


# Matrices of left multiplication by 1, e1, e2, e3 on (s, v1, v2, v3).
LEFT_MUL = np.zeros((4, 4, 4))
LEFT_MUL[0] = np.eye(4)
LEFT_MUL[1] = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
LEFT_MUL[2] = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
LEFT_MUL[3] = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
LEFT_MUL.flags.writeable = False

# Component r of e_j q is sign * q[c]: (sign, c) per r, for 1, e1, e2, e3.
UNIT_MUL = tuple(tuple((float(m[r].sum()), int(np.abs(m[r]).argmax()))
                       for r in range(4)) for m in LEFT_MUL)


def _add_unit(out: np.ndarray, j: int, term, lo: int = 0) -> None:
    """out += e_j q in place, q[c] = term(c): out[r] += q[c] or -= q[c] as
    UNIT_MUL[j][r] = (sign, c) says, one component of q held at a time.
    The components c < lo are skipped, lo as grid._first_live gives it."""
    for r, (sign, c) in enumerate(UNIT_MUL[j]):
        if c >= lo and sign > 0:
            out[r] += term(c)
        elif c >= lo:
            out[r] -= term(c)


def qmul_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product on (4, ...) arrays, the trailing axes broadcast:
    sum_j a_j e_j b, accumulated from +0.0 in unit order (_add_unit)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros((4,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for j in range(4):
        _add_unit(out, j, lambda c: a[j] * b[c])
    return out


def conj_arr(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out[1:] *= -1.0
    return out


def qmul(a: Quaternion, b: Quaternion) -> Quaternion:
    return Quaternion.from_array(qmul_arr(a.as_array(), b.as_array()))


def conj(q: Quaternion) -> Quaternion:
    return Quaternion(q.s, -q.v1, -q.v2, -q.v3)


def sc(q: Quaternion) -> float:
    return q.s


def vec(q: Quaternion) -> Quaternion:
    return Quaternion(0.0, q.v1, q.v2, q.v3)


def product_split(x: Quaternion, y: Quaternion) -> tuple[float, Quaternion]:
    """Split the product of two pure quaternions into (-dot, cross) parts."""
    if x.s != 0.0 or y.s != 0.0:
        raise ValueError("product_split requires pure (scalar-free) quaternions")
    p = qmul(x, y)
    return p.s, vec(p)
