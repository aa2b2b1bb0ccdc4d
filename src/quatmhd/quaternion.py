"""Real quaternion arithmetic.

Scalar `Quaternion` values plus vectorized helpers acting on ``(4, ...)``
arrays, the components (s, v1, v2, v3) on the leading axis, the layout of
grid fields. The basis satisfies e1*e2 = -e2*e1 = e3 and
e1^2 = e2^2 = e3^2 = -1.
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


def qmul_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product on (4, ...) arrays (broadcasting)."""
    a0, a1, a2, a3 = np.asarray(a, dtype=float)
    b0, b1, b2, b3 = np.asarray(b, dtype=float)
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ])


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
