"""Voxel domains, quaternion-valued grid fields, inner products and norms.

Fields are stored cell-centered on a uniform axis-aligned grid with
isotropic spacing h; values are C-contiguous (4, n1, n2, n3) arrays, the
components (s, v1, v2, v3) first, as every operator acts on one component
at a time; boundary data are one (M, 4) row per face. Volume integrals use
the midpoint rule, surface integrals the face-midpoint rule.

The grid's layout is stated here alone: where a cell sits on an axis
(_cell_center), the non-collar block of cells (_inner) and the order of
the boundary faces, one block per box side (_face_blocks).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .quaternion import Quaternion, conj_arr, qmul_arr

__all__ = [
    "VoxelDomain",
    "QField",
    "BoundaryData",
    "build_domain",
    "l2_inner",
    "sc_inner",
    "l2_norm",
    "h1_norm",
    "lq_norm",
    "trace_boundary",
    "zero_boundary",
]


@dataclass(frozen=True)
class VoxelDomain:
    """Axis-aligned uniform voxel grid with boundary face data."""

    origin: np.ndarray            # (3,)
    n: tuple[int, int, int]       # cells per axis
    h: float                      # isotropic spacing
    # boundary faces, one row each
    face_cell: np.ndarray = field(repr=False, default=None)    # (M, 3) int
    face_normal: np.ndarray = field(repr=False, default=None)  # (M, 3) float
    face_center: np.ndarray = field(repr=False, default=None)  # (M, 3) float

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.n

    @property
    def num_cells(self) -> int:
        n1, n2, n3 = self.n
        return n1 * n2 * n3

    @property
    def num_faces(self) -> int:
        return self.face_cell.shape[0]

    @property
    def cell_volume(self) -> float:
        return self.h**3

    @property
    def face_area(self) -> float:
        return self.h**2

    def cell_centers(self) -> np.ndarray:
        """(n1, n2, n3, 3) array of cell-center coordinates."""
        axes = [_cell_center(self.origin[i], np.arange(m), self.h)
                for i, m in enumerate(self.n)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def collar_mask(self, width: int = 1) -> np.ndarray:
        """Cells within `width` cells of the boundary: all but _inner(width)."""
        m = np.ones(self.n, dtype=bool)
        m[_inner(width)] = False
        return m

    def same_grid(self, other: "VoxelDomain") -> bool:
        if other is self:
            return True
        return (self.n == other.n and np.allclose(self.origin, other.origin)
                and self.h == other.h)


def _integer(value, name: str, low: int, end: float = math.inf) -> int:
    """value as an int; ValueError naming `name` unless it is an integer in
    [low, end) (a bool is not)."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not low <= value < end):
        below = f" and < {end}" if end < math.inf else ""
        raise ValueError(f"{name} must be an integer >= {low}{below}, "
                         f"got {value!r}")
    return int(value)


def _inner(width: int = 1) -> tuple:
    """The index (..., w:-w, w:-w, w:-w) of the cells more than w = `width`
    cells from every face, the non-collar block of an array's last three
    axes; ValueError unless width is an integer >= 1."""
    w = _integer(width, "width", 1)
    return (Ellipsis,) + (slice(w, -w),) * 3


def _cell_center(origin, k, h: float):
    """origin + (k + 1/2) h, the coordinate of cell k (an index or an
    integer array) along an axis whose first cell starts at `origin`."""
    return origin + (k + 0.5) * h


def _face_blocks(n):
    """(axis, side, shape) of each block of boundary faces, one per box
    side, axis by axis, side 0 (normal -e_axis) first; a block lists its
    faces in C order over shape, n with a 1 on the axis."""
    for ax in range(3):
        for side in (0, 1):
            yield ax, side, tuple(1 if a == ax else n[a] for a in range(3))


def _finite(value, name: str, low: float | None = None,
            inclusive: bool = False) -> float:
    """value as a float; ValueError naming `name` unless it is a finite real
    number (a bool is not) above low, or equal to it when inclusive."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value)
            or not (low is None or value > low or inclusive and value == low)):
        bound = "" if low is None else f" {'>=' if inclusive else '>'} {low:g}"
        raise ValueError(f"{name} must be a finite number{bound}, "
                         f"got {value!r}")
    return float(value)


def _per_axis(value, name: str, check, **kw) -> tuple:
    """check(entry, f"{name}[i]", **kw) of each of the 3 entries of value."""
    if not (isinstance(value, (list, tuple, np.ndarray)) and len(value) == 3):
        raise ValueError(f"{name} must have 3 entries, got {value!r}")
    return tuple(check(v, f"{name}[{i}]", **kw) for i, v in enumerate(value))


def _spacing(h: float) -> float:
    """h; ValueError unless the face area h^2 and the cell volume h^3 are
    positive, normal, finite floats, as the operators and norms need."""
    try:
        ok = min(h**2, h**3) >= sys.float_info.min
    except OverflowError:  # a float power raises where it would be inf
        ok = False
    if not ok:
        raise ValueError(f"spacing h = {h!r} out of range: h^2 and h^3 must "
                         "be positive, normal, finite floats")
    return h


def build_domain(origin, physical_extent, n) -> VoxelDomain:
    """Build a full-box voxel domain with isotropic spacing from 3 finite
    origin coordinates, 3 finite positive extents and the cells per axis,
    3 integers >= 2 or one for all three axes (_spacing checks the
    spacing they give)."""
    origin = np.array(_per_axis(origin, "origin", _finite))
    ext = np.array(_per_axis(physical_extent, "extent", _finite, low=0.0))
    if isinstance(n, (list, tuple, np.ndarray)):
        n = _per_axis(n, "n", _integer, low=2)
    else:
        n = (_integer(n, "n", 2),) * 3
    spacings = ext / np.asarray(n)
    if not np.allclose(spacings, spacings[0], rtol=1e-12, atol=0.0):
        raise ValueError("anisotropic spacing not supported: extent/n must match per axis")
    h = _spacing(float(spacings[0]))

    blocks = []
    for ax, side, shape in _face_blocks(n):
        cell = np.stack(np.indices(shape), axis=-1).reshape(-1, 3)
        cell[:, ax] = side * (n[ax] - 1)
        cent = _cell_center(origin, cell, h)
        cent[:, ax] = origin[ax] + side * n[ax] * h  # on the box side
        nrm = np.zeros(cell.shape)
        nrm[:, ax] = 2 * side - 1
        blocks.append((cell, nrm, cent))
    return VoxelDomain(origin, n, h, *map(np.concatenate, zip(*blocks)))


@dataclass
class QField:
    """Quaternion-valued grid function on a voxel domain."""

    domain: VoxelDomain
    values: np.ndarray  # (4, n1, n2, n3)

    def __post_init__(self):
        # the one place that makes field storage contiguous
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (4,) + self.domain.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match domain "
                f"{(4,) + self.domain.shape}")

    @staticmethod
    def zeros(domain: VoxelDomain) -> "QField":
        return QField(domain, np.zeros((4,) + domain.shape))

    def copy(self) -> "QField":
        return QField(self.domain, self.values.copy())

    def is_pure(self, tol: float = 0.0) -> bool:
        return float(np.abs(self.values[0]).max(initial=0.0)) <= tol

    def __add__(self, other: "QField") -> "QField":
        _check_same(self, other)
        return QField(self.domain, self.values + other.values)

    def __sub__(self, other: "QField") -> "QField":
        _check_same(self, other)
        return QField(self.domain, self.values - other.values)

    def __mul__(self, a: float) -> "QField":
        return QField(self.domain, self.values * float(a))

    __rmul__ = __mul__

    def __neg__(self) -> "QField":
        return QField(self.domain, -self.values)


@dataclass
class BoundaryData:
    """Quaternion value per boundary face."""

    domain: VoxelDomain
    values: np.ndarray  # (M, 4)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.num_faces, 4):
            raise ValueError("boundary values must have one quaternion per face")

    @staticmethod
    def zeros(domain: VoxelDomain) -> "BoundaryData":
        return BoundaryData(domain, np.zeros((domain.num_faces, 4)))


def _check_same(u: QField, v: QField) -> None:
    if not u.domain.same_grid(v.domain):
        raise ValueError("fields live on different domains")


def l2_inner(u: QField, v: QField) -> Quaternion:
    """Quaternionic L2 inner product, midpoint quadrature of conj(u) v."""
    _check_same(u, v)
    prod = qmul_arr(conj_arr(u.values), v.values)
    return Quaternion.from_array(prod.sum(axis=(1, 2, 3)) * u.domain.cell_volume)


def sc_inner(u: QField, v: QField) -> float:
    """Scalar part of the L2 inner product (the real inner product)."""
    _check_same(u, v)
    # Sc(conj(u) v) = componentwise dot product
    return float((u.values * v.values).sum() * u.domain.cell_volume)


def l2_norm(u: QField) -> float:
    return float(np.sqrt((u.values**2).sum() * u.domain.cell_volume))


def _stride(vals: np.ndarray, axis: int) -> int:
    """The distance, in entries of the C-order flat buffer, between
    neighbours along `axis` of the last three axes of vals."""
    return math.prod(vals.shape[vals.ndim + axis - 2:])


def _first_live(vals: np.ndarray) -> int:
    """The first component of an array of components that a componentwise
    stencil must difference: 0 when component 0 has a nonzero entry, 1
    when it is identically zero (u, B and every other pure field), and
    len(vals) when no entry is live, every one being +0.0 (all bits zero,
    as in the zero state of a cold start). Skipping changes no bit of a
    stencil's or a product's result (quaternion._add_unit, finite values
    times +-0.0): each output accumulates from +0.0, which never reaches
    -0.0, and adding +-0.0 to any other value leaves it unchanged; an
    output written by a difference of +0.0 values (grad_bwd) is +0.0 too.
    A zero array holding a -0.0 entry returns 1 and is differenced."""
    if vals[0].any():
        return 0
    bits = vals.view(np.uint64)
    return 1 if bits[1:].any() or bits[0].any() else len(vals)


def _diff(vals: np.ndarray, axis: int, h: float, backward: bool = False,
          ghost: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Every one-sided difference: (v[k+1] - v[k]) / h along `axis` of the
    last three axes of vals (leading axes batched), placed at k (forward)
    or k + 1 (backward), into `out` (new if None; ValueError unless it is
    C-contiguous). The layer left over repeats its neighbour (the fallback
    rows of D+/D-) or, with `ghost`, differences a zero ghost value beyond
    the face.

    The differences are one subtraction over the flat C-order buffers:
    the neighbour of entry i along `axis` is entry i + s, s = _stride. The
    rows whose i + s wraps into the next line lie on the face layer that
    the edge rule then overwrites, so every entry sees the same operations
    as in a per-axis slice form, bit for bit."""
    if out is None:
        out = np.empty(vals.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("_diff writes into a C-contiguous out")
    s = _stride(vals, axis)
    f, g = vals.reshape(-1), out.reshape(-1)
    np.subtract(f[s:], f[:-s], out=g[s:] if backward else g[:-s])
    v, d = vals.swapaxes(0, axis - 3), out.swapaxes(0, axis - 3)
    if backward:
        d[0] = v[0] if ghost else d[1]
    elif ghost:
        np.subtract(0.0, v[-1], out=d[-1])  # +0.0 for v = +0.0
    else:
        d[-1] = d[-2]
    out /= h
    return out


def h1_norm(u: QField) -> float:
    """Sobolev H1 norm with forward differences, skipping what _first_live
    finds zero: component 0 or every entry. Each term adds its component
    sums as (s0 + s1) + (s2 + s3), which at even n is bit for bit the flat
    pairwise .sum() of all 4 n1 n2 n3 entries: it splits at the same
    quarters."""
    lo = _first_live(u.values)
    if lo == len(u.values):
        return 0.0
    live = u.values[lo:]
    sq = np.square(live)  # one buffer for every term's squares
    s = np.zeros((4, 4))  # (term, component) sums; s[:, :lo] stays 0
    s[0, lo:] = sq.sum(axis=(1, 2, 3))
    for ax in range(3):
        _diff(live, ax, u.domain.h, out=sq)
        s[ax + 1, lo:] = np.square(sq, out=sq).sum(axis=(1, 2, 3))
    terms = (s[:, 0] + s[:, 1]) + (s[:, 2] + s[:, 3])
    return float(np.sqrt(sum(terms.tolist()) * u.domain.cell_volume))


def lq_norm(u: QField, q: float = 1.25) -> float:
    """L^q norm; q restricted to (1, 3/2) or q = 2."""
    if not (1.0 < q < 1.5 or q == 2.0):
        raise ValueError("q must satisfy 1 < q < 3/2 (or q = 2)")
    mag = np.sqrt((u.values**2).sum(axis=0))
    return float((mag**q).sum() * u.domain.cell_volume) ** (1.0 / q)


def trace_boundary(u: QField) -> BoundaryData:
    """Sample the cell adjacent to each boundary face."""
    c = u.domain.face_cell
    return BoundaryData(u.domain, u.values[:, c[:, 0], c[:, 1], c[:, 2]].T.copy())


def zero_boundary(u: QField, width: int = 1) -> QField:
    """Zero the boundary collar of `width` cells (discrete membership in H^1
    with zero trace): u on _inner(width), +0.0 elsewhere."""
    inner = _inner(width)
    out = QField.zeros(u.domain)
    out.values[inner] = u.values[inner]
    return out
