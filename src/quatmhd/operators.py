"""Discrete quaternionic operators on voxel grids.

Differential operators
    dirac_fwd, dirac_bwd : staggered Dirac pair D+ and D-, adjoint to each
        other for interior-supported fields, with -D- D+ equal to the
        7-point Laplacian away from the faces
    dirac_central        : second-order Dirac operator used to verify the
        integral identities D(Tf) = f and Borel-Pompeiu, the same sum over
        the units with a centered difference on every component
    grad_bwd, div_fwd, curl_bwd : classical vector operators
    laplacian            : centered 7-point Laplacian, applied componentwise

The staggered pair. D+ = sum_j e_j d_j, where d_j takes a forward or a
backward difference along axis j depending on the component it acts on
(_BACKWARD); component by component D+ u = (-div+ u, grad+ u0 + curl- u).
D- is the same sum with the two differences swapped. The choice is the one
of the staggered (Yee, discrete exterior calculus) Hodge-Dirac operator
stored on cell arrays; it makes the cross terms e_i e_j of D- D+ cancel,
which a forward difference on every component does not. Each e_j acts
through quaternion._add_unit, as in the kernel products of T and F.

Every one-sided difference is grid._diff, forward or backward. The face
layer it leaves over repeats its neighbour in dirac_fwd/dirac_bwd (so
curl_bwd), grad_bwd and div_fwd, and differences a zero ghost value in
bergman_Q; pressure_S holds its ghost-zero differences inside per-axis
matrices (_grad_factors). The centered difference D^c and the second
difference of the Laplacian are m x m per-axis matrices (_stencil_matrix),
built once per (m, h) from their stencil rows, one-sided at the faces,
and applied by the kernel of the sine transforms, _along_axis: the
advections of mhd, dirac_central, laplacian and solvers.convection_norm
read the same matrices. _diff stays a stencil: one subtraction over the
flat C-order buffer, which at large n beats a matrix product. Every
stencil acts on the last three axes of its array, leading axes (the four
quaternion components, or a batch of them) batched. The Dirac operators,
laplacian and grad_bwd skip the components, or the whole array, that
grid._first_live finds identically zero, and div_fwd a whole array.

Integral operators (held by OperatorSet with the sine bases of its Poisson
solves, all built in its constructor)
    teodorescu       : volume potential T, FFT convolution with the Cauchy
        kernel x/(4*pi*|x|^3), sign calibrated so that D(Tf) = f; it and
        cauchy share one padded convolution, _kernel_convolve
    cauchy           : boundary potential F over the voxel faces, sign
        calibrated so that F reproduces constants; per face block (one box
        side) a batch of 2-D FFT convolutions over the tangential axes, one
        per normal layer of cells
    bergman_Q / bergman_P : orthogonal projection onto the range of D+ on
        zero-collar fields, and its complement. With ghost-zero differences
        the Gram of that D+ is the Dirichlet 7-point -Laplacian on each
        component, so Q = D+ L^-1 D- is two stencils around four DST-I
        Poisson solves
    pressure_S       : the pressure operator p -> Sc(Q(p e0)) on scalar
        arrays, sum_j A_j^T Lambda^-1 A_j with A_j the DST-I transform of
        the backward difference along axis j on the non-collar block:
        two passes of per-axis matrix products around one divide by the
        DST-I symbol, Q's scalar part to rounding (bergman_Q is its test
        oracle)
    poisson_dirichlet : cell-centered Poisson solve with a zero boundary
        collar, in the DST-I sine basis of the non-collar block; it is the
        composition T Q T of the solvers (see its docstring)
    poisson_faces    : Poisson solve with homogeneous Dirichlet faces
        (ghost anti-reflection), in the DST-II sine basis of the whole box
    lambda_min       : smallest Dirichlet eigenvalue, the smallest entry of
        the DST-II symbol of poisson_faces
    op_norm_TQT      : the operator norm of TQT = poisson_dirichlet, one
        over the smallest entry of its DST-I symbol

teodorescu, cauchy and bergman_P are the sampled continuum operators. They
serve the identity checks of verify and the acceptance criteria; neither
the constants nor any solver step applies them.

Both Poisson solves diagonalize the 7-point stencil in a sine basis. The
orthonormal 1-D basis matrices are built once per axis and applied along
the three axes as matrix products, so the solves need NumPy alone.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import (BoundaryData, QField, VoxelDomain, _diff, _face_blocks,
                   _first_live, _inner)
from .quaternion import _add_unit

__all__ = [
    "dirac_fwd",
    "dirac_bwd",
    "dirac_central",
    "grad_bwd",
    "div_fwd",
    "curl_bwd",
    "laplacian",
    "OperatorSet",
]

# Difference of D+ along axis j (row) on input component c (column):
# True backward, False forward. Each row is constant on the pairs of
# components that left multiplication by e_j swaps.
_BACKWARD = np.array([[0, 0, 1, 1],
                      [0, 1, 0, 1],
                      [0, 1, 1, 0]], dtype=bool)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _stencil_matrix(m: int, h: float, second: bool = False) -> np.ndarray:
    """The read-only m x m matrix of the centered difference along an axis
    of m >= 3 cells, rows [-1, 0, 1] / 2h, or with `second` of the second
    difference, rows [1, -2, 1] / h^2. The face rows are one-sided:
    [-3, 4, -1] / 2h and [1, -4, 3] / 2h, and [1, -2, 1] / h^2 on the
    three cells nearest the face. Built once per (m, h, second)."""
    S = np.zeros((m, m))
    k = np.arange(1, m - 1)
    if second:
        S[k, k - 1], S[k, k], S[k, k + 1] = 1.0, -2.0, 1.0
        S[0, :3] = S[-1, -3:] = 1.0, -2.0, 1.0
        S /= h**2
    else:
        S[k, k - 1], S[k, k + 1] = -1.0, 1.0
        S[0, :3], S[-1, -3:] = (-3.0, 4.0, -1.0), (1.0, -4.0, 3.0)
        S /= 2 * h
    S.setflags(write=False)
    return S


def _centered_matrix(shape, axis: int, h: float,
                     second: bool = False) -> np.ndarray:
    """_stencil_matrix along `axis` of the last three axes of an array of
    shape `shape`; ValueError unless that axis has the 3 cells a face row
    reads."""
    m = shape[axis - 3]
    if m < 3:
        raise ValueError(f"the face stencils read 3 cells per axis; axis "
                         f"{axis} has {m}")
    return _stencil_matrix(m, h, second)


def _staggered(vals: np.ndarray, h: float, flip: bool = False,
               ghost: bool = False, central: bool = False) -> np.ndarray:
    """sum_j e_j d_j vals. d_j is the one-sided _diff, backward on the
    components that _BACKWARD[j] marks and forward on the others, every
    choice swapped by `flip`; `ghost` selects its zero-ghost edge rule and
    `central` replaces it by the centered difference on every component
    (_centered_matrix). The choice is constant on the component pairs e_j
    swaps, so d_j commutes with the multiplication. With ghost-zero
    differences (backward = -forward^T, e_j^T = -e_j) the transpose of
    _staggered(., flip) is thus _staggered(., not flip). A component 0
    that is identically zero (a pure field) is not differenced, nor is an
    array with no live entry (grid._first_live)."""
    out = np.zeros_like(vals)
    lo = _first_live(vals)
    for j in range(3):
        _add_unit(out, j + 1, lambda c: (
            _along_axis(vals[c], _centered_matrix(vals.shape, j, h), j)
            if central else _diff(vals[c], j, h, _BACKWARD[j, c] != flip,
                                  ghost)), lo)
    return out


def dirac_fwd(u: QField) -> QField:
    """Staggered Dirac operator D+ = sum_j e_j d_j, the differences chosen
    per component by _BACKWARD, with one-sided fallback rows at the faces."""
    return QField(u.domain, _staggered(u.values, u.domain.h))


def dirac_bwd(u: QField) -> QField:
    """Staggered Dirac operator D-, the adjoint of D+: every difference
    choice of D+ flipped."""
    return QField(u.domain, _staggered(u.values, u.domain.h, flip=True))


def dirac_central(u: QField) -> QField:
    """Second-order centered Dirac operator sum_j e_j d_j, d_j the centered
    difference on every component."""
    return QField(u.domain, _staggered(u.values, u.domain.h, central=True))


def grad_bwd(u: QField) -> QField:
    """Backward-difference gradient of the scalar part, as a pure field;
    +0.0 without differencing when no entry of u is live (_first_live)."""
    out = np.zeros_like(u.values)
    if _first_live(u.values) == len(out):
        return QField(u.domain, out)
    for i in range(3):
        _diff(u.values[0], i, u.domain.h, backward=True, out=out[1 + i])
    return QField(u.domain, out)


def div_fwd(u: QField) -> np.ndarray:
    """Forward-difference divergence of the vector part, scalar array;
    +0.0 without differencing when no entry of u is live (_first_live)."""
    if _first_live(u.values) == len(u.values):
        return np.zeros(u.values.shape[1:])
    h = u.domain.h
    return sum(_diff(u.values[1 + i], i, h) for i in range(3))


def curl_bwd(u: QField) -> QField:
    """Backward-difference curl of the vector part v: the vector part of
    D+ v = (-div+ v, curl- v). Its backward (not forward) divergence
    vanishes away from the one-sided fallback layers."""
    v = u.values.copy()
    v[0] = 0.0
    out = _staggered(v, u.domain.h)
    out[0] = 0.0
    return QField(u.domain, out)


def laplacian(u: QField) -> QField:
    """Centered 7-point Laplacian applied to every component, with one-sided
    second-difference rows on the face layers: the sum over the axes of
    the second-difference matrices (_centered_matrix). A component 0 that
    is identically zero is not differenced, nor is an array with no live
    entry (_first_live)."""
    out = np.zeros(u.values.shape)
    lo = _first_live(u.values)
    if lo < len(out):
        v, h = u.values[lo:], u.domain.h
        for ax in range(3):
            out[lo:] += _along_axis(
                v, _centered_matrix(v.shape, ax, h, second=True), ax)
    return QField(u.domain, out)


# ---------------------------------------------------------------------------
# operator set
# ---------------------------------------------------------------------------

class OperatorSet:
    """Integral operators on one fixed domain.

    The sign conventions are calibrated once: sigma_T from the identity
    D(T f) = f, sigma_F from reproduction of constants by the Cauchy
    transform. On this grid orientation they come out opposite."""

    sigma_T = -1.0
    sigma_F = 1.0

    def __init__(self, domain: VoxelDomain):
        self.domain = domain
        # per-axis sine bases and stencil eigenvalues of the Poisson solves:
        # DST-I on the non-collar block, DST-II on the whole box
        n, h = np.asarray(domain.n), domain.h
        self._collar_bases = [_dst1(m) for m in n - 2]
        self._collar_symbol = _dirichlet_symbol(h, n - 2, n - 1)
        # the per-axis factors of the pressure operator (_grad_factors),
        # and, by axis, the two transposed stacks that _chain (axis 2) and
        # _chain_T (axis 1) multiply by, built contiguous
        self._grad_factors = [_grad_factors(B, a, h)
                              for a, B in enumerate(self._collar_bases)]
        self._grad_factors_T = {
            a: _grad_factors(self._collar_bases[a], a, h, transposed=True)
            for a in (1, 2)}
        self._face_bases = [_dst2(m) for m in n]
        self._face_symbol = _dirichlet_symbol(h, n, n)

    # -- Teodorescu -------------------------------------------------------

    def teodorescu(self, f: QField) -> QField:
        """Volume potential T f, a right inverse of the Dirac operator."""
        self._check(f)
        n, h = self.domain.n, self.domain.h
        return QField(self.domain, _kernel_convolve(
            [_wrapped(m) * h for m in n], self.sigma_T / (4.0 * np.pi) * h**3,
            f.values, (0, 1, 2)))

    # -- Cauchy -----------------------------------------------------------

    def cauchy(self, g: BoundaryData) -> QField:
        """Boundary potential F g evaluated at the cell centers.

        The faces come in the blocks of grid._face_blocks, one per box side
        (axis, side), a block's faces those of normal (2 side - 1) e_axis.
        From a cell center to a face midpoint of one block the offset is
        (i + 1/2 - side * n_axis) h along the normal and a whole number of
        cells along the tangential axes, so the block's share of F is, for
        every normal layer i, a 2-D convolution over them done by FFT."""
        if not isinstance(g, BoundaryData):
            raise TypeError("cauchy expects BoundaryData")
        self._check(g)
        dom = self.domain
        n, h = dom.n, dom.h
        ng = np.zeros((4, len(g.values)))  # normal * g, (4, M)
        for j, nj in enumerate(dom.face_normal.T, 1):
            _add_unit(ng, j, lambda c: nj * g.values[:, c])
        scale = self.sigma_F / (4.0 * np.pi) * dom.face_area
        out = np.zeros((4,) + dom.shape)
        for ax, side, shape in _face_blocks(n):
            faces = dom.face_normal[:, ax] == 2 * side - 1
            offsets = [_wrapped(m) * h for m in n]
            offsets[ax] = (np.arange(n[ax]) + 0.5 - side * n[ax]) * h
            out += _kernel_convolve(offsets, scale,
                                    ng[:, faces].reshape((4,) + shape),
                                    tuple(a for a in range(3) if a != ax))
        return QField(dom, out)

    # -- Poisson / eigenvalues --------------------------------------------

    def poisson_scalar(self, rhs: np.ndarray) -> np.ndarray:
        """Solve -Lap u = rhs on the non-collar cells, zero in the collar,
        over the last three axes of rhs, leading axes batched.

        The DST-I sine modes of the (n-2)^3 non-collar block vanish on the
        collar and diagonalize the 7-point stencil there."""
        return self._collar_solve(rhs, 1)

    def _collar_solve(self, rhs: np.ndarray, power: int) -> np.ndarray:
        """L^-power rhs, L the collar-Dirichlet -Lap of poisson_scalar, in
        one DST-I pair on the non-collar block (_sine_solve). power = 2 is
        poisson_scalar applied twice to rounding, without the inverse and
        forward transforms between the two solves."""
        out = np.zeros(rhs.shape)
        inner = _inner()
        if out[inner].size:  # an axis of two cells leaves no non-collar cell
            out[inner] = _sine_solve(rhs[inner], self._collar_bases,
                                     self._collar_symbol, power)
        return out

    def poisson_dirichlet(self, rhs: QField) -> QField:
        """Componentwise solve of laplacian(w) = -rhs with a zero boundary
        collar; the stencil equation holds on the non-collar cells. The
        live components (_first_live) are solved in one batch, the others
        left +0.0: three for a pure rhs, none when no entry is live.

        This is the composition T Q T of the integral form. With G the
        lattice Green function of the 7-point -Lap_h and A f = h^2 G*f on
        the box plus one ghost layer, T+ = D- A is a right inverse of D+
        and T- = D+ A one of D-. Q = D+_gz L^-1 D-_gz, _gz for ghost-zero
        differences. On the non-collar cells D-_gz reads only box cells
        and D- D+ = -Lap_h, so Q T- f = D+_gz L^-1 f. L^-1 f vanishes on
        the collar, so D+_gz of it is the exact D+ of its zero extension,
        and convolution commutes with differences: T+ Q T- = L^-1. This
        is the discrete form of TQT = (-Lap)^-1; the tests check it to
        rounding against T+ and T- built from G."""
        self._check(rhs)
        out = np.zeros(rhs.values.shape)
        lo = _first_live(rhs.values)
        if lo < len(out):
            out[lo:] = self.poisson_scalar(rhs.values[lo:])
        return QField(self.domain, out)

    def poisson_faces(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the cell-centered -Lap w = rhs with zero Dirichlet data on
        the box faces (ghost anti-reflection), over the last three axes of
        rhs, leading axes batched.

        The DST-II half-shifted sine modes sin(pi k (j + 1/2) / n) are odd
        about every face, so they diagonalize the stencil with ghost -u."""
        return _sine_solve(rhs, self._face_bases, self._face_symbol)

    def lambda_min(self) -> float:
        """Smallest eigenvalue of the cell-centered Dirichlet Laplacian
        (zero values on the box faces, ghost anti-reflection): the smallest
        entry of the DST-II symbol that poisson_faces divides by, the sum
        over the axes of (4/h^2) sin^2(pi/(2 n_axis)). The continuum limit
        is 3*pi^2 on the unit cube."""
        return float(self._face_symbol.min())

    # -- Bergman projection -------------------------------------------------

    def bergman_Q(self, f: QField) -> QField:
        """Orthogonal projection onto the range of D+ over zero-collar fields
        (the discrete gradient-like subspace): Q = phi G^-1 phi^T, phi
        being D+ with ghost-zero differences on zero-collar fields. Its
        Gram phi^T phi is the Dirichlet 7-point -Laplacian on the
        non-collar cells, componentwise, so G^-1 is poisson_dirichlet and
        phi^T is the ghost-zero D-."""
        self._check(f)
        h = self.domain.h
        rhs = QField(self.domain, _staggered(f.values, h, flip=True,
                                             ghost=True))
        w = self.poisson_dirichlet(rhs).values
        return QField(self.domain, _staggered(w, h, ghost=True))

    def pressure_S(self, p: np.ndarray) -> np.ndarray:
        """Sc(Q(p e0)) for a scalar array p of the domain's shape, the
        pressure operator, computing only what that scalar needs.

        e_j moves component 0 to component j + 1 (quaternion.UNIT_MUL), and
        _BACKWARD[j, 0] and _BACKWARD[j, j + 1] are False. So the
        ghost-zero D- of p e0 is the pure field (0, grad- p), backward
        differences, and row 0 of the ghost-zero D+ of a field w is
        -div+ of its vector part: S = -sum_j d+_j L^-1 d-_j. The collar
        solve is L^-1 = R^T Phi Lambda^-1 Phi R (R the restriction to the
        non-collar cells, Phi the symmetric DST-I of _collar_bases) and
        the ghost-zero -d+_j is the transpose of d-_j, so
        S = sum_j A_j^T Lambda^-1 A_j with A_j = Phi R d-_j. A_j is a
        product of per-axis factors (_grad_factors), so an apply is two
        passes of three matrix products (_chain, _chain_T) around one
        divide by the symbol. It equals bergman_Q(p e0).values[0] to
        rounding."""
        y = _chain(p, self._grad_factors, self._grad_factors_T[2])
        y /= self._collar_symbol
        return _chain_T(y, self._grad_factors, self._grad_factors_T[1])

    def _sc_dirac_solve(self, g: np.ndarray) -> np.ndarray:
        """Sc(D+_gz L^-1 v) for a field v with vector components g, shape
        (3,) + the domain's; row 0 of D+ reads no scalar part. That is the
        ghost-zero -div+ of the three collar solves of g: sum_j A_j^T
        Lambda^-1 Phi R g_j in the notation of pressure_S, the sine
        transform of the non-collar block of g followed by pressure_S's
        second pass."""
        y = g[_inner()]
        if y.size:  # an axis of two cells leaves no non-collar cell
            y = _along_axes(y, self._collar_bases)
        return _chain_T(y / self._collar_symbol, self._grad_factors,
                        self._grad_factors_T[1])

    def bergman_P(self, f: QField) -> QField:
        """Complementary (Bergman) projection P = I - Q; its range contains
        the discrete monogenic fields."""
        return f - self.bergman_Q(f)

    # -- the solvers' composition ------------------------------------------

    def op_norm_TQT(self) -> float:
        """L2 operator norm of TQT = poisson_dirichlet: one over the
        smallest entry of its DST-I symbol, or 0.0 when no cell lies
        outside the collar (the solve is then zero)."""
        sym = self._collar_symbol
        return 1.0 / float(sym.min()) if sym.size else 0.0

    def _check(self, f: QField) -> None:
        if not f.domain.same_grid(self.domain):
            raise ValueError("field domain does not match operator set")


def _wrapped(m: int) -> np.ndarray:
    """Cell offsets 0..m-1, -m..-1 in FFT order on a grid padded to 2m, so
    that a circular convolution of length 2m is linear over m cells."""
    return np.fft.fftfreq(2 * m, d=1.0 / (2 * m)).astype(int)


def _kernel(offsets, scale: float) -> list[np.ndarray]:
    """The three components of scale * x/|x|^3 on the grid spanned by the
    per-axis offsets, zero at x = 0."""
    D = np.meshgrid(*offsets, indexing="ij")
    r3 = (D[0]**2 + D[1]**2 + D[2]**2) ** 1.5
    with np.errstate(divide="ignore", invalid="ignore"):
        return [scale * np.where(r3 > 0, Di / r3, 0.0) for Di in D]


def _kernel_convolve(offsets, scale: float, f, axes) -> np.ndarray:
    """The four components of the convolution pure(K) * f over `axes`, K
    the kernel _kernel(offsets, scale). Along each axis in `axes` the
    offsets are _wrapped, of length 2m, and f has m cells: kernel and f
    are transformed on that doubled grid, where the circular convolution
    is linear, and the inverse is cropped to its leading m entries. Along
    any other axis kernel and f broadcast."""
    pad = [len(offsets[a]) for a in axes]
    crop = tuple(slice(len(o) // 2) if a in axes else slice(None)
                 for a, o in enumerate(offsets))
    Kh = [np.fft.rfftn(Ki, s=pad, axes=axes) for Ki in _kernel(offsets, scale)]
    fh = [np.fft.rfftn(fc, s=pad, axes=axes) for fc in f]
    prod = np.zeros((4,) + np.broadcast(Kh[0], fh[0]).shape, complex)
    for j, Kj in enumerate(Kh, 1):
        _add_unit(prod, j, lambda c: Kj * fh[c])
    return np.stack([np.fft.irfftn(c, s=pad, axes=axes)[crop] for c in prod])


def _dst1(m: int) -> np.ndarray:
    """Orthonormal DST-I matrix of size m (period m + 1), its own inverse:
    row k - 1 is the sine mode sin(pi k j / (m + 1)), j = 1..m."""
    k = np.arange(1, m + 1)
    return np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))


def _dst2(m: int) -> np.ndarray:
    """Orthonormal DST-II matrix of size m (inverse: its transpose): row
    k - 1 is the mode sin(pi k (j + 1/2) / m), j = 0..m-1, the last row
    divided by sqrt(2)."""
    k = np.arange(1, m + 1)
    B = np.sqrt(2.0 / m) * np.sin(np.pi * np.outer(k, np.arange(m) + 0.5) / m)
    B[-1] /= np.sqrt(2.0)
    return B


def _along_axes(x: np.ndarray, mats) -> np.ndarray:
    """mats[a] applied along axis a of the last three axes of x, leading
    axes batched (_along_axis)."""
    for a, M in enumerate(mats):
        x = _along_axis(x, M, a)
    return x


def _along_axis(x: np.ndarray, M: np.ndarray, axis: int) -> np.ndarray:
    """M applied along `axis` of the last three axes of x, leading axes
    batched: a matmul batched over the leading axes for axis 0, and over
    those and axis 0 for axis 1, and one GEMM from the right for axis 2."""
    shape = list(x.shape)
    m0, m1, m2 = shape[-3:]
    if axis == 0:
        y = M @ x.reshape(-1, m0, m1 * m2)
    elif axis == 1:
        y = M @ x.reshape(-1, m1, m2)
    else:
        y = x.reshape(-1, m2) @ M.T
    shape[axis - 3] = len(M)
    return y.reshape(shape)


def _grad_factors(B: np.ndarray, axis: int, h: float,
                  transposed: bool = False) -> np.ndarray:
    """The factors along `axis` of the pressure operator's A_j = Phi R d-_j
    (OperatorSet.pressure_S), as a (3, m, m + 2) stack for the m x m DST-I
    matrix B of that axis: row j is B times the ghost-zero backward
    difference restricted to cells 1..m when j == axis, and B times that
    restriction otherwise. Rows 1..m of the difference read no ghost
    value. `transposed` gives the (3, m + 2, m) stack of their transposes,
    contiguous, as the products R^T B and ((R - E)/h)^T B: B is symmetric,
    and each entry is the same sum of at most two nonzero terms, so the
    stack equals the transposed view bit for bit."""
    m = len(B)
    R = np.eye(m, m + 2, k=1)
    D = (R - np.eye(m, m + 2)) / h
    if transposed:
        out = np.empty((3, m + 2, m))
        out[:] = R.T @ B
        out[axis] = D.T @ B
    else:
        out = np.empty((3, m, m + 2))
        out[:] = B @ R
        out[axis] = B @ D
    return out


def _chain(x: np.ndarray, mats, last_T: np.ndarray) -> np.ndarray:
    """The stack of A_j x, j = 0, 1, 2, for a scalar array x of shape
    (n0, n1, n2): mats[a][j], of shape (m_a, n_a), applied along axis a,
    the last axis by last_T, the contiguous stack of mats[2]'s transposes.
    Returns shape (3, m0, m1, m2); the j = 0..2 products of the first axis
    are one GEMM."""
    (m0, n0), (m1, n1), (m2, n2) = (c.shape[1:] for c in mats)
    y = mats[0].reshape(3 * m0, n0) @ x.reshape(n0, n1 * n2)
    y = mats[1][:, None] @ y.reshape(3, m0, n1, n2)
    y = y.reshape(3, m0 * m1, n2) @ last_T
    return y.reshape(3, m0, m1, m2)


def _chain_T(y: np.ndarray, mats, mid_T: np.ndarray) -> np.ndarray:
    """sum_j A_j^T y[j], the transpose of _chain, with mid_T the contiguous
    stack of mats[1]'s transposes: the sum over j is the inner dimension
    of the last GEMM."""
    (m0, n0), (m1, n1), (m2, n2) = (c.shape[1:] for c in mats)
    x = y.reshape(3, m0 * m1, m2) @ mats[2]
    x = mid_T[:, None] @ x.reshape(3, m0, m1, n2)
    x = mats[0].reshape(3 * m0, n0).T @ x.reshape(3 * m0, n1 * n2)
    return x.reshape(n0, n1, n2)


def _sine_solve(rhs: np.ndarray, bases, symbol: np.ndarray,
                power: int = 1) -> np.ndarray:
    """Solve a stencil system that the orthonormal sine bases diagonalize
    with eigenvalues `symbol`, `power` times over, over the last three
    axes of rhs: the forward transform, `power` in-place divides by the
    symbol (_divided) and the inverse transform. The coefficients pass
    from call to call without a local name, so each block is freed as
    soon as the next product has read it."""
    return _along_axes(_divided(_along_axes(rhs, bases), symbol, power),
                       [B.T for B in bases])


def _divided(y: np.ndarray, symbol: np.ndarray, power: int) -> np.ndarray:
    """y divided `power` times by symbol, in place; returns y."""
    for _ in range(power):
        y /= symbol
    return y


def _dirichlet_symbol(h: float, sizes, periods) -> np.ndarray:
    """Eigenvalues of the 7-point -Laplacian in a sine basis, an array of
    shape `sizes`: the sum over the axes of (4/h^2) sin^2(pi k / (2 p)),
    k = 1..sizes[axis], p = periods[axis]."""
    lam = [(4.0 / h**2) * np.sin(np.pi * np.arange(1, m + 1) / (2 * p)) ** 2
           for m, p in zip(sizes, periods)]
    return lam[0][:, None, None] + lam[1][None, :, None] + lam[2][None, None, :]
