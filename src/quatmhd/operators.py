"""Discrete quaternionic operators on voxel grids.

Differential operators
    dirac_fwd, dirac_bwd : one-sided Dirac operators D+ and D-, adjoint to
        each other for interior-supported fields
    dirac_central        : second-order Dirac operator used to verify the
        integral identities D(Tf) = f and Borel-Pompeiu
    grad_bwd, div_fwd, curl_bwd : classical vector operators
    laplacian            : centered 7-point Laplacian, applied componentwise

Integral operators (held by OperatorSet, which caches FFT kernels and
sparse factorizations per domain)
    teodorescu       : volume potential T, FFT convolution with the Cauchy
        kernel x/(4*pi*|x|^3), sign calibrated so that D(Tf) = f
    cauchy           : boundary potential F over the voxel faces, sign
        calibrated so that F reproduces constants
    bergman_Q / bergman_P : orthogonal projection onto the range of D+ on
        zero-collar fields, and its complement. The Gram of D+ is factored
        in complex 2x2 form (quaternion.chi): exact, because each of its
        4x4 blocks is a left quaternion multiplication
    poisson_dirichlet : SPD cell-centered Poisson solve with a zero
        boundary collar
    poisson_faces    : Poisson solve with homogeneous Dirichlet faces
        (ghost anti-reflection)
    lambda_min       : smallest Dirichlet eigenvalue, inverse power iteration
    op_norm_TQT      : operator norm of the self-adjoint composition T Q T
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .grid import QField, VoxelDomain, l2_norm, sc_inner
from .quaternion import LEFT_MUL, chi, from_cpair, qmul_arr, to_cpair

__all__ = [
    "dirac_fwd",
    "dirac_bwd",
    "dirac_central",
    "grad_bwd",
    "div_fwd",
    "curl_bwd",
    "laplacian",
    "OperatorSet",
    "operator_set",
    "teodorescu",
    "cauchy",
    "bergman_Q",
    "bergman_P",
    "poisson_dirichlet",
    "lambda_min",
    "op_norm_TQT",
]

_E = np.eye(4)[1:]  # imaginary units e1, e2, e3 as 4-vectors


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def _dfwd(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Forward difference; backward fallback on the last layer."""
    out = (np.roll(vals, -1, axis=axis) - vals) / h
    sl = [slice(None)] * vals.ndim
    sl[axis] = -1
    out[tuple(sl)] = (vals[tuple(sl)] - np.take(vals, -2, axis=axis)) / h
    return out


def _dbwd(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Backward difference; forward fallback on the first layer."""
    out = (vals - np.roll(vals, 1, axis=axis)) / h
    sl = [slice(None)] * vals.ndim
    sl[axis] = 0
    out[tuple(sl)] = (np.take(vals, 1, axis=axis) - vals[tuple(sl)]) / h
    return out


def _dcen(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered difference; one-sided second-order stencils at the faces."""
    out = (np.roll(vals, -1, axis=axis) - np.roll(vals, 1, axis=axis)) / (2 * h)
    first = [slice(None)] * vals.ndim
    last = [slice(None)] * vals.ndim
    first[axis] = 0
    last[axis] = -1
    t = lambda k: np.take(vals, k, axis=axis)
    out[tuple(first)] = (-3 * t(0) + 4 * t(1) - t(2)) / (2 * h)
    out[tuple(last)] = (3 * t(-1) - 4 * t(-2) + t(-3)) / (2 * h)
    return out


def _dirac(u: QField, diff) -> QField:
    h = u.domain.h
    out = np.zeros_like(u.values)
    for i in range(3):
        out += qmul_arr(_E[i], diff(u.values, i, h))
    return QField(u.domain, out)


def dirac_fwd(u: QField) -> QField:
    """Forward-difference Dirac operator D+ = sum_i e_i d_i^+."""
    return _dirac(u, _dfwd)


def dirac_bwd(u: QField) -> QField:
    """Backward-difference Dirac operator D-, the adjoint of D+."""
    return _dirac(u, _dbwd)


def dirac_central(u: QField) -> QField:
    """Second-order centered Dirac operator."""
    return _dirac(u, _dcen)


def grad_bwd(u: QField) -> QField:
    """Backward-difference gradient of the scalar part, as a pure field."""
    h = u.domain.h
    out = np.zeros_like(u.values)
    for i in range(3):
        out[..., 1 + i] = _dbwd(u.values[..., 0], i, h)
    return QField(u.domain, out)


def div_fwd(u: QField) -> np.ndarray:
    """Forward-difference divergence of the vector part, scalar array."""
    h = u.domain.h
    return sum(_dfwd(u.values[..., 1 + i], i, h) for i in range(3))


def curl_bwd(u: QField) -> QField:
    """Backward-difference curl of the vector part; div_fwd(curl_bwd) = 0
    away from the one-sided fallback layers."""
    h = u.domain.h
    v = u.values
    d = lambda c, ax: _dbwd(v[..., 1 + c], ax, h)
    out = np.zeros_like(v)
    out[..., 1] = d(2, 1) - d(1, 2)
    out[..., 2] = d(0, 2) - d(2, 0)
    out[..., 3] = d(1, 0) - d(0, 1)
    return QField(u.domain, out)


def laplacian(u: QField) -> QField:
    """Centered 7-point Laplacian applied to every component, with one-sided
    second-difference stencils on the face layers."""
    return QField(u.domain, _lap_interior(u.values, u.domain.h**2))


def _lap_interior(v: np.ndarray, h2: float) -> np.ndarray:
    out = np.zeros_like(v)
    for ax in range(3):
        second = np.zeros_like(v)
        t = lambda k: np.take(v, k, axis=ax)
        n = v.shape[ax]
        core = [slice(None)] * 4
        core[ax] = slice(1, n - 1)
        up = [slice(None)] * 4
        up[ax] = slice(2, n)
        dn = [slice(None)] * 4
        dn[ax] = slice(0, n - 2)
        second[tuple(core)] = v[tuple(up)] - 2 * v[tuple(core)] + v[tuple(dn)]
        first = [slice(None)] * 4
        first[ax] = 0
        last = [slice(None)] * 4
        last[ax] = -1
        second[tuple(first)] = t(0) - 2 * t(1) + t(2)
        second[tuple(last)] = t(-1) - 2 * t(-2) + t(-3)
        out += second / h2
    return out


# ---------------------------------------------------------------------------
# sparse builders (cell-major flattening, quaternion component innermost)
# ---------------------------------------------------------------------------

def _diff1d(n: int, h: float, kind: str) -> sparse.csr_matrix:
    """1D difference matrix matching _dfwd/_dbwd including the fallback row."""
    main = -np.ones(n)
    if kind == "fwd":
        m = sparse.diags([main, np.ones(n - 1)], [0, 1], format="lil")
        m[n - 1, n - 1] = 1.0
        m[n - 1, n - 2] = -1.0
    elif kind == "bwd":
        m = sparse.diags([-np.ones(n - 1), np.ones(n)], [-1, 0], format="lil")
        m[0, 0] = -1.0
        m[0, 1] = 1.0
    else:
        raise ValueError(kind)
    return sparse.csr_matrix(m) / h


def _axis_op(domain: VoxelDomain, axis: int, kind: str) -> sparse.csr_matrix:
    """Difference along one axis as an operator on flattened cell indices."""
    n1, n2, n3 = domain.n
    mats = [sparse.identity(n1), sparse.identity(n2), sparse.identity(n3)]
    mats[axis] = _diff1d(domain.n[axis], domain.h, kind)
    return sparse.csr_matrix(sparse.kron(sparse.kron(mats[0], mats[1]), mats[2]))


def _dirac_kron(domain: VoxelDomain, units) -> sparse.csr_matrix:
    """sum_i d_i^+ (x) units[i] on cell-major flattened fields, with the
    components acted on by the unit blocks innermost."""
    return sparse.csr_matrix(sum(
        sparse.kron(_axis_op(domain, i, "fwd"), sparse.csr_matrix(units[i]))
        for i in range(3)))


def dirac_fwd_matrix(domain: VoxelDomain) -> sparse.csr_matrix:
    """Sparse matrix of dirac_fwd on cell-major flattened quaternion fields."""
    return _dirac_kron(domain, LEFT_MUL[1:])


def _poisson_matrix_faces(domain: VoxelDomain) -> sparse.csr_matrix:
    """SPD cell-centered -Laplacian with zero Dirichlet data on the faces.

    The ghost value behind each face is the anti-reflection -u of the first
    cell, so the first and last diagonal entries per axis are 3/h^2."""
    h2 = domain.h**2

    def m1(n):
        d = np.full(n, 2.0)
        d[0] = d[-1] = 3.0
        return sparse.diags([-np.ones(n - 1), d, -np.ones(n - 1)], [-1, 0, 1]) / h2

    n1, n2, n3 = domain.n
    I1, I2, I3 = (sparse.identity(k) for k in (n1, n2, n3))
    A = (sparse.kron(sparse.kron(m1(n1), I2), I3)
         + sparse.kron(sparse.kron(I1, m1(n2)), I3)
         + sparse.kron(sparse.kron(I1, I2), m1(n3)))
    return sparse.csr_matrix(A)


def _poisson_matrix_collar(domain: VoxelDomain) -> tuple[sparse.csc_matrix, np.ndarray]:
    """7-point -Laplacian on non-collar cells with zero values in the collar.

    Returns the SPD matrix and the flat indices of the interior cells."""
    h2 = domain.h**2
    mask = ~domain.collar_mask(1)
    idx = np.flatnonzero(mask.ravel())
    pos = -np.ones(domain.num_cells, dtype=int)
    pos[idx] = np.arange(idx.size)
    n1, n2, n3 = domain.n
    strides = (n2 * n3, n3, 1)
    rows, cols, vals = [], [], []
    for p, flat in enumerate(idx):
        rows.append(p)
        cols.append(p)
        vals.append(6.0 / h2)
        for ax in range(3):
            for s in (-1, 1):
                nb = flat + s * strides[ax]
                q = pos[nb]
                if q >= 0:
                    rows.append(p)
                    cols.append(q)
                    vals.append(-1.0 / h2)
    A = sparse.csc_matrix((vals, (rows, cols)), shape=(idx.size, idx.size))
    return A, idx


# ---------------------------------------------------------------------------
# operator set with cached kernels and factorizations
# ---------------------------------------------------------------------------

class OperatorSet:
    """Integral operators on one fixed domain.

    FFT kernels and sparse LU factorizations are built lazily and reused.
    The sign conventions are calibrated once: sigma_T from the identity
    D(T f) = f, sigma_F from reproduction of constants by the Cauchy
    transform. On this grid orientation they come out opposite."""

    sigma_T = -1.0
    sigma_F = 1.0

    def __init__(self, domain: VoxelDomain):
        self.domain = domain
        self._khat = None          # rfftn of the three kernel components
        self._lu_faces = None      # ghost-Dirichlet Poisson factorization
        self._lu_collar = None     # collar-Dirichlet Poisson factorization
        self._collar_idx = None
        self._lu_gram = None       # Bergman Gram factorization (complex)
        self._phi = None           # D+ on zero-collar columns, complex pairs
        self._phi_h = None         # its conjugate transpose

    # -- Teodorescu -------------------------------------------------------

    def _kernel_fft(self):
        if self._khat is not None:
            return self._khat
        n1, n2, n3 = self.domain.n
        h = self.domain.h
        pad = (2 * n1, 2 * n2, 2 * n3)
        offs = [np.fft.fftfreq(2 * m, d=1.0 / (2 * m)).astype(int) for m in (n1, n2, n3)]
        D1, D2, D3 = np.meshgrid(*[o * h for o in offs], indexing="ij")
        r3 = (D1**2 + D2**2 + D3**2) ** 1.5
        with np.errstate(divide="ignore", invalid="ignore"):
            K = [np.where(r3 > 0, D / r3, 0.0) for D in (D1, D2, D3)]
        scale = self.sigma_T / (4.0 * np.pi) * h**3
        self._khat = [np.fft.rfftn(scale * Ki, s=pad, axes=(0, 1, 2)) for Ki in K]
        return self._khat

    def teodorescu(self, f: QField) -> QField:
        """Volume potential T f, a right inverse of the Dirac operator."""
        self._check(f)
        n1, n2, n3 = self.domain.n
        pad = (2 * n1, 2 * n2, 2 * n3)
        K1, K2, K3 = self._kernel_fft()
        fh = [np.fft.rfftn(f.values[..., c], s=pad, axes=(0, 1, 2)) for c in range(4)]
        f0, f1, f2, f3 = fh
        conv = [
            -(K1 * f1 + K2 * f2 + K3 * f3),
            K1 * f0 + K2 * f3 - K3 * f2,
            K2 * f0 + K3 * f1 - K1 * f3,
            K3 * f0 + K1 * f2 - K2 * f1,
        ]
        out = np.stack(
            [np.fft.irfftn(c, s=pad, axes=(0, 1, 2))[:n1, :n2, :n3] for c in conv],
            axis=-1)
        return QField(self.domain, out)

    # -- Cauchy -----------------------------------------------------------

    def cauchy(self, g) -> QField:
        """Boundary potential F g evaluated at the cell centers."""
        from .grid import BoundaryData
        if not isinstance(g, BoundaryData):
            raise TypeError("cauchy expects BoundaryData")
        dom = self.domain
        x = dom.cell_centers().reshape(-1, 3)
        y = dom.face_center
        ng = qmul_arr(_pure(dom.face_normal), g.values)  # (M, 4)
        out = np.zeros((x.shape[0], 4))
        chunk = max(1, int(4e7) // y.shape[0])
        for a in range(0, x.shape[0], chunk):
            d = x[a:a + chunk, None, :] - y[None, :, :]        # (c, M, 3)
            r3 = (d**2).sum(-1) ** 1.5
            k = np.zeros(d.shape[:2] + (4,))
            k[..., 1:] = d / r3[..., None]
            out[a:a + chunk] = qmul_arr(k, ng[None]).sum(axis=1)
        out *= self.sigma_F / (4.0 * np.pi) * dom.face_area
        return QField(dom, out.reshape(dom.shape + (4,)))

    # -- Poisson / eigenvalues --------------------------------------------

    def poisson_scalar(self, rhs: np.ndarray) -> np.ndarray:
        """Solve -Lap u = rhs on the non-collar cells, zero in the collar."""
        rhs = np.asarray(rhs, dtype=float)
        if self._lu_collar is None:
            A, idx = _poisson_matrix_collar(self.domain)
            self._lu_collar = splu(A)
            self._collar_idx = idx
        out = np.zeros(self.domain.num_cells)
        out[self._collar_idx] = self._lu_collar.solve(rhs.ravel()[self._collar_idx])
        return out.reshape(self.domain.shape)

    def poisson_dirichlet(self, rhs: QField) -> QField:
        """Componentwise solve of laplacian(w) = -rhs with a zero boundary
        collar; the stencil equation holds on the non-collar cells."""
        self._check(rhs)
        out = np.stack(
            [self.poisson_scalar(rhs.values[..., c]) for c in range(4)], axis=-1)
        return QField(self.domain, out)

    def poisson_faces(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the cell-centered -Lap w = rhs with zero Dirichlet data on
        the box faces (ghost anti-reflection); flat cell-major arrays."""
        if self._lu_faces is None:
            self._lu_faces = splu(sparse.csc_matrix(
                _poisson_matrix_faces(self.domain)))
        return self._lu_faces.solve(rhs)

    def lambda_min(self, tol: float = 1e-10, maxit: int = 500) -> float:
        """Smallest eigenvalue of the cell-centered Dirichlet Laplacian
        (zero values on the box faces, ghost anti-reflection), by inverse
        power iteration; the continuum limit is 3*pi^2 on the unit cube."""
        rng = np.random.default_rng(0)
        v = rng.standard_normal(self.domain.num_cells)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(maxit):
            w = self.poisson_faces(v)
            nw = np.linalg.norm(w)
            lam_new = 1.0 / nw
            v = w / nw
            if abs(lam_new - lam) < tol * max(1.0, lam_new):
                break
            lam = lam_new
        # Rayleigh quotient at the converged vector
        A = _poisson_matrix_faces(self.domain)
        return float(v @ (A @ v))

    # -- Bergman projection -------------------------------------------------

    def _gram(self):
        """D+ on zero-collar columns in complex pair form (phi), its
        adjoint, and the LU of the Hermitian Gram phi^H phi. The real Gram
        has left quaternion multiplications as 4x4 blocks, so this complex
        form is exact with half the unknowns."""
        if self._lu_gram is None:
            dom = self.domain
            keep = np.repeat(~dom.collar_mask(1).ravel(), 2)
            phi = sparse.csc_matrix(_dirac_kron(dom, chi(_E))[:, keep])
            self._phi = phi
            self._phi_h = sparse.csr_matrix(phi.conj().T)
            self._lu_gram = splu(sparse.csc_matrix(self._phi_h @ phi))
        return self._phi, self._phi_h, self._lu_gram

    def bergman_Q(self, f: QField) -> QField:
        """Orthogonal projection onto the range of D+ over zero-collar fields
        (the discrete gradient-like subspace)."""
        self._check(f)
        phi, phi_h, lu = self._gram()
        q = phi @ lu.solve(phi_h @ to_cpair(f.values).ravel())
        return QField(self.domain,
                      from_cpair(q.reshape(self.domain.shape + (2,))))

    def bergman_P(self, f: QField) -> QField:
        """Complementary (Bergman) projection P = I - Q; its range contains
        the discrete monogenic fields."""
        return f - self.bergman_Q(f)

    # -- composed operator norms --------------------------------------------

    def TQT(self, f: QField) -> QField:
        return self.teodorescu(self.bergman_Q(self.teodorescu(f)))

    def op_norm_TQT(self, tol: float = 1e-8, maxit: int = 300, seed: int = 0) -> float:
        """L2 operator norm of T Q T by power iteration (the composition is
        self-adjoint, so the norm equals the dominant eigenvalue). The
        estimate is checked against the bound 1/lambda_min with 10% slack."""
        rng = np.random.default_rng(seed)
        v = QField(self.domain, rng.standard_normal(self.domain.shape + (4,)))
        v = (1.0 / l2_norm(v)) * v
        lam = 0.0
        for _ in range(maxit):
            w = self.TQT(v)
            nw = l2_norm(w)
            if nw == 0.0:
                return 0.0
            v = (1.0 / nw) * w
            if abs(nw - lam) < tol * max(1.0, nw):
                break
            lam = nw
        k = float(abs(sc_inner(v, self.TQT(v))))
        bound = 1.1 / self.lambda_min()
        if k > bound:
            raise RuntimeError(
                f"||TQT|| = {k:.6g} exceeds 1.1/lambda_min = {bound:.6g}")
        return k

    def _check(self, f: QField) -> None:
        if not f.domain.same_grid(self.domain):
            raise ValueError("field domain does not match operator set")


def _pure(vec: np.ndarray) -> np.ndarray:
    out = np.zeros(vec.shape[:-1] + (4,))
    out[..., 1:] = vec
    return out


_CACHE: dict[tuple, OperatorSet] = {}


def operator_set(domain: VoxelDomain) -> OperatorSet:
    """Shared per-domain OperatorSet (caches FFT kernels and factorizations)."""
    key = (domain.n, round(domain.h, 15), tuple(np.round(domain.origin, 15)))
    ops = _CACHE.get(key)
    if ops is None or not ops.domain.same_grid(domain):
        ops = OperatorSet(domain)
        _CACHE[key] = ops
    return ops


def teodorescu(f: QField) -> QField:
    return operator_set(f.domain).teodorescu(f)


def cauchy(g) -> QField:
    return operator_set(g.domain).cauchy(g)


def bergman_Q(f: QField) -> QField:
    return operator_set(f.domain).bergman_Q(f)


def bergman_P(f: QField) -> QField:
    return operator_set(f.domain).bergman_P(f)


def poisson_dirichlet(rhs: QField) -> QField:
    return operator_set(rhs.domain).poisson_dirichlet(rhs)


def lambda_min(domain: VoxelDomain, **kw) -> float:
    return operator_set(domain).lambda_min(**kw)


def op_norm_TQT(domain: VoxelDomain, **kw) -> float:
    return operator_set(domain).op_norm_TQT(**kw)
