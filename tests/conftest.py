import numpy as np
import pytest
from scipy.special import ive

from quatmhd.grid import QField, _diff, build_domain
from quatmhd.operators import OperatorSet, _staggered


@pytest.fixture(scope="session")
def dom8():
    return build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 8)


@pytest.fixture(scope="session")
def dom12():
    return build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 12)


@pytest.fixture(scope="session")
def dom16():
    return build_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 16)


@pytest.fixture(scope="session")
def ops8(dom8):
    return OperatorSet(dom8)


@pytest.fixture(scope="session")
def ops12(dom12):
    return OperatorSet(dom12)


@pytest.fixture(scope="session")
def ops16(dom16):
    return OperatorSet(dom16)


@pytest.fixture
def prescribed_iterates(monkeypatch):
    """Make the k-th new iterate scales[k] g, whatever the scheme computes:
    g is a fixed pure field of H1 norm 1e-3 and the last scale repeats.

    Each outer step of either scheme makes u in its velocity row
    (tqt_rhs_u for Banach, neumann_apply_u for Schauder), then B in its
    Leray projection; both draw from one counter, so step n sets
    u = scales[2n-2] g and B = scales[2n-1] g. That drives the shared
    outer loop along a prescribed norm history."""
    from quatmhd.grid import h1_norm
    from quatmhd.sampling import random_pure_bump

    def install(scales):
        calls = []

        def next_iterate(f):
            g = random_pure_bump(f.domain, seed=12)
            g = (1e-3 / h1_norm(g)) * g
            k = min(len(calls), len(scales) - 1)
            calls.append(k)
            return scales[k] * g

        monkeypatch.setattr("quatmhd.solvers.tqt_rhs_u",
                            lambda bracket, *args: next_iterate(bracket))
        monkeypatch.setattr("quatmhd.solvers.neumann_apply_u",
                            lambda ut, *args: (next_iterate(ut), 0.0, 1))
        monkeypatch.setattr("quatmhd.solvers.leray_project",
                            lambda f, ops: next_iterate(f))
    return install


class LatticePair:
    """The exactly paired lattice Teodorescu transforms of a box: with
    A f = h^2 G*f on the box plus one ghost layer, T+ = D- A is a right
    inverse of D+ and T- = D+ A one of D-, the differences exact (the
    ghost layer is read, no fallback row). A is a dense matrix: n <= 8."""

    def __init__(self, dom):
        self.dom = dom
        G = self.green(max(dom.n))
        grid = lambda lo, hi: np.stack(np.meshgrid(
            *[np.arange(lo, m + hi) for m in dom.n], indexing="ij"),
            axis=-1).reshape(-1, 3)
        d = np.abs(grid(-1, 1)[:, None, :] - grid(0, 0)[None, :, :])
        self.A = dom.h**2 * G[d[..., 0], d[..., 1], d[..., 2]]

    @staticmethod
    def green(M):
        """The lattice Green function G of the 7-point -Laplacian (h = 1)
        at the offsets [0, M]^3; G at any offset is G at its absolute
        values.

        G(m) = int_0^inf prod_j e^{-2t} I_{m_j}(2t) dt, the time integral
        of the lattice heat kernel. The comparison
        a(t) = A (t+1)^-3/2 + B (t+1)^-5/2 has the first two terms of the
        integrand's large-t expansion,
        (4 pi t)^-3/2 (1 - sum_j (4 m_j^2 - 1) / (16 t)), and the integral
        2A + 2B/3. The rest decays as t^-7/2 and is integrated by the
        trapezoid rule in s = log t on nodes that are exact binary
        fractions, which converges geometrically: G(0) comes out at
        Watson's 0.2527310098586630 to rounding."""
        step = 0.25
        t = np.exp(-40.0 + step * np.arange(225))
        m = np.arange(M + 1)
        e = ive(m[:, None], 2.0 * t)
        mu = 4.0 * m**2
        sig = (mu[:, None, None] + mu[None, :, None] + mu[None, None, :]
               - 3.0) / 16.0
        A = (4.0 * np.pi) ** -1.5
        B = A * (1.5 - sig)
        a = A * (t + 1.0) ** -1.5 + B[..., None] * (t + 1.0) ** -2.5
        g = e[:, None, None, :] * e[None, :, None, :] * e[None, None, :, :]
        return step * ((g - a) * t).sum(-1) + 2.0 * A + (2.0 / 3.0) * B

    def _apply(self, f, flip):
        ext = (self.A @ f.values.reshape(4, -1).T).T.reshape(
            (4,) + tuple(m + 2 for m in self.dom.n))
        inner = _staggered(ext, self.dom.h, flip=flip)[:, 1:-1, 1:-1, 1:-1]
        return QField(self.dom, inner)

    def T_plus(self, f):
        return self._apply(f, flip=True)

    def T_minus(self, f):
        return self._apply(f, flip=False)


@pytest.fixture(scope="session")
def lattice_pair():
    """LatticePair, called on a domain."""
    return LatticePair


class StencilPressure:
    """The pressure operator and the pressure right side as the stencil
    composition that OperatorSet.pressure_S and _sc_dirac_solve replace:
    the ghost-zero backward gradient, three collar solves in one batch and
    the ghost-zero -div+ of their result."""

    @staticmethod
    def sc_dirac_solve(ops, g):
        h = ops.domain.h
        w = ops.poisson_scalar(g)
        out = np.zeros(ops.domain.shape)
        for j in range(3):
            out -= _diff(w[j], j, h, ghost=True)
        return out

    @classmethod
    def S(cls, ops, p):
        h = ops.domain.h
        g = np.stack([_diff(p, j, h, backward=True, ghost=True)
                      for j in range(3)])
        return cls.sc_dirac_solve(ops, g)


@pytest.fixture(scope="session")
def stencil_pressure():
    """StencilPressure, the slow path of the pressure operator."""
    return StencilPressure
