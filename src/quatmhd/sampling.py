"""Seeded random smooth fields for tests, calibration and constant estimation.

All generators take a numpy Generator (or a seed) and return QFields. The
"bump" variants vanish smoothly at the box faces, so their one-sided
difference layers carry no O(1) spikes. random_smooth, random_bump and
random_pure_bump are one builder, _samples: each component is a sum of
four separable products of 1-D factors, the cutoff and the amplitude
folded into the factors. estimate_constants takes the factors along with
each field and reads norms from them (solvers._separable_norms).
"""

from __future__ import annotations

import numpy as np

from .grid import QField, VoxelDomain

__all__ = [
    "random_smooth",
    "random_bump",
    "random_pure_bump",
    "random_divfree",
]


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _unit_coords(domain: VoxelDomain) -> list[np.ndarray]:
    """Cell centers mapped to [0, 1], one 1-D array per axis."""
    return [(domain.origin[i] + (np.arange(m) + 0.5) * domain.h
             - domain.origin[i]) / (m * domain.h)
            for i, m in enumerate(domain.n)]


def _fourier_draws(rng, kmax: int) -> tuple[np.ndarray, ...]:
    """The random wave numbers (4, 4, 3), phases (4, 4, 3) and amplitudes
    (4, 4) of the four terms of each of the four components of one field,
    drawn term by term, component by component."""
    draws = [(rng.integers(0, kmax + 1, size=3),
              rng.uniform(0, 2 * np.pi, size=3),
              rng.standard_normal()) for _ in range(16)]
    k, phase, amp = map(np.array, zip(*draws))
    return k.reshape(4, 4, 3), phase.reshape(4, 4, 3), amp.reshape(4, 4)


def _samples(domain: VoxelDomain, rng: np.random.Generator, kmax: int = 2,
             bump: bool = True, pure: bool = False):
    """Without end, the fields of successive draws from rng, each with its
    1-D factors. Component c is the sum over four terms t of

        amp_t prod_i cos(2 pi k_ti s_i + phase_ti) b(s_i),

    s_i the _unit_coords and b(s) = (4 s (1 - s))^3 the C^1 cutoff that
    vanishes at the faces (with `bump`; 1 without). factors[i][c, t] is
    the factor of axis i, amp_t folded into axis 0, so component c is the
    one product sum_t factors[0][c, t] (x) factors[1][c, t] (x)
    factors[2][c, t]. With `pure` the scalar part and its factors stay
    zero: its numbers are drawn, so that the vector part is that of the
    full field, but it is not built. Yields (QField, factors), factors[i]
    of shape (4, 4, n_i), component by term by cell."""
    s = _unit_coords(domain)
    cut = [(4.0 * x * (1.0 - x)) ** 3 if bump else 1.0 for x in s]
    lo = 1 if pure else 0
    while True:
        k, phase, amp = _fourier_draws(rng, kmax)
        factors = [np.cos(2 * np.pi * k[..., i, None] * s[i]
                          + phase[..., i, None]) * cut[i] for i in range(3)]
        factors[0] *= amp[..., None]
        for f in factors:
            f[:lo] = 0.0
        # each component in one product over its terms, summed in einsum's
        # own loop: a GEMM over 4 terms would wake BLAS threads for almost
        # no work
        vals = np.zeros((4,) + domain.shape)
        for c in range(lo, 4):
            np.einsum("tij,tk->ijk",
                      factors[0][c, :, :, None] * factors[1][c, :, None, :],
                      factors[2][c], out=vals[c])
        yield QField(domain, vals), factors


def random_smooth(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Smooth random quaternion field, generically nonzero at the faces."""
    return next(_samples(domain, _rng(seed), kmax, bump=False))[0]


def random_bump(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Smooth random field that decays to zero at the box faces: the
    random_smooth field of the same seed times the cutoff, to rounding."""
    return next(_samples(domain, _rng(seed), kmax))[0]


def random_pure_bump(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Vector-valued (pure quaternion) bump field: random_bump with its
    scalar part zeroed, bit for bit."""
    return next(_samples(domain, _rng(seed), kmax, pure=True))[0]


def random_divfree(domain: VoxelDomain, seed=0) -> QField:
    """Exactly divergence-free constant-plus-shear field: a_i depends only
    on coordinates other than x_i, so the discrete forward divergence and
    the convective skew-symmetry identity hold exactly."""
    rng = _rng(seed)
    x = domain.cell_centers()
    c = rng.standard_normal(3)
    s = rng.standard_normal((3, 3)) * (1.0 - np.eye(3))  # zero diagonal
    out = np.zeros((4,) + domain.shape)
    for i in range(3):
        out[1 + i] = c[i] + sum(s[i, j] * x[..., j] for j in range(3) if j != i)
    return QField(domain, out)
