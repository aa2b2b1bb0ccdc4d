"""Seeded random smooth fields for tests, calibration and constant estimation.

All generators take a numpy Generator (or a seed) and return QFields. The
"bump" variants vanish smoothly at the box faces, so their one-sided
difference layers carry no O(1) spikes.
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


def _outer3(f) -> np.ndarray:
    """The 3-D array f[0][i] f[1][j] f[2][k] of three 1-D factors."""
    return f[0][:, None, None] * f[1][None, :, None] * f[2][None, None, :]


def _fourier_draws(rng, kmax: int) -> list[tuple]:
    """The random (wave numbers, phases, amplitude) of the four terms of
    one _fourier_scalar, in the order they are drawn."""
    return [(rng.integers(0, kmax + 1, size=3),
             rng.uniform(0, 2 * np.pi, size=3),
             rng.standard_normal()) for _ in range(4)]


def _fourier_scalar(s: list[np.ndarray], rng, kmax: int) -> np.ndarray:
    """Low-order random trigonometric polynomial on the unit cube, a sum of
    separable products of 1-D cosines of the _unit_coords s."""
    out = np.zeros(tuple(len(x) for x in s))
    for k, phase, amp in _fourier_draws(rng, kmax):
        out += amp * _outer3(
            [np.cos(2 * np.pi * k[i] * s[i] + phase[i]) for i in range(3)])
    return out


def random_smooth(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Smooth random quaternion field, generically nonzero at the faces."""
    rng = _rng(seed)
    s = _unit_coords(domain)
    return QField(domain, [_fourier_scalar(s, rng, kmax) for _ in range(4)])


def _bump(s: list[np.ndarray]) -> np.ndarray:
    """C^1 cutoff prod_i (4 s_i (1 - s_i))^3 of the _unit_coords s,
    vanishing at the faces."""
    return _outer3([(4.0 * x * (1.0 - x)) ** 3 for x in s])


def random_bump(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Smooth random field that decays to zero at the box faces."""
    u = random_smooth(domain, seed, kmax)
    return QField(domain, u.values * _bump(_unit_coords(domain)))


def random_pure_bump(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Vector-valued (pure quaternion) bump field: random_bump with its
    scalar part zeroed. The scalar part's numbers are still drawn, so that
    the random stream and the vector part stay those of random_bump, but
    that part is not built."""
    return next(_pure_bumps(domain, _rng(seed), kmax))


def _pure_bumps(domain: VoxelDomain, rng: np.random.Generator,
                kmax: int = 2):
    """The random_pure_bump fields of successive draws from rng, without
    end; the coordinates and the cutoff are built once."""
    s = _unit_coords(domain)
    bump = _bump(s)
    while True:
        _fourier_draws(rng, kmax)
        out = np.zeros((4,) + domain.shape)
        for c in range(1, 4):
            out[c] = _fourier_scalar(s, rng, kmax) * bump
        yield QField(domain, out)


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
