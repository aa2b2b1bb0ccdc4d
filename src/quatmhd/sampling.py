"""Seeded random smooth fields for tests, calibration and constant estimation.

The public generators take a numpy Generator (or a seed) and return
QFields; the "bump" variants vanish smoothly at the box faces, so their
one-sided difference layers carry no O(1) spikes. All are one builder,
_samples, of sums of separable products of 1-D factors. estimate_constants
draws its fields' numbers in one call to a SplitMix64 stream (_draws),
not numpy.random, and reads their norms from the factors
(solvers._separable_norms).
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


def _splitmix64(seed: int, size: int) -> np.ndarray:
    """Outputs 1..size of the SplitMix64 stream of state seed (Steele, Lea
    and Flood 2014), output i the mix of seed + i 0x9E3779B97F4A7C15, in
    uint64 arithmetic, which wraps mod 2^64 without a warning."""
    z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed)
    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mul)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, shape: tuple) -> np.ndarray:
    """Uniforms on [0, 1): the stream's top 53 bits times 2^-53."""
    z = _splitmix64(seed, np.prod(shape)) >> np.uint64(11)
    return z.reshape(shape) * 2.0**-53


def _gaussian(u: np.ndarray) -> np.ndarray:
    """Box-Muller normals, one per pair of uniforms on the last axis."""
    return np.sqrt(-2.0 * np.log1p(-u[..., 0])) * np.cos(2 * np.pi * u[..., 1])


def _draws(seed: int, fields: int, kmax: int) -> tuple[np.ndarray, ...]:
    """Wave numbers uniform on 0..kmax, phases uniform on [0, 2 pi) and
    standard normal amplitudes of F fields, shaped as _fourier_draws's, from
    8 uniforms a term, so that the first fields do not depend on F."""
    u = _uniforms(seed, (fields, 4, 4, 8))
    return (np.floor(u[..., :3] * (kmax + 1)), 2 * np.pi * u[..., 3:6],
            _gaussian(u[..., 6:]))


def _unit_coords(domain: VoxelDomain) -> list[np.ndarray]:
    """Cell centers mapped to [0, 1], one 1-D array per axis."""
    return [(domain.origin[i] + (np.arange(m) + 0.5) * domain.h
             - domain.origin[i]) / (m * domain.h)
            for i, m in enumerate(domain.n)]


def _fourier_draws(seed, kmax: int) -> tuple[np.ndarray, ...]:
    """The random wave numbers (1, 4, 4, 3), phases (1, 4, 4, 3) and
    amplitudes (1, 4, 4) of the four terms of each of the four components
    of one field, drawn from _rng(seed) term by term, component by
    component."""
    rng = _rng(seed)
    draws = [(rng.integers(0, kmax + 1, size=3),
              rng.uniform(0, 2 * np.pi, size=3),
              rng.standard_normal()) for _ in range(16)]
    return tuple(np.reshape(x, (1, 4, 4) + np.shape(x[0]))
                 for x in zip(*draws))


def _samples(domain: VoxelDomain, draws: tuple[np.ndarray, ...],
             bump: bool = True, pure: bool = False):
    """The 1-D factors of the F fields of draws = (k, phase, amp), and an
    iterator that forms the fields one at a time. Component c of a field
    is the sum over four terms t of

        amp_t prod_i cos(2 pi k_ti s_i + phase_ti) b(s_i),

    s_i the _unit_coords and b(s) = (4 s (1 - s))^3 the C^1 cutoff that
    vanishes at the faces (with `bump`; 1 without). factors[i][f, c, t],
    of shape (F, 4, 4, n_i) and from one cos for all F, is the factor of
    axis i, amp_t folded into axis 0, so component c of field f is the one
    product sum_t of the three. With `pure` the scalar part and its
    factors stay zero: its numbers are drawn, so that the vector part is
    that of the full field, but it is not built."""
    k, phase, amp = draws
    s = _unit_coords(domain)
    cut = [(4.0 * x * (1.0 - x)) ** 3 if bump else 1.0 for x in s]
    lo = 1 if pure else 0
    factors = [np.cos(2 * np.pi * k[..., i, None] * s[i]
                      + phase[..., i, None]) * cut[i] for i in range(3)]
    factors[0] *= amp[..., None]
    for f in factors:
        f[:, :lo] = 0.0

    def fields():
        # each component in one product over its terms, summed in einsum's
        # own loop: a GEMM over 4 terms would wake BLAS threads for almost
        # no work
        for f0, f1, f2 in zip(*factors):
            vals = np.zeros((4,) + domain.shape)
            for c in range(lo, 4):
                np.einsum("tij,tk->ijk", f0[c, :, :, None] * f1[c, :, None, :],
                          f2[c], out=vals[c])
            yield QField(domain, vals)
    return factors, fields()


def random_smooth(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Smooth random quaternion field, generically nonzero at the faces."""
    return next(_samples(domain, _fourier_draws(seed, kmax), bump=False)[1])


def random_bump(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Smooth random field that decays to zero at the box faces: the
    random_smooth field of the same seed times the cutoff, to rounding."""
    return next(_samples(domain, _fourier_draws(seed, kmax))[1])


def random_pure_bump(domain: VoxelDomain, seed=0, kmax: int = 2) -> QField:
    """Vector-valued (pure quaternion) bump field: random_bump with its
    scalar part zeroed, bit for bit."""
    return next(_samples(domain, _fourier_draws(seed, kmax), pure=True)[1])


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
