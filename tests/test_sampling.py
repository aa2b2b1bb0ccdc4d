import numpy as np
import pytest

from quatmhd.grid import build_domain
from quatmhd.sampling import (_unit_coords, random_bump, random_pure_bump,
                              random_smooth)


def _unit_coords_3d(dom):
    """Cell centers mapped to [0, 1]^3 as one (n1, n2, n3, 3) array."""
    return (dom.cell_centers() - dom.origin) / (np.asarray(dom.n) * dom.h)


def _fourier_scalar_3d(dom, rng, kmax):
    s = _unit_coords_3d(dom)
    out = np.zeros(dom.shape)
    for _ in range(4):
        k = rng.integers(0, kmax + 1, size=3)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        amp = rng.standard_normal()
        out += amp * np.prod(
            [np.cos(2 * np.pi * k[i] * s[..., i] + phase[i]) for i in range(3)],
            axis=0)
    return out


@pytest.mark.parametrize("origin,extent,n", [
    ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (16, 16, 16)),
    ((0.1, -0.2, 0.3), (0.6, 0.8, 1.0), (6, 8, 10)),
])
def test_separable_sampling_matches_3d_formula(origin, extent, n):
    # every seeded field is the full 3-D formula up to rounding: the
    # builder folds the amplitude and the cutoff into the 1-D factors and
    # sums the four terms in one product, which moves the last bits only
    # (at most 5.6e-16 max|f| on these grids, seeds 0..19)
    dom = build_domain(origin, extent, n)
    s3 = _unit_coords_3d(dom)
    for i, s in enumerate(_unit_coords(dom)):
        shape = [1, 1, 1]
        shape[i] = -1
        assert np.array_equal(np.broadcast_to(s.reshape(shape), dom.shape),
                              s3[..., i])
    bump = np.prod((4.0 * s3 * (1.0 - s3)) ** 3, axis=-1)
    rng = np.random.default_rng(7)
    smooth = np.stack([_fourier_scalar_3d(dom, rng, 2) for _ in range(4)])
    for got, ref in ((random_smooth(dom, seed=7), smooth),
                     (random_bump(dom, seed=7), smooth * bump)):
        for c in range(4):
            err = np.abs(got.values[c] - ref[c]).max()
            assert err <= 1e-15 * np.abs(ref[c]).max()


@pytest.mark.parametrize("n", [(8, 8, 8), (6, 8, 10)])
def test_pure_bump_is_bump_without_scalar(n):
    # random_pure_bump skips building the scalar part but draws its numbers,
    # so it stays random_bump with that part zeroed, bit for bit
    dom = build_domain((0.0, 0.0, 0.0), tuple(0.1 * m for m in n), n)
    for seed in (0, 7, 12):
        ref = random_bump(dom, seed=seed).values.copy()
        ref[0] = 0.0
        assert np.array_equal(random_pure_bump(dom, seed=seed).values, ref)
