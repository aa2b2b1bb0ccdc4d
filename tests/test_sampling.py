import warnings

import numpy as np
import pytest

from quatmhd.grid import build_domain
from quatmhd.sampling import (_draws, _samples, _splitmix64, _uniforms,
                              _unit_coords, random_bump, random_pure_bump,
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


@pytest.mark.parametrize("seed, outputs", [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]),
])
def test_splitmix64_matches_published_outputs(seed, outputs):
    # the first outputs of the reference SplitMix64 for these states, with
    # the uint64 products and sums wrapping mod 2^64 and no NumPy overflow
    # warning raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _splitmix64(seed, 3).tolist() == outputs
        assert _splitmix64(2**64 - 1, 1000).dtype == np.uint64


def test_stream_draw_ranges():
    # uniforms on [0, 1), phases on [0, 2 pi), wave numbers on exactly
    # 0..kmax, standard normal amplitudes, and the first fields' draws do
    # not depend on how many fields are drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _uniforms(5, (4000, 8))
        draws = {kmax: _draws(5, 500, kmax) for kmax in (1, 2, 5)}
    assert 0.0 <= u.min() and u.max() < 1.0
    for kmax, (k, phase, amp) in draws.items():
        assert set(np.unique(k)) == set(range(kmax + 1))
        assert 0.0 <= phase.min() and phase.max() < 2 * np.pi
        assert abs(amp.mean()) < 0.05 and abs(amp.std() - 1.0) < 0.05
        for a, b in zip(_draws(5, 7, kmax), (k, phase, amp)):
            assert np.array_equal(a, b[:7])


@pytest.mark.parametrize("n", [(8, 8, 8), (6, 8, 10)])
@pytest.mark.parametrize("bump, pure", [(True, True), (False, False)])
def test_batched_build_matches_per_field_build(n, bump, pure):
    # the factors of 12 fields built in one cos per axis, and the fields
    # formed from them, equal those built one field at a time, bit for bit
    dom = build_domain((0.0, 0.0, 0.0), tuple(0.1 * m for m in n), n)
    draws = _draws(3, 12, kmax=2)
    factors, fields = _samples(dom, draws, bump=bump, pure=pure)
    for f, field in enumerate(fields):
        one, single = _samples(dom, tuple(d[f:f + 1] for d in draws),
                               bump=bump, pure=pure)
        for i in range(3):
            assert np.array_equal(factors[i][f], one[i][0])
        assert np.array_equal(field.values, next(single).values)
