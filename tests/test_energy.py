import numpy as np
import pytest

from quatmhd.energy import (coercivity_radius, energy, is_coercive,
                            lower_bound_estimate)
from quatmhd.grid import QField, l2_norm
from quatmhd.mhd import MHDParams
from quatmhd.operators import dirac_fwd
from quatmhd.sampling import random_pure_bump


def test_energy_zero_state(dom8):
    params = MHDParams(Re=1.0, Rm=1.0)
    rep = energy(QField.zeros(dom8), QField.zeros(dom8), params)
    assert rep.J == 0.0
    assert (rep.viscous_u, rep.viscous_B) == (0.0, 0.0)
    assert (rep.lorentz_coupling, rep.induction_coupling) == (0.0, 0.0)


def test_energy_velocity_only(dom12):
    params = MHDParams(Re=2.5, Rm=1.0)
    u = random_pure_bump(dom12, seed=0)
    rep = energy(u, QField.zeros(dom12), params)
    ref = l2_norm(dirac_fwd(u)) ** 2 / params.Re
    assert abs(rep.J - ref) <= 1e-12 * max(1.0, abs(ref))
    assert rep.J > 0  # Du != 0 implies positive energy when B = 0


def test_energy_magnetic_only(dom12):
    params = MHDParams(Re=1.0, Rm=3.0)
    B = random_pure_bump(dom12, seed=1)
    rep = energy(QField.zeros(dom12), B, params)
    ref = l2_norm(dirac_fwd(B)) ** 2 / params.Rm
    assert rep.J == pytest.approx(ref, rel=1e-13)
    assert rep.lorentz_coupling == 0.0
    assert rep.induction_coupling == 0.0


def test_energy_term_bookkeeping(dom12):
    params = MHDParams(Re=1.2, Rm=0.7, mu0=2.0)
    u = random_pure_bump(dom12, seed=2)
    B = random_pure_bump(dom12, seed=3)
    rep = energy(u, B, params)
    recomposed = (rep.viscous_u - rep.lorentz_coupling
                  + rep.viscous_B + rep.induction_coupling)
    assert rep.J == recomposed  # exact bookkeeping, no extra rounding


def test_energy_rejects_non_pure(dom8):
    params = MHDParams(Re=1.0, Rm=1.0)
    vals = np.zeros((4,) + dom8.shape)
    vals[0] = 1.0
    with pytest.raises(ValueError):
        energy(QField(dom8, vals), QField.zeros(dom8), params)


def test_coercivity_radius_values():
    assert coercivity_radius(MHDParams(Re=1, Rm=1, mu0=1), 1.0) \
        == pytest.approx(2 / 3, rel=1e-14)
    assert coercivity_radius(MHDParams(Re=2, Rm=1, mu0=1), 1.0) \
        == pytest.approx(1 / 3, rel=1e-14)
    # increasing Re never increases the radius
    r = [coercivity_radius(MHDParams(Re=re, Rm=1, mu0=1), 1.0)
         for re in (1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(r, r[1:]))
    assert all(v > 0 for v in r)


def test_is_coercive_strictness():
    params = MHDParams(Re=1, Rm=1, mu0=1)
    rho = coercivity_radius(params, 1.0)
    assert is_coercive(0.0, params, 1.0)
    assert not is_coercive(rho, params, 1.0)  # strict inequality
    assert is_coercive(rho * (1 - 1e-12), params, 1.0)


def test_lower_bound_estimate_hand_formula():
    params = MHDParams(Re=2.0, Rm=3.0, mu0=0.5)
    Cs = 1.7
    u_h1, B_h1 = 0.4, 0.3
    bracket_u = Cs / params.Re - 0.5 * (2 + 1 / params.mu0) * B_h1
    bracket_B = Cs / params.Rm - 0.5 * (2 + 1 / params.mu0) * B_h1
    ref = bracket_u * u_h1**2 + bracket_B * B_h1**2
    got = lower_bound_estimate(u_h1, B_h1, params, Cs)
    assert abs(got - ref) <= 1e-14
    assert lower_bound_estimate(0.4, 0.0, params, Cs) \
        == pytest.approx((Cs / params.Re) * 0.4**2, rel=1e-14)
    assert lower_bound_estimate(0.0, 0.0, params, Cs) == 0.0
