import numpy as np
import pytest

from photon_resonance import boundstates as bs, eigensolver as es, nystrom as ny
from photon_resonance.boundstates import BoundStateNotFound, DensityProfile
from photon_resonance.nystrom import PhysicalParams, QuadratureRule

import oracle_utils as orc


def p1d(rho0=1.0, omega_a=1.0):
    return PhysicalParams(d=1, c=1.0, g=1.0, omega_a=omega_a, epsilon=1.0, rho0=rho0)


@pytest.fixture(scope="module")
def square1():
    return DensityProfile.square(1, 1.0, 1.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        DensityProfile(1, -1.0, 1.0)
    with pytest.raises(ValueError):
        DensityProfile(2, 1.0, 1.0, center=0.3)
    ball = DensityProfile.square(2, 1.0, 1.0)
    # equal-volume disk for the square [-R, R]^2
    assert ball.half_width == pytest.approx(2.0 / np.sqrt(np.pi))
    assert DensityProfile.square(1, 2.0, 0.5, center=1.0).center == 1.0


def test_density_power_integral(square1):
    assert square1.density_power_integral(1) == pytest.approx(2.0)
    d2 = DensityProfile(2, 3.0, 0.5)
    assert d2.density_power_integral(2) == pytest.approx(9.0 * np.pi * 0.25)


def test_bs_operator_symmetric_positive(square1):
    op = bs.build_bs_operator(square1, -0.5, p1d(), n_nodes=48)
    assert np.max(np.abs(op.matrix - op.matrix.T)) <= 1e-12
    assert op.asymmetry < 1e-3  # pre-symmetrization, discretization scale
    ev = np.linalg.eigvalsh(op.matrix)
    assert np.all(ev >= -1e-10)
    with pytest.raises(ValueError):
        bs.build_bs_operator(square1, 0.5, p1d())


def test_norm_vanishes_deep_below(square1):
    mu_deep = bs.mu_spectrum(bs.build_bs_operator(square1, -100.0, p1d(), n_nodes=40), 1)[0]
    mu_ref = bs.mu_spectrum(bs.build_bs_operator(square1, -1.0, p1d(), n_nodes=40), 1)[0]
    assert mu_deep < 0.01 * mu_ref


def test_mu_monotone_decreasing_in_depth(square1):
    mus = [bs._mu_n(square1, w, p1d(), 1, 40) for w in (-0.1, -0.5, -1.0, -2.0)]
    assert all(a > b for a, b in zip(mus, mus[1:]))


def test_mu_spectrum_shape(square1):
    op = bs.build_bs_operator(square1, -0.5, p1d(), n_nodes=40)
    mu = bs.mu_spectrum(op, 4)
    assert len(mu) == 4 and np.all(np.diff(mu) <= 0)
    with pytest.raises(ValueError):
        bs.mu_spectrum(op, 0)


def test_density_monotonicity():
    # rho1 <= rho2 pointwise implies mu1 ordering
    small = DensityProfile.square(1, 0.5, 0.8)
    large = DensityProfile.square(1, 1.0, 0.8)
    m_small = bs._mu_n(small, -0.4, p1d(), 1, 40)
    m_large = bs._mu_n(large, -0.4, p1d(), 1, 40)
    assert m_small <= m_large + 1e-10


def test_tiny_coupling_has_no_bound_states(square1):
    weak = PhysicalParams(d=1, c=1.0, g=1e-4, omega_a=1.0, epsilon=1.0, rho0=1.0)
    assert bs.count_bound_states_below(square1, -0.5, weak, n_nodes=32) == 0
    with pytest.raises(BoundStateNotFound):
        bs.solve_bound_state(square1, weak, 1, n_nodes=32)


@pytest.fixture(scope="module")
def omega_star(square1):
    return bs.solve_bound_state(square1, p1d(), 1, n_nodes=48)


def test_one_dimensional_square_always_binds(square1, omega_star):
    assert omega_star < 0
    mu = bs._mu_n(square1, omega_star, p1d(), 1, 48)
    assert abs(mu - 1.0) <= 1e-9


def test_bound_state_build_count(square1, monkeypatch):
    # Brent on the scan exponent needs 11 operator builds here (bracket ends included)
    calls = []
    build = bs.build_bs_operator

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(bs, "build_bs_operator", counted)
    w = bs.solve_bound_state(square1, p1d(), 1, n_nodes=48)
    assert len(calls) <= 14
    assert abs(bs._mu_n(square1, w, p1d(), 1, 48) - 1.0) <= 1e-10


def test_crossing_below_deepest_bracket_end_rejected():
    # mu_1 = 9.5 already at omega = -1024, the deep end of the bracket
    dense = DensityProfile.square(1, 1e7, 1.0)
    with pytest.raises(BoundStateNotFound, match="deepest"):
        bs.solve_bound_state(dense, p1d(rho0=1e7), 1, n_nodes=32)


def test_necessary_condition(square1, omega_star):
    p = p1d()
    lhs = p.g**2 * square1.sup_density
    assert lhs >= omega_star * (omega_star - p.omega_a)


def test_full_operator_equivalence(omega_star):
    # the located Birman-Schwinger crossing annihilates the full operator
    p = p1d()
    op = ny.build_full_operator(p, complex(omega_star), QuadratureRule.make(1.0, n_radial=48))
    lam = es.characteristic_value(op)
    assert abs(lam) <= 1e-6


def test_subcritical_2d_has_no_crossings():
    # 2 g^2 rho0 R / (Omega c) = 1 < S_2
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=1.0, rho0=0.5)
    prof = DensityProfile.square(2, 0.5, 1.0)
    assert 2 * 0.5 * 1.0 < bs.sobolev_threshold(2)
    for w in (-0.02, -0.2, -1.0, -5.0):
        assert bs.count_bound_states_below(prof, w, p, n_nodes=32) == 0


def test_sobolev_threshold_values():
    assert bs.sobolev_threshold(2) == pytest.approx(0.5 * np.sqrt(4 * np.pi), rel=1e-12)
    assert bs.sobolev_threshold(2) == pytest.approx(1.7725, abs=1e-4)
    assert bs.sobolev_threshold(3) == pytest.approx((2 * np.pi**2) ** (1.0 / 3.0), rel=1e-12)
    vals = [bs.sobolev_threshold(d) for d in (2, 3, 4)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        bs.sobolev_threshold(1)


def test_counting_bound_formula():
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=1.0, rho0=2.0)
    prof = DensityProfile(2, 2.0, 1.5)
    val = bs.nbs_upper_bound(prof, p, K_d=1.0)
    assert val == pytest.approx(4.0 * np.pi * 1.5**2)
    p_small = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=0.01, epsilon=1.0, rho0=2.0)
    ratio = bs.nbs_upper_bound(prof, p_small, 1.0) / val
    assert ratio == pytest.approx(1e4)


def test_count_below_bound_consistency():
    # computed count stays below the bound once K_d is generous
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=0.5, epsilon=1.0, rho0=4.0)
    prof = DensityProfile.square(2, 4.0, 1.0)
    count = bs.count_bound_states_below(prof, -1e-3, p, n_nodes=32)
    bound = bs.nbs_upper_bound(prof, p, K_d=10.0)
    assert count <= bound


def test_3d_bound_state_two_routes_agree():
    # Omega below the limiting shift puts the lowest mode on the negative
    # axis; the Muller continuation and the Birman-Schwinger crossing are
    # independent solve paths and must land on the same frequency
    p = PhysicalParams(d=3, c=1.0, g=1.0, omega_a=0.3, epsilon=0.1, s0=1.0)
    res = es.find_resonances(p, 1, rule=QuadratureRule.make(0.1, n_radial=40))
    assert res[0].converged
    w_muller = res[0].omega
    assert abs(w_muller.imag) <= 1e-9  # bound modes carry no width
    assert w_muller.real < 0
    w_bisect = bs.solve_bound_state(bs.DensityProfile.from_params(p), p, 1, n_nodes=40)
    assert abs(w_muller.real - w_bisect) <= 1e-6


def test_2d_negative_branch_operator_real():
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=0.5, rho0=2.0)
    op = ny.build_full_operator(p, -0.7 + 0j, QuadratureRule.make(0.5, n_radial=24))
    assert np.max(np.abs(op.matrix.imag)) <= 1e-12


def test_second_mode_crossing_strong_coupling():
    # a strong density binds several modes; their frequencies are ordered
    p = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=1.0, rho0=30.0)
    prof = DensityProfile.square(1, 30.0, 1.0)
    assert bs.count_bound_states_below(prof, -1e-3, p, n_nodes=40) >= 2
    w1 = bs.solve_bound_state(prof, p, 1, n_nodes=40)
    w2 = bs.solve_bound_state(prof, p, 2, n_nodes=40)
    assert w1 < w2 < 0
    op = bs.build_bs_operator(prof, w2, p, n_nodes=40)
    assert abs(bs.mu_spectrum(op, 2)[1] - 1.0) <= 1e-9


def test_scaled_1d_matches_log_limit_real_part():
    # Omega - g^2 s0 |B1|/(pi c) < 0: omega* approaches it at rate O(1/log eps)
    target = 0.3 - 2.0 / np.pi
    gaps = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        p = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=0.3, epsilon=eps, s0=1.0)
        prof = DensityProfile.from_params(p)
        w = bs.solve_bound_state(prof, p, 1, n_nodes=40)
        gaps.append(abs(w - target))
    inv_log = [1.0 / abs(np.log(e)) for e in eps_list]
    assert gaps[0] > gaps[1] > gaps[2]
    ratios = [g / il for g, il in zip(gaps, inv_log)]
    assert max(ratios) < 3.0 * min(ratios)  # gap ~ C / |log eps|
