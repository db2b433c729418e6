import numpy as np
import pytest

from photon_resonance import asymptotics as asym, eigensolver as es, nystrom as ny
from photon_resonance.asymptotics import AsymptoticsError
from photon_resonance.nystrom import PhysicalParams, QuadratureRule


def params(d=3, omega_a=1.0, s0=1.0, eps=0.1):
    return PhysicalParams(d=d, c=1.0, g=1.0, omega_a=omega_a, epsilon=eps, s0=s0)


@pytest.fixture(scope="module")
def modes3():
    return asym.limiting_modes(params(), 5, QuadratureRule.make(1.0, n_radial=48))


def test_limiting_modes_structure(modes3):
    w = [m.omega_j for m in modes3]
    assert all(a < b for a, b in zip(w, w[1:]))          # increasing toward Omega
    assert all(x < 1.0 for x in w)
    psi1 = modes3[0].psi
    assert np.all(psi1 > 0) or np.all(psi1 < 0)          # lowest mode one-signed
    masses = [m.mass for m in modes3]
    assert all(m >= 0 for m in masses)
    assert masses[0] > masses[-1]                        # overall decreasing trend
    assert sum(a >= b for a, b in zip(masses, masses[1:])) >= 3


def test_limiting_modes_rejects_1d():
    with pytest.raises(AsymptoticsError):
        asym.limiting_modes(params(d=1, eps=0.1), 1)


def test_expansion_3d_base_point_and_sign(modes3):
    p = params()
    m = modes3[0]
    assert asym.resonance_expansion_3d(m, p, 0.0) == complex(m.omega_j, 0.0)
    for eps in (1e-3, 1e-2, 0.1, 0.5):
        assert asym.resonance_expansion_3d(m, p, eps).imag <= 0


def test_expansion_2d_formulas():
    p2 = params(d=2)
    modes = asym.limiting_modes(p2, 2, QuadratureRule.make(1.0, n_radial=40))
    m = modes[0]
    assert asym.resonance_expansion_2d(m, p2, 0.0) == complex(m.omega_j, 0.0)
    v = asym.resonance_expansion_2d(m, p2, 1e-3)
    coeff = m.omega_j * m.mass**2 / (2 * np.pi)
    assert v.real == pytest.approx(m.omega_j + 1e-3 * np.log(1e-3) * coeff)
    assert v.imag == pytest.approx(-1e-3 * m.omega_j * m.mass**2 / 2)
    assert v.imag <= 0
    with pytest.raises(AsymptoticsError):
        asym.resonance_expansion_2d(m, params(d=3), 1e-3)


def test_expansion_1d_formulas():
    p = params(d=1, eps=1e-3)
    v = asym.resonance_expansion_1d(p, 1e-3)
    assert v.real == pytest.approx(1.0 - 2.0 / np.pi)
    assert v.imag == pytest.approx(2.0 / np.log(1e-3))
    assert v.imag < 0
    # leading real part independent of eps
    assert asym.resonance_expansion_1d(p, 1e-4).real == v.real
    with pytest.raises(AsymptoticsError):
        asym.resonance_expansion_1d(params(d=1, omega_a=0.3, eps=1e-3), 1e-3)


def test_sphere_approximation():
    p = params()
    alpha = 2.0 / np.pi
    v0 = asym.sphere_lowest_mode_approx(p, 0.0)
    assert v0.real == pytest.approx(1.0 - alpha)
    assert v0.imag == 0.0
    # Omega = alpha degenerates the formula: every correction carries a
    # factor (Omega - alpha), so the eps dependence drops entirely
    p_deg = params(omega_a=alpha)
    v = asym.sphere_lowest_mode_approx(p_deg, 0.1)
    assert abs(v.imag) < 1e-15
    assert abs(v.real - (p_deg.omega_a - alpha)) < 1e-15
    assert v == asym.sphere_lowest_mode_approx(p_deg, 0.3)


def test_bound_state_exponent():
    assert asym.bound_state_exponent_1d(
        PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=0.1, s0=np.pi / 4)) \
        == pytest.approx(1.0)
    assert asym.bound_state_exponent_1d(
        PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=0.1, s0=np.pi / 8)) \
        == pytest.approx(3.0)
    with pytest.raises(AsymptoticsError):
        asym.bound_state_exponent_1d(params(d=1, omega_a=0.3, eps=0.1))


def test_rank1_limit_matches_formula_exactly():
    p = params(d=1, eps=0.1, s0=0.7)
    op = ny.build_rank1_limit_1d(p, 0.0 + 0j, QuadratureRule.make(1.0, n_radial=24))
    ev = np.linalg.eigvals(op.matrix)
    target = p.omega_a - 0.7 * 2.0 / np.pi
    nontrivial = ev[np.argmax(np.abs(ev - p.omega_a))]
    assert abs(nontrivial - target) <= 1e-12


def test_joint_2d_expansion():
    # Im agrees to first order; the Re shift carries an O(eps) remainder
    # relative to its eps log(eps) leading term, i.e. a ~1/|log eps| gap
    p = params(d=2, eps=1e-3)
    mode = asym.limiting_modes(p, 1, QuadratureRule.make(1.0, n_radial=40))[0]
    ratios = []
    for eps in (3e-3, 1e-3):
        pe = params(d=2, eps=eps)
        rule = QuadratureRule.make(eps, n_radial=40)
        res, extra = es._solve_one_mode(pe, mode.omega_j, rule, 1e-11, 60, [])
        assert extra is not None
        pred = asym.resonance_expansion_2d(mode, pe, eps)
        assert abs(res.root.imag / pred.imag - 1.0) < 0.05
        ratios.append((res.root.real - mode.omega_j) / (pred.real - mode.omega_j))
    assert all(1.0 < q < 1.8 for q in ratios)
    assert ratios[1] < ratios[0]  # closing toward 1 as eps shrinks


def test_sphere_approximation_vs_solver():
    # Born-type point evaluation: slopes track the solver while the base
    # point overestimates the frequency shift (kernel peaked at the center)
    num, sph, eps_grid = [], [], (0.05, 0.1, 0.2)
    seed = 1.0 - 0.4985
    for eps in eps_grid:
        pe = params(eps=eps)
        rule = QuadratureRule.make(eps, n_radial=40)
        res, extra = es._solve_one_mode(pe, seed, rule, 1e-11, 60, [])
        assert extra is not None
        num.append(res.root)
        sph.append(asym.sphere_lowest_mode_approx(pe, eps))
    for a, b in zip(num, sph):
        assert b.imag < 0 and a.imag < 0
        assert 0.4 <= b.imag / a.imag <= 1.2
    # real parts decrease with eps on both routes, with similar slope
    dn = (num[-1].real - num[0].real) / (eps_grid[-1] - eps_grid[0])
    ds = (sph[-1].real - sph[0].real) / (eps_grid[-1] - eps_grid[0])
    assert dn < 0 and ds < 0
    assert abs(ds / dn - 1.0) < 0.4
    # the base-point offset stays essentially constant across the sweep
    offsets = [a.real - b.real for a, b in zip(num, sph)]
    assert max(offsets) - min(offsets) < 0.15 * np.mean(offsets)


@pytest.mark.parametrize("j", [1, 2])
def test_joint_3d_first_order(modes3, j):
    # light joint checks per mode; the full small-eps fits run in the
    # acceptance suite
    eps = 4e-3
    p = params(eps=eps)
    m = modes3[j - 1]
    rule = QuadratureRule.make(eps, n_radial=48)
    res, extra = es._solve_one_mode(p, m.omega_j, rule, 1e-12, 60, [])
    assert extra is not None
    pred = asym.resonance_expansion_3d(m, p, eps)
    assert abs(res.root.imag / pred.imag - 1.0) < 0.02
    assert abs(res.root.real - pred.real) < 5 * eps**2
