import math

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
    # the norm bound already keeps mu below 1/2 at the shallow end
    with pytest.raises(BoundStateNotFound, match="norm bound"):
        bs.solve_bound_state(square1, weak, 1, n_nodes=32)


@pytest.fixture(scope="module")
def omega_star(square1):
    return bs.solve_bound_state(square1, p1d(), 1, n_nodes=48).omega


def test_one_dimensional_square_always_binds(square1, omega_star):
    assert omega_star < 0
    mu = bs._mu_n(square1, omega_star, p1d(), 1, 48)
    assert abs(mu - 1.0) <= 1e-9


def test_bound_state_build_count(square1, monkeypatch):
    # Brent on the scan exponent needs 9 operator builds here (bracket ends included)
    calls = []
    build = bs.build_bs_operator

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(bs, "build_bs_operator", counted)
    st = bs.solve_bound_state(square1, p1d(), 1, n_nodes=48)
    assert len(calls) <= 14
    # the solver's mu at the root is the one a rebuild on a fresh rule gives
    assert st.mu == bs._mu_n(square1, st.omega, p1d(), 1, 48)
    assert abs(st.mu - 1.0) <= 1e-10


@pytest.mark.parametrize("ulps", (2, -2))
def test_bound_state_build_count_ignores_roundoff(square1, monkeypatch, ulps):
    # mu off by 2 ulp everywhere must not change how many builds Brent makes
    mu_n = bs._mu_n

    def count(shift):
        calls = []

        def shifted(*args, **kwargs):
            calls.append(1)
            mu = mu_n(*args, **kwargs)
            for _ in range(abs(shift)):
                mu = float(np.nextafter(mu, np.inf if shift > 0 else -np.inf))
            return mu

        monkeypatch.setattr(bs, "_mu_n", shifted)
        st = bs.solve_bound_state(square1, p1d(), 1, n_nodes=48)
        assert abs(st.mu - 1.0) <= 1e-10
        return len(calls)

    assert count(ulps) == count(0)


def test_crossing_below_deepest_bracket_end_rejected():
    # mu_1 = 9.5 already at omega = -1024, the deep end of the bracket
    dense = DensityProfile.square(1, 1e7, 1.0)
    with pytest.raises(BoundStateNotFound, match="deepest"):
        bs.solve_bound_state(dense, p1d(rho0=1e7), 1, n_nodes=32)


@pytest.mark.parametrize("omega_a", (1.0, 0.3))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_mu_at_deep_bracket_end_below_half(d, omega_a):
    # mu_n <= g^2 rho0 / (|omega| (Omega + |omega|)) = 1/2 at the deep end
    for rho0 in (0.5, 1.0, 4.0, 20.0):
        p = PhysicalParams(d=d, c=1.0, g=1.0, omega_a=omega_a, epsilon=1.0, rho0=rho0)
        prof = DensityProfile.square(d, rho0, 1.0)
        omega = -p.c * 2.0 ** bs.deep_end_exponent(prof, p)
        assert bs._mu_n(prof, omega, p, 1, 32) <= 0.5


def test_deep_bracket_end_of_the_unit_square(square1):
    # |omega| (Omega + |omega|) = 2 g^2 rho0 at |omega| = 1; 2^10 caps dense profiles
    assert bs.deep_end_exponent(square1, p1d()) == 0.0
    dense = DensityProfile.square(1, 1e7, 1.0)
    assert bs.deep_end_exponent(dense, p1d(rho0=1e7)) == bs.BRACKET_EXPONENTS[1]


def _recorded(f, points):
    def g(x):
        points.append(x)
        return f(x)
    return g


ANALYTIC_ROOTS = (
    (lambda x: x * x - 2.0, 0.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 3.0),
    (lambda x: math.exp(x) - 5.0, -1.0, 4.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 0.0, 3.0),
    (lambda x: (x - 1.0) ** 3, 0.0, 3.0),  # triple root: runs out of steps
    (lambda x: math.atan(x - 0.3), -1.0, 4.0),
    # the bracket half-width meets delta exactly (at xtol = 1)
    (lambda x: math.atan(x - 0.3), 0.0, 1.0),
    # an extrapolated step rejected only by 3 |sbis| - delta (at xtol = 0.2)
    (lambda x: 0.5 - x - x * x - 0.5 * x**3, -2.0, 2.0),
    # |f| ties: no swap at |f(a)| = |f(b)|, and bisection where interpolation would stall
    (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),
)


@pytest.mark.parametrize("xtol", (2e-12, 1e-3, bs.BRENT_XTOL, 0.2, 1.0),
                         ids=("2e-12", "1e-3", "BRENT_XTOL", "0.2", "1"))
@pytest.mark.parametrize("case", range(len(ANALYTIC_ROOTS)))
def test_brentq_port_matches_scipy(case, xtol):
    from scipy.optimize import brentq

    f, a, b = ANALYTIC_ROOTS[case]
    want, got = [], []
    ref = brentq(_recorded(f, want), a, b, xtol=xtol, disp=False)
    root = bs.brentq(_recorded(f, got), a, b, xtol)
    assert root.hex() == ref.hex()
    assert got == want


def test_brentq_port_matches_scipy_on_the_bound_state(square1):
    from scipy.optimize import brentq

    seen = {}

    def f(j):
        if j not in seen:
            seen[j] = bs._mu_n(square1, -2.0**j, p1d(), 1, 48) - 1.0
        return seen[j]

    a, b = bs.BRACKET_EXPONENTS[0], bs.deep_end_exponent(square1, p1d())
    want, got = [], []
    ref = brentq(_recorded(f, want), a, b, xtol=bs.BRENT_XTOL, disp=False)
    root = bs.brentq(_recorded(f, got), a, b, bs.BRENT_XTOL)
    assert root.hex() == ref.hex()
    assert got == want and len(want) == 9


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
    with pytest.raises(BoundStateNotFound, match="stays below 1"):
        bs.solve_bound_state(prof, p, 1, n_nodes=32)


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
    res = es.find_resonances(p, 1, rule=QuadratureRule.make(1.0, n_radial=40))
    assert res[0].converged
    w_muller = res[0].omega
    assert abs(w_muller.imag) <= 1e-9  # bound modes carry no width
    assert w_muller.real < 0
    w_bisect = bs.solve_bound_state(bs.DensityProfile.from_params(p), p, 1, n_nodes=40).omega
    assert abs(w_muller.real - w_bisect) <= 1e-6


def test_2d_bound_state_two_routes_agree():
    # the 2D twin of the 3D check: the deep bracket end keeps the Struve
    # series of the Birman-Schwinger builds within reach
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=0.3, epsilon=0.1, s0=1.0)
    res = es.find_resonances(p, 1, rule=QuadratureRule.make(1.0, n_radial=40))
    assert res[0].converged
    w_muller = res[0].omega
    assert abs(w_muller.imag) <= 1e-9
    assert w_muller.real < 0
    w_bisect = bs.solve_bound_state(bs.DensityProfile.from_params(p), p, 1, n_nodes=40).omega
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
    w1 = bs.solve_bound_state(prof, p, 1, n_nodes=40).omega
    w2 = bs.solve_bound_state(prof, p, 2, n_nodes=40).omega
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
        w = bs.solve_bound_state(prof, p, 1, n_nodes=40).omega
        gaps.append(abs(w - target))
    inv_log = [1.0 / abs(np.log(e)) for e in eps_list]
    assert gaps[0] > gaps[1] > gaps[2]
    ratios = [g / il for g, il in zip(gaps, inv_log)]
    assert max(ratios) < 3.0 * min(ratios)  # gap ~ C / |log eps|
