import math
from dataclasses import replace

import numpy as np
import pytest

from photon_resonance import boundstates as bs, eigensolver as es, nystrom as ny
from photon_resonance.boundstates import BoundStateNotFound
from photon_resonance.nystrom import PhysicalParams, QuadratureRule

import oracle_utils as orc


def unit(n):
    return QuadratureRule.make(1.0, n_radial=n)


def p1d(rho0=1.0, omega_a=1.0, half_width=1.0):
    return PhysicalParams(d=1, c=1.0, g=1.0, omega_a=omega_a, epsilon=half_width, rho0=rho0)


def square(d, rho0, half_width, **kw):
    """rho0 on the cube [-half_width, half_width]^d, as the CLI solves it:
    on the ball of equal volume."""
    base = dict(d=d, c=1.0, g=1.0, omega_a=1.0,
                epsilon=bs.equal_volume_radius(d, half_width), rho0=rho0)
    base.update(kw)
    return PhysicalParams(**base)


def test_profile_validation():
    with pytest.raises(ValueError):
        p1d(rho0=-1.0)
    # equal-volume disk for the square [-R, R]^2; the interval itself in 1D
    assert bs.equal_volume_radius(2, 1.0) == pytest.approx(2.0 / np.sqrt(np.pi))
    assert bs.equal_volume_radius(3, 1.0) == pytest.approx((6.0 / np.pi) ** (1.0 / 3.0))
    assert bs.equal_volume_radius(1, 0.37) == 0.37


def test_bs_operator_symmetric_positive():
    B, asymmetry = bs.build_bs_operator(p1d(), -0.5, unit(48))
    assert np.max(np.abs(B - B.T)) <= 1e-12
    assert asymmetry < 1e-3  # pre-symmetrization, discretization scale
    ev = np.linalg.eigvalsh(B)
    assert np.all(ev >= -1e-10)
    with pytest.raises(ValueError):
        bs.build_bs_operator(p1d(), 0.5, unit(48))


def test_norm_vanishes_deep_below():
    mu_deep = bs.mu_spectrum(bs.build_bs_operator(p1d(), -100.0, unit(40))[0], 1)[0]
    mu_ref = bs.mu_spectrum(bs.build_bs_operator(p1d(), -1.0, unit(40))[0], 1)[0]
    assert mu_deep < 0.01 * mu_ref


def test_mu_monotone_decreasing_in_depth():
    mus = [bs._mu_n(p1d(), w, 1, unit(40)) for w in (-0.1, -0.5, -1.0, -2.0)]
    assert all(a > b for a, b in zip(mus, mus[1:]))


def test_mu_spectrum_shape():
    B, _ = bs.build_bs_operator(p1d(), -0.5, unit(40))
    mu = bs.mu_spectrum(B, 4)
    assert len(mu) == 4 and np.all(np.diff(mu) <= 0)
    with pytest.raises(ValueError):
        bs.mu_spectrum(B, 0)


def test_density_monotonicity():
    # rho1 <= rho2 pointwise implies mu1 ordering
    small = p1d(rho0=0.5, half_width=0.8)
    large = p1d(rho0=1.0, half_width=0.8)
    m_small = bs._mu_n(small, -0.4, 1, unit(40))
    m_large = bs._mu_n(large, -0.4, 1, unit(40))
    assert m_small <= m_large + 1e-10


def test_tiny_coupling_has_no_bound_states():
    weak = PhysicalParams(d=1, c=1.0, g=1e-4, omega_a=1.0, epsilon=1.0, rho0=1.0)
    assert bs.count_bound_states_below(weak, -0.5, unit(32)) == 0
    # the norm bound already keeps mu below 1/2 at the shallow end
    with pytest.raises(BoundStateNotFound, match="norm bound"):
        bs.solve_bound_state(weak, 1, unit(32))


@pytest.fixture(scope="module")
def omega_star():
    return bs.solve_bound_state(p1d(), 1, unit(48)).omega


def test_one_dimensional_square_always_binds(omega_star):
    assert omega_star < 0
    mu = bs._mu_n(p1d(), omega_star, 1, unit(48))
    assert abs(mu - 1.0) <= 1e-9


def test_bound_state_build_count(monkeypatch):
    # Brent on the scan exponent needs 9 operator builds here (bracket ends included)
    calls = []
    build = bs.build_bs_operator

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(bs, "build_bs_operator", counted)
    st = bs.solve_bound_state(p1d(), 1, unit(48))
    assert len(calls) <= 14
    # the solver's mu at the root is the one a rebuild on a fresh rule gives
    assert st.mu == bs._mu_n(p1d(), st.omega, 1, unit(48))
    assert abs(st.mu - 1.0) <= 1e-10


def test_bound_state_builds_its_moment_stack_in_one_pass(monkeypatch):
    # configs/bound_states_1d.cfg: the deep bracket end builds the moment
    # stack, W_sing (kind 0) and its 37 rows, which every later build reads;
    # omega and mu are those of the shallow end first, whose stack grew in
    # two passes
    shapes = []
    build = ny.build_kernel_matrix

    def counted(*args):
        W = build(*args)
        shapes.append(W.shape)
        return W

    monkeypatch.setattr(ny, "build_kernel_matrix", counted)
    one_pass = bs.solve_bound_state(p1d(), 1, unit(48))
    assert shapes == [(38, 48, 48)]
    rule = unit(48)
    shapes.clear()
    bs._mu_n(p1d(), -2.0 ** bs.BRACKET_EXPONENTS[0], 1, rule)  # the shallow end first
    two_passes = bs.solve_bound_state(p1d(), 1, rule)
    assert shapes == [(5, 48, 48), (33, 48, 48)]
    assert (two_passes.omega, two_passes.mu) == (one_pass.omega, one_pass.mu)


@pytest.mark.parametrize("ulps", (2, -2))
def test_bound_state_build_count_ignores_roundoff(monkeypatch, ulps):
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
        st = bs.solve_bound_state(p1d(), 1, unit(48))
        assert abs(st.mu - 1.0) <= 1e-10
        return len(calls)

    assert count(ulps) == count(0)


def test_crossing_below_deepest_bracket_end_rejected():
    # mu_1 = 9.5 already at omega = -1024, the deep end of the bracket
    with pytest.raises(BoundStateNotFound, match="deepest"):
        bs.solve_bound_state(p1d(rho0=1e7), 1, unit(32))


@pytest.mark.parametrize("omega_a", (1.0, 0.3))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_mu_at_deep_bracket_end_below_half(d, omega_a):
    # mu_n <= g^2 rho0 / (|omega| (Omega + |omega|)) = 1/2 at the deep end
    for rho0 in (0.5, 1.0, 4.0, 20.0):
        p = square(d, rho0, 1.0, omega_a=omega_a)
        omega = -p.c * 2.0 ** bs.deep_end_exponent(p)
        assert bs._mu_n(p, omega, 1, unit(32)) <= 0.5


def test_deep_bracket_end_of_the_unit_square():
    # |omega| (Omega + |omega|) = 2 g^2 rho0 at |omega| = 1; 2^10 caps dense profiles
    assert bs.deep_end_exponent(p1d()) == 0.0
    assert bs.deep_end_exponent(p1d(rho0=1e7)) == bs.BRACKET_EXPONENTS[1]


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
    # f exactly 0 at a bracket end: that end is the root
    (lambda x: x - 1.0, 1.0, 3.0),
    (lambda x: x - 3.0, 1.0, 3.0),
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


def test_brentq_port_matches_scipy_on_the_bound_state():
    from scipy.optimize import brentq

    seen = {}

    def f(j):
        if j not in seen:
            seen[j] = bs._mu_n(p1d(), -2.0**j, 1, unit(48)) - 1.0
        return seen[j]

    a, b = bs.BRACKET_EXPONENTS[0], bs.deep_end_exponent(p1d())
    want, got = [], []
    ref = brentq(_recorded(f, want), a, b, xtol=bs.BRENT_XTOL, disp=False)
    root = bs.brentq(_recorded(f, got), a, b, bs.BRENT_XTOL)
    assert root.hex() == ref.hex()
    assert got == want and len(want) == 9


def test_necessary_condition(omega_star):
    p = p1d()
    lhs = p.g**2 * p.density
    assert lhs >= omega_star * (omega_star - p.omega_a)


def test_full_operator_equivalence(omega_star):
    # the located Birman-Schwinger crossing annihilates the full operator
    p = p1d()
    M, _ = ny.build_full_operator(p, complex(omega_star), QuadratureRule.make(1.0, n_radial=48))
    lam, _ = es.characteristic_value(M)
    assert abs(lam) <= 1e-6


def test_subcritical_2d_has_no_crossings():
    # 2 g^2 rho0 R / (Omega c) = 2 * 0.5 * 2/sqrt(pi) = 1.128 < S_2 = 1.772
    p = square(2, 0.5, 1.0)
    assert 2 * p.g**2 * p.density * p.epsilon / (p.omega_a * p.c) < bs.sobolev_threshold(2)
    for w in (-0.02, -0.2, -1.0, -5.0):
        assert bs.count_bound_states_below(p, w, unit(32)) == 0
    with pytest.raises(BoundStateNotFound, match="stays below 1"):
        bs.solve_bound_state(p, 1, unit(32))


def test_sobolev_threshold_values():
    assert bs.sobolev_threshold(2) == pytest.approx(0.5 * np.sqrt(4 * np.pi), rel=1e-12)
    assert bs.sobolev_threshold(2) == pytest.approx(1.7725, abs=1e-4)
    assert bs.sobolev_threshold(3) == pytest.approx((2 * np.pi**2) ** (1.0 / 3.0), rel=1e-12)
    vals = [bs.sobolev_threshold(d) for d in (2, 3, 4)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(ValueError):
        bs.sobolev_threshold(1)


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
    w_bisect = bs.solve_bound_state(p, 1, unit(40)).omega
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
    w_bisect = bs.solve_bound_state(p, 1, unit(40)).omega
    assert abs(w_muller.real - w_bisect) <= 1e-6


def test_2d_negative_branch_operator_real():
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=0.5, rho0=2.0)
    M, _ = ny.build_full_operator(p, -0.7 + 0j, QuadratureRule.make(0.5, n_radial=24))
    assert np.max(np.abs(M.imag)) <= 1e-12


def test_second_mode_crossing_strong_coupling():
    # a strong density binds several modes; their frequencies are ordered
    p = p1d(rho0=30.0)
    assert bs.count_bound_states_below(p, -1e-3, unit(40)) >= 2
    w1 = bs.solve_bound_state(p, 1, unit(40)).omega
    w2 = bs.solve_bound_state(p, 2, unit(40)).omega
    assert w1 < w2 < 0
    # mode 2 is odd: its mu is the second of the spectrum merged over both blocks
    assert abs(bs._mu_n(p, w2, 2, unit(40)) - 1.0) <= 1e-9


def _blocks(p, omega, rule):
    # the symmetric matrices of K_omega's even and odd blocks in 1D; the odd
    # block is the 3D s-wave operator of the same density
    odd = replace(p, d=3, rho0=p.density, s0=None)
    return [bs.build_bs_operator(q, omega, rule)[0] for q in (p, odd)]


@pytest.mark.parametrize("rho0", (1.0, 30.0))
@pytest.mark.parametrize("omega", (-0.05, -0.5, -3.0))
def test_one_dimensional_mode_1_is_even(rho0, omega):
    # the negative-branch kernel is positive, so the top eigenfunction is
    # positive, hence even: the even block alone gives mu_1
    even, odd = _blocks(p1d(rho0=rho0), omega, unit(48))
    assert bs.mu_spectrum(even, 1)[0] > bs.mu_spectrum(odd, 1)[0]


def test_one_dimensional_count_takes_both_parities():
    # 19 bound states below -1e-3 at rho0 = 30: the even count plus the odd one
    p = p1d(rho0=30.0)
    even, odd = _blocks(p, -1e-3, unit(40))
    counts = [int(np.count_nonzero(np.linalg.eigvalsh(B) >= 1.0)) for B in (even, odd)]
    assert bs.count_bound_states_below(p, -1e-3, unit(40)) == sum(counts) == 19
    assert counts[1] > 0


def test_mu_n_reaches_every_mode_of_both_1d_blocks():
    # mu_n of n > N takes what it needs from each block, as a CLI run with
    # up to 2 N modes on an N-node rule asks
    rule = unit(8)
    even, odd = _blocks(p1d(), -0.5, rule)
    merged = np.sort(np.concatenate([np.linalg.eigvalsh(B) for B in (even, odd)]))[::-1]
    for n in (len(rule.nodes) + 1, 2 * len(rule.nodes)):
        assert bs._mu_n(p1d(), -0.5, n, rule) == merged[n - 1], n


def test_eps_sweep_on_one_rule_matches_a_rule_per_eps(monkeypatch):
    # two eps of the 1D log-scaled density, as scripts/run_bound_exponent.py
    # sweeps them: one shared unit-domain rule gives the (omega, mu) of a
    # fresh rule per eps, bit for bit, and builds W_sing once: a kind-0
    # build subtracts the gap term (nystrom._k0_gap), which only the kernel
    # route, not taken here, calls besides
    sweep = [PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=np.pi / 4)
             for eps in (1e-2, 3e-3)]
    fresh = [bs.solve_bound_state(p, 1, unit(40)) for p in sweep]
    k0_builds = []
    k0_gap = ny._k0_gap

    def counted(*args):
        k0_builds.append(args[0])
        return k0_gap(*args)

    monkeypatch.setattr(ny, "_k0_gap", counted)
    rule = unit(40)
    shared = [bs.solve_bound_state(p, 1, rule) for p in sweep]
    assert [(st.omega, st.mu) for st in shared] == [(st.omega, st.mu) for st in fresh]
    assert k0_builds == [rule]


def test_one_dimensional_modes_converged_at_48_nodes():
    # modes 1 (even) and 2 (odd) of rho0 = 30 at N = 48 against N = 192
    # (measured 6.9e-10 and 4.4e-9 relative)
    p = p1d(rho0=30.0)
    for n in (1, 2):
        coarse, fine = (bs.solve_bound_state(p, n, unit(nodes)).omega for nodes in (48, 192))
        assert abs(coarse - fine) <= 1e-8 * abs(fine), n


def test_scaled_1d_matches_log_limit_real_part():
    # Omega - g^2 s0 |B1|/(pi c) < 0: omega* approaches it at rate O(1/log eps)
    target = 0.3 - 2.0 / np.pi
    gaps = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        p = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=0.3, epsilon=eps, s0=1.0)
        w = bs.solve_bound_state(p, 1, unit(40)).omega
        gaps.append(abs(w - target))
    inv_log = [1.0 / abs(np.log(e)) for e in eps_list]
    assert gaps[0] > gaps[1] > gaps[2]
    ratios = [g / il for g, il in zip(gaps, inv_log)]
    assert max(ratios) < 3.0 * min(ratios)  # gap ~ C / |log eps|
