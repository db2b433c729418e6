import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_resonance import asymptotics, boundstates, greens, nystrom as ny
from photon_resonance.greens import Branch, WaveNumber
from photon_resonance.nystrom import PhysicalParams, QuadratureRule

import oracle_utils as orc

# frozen: adaptive angular quadrature of the d=3, k=0 shell average at (0.5, 1.0)
RED3_ZERO_HALF_ONE = 0.6993983051321195


def params3(eps=0.1, **kw):
    base = dict(d=3, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=1.0)
    base.update(kw)
    return PhysicalParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(d=4, c=1, g=1, omega_a=1, epsilon=0.1, s0=1)
    with pytest.raises(ValueError):
        PhysicalParams(d=3, c=1, g=1, omega_a=1, epsilon=0.1)          # neither density
    with pytest.raises(ValueError):
        PhysicalParams(d=3, c=1, g=1, omega_a=1, epsilon=0.1, s0=1, rho0=1)  # both
    with pytest.raises(ValueError):
        PhysicalParams(d=1, c=1, g=1, omega_a=1, epsilon=1.5, s0=1)    # needs eps < 1
    p = PhysicalParams(d=1, c=1, g=1, omega_a=1, epsilon=0.1, s0=1.0)
    assert p.density == pytest.approx(-1.0 / (0.1 * np.log(0.1)))
    assert params3().density == pytest.approx(10.0)
    assert params3(s0=None, rho0=10.0).s0_effective == pytest.approx(1.0)
    # d = 1 given rho0: s0 = -rho0 eps log eps, and back through s0 to rho0
    p = PhysicalParams(d=1, c=1, g=1, omega_a=1, epsilon=0.05, rho0=3.0)
    assert p.s0_effective == pytest.approx(0.4493598410330987, rel=1e-15)
    assert replace(p, rho0=None, s0=p.s0_effective).density == pytest.approx(3.0, rel=1e-15)


def test_rule_invariants():
    rule = QuadratureRule.make(0.3, n_radial=64)
    assert np.all(rule.weights > 0)
    assert len(rule.nodes) >= 8
    # total volume weight equals |B_eps|
    for d in (1, 2, 3):
        w = greens.surface_measure(d) * rule.weights * rule.nodes ** (d - 1)
        vol = greens.ball_volume(d, 0.3)
        assert abs(w.sum() - vol) <= 1e-12 * vol
    with pytest.raises(ValueError):
        QuadratureRule.make(1.0, n_radial=4)


def test_row_quadrature_resolves_log_singularity():
    rule = QuadratureRule.make(1.0, n_radial=48)
    r0 = float(rule.nodes[17])
    t, v = rule.row_quadrature(r0)
    val = np.sum(v * np.log(np.abs(t - r0)) * np.exp(t))
    from scipy.integrate import quad
    f = lambda x: np.log(abs(x - r0)) * np.exp(x)
    exact = quad(f, 0, r0, epsabs=1e-13, limit=400)[0] + \
        quad(f, r0, 1, epsabs=1e-13, limit=400)[0]
    assert abs(val - exact) < 1e-9


def test_interpolation_exactness():
    rule = QuadratureRule.make(1.0, n_radial=64)
    t = np.linspace(1e-3, 0.999, 211)
    B = rule.interp_matrix(t)
    assert np.max(np.abs(B @ np.exp(rule.nodes) - np.exp(t))) < 1e-13
    # exact hit on a node
    B2 = rule.interp_matrix(rule.nodes[5:6])
    e = np.zeros(len(rule.nodes))
    e[5] = 1.0
    assert np.allclose(B2[0], e)


def _node_kernel(r0, t):
    return np.exp(1j * r0 * t)


def _rule_with_a_point_on_a_node(monkeypatch):
    # make(1, 16) whose row quadratures each end on panel 0 in one more
    # piece: a one-point Gauss rule, of width 0.01, centred on node 3
    row_pieces = QuadratureRule._row_pieces

    def with_node(self, p, r0):
        lo, hi, n, pieces = row_pieces(self, p, r0)
        first = np.broadcast_to(np.asarray(p) == 0, pieces.shape)
        at = np.cumsum(pieces)[first]
        x = self.nodes[3]
        return (np.insert(lo, at, x - 0.005), np.insert(hi, at, x + 0.005),
                np.insert(n, at, 1), pieces + first)

    monkeypatch.setattr(QuadratureRule, "_row_pieces", with_node)
    rule = QuadratureRule.make(1.0, n_radial=16)
    assert rule.panel_batches()[0].exact is not None
    return rule


def test_build_with_a_point_on_a_node(monkeypatch):
    # a quadrature point that equals base node 3 adds its weight times the
    # kernel there to column 3 and nothing to the other columns
    plain = ny.build_kernel_matrix(QuadratureRule.make(1.0, n_radial=16), _node_kernel, 0)
    rule = _rule_with_a_point_on_a_node(monkeypatch)
    W = ny.build_kernel_matrix(rule, _node_kernel, 0)
    plain[:, 3] += 0.01 * _node_kernel(rule.nodes, rule.nodes[3])
    assert _rel(W, plain) <= 1e-14


def test_reduced_kernel_3d_zero_branch_oracle():
    val = orc.reduced_kernel(3, 0.0, 0.5, 1.0)
    assert abs(val - RED3_ZERO_HALF_ONE) <= 1e-8 * RED3_ZERO_HALF_ONE


def test_reduced_kernel_3d_outgoing_oracle():
    k = 1.3
    g3 = lambda rho: greens.green(3, WaveNumber.outgoing(k), rho)
    ref = orc.green_reduced_3d_oracle(k, g3, 0.4, 0.9)
    val = orc.reduced_kernel(3, k, 0.4, 0.9)
    assert abs(val - ref) <= 1e-8 * abs(ref)


def test_reduced_kernel_2d_outgoing_oracle():
    # exact reduction against adaptive quadrature
    from scipy.integrate import quad
    k, r, rp = 0.8, 0.35, 0.8
    def f(th, part):
        rho = np.sqrt(r * r + rp * rp - 2 * r * rp * np.cos(th))
        v = greens.green(2, WaveNumber.outgoing(k), rho)
        return v.real if part == 0 else v.imag
    re = quad(f, 0, 2 * np.pi, args=(0,), epsabs=1e-11, limit=400)[0]
    im = quad(f, 0, 2 * np.pi, args=(1,), epsabs=1e-11, limit=400)[0]
    val = orc.reduced_kernel(2, k, r, rp)
    assert abs(val - complex(re, im)) <= 1e-8 * abs(val)
    assert abs(val.imag) > 1e-3  # outgoing branch carries an imaginary part


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_reduced_kernel_symmetry(r, rp):
    if abs(r - rp) < 1e-3:
        return
    for d in (1, 3):
        a = orc.reduced_kernel(d, 0.7, r, rp)
        b = orc.reduced_kernel(d, 0.7, rp, r)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_full_operator_real_for_negative_omega():
    p = params3(0.2)
    rule = QuadratureRule.make(0.2, n_radial=32)
    M, _ = ny.build_full_operator(p, -0.7 + 0j, rule)
    assert np.max(np.abs(M.imag)) <= 1e-12
    with pytest.raises(greens.GreensDomainError):
        ny.build_full_operator(p, 1j, rule)


def test_full_operator_refinement_stability():
    # smallest-magnitude eigenvalue stable to 1e-6 under N -> 2N
    p = params3(0.1)
    vals = []
    for n in (32, 64):
        rule = QuadratureRule.make(0.1, n_radial=n)
        M, _ = ny.build_full_operator(p, 0.5 * p.omega_a + 0j, rule)
        ev = np.linalg.eigvals(M)
        vals.append(ev[np.argmin(np.abs(ev))])
    assert abs(vals[0] - vals[1]) <= 1e-6


def test_scaled_operator_approaches_limit():
    # || M_eps - M_0 || = O(eps) in the weighted similarity norm, d = 3
    p0 = params3()
    n = 32
    unit = QuadratureRule.make(1.0, n_radial=n)
    omega = 0.5 + 0j
    m_limit, _ = orc.build_limiting_operator(p0, omega, unit)
    S = np.sqrt(greens.surface_measure(3) * unit.weights * unit.nodes**2)
    norms = []
    eps_list = (2e-2, 1e-2, 5e-3)
    for eps in eps_list:
        pe = params3(eps)
        rule = QuadratureRule.make(eps, n_radial=n)
        m_eps, _ = ny.build_full_operator(pe, omega, rule)
        diff = S[:, None] * (m_eps - m_limit) / S[None, :]
        norms.append(np.linalg.norm(diff, 2))
    slope = orc.loglog_slope(eps_list, norms)
    assert 0.75 <= slope <= 1.3, (norms, slope)


def test_limiting_norm_regression_pin():
    # ||L0|| on the 3D unit ball at unit coupling, pinned at the converged
    # value (stable to ~3e-10 under node doubling)
    p = params3()
    rule = QuadratureRule.make(1.0, n_radial=48)
    _, _, B = asymptotics.limiting_spectrum(p, 1, rule)
    mu1 = np.linalg.eigvalsh(B)[-1]
    assert mu1 == pytest.approx(0.4984749079, abs=1e-8)


def test_limiting_operator_spectrum_structure():
    p = params3()
    rule = QuadratureRule.make(1.0, n_radial=48)
    L0, weights = orc.limiting_matrix(p, rule)
    S = np.sqrt(weights)
    A = S[:, None] * L0 / S[None, :]
    assert np.max(np.abs(A - A.T)) < 1e-3      # similarity-symmetric up to quadrature error
    mu, U = np.linalg.eigh(0.5 * (A + A.T))
    assert np.all(mu >= -1e-10)                # positive operator
    mu_desc = mu[::-1]
    assert np.all(np.diff(mu_desc[:10]) < 0)   # decreasing to zero
    # omega_j = Omega - mu_j increase toward Omega
    w = p.omega_a - mu_desc[:6]
    assert np.all(np.diff(w) > 0) and np.all(w < p.omega_a)
    # lowest mode simple with one-signed eigenvector
    psi = U[:, -1] / S
    assert mu_desc[0] - mu_desc[1] > 1e-3
    assert np.all(psi > 0) or np.all(psi < 0)


def test_rank1_limit_1d():
    p = PhysicalParams(d=1, c=1, g=1, omega_a=1, epsilon=0.1, s0=1.0)
    rule = QuadratureRule.make(1.0, n_radial=32)
    M, _ = orc.build_rank1_limit_1d(p, 0.0 + 0j, rule)
    ev, V = np.linalg.eig(M)
    # single nontrivial eigenvalue at -(0 - Omega) - g^2 s0 |B1|/(pi c)
    target = asymptotics.limiting_frequency_1d(p)
    nontriv = ev[np.argmax(np.abs(ev - p.omega_a))]
    assert abs(nontriv - target) < 1e-12
    # constant vector is the eigenvector
    ones = np.ones(len(rule.nodes))
    out = M @ ones
    assert np.max(np.abs(out - target * ones)) < 1e-12
    # zero-mean vectors sit in the kernel of the integral part
    w_even = 2.0 * rule.weights
    v = np.sin(np.pi * rule.nodes)
    v = v - (w_even * v).sum() / w_even.sum()
    assert abs((w_even * v).sum()) < 1e-14
    integral_part = M - p.omega_a * np.eye(len(ones))
    assert np.max(np.abs(integral_part @ v)) < 1e-13
    with pytest.raises(ValueError):
        orc.build_rank1_limit_1d(params3(), 0.0)


def test_operator_norm_weights_and_dot():
    p = params3(0.3)
    rule = QuadratureRule.make(0.3, n_radial=32)
    _, weights = ny.build_full_operator(p, -0.5 + 0j, rule)
    ones = np.ones(len(rule.nodes))
    vol = greens.ball_volume(3, 0.3)
    assert np.sqrt(np.sum(weights * ones**2)) == pytest.approx(np.sqrt(vol))
    assert np.sum(weights) == pytest.approx(vol)


# max |W(k; eps) - eps W(eps k; 1)| / max |W| at N = 48.  d = 1 is looser:
# its k = 0 kernel -(log rho + gamma) / pi gains a log eps on an eps rule,
# where the open 2^-GAP_LEVELS gap of W_sing drops part of it, while on the
# unit rule log eps sits in W_reg(eps k), which the row quadratures
# integrate up to the node (measured <= 1.5e-10 for d = 1, <= 3.6e-14 for
# d = 2, 3)
HOMOGENEITY_TOL = {1: 2e-10, 2: 1e-13, 3: 1e-13}


@pytest.fixture(scope="module")
def unit48():
    return QuadratureRule.make(1.0, n_radial=48)


@pytest.mark.parametrize("eps", (0.2, 0.025))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_kernel_matrix_is_homogeneous_in_eps(d, eps, unit48):
    # |k| = 12 takes the G1 kernel route at eps = 0.2; the rest the moment route
    rule = QuadratureRule.make(eps, n_radial=48)
    for branch, phase in ((Branch.NEGATIVE, -1.0), (Branch.OUTGOING, 1.0 - 0.01j),
                          (Branch.INCOMING, 1.0 + 0.01j)):
        for k in (1.0 * phase, 12.0 * phase):
            W = ny.build_split_matrix(rule, d, k, branch)
            scaled = eps * ny.build_split_matrix(unit48, d, eps * k, branch)
            assert np.max(np.abs(scaled - W)) <= HOMOGENEITY_TOL[d] * np.max(np.abs(W)), (branch, k)


@pytest.mark.parametrize("d, omega", ((1, 0.7 - 0.05j), (2, 0.1 - 0.02j), (3, 0.5 - 0.001j)))
def test_full_operator_on_unit_rule_matches_eps_rule(d, omega, unit48):
    for eps in (0.2, 0.025):
        p = PhysicalParams(d=d, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=0.3)
        direct, direct_weights = ny.build_full_operator(p, omega, QuadratureRule.make(eps, n_radial=48))
        scaled, scaled_weights = ny.build_full_operator(p, omega, unit48)
        shift = (omega - p.omega_a) * np.eye(48)  # M + shift = -pref W
        tol = HOMOGENEITY_TOL[d] * np.max(np.abs(direct + shift))
        assert np.max(np.abs(scaled - direct)) <= tol, eps
        # the norm weights are the physical ones on B_eps
        assert np.max(np.abs(scaled_weights / direct_weights - 1.0)) <= 1e-14


def _bs_on_eps_rule(p, omega):
    # K_omega = A(omega) / (Omega + |omega|), A = (g^2 rho0 / c) W, built on
    # the rule of radius eps itself, with no rescaling
    rule = QuadratureRule.make(p.epsilon, n_radial=48)
    A = p.g**2 * p.density / p.c * ny.build_split_matrix(rule, p.d, omega / p.c, Branch.NEGATIVE)
    return ny.weighted_symmetrize(A.real / (p.omega_a + abs(omega)), ny.volume_weights(p.d, rule))[0]


@pytest.mark.parametrize("block", ("1d even", "1d odd", "2d", "3d"))
def test_bound_state_operator_on_unit_rule_matches_eps_rule(block, unit48):
    # omega = -10 takes the kernel route at eps = 0.5 (the Struve series at
    # |kappa| 2R = 10 in 2D), the rest the moment route; at eps = 1 the two
    # rules are alike and K_omega is the same bit for bit
    d = int(block[0])
    ref_d = 3 if block == "1d odd" else d  # the odd block is the 3D s-wave operator
    for eps in (1.0, 0.5, 0.1):
        p = PhysicalParams(d=d, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, rho0=2.0)
        for omega in (-0.5, -10.0):
            K = boundstates.build_bs_operator(replace(p, d=ref_d), omega, unit48)[0]
            ref = _bs_on_eps_rule(replace(p, d=ref_d), omega)
            if eps == 1.0:
                assert np.array_equal(K, ref), omega
            else:
                err = np.max(np.abs(K - ref)) / np.max(np.abs(ref))
                assert err <= HOMOGENEITY_TOL[ref_d], (eps, omega)


# (dimension, reduced kernel family, rule factory) for each split build; the
# measure power is d - 1
SPLIT_CASES = {
    "1d-even": (1, ny.kernel_1d, lambda n: QuadratureRule.make(1.0, n_radial=n)),
    "2d": (2, ny.kernel_2d_singular, lambda n: QuadratureRule.make(0.1, n_radial=n)),
    "3d": (3, ny.kernel_3d_reduced, lambda n: QuadratureRule.make(0.1, n_radial=n)),
}
SPLIT_WAVENUMBERS = ((0.8 - 0.01j, Branch.OUTGOING), (-0.7, Branch.NEGATIVE))


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _gap(rule, family, power):
    # the k = 0 kernel on the open gaps next to each node, as the split
    # build sums it (nystrom._k0_gap)
    r0, t, v = rule.gap_quadrature()
    return (family(0.0, Branch.ZERO)(r0, t) * v * t**power).reshape(len(rule.nodes), -1).sum(axis=1)


def _struve_share(rule, k, branch):
    # the entire Struve component, which a 2D split build adds with the plain
    # rule, from fresh moments: the same values as the rule's cached ones
    return ny.kernel_2d_struve(k, branch, rule.nodes, rule.nodes, []) * rule.weights * rule.nodes


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_build_matches_one_piece(case):
    # W_sing + W_reg(k) against the whole kernel on the same rule, less the
    # k = 0 kernel's open gaps next to each node, which W_sing leaves out; a
    # 2D split build adds the Struve component, taken out here
    d, family, make = SPLIT_CASES[case]
    power = d - 1
    for n in (48, 96):
        rule = make(n)
        gap = np.diag(_gap(rule, family, power))
        for k, branch in SPLIT_WAVENUMBERS:
            one_piece = ny.build_kernel_matrix(rule, family(k, branch), power) - gap
            split = ny.build_split_matrix(rule, d, k, branch)
            if d == 2:
                split -= _struve_share(rule, k, branch)
            assert _rel(split, one_piece) <= 1e-10, (n, branch)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_panel_assembly_matches_per_row_reference(case):
    # each row integrated on its own quadrature through interp_matrix; the
    # k = 0 kernels (kernel_a0_reduced in 2D and 3D) and the others on the
    # one rule, as a split build uses them
    d, family, make = SPLIT_CASES[case]
    power = d - 1
    for n in (48, 96):
        rule = make(n)
        for k, branch in ((0.0, Branch.ZERO),) + SPLIT_WAVENUMBERS:
            kernel = family(k, branch)
            ref = []
            for r0 in rule.nodes:
                t, v = rule.row_quadrature(r0)
                ref.append((kernel(r0, t) * v * t**power) @ rule.interp_matrix(t))
            assert _rel(ny.build_kernel_matrix(rule, kernel, power), np.array(ref)) <= 1e-14, (n, branch)


def _deeper(make, n, monkeypatch):
    # the rule with two more dyadic levels before every log tail
    with monkeypatch.context() as m:
        m.setattr(ny, "TAIL_REACH", ny.TAIL_REACH / 4)
        rule = make(n)
        rule.panel_batches()
    return rule


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_regular_part_converged_in_levels(case, monkeypatch):
    # the k-dependent remainder kernel(k) - kernel(0) of a split build, and
    # W_sing, against a rule with two more levels before every log tail
    d, family, make = SPLIT_CASES[case]
    power = d - 1
    for n in (48, 96):
        rule, deeper = make(n), _deeper(make, n, monkeypatch)
        assert sum(len(b.t) for b in deeper.panel_batches()) > sum(len(b.t) for b in rule.panel_batches())
        w_sing, w_sing_ref = (ny.build_split_matrix(r, d, 0.0, Branch.ZERO) for r in (rule, deeper))
        assert _rel(w_sing, w_sing_ref) <= 1e-13, n
        for k, branch in SPLIT_WAVENUMBERS:
            def remainder(r0, t):
                return family(k, branch)(r0, t) - family(0.0, Branch.ZERO)(r0, t)
            w_reg = ny.build_kernel_matrix(rule, remainder, power)
            w_ref = ny.build_kernel_matrix(deeper, remainder, power)
            assert _rel(w_reg, w_ref) <= 1e-13, (n, branch)


def test_second_build_skips_k0_kernel(monkeypatch):
    rule = QuadratureRule.make(0.1, n_radial=48)
    points, k0_points = [], []
    build, a0 = ny.build_kernel_matrix, ny.kernel_a0_reduced

    def counted_build(rule, kernel, *args, **kwargs):
        def kern(r0, t):
            points.append(len(t))
            return kernel(r0, t)
        return build(rule, kern, *args, **kwargs)

    def counted_a0(d):
        kernel = a0(d)

        def kern(r0, t):
            k0_points.append(len(t))
            return kernel(r0, t)
        return kern

    interp_calls = []
    interp = QuadratureRule.interp_matrix

    def counted_interp(*args, **kwargs):
        interp_calls.append(1)
        return interp(*args, **kwargs)

    monkeypatch.setattr(ny, "build_kernel_matrix", counted_build)
    monkeypatch.setattr(ny, "kernel_a0_reduced", counted_a0)
    monkeypatch.setattr(QuadratureRule, "interp_matrix", counted_interp)
    ny.build_full_operator(params3(0.1), 0.5 - 0.001j, rule)
    assert k0_points  # the first build assembles the k = 0 part
    one_piece = sum(len(rule.row_quadrature(r0)[0]) for r0 in rule.nodes)
    points.clear()
    k0_points.clear()
    ny.build_full_operator(params3(0.1), 0.8 - 0.001j, rule)
    assert k0_points == []
    assert sum(points) <= one_piece  # one pass over the rule's points: the grown moment rows
    assert len(points) <= len(rule.counts)  # one kernel call per base panel
    assert interp_calls == []


def test_non_finite_kernel_names_the_pair():
    rule = QuadratureRule.make(1.0, n_radial=16)
    r_bad = float(rule.nodes[5])
    t_bad = float(rule.row_quadrature(r_bad)[0][7])

    def kernel(r0, t):
        return np.where((r0 == r_bad) & (t == t_bad), np.nan, 1.0)

    with pytest.raises(ny.NystromError) as err:
        ny.build_kernel_matrix(rule, kernel, 0)
    assert f"r={r_bad!r}, r'={t_bad!r}" in str(err.value)
    with pytest.raises(ny.NystromError) as err, np.errstate(invalid="ignore"):  # 0 / 0 at r' = 0
        ny.kernel_3d_reduced(0.8, Branch.OUTGOING)(np.array([0.3, 0.5]), np.array([0.2, 0.0]))
    assert "r=0.5, r'=0.0" in str(err.value)


def test_struve_moments_against_mpmath():
    # the cached moments <rho^(2j+1)> / D^(2j+1), D = 2 r_max: the diagonal
    # (m = 1), the nearest neighbours (m closest to 1) and four full rows
    import mpmath as mp
    rule = QuadratureRule.make(1.0, n_radial=48)
    r = rule.nodes
    n = len(r)
    moments = []
    ny.kernel_2d_struve(6.0, Branch.OUTGOING, r, r, moments)
    assert len(moments) > 20
    pairs = ({(a, a) for a in range(n)} | {(a, a + 1) for a in range(n - 1)}
             | {(a, b) for a in (0, n // 3, 2 * n // 3, n - 1) for b in range(n)})
    D = mp.mpf(2 * r.max())
    with mp.workdps(20):
        for j in range(21):
            for a, b in pairs:
                s = mp.mpf(r[a]) + mp.mpf(r[b])
                m = 4 * mp.mpf(r[a]) * mp.mpf(r[b]) / s**2
                ref = (s / D) ** (2 * j + 1) * mp.hyp2f1(-j - mp.mpf(0.5), 0.5, 1, m)
                assert abs(moments[j][a, b] - ref) <= 1e-13 * ref, (j, a, b)


def test_struve_moments_against_mpmath_to_j60():
    # the recurrence keeps 1e-12 relative far past the terms a build needs
    # (about 30 at |kappa| (r + t)_max = 30); same pairs as above, every 4th j
    import mpmath as mp
    r = QuadratureRule.make(1.0, n_radial=48).nodes
    n = len(r)
    moments = []
    while len(moments) <= 60:
        ny._grow_struve_moments(r, r, moments)
    pairs = ({(a, a) for a in range(n)} | {(a, a + 1) for a in range(n - 1)}
             | {(a, b) for a in (0, n // 3, 2 * n // 3, n - 1) for b in range(n)})
    D = mp.mpf(2 * r.max())
    with mp.workdps(20):
        for j in range(24, 61, 4):
            for a, b in pairs:
                s = mp.mpf(r[a]) + mp.mpf(r[b])
                m = 4 * mp.mpf(r[a]) * mp.mpf(r[b]) / s**2
                ref = (s / D) ** (2 * j + 1) * mp.hyp2f1(-j - mp.mpf(0.5), 0.5, 1, m)
                assert abs(moments[j][a, b] - ref) <= 1e-12 * ref, (j, a, b)


def test_2d_build_raises_no_warning_on_the_diagonal():
    # mc = 0 where r = t: K is infinite there, and delta M_-1 is set to 0
    import warnings
    rule = QuadratureRule.make(1.0, n_radial=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W = ny.build_split_matrix(rule, 2, 1.5 - 0.01j, Branch.OUTGOING)
    assert np.all(np.isfinite(W))


def _struve_reference(kappa, r):
    # -(kappa/4) int_0^2pi H0_struve(kappa rho) dtheta by adaptive quadrature,
    # split where rho stops being close to |r - t|
    from scipy.integrate import quad
    from scipy.special import struve
    ref = np.empty((len(r), len(r)))
    for a in range(len(r)):
        for b in range(a, len(r)):
            ra, rb = r[a], r[b]

            def f(th):
                rho = np.sqrt((ra - rb) ** 2 + 4 * ra * rb * np.sin(th / 2) ** 2)
                return struve(0, kappa * rho)
            w = abs(ra - rb) / np.sqrt(ra * rb)
            brk = [x for x in (w, 10 * w, 100 * w) if 0 < x < np.pi] or None
            val = quad(f, 0, np.pi, epsabs=0, epsrel=1e-12, limit=200, points=brk)[0]
            ref[a, b] = ref[b, a] = -(kappa / 4) * 2 * val
    return ref


@pytest.mark.parametrize("kappa", (1.0, 5.0, 10.0))
def test_struve_part_of_2d_operator_against_quadrature(kappa):
    # the Struve share of a 2D build, on a rule of radius 1 (kappa 2R = 2, 10, 20)
    rule = QuadratureRule.make(1.0, n_radial=16)
    struve = _struve_share(rule, kappa, Branch.OUTGOING) / (rule.weights * rule.nodes)[None, :]
    ref = _struve_reference(kappa, rule.nodes)
    assert np.max(np.abs(struve - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_struve_cancellation_raises():
    rule = QuadratureRule.make(1.0, n_radial=16)
    with pytest.raises(ny.NystromError):
        ny.build_split_matrix(rule, 2, 15.0, Branch.OUTGOING)  # kappa 2R = 30
    with pytest.raises(ny.NystromError):
        ny.build_split_matrix(rule, 2, -1024.0, Branch.NEGATIVE)  # series terms overflow


def test_second_2d_build_reuses_struve_moments(monkeypatch):
    rule = QuadratureRule.make(0.2, n_radial=48)
    p = PhysicalParams(d=2, c=1, g=1, omega_a=1, epsilon=0.2, s0=1)
    ny.build_full_operator(p, 0.76 - 0.003j, rule)
    calls = []
    grow = ny._grow_struve_moments

    def counted(*args):
        calls.append(1)
        return grow(*args)

    monkeypatch.setattr(ny, "_grow_struve_moments", counted)
    ny.build_full_operator(p, 0.7601 - 0.003j, rule)
    assert calls == []
    moments, maxima = rule._cache["struve_moments"]
    assert maxima == [M.max() for M in moments]  # cached with their moments


def test_row_quadrature_matches_per_piece_gauss_panels():
    # one broadcast per Gauss order gives the per-piece panels bit for bit
    rule = QuadratureRule.make(0.1, n_radial=48)
    for r0 in rule.nodes:
        t, v = rule.row_quadrature(r0)
        lo, hi, n, _ = rule._row_pieces(np.arange(len(rule.counts)), r0)
        ref_t, ref_v = orc.gauss_points(zip(lo, hi, n))
        assert np.array_equal(t, ref_t)
        assert np.array_equal(v, ref_v)


ORACLE_RULES = {
    "make(1, 48)": lambda: QuadratureRule.make(1.0, 48),
    "make(1, 96)": lambda: QuadratureRule.make(1.0, 96),
    "make(0.1, 48)": lambda: QuadratureRule.make(0.1, 48),
    "make(1, 16)": lambda: QuadratureRule.make(1.0, 16),
}


def _identical(got, want):
    if got is None or want is None:
        return got is None and want is None
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(ORACLE_RULES))
def test_panel_batches_match_the_per_row_oracle(name):
    # the array-form pieces of every row at once against the scalar per-row,
    # per-panel reference: points, weights, counts and node hits, dtypes too
    rule = ORACLE_RULES[name]()
    batches = rule.panel_batches()
    assert len(batches) == len(rule.counts)
    for p, (batch, ref) in enumerate(zip(batches, orc.panel_batches(rule))):
        for field, want in zip(("t", "weights", "counts", "exact"), ref):
            assert _identical(getattr(batch, field), want), (p, field)
    for r0 in rule.nodes:
        for got, want in zip(rule.row_quadrature(r0), orc.row_quadrature(rule, r0)):
            assert _identical(got, want), r0


def test_bary_basis_matches_the_per_node_oracle():
    # node hits found by one searchsorted, as by testing every node in turn;
    # the points straddle the panel, then every other node is added
    rule = QuadratureRule.make(1.0, n_radial=16)
    x = rule.nodes[:rule.counts[0]]
    off_nodes = np.linspace(x[0] - 0.01, x[-1] + 0.01, 101)
    for t in (off_nodes, np.concatenate([off_nodes, x[::2]])):
        for got, want in zip(ny._bary_basis(t, x), orc.bary_basis(t, x)):
            assert _identical(got, want)


def test_panel_batches_split_the_row_quadratures():
    # row i's slices of the batches, in panel order, are its row quadrature
    # bit for bit, with each weight times its panel's barycentric normalizer
    rule = QuadratureRule.make(1.0, n_radial=48)
    batches = rule.panel_batches()
    starts = [np.r_[0, np.cumsum(b.counts)] for b in batches]
    scales = [ny._bary_basis(b.t, rule.nodes[b.nodes])[0] for b in batches]
    for i, r0 in enumerate(rule.nodes):
        t, v = rule.row_quadrature(r0)
        rows = [slice(s[i], s[i + 1]) for s in starts]
        assert np.array_equal(t, np.concatenate([b.t[sl] for b, sl in zip(batches, rows)]))
        assert np.array_equal(v * np.concatenate([s[sl] for s, sl in zip(scales, rows)]),
                              np.concatenate([b.weights[sl] for b, sl in zip(batches, rows)]))


@pytest.mark.parametrize("n", (48, 96))
def test_panel_batches_equal_the_per_panel_batches(n):
    # one _row_pieces and one _gauss_pieces call over every (panel, row)
    # cell, split by panel, against one call of each per panel: same bits
    rule = QuadratureRule.make(1.0, n)
    for p, (batch, ref) in enumerate(zip(rule.panel_batches(), orc.panel_batches_per_panel(rule))):
        for field, want in zip(("t", "weights", "counts", "exact"), ref):
            assert _identical(getattr(batch, field), want), (p, field)


def _reference_rows(d, rule, orders, with_k0):
    # the rows kernel of the moment route, from the generator bases
    radius = rule.domain[1]
    k0 = _SPLIT_FAMILIES[d](0.0, Branch.ZERO) if with_k0 else None
    if d == 2:
        return orc.j0y0_rows_lists(radius, orders[1], k0)
    terms = (orc.basis_1d_terms if d == 1 else orc.basis_3d_terms)(2.0 * radius)
    logs = range(orders[2].start + 1, orders[2].stop + 1)
    return orc.moment_kernel_terms(terms, orders[1], logs, k0)


_SPLIT_FAMILIES = {1: ny.kernel_1d, 2: ny.kernel_2d_singular, 3: ny.kernel_3d_reduced}


@pytest.mark.parametrize("n", (48, 96))
@pytest.mark.parametrize("d, k_deep", ((1, -1.0), (2, -2.9), (3, -0.975)))
def test_moment_rows_written_in_place_equal_the_generator_rows(d, k_deep, n):
    # every panel's kernel values of the moment route, rows written into the
    # stack in place, against the generator bases: bit for bit, for the
    # whole stack with W_sing's kernel, and for the rows a grown stack adds
    rule = QuadratureRule.make(1.0, n)
    coefficients, rows = ny._moment_series(rule, d, k_deep, Branch.NEGATIVE)
    full = [range(len(c)) for c in coefficients]
    grown = [range(1, 1), range(5, len(coefficients[1])), range(3, len(coefficients[2]))]
    for orders in (full, grown):
        got, want = rows(orders), _reference_rows(d, rule, orders, bool(orders[0]))
        for batch in rule.panel_batches():
            r0 = np.repeat(rule.nodes, batch.counts)
            a, b = got(r0, batch.t), want(r0, batch.t)
            assert a.shape == b.shape and np.array_equal(a, b), orders


def _moment_stack(d, rule, k):
    # every row of the moment route's stack at k on the negative branch
    coefficients, rows = ny._moment_series(rule, d, k, Branch.NEGATIVE)
    return rows([range(len(c)) for c in coefficients])


ROW_PRODUCT_CASES = {
    # W_sing: one real row
    "3d W_sing, make(1, 48)": (lambda: QuadratureRule.make(1.0, 48),
                               lambda rule: ny.kernel_3d_reduced(0.0, Branch.ZERO), 2),
    "3d W_sing, make(1, 96)": (lambda: QuadratureRule.make(1.0, 96),
                               lambda rule: ny.kernel_3d_reduced(0.0, Branch.ZERO), 2),
    # real moment stacks: W_sing and the 37 rows of the bound state of
    # configs/bound_states_1d.cfg at its deep bracket end, 3D, and 2D
    "1d G1 stack": (lambda: QuadratureRule.make(1.0, 48),
                    lambda rule: _moment_stack(1, rule, -1.0), 0),
    "3d G1 stack": (lambda: QuadratureRule.make(1.0, 48),
                    lambda rule: _moment_stack(3, rule, -0.975), 2),
    "2d J0 Y0 stack, N = 96": (lambda: QuadratureRule.make(1.0, 96),
                               lambda rule: _moment_stack(2, rule, -2.9), 1),
    # a complex kernel-route kernel
    "3d outgoing kernel": (lambda: QuadratureRule.make(0.1, 48),
                           lambda rule: ny.kernel_3d_reduced(45.0 - 0.5j, Branch.OUTGOING), 2),
}


def _within_4_eps(got, want):
    # each matrix of a stack within 4 eps of its own largest entry
    got, want = (w.reshape((-1,) + w.shape[-2:]) for w in (got, want))
    return all(np.max(np.abs(g - w)) <= 4 * np.finfo(float).eps * np.max(np.abs(w))
               for g, w in zip(got, want))


@pytest.mark.parametrize("case", sorted(ROW_PRODUCT_CASES))
def test_row_products_match_the_per_node_reference(case):
    # one matrix product per row against the per-node multiply and reduceat
    make, kernel_of, power = ROW_PRODUCT_CASES[case]
    rule = make()
    kernel = kernel_of(rule)
    W = ny.build_kernel_matrix(rule, kernel, power)
    ref = orc.build_kernel_matrix_per_node(rule, kernel, power)
    assert W.shape == ref.shape and W.dtype == ref.dtype
    assert _within_4_eps(W, ref)


def test_row_products_with_a_point_on_a_node(monkeypatch):
    rule = _rule_with_a_point_on_a_node(monkeypatch)
    ref = orc.build_kernel_matrix_per_node(rule, _node_kernel, 0)
    assert _within_4_eps(ny.build_kernel_matrix(rule, _node_kernel, 0), ref)


@pytest.mark.parametrize("case", ("1d G1 stack", "2d J0 Y0 stack, N = 96"))
def test_a_row_does_not_depend_on_its_stack(case):
    # moment rows built in a stack of one, two or three rows are bit for bit
    # those of the whole stack, so grown moments equal ones made in one pass
    make, kernel_of, power = ROW_PRODUCT_CASES[case]
    rule = make()
    stack = kernel_of(rule)
    W = ny.build_kernel_matrix(rule, stack, power)
    for rows in (slice(0, 1), slice(5, 7), slice(len(W) - 3, None)):
        part = ny.build_kernel_matrix(rule, lambda r0, t, rows=rows: stack(r0, t)[rows], power)
        assert np.array_equal(part, W[rows]), rows


@pytest.mark.parametrize("n", (48, 192))
def test_a_build_holds_one_copy_of_a_panels_values(n):
    # a real kernel's values are scaled in place and contracted as they are:
    # the build's peak above the stack it returns is one panel's values and
    # its barycentric term buffer, within 10 %, not a second, weighted copy
    heights = np.arange(1.0, 39.0)  # 38 rows, as the 1D bound state's moment stack

    def stack(r0, t):
        return np.multiply.outer(heights, t)

    rule = QuadratureRule.make(1.0, n)
    batches = rule.panel_batches()  # the rule's setup, not the build
    tracemalloc.start()
    try:
        W = ny.build_kernel_matrix(rule, stack, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    widest = max(batches, key=lambda b: len(b.t))
    values = 8 * len(heights) * len(widest.t)
    nodes = widest.nodes.stop - widest.nodes.start
    terms = 8 * nodes * (ny._TERM_BLOCK + int(widest.counts.max()))
    assert W.shape == (len(heights), len(rule.nodes), len(rule.nodes))
    assert peak - held <= 1.1 * (values + terms), (peak - held, values, terms)


@pytest.mark.parametrize("d, k_deep", ((1, -1.0), (2, -2.9), (3, -0.975)))
def test_l0_kind_0_equals_the_stacks_kind_0(d, k_deep):
    # kind 0, W_sing, built alone for L0 is bit for bit the kind 0 of a bound
    # state's deep bracket end, built with the whole stack
    l0 = ny.build_split_matrix(QuadratureRule.make(1.0, 48), d, 0.0, Branch.ZERO)
    rule = QuadratureRule.make(1.0, 48)
    ny.build_split_matrix(rule, d, k_deep, Branch.NEGATIVE)
    W_sing, *rows = rule._cache[("moments", d)]  # each kind one (rows x N^2) array
    assert len(W_sing) == 1 and all(len(r) for r in rows) and np.array_equal(l0.ravel(), W_sing[0])


MOMENT_SUM_CASES = {1: 2.0, 2: 1.0, 3: 2.0}  # d -> rho_max of the unit rule


def _moment_sums(rule, d, zs):
    # the moment route's sums at |k| rho_max = z on each branch, and at k = 0
    rho_max = MOMENT_SUM_CASES[d]
    cases = [(0.0, Branch.ZERO)] + [(z / rho_max * phase, branch) for z in zs for phase, branch in (
        (np.exp(-0.01j), Branch.OUTGOING), (np.exp(0.01j), Branch.INCOMING), (-1.0, Branch.NEGATIVE))]
    return [(k, branch, ny._moment_sum(rule, d, *ny._moment_series(rule, d, k, branch)))
            for k, branch in cases]


@pytest.mark.parametrize("d", sorted(MOMENT_SUM_CASES))
def test_a_moment_sum_does_not_depend_on_the_stacks_height(d):
    # a sum on a rule whose stack was grown for a larger |k| has the bits of
    # the same sum on a fresh rule, whose stack holds the rows it needs
    z_large = (ny.J0Y0_SERIES_RADIUS if d == 2 else ny.G1_SERIES_RADIUS) * (1 - 1e-12)
    tall = QuadratureRule.make(1.0, 48)
    _moment_sums(tall, d, [z_large])
    heights = [len(M) for M in tall._cache[("moments", d)]]
    for z in (0.3, 1.0):
        fresh = QuadratureRule.make(1.0, 48)
        for (k, branch, got), (_, _, want) in zip(_moment_sums(tall, d, [z]), _moment_sums(fresh, d, [z])):
            assert got.dtype == want.dtype and np.array_equal(got, want), (z, branch)
        assert all(len(M) < h for M, h in zip(fresh._cache[("moments", d)][1:], heights[1:]))


@pytest.mark.parametrize("d", sorted(MOMENT_SUM_CASES))
def test_a_moment_sum_is_rounded_within_4_eps_of_its_terms(d):
    # sampled entries of each sum against math.fsum of the rows times their
    # coefficients: within 4 eps sum_i |c_i| |M_i|, in both parts
    rule = QuadratureRule.make(1.0, 48)
    n = len(rule.nodes)
    entries = np.random.default_rng(d).choice(n * n, 40, replace=False)
    for k, branch, W in _moment_sums(rule, d, [0.3, 2.0]):
        coefficients, _ = ny._moment_series(rule, d, k, branch)
        moments = rule._cache[("moments", d)]
        for e in entries:
            terms = [(complex(ci), float(Mi[e])) for c, M in zip(coefficients, moments)
                     for ci, Mi in zip(c, M)]
            bound = 4 * np.finfo(float).eps * math.fsum(abs(ci) * abs(m) for ci, m in terms)
            got = complex(W.flat[e])
            assert abs(got.real - math.fsum(ci.real * m for ci, m in terms)) <= bound, (k, e)
            assert abs(got.imag - math.fsum(ci.imag * m for ci, m in terms)) <= bound, (k, e)


def test_k0_kernels_are_real():
    # the k = 0 builds integrate real kernels; the public Green's function
    # stays complex on every branch
    r0, t = np.array([0.3, 0.5]), np.array([0.2, 0.7])
    for family in (ny.kernel_1d, ny.kernel_2d_singular, ny.kernel_3d_reduced):
        assert family(0.0, Branch.ZERO)(r0, t).dtype == np.float64
    for d in (1, 2, 3):
        assert greens.green(d, 0.0, t).dtype == np.complex128
        assert isinstance(greens.green(d, 0.0, 0.5), np.complex128)
    # a k = 0 split build, kind 0 of the moment stack alone, is float64
    rule = QuadratureRule.make(1.0, 48)
    for d in (1, 2, 3):
        W = ny.build_split_matrix(rule, d, 0.0, Branch.ZERO)
        assert W.dtype == np.float64 and np.array_equal(W.ravel(), rule._cache[("moments", d)][0][0]), d


G1_CASES = ("1d-even", "3d")


def _kernel_route(rule, family, k, branch, power):
    # the build above G1_SERIES_RADIUS: Q[kernel(k)] - Q_gap[kernel(0)]
    W = ny.build_kernel_matrix(rule, family(k, branch), power)
    W[np.diag_indices(len(rule.nodes))] -= _gap(rule, family, power)
    return W


@pytest.mark.parametrize("case", G1_CASES)
def test_g1_moment_route_matches_kernel_route(case):
    # In 3D the kernel route is the less accurate one: its (G1(|r-t|) -
    # G1(r+t)) / (r t) cancels for min/max(r, t) -> 0 (4e-9 relative at
    # r = 1e-4 against mpmath, where the moment basis keeps 1e-15, see
    # test_3d_moment_basis_against_mpmath), which reaches 1.1e-13 of the
    # max at N = 96; hence 2e-13 there.
    d, family, make = SPLIT_CASES[case]
    power = d - 1
    tol = 2e-13 if case == "3d" else 1e-13
    for n in (48, 96):
        rule = make(n)
        rho_max = 2.0 * rule.domain[1]
        for z in (0.1, 1.0, ny.G1_SERIES_RADIUS * (1 - 1e-12)):
            for phase, branch in ((np.exp(-0.01j), Branch.OUTGOING), (np.exp(0.01j), Branch.INCOMING),
                                  (-1.0, Branch.NEGATIVE)):
                k = z / rho_max * phase
                moments = ny.build_split_matrix(rule, d, k, branch)
                direct = _kernel_route(rule, family, k, branch, power)
                assert np.max(np.abs(moments - direct)) <= tol * np.max(np.abs(direct)), (n, z, branch)


def test_3d_moment_basis_against_mpmath():
    # the moment series of the 3D remainder kernel at rows with
    # min/max(r, t) <= 1e-3, where the kernel route cancels
    import mpmath as mp
    rho_max, k = 0.2, 0.8 - 0.01j
    a, b = greens.g1_series(k, Branch.OUTGOING, 40)
    scale = rho_max ** np.arange(41)
    a, b = a * scale, b * scale[::2]
    a[2::2] += b[1:] * np.log(rho_max)
    r0 = np.array([1e-4, 1e-4, 0.1, 0.05, 3e-7])
    t = np.array([0.1, 3e-7, 1e-5, 2e-5, 1e-4])
    rows = ny._moment_kernel(ny._basis_3d(rho_max), range(41), range(1, 21))(r0, t)
    series = a @ rows[:41] + b[1:] @ rows[41:]

    def g1_diff(rho):  # G1(k, rho) - G1(0, rho), outgoing
        z = 1j * mp.mpc(k) * rho
        return ((mp.exp(z) * mp.e1(z) + mp.exp(-z) * mp.e1(-z)) / (2 * mp.pi) + 1j * mp.exp(z)
                + (mp.log(rho) + mp.euler) / mp.pi)
    for i in range(len(t)):
        r, tt = mp.mpf(r0[i]), mp.mpf(t[i])
        ref = complex((g1_diff(abs(r - tt)) - g1_diff(r + tt)) / (r * tt))
        assert abs(series[i] - ref) <= 1e-14 * abs(ref), (r0[i], t[i])


def _counting(monkeypatch):
    e1_calls, kernel_calls = [], []
    e1, build = greens.exp_integral_e1, ny.build_kernel_matrix

    def counted_e1(z):
        e1_calls.append(np.size(z))
        return e1(z)

    def counted_build(rule, kernel, *args):
        def kern(r0, t):
            kernel_calls.append(len(t))
            return kernel(r0, t)
        return build(rule, kern, *args)

    monkeypatch.setattr(greens, "exp_integral_e1", counted_e1)
    monkeypatch.setattr(ny, "build_kernel_matrix", counted_build)
    return e1_calls, kernel_calls


def test_warm_3d_resonance_build_evaluates_no_kernel(monkeypatch):
    rule = QuadratureRule.make(0.1, n_radial=48)
    ny.build_full_operator(params3(0.1), 0.9 - 0.01j, rule)
    e1_calls, kernel_calls = _counting(monkeypatch)
    ny.build_full_operator(params3(0.1), 0.7 - 0.02j, rule)
    assert e1_calls == [] and kernel_calls == []


def test_build_above_radius_takes_kernel_route(monkeypatch):
    rule = QuadratureRule.make(1.0, n_radial=48)
    family = ny.kernel_1d
    k_edge = -ny.G1_SERIES_RADIUS / (2.0 * rule.domain[1])
    e1_calls, kernel_calls = _counting(monkeypatch)
    ny.build_split_matrix(rule, 1, k_edge, Branch.NEGATIVE)
    assert e1_calls == []
    kernel_calls.clear()
    W = ny.build_split_matrix(rule, 1, 1.01 * k_edge, Branch.NEGATIVE)
    assert sum(e1_calls) > 0 and sum(kernel_calls) > 0
    assert np.array_equal(W, _kernel_route(rule, family, 1.01 * k_edge, Branch.NEGATIVE, 0))


def test_larger_k_grows_g1_moments_without_rebuilding_sing(monkeypatch):
    rule = QuadratureRule.make(0.1, n_radial=48)
    ny.build_full_operator(params3(0.1), 0.5 - 0.001j, rule)
    key = ("moments", 3)
    n_powers, n_logs = (len(m) for m in rule._cache[key][1:])
    k0_calls = []
    a0 = ny.kernel_a0_reduced

    def counted_a0(d):
        k0_calls.append(d)
        return a0(d)

    monkeypatch.setattr(ny, "kernel_a0_reduced", counted_a0)
    grown, _ = ny.build_full_operator(params3(0.1), 15.0 - 0.001j, rule)
    assert k0_calls == []
    W_sing, U, V = rule._cache[key]
    assert len(W_sing) == 1 and len(U) > n_powers and len(V) > n_logs
    fresh, _ = ny.build_full_operator(params3(0.1), 15.0 - 0.001j, QuadratureRule.make(0.1, n_radial=48))
    assert np.array_equal(grown, fresh)  # grown moments equal ones made in one pass


def params2(eps=0.2):
    return PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=1.0)


@pytest.mark.parametrize("n", (48, 96))
def test_j0y0_moment_route_matches_kernel_route(n):
    rule = QuadratureRule.make(0.2, n_radial=n)
    radius = rule.domain[1]
    for z in (0.1, 1.0, ny.J0Y0_SERIES_RADIUS * (1 - 1e-12)):
        for phase, branch in ((np.exp(-0.01j), Branch.OUTGOING), (np.exp(0.01j), Branch.INCOMING),
                              (-1.0, Branch.NEGATIVE)):
            k = z / radius * phase
            moments = ny.build_split_matrix(rule, 2, k, branch) - _struve_share(rule, k, branch)
            direct = _kernel_route(rule, ny.kernel_2d_singular, k, branch, 1)
            assert np.max(np.abs(moments - direct)) <= 1e-13 * np.max(np.abs(direct)), (z, branch)


def _counting_bessel(monkeypatch):
    # records J0, Y0 and H0 calls as "jv", "yv" and "_h0"
    calls = []
    for name, attr in (("jv", "bessel_j0"), ("yv", "bessel_y0"), ("_h0", "_h0")):
        def counted(*args, fn=getattr(ny, attr), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(ny, attr, counted)
    return calls


def test_warm_2d_resonance_build_evaluates_no_bessel(monkeypatch):
    rule = QuadratureRule.make(0.2, n_radial=48)
    ny.build_full_operator(params2(), 0.76 - 0.003j, rule)
    bessel_calls = _counting_bessel(monkeypatch)
    _, kernel_calls = _counting(monkeypatch)
    ny.build_full_operator(params2(), 0.09 - 0.02j, rule)
    assert bessel_calls == [] and kernel_calls == []


def test_2d_build_above_radius_takes_kernel_route(monkeypatch):
    rule = QuadratureRule.make(0.2, n_radial=48)
    family = ny.kernel_2d_singular
    k_edge = ny.J0Y0_SERIES_RADIUS / rule.domain[1] * np.exp(-0.01j)
    bessel_calls = _counting_bessel(monkeypatch)
    ny.build_split_matrix(rule, 2, k_edge, Branch.OUTGOING)
    assert bessel_calls == []
    W = ny.build_split_matrix(rule, 2, 1.01 * k_edge, Branch.OUTGOING)
    assert {"jv", "_h0"} <= set(bessel_calls)
    struve = _struve_share(rule, 1.01 * k_edge, Branch.OUTGOING)
    assert np.array_equal(W, _kernel_route(rule, family, 1.01 * k_edge, Branch.OUTGOING, 1) + struve)


def test_larger_k_grows_j0y0_moments_without_rebuilding_sing(monkeypatch):
    rule = QuadratureRule.make(0.2, n_radial=48)
    ny.build_full_operator(params2(), 0.1 - 0.02j, rule)
    key = ("moments", 2)
    before = [len(m) for m in rule._cache[key][1:]]
    k0_calls = []
    a0 = ny.kernel_a0_reduced

    def counted_a0(d):
        k0_calls.append(d)
        return a0(d)

    monkeypatch.setattr(ny, "kernel_a0_reduced", counted_a0)
    grown, _ = ny.build_full_operator(params2(), 12.0 - 0.01j, rule)  # |k| R = 2.4
    assert k0_calls == []
    W_sing, *rows = rule._cache[key]
    after = [len(m) for m in rows]
    assert len(W_sing) == 1 and all(a > b for a, b in zip(after, before)) and len(set(after)) == 1
    fresh, _ = ny.build_full_operator(params2(), 12.0 - 0.01j, QuadratureRule.make(0.2, n_radial=48))
    assert np.array_equal(grown, fresh)  # grown moments equal ones made in one pass


def test_log_tail_rule_moments():
    # the tail rule against the exact moments of x^j and x^j log x on [0, 1],
    # summed in mpmath; the one-point gap rule (weight 1) against those of 1
    # and log x
    import mpmath as mp
    with mp.workdps(40):
        for nodes, weights, degree in ((ny._TAIL_NODES, ny._TAIL_WEIGHTS, 30), ([ny.GAP_POINT], [1.0], 0)):
            x = [mp.mpf(float(v)) for v in nodes]
            w = [mp.mpf(float(v)) for v in weights]
            for j in range(degree + 1):
                plain = mp.fsum(wi * xi**j for xi, wi in zip(x, w))
                log = mp.fsum(wi * xi**j * mp.log(xi) for xi, wi in zip(x, w))
                assert abs(plain - mp.mpf(1) / (j + 1)) <= 1e-15, j
                assert abs(log + mp.mpf(1) / (j + 1) ** 2) <= 1e-15, j
    assert len(ny._TAIL_NODES) == ny.TAIL_POINTS == 62
    assert np.sum(np.abs(ny._TAIL_WEIGHTS)) <= 3.0
    assert np.all(np.diff(ny._TAIL_NODES) > 0) and 0.0 < ny._TAIL_NODES[0] and ny._TAIL_NODES[-1] < 1.0


def _w_sing_entry(kernel, power, rule, i, j):
    # the open-gap row integral of W_sing in mpmath: the k = 0 kernel at
    # node i times the Lagrange basis of node j on its panel, over that
    # panel less the two gaps [0, h 2^-GAP_LEVELS] next to node i if it
    # lies there, split dyadically toward node i
    import mpmath as mp
    p = np.searchsorted(np.cumsum(rule.counts), j, side="right")
    sl = rule._panel_slices()[p]
    x = [mp.mpf(float(v)) for v in rule.nodes[sl]]
    xj, r = mp.mpf(float(rule.nodes[j])), float(rule.nodes[i])
    a, b = float(rule.panels[p]), float(rule.panels[p + 1])

    def f(t):
        basis = mp.fprod((t - xm) / (xj - xm) for xm in x if xm != xj)
        return kernel(mp.mpf(r), t) * basis * t**power

    if not a < r < b:
        return mp.quad(f, mp.linspace(a, b, 9))
    sides = []
    for end, h in ((a, r - a), (b, b - r)):
        gap = math.ldexp(h, -ny.GAP_LEVELS)
        step = np.sign(end - r)
        pts = [mp.mpf(r) + step * mp.mpf(math.ldexp(h, -m)) for m in range(ny.GAP_LEVELS)]
        sides.append(-step * mp.quad(f, pts + [mp.mpf(r) + step * mp.mpf(gap)]))  # from the panel end in
    return sum(sides)


def _a0_mp(d):
    import mpmath as mp
    if d == 1:
        return lambda r, t: -(mp.log(abs(r - t)) + mp.log(r + t) + 2 * mp.euler) / mp.pi
    if d == 2:
        return lambda r, t: 2 / mp.pi * mp.ellipk(4 * r * t / (r + t) ** 2) / (r + t)
    return lambda r, t: mp.log((r + t) / abs(r - t)) / (mp.pi * r * t)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_w_sing_entries_against_mpmath(d):
    # diagonal entries in the first panel and in the last, narrow one, a
    # neighbour there and an entry across the radius, on make(1, 48)
    import mpmath as mp
    power = d - 1
    rule = QuadratureRule.make(1.0, n_radial=48)
    W = ny.build_split_matrix(rule, d, 0.0, Branch.ZERO)
    n = len(rule.nodes)
    with mp.workdps(25):
        for i, j in ((0, 0), (n - 1, n - 1), (n - 1, n - 2), (0, n - 1), (n // 2, n // 2 + 1)):
            ref = _w_sing_entry(_a0_mp(d), power, rule, i, j)
            assert abs(W[i, j] - float(ref)) <= 1e-14 * np.max(np.abs(W)), (i, j)


# from N = 320 on, some gap points round onto their node and are moved off it
POINT_RULES = {f"make(1), N = {n}": n for n in (8, 16, 48, 96, 192, 384, 768)}


@pytest.mark.parametrize("n", POINT_RULES.values(), ids=POINT_RULES.keys())
def test_no_tail_or_gap_point_on_its_rows_node(n):
    # a point that rounds onto its row's node r0 would make the kernel infinite
    rule = QuadratureRule.make(1.0, n)
    for batch in rule.panel_batches():
        assert np.all(batch.t != np.repeat(rule.nodes, batch.counts))
    r0, t, _ = rule.gap_quadrature()
    assert np.all(t != r0)
