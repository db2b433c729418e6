from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_resonance import asymptotics, greens, nystrom as ny
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


def test_build_with_a_point_on_a_node(monkeypatch):
    # a quadrature point that equals base node 3 adds its weight times the
    # kernel there to column 3 and nothing to the other columns
    def kernel(r0, t):
        return np.exp(1j * r0 * t)

    rule = QuadratureRule.make(1.0, n_radial=16)
    plain = ny.build_kernel_matrix(rule, kernel, 0)
    row_quadrature = QuadratureRule.row_quadrature

    def with_node(self, r0):
        t, v = row_quadrature(self, r0)
        return np.append(t, self.nodes[3]), np.append(v, 0.01)

    monkeypatch.setattr(QuadratureRule, "row_quadrature", with_node)
    rule = QuadratureRule.make(1.0, n_radial=16)
    W = ny.build_kernel_matrix(rule, kernel, 0)
    assert rule.panel_batches()[0].exact is not None
    plain[:, 3] += 0.01 * kernel(rule.nodes, rule.nodes[3])
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
    op = ny.build_full_operator(p, -0.7 + 0j, rule)
    assert np.max(np.abs(op.matrix.imag)) <= 1e-12
    with pytest.raises(greens.GreensDomainError):
        ny.build_full_operator(p, 1j, rule)


def test_full_operator_refinement_stability():
    # smallest-magnitude eigenvalue stable to 1e-6 under N -> 2N
    p = params3(0.1)
    vals = []
    for n in (32, 64):
        rule = QuadratureRule.make(0.1, n_radial=n)
        op = ny.build_full_operator(p, 0.5 * p.omega_a + 0j, rule)
        ev = np.linalg.eigvals(op.matrix)
        vals.append(ev[np.argmin(np.abs(ev))])
    assert abs(vals[0] - vals[1]) <= 1e-6


def test_scaled_operator_approaches_limit():
    # || M_eps - M_0 || = O(eps) in the weighted similarity norm, d = 3
    p0 = params3()
    n = 32
    unit = QuadratureRule.make(1.0, n_radial=n)
    omega = 0.5 + 0j
    m_limit = orc.build_limiting_operator(p0, omega, unit).matrix
    S = np.sqrt(greens.surface_measure(3) * unit.weights * unit.nodes**2)
    norms = []
    eps_list = (2e-2, 1e-2, 5e-3)
    for eps in eps_list:
        pe = params3(eps)
        rule = QuadratureRule.make(eps, n_radial=n)
        m_eps = ny.build_full_operator(pe, omega, rule).matrix
        diff = S[:, None] * (m_eps - m_limit) / S[None, :]
        norms.append(np.linalg.norm(diff, 2))
    slope = orc.loglog_slope(eps_list, norms)
    assert 0.75 <= slope <= 1.3, (norms, slope)


def test_limiting_norm_regression_pin():
    # ||L0|| on the 3D unit ball at unit coupling, pinned at the converged
    # value (stable to ~3e-10 under node doubling)
    p = params3()
    rule = QuadratureRule.make(1.0, n_radial=48)
    l0 = ny.build_l0_operator(p, rule)
    S = np.sqrt(l0.norm_weights)
    A = S[:, None] * l0.matrix.real / S[None, :]
    mu1 = np.linalg.eigvalsh(0.5 * (A + A.T))[-1]
    assert mu1 == pytest.approx(0.4984749079, abs=1e-8)


def test_limiting_operator_spectrum_structure():
    p = params3()
    rule = QuadratureRule.make(1.0, n_radial=48)
    l0 = ny.build_l0_operator(p, rule)
    S = np.sqrt(l0.norm_weights)
    A = S[:, None] * l0.matrix.real / S[None, :]
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
    op = orc.build_rank1_limit_1d(p, 0.0 + 0j, rule)
    ev, V = np.linalg.eig(op.matrix)
    # single nontrivial eigenvalue at -(0 - Omega) - g^2 s0 |B1|/(pi c)
    target = asymptotics.limiting_frequency_1d(p)
    nontriv = ev[np.argmax(np.abs(ev - p.omega_a))]
    assert abs(nontriv - target) < 1e-12
    # constant vector is the eigenvector
    ones = np.ones(len(rule.nodes))
    out = op.matrix @ ones
    assert np.max(np.abs(out - target * ones)) < 1e-12
    # zero-mean vectors sit in the kernel of the integral part
    w_even = 2.0 * rule.weights
    v = np.sin(np.pi * rule.nodes)
    v = v - (w_even * v).sum() / w_even.sum()
    assert abs((w_even * v).sum()) < 1e-14
    integral_part = op.matrix - p.omega_a * np.eye(len(ones))
    assert np.max(np.abs(integral_part @ v)) < 1e-13
    with pytest.raises(ValueError):
        orc.build_rank1_limit_1d(params3(), 0.0)


def test_operator_norm_weights_and_dot():
    p = params3(0.3)
    rule = QuadratureRule.make(0.3, n_radial=32)
    op = ny.build_full_operator(p, -0.5 + 0j, rule)
    ones = np.ones(len(rule.nodes))
    vol = greens.ball_volume(3, 0.3)
    assert op.weighted_norm(ones) == pytest.approx(np.sqrt(vol))
    assert op.weighted_dot(ones, ones) == pytest.approx(vol)


# max |W(k; eps) - eps W(eps k; 1)| / max |W| at N = 48.  d = 1 is looser:
# its k = 0 kernel -(log rho + gamma) / pi gains a log eps on an eps rule,
# where the open 2^-SING_LEVELS gap of W_sing drops part of it, while on the
# unit rule log eps sits in W_reg(eps k), whose closed-gap rule integrates it
# (measured <= 1.5e-10 for d = 1, <= 3.6e-14 for d = 2, 3)
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
            W = ny.full_kernel_matrix(rule, d, k, branch)
            scaled = eps * ny.full_kernel_matrix(unit48, d, eps * k, branch)
            assert np.max(np.abs(scaled - W)) <= HOMOGENEITY_TOL[d] * np.max(np.abs(W)), (branch, k)


@pytest.mark.parametrize("d, omega", ((1, 0.7 - 0.05j), (2, 0.1 - 0.02j), (3, 0.5 - 0.001j)))
def test_full_operator_on_unit_rule_matches_eps_rule(d, omega, unit48):
    for eps in (0.2, 0.025):
        p = PhysicalParams(d=d, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=0.3)
        direct = ny.build_full_operator(p, omega, QuadratureRule.make(eps, n_radial=48))
        scaled = ny.build_full_operator(p, omega, unit48)
        shift = (omega - p.omega_a) * np.eye(48)  # M + shift = -pref W
        tol = HOMOGENEITY_TOL[d] * np.max(np.abs(direct.matrix + shift))
        assert np.max(np.abs(scaled.matrix - direct.matrix)) <= tol, eps
        # the norm weights are the physical ones on B_eps
        assert np.max(np.abs(scaled.norm_weights / direct.norm_weights - 1.0)) <= 1e-14


# (reduced kernel family, measure power, rule factory) for each split build
SPLIT_CASES = {
    "1d-even": (ny.kernel_1d, 0, lambda n: QuadratureRule.make(1.0, n_radial=n)),
    "1d-interval": (ny.kernel_1d_interval, 0,
                    lambda n: QuadratureRule.make_interval(-1.0, 1.0, n)),
    "2d": (ny.kernel_2d_singular, 1, lambda n: QuadratureRule.make(0.1, n_radial=n)),
    "3d": (ny.kernel_3d_reduced, 2, lambda n: QuadratureRule.make(0.1, n_radial=n)),
}
SPLIT_WAVENUMBERS = ((0.8 - 0.01j, Branch.OUTGOING), (-0.7, Branch.NEGATIVE))


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_build_matches_one_piece(case):
    # W_sing + W_reg(k) against the whole kernel on the singular rule; the
    # difference is the remainder's share of the 2^-36 gap that rule drops
    family, power, make = SPLIT_CASES[case]
    for n in (48, 96):
        rule = make(n)
        for k, branch in SPLIT_WAVENUMBERS:
            one_piece = ny.build_kernel_matrix(rule, family(k, branch), power)
            split = ny.build_split_matrix(rule, family, k, branch, power)
            assert _rel(split, one_piece) <= 1e-10, (n, branch)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_panel_assembly_matches_per_row_reference(case):
    # each row integrated on its own quadrature through interp_matrix; the
    # k = 0 kernels (kernel_a0_reduced in 2D and 3D) on the singular rule,
    # the others on the derived rule, as a split build uses them
    family, power, make = SPLIT_CASES[case]
    for n in (48, 96):
        rule = make(n)
        for k, branch in ((0.0, Branch.ZERO),) + SPLIT_WAVENUMBERS:
            r = rule if branch is Branch.ZERO else rule.regular_rule()
            kernel = family(k, branch)
            ref = []
            for r0 in r.nodes:
                t, v = r.row_quadrature(r0)
                ref.append((kernel(r0, t) * v * t**power) @ r.interp_matrix(t))
            assert _rel(ny.build_kernel_matrix(r, kernel, power), np.array(ref)) <= 1e-14, (n, branch)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_regular_part_converged_in_levels(case):
    family, power, make = SPLIT_CASES[case]
    for n in (48, 96):
        rule = make(n)
        deeper = replace(rule.regular_rule(), sing_levels=2 * ny.REG_LEVELS, _cache={})
        for k, branch in SPLIT_WAVENUMBERS:
            def remainder(r0, t):
                return family(k, branch)(r0, t) - family(0.0, Branch.ZERO)(r0, t)
            w_reg = ny.build_kernel_matrix(rule.regular_rule(), remainder, power)
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
    assert sum(points) <= 0.4 * one_piece
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
        W = ny.full_kernel_matrix(rule, 2, 1.5 - 0.01j, Branch.OUTGOING)
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
    whole = ny.full_kernel_matrix(rule, 2, kappa, Branch.OUTGOING)
    singular = ny.build_split_matrix(rule, ny.kernel_2d_singular, kappa, Branch.OUTGOING, 1)
    struve = (whole - singular) / (rule.weights * rule.nodes)[None, :]
    ref = _struve_reference(kappa, rule.nodes)
    assert np.max(np.abs(struve - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_struve_cancellation_raises():
    rule = QuadratureRule.make(1.0, n_radial=16)
    with pytest.raises(ny.NystromError):
        ny.full_kernel_matrix(rule, 2, 15.0, Branch.OUTGOING)  # kappa 2R = 30
    with pytest.raises(ny.NystromError):
        ny.full_kernel_matrix(rule, 2, -1024.0, Branch.NEGATIVE)  # series terms overflow


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


def test_row_quadrature_matches_per_piece_gauss_panels():
    # one broadcast per Gauss order gives the per-piece panels bit for bit
    for rule in (QuadratureRule.make(0.1, n_radial=48), QuadratureRule.make_interval(-1.0, 1.0, 48)):
        for r in (rule, rule.regular_rule()):
            for r0 in r.nodes:
                t, v = r.row_quadrature(r0)
                pieces = [ny._gauss_panel(lo, hi, n) for lo, hi, n in r._row_pieces(r0)]
                assert np.array_equal(t, np.concatenate([x for x, _ in pieces]))
                assert np.array_equal(v, np.concatenate([w for _, w in pieces]))


G1_CASES = ("1d-even", "1d-interval", "3d")


def _rho_max(family, rule):
    return ny._G1_MOMENTS[family][1] * (rule.domain[1] - rule.domain[0])


def _kernel_route(rule, family, k, branch, power):
    # the build above G1_SERIES_RADIUS: W_sing - Q_reg[kernel(0)] + Q_reg[kernel(k)]
    reg = rule.regular_rule()
    kernel0 = family(0.0, Branch.ZERO)
    return (ny.build_kernel_matrix(rule, kernel0, power) - ny.build_kernel_matrix(reg, kernel0, power)
            + ny.build_kernel_matrix(reg, family(k, branch), power))


@pytest.mark.parametrize("case", G1_CASES)
def test_g1_moment_route_matches_kernel_route(case):
    # In 3D the kernel route is the less accurate one: its (G1(|r-t|) -
    # G1(r+t)) / (r t) cancels for min/max(r, t) -> 0 (4e-9 relative at
    # r = 1e-4 against mpmath, where the moment basis keeps 1e-15, see
    # test_3d_moment_basis_against_mpmath), which reaches 1.1e-13 of the
    # max at N = 96; hence 2e-13 there.
    family, power, make = SPLIT_CASES[case]
    tol = 2e-13 if case == "3d" else 1e-13
    for n in (48, 96):
        rule = make(n)
        rho_max = _rho_max(family, rule)
        for z in (0.1, 1.0, ny.G1_SERIES_RADIUS * (1 - 1e-12)):
            for phase, branch in ((np.exp(-0.01j), Branch.OUTGOING), (np.exp(0.01j), Branch.INCOMING),
                                  (-1.0, Branch.NEGATIVE)):
                k = z / rho_max * phase
                moments = ny.build_split_matrix(rule, family, k, branch, power)
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
    rule = QuadratureRule.make_interval(-1.0, 1.0, 48)
    family = ny.kernel_1d_interval
    k_edge = -ny.G1_SERIES_RADIUS / _rho_max(family, rule)
    e1_calls, kernel_calls = _counting(monkeypatch)
    ny.build_split_matrix(rule, family, k_edge, Branch.NEGATIVE, 0)
    assert e1_calls == []
    kernel_calls.clear()
    W = ny.build_split_matrix(rule, family, 1.01 * k_edge, Branch.NEGATIVE, 0)
    assert sum(e1_calls) > 0 and sum(kernel_calls) > 0
    assert np.array_equal(W, _kernel_route(rule, family, 1.01 * k_edge, Branch.NEGATIVE, 0))


def test_larger_k_grows_g1_moments_without_rebuilding_sing(monkeypatch):
    rule = QuadratureRule.make(0.1, n_radial=48)
    ny.build_full_operator(params3(0.1), 0.5 - 0.001j, rule)
    key = ("moments", ny.kernel_3d_reduced, 2)
    n_powers, n_logs = (len(m) for m in rule._cache[key])
    k0_calls = []
    a0 = ny.kernel_a0_reduced

    def counted_a0(d):
        k0_calls.append(d)
        return a0(d)

    monkeypatch.setattr(ny, "kernel_a0_reduced", counted_a0)
    grown = ny.build_full_operator(params3(0.1), 15.0 - 0.001j, rule).matrix
    assert k0_calls == []
    U, V = rule._cache[key]
    assert len(U) > n_powers and len(V) > n_logs
    fresh = ny.build_full_operator(params3(0.1), 15.0 - 0.001j, QuadratureRule.make(0.1, n_radial=48))
    assert np.array_equal(grown, fresh.matrix)  # grown moments equal ones made in one pass


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
            moments = ny.build_split_matrix(rule, ny.kernel_2d_singular, k, branch, 1)
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
    ny.build_split_matrix(rule, family, k_edge, Branch.OUTGOING, 1)
    assert bessel_calls == []
    W = ny.build_split_matrix(rule, family, 1.01 * k_edge, Branch.OUTGOING, 1)
    assert {"jv", "_h0"} <= set(bessel_calls)
    assert np.array_equal(W, _kernel_route(rule, family, 1.01 * k_edge, Branch.OUTGOING, 1))


def test_larger_k_grows_j0y0_moments_without_rebuilding_sing(monkeypatch):
    rule = QuadratureRule.make(0.2, n_radial=48)
    ny.build_full_operator(params2(), 0.1 - 0.02j, rule)
    key = ("moments", ny.kernel_2d_singular, 1)
    before = [len(m) for m in rule._cache[key]]
    k0_calls = []
    a0 = ny.kernel_a0_reduced

    def counted_a0(d):
        k0_calls.append(d)
        return a0(d)

    monkeypatch.setattr(ny, "kernel_a0_reduced", counted_a0)
    grown = ny.build_full_operator(params2(), 12.0 - 0.01j, rule).matrix  # |k| R = 2.4
    assert k0_calls == []
    after = [len(m) for m in rule._cache[key]]
    assert all(a > b for a, b in zip(after, before)) and len(set(after)) == 1
    fresh = ny.build_full_operator(params2(), 12.0 - 0.01j, QuadratureRule.make(0.2, n_radial=48))
    assert np.array_equal(grown, fresh.matrix)  # grown moments equal ones made in one pass
