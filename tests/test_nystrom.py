from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_resonance import greens, nystrom as ny
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


def test_reduced_kernel_3d_zero_branch_oracle():
    val = ny.reduced_kernel(3, 0.0, 0.5, 1.0)
    assert abs(val - RED3_ZERO_HALF_ONE) <= 1e-8 * RED3_ZERO_HALF_ONE


def test_reduced_kernel_3d_outgoing_oracle():
    k = 1.3
    g3 = lambda rho: greens.green(3, WaveNumber.outgoing(k), rho)
    ref = orc.green_reduced_3d_oracle(k, g3, 0.4, 0.9)
    val = ny.reduced_kernel(3, k, 0.4, 0.9)
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
    val = ny.reduced_kernel(2, k, r, rp)
    assert abs(val - complex(re, im)) <= 1e-8 * abs(val)
    assert abs(val.imag) > 1e-3  # outgoing branch carries an imaginary part


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_reduced_kernel_symmetry(r, rp):
    if abs(r - rp) < 1e-3:
        return
    for d in (1, 3):
        a = ny.reduced_kernel(d, 0.7, r, rp)
        b = ny.reduced_kernel(d, 0.7, rp, r)
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
    m_limit = ny.build_limiting_operator(p0, omega, unit).matrix
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
    op = ny.build_rank1_limit_1d(p, 0.0 + 0j, rule)
    ev, V = np.linalg.eig(op.matrix)
    # single nontrivial eigenvalue at -(0 - Omega) - g^2 s0 |B1|/(pi c)
    target = p.omega_a - 2.0 / np.pi
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
        ny.build_rank1_limit_1d(params3(), 0.0)


def test_operator_norm_weights_and_dot():
    p = params3(0.3)
    rule = QuadratureRule.make(0.3, n_radial=32)
    op = ny.build_full_operator(p, -0.5 + 0j, rule)
    ones = np.ones(len(rule.nodes))
    vol = greens.ball_volume(3, 0.3)
    assert op.weighted_norm(ones) == pytest.approx(np.sqrt(vol))
    assert op.weighted_dot(ones, ones) == pytest.approx(vol)


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

    monkeypatch.setattr(ny, "build_kernel_matrix", counted_build)
    monkeypatch.setattr(ny, "kernel_a0_reduced", counted_a0)
    ny.build_full_operator(params3(0.1), 0.5 - 0.001j, rule)
    assert k0_points  # the first build assembles the k = 0 part
    one_piece = sum(len(rule.row_quadrature(r0)[0]) for r0 in rule.nodes)
    points.clear()
    k0_points.clear()
    ny.build_full_operator(params3(0.1), 0.8 - 0.001j, rule)
    assert k0_points == []
    assert sum(points) <= 0.4 * one_piece


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
    hyp2f1 = ny.hyp2f1

    def counted(*args):
        calls.append(1)
        return hyp2f1(*args)

    monkeypatch.setattr(ny, "hyp2f1", counted)
    ny.build_full_operator(p, 0.7601 - 0.003j, rule)
    assert calls == []
