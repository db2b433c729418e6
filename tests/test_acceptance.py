"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Everything runs at desk scale (< 10 minutes total).
"""

import time

import numpy as np
import pytest

from photon_resonance import (asymptotics as asym, boundstates as bs,
                              dynamics as dyn, eigensolver as es,
                              greens as gr, nystrom as ny, specfun as sf)
from photon_resonance.greens import WaveNumber
from photon_resonance.nystrom import PhysicalParams, QuadratureRule

import oracle_utils as orc


def P3(eps, **kw):
    base = dict(d=3, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=1.0)
    base.update(kw)
    return PhysicalParams(**base)


@pytest.fixture(scope="module")
def resonances_3d():
    return es.find_resonances(P3(0.1), 5, rule=QuadratureRule.make(1.0, n_radial=64))


@pytest.fixture(scope="module")
def bound_state_setup():
    params = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=1.0, rho0=1.0)
    omega_star = bs.solve_bound_state(params, 1, QuadratureRule.make(1.0, n_radial=48)).omega
    return params, omega_star


def test_criterion_01_greens_cross_validation():
    t0 = time.time()
    worst = 0.0
    for d in (1, 2, 3):
        for k in (-0.2, -0.5, -1.0, -2.0, -5.0):
            for r in (0.05, 0.3, 1.0, 3.0, 12.0):
                cf = gr.green(d, WaveNumber.negative(k), r)
                oracle = orc.green_negk_quadrature_oracle(d, k, r)
                worst = max(worst, abs(cf.real - oracle) / abs(oracle))
    dt = time.time() - t0
    assert worst <= 1e-8
    assert dt < 10.0
    print(f"\nPASS criterion 1 (Green's function cross-validation): "
          f"worst rel err {worst:.2e} <= 1e-8 on the 3x5x5 grid, {dt:.1f}s")


def test_criterion_02_decomposition_and_conjugation():
    rng = np.random.default_rng(42)
    worst = 0.0
    n = 0
    while n < 50:
        d = int(rng.integers(1, 4))
        k = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(-1.3, 1.3))
        if k.real <= 0:
            continue
        r = rng.uniform(0.05, 20.0)
        g_out = gr.green(d, WaveNumber.outgoing(k), r)
        g_neg = gr.green(d, WaveNumber.negative(-k), r)
        helm = 2 * k * gr.green_helmholtz(d, k, r, +1)
        scale = max(abs(g_out), abs(g_neg), abs(helm))
        worst = max(worst, abs(g_out - g_neg - helm) / scale)
        n += 1
    assert worst <= 1e-10
    worst_conj = 0.0
    for d in (1, 2, 3):
        for k in (0.3, 1.0, 4.0):
            for r in (0.1, 1.0, 7.0):
                gp = gr.green(d, WaveNumber.outgoing(k), r)
                gm = gr.green(d, WaveNumber.incoming(k), r)
                worst_conj = max(worst_conj, abs(gp - np.conj(gm)) / abs(gp))
    assert worst_conj <= 1e-12
    print(f"\nPASS criterion 2 (decomposition + conjugation): "
          f"identity {worst:.2e} <= 1e-10 at 50 samples, conjugation {worst_conj:.2e} <= 1e-12")


def test_criterion_03_dc_normalization():
    worst = 0.0
    for d in (1, 2, 3):
        f = lambda r: gr.green(d, WaveNumber.negative(-1.0), r).real
        val = orc.radial_integral(f, d, r_max=3e7)
        worst = max(worst, abs(val - 1.0))
    assert worst <= 1e-6
    print(f"\nPASS criterion 3 (DC normalization): max |integral - 1| = {worst:.2e} <= 1e-6")


def test_criterion_04_limiting_spectrum_structure():
    p = P3(0.1)
    spectra = {}
    for n in (64, 128):
        _, weights, B = asym.limiting_spectrum(p, 1, QuadratureRule.make(1.0, n_radial=n))
        S = np.sqrt(weights)
        mu, U = np.linalg.eigh(B)
        assert np.all(mu >= -1e-10)
        spectra[n] = (mu[::-1], U[:, ::-1], S)
    mu64, U64, S64 = spectra[64]
    assert mu64[0] - mu64[1] > 1e-3               # lowest mode simple
    psi1 = U64[:, 0] / S64
    assert np.all(psi1 > 0) or np.all(psi1 < 0)   # one-signed eigenvector
    w = p.omega_a - mu64[:8]
    assert np.all(np.diff(w) > 0) and np.all(w < p.omega_a)
    drift = np.max(np.abs(mu64[:6] - spectra[128][0][:6]))
    assert drift <= 1e-6
    print(f"\nPASS criterion 4 (limiting spectrum): positive simple spectrum, "
          f"omega_j increasing toward Omega, node-doubling drift {drift:.2e} <= 1e-6")


def test_criterion_05_resonance_invariants(resonances_3d):
    res = resonances_3d
    assert len(res) == 5
    assert all(r.converged for r in res)
    for r in res:
        assert r.omega.imag <= 1e-9
        assert r.residual <= 1e-8
    re = np.array([r.omega.real for r in res])
    im = np.array([r.omega.imag for r in res])
    assert np.all(np.diff(re) > 0) and np.all(re < 1.0)   # increasing toward Omega = 1
    assert np.all(np.diff(np.abs(im)) < 0)                # |Im| decreasing with j
    assert np.min(np.abs(np.subtract.outer(re, re) + np.eye(5))) > 1e-8  # distinct
    print("\nPASS criterion 5 (resonances at d=3, eps=0.1): "
          f"5 distinct modes, Re up to {re[-1]:.4f} -> 1, |Im| {abs(im[0]):.1e} .. "
          f"{abs(im[-1]):.1e} decreasing, residuals <= 1e-8")


def test_criterion_06_expansion_consistency_3d():
    t0 = time.time()
    n = 48
    mode = asym.limiting_modes(P3(1e-3), 1, QuadratureRule.make(1.0, n_radial=n))[0]
    im_ratio = None
    re_resid = []
    for eps in (4e-3, 2e-3, 1e-3):
        p = P3(eps)
        rule = QuadratureRule.make(eps, n_radial=n)
        res, extra = es._solve_one_mode(p, mode.omega_j, rule, 1e-12, 60, [])
        assert extra is not None
        pred = asym.resonance_expansion_3d(mode, p, eps)
        re_resid.append(abs(res.root.real - pred.real) / eps**2)
        if eps == 1e-3:
            im_ratio = res.root.imag / pred.imag
    dt = time.time() - t0
    assert abs(im_ratio - 1.0) <= 0.05
    # bounded as eps halves: no doubling anywhere along the sweep
    assert all(b / a <= 1.5 for a, b in zip(re_resid, re_resid[1:])), re_resid
    assert dt < 120.0
    print(f"\nPASS criterion 6 (3D expansion consistency): Im ratio {im_ratio:.4f} "
          f"within 5% at eps=1e-3; |Re-asym|/eps^2 = "
          f"{', '.join(f'{x:.3f}' for x in re_resid)} bounded; {dt:.1f}s")


def test_criterion_07_log_limit_consistency_1d():
    # Im omega * log eps -> g^2 s0 |B1| / c = 2.  The deviation decays like
    # 1/|log eps| (self-consistency shifts arg k off the real axis), so the
    # 10% threshold is reached near eps = 1e-10; eps = 1e-4 still sits at
    # ~24%.  The discretization is scale invariant, so tiny eps costs nothing.
    target = 2.0
    re_target = 1.0 - 2.0 / np.pi
    eps_list = (1e-4, 1e-6, 1e-8, 1e-10)
    devs, re_gaps = [], []
    for eps in eps_list:
        p = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=1.0)
        res = es.find_resonances(p, 1, rule=QuadratureRule.make(1.0, n_radial=48))
        assert res[0].converged
        w = res[0].omega
        devs.append(abs(w.imag * np.log(eps) - target) / target)
        re_gaps.append(abs(w.real - re_target))
    # limit reached within 10% at the small end of the sweep
    assert devs[-1] <= 0.10
    # deviation decays at the 1/|log eps| rate along the sweep
    scaled = [d * abs(np.log(e)) for d, e in zip(devs, eps_list)]
    assert max(scaled) <= 1.6 * min(scaled)
    # Re -> Omega - g^2 s0 |B1|/(pi c) at the fitted O(1/log eps) rate
    re_scaled = [g * abs(np.log(e)) for g, e in zip(re_gaps, eps_list)]
    assert max(re_scaled) <= 1.6 * min(re_scaled)
    print(f"\nPASS criterion 7 (1D log-limit consistency): Im*log(eps) deviation "
          f"{devs[0]*100:.1f}% at 1e-4 -> {devs[-1]*100:.1f}% at 1e-10 (<= 10%), "
          f"decaying ~ 1/|log eps|; Re gap*|log eps| = "
          f"{', '.join(f'{x:.2f}' for x in re_scaled)}")


def test_criterion_08_bound_state_suite(bound_state_setup):
    params, omega_star = bound_state_setup
    # (a) the 1D square density always binds through a mu_1 = 1 crossing
    assert omega_star < 0
    mu = bs._mu_n(params, omega_star, 1, QuadratureRule.make(1.0, n_radial=48))
    assert abs(mu - 1.0) <= 1e-9
    # (b) necessary condition
    assert params.g**2 * params.density >= omega_star * (omega_star - params.omega_a)
    # (c) subcritical d=2 density yields zero crossings on the omega grid: the
    # square [-1, 1]^2 at rho0 = 0.5 on its equal-area disk, R = 2/sqrt(pi)
    p2 = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0,
                        epsilon=bs.equal_volume_radius(2, 1.0), rho0=0.5)
    assert 2 * p2.g**2 * p2.density * p2.epsilon / (p2.omega_a * p2.c) < bs.sobolev_threshold(2)
    rule = QuadratureRule.make(1.0, n_radial=32)
    counts = [bs.count_bound_states_below(p2, w, rule) for w in (-0.02, -0.2, -1.0, -5.0)]
    assert all(c == 0 for c in counts)
    # (d) small-eps exponent fit against the power law p = Omega pi c/(g^2 s0 |B1|) - 1
    s0 = np.pi / 4.0
    p_pred = asym.bound_state_exponent_1d(
        PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=0.01, s0=s0))
    eps_list = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    rule = QuadratureRule.make(1.0, n_radial=40)  # one rule for the whole sweep
    ws = []
    for eps in eps_list:
        pe = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=s0)
        ws.append(bs.solve_bound_state(pe, 1, rule).omega)
    slope = np.polyfit(np.log(eps_list), np.log(-np.asarray(ws)), 1)[0]
    assert abs(slope - p_pred) <= 0.05 * p_pred
    print(f"\nPASS criterion 8 (bound-state suite): omega* = {omega_star:.6f} with "
          f"mu=1 crossing; necessary condition holds; subcritical 2D counts all 0; "
          f"exponent fit {slope:.4f} vs p = {p_pred} (within 5%)")


def test_criterion_09_birman_schwinger_equivalence(bound_state_setup):
    params, omega_star = bound_state_setup
    op = ny.build_full_operator(params, complex(omega_star),
                                QuadratureRule.make(1.0, n_radial=64))
    lam = es.characteristic_value(op)
    assert abs(lam) <= 1e-6
    print(f"\nPASS criterion 9 (Birman-Schwinger equivalence): full-operator "
          f"characteristic value {abs(lam):.2e} <= 1e-6 at omega* = {omega_star:.6f}")


def test_criterion_10_dynamics():
    # (i) mass conservation over t in [0, 10] at dt = 1e-3
    L, N = 16.0, 4096
    x = -L / 2 + (L / N) * np.arange(N)
    p = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=0.25, s0=0.5)
    st0 = dyn.FieldState(L, np.exp(-4 * x**2) * np.exp(2j * x),
                         np.where(np.abs(x) <= 0.25, 0.3, 0.0) + 0j, 0.0).normalized()
    out = dyn.evolve(st0, 1e-3, 10000, p)
    drift = abs(out.mass() - 1.0)
    assert drift <= 1e-8
    # (ii) step-halving self-convergence of order 2.  The integrator order is
    # measured with a smooth density profile: a discontinuous chi-density
    # roughens the splitting commutators and caps the observed order near
    # 1.6 regardless of implementation.
    rho_smooth = p.density * np.where(np.abs(x) <= p.epsilon,
                                      np.cos(np.pi * x / (2 * p.epsilon)) ** 2, 0.0)
    phi_smooth = np.where(np.abs(x) <= p.epsilon,
                          np.cos(np.pi * x / (2 * p.epsilon)) ** 2, 0.0).astype(complex)
    st_sm = dyn.FieldState(L, np.exp(-((x + 1.0) ** 2)) * np.exp(2j * x),
                           0.4 * phi_smooth, 0.0).normalized()
    ref = dyn.evolve(st_sm, 0.5 / 1024, 1024, p, rho=rho_smooth)
    errs = []
    for nst in (16, 32, 64):
        o = dyn.evolve(st_sm, 0.5 / nst, nst, p, rho=rho_smooth)
        errs.append(np.linalg.norm(o.psi - ref.psi) + np.linalg.norm(o.phi - ref.phi))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= q <= 2.3 for q in orders)
    # (iii) decay rate vs resonance within 20% on the joint scenario
    pd = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=0.05, s0=0.3)
    res = es.find_resonances(pd, 1, rule=QuadratureRule.make(1.0, n_radial=48))
    w_star = res[0].omega
    Lb, Nb = 24.0, 8192
    xb = -Lb / 2 + (Lb / Nb) * np.arange(Nb)
    phi0 = np.where(np.abs(xb) <= pd.epsilon, 1.0, 0.0).astype(complex)
    state0 = dyn.FieldState(Lb, np.zeros(Nb, complex), phi0, 0.0).normalized()
    cur = state0
    ts, surv = [], []
    for _ in range(40):
        cur = dyn.evolve(cur, 1e-3, 100, pd)
        ts.append(cur.t)
        surv.append(dyn.survival_probability(state0, cur))
    ts, surv = np.asarray(ts), np.asarray(surv)
    m = (ts >= 1.0) & (ts <= 4.0)
    slope = np.polyfit(ts[m], np.log(surv[m]), 1)[0]
    ratio = slope / (2 * w_star.imag)
    assert abs(ratio - 1.0) <= 0.20
    print(f"\nPASS criterion 10 (dynamics): mass drift {drift:.1e} <= 1e-8, "
          f"splitting orders {orders[0]:.2f}/{orders[1]:.2f}, decay slope/(2 Im w*) "
          f"= {ratio:.3f} within 20%")


def test_criterion_11_special_functions():
    rng = np.random.default_rng(2)
    worst = {"e1": 0.0, "j0": 0.0, "y0": 0.0, "k0": 0.0}
    for _ in range(40):
        z = rng.uniform(0.05, 50.0) * np.exp(1j * rng.uniform(-0.45 * np.pi, 0.45 * np.pi))
        worst["e1"] = max(worst["e1"], abs(sf.exp_integral_e1(z) - orc.e1_ref(z)) / abs(orc.e1_ref(z)))
        worst["j0"] = max(worst["j0"], abs(sf.bessel_j0(z) - orc.j0_ref(z)) / max(abs(orc.j0_ref(z)), 1e-3))
        worst["y0"] = max(worst["y0"], abs(sf.bessel_y0(z) - orc.y0_ref(z)) / max(abs(orc.y0_ref(z)), 1e-3))
        worst["k0"] = max(worst["k0"], abs(sf.struve_k0(z) - orc.struve_k0_ref(z)) / abs(orc.struve_k0_ref(z)))
    assert worst["e1"] <= 1e-12
    assert worst["j0"] <= 1e-12
    assert worst["y0"] <= 1e-12
    assert worst["k0"] <= 1e-10
    k20 = sf.struve_k0(20.0 + 0j)
    asym_val = 2.0 / (20.0 * np.pi)
    assert abs(k20 - asym_val) <= 0.01 * abs(k20)
    print(f"\nPASS criterion 11 (special functions): worst rel errs "
          f"E1 {worst['e1']:.1e}, J0 {worst['j0']:.1e}, Y0 {worst['y0']:.1e} (<= 1e-12), "
          f"K0 {worst['k0']:.1e} (<= 1e-10); K0(20) within 1% of 2/(20 pi)")
