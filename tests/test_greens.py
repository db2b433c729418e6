import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_resonance import greens as gr
from photon_resonance.greens import Branch, GreensDomainError, WaveNumber

import oracle_utils as orc

# frozen: quadrature oracle of the real-space representation at d=1, k=-1, r=1
G1_NEG_K1_R1 = 0.1093005998610416


def test_zero_branch_closed_forms():
    assert abs(gr.green(3, WaveNumber.zero(), 1.0) - 1.0 / (2 * np.pi**2)) < 1e-15
    assert abs(gr.green(2, WaveNumber.zero(), 2.0) - 1.0 / (4 * np.pi)) < 1e-15


def test_negative_branch_matches_quadrature_oracle():
    val = gr.green(1, WaveNumber.negative(-1.0), 1.0)
    assert abs(val.imag) < 1e-14
    assert abs(val.real - G1_NEG_K1_R1) <= 1e-8 * G1_NEG_K1_R1
    assert abs(orc.green_negk_quadrature_oracle(1, -1.0, 1.0) - G1_NEG_K1_R1) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_oracle_cross_validation_grid(d):
    for k in (-0.3, -1.0, -4.0):
        for r in (0.1, 1.0, 6.0):
            cf = gr.green(d, WaveNumber.negative(k), r)
            oracle = orc.green_negk_quadrature_oracle(d, k, r)
            assert abs(cf.real - oracle) <= 1e-8 * abs(oracle), (d, k, r)


def test_negative_branch_positive_and_decaying():
    # negative-branch kernel: real, strictly positive, bounded by c_d/(k^2 r^{d+1})
    for d in (1, 2, 3):
        vals = [gr.green(d, WaveNumber.negative(-1.0), r) for r in (0.2, 1.0, 5.0)]
        for v in vals:
            assert abs(v.imag) < 1e-13 and v.real > 0
        assert vals[0].real > vals[1].real > vals[2].real
    v = orc.green_negk_quadrature_oracle(2, -1.0, 5.0)
    assert v > 0
    assert v <= gr.heat_constant(2) / (1.0 * 5.0**3)


def test_fourier_dc_value():
    assert gr.fourier_dc_value(1, -1.0) == 1.0
    assert gr.fourier_dc_value(2, -2.0) == 0.5
    with pytest.raises(GreensDomainError):
        gr.fourier_dc_value(3, 1.0)


def test_dc_normalization_radial_quadrature():
    # integral of G^{-1} over R^1 equals 1 (heavier d=2,3 runs live in acceptance)
    f = lambda r: gr.green(1, WaveNumber.negative(-1.0), r).real
    val = orc.radial_integral(f, 1)
    assert abs(val - 1.0) <= 1e-6


def test_helmholtz_closed_forms():
    v3 = gr.green_helmholtz(3, 1.0, 1.0, +1)
    assert abs(v3 - np.exp(1j) / (4 * np.pi)) < 1e-15
    v1 = gr.green_helmholtz(1, 2.0, 0.5, +1)
    assert abs(v1 - (1j / 4.0) * np.exp(1j)) < 1e-15
    with pytest.raises(GreensDomainError):
        gr.green_helmholtz(3, -1.0, 1.0, +1)


def test_decomposition_identity_fixed_sample():
    d, k, r = 3, 1.0 + 0.2j, 0.7
    lhs = gr.green(d, WaveNumber.outgoing(k), r) - gr.green(d, WaveNumber.negative(-k), r)
    rhs = 2 * k * gr.green_helmholtz(d, k, r, +1)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3),
       st.floats(0.1, 10.0),
       st.floats(-1.2, 1.2),
       st.floats(0.05, 20.0))
def test_decomposition_identity_property(d, kmag, karg, r):
    k = kmag * np.exp(1j * karg)
    if k.real <= 1e-12:
        return
    g_out = gr.green(d, WaveNumber.outgoing(k), r)
    g_neg = gr.green(d, WaveNumber.negative(-k), r)
    helm = 2 * k * gr.green_helmholtz(d, k, r, +1)
    scale = max(abs(g_out), abs(g_neg), abs(helm))
    assert abs(g_out - g_neg - helm) <= 1e-10 * scale


def test_conjugation_identity():
    for d in (1, 2, 3):
        for k in (0.3, 1.0, 4.0):
            for r in (0.1, 1.0, 7.0):
                gp = gr.green(d, WaveNumber.outgoing(k), r)
                gm = gr.green(d, WaveNumber.incoming(k), r)
                assert abs(gp - np.conj(gm)) <= 1e-12 * abs(gp), (d, k, r)


def test_wavenumber_validation():
    with pytest.raises(GreensDomainError):
        WaveNumber.outgoing(-1.0)           # wrong half plane
    with pytest.raises(GreensDomainError):
        WaveNumber.negative(1.0)
    with pytest.raises(GreensDomainError):
        WaveNumber.outgoing(1j)             # punctured imaginary axis
    with pytest.raises(GreensDomainError):
        WaveNumber(1.0, Branch.ZERO)
    assert WaveNumber.zero().k == 0


def test_radius_floor():
    with pytest.raises(GreensDomainError):
        gr.green(3, WaveNumber.zero(), 0.0)
    with pytest.raises(GreensDomainError):
        gr.green(3, WaveNumber.zero(), 1e-13)


def test_expansion_terms_frozen_coefficients():
    c3 = gr.expansion_terms(3, 1.0, 0.5)
    assert abs(c3.log_terms[2] - (-1.0 / (2 * np.pi**2))) < 1e-15
    assert abs(c3.log_terms[2] + 0.050660592) < 1e-9
    c2 = gr.expansion_terms(2, 1.0, 0.5)
    assert abs(c2.log_terms[1] - (-1.0 / (2 * np.pi))) < 1e-15
    assert c2.log_terms[2] == 0.0
    with pytest.raises(GreensDomainError):
        gr.expansion_terms(3, 1.0, 0.0)


def _scaled_remainder(d, k, x, eps, n_terms):
    co = gr.expansion_terms(d, k, x)
    g = gr.green(d, WaveNumber.outgoing(k), eps * x)
    acc = eps ** (d - 1) * g
    for n in range(n_terms):
        acc -= eps**n * co.regular[n]
    for n, v in co.log_terms.items():
        if n < n_terms:
            acc -= eps**n * np.log(eps) * v
    return acc


@pytest.mark.parametrize("d,order", [(1, 1), (2, 3), (3, 3)])
def test_expansion_remainder_richardson(d, order):
    # after removing the listed terms the remainder decays at the next order
    k, x = 0.9, 0.6
    eps = np.array([1e-2, 5e-3, 2.5e-3])
    res = [abs(_scaled_remainder(d, k, x, e, order)) for e in eps]
    slope = orc.loglog_slope(eps, res)
    assert slope >= order - 0.35, (d, slope)


def test_farfield_deficit_decreases():
    d1 = gr.farfield_deficit(3, 1.0, 50.0)
    d2 = gr.farfield_deficit(3, 1.0, 200.0)
    assert d2 < d1


def test_farfield_1d_tail():
    # G(r) - i e^{ikr} = O(r^-2)
    k = 1.0
    vals = []
    for r in (50.0, 100.0, 200.0):
        g = gr.green(1, WaveNumber.outgoing(k), r)
        vals.append(abs(g - 1j * np.exp(1j * k * r)) * r**2)
    assert max(vals) < 1.0


def test_farfield_upper_halfplane_decay():
    # Im k > 0: G = O(r^-(d+1)); r^4 |G| stays bounded in 3D
    k = 1.0 + 0.5j
    vals = [abs(gr.green(3, WaveNumber.outgoing(k), r)) * r**4 for r in (20.0, 40.0, 80.0)]
    assert max(vals) < 10.0 * min(vals)
    assert max(vals) < 1.0


def test_fractional_heat_kernel():
    assert abs(gr.fractional_heat_kernel(1, 1.0, 0.0) - 1.0 / np.pi) < 1e-15
    d, t, r = 2, 0.5, 1.0
    bound = gr.heat_constant(d) / t**d
    assert gr.fractional_heat_kernel(d, t, r) <= bound
    val = orc.radial_integral(lambda rr: gr.fractional_heat_kernel(1, 1.0, rr), 1,
                              r_max=1e9)
    assert abs(val - 1.0) <= 1e-8
    with pytest.raises(GreensDomainError):
        gr.fractional_heat_kernel(1, -1.0, 0.5)


# (kappa's phase, branch): k = kappa, or k = -kappa on the negative branch
SERIES_BRANCHES = ((np.exp(-0.01j), Branch.OUTGOING), (np.exp(0.01j), Branch.INCOMING),
                   (1.0, Branch.NEGATIVE))


def _series_sum(k, branch, rho):
    a, b = gr.g1_series(k, branch, 64)
    return (sum(a[n] * rho**n for n in range(len(a)))
            + sum(b[m] * rho ** (2 * m) * np.log(rho) for m in range(1, len(b))))


@pytest.mark.parametrize("phase, branch", SERIES_BRANCHES)
def test_g1_series_matches_closed_form(phase, branch):
    # G1(k, rho) - G1(0, rho) pointwise up to |kappa| rho = 4 (the moment builds' radius)
    rho = np.geomspace(1e-6, 1.0, 61)
    for kappa in (1e-6, 0.1, 1.0, 4.0):
        k = -kappa * phase if branch is Branch.NEGATIVE else kappa * phase
        diff = gr._g1(k, rho, branch) - gr._g1(0.0, rho, Branch.ZERO)
        assert np.max(np.abs(_series_sum(k, branch, rho) - diff)) <= 5e-15 * max(1.0, np.max(np.abs(diff))), kappa


@pytest.mark.parametrize("phase, branch", SERIES_BRANCHES)
def test_g1_series_against_mpmath(phase, branch):
    import mpmath as mp
    for kappa, rho in ((0.8, 1e-3), (0.8, 0.3), (2.0, 2.0), (1.0, 4.0)):
        k = -kappa * phase if branch is Branch.NEGATIVE else kappa * phase
        kk, rr = mp.mpc(complex(k)), mp.mpf(rho)
        z = 1j * kk * rr
        ref = (mp.exp(z) * mp.e1(z) + mp.exp(-z) * mp.e1(-z)) / (2 * mp.pi) + (mp.log(rr) + mp.euler) / mp.pi
        if branch is Branch.OUTGOING:
            ref += 1j * mp.exp(z)
        elif branch is Branch.INCOMING:
            ref -= 1j * mp.exp(-z)
        ref = complex(ref)
        assert abs(_series_sum(k, branch, rho) - ref) <= 2e-15 * abs(ref), (kappa, rho)


def test_g1_series_zero_branch_and_lengths():
    a, b = gr.g1_series(0.0, Branch.ZERO, 9)
    assert a.shape == (10,) and b.shape == (5,)
    assert not a.any() and not b.any()
    a, b = gr.g1_series(-0.5, Branch.NEGATIVE, 9)
    assert b[0] == 0 and np.max(np.abs(a.imag)) == 0 and np.max(np.abs(b.imag)) == 0
