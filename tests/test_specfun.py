from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_resonance import specfun as sf

import oracle_utils as orc

# frozen oracle values (see oracle_utils for the generating code)
E1_AT_1 = 0.21938393439552027  # series, 60 terms, extended precision
E1_AT_10 = 4.15696892969e-06   # adaptive quadrature of the tail integral
J0_AT_1 = 0.7651976865579666
J0_FIRST_ZERO = 2.4048255576957728
Y0_AT_1 = 0.08825696421567696
Y0_AT_HALF = -0.44451873350670656
K0_AT_1 = 0.4803996628326110


def test_e1_frozen_values():
    assert abs(sf.exp_integral_e1(1.0 + 0j) - E1_AT_1) <= 1e-12 * E1_AT_1
    assert abs(sf.exp_integral_e1(10.0 + 0j) - E1_AT_10) <= 1e-11 * E1_AT_10


def test_e1_oracle_reproduces_frozen():
    assert abs(orc.e1_series_extended(1.0) - E1_AT_1) < 1e-15
    assert abs(orc.e1_quad_ray(10.0) - E1_AT_10) < 1e-16


def test_e1_grid_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        z = rng.uniform(0.05, 50) * np.exp(1j * rng.uniform(-0.85 * np.pi, 0.85 * np.pi))
        ref = orc.e1_ref(z)
        assert abs(sf.exp_integral_e1(z) - ref) <= 1e-12 * abs(ref), z


def test_e1_schwarz_reflection():
    w = 0.5 + 0.5j
    assert abs(sf.exp_integral_e1(np.conj(w)) - np.conj(sf.exp_integral_e1(w))) < 1e-15


def test_e1_branch_cut_rejected():
    for z in (-1.0 + 0j, 0.0 + 0j, -25.0 + 0j):
        with pytest.raises(sf.SpecialFunctionDomainError):
            sf.exp_integral_e1(z)


def test_e1_crossover_continuity():
    # both regimes agree on the switching circle
    for th in np.linspace(-0.8 * np.pi, 0.8 * np.pi, 17):
        z = np.asarray([sf.E1_SERIES_RADIUS * np.exp(1j * th)])
        a = sf._e1_series(z)[0]
        b = sf._e1_continued_fraction(z)[0]
        assert abs(a - b) <= 1e-10 * abs(a), th


def test_j0_frozen_values():
    assert abs(sf.bessel_j0(0.0 + 0j) - 1.0) == 0.0
    assert abs(sf.bessel_j0(1.0 + 0j) - J0_AT_1) <= 1e-12
    assert abs(sf.bessel_j0(J0_FIRST_ZERO + 0j)) <= 1e-10


def test_y0_frozen_values():
    assert abs(sf.bessel_y0(1.0 + 0j) - Y0_AT_1) <= 1e-12
    assert abs(sf.bessel_y0(0.5 + 0j) - Y0_AT_HALF) <= 1e-12


@pytest.mark.parametrize("fn,ref,tol", [
    (sf.bessel_j0, orc.j0_ref, 1e-12),
    (sf.bessel_y0, orc.y0_ref, 1e-12),
    pytest.param(partial(sf.hankel0, kind=1), partial(orc.hankel_ref, kind=1), 1e-12,
                 id="hankel0_kind1-1e-12"),
    pytest.param(partial(sf.hankel0, kind=2), partial(orc.hankel_ref, kind=2), 1e-12,
                 id="hankel0_kind2-1e-12"),
])
def test_bessel_grid_against_oracle(fn, ref, tol):
    rng = np.random.default_rng(5)
    for _ in range(60):
        z = rng.uniform(0.05, 50) * np.exp(1j * rng.uniform(-0.45 * np.pi, 0.45 * np.pi))
        r = ref(z)
        assert abs(fn(z) - r) <= tol * max(abs(r), 1e-3), z


def test_hankel_identity_and_reflection():
    z = 1.0 + 0.3j
    h1 = sf.hankel0(z, 1)
    assert abs(h1 - (sf.bessel_j0(z) + 1j * sf.bessel_y0(z))) < 1e-13 * abs(h1)
    w = 2.0 + 1.0j
    assert abs(sf.hankel0(np.conj(w), 2) - np.conj(sf.hankel0(w, 1))) < 1e-12 * abs(sf.hankel0(w, 1))


# recessive points: H0 is exponentially small next to J0 and Y0 there, so
# composing it as J0 +- i Y0 cancels catastrophically
@pytest.mark.parametrize("z,kind", [
    (1.5 + 5.97j, 1),
    (2.36 + 5.93j, 1),
    (-29.5 - 39.8j, 2),
    (-32.85 + 37.07j, 1),
])
def test_hankel_recessive_against_oracle(z, kind):
    ref = orc.hankel_ref(z, kind)
    assert abs(sf.hankel0(z, kind) - ref) <= 1e-12 * abs(ref)


def test_hankel_decay_along_imaginary_direction():
    # |H0^(1)| decreases along upward rays
    vals = [abs(sf.hankel0(5.0 + 1j * y, 1)) for y in (0.0, 2.0, 5.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_hankel_large_argument_asymptotic():
    z = 30.0 + 0j
    asym = np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * (z - np.pi / 4))
    h = sf.hankel0(z, 1)
    assert abs(h * np.sqrt(z)) < 1.0
    assert abs(h - asym) < 2e-2 * abs(asym)
    assert abs(h - orc.hankel_ref(z, 1)) < 1e-12 * abs(h)


def test_wronskian():
    h = 1e-6
    for x in (0.5, 1.0, 5.0, 20.0):
        j0p = (sf.bessel_j0(x + h + 0j) - sf.bessel_j0(x - h + 0j)) / (2 * h)
        y0p = (sf.bessel_y0(x + h + 0j) - sf.bessel_y0(x - h + 0j)) / (2 * h)
        w = sf.bessel_j0(x + 0j) * y0p - j0p * sf.bessel_y0(x + 0j)
        assert abs(w - 2.0 / (np.pi * x)) <= 1e-9, x


def test_struve_k0_frozen_value():
    assert abs(sf.struve_k0(1.0 + 0j) - K0_AT_1) <= 1e-10 * K0_AT_1


def test_struve_k0_large_argument():
    val = sf.struve_k0(20.0 + 0j)
    assert abs(val - 2.0 / (20.0 * np.pi)) <= 0.01 * abs(val)


def test_struve_k0_real_positive_axis_is_real():
    for x in (0.3, 1.0, 8.0, 15.0, 45.0):
        assert abs(sf.struve_k0(x + 0j).imag) <= 1e-12


def test_struve_k0_grid_against_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        z = rng.uniform(0.05, 50) * np.exp(1j * rng.uniform(-0.8 * np.pi, 0.8 * np.pi))
        ref = orc.struve_k0_ref(z)
        assert abs(sf.struve_k0(z) - ref) <= 1e-10 * abs(ref), z


# mid-range radii: H0 - Y0 by the power series cancels there (1e-11 near
# |z| = 10), so these points pin the integral representation to round-off
@pytest.mark.parametrize("radius", [4.0, 6.0, 8.0, 9.9])
def test_struve_k0_mid_range_round_off(radius):
    for theta in (0.0, 0.3 * np.pi, -0.45 * np.pi, 0.7 * np.pi):
        z = radius * np.exp(1j * theta)
        ref = orc.struve_k0_ref(z)
        assert abs(sf.struve_k0(z) - ref) <= 1e-13 * abs(ref), z


def test_struve_k0_cut_rejected():
    with pytest.raises(sf.SpecialFunctionDomainError):
        sf.struve_k0(-3.0 + 0j)
    with pytest.raises(sf.SpecialFunctionDomainError):
        sf.struve_k0(0.0 + 0j)


def test_struve_h0_consistency():
    z = 2.0 + 0.4j
    ref = complex(orc.struve_k0_ref(z)) + orc.y0_ref(z)
    assert abs(sf.struve_k0(z) + sf.bessel_y0(z) - ref) < 1e-10 * abs(ref)


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(min_magnitude=0.05, max_magnitude=40,
                          allow_infinity=False, allow_nan=False))
def test_conjugate_symmetry_property(z):
    # real-coefficient series off the cut map conjugates to conjugates
    if abs(z.imag) < 1e-12 and z.real <= 0:
        return
    for fn in (sf.exp_integral_e1, sf.bessel_j0, sf.bessel_y0, sf.struve_k0):
        if abs(z.imag) < 1e-12 and z.real <= 0:
            return
        a = fn(np.conj(z))
        b = np.conj(fn(z))
        assert abs(a - b) <= 1e-11 * max(abs(b), 1e-12)


def test_vectorized_matches_scalar():
    zs = np.array([0.5 + 0.2j, 9.0 - 1.0j, 30.0 + 2.0j])
    vec = sf.bessel_j0(zs)
    for i, z in enumerate(zs):
        assert vec[i] == sf.bessel_j0(z)


def _e1_continued_fraction_all_points(z, maxit=10000):
    # the loop that iterates every point until the slowest one converges
    tiny = 1e-300
    b = z + 1.0
    c = np.full_like(z, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    active = np.ones(z.shape, dtype=bool)
    for i in range(1, maxit):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h[active] = h[active] * delta[active]
        active &= np.abs(delta - 1.0) >= 1e-16
        if not np.any(active):
            return np.exp(-z) * h
    raise RuntimeError("did not converge")


def test_e1_continued_fraction_drops_converged_points_bit_identically():
    # imaginary-axis arguments i kappa rho as the 1D kernels pass them, plus
    # a scattered 2D array off the axis
    rng = np.random.default_rng(5)
    rho = np.concatenate([rng.uniform(0.0, 2.0, 3000), np.geomspace(1e-6, 2.0, 200)])
    for kappa in (1024.0, 100.0, 5.0):
        z = 1j * kappa * rho
        z = z[np.abs(z) >= sf.E1_SERIES_RADIUS]
        assert np.array_equal(sf._e1_continued_fraction(z), _e1_continued_fraction_all_points(z))
    z = rng.uniform(4.0, 60.0, (20, 30)) * np.exp(1j * rng.uniform(-2.0, 2.0, (20, 30)))
    assert np.array_equal(sf._e1_continued_fraction(z), _e1_continued_fraction_all_points(z))


def test_elliptic_ke_against_mpmath():
    # K to 1e-15 and E to 2e-14 relative over mc = 1e-30 ... 1, by the AGM;
    # mc = 0 (m = 1) gives K = inf and E = 1 without a warning
    import warnings

    import mpmath as mp
    mc = np.r_[10.0 ** np.arange(-30, 0.01, 0.5), np.linspace(0.0, 1.0, 41)[1:], 1 - 1e-16]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K, E = sf.elliptic_ke(mc)
        k1, e1 = sf.elliptic_ke(0.0)
    assert k1 == np.inf and e1 == 1.0
    assert np.array_equal(sf.elliptic_k(mc), K)
    with mp.workdps(60):  # m = 1 - mc keeps 30 digits of mc = 1e-30
        for x, k, e in zip(mc, K, E):
            m = 1 - mp.mpf(x)
            assert abs(k - mp.ellipk(m)) <= 1e-15 * mp.ellipk(m), x
            assert abs(e - mp.ellipe(m)) <= 2e-14 * mp.ellipe(m), x
