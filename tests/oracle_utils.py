"""Independent oracles used by the test suite only.

Extended-precision references are summed with mpmath; quadrature oracles
use scipy's adaptive integrator.  These deliberately avoid the library's
own evaluation paths.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from photon_resonance import greens as gr, nystrom as ny

mp.mp.dps = 60  # Hankel/Struve references need headroom off the real axis


def e1_series_extended(z, terms=60):
    """E1 by the defining series, truncated at `terms` in extended precision."""
    z = mp.mpc(z)
    s = mp.mpc(0)
    term = mp.mpc(1)
    for n in range(1, terms + 1):
        term *= -z / n
        s += term / n
    return complex(-mp.log(z) - mp.euler - s)


def e1_quad_ray(x):
    """E1(x) for real x > 0 by adaptive quadrature of the tail integral."""
    val = mp.quad(lambda t: mp.e ** (-t) / t, [mp.mpf(x), mp.inf])
    return float(val)


def e1_ref(z):
    return complex(mp.e1(mp.mpc(complex(z))))


def j0_ref(z):
    return complex(mp.besselj(0, mp.mpc(complex(z))))


def y0_ref(z):
    return complex(mp.bessely(0, mp.mpc(complex(z))))


def hankel_ref(z, kind=1):
    f = mp.hankel1 if kind == 1 else mp.hankel2
    return complex(f(0, mp.mpc(complex(z))))


def struve_k0_ref(z):
    zz = mp.mpc(complex(z))
    return complex(mp.struveh(0, zz) - mp.bessely(0, zz))


def green_reduced_3d_oracle(k, branch_green, r, rp):
    """Adaptive angular quadrature of the 3D shell average of G."""
    def f_re(th):
        rho = np.sqrt(r * r + rp * rp - 2 * r * rp * np.cos(th))
        return (2 * np.pi * branch_green(rho) * np.sin(th)).real

    def f_im(th):
        rho = np.sqrt(r * r + rp * rp - 2 * r * rp * np.cos(th))
        return (2 * np.pi * branch_green(rho) * np.sin(th)).imag

    re, _ = quad(f_re, 0, np.pi, epsabs=1e-12, limit=400)
    im, _ = quad(f_im, 0, np.pi, epsabs=1e-12, limit=400)
    return complex(re, im)


def green_negk_quadrature_oracle(d, k, r, abs_tol=1e-12):
    """Slow independent evaluation of the negative-branch kernel.

    Integrates c_d * int_0^inf e^{kt} t (t^2+r^2)^{-(d+1)/2} dt for real
    k < 0, to cross-check the closed forms of `greens`.
    """
    if d not in (1, 2, 3):
        raise gr.GreensDomainError("dimension must be 1, 2 or 3")
    k = float(k)
    if k >= 0:
        raise gr.GreensDomainError("quadrature oracle requires real k < 0")
    r = float(r)
    if r <= gr.R_MIN:
        raise gr.GreensDomainError(f"radius must exceed {gr.R_MIN}")
    cd = gr.heat_constant(d)
    p = (d + 1) / 2

    def integrand(t):
        return math.exp(k * t) * t / (t * t + r * r) ** p

    val, err = quad(integrand, 0.0, np.inf, epsabs=abs_tol, epsrel=1e-13, limit=400)
    if err > max(100 * abs_tol, 1e-8 * abs(val)):
        raise RuntimeError(f"quadrature did not converge: estimate {val}, error {err}")
    return cd * val


def reduced_kernel(d, k, r, rp):
    """Angular average of G^k over shells |x| = r, |y| = rp (surface measure
    of the unit sphere included), for r != rp, from the library's reduced
    kernels at one point."""
    branch = gr.branch_for(k)
    kc = complex(k)
    r = float(r)
    rp = float(rp)
    if r <= 0 or rp <= 0:
        raise ny.NystromError("shell radii must be positive")
    if d == 1:
        return complex(ny.kernel_1d(kc, branch)(r, np.asarray([rp]))[0])
    if d == 3:
        return complex(ny.kernel_3d_reduced(kc, branch)(r, np.asarray([rp]))[0])
    if d == 2:
        tt = np.asarray([rp])
        struve = ny.kernel_2d_struve(kc, branch, np.asarray([r]), tt, [])
        return complex(ny.kernel_2d_singular(kc, branch)(r, tt)[0] + struve[0, 0])
    raise ValueError("dimension must be 1, 2 or 3")


def build_rank1_limit_1d(params, omega, rule=None):
    """d=1 limiting operator: rank-1 perturbation of -(omega - Omega) I.

    Its single nontrivial eigenvalue sits at Omega - g^2 s0 |B1| / (pi c),
    with the constant function as eigenvector.  Without a rule, a 64-node
    rule on the unit interval.
    """
    if params.d != 1:
        raise ValueError("rank-1 limit applies to d = 1 only")
    if rule is None:
        rule = ny.QuadratureRule.make(1.0, n_radial=64)
    w_even = 2.0 * rule.weights  # int over [-1, 1] of even samples
    pref = params.g**2 * params.s0_effective / (np.pi * params.c)
    N = len(rule.nodes)
    M = -(complex(omega) - params.omega_a) * np.eye(N) - pref * np.tile(w_even, (N, 1))
    return ny.RadialOperator(M.astype(complex), rule, complex(omega), params, 2.0 * rule.weights)


def build_limiting_operator(params, omega, rule):
    """Matrix of the eps -> 0 limiting operator -(omega - Omega) I - L0."""
    l0 = ny.build_l0_operator(params, rule)
    M = -(complex(omega) - params.omega_a) * np.eye(len(l0.rule.nodes)) - l0.matrix
    return ny.RadialOperator(M, l0.rule, complex(omega), params, l0.norm_weights)


def radial_integral(f, d, r_max=1e7, n_decades_start=1e-6):
    """integral over R^d of a radial function via geometric panels."""
    import warnings

    from scipy.integrate import IntegrationWarning

    from photon_resonance.greens import surface_measure
    total = 0.0
    a = 0.0
    with warnings.catch_warnings():
        # tiny panels at tight epsabs report roundoff; the panel sum is
        # well below the tolerances these oracles back
        warnings.simplefilter("ignore", IntegrationWarning)
        for b in np.geomspace(n_decades_start, r_max, 48):
            val, _ = quad(lambda r: f(r) * r ** (d - 1), a, b, epsabs=1e-13, limit=200)
            total += val
            a = b
    return surface_measure(d) * total


def loglog_slope(xs, ys):
    """Least-squares slope of log|y| against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys, dtype=float))
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def bisect_real_root(f, a, b, iters=200):
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
