"""Complex special functions: E1, J0, Y0, Hankel H0, the Struve combination
K0, and the complete elliptic integrals K and E.

Everything here is double precision and vectorized over numpy arrays.
J0, Y0 and H0^(1,2) are thin wrappers around the AMOS routines in
``scipy.special``, imported inside the functions that call them: the
operator builds of the resonance regime need none of them (only a 2D
build above the series radius, the Green's-function tables and K0 do),
so a run that stays in that regime never loads ``scipy.special``.  K and
E are the arithmetic-geometric mean (``elliptic_ke``).  E1 and K0 are
evaluated here, switching between regimes at fixed crossover radii chosen
by sweeping relative accuracy against extended-precision oracles on dense
grids:

* ``exp_integral_e1``: Maclaurin-type series for |z| < 4, modified-Lentz
  continued fraction for |z| >= 4.  ``scipy.special.exp1`` is not used: its
  relative error reaches 2e-12 just below the positive real axis (e.g. at
  4.84 e^{-i pi/100}), where this code stays at round-off.
* ``struve_k0``: power series minus Y0 for |z| <= 3, rotated-contour
  Laplace integral for 3 < |z| < 40, asymptotic series for |z| >= 40;
  arguments in the left half plane are reflected into the right half plane
  first.  The series loses digits to cancellation as |z| grows (1e-11
  relative near |z| = 10), while the Laplace integral stays at round-off.
  ``scipy.special.struve`` accepts real arguments only.

Arguments on the closed negative real axis (the principal branch cut of
E1, Y0, H0 and K0) are rejected rather than continued from one side.
"""

from __future__ import annotations

import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824024

E1_SERIES_RADIUS = 4.0
STRUVE_SERIES_RADIUS = 3.0
STRUVE_ASYMPTOTIC_RADIUS = 40.0


class SpecialFunctionDomainError(ValueError):
    """Argument on a branch cut or otherwise outside a function's domain."""


def _asfarray_complex(z):
    a = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise SpecialFunctionDomainError("non-finite argument")
    return a


def _reject_cut(z, name):
    on_cut = (z.imag == 0.0) & (z.real <= 0.0)
    if np.any(on_cut):
        bad = np.asarray(z)[on_cut].ravel()[0]
        raise SpecialFunctionDomainError(
            f"{name}: argument {bad} lies on the closed negative real axis"
        )


def _maybe_scalar(out, z):
    return out[()] if np.isscalar(z) or np.ndim(z) == 0 else out


# ----------------------------------------------------------------------
# exponential integral E1
# ----------------------------------------------------------------------

def _e1_series(z):
    # E1(z) = -log z - gamma + sum_{n>=1} (-1)^{n+1} z^n / (n n!)
    s = np.zeros_like(z)
    term = np.ones_like(z)
    for n in range(1, 500):
        term = term * (-z) / n
        s += term / n
        if np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(s)), 1e-30):
            break
    return -np.log(z) - EULER_GAMMA - s


def _e1_continued_fraction(z, maxit=10000):
    # even-contracted Lentz form: E1 = e^{-z} / (z+1 - 1/(z+3 - 4/(z+5 - ...)));
    # each point leaves the iteration once its |delta - 1| < 1e-16
    tiny = 1e-300
    b = z.ravel() + 1.0
    c = np.full_like(b, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    live = np.arange(z.size)  # flat indices of the points still iterating
    for i in range(1, maxit):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h[live] = h[live] * delta  # not *=: the in-place loop rounds differently
        going = np.abs(delta - 1.0) >= 1e-16
        if not going.all():
            live, b, c, d = live[going], b[going], c[going], d[going]
            if live.size == 0:
                return np.exp(-z) * h.reshape(z.shape)
    raise RuntimeError("E1 continued fraction did not converge")


def exp_integral_e1(z):
    """Principal-branch exponential integral E1(z) for z off (-inf, 0]."""
    za = _asfarray_complex(z)
    _reject_cut(za, "exp_integral_e1")
    out = np.empty_like(za)
    # the continued fraction stalls near the cut, but there E1 is
    # exponentially large and the series keeps full relative accuracy
    series = (np.abs(za) < E1_SERIES_RADIUS) | \
        ((za.real < 0.0) & (np.abs(za.imag) < 0.5 * np.abs(za.real)))
    if np.any(series):
        out[series] = _e1_series(za[series])
    if np.any(~series):
        out[~series] = _e1_continued_fraction(za[~series])
    return _maybe_scalar(out, z)


# ----------------------------------------------------------------------
# Bessel J0 / Y0 and Hankel functions (AMOS, through scipy.special, which
# is imported on the first call only)
# ----------------------------------------------------------------------

def _jy0(z):
    """J0 and Y0 of a complex array."""
    from scipy.special import jv, yv
    return jv(0, z), yv(0, z)


def _h0(z, kind):
    """Hankel function H0^(1) or H0^(2) of a complex array."""
    from scipy.special import hankel1, hankel2
    return hankel1(0, z) if kind == 1 else hankel2(0, z)


def bessel_j0(z):
    """J0(z) for any finite complex z (entire function, no cut)."""
    from scipy.special import jv
    za = _asfarray_complex(z)
    return _maybe_scalar(jv(0, za), z)


def bessel_y0(z):
    """Principal-branch Y0(z) for z off the closed negative real axis."""
    from scipy.special import yv
    za = _asfarray_complex(z)
    _reject_cut(za, "bessel_y0")
    return _maybe_scalar(yv(0, za), z)


def hankel0(z, kind=1):
    """Principal-branch H0^(1)(z) or H0^(2)(z) for z off the closed negative
    real axis; the recessive one stays accurate to full relative precision."""
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    za = _asfarray_complex(z)
    _reject_cut(za, "hankel0")
    return _maybe_scalar(_h0(za, kind), z)


# ----------------------------------------------------------------------
# Struve functions
# ----------------------------------------------------------------------

def _struve_h0_series(z):
    # H0(z) = sum_n (-1)^n (z/2)^{2n+1} / Gamma(n+3/2)^2
    t = (z / 2.0) * (4.0 / np.pi)  # 1/Gamma(3/2)^2 = 4/pi
    s = np.zeros_like(z)
    n = 0
    while True:
        s += t
        n += 1
        t = t * (-((z / 2.0) ** 2)) / ((n + 0.5) ** 2)
        if np.max(np.abs(t)) < 1e-18 * max(np.max(np.abs(s)), 1e-30) or n > 200:
            break
    return s


def _k0_laplace(z, n_panels=12, n_quad=24):
    # K0(z) = (2/pi) int_0^inf e^{-z t} (1+t^2)^{-1/2} dt for Re z > 0,
    # integrated along the rotated ray t = e^{i theta} s to keep the decay
    # rate bounded below near the imaginary axis.
    theta = -0.5 * np.angle(z)
    theta = np.clip(theta, -np.pi / 3, np.pi / 3)
    w = z * np.exp(1j * theta)
    L = 40.0 / w.real
    xs, ws = np.polynomial.legendre.leggauss(n_quad)
    brk = np.concatenate(([0.0], L * np.geomspace(2.0 ** (1 - n_panels), 1.0, n_panels)))
    total = np.zeros((), dtype=complex)
    for i in range(n_panels):
        a, b = brk[i], brk[i + 1]
        s = 0.5 * (b - a) * xs + 0.5 * (b + a)
        v = 0.5 * (b - a) * ws
        t = np.exp(1j * theta) * s
        total = total + np.sum(v * np.exp(-z * t) / np.sqrt(1.0 + t * t)) * np.exp(1j * theta)
    return (2.0 / np.pi) * total


def _k0_asymptotic(z):
    # K0(z) ~ (2/(pi z)) [1 - 1/z^2 + 9/z^4 - 225/z^6 + ...]
    s = np.zeros_like(z)
    term = np.ones_like(z)
    best = np.full(z.shape, np.inf)
    done = np.zeros(z.shape, dtype=bool)
    for k in range(0, 60):
        mag = np.abs(term)
        done |= mag > best
        best = np.where(done, best, mag)
        s = np.where(done, s, s + term)
        if np.all(done) or np.max(mag) < 1e-18:
            break
        term = term * (-((2 * k + 1) ** 2)) / (z * z)
    return (2.0 / (np.pi * z)) * s


def _k0_right_half(z):
    """K0 on |arg z| <= pi/2 (array input)."""
    out = np.empty_like(z)
    az = np.abs(z)
    small = az <= STRUVE_SERIES_RADIUS
    large = az >= STRUVE_ASYMPTOTIC_RADIUS
    mid = ~(small | large)
    if np.any(small):
        zs = z[small]
        out[small] = _struve_h0_series(zs) - bessel_y0(zs)
    if np.any(mid):
        vals = [_k0_laplace(zz) for zz in z[mid].ravel()]
        out[mid] = np.asarray(vals).reshape(z[mid].shape)
    if np.any(large):
        out[large] = _k0_asymptotic(z[large])
    return out


def struve_k0(z):
    """The combination K0(z) = H0(z) - Y0(z) (Struve minus Bessel), z off the cut.

    Decays like 2/(pi z) for large |z| even though H0 and Y0 separately
    oscillate; this combination is what the two-dimensional Green's
    function needs.
    """
    za = _asfarray_complex(z)
    _reject_cut(za, "struve_k0")
    if np.any(za == 0.0):
        raise SpecialFunctionDomainError("struve_k0: argument must be nonzero")
    out = np.empty_like(za)
    left = za.real < 0.0
    right = ~left
    if np.any(right):
        out[right] = _k0_right_half(za[right])
    if np.any(left):
        # reflection into the right half plane:
        #   Im z > 0:  K0(z) = -K0(-z) - 2i H0^(2)(-z)
        #   Im z < 0:  K0(z) = -K0(-z) + 2i H0^(1)(-z)
        zl = za[left]
        zp = -zl
        k0p = _k0_right_half(zp)
        upper = zl.imag > 0
        # the reflected Hankel term is recessive exactly when the K0 part is
        # dominant; _h0 keeps it accurate either way
        refl = np.where(upper, -k0p - 2j * _h0(zp, 2), -k0p + 2j * _h0(zp, 1))
        out[left] = refl
    return _maybe_scalar(out, z)


# ----------------------------------------------------------------------
# complete elliptic integrals
# ----------------------------------------------------------------------

def _agm(b, c2=None):
    """Limit of the arithmetic-geometric mean a_n+1 = (a_n + b_n) / 2,
    b_n+1 = sqrt(a_n b_n) of a_0 = 1 and b_0 = b, 0 < b <= 1 (DLMF 19.8.1).

    Given c2 = c_0^2 = 1 - b^2, also returns sum_n 2^(n-1) c_n^2, with
    c_n+1 = c_n^2 / (4 a_n+1), the half-difference (a_n - b_n) / 2 without
    its cancellation; otherwise None.
    """
    a = np.ones_like(b)
    weight, total = 0.5, None if c2 is None else 0.5 * c2
    while np.any(a - b > 2.0**-52 * a):
        if c2 is not None:
            c2 = (c2 / (2.0 * (a + b))) ** 2
            weight *= 2.0
            total = total + weight * c2
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return a, total


def elliptic_k(mc):
    """Complete elliptic integral K(m) at m = 1 - mc, 0 <= mc <= 1:
    pi / (2 AGM(1, sqrt(mc))) (DLMF 19.8.5), inf at mc = 0.  Taking mc
    rather than m keeps the logarithmic end m -> 1 at full relative
    accuracy."""
    mc = np.asarray(mc, dtype=float)
    at_one = mc == 0.0
    a, _ = _agm(np.sqrt(np.where(at_one, 1.0, mc)))
    return np.where(at_one, np.inf, 0.5 * np.pi / a)


def elliptic_ke(mc):
    """Complete elliptic integrals K(m) and E(m) at m = 1 - mc, 0 <= mc <= 1.

    K is `elliptic_k`.  E follows from Legendre's relation E K' + E' K -
    K K' = pi / 2 and the AGM of the complementary parameter mc, for which
    K' = pi / (2 a') and E' = K' (1 - S'), S' = sum_n 2^(n-1) c'_n^2 with
    c'_0^2 = mc (DLMF 19.7.1, 19.8.6): E = a' + K S', a sum of positive
    terms, so E keeps full relative accuracy at both ends, where the
    direct K (1 - S) cancels.  mc = 0 gives K = inf and E = 1.
    """
    mc = np.asarray(mc, dtype=float)
    K = elliptic_k(mc)
    # the AGM of 1 and 0 never ends; at mc = 1 the tiny floor stands in for it
    a, total = _agm(np.sqrt(np.maximum(1.0 - mc, np.finfo(float).tiny)), mc)
    return K, a + np.where(mc > 0.0, K, 0.0) * total
