"""Green's functions of the half-Laplacian resolvent ((-Delta)^{1/2} - k)^{-1}.

Closed forms in d = 1, 2, 3 for the four branches of the spectral
parameter:

* ``outgoing`` / ``incoming``: Re k > 0, analytic continuations of the
  limits Im k -> 0+ / 0- (outgoing waves obey the Sommerfeld radiation
  condition),
* ``negative``: Re k < 0, where the kernel is real, positive and rapidly
  decaying,
* ``zero``: the k = 0 power-law kernels.

Also provides the Helmholtz splitting G^k = G^{-k} + 2k G_helm^k, the
small-argument expansion coefficients, the closed-form coefficients of
the series of G1(k, rho) - G1(0, rho) in rho^n and rho^2m log rho (which
the 1D and 3D operator builds sum over cached moments instead of
evaluating E1), a far-field radiation-condition deficit and the
fractional heat kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import EULER_GAMMA, _h0, exp_integral_e1, struve_k0

R_MIN = 1e-12  # hard floor: singular behavior below this is the quadrature module's job


class GreensDomainError(ValueError):
    """Invalid (k, branch, r) combination."""


class Branch(enum.Enum):
    OUTGOING = "outgoing"
    INCOMING = "incoming"
    NEGATIVE = "negative"
    ZERO = "zero"


@dataclass(frozen=True)
class WaveNumber:
    """Spectral argument k = omega/c together with its branch.

    k must stay off the punctured imaginary axis; callers needing a limit
    onto the axis pass k with a tiny real part.
    """

    k: complex
    branch: Branch

    def __post_init__(self):
        k = complex(self.k)
        if not (math.isfinite(k.real) and math.isfinite(k.imag)):
            raise GreensDomainError("wave number must be finite")
        if self.branch is Branch.ZERO:
            if k != 0:
                raise GreensDomainError("zero branch requires k = 0")
            return
        if k.real == 0.0:
            raise GreensDomainError(
                "k on the punctured imaginary axis is outside the domain"
            )
        if self.branch in (Branch.OUTGOING, Branch.INCOMING) and k.real < 0:
            raise GreensDomainError(f"{self.branch.value} branch requires Re k > 0")
        if self.branch is Branch.NEGATIVE and k.real > 0:
            raise GreensDomainError("negative branch requires Re k < 0")

    @classmethod
    def outgoing(cls, k):
        return cls(complex(k), Branch.OUTGOING)

    @classmethod
    def incoming(cls, k):
        return cls(complex(k), Branch.INCOMING)

    @classmethod
    def negative(cls, k):
        return cls(complex(k), Branch.NEGATIVE)

    @classmethod
    def zero(cls):
        return cls(0.0 + 0.0j, Branch.ZERO)


def branch_for(k):
    """Branch of a plain k: zero at 0, outgoing for Re k > 0, negative for Re k < 0."""
    kc = complex(k)
    if kc == 0:
        return Branch.ZERO
    if kc.real > 0:
        return Branch.OUTGOING
    if kc.real < 0:
        return Branch.NEGATIVE
    raise GreensDomainError("k on the punctured imaginary axis is outside the domain")


def surface_measure(d):
    """|S^{d-1}|, the surface measure of the unit sphere in R^d."""
    return {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]


def ball_volume(d, radius=1.0):
    return surface_measure(d) * radius**d / d


def heat_constant(d):
    """c_d = Gamma((d+1)/2) / pi^{(d+1)/2}, shared with the heat kernel."""
    return math.gamma((d + 1) / 2) / np.pi ** ((d + 1) / 2)


def _check_r(r):
    ra = np.asarray(r, dtype=float)
    if np.any(ra <= R_MIN):
        raise GreensDomainError(f"radius must exceed {R_MIN}")
    return ra


# ----------------------------------------------------------------------
# closed forms (array-valued in r, real on the zero branch; internal entry
# points skip the r floor, and `green` returns complex values on every branch)
# ----------------------------------------------------------------------

def _g1(k, r, branch):
    if branch is Branch.ZERO:
        return -(np.log(r) + EULER_GAMMA) / np.pi
    core = (
        np.exp(1j * k * r) * exp_integral_e1(1j * k * r)
        + np.exp(-1j * k * r) * exp_integral_e1(-1j * k * r)
    ) / (2 * np.pi)
    if branch is Branch.OUTGOING:
        return core + 1j * np.exp(1j * k * r)
    if branch is Branch.INCOMING:
        return core - 1j * np.exp(-1j * k * r)
    return core


def _g2(k, r, branch):
    if branch is Branch.ZERO:
        return 1.0 / (2 * np.pi * r)
    if branch is Branch.NEGATIVE:
        return 1.0 / (2 * np.pi * r) + (k / 4.0) * struve_k0(-k * r)
    base = 1.0 / (2 * np.pi * r) - (k / 4.0) * struve_k0(k * r)
    if branch is Branch.OUTGOING:
        return base + (1j * k / 2.0) * _h0(np.asarray(k * r, dtype=complex), 1)
    return base - (1j * k / 2.0) * _h0(np.asarray(k * r, dtype=complex), 2)


def _g3(k, r, branch):
    if branch is Branch.ZERO:
        return 1.0 / (2 * np.pi**2 * r**2)
    core = 1.0 / (2 * np.pi**2 * r**2) - (1j * k / (4 * np.pi**2 * r)) * (
        np.exp(1j * k * r) * exp_integral_e1(1j * k * r)
        - np.exp(-1j * k * r) * exp_integral_e1(-1j * k * r)
    )
    if branch is Branch.OUTGOING:
        return core + k * np.exp(1j * k * r) / (2 * np.pi * r)
    if branch is Branch.INCOMING:
        return core + k * np.exp(-1j * k * r) / (2 * np.pi * r)
    return core


def g1_series(k, branch, order):
    """Coefficients of G1(k, rho) - G1(0, rho) = sum a[n] rho^n + sum b[m] rho^2m log rho.

    With kappa = k (outgoing, incoming) or -k (negative) and x = kappa rho,
    the difference is [(1 - cos x)(gamma + log rho) - cos x log kappa
    + (pi/2) sin x + cos x Cin x - sin x Si x] / pi, plus i e^{ix} on the
    outgoing and -i e^{-ix} on the incoming branch (the E1, Si and Cin series
    of DLMF 6.6).  Since cos x Cin x - sin x Si x = sum_j (-1)^j H_2j
    x^2j / (2j)! with H_n the harmonic numbers, the coefficients are closed:

        a[0] = -log kappa / pi,
        a[2j] = (-1)^j kappa^2j / (2j)! (psi(2j + 1) - log kappa) / pi,
            with psi(n + 1) = H_n - gamma,
        a[2j+1] = (-1)^j kappa^(2j+1) / (2 (2j+1)!),
        b[m] = (-1)^(m+1) kappa^2m / ((2m)! pi),

    plus i (i kappa)^n / n! or -i (-i kappa)^n / n! in a[n] on the radiating
    branches.  Returns a[0..order] and b[0..order // 2] (b[0] = 0); on the
    zero branch both are zero.  The series converges for every rho, but
    loses digits to cancellation once |kappa| rho is large.
    """
    n = np.arange(order + 1)
    if branch is Branch.ZERO:
        return np.zeros(order + 1, dtype=complex), np.zeros(order // 2 + 1, dtype=complex)
    kappa = -complex(k) if branch is Branch.NEGATIVE else complex(k)
    log_kappa = np.log(kappa)
    powers = np.cumprod(np.r_[1.0, kappa / n[1:]])  # kappa^n / n!
    sign = np.where(n % 4 < 2, 1.0, -1.0)  # (-1)^(n // 2)
    even = n % 2 == 0
    psi = np.cumsum(np.r_[0.0, 1.0 / n[1:]]) - EULER_GAMMA  # psi(n + 1)
    a = sign * powers * np.where(even, (psi - log_kappa) / np.pi, 0.5)
    a[0] = -log_kappa / np.pi
    if branch is Branch.OUTGOING:
        a += 1j * 1j**n * powers
    elif branch is Branch.INCOMING:
        a -= 1j * (-1j) ** n * powers
    b = -(sign * powers)[::2] / np.pi
    b[0] = 0.0
    return a, b


_G_BY_DIM = {1: _g1, 2: _g2, 3: _g3}


def green(d, wave, r):
    """G^k(r) for |x| = r > 0 in dimension d, on the branch carried by `wave`.

    `wave` may be a WaveNumber or a plain number (branch inferred from the
    sign of its real part; 0 means the zero branch).
    """
    if d not in (1, 2, 3):
        raise GreensDomainError("dimension must be 1, 2 or 3")
    if not isinstance(wave, WaveNumber):
        wave = WaveNumber(complex(wave), branch_for(wave))
    ra = _check_r(r)
    out = _G_BY_DIM[d](wave.k, np.asarray(ra, dtype=float), wave.branch).astype(complex, copy=False)
    return out[()] if np.ndim(r) == 0 else out


def green_helmholtz(d, k, r, sign=+1):
    """Standard Helmholtz Green's function with e^{+-ikr} selected by `sign`."""
    kc = complex(k)
    if kc.real <= 0:
        raise GreensDomainError("green_helmholtz requires Re k > 0")
    if sign not in (+1, -1):
        raise GreensDomainError("sign must be +1 or -1")
    ra = _check_r(r)
    s = float(sign)
    if d == 1:
        out = s * (1j / (2 * kc)) * np.exp(s * 1j * kc * ra)
    elif d == 2:
        kind = 1 if sign > 0 else 2
        out = s * (1j / 4.0) * _h0(np.asarray(kc * ra, dtype=complex), kind)
    elif d == 3:
        out = np.exp(s * 1j * kc * ra) / (4 * np.pi * ra)
    else:
        raise GreensDomainError("dimension must be 1, 2 or 3")
    return out[()] if np.ndim(r) == 0 else out


def fourier_dc_value(d, k):
    """Integral of G^k over R^d for real k < 0; equals -1/k."""
    k = float(k)
    if k >= 0:
        raise GreensDomainError("requires real k < 0")
    return -1.0 / k


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Leading small-argument expansion data of the outgoing kernel.

    ``regular[n]`` holds the coefficient of eps^n (A_n evaluated at x) and
    ``log_terms[n]`` the coefficient of eps^n log(eps) in the rescaled
    expansion of eps^{d-1} * eps * G^k(eps x).  Entries with index >= d are
    uniformly bounded on the unit domain.
    """

    d: int
    regular: tuple
    log_terms: dict


def expansion_terms(d, k, x):
    """First expansion coefficients A_n^k and the log coefficients at |x| = x.

    All values are pinned against the closed-form kernels by Richardson
    fits of eps^d G^k(eps x) (see the test suite); they make the scaled
    remainder after n terms decay at the order of the next term.
    """
    kc = complex(k)
    xa = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    if d not in (1, 2, 3):
        raise GreensDomainError("dimension must be 1, 2 or 3")
    if xa <= R_MIN:
        raise GreensDomainError("x = 0 is singular for the leading terms")
    if d == 1:
        a0 = -(np.log(kc * xa) + EULER_GAMMA) / np.pi + 1j
        return ExpansionCoeffs(1, (a0,), {0: -1.0 / np.pi + 0j})
    if d == 2:
        a0 = 1.0 / (2 * np.pi * xa) + 0j
        a1 = -(kc / (2 * np.pi)) * (np.log(kc * xa / 2.0) + EULER_GAMMA) + 1j * kc / 2
        a2 = -(kc**2) * xa / (2 * np.pi)
        return ExpansionCoeffs(2, (a0, a1, a2), {1: -kc / (2 * np.pi), 2: 0.0 + 0j})
    a0 = 1.0 / (2 * np.pi**2 * xa**2) + 0j
    a1 = kc / (4 * np.pi * xa)
    a2 = (kc**2 / (2 * np.pi**2)) * (1 - EULER_GAMMA + np.pi * 1j - np.log(kc * xa))
    return ExpansionCoeffs(3, (a0, a1, a2), {2: -(kc**2) / (2 * np.pi**2)})


def farfield_deficit(d, k, r, h=1e-4):
    """|r^{(d-1)/2} (dG/dr - i k G)| for the outgoing branch, real k > 0.

    The radial derivative is a central difference with step h; the deficit
    decays in r when the radiation condition holds.
    """
    k = float(k)
    if k <= 0:
        raise GreensDomainError("farfield deficit is defined for real k > 0")
    wave = WaveNumber.outgoing(k)
    r = float(r)
    gp = green(d, wave, r + h)
    gm = green(d, wave, r - h)
    g0 = green(d, wave, r)
    deriv = (gp - gm) / (2 * h)
    return float(abs(r ** ((d - 1) / 2) * (deriv - 1j * k * g0)))


def fractional_heat_kernel(d, t, r):
    """Fundamental solution of the fractional heat flow at elapsed time t."""
    t = float(t)
    if t <= 0:
        raise GreensDomainError("time must be positive")
    ra = np.asarray(r, dtype=float)
    if np.any(ra < 0):
        raise GreensDomainError("radius must be nonnegative")
    out = heat_constant(d) * t / (t * t + ra * ra) ** ((d + 1) / 2)
    return out[()] if np.ndim(r) == 0 else out
