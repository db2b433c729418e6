"""Birman-Schwinger machinery for bound states below the continuum.

For omega < 0 the bound-state problem is equivalent to the compact,
self-adjoint, positive operator

    K_omega[rho] = g^2 rho^{1/2} (c(-Delta)^{1/2} + |omega|)^{-1} rho^{1/2}
                   / (Omega + |omega|)

having an eigenvalue >= 1: the number of Hamiltonian eigenvalues in
(-infty, omega] equals the number of eigenvalues of K_omega in [1, infty).
Its eigenvalues mu_n(omega) increase monotonically as omega increases
toward 0-, so bound states are located by solving mu_n(omega) = 1 with
Brent's method (zeroin; Brent 1973, *Algorithms for Minimization without
Derivatives*, ch. 4), ported step for step from scipy.optimize.brentq.

Since rho <= rho0 and the multiplier (c|xi| + |omega|)^{-1} has norm
1/|omega|, every mu_n(omega) <= ||K_omega|| <= g^2 rho0 / (|omega| (Omega +
|omega|)) in every d; G^0 need not be positive.  The solve's deep bracket
end sits where this bound is 1/2, so mu_n < 1 there is proven, not
guessed, and the bracket stays at moderate |omega|.

rho = params.density on the ball of radius params.epsilon, as for
resonances.  The kernel depends on x - y only and rho is constant on its
support, so a translated support has the same K_omega.

K_omega is built as the resonance operators are, on a rule of any radius R
through W(k; eps) = s W(s k; R), s = eps / R (`nystrom.scaled_kernel_matrix`):
the callers pass QuadratureRule.make(1.0, N), so one rule and its cached
moment stacks serve every mode, density and eps.  The solve builds its
deep bracket end first, which makes the stack, W_sing its kind 0, in one
pass.

In 1D, K_omega maps even functions on [-eps, eps] to even ones and odd to
odd, so its spectrum is that of its even block, the d = 1 operator on [0,
eps], merged with that of its odd block, the 3D s-wave operator of the same
density and radius (`nystrom` module docstring); both build on the one
rule.  The negative-branch kernel is positive, so the top eigenfunction is
simple and positive (Jentzsch), hence even: mode 1 needs only the even
block, and the odd block is built for modes n >= 2 and for
count_bound_states_below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import greens, nystrom
from .greens import Branch
from .nystrom import PhysicalParams, QuadratureRule

BRACKET_EXPONENTS = (-20, 10)  # omega = -c 2^j from just below 0 to the deepest
DEEP_END_BOUND = 0.5  # the norm bound on mu at the deep end; 2x margin for discretization
MU_ROUNDOFF = 4 * np.finfo(float).eps  # |error| of a computed mu near 1 (+-2 ulp measured)
MIN_SLOPE = 0.1  # |d mu / d j| at the root, for roots with |omega| >= 0.17 Omega
# Brent's smallest step, xtol / 2, moves mu by at least twice its round-off
# where the slope is at least MIN_SLOPE, so the sign of f there, and with it
# the number of builds, does not depend on round-off
BRENT_XTOL = 4 * MU_ROUNDOFF / MIN_SLOPE
MU_TOL = 1e-10  # largest |mu_n - 1| at a returned root


class BoundStateNotFound(RuntimeError):
    """No mu_n(omega) = 1 crossing inside the scanned bracket."""


def equal_volume_radius(d: int, half_width: float) -> float:
    """Radius of the ball with the volume of the cube [-half_width,
    half_width]^d, on which a square density is solved in d >= 2; in d = 1
    it is half_width itself, bit for bit."""
    return half_width * (2.0**d / greens.ball_volume(d, 1.0)) ** (1.0 / d)


@dataclass(frozen=True)
class BSOperator:
    """Symmetric discretization of K_omega[rho] on the support of rho."""

    matrix: np.ndarray
    asymmetry: float  # similarity-transform asymmetry before symmetrizing


@dataclass(frozen=True)
class BoundState:
    """A root of mu_n(omega) = 1 and the value of mu_n found there."""

    omega: float
    mu: float
    asymmetry: float | None = None  # largest BSOperator.asymmetry of the solve's builds


def build_bs_operator(params: PhysicalParams, omega, rule: QuadratureRule) -> BSOperator:
    """Symmetric matrix of K_omega[rho] for real omega < 0, with rho =
    params.density on the ball of radius params.epsilon; in 1D, its even
    block (module docstring).

    The resolvent kernel is (1/c) G^{omega/c}(x - y) on the negative
    branch; inside the (constant) density support the square roots
    contribute a plain factor rho0.  On a rule of radius R it is s times
    the kernel at s k on the rule, s = eps / R
    (`nystrom.scaled_kernel_matrix`).
    """
    omega = float(omega)
    if omega >= 0:
        raise ValueError("the bound-state operator needs omega < 0")
    s, W, weights = nystrom.scaled_kernel_matrix(params, rule, omega / params.c, Branch.NEGATIVE)
    pref = params.g**2 * params.density / (params.c * (params.omega_a + abs(omega))) * s
    B, asym = nystrom.weighted_symmetrize(pref * W.real, weights)
    return BSOperator(B, asym)


def _blocks(params, omega, rule, odd):
    """The operators whose spectra together are that of K_omega: K_omega
    itself in 2D and 3D; in 1D its even block and, if `odd`, its odd block,
    the 3D s-wave operator of the same density (module docstring)."""
    ops = [build_bs_operator(params, omega, rule)]
    if params.d == 1 and odd:
        ops.append(build_bs_operator(replace(params, d=3, rho0=params.density, s0=None), omega, rule))
    return ops


def mu_spectrum(op: BSOperator, m: int) -> np.ndarray:
    """The m largest eigenvalues, in decreasing order."""
    if m < 1:
        raise ValueError("need m >= 1")
    ev = np.linalg.eigvalsh(op.matrix)
    if m > len(ev):
        raise ValueError(f"requested {m} eigenvalues from an N={len(ev)} matrix")
    return ev[::-1][:m].copy()


def count_bound_states_below(params: PhysicalParams, omega, rule: QuadratureRule) -> int:
    """Number of Hamiltonian eigenvalues in (-infty, omega]."""
    return sum(int(np.count_nonzero(np.linalg.eigvalsh(op.matrix) >= 1.0))
               for op in _blocks(params, omega, rule, True))


def _mu_n(params, omega, n, rule, asymmetries=None):
    """mu_n(omega), the n-th largest eigenvalue over the blocks, each of
    which gives at most its size; each block's asymmetry is appended to the
    list `asymmetries`, if one is given."""
    ops = _blocks(params, omega, rule, n > 1)
    if asymmetries is not None:
        asymmetries.extend(op.asymmetry for op in ops)
    mu = [mu_spectrum(op, min(n, len(op.matrix))) for op in ops]
    return float(np.sort(np.concatenate(mu))[-n])


def deep_end_exponent(params: PhysicalParams) -> float:
    """Scan exponent j of the deep bracket end omega = -c 2^j: where the norm
    bound g^2 rho0 / (|omega| (Omega + |omega|)) on every mu_n equals
    DEEP_END_BOUND, capped at the deep end of BRACKET_EXPONENTS."""
    omega_a = params.omega_a
    q = params.g**2 * params.density / DEEP_END_BOUND
    depth = 0.5 * (math.sqrt(omega_a**2 + 4.0 * q) - omega_a)
    return min(math.log2(depth / params.c), BRACKET_EXPONENTS[1])


def brentq(f, a, b, xtol):
    """Root of f on [a, b] (f(a), f(b) of opposite signs) by Brent's zeroin.

    A port of scipy.optimize.brentq with its default rtol = 4 eps and
    maxiter = 100: the same interpolate, extrapolate and bisect tests,
    steps of at least delta = (xtol + rtol |x|) / 2, and the same stop once
    the bracket half-width is below delta.  On the functions the tests try,
    it returns the same root and evaluates f at the same points.  After 100
    steps it returns the last point, as brentq(disp=False).
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the smaller |f| at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4 * np.finfo(float).eps * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur


def solve_bound_state(params: PhysicalParams, mode_n: int, rule: QuadratureRule) -> BoundState:
    """Frequency omega* < 0 at which mu_n crosses 1, with mu_n(omega*) and
    the largest asymmetry of the operators the solve built.

    mu_n is continuous and increasing in omega, so f(j) = mu_n(-c 2^j) - 1
    decreases in the scan exponent j.  The bracket runs from the shallow
    end of BRACKET_EXPONENTS to the deep end j_deep, where the norm bound
    puts mu_n at DEEP_END_BOUND (deep_end_exponent), capped at the deep end
    of BRACKET_EXPONENTS.  Once f changes sign over it, Brent's method
    (brentq) refines the crossing down to BRENT_XTOL in j, and omega* is
    returned only if |mu_n(omega*) - 1| <= MU_TOL.  (d ln mu_n / d ln|omega|
    is at most -|omega| / (Omega + |omega|), which gives MIN_SLOPE its
    range.)  f is 0 where |mu_n - 1| <= 8 MU_ROUNDOFF: there round-off,
    not the operator, sets the sign of mu_n - 1, so Brent stops at such a
    point whatever the round-off.  The returned mu is the one computed
    there, so it equals a rebuild's.  The modes of one density and every
    density and eps of a sweep can share `rule`, and the deep end is
    evaluated first (module docstring).  When mu_n stays below 1 at the
    shallow end, the error names the number of bound states there
    (count_bound_states_below, one more build on this failure path only).
    """
    if mode_n < 1:
        raise ValueError("mode index must be >= 1")
    j_shallow = BRACKET_EXPONENTS[0]
    j_deep = deep_end_exponent(params)
    if j_deep <= j_shallow:
        raise BoundStateNotFound(
            f"no bound state detected for mode {mode_n}: the norm bound keeps "
            f"mu_{mode_n} below 1 on the scanned bracket"
        )
    seen: dict = {}  # j -> mu_n(-c 2^j)
    asymmetries: list = []

    def f(j):
        if j not in seen:
            seen[j] = _mu_n(params, -params.c * 2.0**j, mode_n, rule, asymmetries)
        return 0.0 if abs(seen[j] - 1.0) <= 8 * MU_ROUNDOFF else seen[j] - 1.0

    f(j_deep)  # the deep end first, see the docstring
    if f(j_shallow) < 0.0:
        omega = -params.c * 2.0**j_shallow
        count = count_bound_states_below(params, omega, rule)
        raise BoundStateNotFound(
            f"no bound state detected for mode {mode_n}: "
            f"mu_{mode_n} stays below 1 on the scanned bracket; "
            f"bound states below its shallow end omega = {omega:.6g}: {count}"
        )
    if f(j_deep) >= 0.0:
        raise BoundStateNotFound(
            f"mu_{mode_n} >= 1 already at the deepest scanned omega = "
            f"{-params.c * 2.0**j_deep}; bracket does not cover the crossing"
        )
    j_star = brentq(f, j_shallow, j_deep, BRENT_XTOL)
    if abs(f(j_star)) > MU_TOL:
        raise BoundStateNotFound(
            f"root refinement stalled for mode {mode_n}: "
            f"final |mu - 1| = {abs(f(j_star)):.2e}"
        )
    return BoundState(float(-params.c * 2.0**j_star), seen[j_star], max(asymmetries))


def sobolev_threshold(d: int) -> float:
    """S_d = (d-1)/2 * |S^d|^{1/d}, with |S^d| the surface measure of the
    unit d-sphere in R^{d+1}."""
    if d < 2:
        raise ValueError("the threshold is defined for d >= 2")
    surface = 2.0 * np.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)
    return float((d - 1) / 2.0 * surface ** (1.0 / d))

