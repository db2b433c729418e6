"""Birman-Schwinger machinery for bound states below the continuum.

For omega < 0 the bound-state problem is equivalent to the compact,
self-adjoint, positive operator

    K_omega[rho] = g^2 rho^{1/2} (c(-Delta)^{1/2} + |omega|)^{-1} rho^{1/2}
                   / (Omega + |omega|)

having an eigenvalue >= 1: the number of Hamiltonian eigenvalues in
(-infty, omega] equals the number of eigenvalues of K_omega in [1, infty).
Its eigenvalues mu_n(omega) increase monotonically as omega increases
toward 0-, so bound states are located by solving mu_n(omega) = 1 with
Brent's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import greens, nystrom
from .greens import Branch
from .nystrom import OperatorKind, PhysicalParams, QuadratureRule

BRACKET_EXPONENTS = (-20, 10)  # omega = -c 2^j from just below 0 to the deepest


class BoundStateNotFound(RuntimeError):
    """No mu_n(omega) = 1 crossing inside the scanned bracket."""


@dataclass(frozen=True)
class DensityProfile:
    """Compactly supported bounded density: a square profile or a scaled
    high-contrast inclusion tied to a parameter set.

    Square profiles in d >= 2 are treated as balls of equal volume in the
    radial discretization (off-center supports only in d = 1).
    """

    d: int
    rho0: float
    half_width: float
    center: float = 0.0
    scaled: bool = False

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if self.rho0 <= 0 or self.half_width <= 0:
            raise ValueError("density height and half-width must be positive")
        if self.center != 0.0 and self.d != 1:
            raise ValueError("off-center densities are supported in d = 1 only")

    @classmethod
    def square(cls, d, rho0, half_width, center=0.0):
        if d >= 2:
            # ball of the same volume as the cube [-R, R]^d
            radius = half_width * (2.0**d / greens.ball_volume(d, 1.0)) ** (1.0 / d)
            return cls(d, rho0, radius, 0.0)
        return cls(d, rho0, half_width, center)

    @classmethod
    def from_params(cls, params: PhysicalParams):
        return cls(params.d, params.density, params.epsilon, 0.0, scaled=True)

    @property
    def sup_density(self) -> float:
        return self.rho0

    def density_power_integral(self, power) -> float:
        """Integral of rho^power over the support (ball/interval geometry)."""
        return self.rho0**power * greens.ball_volume(self.d, self.half_width)


@dataclass(frozen=True)
class BSOperator:
    """Symmetric discretization of K_omega[rho] on the support of rho."""

    matrix: np.ndarray
    rule: QuadratureRule
    omega: float
    profile: DensityProfile
    params: PhysicalParams
    asymmetry: float  # similarity-transform asymmetry before symmetrizing

    @property
    def kind(self):
        return OperatorKind.BIRMAN_SCHWINGER


def _bs_rule(profile, n_nodes):
    if profile.d == 1:
        a = profile.center - profile.half_width
        b = profile.center + profile.half_width
        return QuadratureRule.make_interval(a, b, n_nodes)
    return QuadratureRule.make(profile.half_width, n_radial=n_nodes)


def build_bs_operator(profile: DensityProfile, omega, params: PhysicalParams,
                      rule: QuadratureRule = None, n_nodes=64) -> BSOperator:
    """Symmetric matrix of K_omega[rho] for real omega < 0.

    The resolvent kernel is (1/c) G^{omega/c}(x - y) on the negative
    branch; inside the (constant) density support the square roots
    contribute a plain factor rho0.
    """
    omega = float(omega)
    if omega >= 0:
        raise ValueError("the bound-state operator needs omega < 0")
    if params.d != profile.d:
        raise ValueError("profile and parameter dimensions disagree")
    if rule is None:
        rule = _bs_rule(profile, n_nodes)
    k = omega / params.c
    pref = params.g**2 * profile.rho0 / (
        params.c * (params.omega_a + abs(omega)))
    if profile.d == 1:
        kern = nystrom.kernel_1d_interval(k, Branch.NEGATIVE)
        W = nystrom.build_kernel_matrix(rule, kern, 0)
        norm_w = rule.weights
    else:
        kern, smooth = nystrom._full_kernel_parts(profile.d, k, Branch.NEGATIVE, rule)
        W = nystrom.build_kernel_matrix(rule, kern, profile.d - 1, smooth)
        norm_w = greens.surface_measure(profile.d) * rule.weights * rule.nodes ** (profile.d - 1)
    B, asym = nystrom.weighted_symmetrize(pref * W.real, norm_w)
    return BSOperator(B, rule, omega, profile, params, asym)


def mu_spectrum(op: BSOperator, m: int) -> np.ndarray:
    """The m largest eigenvalues, in decreasing order."""
    if m < 1:
        raise ValueError("need m >= 1")
    ev = np.linalg.eigvalsh(op.matrix)
    if m > len(ev):
        raise ValueError(f"requested {m} eigenvalues from an N={len(ev)} matrix")
    return ev[::-1][:m].copy()


def count_bound_states_below(profile: DensityProfile, omega, params: PhysicalParams,
                             rule: QuadratureRule = None, n_nodes=64) -> int:
    """Number of Hamiltonian eigenvalues in (-infty, omega]."""
    op = build_bs_operator(profile, omega, params, rule, n_nodes)
    ev = np.linalg.eigvalsh(op.matrix)
    return int(np.count_nonzero(ev >= 1.0))


def _mu_n(profile, omega, params, n, n_nodes, rule=None):
    op = build_bs_operator(profile, omega, params, rule=rule, n_nodes=n_nodes)
    return float(mu_spectrum(op, n)[n - 1])


def solve_bound_state(profile: DensityProfile, params: PhysicalParams, mode_n: int = 1,
                      tol: float = 1e-10, n_nodes: int = 64) -> float:
    """Frequency omega* < 0 at which mu_n crosses 1.

    mu_n is continuous and increasing in omega, so f(j) = mu_n(-c 2^j) - 1
    decreases in the scan exponent j.  Once f changes sign over
    BRACKET_EXPONENTS, Brent's method (scipy.optimize.brentq) refines the
    crossing, and omega* is returned only if |mu_n(omega*) - 1| <= tol.
    """
    if mode_n < 1:
        raise ValueError("mode index must be >= 1")
    rule = _bs_rule(profile, n_nodes)
    seen: dict = {}

    def f(j):
        if j not in seen:
            seen[j] = _mu_n(profile, -params.c * 2.0**j, params, mode_n, n_nodes, rule) - 1.0
        return seen[j]

    j_shallow, j_deep = BRACKET_EXPONENTS
    if f(j_shallow) < 0.0:
        raise BoundStateNotFound(
            f"no bound state detected for mode {mode_n}: "
            f"mu_{mode_n} stays below 1 on the scanned bracket"
        )
    if f(j_deep) >= 0.0:
        raise BoundStateNotFound(
            f"mu_{mode_n} >= 1 already at the deepest scanned omega = "
            f"{-params.c * 2.0**j_deep}; bracket does not cover the crossing"
        )
    j_star = brentq(f, j_shallow, j_deep, xtol=1e-14, disp=False)
    if abs(f(j_star)) > tol:
        raise BoundStateNotFound(
            f"root refinement stalled for mode {mode_n}: "
            f"final |mu - 1| = {abs(f(j_star)):.2e}"
        )
    return float(-params.c * 2.0**j_star)


def sobolev_threshold(d: int) -> float:
    """S_d = (d-1)/2 * |S^d|^{1/d}, with |S^d| the surface measure of the
    unit d-sphere in R^{d+1}."""
    if d < 2:
        raise ValueError("the threshold is defined for d >= 2")
    surface = 2.0 * np.pi ** ((d + 1) / 2) / math.gamma((d + 1) / 2)
    return float((d - 1) / 2.0 * surface ** (1.0 / d))


def nbs_upper_bound(profile: DensityProfile, params: PhysicalParams, K_d: float) -> float:
    """Upper bound K_d (g^2/(Omega c))^d * integral rho^d on the number of
    bound states.  K_d is a universal constant not derived here; callers
    supply it."""
    if profile.d < 2:
        raise ValueError("the counting bound applies to d >= 2")
    if K_d <= 0:
        raise ValueError("K_d must be positive")
    if params.omega_a <= 0:
        raise ValueError("the bound needs Omega > 0")
    factor = (params.g**2 / (params.omega_a * params.c)) ** profile.d
    return float(K_d * factor * profile.density_power_integral(profile.d))
