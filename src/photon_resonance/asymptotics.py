"""Closed-form small-radius expansions of the resonance/bound-state frequencies.

These are computed from the limiting operator's discrete spectrum on the
unit domain and serve as independent cross-checks of the nonlinear solver:
masses and inner products use the same quadrature-weighted discrete forms
as the solver, so discretization bias cancels in joint comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import nystrom
from .nystrom import PhysicalParams, QuadratureRule

UNIT_INTERVAL_LENGTH = 2.0  # |B_1| in one dimension


class AsymptoticsError(ValueError):
    pass


@dataclass(frozen=True)
class LimitingMode:
    """Eigenpair of the limiting operator, with the derived quadratic forms.

    mass = integral of the normalized eigenfunction over the unit domain;
    a1_quad = <psi, A1 psi> with the first-order correction operator A1 =
    omega_j / (4 pi c |x - y|) of d = 3 at the mode's own frequency (only
    `resonance_expansion_3d` reads it; other d raise AsymptoticsError).
    As a quadratic form it is -(g^2 s0 / c)(omega_j / c) <psi, Q psi>, Q
    one real build of the reduced kernel 1 / max(r, r'), made when
    a1_quad is first read, so modes used only as seeds cost no build.
    """

    j: int
    omega_j: float
    psi: np.ndarray
    mass: float
    rule: QuadratureRule
    params: PhysicalParams

    def __post_init__(self):
        if not math.isfinite(self.omega_j):
            raise AsymptoticsError("mode frequency must be finite")

    @cached_property
    def a1_quad(self) -> float:
        p = self.params
        if p.d != 3:
            raise AsymptoticsError("the A1 correction is read by the d = 3 expansion only")
        Q = nystrom.build_kernel_matrix(self.rule, lambda r0, t: 1.0 / np.maximum(r0, t), 2)
        form = np.sum(nystrom.volume_weights(3, self.rule) * self.psi * (Q @ self.psi))
        return float(-(p.g**2 * p.s0_effective / p.c) * (self.omega_j / p.c) * form)


def require_unit_domain(rule: QuadratureRule):
    """ValueError unless the rule is on [0, 1], where L0, psi and A1 live."""
    if rule.domain != (0.0, 1.0):
        raise ValueError(f"limiting operators need a rule on [0, 1], got {rule.domain}")


def limiting_spectrum(params: PhysicalParams, n: int, rule: QuadratureRule):
    """omega_j = Omega - mu_j of the top-n eigenvalues mu_j of the limiting
    operator L0, increasing toward Omega, with L0 and its weighted
    symmetrization B.

    L0 is built once and the mu_j come from `np.linalg.eigvalsh(B)`, which
    computes no eigenvector: the Muller seeds and `limiting_modes` take
    their omega_j from here, so both are the same numbers.
    """
    if params.d not in (2, 3):
        raise AsymptoticsError("limiting modes are defined for d in {2, 3}")
    if n < 1:
        raise ValueError("n must be >= 1")
    require_unit_domain(rule)
    op = nystrom.build_l0_operator(params, rule)
    B, _ = nystrom.weighted_symmetrize(op.matrix.real, op.norm_weights)
    mu = np.linalg.eigvalsh(B)  # ascending
    if n > len(mu):
        raise ValueError(f"requested {n} modes from an N={len(mu)} grid")
    return [params.omega_a - float(m) for m in mu[::-1][:n]], op, B


def limiting_modes(params: PhysicalParams, n: int, rule: QuadratureRule) -> list[LimitingMode]:
    """Top-n eigenpairs of the limiting operator, shifted by Omega.

    The frequencies are those of `limiting_spectrum`; each eigenvector, for
    the masses and quadratic forms of the expansions, comes from the solver's
    inverse iteration (`eigensolver._inverse_iteration`) on B - mu_j (1 +
    1e-13) I, B the same symmetrized matrix (an `eigh` of B would wake a
    second OpenBLAS thread).  Its real part is normalized in the
    quadrature-weighted norm and sign-fixed so the mass is nonnegative.
    """
    from .eigensolver import _inverse_iteration  # eigensolver imports this module

    omegas, op, B = limiting_spectrum(params, n, rule)
    W = op.norm_weights
    S = np.sqrt(W)
    out = []
    for j, omega_j in enumerate(omegas):
        u = _inverse_iteration(B, (params.omega_a - omega_j) * (1.0 + 1e-13))[1].real
        psi = u / np.linalg.norm(u) / S  # function values of unit weighted norm
        mass = float(np.sum(W * psi))
        if mass < 0:
            psi = -psi
            mass = -mass
        out.append(LimitingMode(j + 1, omega_j, psi, mass, op.rule, params))
    return out


def resonance_expansion_3d(mode: LimitingMode, params: PhysicalParams, eps: float) -> complex:
    """omega_j + eps <psi, A1 psi> - i eps^2 omega_j^2 g^2 s0 mass^2 / (2 pi c^3)."""
    if params.d != 3:
        raise AsymptoticsError("three-dimensional expansion needs d = 3")
    re = mode.omega_j + eps * mode.a1_quad
    im = -(eps**2) * mode.omega_j**2 * params.g**2 * params.s0_effective \
        * mode.mass**2 / (2.0 * np.pi * params.c**3)
    return complex(re, im)


def resonance_expansion_2d(mode: LimitingMode, params: PhysicalParams, eps: float) -> complex:
    if params.d != 2:
        raise AsymptoticsError("two-dimensional expansion needs d = 2")
    if eps == 0:
        return complex(mode.omega_j, 0.0)
    coeff = mode.omega_j * params.g**2 * params.s0_effective * mode.mass**2
    re = mode.omega_j + eps * math.log(eps) * coeff / (2.0 * np.pi * params.c**2)
    im = -eps * coeff / (2.0 * params.c**2)
    return complex(re, im)


def limiting_frequency_1d(params: PhysicalParams) -> float:
    """Omega - g^2 s0 |B1| / (pi c), the eigenvalue of the d=1 rank-one limit."""
    return params.omega_a - params.g**2 * params.s0_effective * UNIT_INTERVAL_LENGTH / (
        np.pi * params.c)


def resonance_expansion_1d(params: PhysicalParams, eps: float) -> complex:
    """Leading resonance terms in one dimension under the log-scaled density.

    Valid when Omega - g^2 s0 |B1| / (pi c) > 0; otherwise the mode sits on
    the negative axis and follows the bound-state power law instead (see
    bound_state_exponent_1d).
    """
    if params.d != 1:
        raise AsymptoticsError("one-dimensional expansion needs d = 1")
    if not (0 < eps < 1):
        raise AsymptoticsError("need 0 < eps < 1")
    re = limiting_frequency_1d(params)
    if re <= 0:
        raise AsymptoticsError(
            "Omega - g^2 s0 |B1|/(pi c) <= 0: negative eigenvalue regime; "
            "use bound_state_exponent_1d"
        )
    im = params.g**2 * params.s0_effective * UNIT_INTERVAL_LENGTH / (params.c * math.log(eps))
    return complex(re, im)


def sphere_lowest_mode_approx(params: PhysicalParams, eps: float) -> complex:
    """Pointwise (Born-type) approximation of the lowest spherical mode.

    Evaluating the integral representation at the inclusion center with
    psi frozen there gives, with alpha = 2 g^2 s0 / (pi c),

        omega - Omega ~ -(g^2 s0/c)(2/pi + eps omega/(2c) + 2i eps^2 omega^2/(3c^2)).

    The eps-coefficient is half the naive one because the ball average of
    the first kernel correction carries a factor 1/2 (same pinning as
    expansion_terms).
    """
    if params.d != 3:
        raise AsymptoticsError("sphere approximation needs d = 3")
    g2s0c = params.g**2 * params.s0_effective / params.c
    alpha = 2.0 * g2s0c / np.pi
    re = params.omega_a - alpha - eps * g2s0c * (params.omega_a - alpha) / (2.0 * params.c)
    im = -(eps**2) * alpha * np.pi * (params.omega_a - alpha) ** 2 / (3.0 * params.c**2)
    return complex(re, im)


def bound_state_exponent_1d(params: PhysicalParams) -> float:
    """Power-law exponent of the small negative eigenvalue, omega ~ -c eps^p."""
    if params.d != 1:
        raise AsymptoticsError("the power law applies to d = 1")
    p = params.omega_a * np.pi * params.c / (
        params.g**2 * params.s0_effective * UNIT_INTERVAL_LENGTH) - 1.0
    if p <= 0:
        raise AsymptoticsError(
            "Omega pi c / (g^2 s0 |B1|) <= 1: resonance regime; "
            "use resonance_expansion_1d"
        )
    return float(p)
