"""Nonlinear eigenvalue solver: Muller iteration on the characteristic value.

A frequency omega is an eigenvalue of the nonlinear problem when the
matrix M(omega) built by the quadrature module is singular.  We track
f(omega) = eigenvalue of M(omega) of smallest magnitude and drive it to
zero with Muller's method, seeded from the spectrum of the limiting
operator.  Physically admissible roots have Im omega <= 0; a small
positive slack absorbs roundoff.

`find_resonances` and `trace_in_epsilon` share one mode loop,
`_solve_modes`: the modes of one parameter set are solved in turn on one
quadrature rule, each deflated against the roots already found.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import nystrom
from .nystrom import PhysicalParams, QuadratureRule, RadialOperator

log = logging.getLogger(__name__)

IM_SLACK = 1e-9  # numerical slack on Im(omega) <= 0
DEFLATION_RADIUS = 1e-8
SEED_SPREAD = (1.0, 1.0 - 1e-3, 1.0 - 1e-3j)


class EigensolverError(RuntimeError):
    pass


def characteristic_value(op: RadialOperator) -> complex:
    """Eigenvalue of smallest magnitude of the operator matrix."""
    if not np.all(np.isfinite(op.matrix)):
        raise EigensolverError("matrix has non-finite entries")
    ev = np.linalg.eigvals(op.matrix)
    return complex(ev[np.argmin(np.abs(ev))])


def _smallest_eigenpair(M):
    ev, V = np.linalg.eig(M)
    i = int(np.argmin(np.abs(ev)))
    return complex(ev[i]), V[:, i]


class MullerResult(NamedTuple):
    root: complex
    fvalue: complex
    iterations: int
    converged: bool


def muller_solve(f: Callable[[complex], complex], seeds: Sequence[complex],
                 tol: float = 1e-10, max_iter: int = 50) -> MullerResult:
    """Muller's method: quadratic interpolation through three iterates.

    The root of the interpolant nearest the newest iterate is taken
    (denominator sign chosen to maximize its magnitude).  Degenerate
    interpolation data perturbs the newest point by 1e-8 |omega| and
    continues.  Non-convergence returns the best iterate, flagged.
    """
    if len(seeds) != 3 or len({complex(s) for s in seeds}) != 3:
        raise ValueError("muller_solve needs three distinct seeds")
    x0, x1, x2 = (complex(s) for s in seeds)
    f0, f1, f2 = f(x0), f(x1), f(x2)
    best = min([(abs(f0), x0, f0), (abs(f1), x1, f1), (abs(f2), x2, f2)],
               key=lambda t: t[0])
    for it in range(1, max_iter + 1):
        if abs(f2) <= tol:
            return MullerResult(x2, f2, it - 1, True)
        h1 = x1 - x0
        h2 = x2 - x1
        if h1 == 0 or h2 == 0:
            x2 += 1e-8 * (abs(x2) or 1.0)
            f2 = f(x2)
            continue
        d1 = (f1 - f0) / h1
        d2 = (f2 - f1) / h2
        a = (d2 - d1) / (h2 + h1)
        b = a * h2 + d2
        disc = cmath.sqrt(b * b - 4.0 * f2 * a)
        den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
        if den == 0:
            x2 += 1e-8 * (abs(x2) or 1.0)
            f2 = f(x2)
            continue
        step = -2.0 * f2 / den
        x0, f0 = x1, f1
        x1, f1 = x2, f2
        x2 = x2 + step
        f2 = f(x2)
        if abs(f2) < best[0]:
            best = (abs(f2), x2, f2)
    if abs(f2) <= tol:
        return MullerResult(x2, f2, max_iter, True)
    return MullerResult(best[1], best[2], max_iter, False)


@dataclass(frozen=True)
class SpectrumResult:
    """A located eigenvalue with its discrete eigenvector and diagnostics.

    The eigenvector is normalized to 1 in the quadrature-weighted norm;
    `residual` is ||M(omega) v|| / ||v|| in the plain vector norm.
    """

    omega: complex
    eigenvector: np.ndarray
    residual: float
    iterations: int
    seed: complex
    converged: bool = True

    def __post_init__(self):
        if self.converged and self.omega.imag > IM_SLACK:
            raise EigensolverError(
                f"resonance with Im omega = {self.omega.imag} > {IM_SLACK}"
            )


def _limiting_frequencies(params: PhysicalParams, n_modes: int):
    if params.d == 1:
        if n_modes != 1:
            raise ValueError("the d=1 limiting operator is rank one: n_modes must be 1")
        w1 = params.omega_a - params.g**2 * params.s0_effective * 2.0 / (np.pi * params.c)
        if w1 > 0:
            # resonance regime: the root sits O(1/log eps) below the real
            # axis, outside the basin of a purely real seed; start Muller at
            # the known leading imaginary part
            w1 = complex(w1, 2.0 * params.g**2 * params.s0_effective
                         / (params.c * math.log(params.epsilon)))
        return [w1]
    op = nystrom.build_l0_operator(params)
    B, _ = nystrom.weighted_symmetrize(op.matrix.real, op.norm_weights)
    mu = np.linalg.eigvalsh(B)[::-1]
    if n_modes > len(mu):
        raise ValueError(f"requested {n_modes} modes from an N={len(mu)} grid")
    return [params.omega_a - float(m) for m in mu[:n_modes]]


def _solve_one_mode(params, omega_seed, rule, tol, max_iter, known_roots):
    evals = {}  # omega -> (operator, characteristic value)

    def f(w):
        wc = complex(w)
        if wc not in evals:
            op = nystrom.build_full_operator(params, wc, rule)
            evals[wc] = (op, characteristic_value(op))
        return evals[wc][1]

    seeds = [omega_seed * s for s in SEED_SPREAD]
    attempt = 0
    while True:
        res = muller_solve(f, seeds, tol=tol, max_iter=max_iter)
        clash = next((r for r in known_roots if abs(res.root - r) < DEFLATION_RADIUS), None)
        if res.converged and clash is None:
            break
        if not res.converged:
            return res, None
        attempt += 1
        if attempt > 4:
            return MullerResult(res.root, res.fvalue, res.iterations, False), None
        bump = (1e-3 * 2**attempt) * max(abs(omega_seed), 1e-3)
        seeds = [s + bump * (1 + 0.3j * attempt) for s in seeds]
    op = evals[res.root][0]
    _, v = _smallest_eigenpair(op.matrix)
    residual = float(np.linalg.norm(op.matrix @ v) / np.linalg.norm(v))
    v = v / op.weighted_norm(v)
    return res, (v, residual)


def _solve_modes(params: PhysicalParams, seeds: Sequence[complex], rule: QuadratureRule,
                 tol: float, max_iter: int, modes: Sequence[int] = None) -> list[SpectrumResult]:
    """The one mode loop: one SpectrumResult per seed, in seed order.

    Each mode deflates against the converged roots of the modes before it:
    a root within DEFLATION_RADIUS of one of them is re-seeded.  A mode
    whose Muller iteration fails is logged and returned with
    converged=False.  `modes` labels the seeds in that warning (1, 2, ...
    by default).
    """
    if modes is None:
        modes = range(1, len(seeds) + 1)
    results = []
    roots = []
    for j, w_seed in zip(modes, seeds):
        res, extra = _solve_one_mode(params, w_seed, rule, tol, max_iter, roots)
        if extra is None:
            log.warning("mode %d did not converge (seed %s, best |f| = %.3e)",
                        j, w_seed, abs(res.fvalue))
            results.append(SpectrumResult(res.root, np.array([]), float("nan"),
                                          res.iterations, w_seed, converged=False))
            continue
        v, residual = extra
        roots.append(res.root)
        results.append(SpectrumResult(res.root, v, residual, res.iterations, w_seed))
    return results


def find_resonances(params: PhysicalParams, n_modes: int, rule: QuadratureRule = None,
                    tol: float = 1e-10, max_iter: int = 50) -> list[SpectrumResult]:
    """Locate the nonlinear eigenvalues seeded from the limiting spectrum.

    Returns one entry per requested mode, sorted by Re(omega).  The modes
    go through the shared mode loop (`_solve_modes`), so converged entries
    are distinct, and modes whose Muller iteration fails are returned with
    converged=False rather than aborting the rest.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if rule is None:
        rule = nystrom.default_rule(params)
    results = _solve_modes(params, _limiting_frequencies(params, n_modes), rule, tol, max_iter)
    return sorted(results, key=lambda s: s.omega.real)


@dataclass(frozen=True)
class ResonanceTrace:
    """One eigenvalue followed along a decreasing inclusion-radius grid."""

    epsilons: tuple
    results: tuple  # SpectrumResult per epsilon
    mode_index: int
    continuity_breaks: tuple = field(default=())

    @property
    def omegas(self):
        return np.array([r.omega for r in self.results])


def trace_in_epsilon(params: PhysicalParams, modes: Sequence[int], epsilons: Sequence[float],
                     n_radial: int = 64, tol: float = 1e-10, max_iter: int = 50,
                     continuity_rtol: float = 0.1) -> list[ResonanceTrace]:
    """Warm-started continuation of the given modes along decreasing eps.

    The limiting spectrum is computed once and seeds the first eps.  At
    each eps one QuadratureRule.make(eps, n_radial) serves every mode, and
    the modes go through the shared mode loop from their roots at the
    previous eps, so they deflate against each other.  A mode that fails
    raises EigensolverError; a jump larger than `continuity_rtol` times
    the distance from the previous root to Omega or to another traced
    mode's previous root is logged and recorded in `continuity_breaks`.
    Returns one ResonanceTrace per mode, in the order of `modes`.
    """
    modes = [int(m) for m in modes]
    if not modes or min(modes) < 1:
        raise ValueError("modes must be a non-empty sequence of indices >= 1")
    if len(set(modes)) != len(modes):
        raise ValueError("mode indices must be distinct")
    eps = [float(e) for e in epsilons]
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("epsilon grid must be strictly decreasing")
    limit = _limiting_frequencies(params, max(modes))
    seeds = [limit[m - 1] for m in modes]
    results = [[] for _ in modes]
    breaks = [[] for _ in modes]
    for i, e in enumerate(eps):
        rule = QuadratureRule.make(e, n_radial=n_radial)
        step = _solve_modes(replace(params, epsilon=e), seeds, rule, tol, max_iter, modes)
        for n, (m, sr) in enumerate(zip(modes, step)):
            if not sr.converged:
                raise EigensolverError(f"continuation of mode {m} failed at eps = {e}")
            if i > 0:  # seeds are the roots at the previous eps
                scale = min(abs(seeds[n] - w) for w in [params.omega_a, *seeds[:n], *seeds[n + 1:]])
                jump = abs(sr.omega - seeds[n]) / scale
                if jump > continuity_rtol:
                    log.warning("mode %d jumps by %.3e relative at eps = %s", m, jump, e)
                    breaks[n].append(i)
            results[n].append(sr)
        seeds = [sr.omega for sr in step]
    return [ResonanceTrace(tuple(eps), tuple(r), m, tuple(b))
            for m, r, b in zip(modes, results, breaks)]
