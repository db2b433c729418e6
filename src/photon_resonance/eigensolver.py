"""Nonlinear eigenvalue solver: Muller iteration on the characteristic value.

A frequency omega is an eigenvalue of the nonlinear problem when the
matrix M(omega) built by the quadrature module is singular.  We track
f(omega) = eigenvalue of M(omega) of smallest magnitude, by inverse
iteration on one inverse of M(omega), and drive it to zero with Muller's
method, seeded from the spectrum of the limiting operator.  At N = 48 on a
2-core VM one Muller iterate costs about 0.1 ms for M(omega) (a moment
sum, `nystrom._moment_sum`), 0.12 ms for the inverse and 0.01 ms per
inverse-iteration step (5-19 steps), against 1 ms for `eigvals`.  The
iterate's eigenvector, the inverse iteration's last vector, is cached with
f, so a root's eigenvector and residual come from the evaluation at the
root; a second, shifted inverse iteration (`_smallest_eigenpair`) runs
only where that evaluation met a zero pivot (f = 0 exactly).  The
seeds are its eigenvalues only (`asymptotics.limiting_spectrum`, one
`eigvalsh`): at N = 48 an `eigh` took about three times as long and woke
a second OpenBLAS thread, which then spun through the rest of the solve.
Physically admissible roots have Im omega <= 0; a small positive slack
absorbs roundoff.

`find_resonances` and `trace_in_epsilon` share one mode loop,
`_solve_modes`: the modes of one parameter set are solved in turn on one
quadrature rule, largest |seed| first, each deflated against the roots
already found.  The order is for the rule's moment caches: a build at a
larger |k| needs more series terms, so solving the largest |k| first
builds each moment stack at full height in one pass, where the reverse
order grew it again for every larger mode (`nystrom._moment_sum`).
"""

from __future__ import annotations

import cmath
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import asymptotics, nystrom
from .nystrom import PhysicalParams, QuadratureRule

log = logging.getLogger(__name__)

IM_SLACK = 1e-9  # numerical slack on Im(omega) <= 0
DEFLATION_RADIUS = 1e-8
SEED_SPREAD = (1.0, 1.0 - 1e-3, 1.0 - 1e-3j)
# a traced root that moves by more than this times its distance to Omega or
# to another traced root is logged as a continuity break
CONTINUITY_RTOL = 0.1
MAX_STEPS = 1000  # inverse-iteration steps; settles |lambda_1 / lambda_2| up to about 0.95


class EigensolverError(RuntimeError):
    pass


def _inverse_iteration(M, shift=0j):
    """Eigenvalue of M nearest `shift` and its eigenvector: inverse iteration on one
    inverse of M - shift I from the all-ones vector until the Rayleigh quotient settles
    (its change stops shrinking, within n eps max|M|); near-ties raise EigensolverError."""
    n = len(M)
    shifted = np.array(M, dtype=np.result_type(M, shift))
    shifted[np.diag_indices(n)] -= shift
    inv = np.linalg.inv(shifted)
    tol = n * np.finfo(float).eps * np.max(np.abs(M))
    v, lam, change = np.ones(n, dtype=complex), np.inf, np.inf
    for _ in range(MAX_STEPS):
        w = inv @ v
        v = w / np.abs(w).max()
        lam, prev, last = np.vdot(v, M @ v) / np.vdot(v, v), lam, change
        change = abs(lam - prev)
        if last <= change <= tol:
            return complex(lam), v
    raise EigensolverError(f"near-tied smallest eigenvalues: unsettled after {MAX_STEPS} steps")


def characteristic_value(M):
    """Smallest-magnitude eigenvalue of the matrix M and its eigenvector (the
    inverse iteration's last iterate); (0, None) on a zero pivot."""
    if not np.all(np.isfinite(M)):
        raise EigensolverError("matrix has non-finite entries")
    try:
        return _inverse_iteration(M)
    except np.linalg.LinAlgError:
        return 0j, None


def _smallest_eigenpair(M, ev):
    """Eigenvector of M for its smallest-magnitude eigenvalue ev (a Muller root's
    f), shifted off ev by one rounding unit of M so an exact ev hits no zero pivot."""
    return _inverse_iteration(M, ev + np.finfo(float).eps * np.max(np.abs(M)))[1]


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
    interpolation data (two equal iterates, or a zero denominator)
    perturbs the newest point by 1e-8 |omega| and continues.
    Non-convergence returns the best iterate, flagged.
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
        h1, h2 = x1 - x0, x2 - x1
        den = 0
        if h1 != 0 and h2 != 0 and h1 + h2 != 0:
            d1, d2 = (f1 - f0) / h1, (f2 - f1) / h2
            a = (d2 - d1) / (h2 + h1)
            b = a * h2 + d2
            disc = cmath.sqrt(b * b - 4.0 * f2 * a)
            den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
        if den == 0:  # degenerate interpolation data
            x2 += 1e-8 * (abs(x2) or 1.0)
            f2 = f(x2)
            continue
        x0, f0, x1, f1 = x1, f1, x2, f2
        x2 = x2 - 2.0 * f2 / den
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


def _limiting_frequencies(params: PhysicalParams, n_modes: int, rule: QuadratureRule):
    asymptotics.require_unit_domain(rule)
    if params.d == 1:
        if n_modes != 1:
            raise ValueError("the d=1 limiting operator is rank one: n_modes must be 1")
        w1 = asymptotics.limiting_frequency_1d(params)
        if w1 > 0:
            # resonance regime: the root sits O(1/log eps) below the real
            # axis, outside the basin of a purely real seed; start Muller at
            # the leading terms of its expansion
            w1 = asymptotics.resonance_expansion_1d(params, params.epsilon)
        return [w1]
    return asymptotics.limiting_spectrum(params, n_modes, rule)[0]


def _solve_one_mode(params, omega_seed, rule, tol, max_iter, known_roots, mode):
    """The SpectrumResult of one mode, labelled `mode` in its warning.

    Muller starts from omega_seed; a root within DEFLATION_RADIUS of one of
    `known_roots` is re-seeded, at most 4 times.  A mode whose Muller
    iteration fails, meets an unsettled f or keeps clashing is logged and
    returned with converged=False, at Muller's last root or best iterate
    (its last seed if f failed).
    """
    evals = {}  # omega -> (M, weights, characteristic value, its eigenvector or None)

    def f(w):
        wc = complex(w)
        if wc not in evals:
            M, weights = nystrom.build_full_operator(params, wc, rule)
            evals[wc] = (M, weights, *characteristic_value(M))
        return evals[wc][2]

    seeds = [omega_seed * s for s in SEED_SPREAD]
    for attempt in range(5):  # the seeds, then at most 4 re-seeds
        if attempt:  # off a known root
            bump = (1e-3 * 2**attempt) * max(abs(omega_seed), 1e-3)
            seeds = [s + bump * (1 + 0.3j * attempt) for s in seeds]
        try:
            root, fvalue, iterations, converged = muller_solve(f, seeds, tol=tol, max_iter=max_iter)
        except EigensolverError as exc:  # an iterate without a settled f fails the mode
            log.warning("Muller stopped: %s", exc)
            root, fvalue, iterations = seeds[-1], complex("nan"), 0
            break
        if not converged:
            break
        if all(abs(root - r) >= DEFLATION_RADIUS for r in known_roots):
            M, weights, ev, v = evals[root]
            if v is None:  # f hit a zero pivot: f = 0 exactly
                v = _smallest_eigenpair(M, ev)
            residual = float(np.linalg.norm(M @ v) / np.linalg.norm(v))
            v = v / np.sqrt(np.sum(weights * np.abs(v) ** 2))
            return SpectrumResult(root, v, residual, iterations, omega_seed)
    log.warning("mode %d did not converge (seed %s, best |f| = %.3e)", mode, omega_seed, abs(fvalue))
    return SpectrumResult(root, np.array([]), float("nan"), iterations, omega_seed, converged=False)


def _solve_modes(params: PhysicalParams, seeds: Sequence[complex], rule: QuadratureRule,
                 tol: float, max_iter: int, modes: Sequence[int] = None) -> list[SpectrumResult]:
    """The one mode loop: one SpectrumResult per seed, in seed order.

    The seeds are solved in order of decreasing |seed| (ties in seed
    order), so the first build of the loop has its largest |k| and builds
    the rule's moment stacks at full height once (`nystrom._moment_sum`);
    smaller seeds then need no new rows.  Each mode deflates against the
    converged roots of the modes solved before it (`_solve_one_mode`), so
    on a clash the mode with the smaller |seed| is the one that moves.
    `modes` labels the seeds in the warning of a mode that fails (1, 2, ...
    by default).
    """
    if modes is None:
        modes = range(1, len(seeds) + 1)
    results = [None] * len(seeds)
    roots = []
    for i in sorted(range(len(seeds)), key=lambda i: -abs(seeds[i])):
        results[i] = _solve_one_mode(params, seeds[i], rule, tol, max_iter, roots, modes[i])
        if results[i].converged:
            roots.append(results[i].omega)
    return results


def find_resonances(params: PhysicalParams, n_modes: int, rule: QuadratureRule,
                    tol: float = 1e-10, max_iter: int = 50) -> list[SpectrumResult]:
    """Locate the nonlinear eigenvalues seeded from the limiting spectrum.

    One rule on the unit domain (ValueError otherwise) builds the limiting
    operator and every operator of the solve.  Returns one entry per
    requested mode, sorted by Re(omega).  The modes go through the shared
    mode loop (`_solve_modes`), so converged entries are distinct, and
    modes whose Muller iteration fails are returned with converged=False
    rather than aborting the rest.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    results = _solve_modes(params, _limiting_frequencies(params, n_modes, rule), rule, tol, max_iter)
    return sorted(results, key=lambda s: s.omega.real)


@dataclass(frozen=True)
class ResonanceTrace:
    """One eigenvalue followed along a decreasing inclusion-radius grid."""

    epsilons: tuple
    results: tuple  # SpectrumResult per epsilon
    mode_index: int
    continuity_breaks: tuple = field(default=())


def trace_in_epsilon(params: PhysicalParams, modes: Sequence[int], epsilons: Sequence[float],
                     rule: QuadratureRule, tol: float = 1e-10,
                     max_iter: int = 50) -> list[ResonanceTrace]:
    """Warm-started continuation of the given modes along decreasing eps.

    One rule on the unit domain serves the limit and every eps and mode.
    The limiting frequencies, computed once, seed the first eps.  At each
    eps the modes go through the shared mode loop from their roots at the
    previous eps, so they deflate against each other.  A mode that fails
    raises EigensolverError; a jump larger than CONTINUITY_RTOL times
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
    limit = _limiting_frequencies(params, max(modes), rule)
    seeds = [limit[m - 1] for m in modes]
    results = [[] for _ in modes]
    breaks = [[] for _ in modes]
    for i, e in enumerate(eps):
        step = _solve_modes(replace(params, epsilon=e), seeds, rule, tol, max_iter, modes)
        for n, (m, sr) in enumerate(zip(modes, step)):
            if not sr.converged:
                raise EigensolverError(f"continuation of mode {m} failed at eps = {e}")
            if i > 0:  # seeds are the roots at the previous eps
                scale = min(abs(seeds[n] - w) for w in [params.omega_a, *seeds[:n], *seeds[n + 1:]])
                jump = abs(sr.omega - seeds[n]) / scale
                if jump > CONTINUITY_RTOL:
                    log.warning("mode %d jumps by %.3e relative at eps = %s", m, jump, e)
                    breaks[n].append(i)
            results[n].append(sr)
        seeds = [sr.omega for sr in step]
    return [ResonanceTrace(tuple(eps), tuple(r), m, tuple(b))
            for m, r, b in zip(modes, results, breaks)]
