"""Nyström discretization of the photon-cloud integral operators.

The operators act on radially symmetric functions over a ball, disk or
symmetric interval of radius R.  A function is represented by its values
at the nodes of a composite Gauss-Legendre grid on [0, R] (or on a general
interval for off-center one-dimensional densities), and the integral

    (W f)(r_i) = int K(r_i, r') f(r') r'^{d-1} dr'

is discretized with product integration: each row's integration domain is
split at its collocation radius, panels are refined dyadically toward the
logarithmic diagonal singularity of the reduced kernel, and integrand
values are pulled back onto the grid through piecewise barycentric
interpolation.  The rows' quadrature points are regrouped once per rule by
the base panel they fall in, so a build makes one kernel call per base
panel, on that panel's points of every row, and contracts the integrand
with the panel's interpolation basis one node at a time.  For smooth kernel
components a plain Nyström rule (kernel times base weights) is used instead.

Every operator build is split by singularity subtraction,

    W(k) = W_sing + W_reg(k),

because the log singularity is that of the k = 0 kernel and does not
depend on k.  W_sing integrates the k = 0 kernel with the rule's
SING_LEVELS-deep row quadrature; W_reg(k) integrates the bounded
remainder kernel(k) - kernel(0) with a derived rule of only REG_LEVELS
dyadic levels, whose innermost panel is closed up to the singular point
instead of dropping the last 2^-levels gap.  Its refined panels keep
SING_POINTS Gauss points, as they must integrate the degree-23 panel
interpolant exactly: with 10 points the error on an N = 96 interval rule
was 3.4e-4.  W_sing is assembled once per rule.

In the resonance regime the remainder is a series with closed-form
coefficients in k times k-independent rows, so W_reg(k) is the same
series over moment matrices, the derived rule's integrals of those rows
(`_moment_sum`).  They are cached per rule and grown when a larger |k|
needs more terms, and a build evaluates no kernel:

* d = 1, 3: G1(k, rho) - G1(0, rho) = sum_n a_n(k) rho^n + sum_m b_m(k)
  rho^2m log rho (`greens.g1_series`), with moments U_n, V_m of the same
  reduction applied to rho^n and rho^2m log rho;
* d = 2: the k-dependent part (pi kappa / 2) J0(kappa lo) h(kappa hi) of
  `kernel_2d_singular`, from the power series of J0 and Y0, is a sum over
  total degree n of three rows in lo / R and hi / R (`_j0y0_series`).

The series lose digits to cancellation as |k| grows.  Against the kernel
route the G1 sum stays within 3e-15 of the max at |k| rho_max = 4
(1.8e-14 at 6, 8e-14 at 8 in 1D), the 2D sum within 2e-15 at |k| R = 2,
1.5e-14 at 3 and 4e-14 at 4.  So beyond G1_SERIES_RADIUS and
J0Y0_SERIES_RADIUS, W_reg(k) = Q_reg[kernel(k)] - Q_reg[kernel(0)] by
linearity: W_sing - Q_reg[kernel(0)] is cached and each build evaluates
kernel(k) on the derived rule only.

As G^k(rho) = rho^(1-d) F_d(k rho), W(k; eps) = s W(s k; R) with s =
eps / R, so one unit-domain rule and its caches serve every eps and the
limiting operators (`build_full_operator`).  At N = 48 the rescaled
build matches an eps rule to 3.6e-14 of max |W| for d = 2, 3, and to
1.5e-10 for d = 1: there the k = 0 kernel's log eps sits in W_sing on an
eps rule, whose open 2^-SING_LEVELS gap drops part of it, but in the
closed-gap W_reg(s k) on the unit rule.

Angular reduction of G^k(|x - y|) onto shells |x| = r, |y| = r':

* d = 3: exact, via the antiderivative identity
      int_{S^2} G3(|x - r' yhat|) dsigma = [G1(|r-r'|) - G1(r+r')] / (r r')
  with G1 the one-dimensional kernel on the same branch;
* d = 2: exact too: closed reductions for the singular components
  (elliptic K for 1/|x-y|, Bessel addition theorem for Y0 / Hankel) and
  the Struve power series summed over angular moments of rho, which a
  three-term recurrence from the elliptic K and E grows and each rule
  caches, with NystromError where the series cancels;
* d = 1: the two-point sum G1(|r-r'|) + G1(r+r') on even functions.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss  # every rule needs it: load it at start-up

from . import greens
from .greens import Branch, GreensDomainError
# _jy0 and _struve_h0_series are uncalled here; perfbench/tracing.py wraps these names
from .specfun import (EULER_GAMMA, _h0, _jy0, _struve_h0_series,  # noqa: F401
                      bessel_j0, bessel_y0, elliptic_k, elliptic_ke)

SING_LEVELS = 36  # dyadic refinement depth toward the diagonal (k = 0 kernel)
REG_LEVELS = 8  # depth of the derived rule for the k-dependent remainder
SING_POINTS = 16  # Gauss points per dyadic panel
PLAIN_POINTS = 28  # Gauss points on panels away from the singularity
MAX_PANEL_NODES = 24  # interp degree cap; row quadratures must out-integrate it
BOUNDARY_FRACTIONS = (0.5, 0.925, 0.98875, 0.9983125)  # graded panel breaks
G1_SERIES_RADIUS = 4.0  # largest |k| rho_max of a G1 moment build
J0Y0_SERIES_RADIUS = 3.0  # largest |k| R of a 2D moment build
SERIES_MAX_ORDER = 64  # series terms computed; ample up to both radii
SERIES_TAIL = 1e-17  # scaled series terms below this are dropped
STRUVE_MAX_CANCELLATION = 1e7  # largest series term / sum: about 8 digits kept


class NystromError(RuntimeError):
    """Non-finite kernel value or invalid discretization request."""


@dataclass(frozen=True)
class PhysicalParams:
    """Constants defining one problem instance.

    The inclusion is the ball B_eps = eps * B_1 with B_1 the unit ball
    (unit interval [-1, 1] when d = 1).  The atomic density inside is
    either given directly (`rho0`) or through the high-contrast scaling
    constant `s0`, with rho0(eps) = s0/eps for d in {2, 3} and
    rho0(eps) = -s0/(eps log eps) for d = 1.
    """

    d: int
    c: float
    g: float
    omega_a: float  # atomic resonance frequency
    epsilon: float
    s0: float | None = None
    rho0: float | None = None

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if self.c <= 0 or self.g <= 0:
            raise ValueError("wave speed and coupling must be positive")
        if not math.isfinite(self.omega_a):
            raise ValueError("atomic frequency must be finite")
        if self.epsilon <= 0:
            raise ValueError("inclusion radius must be positive")
        if (self.s0 is None) == (self.rho0 is None):
            raise ValueError("exactly one of s0, rho0 must be given")
        if self.s0 is not None:
            if self.s0 <= 0:
                raise ValueError("s0 must be positive")
            if self.d == 1 and self.epsilon >= 1:
                raise ValueError("d=1 scaling needs epsilon < 1 (log eps < 0)")
        if self.rho0 is not None and self.rho0 <= 0:
            raise ValueError("rho0 must be positive")

    @property
    def density(self) -> float:
        """rho_0(eps), the constant density inside the inclusion."""
        if self.rho0 is not None:
            return self.rho0
        if self.d == 1:
            return -self.s0 / (self.epsilon * math.log(self.epsilon))
        return self.s0 / self.epsilon

    @property
    def s0_effective(self) -> float:
        """Scaling constant recovered from a raw density if necessary."""
        if self.s0 is not None:
            return self.s0
        if self.d == 1:
            return -self.rho0 * self.epsilon * math.log(self.epsilon)
        return self.rho0 * self.epsilon


_leggauss_cache: dict = {}


def _leggauss(n):
    if n not in _leggauss_cache:
        _leggauss_cache[n] = leggauss(n)
    return _leggauss_cache[n]


def _gauss_panel(a, b, n):
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


def _graded_breakpoints(a, b, grade_start, grade_end):
    fr = np.asarray(BOUNDARY_FRACTIONS)
    pts = {0.0, 1.0}
    if grade_end:
        pts.update(fr)
    if grade_start:
        pts.update(1.0 - fr)
    f = np.array(sorted(pts))
    return a + (b - a) * f


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre grid plus singular-integration parameters.

    `nodes`/`weights` form the base rule used for norms and for smooth
    kernels; the per-node singular corrections live in the row quadratures
    produced by `row_quadrature`, which replace the base weights near the
    diagonal (dyadically graded panels, truncated at relative width
    2^-sing_levels where the remaining logarithmic mass is negligible).
    `panel_batches()` regroups every node's row quadrature by base panel,
    the layout `build_kernel_matrix` assembles from.

    `regular_rule()` derives the rule for the bounded remainder of a split
    build: the same grid with REG_LEVELS levels and `close_gap` set, so
    that its innermost panel reaches the singular point.  The panel
    batches, the derived rule, the k-independent parts of each split build
    and the series moments (G1, 2D J0 Y0 and Struve) are cached on the
    rule (`_cache`).  One rule of radius 1 serves every eps of one
    discretization and its limiting operators (module docstring).
    """

    nodes: np.ndarray
    weights: np.ndarray
    panels: np.ndarray  # breakpoints, shape (n_panels+1,)
    counts: tuple  # nodes per panel
    sing_levels: int = SING_LEVELS
    close_gap: bool = False  # only for integrands bounded at the singular point
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.nodes) < 8:
            raise ValueError("need at least 8 radial nodes")
        if np.any(self.weights <= 0):
            raise ValueError("base quadrature weights must be positive")

    # -- construction ---------------------------------------------------

    @classmethod
    def make(cls, radius, n_radial=64):
        """Radial rule on [0, radius], graded toward the outer boundary,
        where eigenfunctions of the nonlocal operators have weak
        derivative singularities."""
        brk = _graded_breakpoints(0.0, radius, False, True)
        return cls._from_breakpoints(brk, n_radial)

    @classmethod
    def make_interval(cls, a, b, n_nodes=64):
        """Rule on a general interval [a, b], graded toward both ends."""
        if b <= a:
            raise ValueError("need a < b")
        brk = _graded_breakpoints(a, b, True, True)
        return cls._from_breakpoints(brk, n_nodes)

    @classmethod
    def _from_breakpoints(cls, brk, n_nodes):
        if n_nodes < 8:
            raise ValueError("need at least 8 radial nodes")
        widths = np.diff(brk)
        # allocate nodes ~ proportionally to width^(1/3), min 6 per panel
        raw = widths ** (1.0 / 3.0)
        counts = np.maximum(6, np.floor(n_nodes * raw / raw.sum()).astype(int))
        while counts.sum() > n_nodes and np.any(counts > 6):
            counts[np.argmax(counts)] -= 1
        while counts.sum() < n_nodes:
            counts[np.argmax(widths / counts)] += 1
        # cap the interpolation degree: split panels that drew too many nodes
        new_brk = [brk[0]]
        new_counts = []
        for i, c in enumerate(counts):
            m = int(math.ceil(c / MAX_PANEL_NODES))
            sub = np.linspace(brk[i], brk[i + 1], m + 1)[1:]
            base, extra = divmod(int(c), m)
            for j in range(m):
                new_brk.append(sub[j])
                new_counts.append(base + (1 if j < extra else 0))
        brk = np.asarray(new_brk, dtype=float)
        counts = np.asarray(new_counts, dtype=int)
        n_pan = len(counts)
        nodes, weights = [], []
        for i in range(n_pan):
            x, w = _gauss_panel(brk[i], brk[i + 1], int(counts[i]))
            nodes.append(x)
            weights.append(w)
        return cls(
            nodes=np.concatenate(nodes),
            weights=np.concatenate(weights),
            panels=np.asarray(brk, dtype=float),
            counts=tuple(int(c) for c in counts),
        )

    # -- geometry helpers ------------------------------------------------

    @property
    def domain(self):
        return float(self.panels[0]), float(self.panels[-1])

    def _panel_slices(self):
        out = []
        start = 0
        for c in self.counts:
            out.append(slice(start, start + c))
            start += c
        return out

    # -- singular row quadrature -----------------------------------------

    def _dyadic(self, a, b, toward_start, min_width):
        """Panels on [a, b] geometrically refined toward one endpoint."""
        h = b - a
        if h <= 0:
            return []
        levels = min(self.sing_levels, max(1, int(math.ceil(math.log2(max(h / max(min_width, 1e-300), 2.0))))))
        edges = h * 2.0 ** (-np.arange(levels + 1, dtype=float))
        out = []
        for j in range(levels):
            lo, hi = edges[j + 1], edges[j]
            if toward_start:
                out.append((a + lo, a + hi))
            else:
                out.append((b - hi, b - lo))
        if self.close_gap or (min_width > 0 and min_width >= h * 2.0 ** (-levels)):
            # integrand bounded there, or singularity beyond it: keep the gap
            if toward_start:
                out.append((a, a + edges[levels]))
            else:
                out.append((b - edges[levels], b))
        return out

    def _row_pieces(self, r0):
        """(lo, hi, Gauss points) of each piece of the row quadrature at r0."""
        out = []
        sing = (float(r0), float(-r0))
        for p in range(len(self.panels) - 1):
            a, b = float(self.panels[p]), float(self.panels[p + 1])
            width = b - a
            inside = a < r0 < b
            if inside:
                pieces = self._dyadic(a, r0, False, 0.0) + self._dyadic(r0, b, True, 0.0)
            else:
                dist = min(abs(s - a) if s <= a else abs(s - b) for s in sing
                           if not (a < s < b))
                near_lo = any(0 <= a - s < 0.75 * width for s in sing)
                near_hi = any(0 <= s - b < 0.75 * width for s in sing)
                if near_lo or near_hi:
                    pieces = self._dyadic(a, b, near_lo, max(dist, 1e-300))
                else:
                    pieces = [(a, b)]
            for lo, hi in pieces:
                out.append((lo, hi, SING_POINTS if (hi - lo) < 0.9 * width else PLAIN_POINTS))
        return out

    def row_quadrature(self, r0):
        """Nodes and weights resolving log singularities at r0 (and at -r0,
        which the image term of even one-dimensional kernels sees near the
        origin).  Every base panel receives at least one piece; the pieces
        of one Gauss order are mapped in one broadcast.  Not cached:
        `panel_batches` keeps the nodes' row quadratures, regrouped."""
        lo, hi, n = (np.array(c) for c in zip(*self._row_pieces(r0)))
        ends = np.cumsum(n)
        t, v = np.empty(ends[-1]), np.empty(ends[-1])
        for order in sorted(set(n.tolist())):  # np.unique would import numpy.ma
            sel = n == order
            x, w = _leggauss(order)
            half = 0.5 * (hi[sel] - lo[sel])
            at = (ends[sel] - order)[:, None] + np.arange(order)
            t[at] = half[:, None] * x + (0.5 * (hi[sel] + lo[sel]))[:, None]
            v[at] = half[:, None] * w
        return t, v

    def panel_batches(self):
        """The row quadratures of all nodes, regrouped by the base panel
        their points fall in: one PanelBatch per panel, cached on the rule.

        A batch holds row 0's points in the panel, then row 1's, and so on.
        Its weights carry the barycentric normalizer of the panel's
        interpolant (`_bary_basis`), so that a build only multiplies by the
        node terms w_j / (t - x_j)."""
        hit = self._cache.get("batches")
        if hit is not None:
            return hit
        slices = self._panel_slices()
        per_panel = [([], [], []) for _ in slices]
        for r0 in self.nodes:
            t, v = self.row_quadrature(r0)
            idx = self._panel_index(t)
            order = np.argsort(idx, kind="stable")
            ends = np.cumsum(np.bincount(idx, minlength=len(slices)))
            for p, (lo, hi) in enumerate(zip(np.r_[0, ends[:-1]], ends)):
                per_panel[p][0].append(t[order[lo:hi]])
                per_panel[p][1].append(v[order[lo:hi]])
                per_panel[p][2].append(hi - lo)
        batches = []
        for sl, (ts, vs, counts) in zip(slices, per_panel):
            t = np.concatenate(ts)
            scale, exact = _bary_basis(t, self.nodes[sl])
            batches.append(PanelBatch(sl, t, np.concatenate(vs) * scale,
                                      np.asarray(counts), exact))
        self._cache["batches"] = batches
        return batches

    def regular_rule(self):
        """The derived rule for the remainder kernel(k) - kernel(0)."""
        hit = self._cache.get("regular")
        if hit is None:
            hit = self._cache["regular"] = replace(
                self, sing_levels=REG_LEVELS, close_gap=True, _cache={})
        return hit

    # -- interpolation ----------------------------------------------------

    def _panel_index(self, t):
        return np.clip(np.searchsorted(self.panels, t, side="right") - 1, 0, len(self.counts) - 1)

    def interp_matrix(self, t):
        """(len(t), N) matrix mapping node values to values at points t,
        by barycentric interpolation within each panel."""
        t = np.asarray(t, dtype=float)
        B = np.zeros((len(t), len(self.nodes)))
        idx = self._panel_index(t)
        for p, sl in enumerate(self._panel_slices()):
            rows = np.flatnonzero(idx == p)
            tp, x = t[rows], self.nodes[sl]
            scale, exact = _bary_basis(tp, x)
            for j in range(len(x)):
                B[rows, sl.start + j] = scale * _bary_term(tp, x, exact, j)
        return B


class PanelBatch(NamedTuple):
    """The row-quadrature points of every row that fall in one base panel."""

    nodes: slice  # the panel's nodes in the rule
    t: np.ndarray  # points, grouped by row in node order
    weights: np.ndarray  # quadrature weights times the barycentric normalizer
    counts: np.ndarray  # points of each row
    exact: np.ndarray | None  # node each point equals exactly, -1 if none; None: no point does


def _bary_basis(t, x):
    """Barycentric interpolation on the panel nodes x at the points t.

    Returns (scale, exact) such that the Lagrange basis function of node j
    is L_j(t) = scale(t) * _bary_term(t, x, exact, j): scale(t) is
    1 / sum_k w_k / (t - x_k), or 1 where t equals a node exactly; `exact`
    holds that node's index (-1 elsewhere), or is None when no point hits
    a node.
    """
    w = _bary_weights(x)
    denom = np.zeros(len(t))
    exact = np.full(len(t), -1)
    for j in range(len(x)):
        diff = t - x[j]
        on_node = diff == 0.0
        exact[on_node] = j
        denom += w[j] / np.where(on_node, 1.0, diff)
    if np.all(exact < 0):
        return 1.0 / denom, None
    return np.where(exact < 0, 1.0 / denom, 1.0), exact


def _bary_term(t, x, exact, j):
    """w_j / (t - x_j) at the points t, and at a point equal to a node the
    exact-hit rule: 1 if that node is x_j, else 0."""
    w = _bary_weights(x)
    if exact is None:
        return w[j] / (t - x[j])
    term = w[j] / np.where(exact < 0, t - x[j], np.inf)
    term[exact == j] = 1.0
    return term


_bary_cache: dict = {}


def _bary_weights(x):
    key = (len(x), float(x[0]), float(x[-1]))
    hit = _bary_cache.get(key)
    if hit is not None:
        return hit
    # scale to [-1, 1] for overflow safety; scaling cancels in the formula
    xs = (2.0 * x - (x[0] + x[-1])) / (x[-1] - x[0])
    w = np.empty_like(xs)
    for j in range(len(xs)):
        w[j] = 1.0 / np.prod(np.delete(xs, j) - xs[j])
    w /= np.max(np.abs(w))
    _bary_cache[key] = w
    return w


# ----------------------------------------------------------------------
# reduced kernels
# ----------------------------------------------------------------------

def _require_finite(val, r0, t, what):
    """Raise NystromError naming the first (r, r') pair where val is not finite."""
    finite = np.isfinite(val)
    if not finite.all():
        i = np.flatnonzero(~finite)[0]
        r, rp = (float(np.broadcast_to(a, finite.shape).flat[i]) for a in (r0, t))
        raise NystromError(f"non-finite {what} value at r={r!r}, r'={rp!r}")


def kernel_1d(k, branch):
    def f(r0, t):
        return greens._g1(k, np.abs(r0 - t), branch) + greens._g1(k, r0 + t, branch)
    return f


def kernel_1d_interval(k, branch):
    """Kernel on a general interval (no even reduction)."""
    def f(x0, t):
        return greens._g1(k, np.abs(x0 - t), branch)
    return f


def kernel_3d_reduced(k, branch):
    if branch is Branch.ZERO:
        return kernel_a0_reduced(3)

    def f(r0, t):
        val = (greens._g1(k, np.abs(r0 - t), branch) - greens._g1(k, r0 + t, branch)) / (r0 * t)
        _require_finite(val, r0, t, "3d kernel")
        return val
    return f


def _powers_and_logs(s):
    """Yield (s^n, s^n log s for even n, else None) for n = 0, 1, ..."""
    p, log_s = np.ones_like(s), np.log(s)
    for n in itertools.count():
        yield p, (p * log_s if n % 2 == 0 else None)
        p = p * s


def _basis_1d(rho_max):
    """`_powers_and_logs` at s = |r - t| / rho_max plus at (r + t) / rho_max."""
    def terms(r0, t):
        for (a, log_a), (b, log_b) in zip(_powers_and_logs(np.abs(r0 - t) / rho_max),
                                          _powers_and_logs((r0 + t) / rho_max)):
            yield a + b, (None if log_a is None else log_a + log_b)
    return terms


def _basis_1d_interval(rho_max):
    def terms(x0, t):
        return _powers_and_logs(np.abs(x0 - t) / rho_max)
    return terms


def _basis_3d(rho_max):
    """`_powers_and_logs` at s = |r - t| / rho_max minus at (r + t) /
    rho_max, divided by r t, written without cancellation.

    With D = rho_max, x = max(r, t) / D and y = min(r, t) / D, the powers
    are -2 P_n / (x D^2), where P_n = ((x + y)^n - (x - y)^n) / (2y) and
    Q_n = ((x + y)^n + (x - y)^n) / 2 obey P_n+1 = x P_n + Q_n,
    Q_n+1 = x Q_n + y^2 P_n, sums of positive terms.  The logs split
    log(x -+ y) = log x + log(1 -+ u), u = y / x, into -2 log x P_2m /
    (x D^2) and x^(2m-2) [(1 - u)^2m log(1 - u) - (1 + u)^2m log1p(u)] /
    (u D^2), whose two terms are both <= 0.
    """
    def terms(r0, t):
        hi, lo = np.maximum(r0, t), np.minimum(r0, t)
        x, y, u = hi / rho_max, lo / rho_max, lo / hi
        minus = np.abs(r0 - t) / hi  # 1 - u, without its rounding
        log_x, log_minus, log_plus = np.log(x), np.log(minus), np.log1p(u)
        x2, minus2, plus2 = x * x, minus * minus, (1.0 + u) ** 2
        xm, minus_m, plus_m = np.ones_like(x), minus2, plus2  # x^(n-2), (1 -+ u)^n at n = 2
        p, q = np.zeros_like(x), np.ones_like(x)
        scale = -2.0 / (x * rho_max**2)
        for n in itertools.count():
            log_row = None
            if n >= 2 and n % 2 == 0:
                log_row = (-2.0 * log_x * p / x
                           + xm * (minus_m * log_minus - plus_m * log_plus) / u) / rho_max**2
                xm, minus_m, plus_m = xm * x2, minus_m * minus2, plus_m * plus2
            yield scale * p, log_row
            p, q = x * p + q, x * q + y * y * p
    return terms


def _moment_kernel(terms, powers, logs):
    """Kernel stacking the power rows n in `powers`, then the log rows
    m in `logs` (row 2m of `terms`), of the reduced basis `terms`."""
    def f(r0, t):
        out = np.empty((len(powers) + len(logs), len(t)))
        for n, (row, log_row) in zip(range(powers.stop), terms(r0, t)):
            if n in powers:
                out[n - powers.start] = row
            if n % 2 == 0 and n // 2 in logs:
                out[len(powers) + n // 2 - logs.start] = log_row
        return out
    return f


# G1 family -> (its reduced basis, rho_max / rule width)
_G1_MOMENTS = {kernel_1d: (_basis_1d, 2.0), kernel_1d_interval: (_basis_1d_interval, 1.0),
               kernel_3d_reduced: (_basis_3d, 2.0)}


def kernel_2d_singular(k, branch):
    """Closed-form part of the 2D angular reduction (everything except the
    entire Struve component).  A split build evaluates it only above
    J0Y0_SERIES_RADIUS; below, its k-dependent part is a moment sum
    (`_j0y0_series`)."""
    base = kernel_a0_reduced(2)
    if branch is Branch.ZERO:
        return base

    def f(r0, t):
        lo = np.minimum(r0, t)
        hi = np.maximum(r0, t)
        kappa = -k if branch is Branch.NEGATIVE else k
        jlo = bessel_j0(kappa * lo)
        khi = np.asarray(kappa * hi, dtype=complex)
        # the radiating branches fold their Hankel term into the Y0 factor:
        # Y0 + 2i H0^(1) = i (J0 + H0^(1)),  Y0 - 2i H0^(2) = -i (J0 + H0^(2))
        if branch is Branch.NEGATIVE:
            hi_part = bessel_y0(khi)
        elif branch is Branch.OUTGOING:
            hi_part = 1j * (bessel_j0(khi) + _h0(khi, 1))
        else:
            hi_part = -1j * (bessel_j0(khi) + _h0(khi, 2))
        return base(r0, t) + (np.pi * kappa / 2.0) * jlo * hi_part
    return f


def kernel_2d_struve(k, branch, r, t, moments):
    """Exact angular reduction of the entire -(kappa/4) H0_struve(kappa rho)
    component as a (len(r), len(t)) matrix: the power series of H0 summed
    term by term over the k-independent moments of rho, which the list
    `moments` keeps and grows on demand (`_grow_struve_moments`).  Raises
    NystromError when the largest term exceeds the sum by more than
    STRUVE_MAX_CANCELLATION."""
    kappa = -k if branch is Branch.NEGATIVE else k
    z = complex(kappa) * (r.max() + t.max())
    term = z * 2.0 / np.pi  # (z/2) / Gamma(3/2)^2
    total = peak = 0.0
    for j in range(201):
        if j == len(moments):
            _grow_struve_moments(r, t, moments)
        total += term * moments[j]
        peak = max(peak, abs(term) * moments[j].max())
        term *= -((z / 2.0) ** 2) / ((j + 1.5) ** 2)
        if abs(term) <= 1e-18 * np.max(np.abs(total)):  # moments are at most 1
            break
        if not math.isfinite(abs(term)):
            raise NystromError(f"2d Struve series overflows at |kappa| (r + t)_max = {abs(z):.3g}")
    if not peak <= STRUVE_MAX_CANCELLATION * np.max(np.abs(total)):  # NaN fails too
        raise NystromError(f"2d Struve series cancels at |kappa| (r + t)_max = {abs(z):.3g}")
    return -(np.pi * kappa / 2.0) * total


def _grow_struve_moments(r, t, moments):
    """Append the next angular moments M_j = <rho^(2j+1)> / D^(2j+1), in
    [0, 1], of rho = |x - y| over |x| = r, |y| = t to the list `moments`;
    D = (r + t)_max.

    With s = r + t, a = (r^2 + t^2) / D^2 and delta = ((r^2 - t^2) / D^2)^2
    they obey the forward recurrence

        (j + 3/2) M_j+1 = (2j + 2) a M_j - (j + 1/2) delta M_j-1,

    whose wanted solution, growing like ((r + t) / D)^2j, is the dominant
    one (Gil, Segura & Temme 2007, Math. Comp. 76:1449), from the elliptic
    seeds M_0 = (2/pi) E(m) s / D and M_-1 = (2/pi) K(m) D / s at m = 4 r t
    / s^2, taken as mc = ((r - t) / s)^2.  The first call appends M_0 and
    M_1, so the seeds are never needed again; on the diagonal, where K is
    infinite, delta M_-1 = 0.  Against mpmath the moments hold 1.3e-14
    relative at j = 10, 5.1e-14 at j = 20 and 4.4e-13 at j = 60 on an
    N = 48 rule.
    """
    s, diff = r[:, None] + t[None, :], r[:, None] - t[None, :]
    D = r.max() + t.max()
    a = (r[:, None] ** 2 + t[None, :] ** 2) / D**2
    delta = (diff * s / D**2) ** 2
    if not moments:
        mc = (diff / s) ** 2
        K, E = elliptic_ke(mc)
        m0 = (2.0 / np.pi) * E * s / D
        delta_m1 = delta * (2.0 / np.pi) * np.where(mc > 0.0, K, 0.0) * D / s
        moments += [m0, (2.0 * a * m0 - 0.5 * delta_m1) / 1.5]
        return
    j = len(moments) - 1
    moments.append(((2 * j + 2) * a * moments[j] - (j + 0.5) * delta * moments[j - 1]) / (j + 1.5))


def kernel_a0_reduced(d):
    """Reduced kernel of the k-independent leading singular term A0."""
    if d == 3:
        def f3(r0, t):
            return (np.log((r0 + t) / np.abs(r0 - t)) / (np.pi * r0 * t)).astype(complex)
        return f3
    if d == 2:
        def f2(r0, t):
            mc = ((r0 - t) / (r0 + t)) ** 2
            return ((2.0 / np.pi) * elliptic_k(mc) / (r0 + t)).astype(complex)
        return f2
    raise ValueError("A0 reduction applies to d in {2, 3}")


def kernel_a1_reduced(d, k):
    """Reduced kernel of the first regular correction A1^k.

    A1^k(x) = k/(4 pi |x|) in 3D and -(k/2pi)(log(k|x|/2) + gamma) + ik/2
    in 2D; both pinned numerically against the closed-form kernels (the
    shell average of 1/|x| is 2 min(r,r')/(r r'), that of log|x| is
    log max(r, r'), each times the sphere measure).
    """
    kc = complex(k)
    if d == 3:
        def f3(r0, t):
            return (kc / np.maximum(r0, t)).astype(complex)
        return f3
    if d == 2:
        def f2(r0, t):
            hi = np.maximum(r0, t)
            return -kc * (np.log(kc * hi / 2.0) + EULER_GAMMA) + 1j * np.pi * kc * np.ones_like(t)
        return f2
    raise ValueError("A1 reduction applies to d in {2, 3}")


# ----------------------------------------------------------------------
# matrix assembly
# ----------------------------------------------------------------------

def build_split_matrix(rule, family, k, branch, measure_power):
    """W(k) = W_sing + W_reg(k) for the reduced kernel family(k, branch).

    W_sing = Q_sing[family(0)] is assembled once per rule, and is the
    whole build on Branch.ZERO.  In the resonance regime (`_moment_series`:
    |k| rho_max <= G1_SERIES_RADIUS for the G1 families, |k| R <=
    J0Y0_SERIES_RADIUS for kernel_2d_singular), W_reg(k) is a sum of the
    rule's cached moment matrices times closed-form coefficients, and no
    kernel is evaluated.
    Otherwise W_sing - Q_reg[family(0)] is cached too, and each call
    integrates family(k, branch) on the derived rule only (see the module
    docstring).
    """
    sing_key = ("sing", family, measure_power)
    sing = rule._cache.get(sing_key)
    if sing is None:
        sing = rule._cache[sing_key] = build_kernel_matrix(
            rule, family(0.0, Branch.ZERO), measure_power)
    if branch is Branch.ZERO:
        return sing.copy()
    series = _moment_series(rule, family, k, branch)
    if series is not None:
        return _moment_sum(rule, ("moments", family, measure_power), measure_power, *series, sing)
    reg = rule.regular_rule()
    key = (family, measure_power)
    fixed = rule._cache.get(key)
    if fixed is None:
        fixed = rule._cache[key] = sing - build_kernel_matrix(
            reg, family(0.0, Branch.ZERO), measure_power)
    return fixed + build_kernel_matrix(reg, family(k, branch), measure_power)


def _moment_series(rule, family, k, branch):
    """(coefficients, rows) of the moment route of family(k, branch) on
    the rule, or None where the build takes the kernel route.

    `coefficients` is a tuple of arrays, one per kind of moment, and
    rows(orders) the kernel stacking the reduced basis rows of each kind
    for the index ranges in `orders`, kind after kind (`_moment_sum`)."""
    if family is kernel_2d_singular:
        radius = rule.domain[1]
        if abs(k) * radius > J0Y0_SERIES_RADIUS:
            return None
        return _j0y0_series(k, branch, radius), lambda orders: _j0y0_rows(radius, orders[0])
    if family not in _G1_MOMENTS:
        return None
    basis, reach = _G1_MOMENTS[family]
    rho_max = reach * (rule.domain[1] - rule.domain[0])
    if abs(k) * rho_max > G1_SERIES_RADIUS:
        return None
    a, b = greens.g1_series(k, branch, SERIES_MAX_ORDER)
    scale = rho_max ** np.arange(len(a))
    a, b = a * scale, b * scale[::2]
    a[2::2] += b[1:] * math.log(rho_max)  # log rho = log s + log rho_max
    size = np.abs(a)
    size[::2] += np.abs(b)
    order = _series_order(size, abs(k) * rho_max)
    return ((a[:order + 1], b[1:order // 2 + 1]),
            lambda orders: _moment_kernel(basis(rho_max), orders[0],
                                          range(orders[1].start + 1, orders[1].stop + 1)))


def _series_order(size, kr):
    """Last order n whose scaled series term size[n] exceeds SERIES_TAIL."""
    if size[-1] > SERIES_TAIL:
        raise NystromError(f"moment series too short at |k| rho_max = {kr:.3g}")
    return max(np.flatnonzero(size > SERIES_TAIL), default=0)


_HARMONIC = np.r_[0.0, np.cumsum(1.0 / np.arange(1, SERIES_MAX_ORDER + 1))]  # H_n
_J0Y0_ROW_BOUND = np.array([math.comb(2 * n, n) / math.factorial(n) ** 2  # U_n(1, 1)
                            for n in range(SERIES_MAX_ORDER + 1)])


def _j0y0_series(k, branch, radius):
    """Coefficients (c_U, c_L, c_H) of the k-dependent part of
    `kernel_2d_singular` in the rows of `_j0y0_rows`:

        (pi kappa / 2) J0(kappa lo) h(kappa hi)
            = sum_n c_U[n] U_n + c_L[n] U_n log y + c_H[n] H_n.

    With z = kappa R / 2 and lambda = log z + gamma, the power series of
    J0 and the series Y0(x) = (2/pi) [(log(x/2) + gamma) J0(x) - sum_b
    (-1)^b H_b (x/2)^2b / b!^2] (DLMF 10.8.2), grouped by total degree n,
    give kappa (-1)^n z^2n times (lambda, 1, -1) on the negative branch,
    where h = Y0; (i pi - lambda, -1, 1) on the outgoing branch, where
    h = 2i J0 - Y0; and (-i pi - lambda, -1, 1) on the incoming branch,
    where h = -2i J0 - Y0."""
    kappa = -complex(k) if branch is Branch.NEGATIVE else complex(k)
    z = kappa * radius / 2.0
    lam = cmath.log(z) + EULER_GAMMA
    c = {Branch.NEGATIVE: (lam, 1.0, -1.0), Branch.OUTGOING: (1j * np.pi - lam, -1.0, 1.0),
         Branch.INCOMING: (-1j * np.pi - lam, -1.0, 1.0)}[branch]
    scale = kappa * (-z * z) ** np.arange(SERIES_MAX_ORDER + 1)
    # U_n <= U_n(1, 1) = C(2n, n) / n!^2 and H_n(1, 1) <= H_n U_n(1, 1)
    size = (np.abs(scale * radius) * _J0Y0_ROW_BOUND
            * (abs(c[0]) + abs(c[1]) + abs(c[2]) * _HARMONIC))
    order = _series_order(size, abs(kappa) * radius)
    return tuple(scale[:order + 1] * cj for cj in c)


def _j0y0_rows(radius, orders):
    """Kernel stacking the rows U_n, then U_n log y, then H_n, n in
    `orders`, of the 2D remainder: with x = min(r, t) / R and y = max(r,
    t) / R, U_n = sum_{a+b=n} x^2a y^2b / (a! b!)^2 and H_n is the same
    sum with each term weighted by the harmonic number H_b.  All terms are
    positive, so the rows do not cancel."""
    def f(r0, t):
        x2, y = (np.minimum(r0, t) / radius) ** 2, np.maximum(r0, t) / radius
        p, q = [np.ones_like(y)], [np.ones_like(y)]  # x^2a / a!^2, y^2b / b!^2
        for j in range(1, orders.stop):
            p.append(p[-1] * x2 / j**2)
            q.append(q[-1] * (y * y) / j**2)
        U = [sum(p[a] * q[n - a] for a in range(n + 1)) for n in orders]
        H = [sum(p[a] * q[n - a] * _HARMONIC[n - a] for a in range(n + 1)) for n in orders]
        log_y = np.log(y)
        return np.array(U + [u * log_y for u in U] + H)
    return f


def _moment_sum(rule, key, measure_power, coefficients, rows, sing):
    """sing + sum_f sum_i coefficients[f][i] M_f[i], the moment route of
    every series build (d = 1, 2, 3).

    M_f[i] is the derived rule's integral of row i of kind f of the
    reduced basis.  The moments are cached on the rule under `key` and
    grown, in one stacked build of the missing rows (`rows`), when a
    larger |k| needs more terms."""
    moments = rule._cache.get(key, ((),) * len(coefficients))
    missing = [range(len(M), max(len(M), len(c))) for M, c in zip(moments, coefficients)]
    if any(missing):  # grown into new tuples, so a racing build sees one consistent set
        stack = iter(build_kernel_matrix(rule.regular_rule(), rows(missing), measure_power))
        moments = rule._cache[key] = tuple(M + tuple(itertools.islice(stack, len(r)))
                                           for M, r in zip(moments, missing))
    W = sing.copy()
    # elementwise on purpose: a BLAS contraction (tensordot) wakes a second
    # OpenBLAS thread, which costs more CPU time than it saves wall time
    for c, M in zip(coefficients, moments):
        for cn, Mn in zip(c, M):
            W += cn * Mn
    return W


def build_kernel_matrix(rule, kernel, measure_power):
    """Dense matrix of f -> int K(r, r') f(r') r'^p dr' on the rule's nodes,
    with `kernel(r0, t)` integrated by the singular row quadratures.

    The assembly goes panel by panel (`QuadratureRule.panel_batches`): one
    kernel call on the panel's points of every row, r0 given per point,
    then for each node j of the panel the row sums of the integrand times
    the node's barycentric term fill column j.  A kernel that returns a
    stack of shape (..., len(t)) gives the stack of matrices (..., N, N),
    in the kernel's dtype, in the same pass.
    """
    nodes = rule.nodes
    W = None
    for batch in rule.panel_batches():
        t = batch.t
        r0 = np.repeat(nodes, batch.counts)
        a = kernel(r0, t)
        _require_finite(a, r0, t, "kernel")
        a = a * batch.weights
        if measure_power:
            a *= t**measure_power
        if W is None:
            W = np.empty(a.shape[:-1] + (len(nodes), len(nodes)), dtype=a.dtype)
        starts = np.cumsum(batch.counts) - batch.counts
        x = nodes[batch.nodes]
        prod = np.empty_like(a)  # reused: a fresh product per node lands on fresh pages
        for j in range(len(x)):
            np.multiply(a, _bary_term(t, x, batch.exact, j), out=prod)
            W[..., batch.nodes.start + j] = np.add.reduceat(prod, starts, axis=-1)
    return W


@dataclass(frozen=True)
class RadialOperator:
    """Dense discretization of one of the integral operators.

    `norm_weights` are the volume quadrature weights; the discrete L^2
    pairing is sum_i norm_weights[i] * conj(u_i) * v_i.
    """

    matrix: np.ndarray
    rule: QuadratureRule
    omega: complex
    params: PhysicalParams
    norm_weights: np.ndarray

    def weighted_norm(self, v):
        v = np.asarray(v)
        return float(np.sqrt(np.sum(self.norm_weights * np.abs(v) ** 2)))

    def weighted_dot(self, u, v):
        return complex(np.sum(self.norm_weights * np.conj(u) * v))


def weighted_symmetrize(matrix, weights):
    """Symmetric part of the similarity transform S M S^-1, S = diag(sqrt(w)).

    A kernel symmetric in the w-weighted pairing gives an S M S^-1 that is
    symmetric up to quadrature error, so the symmetric part keeps the
    spectrum of M, with eigenvectors S v.  Returns that part together with
    the discarded asymmetry max |S M S^-1 - (S M S^-1)^T|.
    """
    S = np.sqrt(weights)
    A = S[:, None] * matrix / S[None, :]
    return 0.5 * (A + A.T), float(np.max(np.abs(A - A.T)))


def volume_weights(d, rule):
    """Base weights of `rule` times the shell area |S^{d-1}| r^{d-1}."""
    return greens.surface_measure(d) * rule.weights * rule.nodes ** (d - 1)


_FAMILIES = {1: kernel_1d, 2: kernel_2d_singular, 3: kernel_3d_reduced}  # by dimension


def full_kernel_matrix(rule, d, k, branch):
    """Split build of the reduced resolvent kernel in dimension d; in 2D
    the entire Struve component is added with the plain rule."""
    W = build_split_matrix(rule, _FAMILIES[d], k, branch, d - 1)
    if d == 2:
        moments = rule._cache.setdefault("struve_moments", [])
        W += kernel_2d_struve(k, branch, rule.nodes, rule.nodes, moments) * rule.weights * rule.nodes
    return W


def build_full_operator(params, omega, rule):
    """Matrix of the nonlinear-eigenvalue operator at frequency omega:
    M = -(omega - Omega) I - (g^2 rho0 / c) s W(s k; R), k = omega / c, on
    a rule of any radius R, s = eps / R.  The norm weights are those of
    B_eps, volume_weights(d, rule) s^d."""
    omega = complex(omega)
    if omega.real == 0.0:
        raise GreensDomainError("omega on the imaginary axis is outside the domain")
    k = omega / params.c
    s = params.epsilon / rule.domain[1]
    W = full_kernel_matrix(rule, params.d, s * k, greens.branch_for(k))
    pref = params.g**2 * params.density / params.c * s
    M = -(omega - params.omega_a) * np.eye(len(rule.nodes)) - pref * W
    return RadialOperator(M, rule, omega, params, volume_weights(params.d, rule) * s**params.d)


def build_l0_operator(params, rule):
    """Positive compact operator L0 on the unit domain: (g^2 s0 / c) times
    the rule's cached k = 0 matrix W_sing."""
    if params.d not in (2, 3):
        raise ValueError("L0 is defined for d in {2, 3}; use the rank-1 form in 1D")
    W = build_split_matrix(rule, _FAMILIES[params.d], 0.0, Branch.ZERO, params.d - 1)
    pref = params.g**2 * params.s0_effective / params.c
    return RadialOperator(pref * W, rule, 0.0 + 0.0j, params, volume_weights(params.d, rule))


def build_a1_operator(params, omega_j, rule):
    """First-order correction operator (kernel-only), used in expansions."""
    if params.d not in (2, 3):
        raise ValueError("A1 correction applies to d in {2, 3}")
    k = complex(omega_j) / params.c
    W = build_kernel_matrix(rule, kernel_a1_reduced(params.d, k), params.d - 1)
    pref = -params.g**2 * params.s0_effective / params.c
    return RadialOperator(pref * W, rule, complex(omega_j), params,
                          volume_weights(params.d, rule))
