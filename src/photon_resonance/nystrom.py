"""Nyström discretization of the photon-cloud integral operators.

The operators act on radially symmetric functions over a ball, disk or
symmetric interval of radius R.  A function is represented by its values
at the nodes of a composite Gauss-Legendre grid on [0, R] (or on a general
interval for off-center one-dimensional densities), and the integral

    (W f)(r_i) = int K(r_i, r') f(r') r'^{d-1} dr'

is discretized row by row with product integration: the integration domain
is split at the collocation radius, panels are refined dyadically toward
the logarithmic diagonal singularity of the reduced kernel, and integrand
values are pulled back onto the grid through piecewise barycentric
interpolation.  For smooth kernel components a plain Nyström rule (kernel
times base weights) is used instead.

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
was 3.4e-4.  By linearity W_reg(k) = Q_reg[kernel(k)] - Q_reg[kernel(0)], so
everything k-independent, W_sing - Q_reg[kernel(0)], is assembled once
per rule and each build evaluates kernel(k) on the derived rule only.

Angular reduction of G^k(|x - y|) onto shells |x| = r, |y| = r':

* d = 3: exact, via the antiderivative identity
      int_{S^2} G3(|x - r' yhat|) dsigma = [G1(|r-r'|) - G1(r+r')] / (r r')
  with G1 the one-dimensional kernel on the same branch;
* d = 2: exact too: closed reductions for the singular components
  (elliptic K for 1/|x-y|, Bessel addition theorem for Y0 / Hankel) and
  the Struve power series summed over angular moments of rho (`hyp2f1`)
  cached per rule, with NystromError where the series cancels;
* d = 1: the two-point sum G1(|r-r'|) + G1(r+r') on even functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ellipkm1, hyp2f1, jv, yv

from . import greens
from .greens import Branch, GreensDomainError
# _jy0 and _struve_h0_series are uncalled here; perfbench/tracing.py wraps these names
from .specfun import EULER_GAMMA, _h0, _jy0, _struve_h0_series  # noqa: F401

SING_LEVELS = 36  # dyadic refinement depth toward the diagonal (k = 0 kernel)
REG_LEVELS = 8  # depth of the derived rule for the k-dependent remainder
SING_POINTS = 16  # Gauss points per dyadic panel
PLAIN_POINTS = 28  # Gauss points on panels away from the singularity
MAX_PANEL_NODES = 24  # interp degree cap; row quadratures must out-integrate it
BOUNDARY_FRACTIONS = (0.5, 0.925, 0.98875, 0.9983125)  # graded panel breaks
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

    @property
    def unit_ball_volume(self) -> float:
        return greens.ball_volume(self.d, 1.0)


_leggauss_cache: dict = {}


def _leggauss(n):
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
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

    `regular_rule()` derives the rule for the bounded remainder of a split
    build: the same grid with REG_LEVELS levels and `close_gap` set, so
    that its innermost panel reaches the singular point.  Row quadratures,
    the derived rule, the k-independent part of each split build and the
    2D Struve moments are cached on the rule (`_cache`), so one rule should
    serve all builds of one discretization.
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

    def row_quadrature(self, r0):
        """Nodes and weights resolving log singularities at r0 (and at -r0,
        which the image term of even one-dimensional kernels sees near the
        origin)."""
        key = float(r0)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        ts, vs = [], []
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
                n = SING_POINTS if (hi - lo) < 0.9 * width else PLAIN_POINTS
                x, w = _gauss_panel(lo, hi, n)
                ts.append(x)
                vs.append(w)
        t = np.concatenate(ts)
        v = np.concatenate(vs)
        self._cache[key] = (t, v)
        return t, v

    def regular_rule(self):
        """The derived rule for the remainder kernel(k) - kernel(0)."""
        hit = self._cache.get("regular")
        if hit is None:
            hit = self._cache["regular"] = replace(
                self, sing_levels=REG_LEVELS, close_gap=True, _cache={})
        return hit

    # -- interpolation ----------------------------------------------------

    def interp_matrix(self, t):
        """(len(t), N) matrix mapping node values to values at points t,
        by barycentric interpolation within each panel."""
        t = np.asarray(t, dtype=float)
        B = np.zeros((len(t), len(self.nodes)))
        slices = self._panel_slices()
        idx = np.clip(np.searchsorted(self.panels, t, side="right") - 1, 0, len(slices) - 1)
        for p, sl in enumerate(slices):
            mask = idx == p
            if not np.any(mask):
                continue
            xj = self.nodes[sl]
            wj = _bary_weights(xj)
            diff = t[mask][:, None] - xj[None, :]
            exact = diff == 0.0
            safe = np.where(exact, 1.0, diff)
            terms = wj[None, :] / safe
            denom = terms.sum(axis=1)
            rows = terms / denom[:, None]
            hit_rows = exact.any(axis=1)
            if np.any(hit_rows):
                rows[hit_rows] = 0.0
                rows[hit_rows] = np.where(exact[hit_rows], 1.0, 0.0)
            B[np.nonzero(mask)[0], sl] = rows
        return B


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

def _branch_for(k):
    kc = complex(k)
    if kc == 0:
        return Branch.ZERO
    if kc.real > 0:
        return Branch.OUTGOING
    if kc.real < 0:
        return Branch.NEGATIVE
    raise GreensDomainError("k on the punctured imaginary axis")


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
        if not np.all(np.isfinite(val)):
            bad = t[~np.isfinite(val)][:1]
            raise NystromError(f"non-finite 3d kernel at r={r0}, r'={bad}")
        return val
    return f


def kernel_2d_singular(k, branch):
    """Closed-form part of the 2D angular reduction (everything except the
    entire Struve component)."""
    base = kernel_a0_reduced(2)
    if branch is Branch.ZERO:
        return base

    def f(r0, t):
        lo = np.minimum(r0, t)
        hi = np.maximum(r0, t)
        kappa = -k if branch is Branch.NEGATIVE else k
        jlo = jv(0, np.asarray(kappa * lo, dtype=complex))
        khi = np.asarray(kappa * hi, dtype=complex)
        # the radiating branches fold their Hankel term into the Y0 factor:
        # Y0 + 2i H0^(1) = i (J0 + H0^(1)),  Y0 - 2i H0^(2) = -i (J0 + H0^(2))
        if branch is Branch.NEGATIVE:
            hi_part = yv(0, khi)
        elif branch is Branch.OUTGOING:
            hi_part = 1j * (jv(0, khi) + _h0(khi, 1))
        else:
            hi_part = -1j * (jv(0, khi) + _h0(khi, 2))
        return base(r0, t) + (np.pi * kappa / 2.0) * jlo * hi_part
    return f


def kernel_2d_struve(k, branch, r, t, moments):
    """Exact angular reduction of the entire -(kappa/4) H0_struve(kappa rho)
    component as a (len(r), len(t)) matrix: the power series of H0 summed
    term by term over the k-independent moments of rho, which the list
    `moments` keeps and grows on demand.  Raises NystromError when the
    largest term exceeds the sum by more than STRUVE_MAX_CANCELLATION."""
    kappa = -k if branch is Branch.NEGATIVE else k
    s = r[:, None] + t[None, :]
    m = np.minimum(4.0 * r[:, None] * t[None, :] / s**2, 1.0)  # rounded into [0, 1]
    z = complex(kappa) * s.max()
    term = z * 2.0 / np.pi  # (z/2) / Gamma(3/2)^2
    total = peak = 0.0
    for j in range(201):
        if j == len(moments):  # <rho^(2j+1)> / s.max()^(2j+1), in [0, 1]
            M = (s / s.max()) ** (2 * j + 1) * hyp2f1(-j - 0.5, 0.5, 1.0, m)
            if not np.all(np.isfinite(M)):  # hyp2f1 fails at m = 1 for j >~ 170
                raise NystromError(f"non-finite 2d Struve moment {j}")
            moments.append(M)
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


def kernel_a0_reduced(d):
    """Reduced kernel of the k-independent leading singular term A0."""
    if d == 3:
        def f3(r0, t):
            return (np.log((r0 + t) / np.abs(r0 - t)) / (np.pi * r0 * t)).astype(complex)
        return f3
    if d == 2:
        def f2(r0, t):
            mc = ((r0 - t) / (r0 + t)) ** 2
            return ((2.0 / np.pi) * ellipkm1(mc) / (r0 + t)).astype(complex)
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


def reduced_kernel(d, k, r, rp):
    """Angular average of G^k over shells |x| = r, |y| = rp (surface measure
    of the unit sphere included), for r != rp."""
    branch = _branch_for(k)
    kc = complex(k)
    r = float(r)
    rp = float(rp)
    if r <= 0 or rp <= 0:
        raise NystromError("shell radii must be positive")
    if d == 1:
        return complex(kernel_1d(kc, branch)(r, np.asarray([rp]))[0])
    if d == 3:
        return complex(kernel_3d_reduced(kc, branch)(r, np.asarray([rp]))[0])
    if d == 2:
        tt = np.asarray([rp])
        struve = kernel_2d_struve(kc, branch, np.asarray([r]), tt, [])
        return complex(kernel_2d_singular(kc, branch)(r, tt)[0] + struve[0, 0])
    raise ValueError("dimension must be 1, 2 or 3")


# ----------------------------------------------------------------------
# matrix assembly
# ----------------------------------------------------------------------

def build_split_matrix(rule, family, k, branch, measure_power):
    """W(k) = W_sing + W_reg(k) for the reduced kernel family(k, branch).

    W_sing - Q_reg[family(0)] is k-independent and assembled once per
    rule; each call then integrates family(k, branch) on the derived rule
    only (see the module docstring).
    """
    reg = rule.regular_rule()
    key = (family, measure_power)
    fixed = rule._cache.get(key)
    if fixed is None:
        kernel0 = family(0.0, Branch.ZERO)
        fixed = rule._cache[key] = (build_kernel_matrix(rule, kernel0, measure_power)
                                    - build_kernel_matrix(reg, kernel0, measure_power))
    return fixed + build_kernel_matrix(reg, family(k, branch), measure_power)


def build_kernel_matrix(rule, kernel, measure_power):
    """Dense matrix of f -> int K(r, r') f(r') r'^p dr' on the rule's nodes,
    with `kernel(r0, t)` integrated by the singular row quadrature."""
    nodes = rule.nodes
    N = len(nodes)
    W = np.zeros((N, N), dtype=complex)
    for i, r0 in enumerate(nodes):
        t, v = rule.row_quadrature(r0)
        kv = kernel(float(r0), t)
        if not np.all(np.isfinite(kv)):
            bad = t[~np.isfinite(np.asarray(kv))][:1]
            raise NystromError(f"non-finite kernel value at r={r0}, r'={bad}")
        B = rule.interp_matrix(t)
        W[i, :] = (kv * v * t**measure_power) @ B
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


def _volume_weights(d, rule):
    return greens.surface_measure(d) * rule.weights * rule.nodes ** (d - 1)


def default_rule(params, n_radial=64):
    return QuadratureRule.make(params.epsilon, n_radial=n_radial)


def full_kernel_matrix(rule, d, k, branch):
    """Split build of the reduced resolvent kernel in dimension d; in 2D
    the entire Struve component is added with the plain rule."""
    family = {1: kernel_1d, 2: kernel_2d_singular, 3: kernel_3d_reduced}[d]
    W = build_split_matrix(rule, family, k, branch, d - 1)
    if d == 2:
        moments = rule._cache.setdefault("struve_moments", [])
        W += kernel_2d_struve(k, branch, rule.nodes, rule.nodes, moments) * rule.weights * rule.nodes
    return W


def build_full_operator(params, omega, rule=None):
    """Matrix of the nonlinear-eigenvalue operator at frequency omega:
    M = -(omega - Omega) I - (g^2 rho0 / c) W."""
    omega = complex(omega)
    if omega.real == 0.0:
        raise GreensDomainError("omega on the imaginary axis is outside the domain")
    if rule is None:
        rule = default_rule(params)
    k = omega / params.c
    W = full_kernel_matrix(rule, params.d, k, _branch_for(k))
    pref = params.g**2 * params.density / params.c
    M = -(omega - params.omega_a) * np.eye(len(rule.nodes)) - pref * W
    return RadialOperator(M, rule, omega, params, _volume_weights(params.d, rule))


def unit_rule(n_radial=64):
    """Rule on the unit domain, for the limiting operators."""
    return QuadratureRule.make(1.0, n_radial=n_radial)


def build_l0_operator(params, rule=None):
    """Positive compact operator L0 on the unit domain (kernel-only kind)."""
    if params.d not in (2, 3):
        raise ValueError("L0 is defined for d in {2, 3}; use the rank-1 form in 1D")
    if rule is None:
        rule = unit_rule()
    W = build_kernel_matrix(rule, kernel_a0_reduced(params.d), params.d - 1)
    pref = params.g**2 * params.s0_effective / params.c
    return RadialOperator(pref * W, rule, 0.0 + 0.0j, params, _volume_weights(params.d, rule))


def build_limiting_operator(params, omega, rule=None):
    """Matrix of the eps -> 0 limiting operator -(omega - Omega) I - L0."""
    l0 = build_l0_operator(params, rule)
    M = -(complex(omega) - params.omega_a) * np.eye(len(l0.rule.nodes)) - l0.matrix
    return RadialOperator(M, l0.rule, complex(omega), params, l0.norm_weights)


def build_a1_operator(params, omega_j, rule):
    """First-order correction operator (kernel-only), used in expansions."""
    if params.d not in (2, 3):
        raise ValueError("A1 correction applies to d in {2, 3}")
    k = complex(omega_j) / params.c
    W = build_kernel_matrix(rule, kernel_a1_reduced(params.d, k), params.d - 1)
    pref = -params.g**2 * params.s0_effective / params.c
    return RadialOperator(pref * W, rule, complex(omega_j), params,
                          _volume_weights(params.d, rule))


def build_rank1_limit_1d(params, omega, rule=None):
    """d=1 limiting operator: rank-1 perturbation of -(omega - Omega) I.

    Its single nontrivial eigenvalue sits at Omega - g^2 s0 |B1| / (pi c),
    with the constant function as eigenvector.
    """
    if params.d != 1:
        raise ValueError("rank-1 limit applies to d = 1 only")
    if rule is None:
        rule = unit_rule()
    w_even = 2.0 * rule.weights  # int over [-1, 1] of even samples
    pref = params.g**2 * params.s0_effective / (np.pi * params.c)
    N = len(rule.nodes)
    M = -(complex(omega) - params.omega_a) * np.eye(N) - pref * np.tile(w_even, (N, 1))
    return RadialOperator(M.astype(complex), rule, complex(omega), params, 2.0 * rule.weights)
