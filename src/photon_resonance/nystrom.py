"""Nyström discretization of the photon-cloud integral operators.

The operators act on radially symmetric functions over a ball, disk or
symmetric interval of radius R (even functions in 1D; odd ones at the end
of this docstring).  A function is represented by its values at the nodes
of a composite Gauss-Legendre grid on [0, R], and the integral

    (W f)(r_i) = int K(r_i, r') f(r') r'^{d-1} dr'

is discretized with product integration: each row's integration domain is
split at its collocation radius r0, each side is refined dyadically toward
the logarithmic diagonal singularity of the reduced kernel and ends in one
log tail piece, a compressed rule exact for x^j and x^j log x (j <= 30) in
the distance x from r0 (Kolm & Rokhlin 2001, Comput. Math. Appl. 41:327;
the table comes from scripts/make_log_tail_rule.py), and integrand values
are pulled back onto the grid through piecewise barycentric interpolation.
The dyadic pieces keep SING_POINTS Gauss points, as they must integrate the
degree-23 panel interpolant exactly.  Each rule builds its quadrature
points panel by panel: one array pass makes the pieces of every row on a
base panel, so a build makes one kernel call per base panel, on that
panel's points of every row.  It contracts each row's integrand with the
panel's interpolation basis at the row's points in small real matrix
products (`build_kernel_matrix`): complex values as real and imaginary
rows, stacks in slices of 4 rows, so that no product wakes a second
OpenBLAS thread and a row's value does not depend on the stack it is built
in.  A real kernel's values are scaled by the weights in place and
contracted as they are, so a build holds one copy of a panel's values; a
stack whose height is not a multiple of 4 ends in a slice of its last 4
rows, which overlaps the slice before it, and only a stack below one slice
is zero-padded.  One smooth kernel component, the entire 2D Struve term,
takes a plain Nyström rule (kernel times base weights) instead; the one
build function of every operator, `build_split_matrix`, adds it.

Every operator build is split by singularity subtraction,

    W(k) = W_sing + W_reg(k),

because the log singularity is that of the k = 0 kernel and does not
depend on k.  One row quadrature Q serves every part of it.  W_sing =
Q[kernel(0)] - Q_gap[kernel(0)]: Q integrates up to r0, and the gap term
takes out the open gaps [0, h 2^-GAP_LEVELS] on the two sides of r0 (h the
side's width in r0's panel) that W_sing has always left out, so that every
pinned frequency stays where it is.  The gaps leave about 7e-10 relative
error in the k = 0 part of W; closing them moves the frequencies past their
pins (ROADMAP item 1).  Q_gap is a one-point rule per gap and, as the
panel's interpolant is 1 at r0 and 0 at its other nodes there, a diagonal
matrix (`_k0_gap`).

In the resonance regime the remainder kernel(k) - kernel(0) is a series
with closed-form coefficients in k times k-independent rows, so W_reg(k) is
the same series over moment matrices, Q's integrals of those rows.  Each
rule caches them in one stack whose kind 0 is W_sing, so a build, k = 0
included, is one sum (`_moment_sum`), float64 at k = 0, and evaluates no
kernel.  Growing the stack for a larger |k| costs nearly a fresh build of
it, so the callers build the largest |k| first: the bound-state solve its
deep bracket end (W_sing in the same pass), the mode loop of `eigensolver`
its largest |seed| (after L0's W_sing).  The series:

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
J0Y0_SERIES_RADIUS a build integrates the whole kernel, W(k) =
Q[kernel(k)] - Q_gap[kernel(0)], with the gap term cached per rule.

As G^k(rho) = rho^(1-d) F_d(k rho), W(k; eps) = s W(s k; R) with s =
eps / R, so one unit-domain rule and its caches serve every eps and the
coupling operator A(omega) = (g^2 rho0 / c) s W(s omega / c; R) of both
problems (`coupling_operator`): M(omega) = (Omega - omega) I - A(omega) and
K_omega = A(omega) / (Omega + |omega|); L0 = (g^2 s0 / c) W(0).  At N = 48
the rescaled build matches an eps rule to 3.6e-14 of max |W| for d = 2, 3,
and to 1.5e-10 for d = 1: there the k = 0 kernel's log eps sits in W_sing
on an eps rule, whose open gaps drop part of it, but in W_reg(s k) on the
unit rule, which Q integrates up to r0.

Angular reduction of G^k(|x - y|) onto shells |x| = r, |y| = r':

* d = 3: exact, via the antiderivative identity
      int_{S^2} G3(|x - r' yhat|) dsigma = [G1(|r-r'|) - G1(r+r')] / (r r')
  with G1 the one-dimensional kernel on the same branch;
* d = 2: exact too: closed reductions for the singular components
  (elliptic K for 1/|x-y|, Bessel addition theorem for Y0 / Hankel) and
  the Struve power series summed over angular moments of rho, which a
  three-term recurrence from the elliptic K and E grows and each rule
  caches, with NystromError where the series cancels;
* d = 1: the two-point sum G1(|r-r'|) + G1(r+r') on even functions.  An
  odd function f(r) = r g(r) sees G1(|r-r'|) - G1(r+r'), r r' times the
  d = 3 kernel, so the 3D s-wave operator on g is the 1D odd operator
  (`boundstates` solves 1D bound states by parity this way).
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss  # every rule needs it: load it at start-up

from . import greens
from .greens import Branch, GreensDomainError
# _jy0 and _struve_h0_series are uncalled here; perfbench/tracing.py wraps these names
from .specfun import (EULER_GAMMA, _h0, _jy0, _struve_h0_series,  # noqa: F401
                      bessel_j0, bessel_y0, elliptic_k, elliptic_ke)

GAP_LEVELS = 36  # W_sing leaves out [0, h 2^-GAP_LEVELS] on each side of its row's node
TAIL_REACH = 0.5  # a row's log tail ends within TAIL_REACH r0 of r0
SING_POINTS = 16  # Gauss points per dyadic panel
PLAIN_POINTS = 28  # Gauss points on panels away from the singularity
MAX_PANEL_NODES = 24  # interp degree cap; row quadratures must out-integrate it
BOUNDARY_FRACTIONS = (0.5, 0.925, 0.98875, 0.9983125)  # graded panel breaks
G1_SERIES_RADIUS = 4.0  # largest |k| rho_max of a G1 moment build
J0Y0_SERIES_RADIUS = 3.0  # largest |k| R of a 2D moment build
SERIES_MAX_ORDER = 64  # series terms computed; ample up to both radii
SERIES_TAIL = 1e-17  # scaled series terms below this are dropped
STRUVE_MAX_CANCELLATION = 1e7  # largest series term / sum: about 8 digits kept

# -- log tail rule: written by scripts/make_log_tail_rule.py --
# x^j and x^j log x, j <= 30, on [0, 1]
_TAIL_NODES = np.array([
    1.2962324377158837e-06, 2.073971900345414e-05, 0.0001659177520276331,
    0.0003318355040552662, 0.0006636710081105324, 0.0010421722644590665,
    0.001418450922930841, 0.0026546840324421297, 0.002836901845861682,
    0.004652585460151086, 0.005673803691723364, 0.009305170920302173,
    0.011347607383446728, 0.017535903059726538, 0.019859243924552912,
    0.021237472259537038, 0.027015756075447088, 0.03722068368120869,
    0.039718487849105824, 0.042474944519074076, 0.048359570466213087,
    0.05652931631879131, 0.07014361223890615, 0.09078085906757383,
    0.10255011096185185, 0.10806302430178835, 0.1333980498507605,
    0.1402872244778123, 0.1588739513964233, 0.1698997780762963,
    0.19343828186485235, 0.2161260486035767, 0.2347127755221877,
    0.25132488312604373, 0.2569281221158459, 0.266796099701521,
    0.2805744489556246, 0.29776546944966953, 0.3177479027928466,
    0.3397995561525926, 0.3631234362702953, 0.3868765637297047,
    0.4102004438474074, 0.45223453055033047, 0.4694255510443754,
    0.4930718778841541, 0.5026497662520875, 0.5138562442316918,
    0.533592199403042, 0.5611488979112492, 0.5955309388993391,
    0.6354958055856932, 0.6795991123051852, 0.7262468725405906,
    0.7737531274594094, 0.8204008876948148, 0.8645041944143068,
    0.9044690611006609, 0.9388511020887508, 0.966407800596958,
    0.9861437557683082, 0.9973502337479125,
])
_TAIL_WEIGHTS = np.array([
    3.865549657675315e-06, 6.218485661975661e-05, 3.730019880608579e-05,
    0.0007807206529107653, -0.000428838859692844, -0.0006171851105105704,
    0.0034311997179890096, -0.0007474678797652259, -0.001299482833662131,
    0.010813670665409834, -0.006605710332179393, 0.006023936828170689,
    0.003056243669606916, 0.0041850733208477955, 0.001638694216108155,
    0.0025264688575271604, 0.010484787599356657, -0.003099528483653251,
    0.006723028640935654, 0.015873654173182643, -0.002461494931419624,
    0.009619877722139616, 0.022941911451391635, 0.00487418906057194,
    0.04007964898149458, -0.011400845435939333, 0.019948360366506206,
    0.02244918778840251, -0.010106229561953768, 0.033641973910657146,
    0.027463189690613912, 0.0037329374632961475, 0.04466684694639264,
    -0.005920647475369497, 0.003083264354335909, 0.011868072527215973,
    0.023437763649904273, 0.020811515880999585, 0.011856135034224679,
    0.029904040321313254, 0.02395071539587035, 0.014916301512256662,
    0.039168015964621064, 0.03848776799346034, 0.007678372684431346,
    0.02651680100006648, 0.004172014715942131, 0.013421621870205496,
    0.024600013322031083, 0.031043062146636973, 0.03741163597130803,
    0.042287698958712386, 0.04565103537888117, 0.04736262614508114,
    0.04736265707870876, 0.04565085288508366, 0.0422891300489302,
    0.03739899715121863, 0.031157242829792015, 0.02378962791540041,
    0.015563380986356885, 0.006788114852561614,
])
# -- end of the log tail rule --
TAIL_POINTS = len(_TAIL_NODES)  # the point count marks a tail piece: neither Gauss order
GAP_POINT = math.exp(-1.0)  # weight 1: exact for 1 and log x on [0, 1] (`gap_quadrature`)


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


def _gauss_pieces(lo, hi, n):
    """Points and weights of the pieces of orders n (arrays), in piece
    order; the pieces of one order are mapped in one broadcast.  A piece of
    order TAIL_POINTS takes the log tail rule from lo, its singular end, to
    hi, which lies below lo on the left of a row's node; the others take
    Gauss-Legendre on [lo, hi]."""
    ends = np.cumsum(n)
    t, v = np.empty(ends[-1]), np.empty(ends[-1])
    for order in sorted(set(n.tolist())):  # np.unique would import numpy.ma
        sel = n == order
        at = (ends[sel] - order)[:, None] + np.arange(order)
        if order == TAIL_POINTS:
            span = (hi[sel] - lo[sel])[:, None]
            t[at] = lo[sel][:, None] + span * _TAIL_NODES
            v[at] = np.abs(span) * _TAIL_WEIGHTS
            continue
        x, w = _leggauss(order)
        half = 0.5 * (hi[sel] - lo[sel])
        t[at] = half[:, None] * x + (0.5 * (hi[sel] + lo[sel]))[:, None]
        v[at] = half[:, None] * w
    return t, v


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre grid plus its row quadratures.

    `nodes`/`weights` form the base rule used for norms and for smooth
    kernels; the per-node singular corrections live in the row quadratures
    (`row_quadrature`), which replace the base weights near the diagonal.
    On the panel that holds a row's node r0, each side of r0 gets a few
    dyadic levels and then one log tail piece, exact for x^j and x^j log x
    in the distance x from r0, which reaches r0 itself.  So one row
    quadrature integrates every kernel a build meets: the k = 0 kernels,
    whose log singularity sits at r0, the kernel(k) of the kernel route
    and the moment rows.  `panel_batches()` holds the same pieces split by
    base panel, the layout `build_kernel_matrix` assembles from.  Both take
    their pieces from `_row_pieces`, which lays out the pieces of many
    (panel, row) cells in one pass of array operations.

    `gap_quadrature()` gives the points of the open gaps [0, h 2^-GAP_LEVELS]
    next to each node that W_sing leaves out (module docstring).  The panel
    batches, the gap terms, the moment stacks (W_sing their kind 0) and
    the Struve moments are cached on the rule (`_cache`).
    One rule of radius 1 serves every eps of one discretization and its
    limiting operators (module docstring).
    """

    nodes: np.ndarray
    weights: np.ndarray
    panels: np.ndarray  # breakpoints, shape (n_panels+1,)
    counts: tuple  # nodes per panel
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("base quadrature weights must be positive")

    # -- construction ---------------------------------------------------

    @classmethod
    def make(cls, radius, n_radial=64):
        """Radial rule on [0, radius], graded toward the outer boundary,
        where eigenfunctions of the nonlocal operators have weak
        derivative singularities."""
        if n_radial < 8:
            raise ValueError("need at least 8 radial nodes")
        brk = radius * np.array((0.0, *BOUNDARY_FRACTIONS, 1.0))
        widths = np.diff(brk)
        # allocate nodes ~ proportionally to width^(1/3), min 6 per panel
        raw = widths ** (1.0 / 3.0)
        counts = np.maximum(6, np.floor(n_radial * raw / raw.sum()).astype(int))
        while counts.sum() > n_radial and np.any(counts > 6):
            counts[np.argmax(counts)] -= 1
        while counts.sum() < n_radial:
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
        nodes, weights = _gauss_pieces(brk[:-1], brk[1:], np.array(new_counts))
        return cls(nodes=nodes, weights=weights, panels=brk, counts=tuple(new_counts))

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

    def _row_pieces(self, p, r0):
        """(lo, hi, order) of the row-quadrature pieces of the rows at r0 on
        base panels p, broadcast together into cells, cell after cell, with
        each cell's number of pieces (at least one).

        A cell whose panel holds r0 is split there.  Each side, of width h,
        is refined dyadically toward r0 and ends in a log tail piece of
        TAIL_POINTS points, from r0 (its lo, above its hi on the left side)
        out to h 2^-levels.  It takes ceil(log2(h / (TAIL_REACH r0)))
        levels, so that the tail keeps away from the singularities of its
        kernels at t = 0 and -r0, and at least one, so that the tail covers
        at most half the panel, where the panel's degree-23 interpolant
        times the kernel stays within the tail rule's degree (with none,
        W_sing moved by 1.7e-12 of max |W| at N = 96).  A panel that r0 or
        -r0 (which the image term of even one-dimensional kernels sees near
        the origin) lies within 0.75 panel widths of is refined toward that
        end, only until the pieces are as narrow as the distance (at most
        GAP_LEVELS levels), and its last piece reaches that end.  Any other
        panel is one piece.  Gauss pieces narrower than 0.9 of the panel get
        SING_POINTS points, the others PLAIN_POINTS."""
        p, r0 = (c.ravel() for c in np.broadcast_arrays(p, np.asarray(r0, dtype=float)))
        a, b = self.panels[p], self.panels[p + 1]
        width = b - a
        near = near_lo = np.zeros(len(p), dtype=bool)
        dist = np.full(len(p), np.inf)  # to the nearer of r0, -r0 outside the panel
        for s in (r0, -r0):
            gap = np.where(s <= a, a - s, s - b)  # negative inside the panel
            close = (0 <= gap) & (gap < 0.75 * width)
            near, near_lo = near | close, near_lo | (close & (s <= a))
            dist = np.minimum(dist, np.where(gap >= 0, gap, np.inf))
        # two segments per cell: the sides of r0 if the panel holds it, else
        # the panel and an empty one
        right = np.broadcast_to(np.array([False, True]), (len(p), 2))
        split = np.broadcast_to(((a < r0) & (r0 < b))[:, None], right.shape)
        lo = np.where(split & right, r0[:, None], a[:, None]).ravel()
        hi = np.where(split & ~right, r0[:, None], b[:, None]).ravel()
        toward_lo = np.where(split, right, near_lo[:, None]).ravel()
        tail = split.ravel()
        dyadic = tail | (near[:, None] & ~right).ravel()
        h = hi - lo
        with np.errstate(divide="ignore", invalid="ignore"):  # unused where r0 or dist is 0
            tail_levels = np.maximum(1, np.ceil(np.log2(h / (TAIL_REACH * np.repeat(r0, 2)))))
            near_levels = np.ceil(np.log2(np.maximum(h / np.repeat(dist, 2), 2.0)))
        levels = np.where(tail, tail_levels, np.minimum(GAP_LEVELS, near_levels)).astype(int)
        n_seg = np.where(dyadic, levels + 1, ~right.ravel())
        # piece j of a dyadic segment spans h 2^-(j+1) .. h 2^-j from its
        # singular end; the last piece (j = levels) reaches that end
        seg = np.repeat(np.arange(len(n_seg)), n_seg)
        j = np.arange(len(seg)) - np.repeat(np.cumsum(n_seg) - n_seg, n_seg)
        outer = np.ldexp(h[seg], -j)
        inner = np.where(j < levels[seg], np.ldexp(h[seg], -(j + 1)), 0.0)
        toward_lo, lo, hi, whole = toward_lo[seg], lo[seg], hi[seg], ~dyadic[seg]
        piece_lo = np.where(whole, lo, np.where(toward_lo, lo + inner, hi - outer))
        piece_hi = np.where(whole, hi, np.where(toward_lo, lo + outer, hi - inner))
        order = np.where(piece_hi - piece_lo < 0.9 * width[seg // 2], SING_POINTS, PLAIN_POINTS)
        is_tail = tail[seg] & (j == levels[seg])
        order[is_tail] = TAIL_POINTS
        flip = is_tail & ~toward_lo  # a left tail runs down from r0, its piece_hi
        return (np.where(flip, piece_hi, piece_lo), np.where(flip, piece_lo, piece_hi), order,
                n_seg.reshape(-1, 2).sum(axis=1))

    def row_quadrature(self, r0):
        """Nodes and weights resolving log singularities at r0 (and at -r0,
        which the image term of even one-dimensional kernels sees near the
        origin): the pieces of every base panel in order (`_row_pieces`).
        Not cached; the per-row view of `panel_batches`."""
        lo, hi, n, _ = self._row_pieces(np.arange(len(self.counts)), r0)
        return _gauss_pieces(lo, hi, n)

    def panel_batches(self):
        """The row quadratures of all nodes, split by base panel: one
        PanelBatch per panel, cached on the rule.

        A batch holds row 0's pieces on the panel, then row 1's, and so on:
        one `_row_pieces` call makes every row's pieces on the panel as
        arrays, mapped to Gauss points together.  Its weights carry the
        barycentric normalizer of the panel's interpolant (`_bary_basis`),
        so that a build only multiplies by the node terms w_j / (t - x_j)."""
        hit = self._cache.get("batches")
        if hit is not None:
            return hit
        batches = []
        for p, sl in enumerate(self._panel_slices()):
            lo, hi, n, pieces = self._row_pieces(p, self.nodes)
            t, v = _gauss_pieces(lo, hi, n)
            scale, exact = _bary_basis(t, self.nodes[sl])
            counts = np.add.reduceat(n, np.cumsum(pieces) - pieces)
            batches.append(PanelBatch(sl, t, v * scale, counts, exact))
        self._cache["batches"] = batches
        return batches

    def gap_quadrature(self):
        """(r0, t, weights) of the open gaps [0, h 2^-GAP_LEVELS] on both
        sides of every node r0, h the side's width in the node's panel: node
        0's left and right gap, then node 1's, and so on, one point each.

        Over a gap the integrand is A + B log x up to terms 2^-GAP_LEVELS
        smaller, so the one-point rule at x = GAP_POINT = 1/e, weight 1,
        exact for 1 and log x, suffices.  From N = 320 on, the gap of a node
        close to a panel break is below half a unit in the last place of r0,
        and its point would round onto r0, where the kernel is infinite:
        such a point moves to the next float beyond r0."""
        panel = np.repeat(np.arange(len(self.counts)), self.counts)
        x = self.nodes
        gap = np.ldexp(np.stack([self.panels[panel] - x, self.panels[panel + 1] - x], axis=1),
                       -GAP_LEVELS).ravel()  # signed: left gaps negative
        r0 = np.repeat(x, 2)
        t = r0 + GAP_POINT * gap
        t = np.where(t == r0, np.nextafter(r0, np.copysign(np.inf, gap)), t)
        return r0, t, np.abs(gap)

    # -- interpolation ----------------------------------------------------

    def interp_matrix(self, t):
        """(len(t), N) matrix mapping node values to values at points t,
        by barycentric interpolation within each panel."""
        t = np.asarray(t, dtype=float)
        B = np.zeros((len(t), len(self.nodes)))
        idx = np.clip(np.searchsorted(self.panels, t, side="right") - 1, 0, len(self.counts) - 1)
        for p, sl in enumerate(self._panel_slices()):
            rows = np.flatnonzero(idx == p)
            tp, x = t[rows], self.nodes[sl]
            scale, exact = _bary_basis(tp, x)
            B[rows, sl] = scale[:, None] * _bary_terms(tp, x, exact, np.empty((len(x), len(tp)))).T
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
    is L_j(t) = scale(t) * _bary_terms(t, x, exact, out)[j]: scale(t) is
    1 / sum_k w_k / (t - x_k), or 1 where t equals a node exactly; `exact`
    holds that node's index (-1 elsewhere), or is None when no point hits
    a node.
    """
    w = _bary_weights(x)
    at = np.minimum(np.searchsorted(x, t), len(x) - 1)
    on_node = x[at] == t
    with np.errstate(divide="ignore", invalid="ignore"):  # at the nodes: replaced below
        denom = w[0] / (t - x[0])
        for j in range(1, len(x)):
            denom += w[j] / (t - x[j])
    if not on_node.any():
        return 1.0 / denom, None
    return np.where(on_node, 1.0, 1.0 / denom), np.where(on_node, at, -1)


def _bary_terms(t, x, exact, out):
    """The node terms w_j / (t - x_j) at the points t, node by node, as the
    (len(x), len(t)) matrix `out`; a point equal to a node (`exact`) gets
    the exact-hit rule instead: 1 for that node and 0 for the others."""
    np.subtract(t, x[:, None], out=out)
    with np.errstate(divide="ignore"):  # at the nodes: replaced below
        np.divide(_bary_weights(x)[:, None], out, out=out)
    if exact is not None:
        hit = np.flatnonzero(exact >= 0)
        out[:, hit] = 0.0
        out[exact[hit], hit] = 1.0
    return out


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


def _moment_kernel(terms, powers, logs, k0=None):
    """Kernel stacking the kernel k0 if given, the power rows n in
    `powers`, then the log rows m in `logs` (row 2m of `terms`), of the
    reduced basis `terms`."""
    def f(r0, t):
        out = np.empty((1 + len(powers) + len(logs), len(t)))  # row 0: k0's
        if k0 is not None:
            out[0] = k0(r0, t)
        for n, (row, log_row) in zip(range(powers.stop), terms(r0, t)):
            if n in powers:
                out[1 + n - powers.start] = row
            if n % 2 == 0 and n // 2 in logs:
                out[1 + len(powers) + n // 2 - logs.start] = log_row
        return out if k0 is not None else out[1:]
    return f


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


def kernel_2d_struve(k, branch, r, t, moments, maxima=None):
    """Exact angular reduction of the entire -(kappa/4) H0_struve(kappa rho)
    component as a (len(r), len(t)) matrix: the power series of H0 summed
    term by term over the k-independent moments of rho, which the list
    `moments` keeps and grows on demand (`_grow_struve_moments`), with
    their largest entries in the list `maxima`.  Raises NystromError when
    the largest term exceeds the sum by more than STRUVE_MAX_CANCELLATION.

    The sum stops at the first term below 1e-18 of max |sum|.  That max
    is a pass over the sum, taken only once the term is below 1e-18 of
    2 sum_i |term_i| max M_i, a bound on it with room for rounding, so
    the sum stops where a test at every term would stop it."""
    if maxima is None:
        maxima = []
    kappa = -k if branch is Branch.NEGATIVE else k
    z = complex(kappa) * (r.max() + t.max())
    term = z * 2.0 / np.pi  # (z/2) / Gamma(3/2)^2
    total = peak = bound = 0.0
    for j in range(201):
        if j == len(moments):
            _grow_struve_moments(r, t, moments)
        if j == len(maxima):
            maxima.append(moments[j].max())
        total += term * moments[j]
        size = abs(term) * maxima[j]
        peak, bound = max(peak, size), bound + size
        term *= -((z / 2.0) ** 2) / ((j + 1.5) ** 2)
        if abs(term) <= 2e-18 * bound:
            largest = np.max(np.abs(total))
            if abs(term) <= 1e-18 * largest:  # moments are at most 1
                break
        if not math.isfinite(abs(term)):
            raise NystromError(f"2d Struve series overflows at |kappa| (r + t)_max = {abs(z):.3g}")
    else:
        largest = np.max(np.abs(total))
    if not peak <= STRUVE_MAX_CANCELLATION * largest:  # NaN fails too
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
    """Reduced kernel of the k-independent leading singular term A0 (real)."""
    if d == 3:
        def f3(r0, t):
            return np.log((r0 + t) / np.abs(r0 - t)) / (np.pi * r0 * t)
        return f3
    if d == 2:
        def f2(r0, t):
            mc = ((r0 - t) / (r0 + t)) ** 2
            return (2.0 / np.pi) * elliptic_k(mc) / (r0 + t)
        return f2
    raise ValueError("A0 reduction applies to d in {2, 3}")


# ----------------------------------------------------------------------
# matrix assembly
# ----------------------------------------------------------------------

# d -> (reduced kernel family, G1 moment basis in rho / 2 R); the measure power is d - 1
_SPLIT = {1: (kernel_1d, _basis_1d), 2: (kernel_2d_singular, None), 3: (kernel_3d_reduced, _basis_3d)}


def build_split_matrix(rule, d, k, branch):
    """W(k) = W_sing + W_reg(k) for the reduced kernel family(k, branch) of
    dimension d (`_SPLIT`): the one build of every operator, L0, M(omega)
    and K_omega.

    At k = 0 and in the resonance regime (`_moment_series`) it is one sum
    over the rule's moment stack, whose kind 0 is W_sing = Q[family(0)] -
    Q_gap[family(0)] (`_moment_sum`); above, the kernel route
    Q[family(k, branch)] - Q_gap[family(0)] (`_k0_gap`).  In 2D, except on
    the ZERO branch of L0, it then adds the entire Struve component with
    the plain rule (`kernel_2d_struve` on the rule's cached moments).
    """
    series = _moment_series(rule, d, k, branch)
    if series is not None:
        W = _moment_sum(rule, d, *series)
    else:
        W = build_kernel_matrix(rule, _SPLIT[d][0](k, branch), d - 1)
        W[np.diag_indices(len(W))] -= _k0_gap(rule, d)
    if d == 2 and branch is not Branch.ZERO:
        moments, maxima = rule._cache.setdefault("struve_moments", ([], []))
        W += (kernel_2d_struve(k, branch, rule.nodes, rule.nodes, moments, maxima)
              * rule.weights * rule.nodes)
    return W


def _k0_gap(rule, d):
    """gap[i], the k = 0 kernel's integral over the two open gaps next to
    node i that W_sing leaves out (`gap_quadrature`), cached per rule.  The
    interpolant is 1 at the node and 0 at the others up to a slope times
    the gap, so the term is diagonal to within 1e-20 of max |W|."""
    gap = rule._cache.get(("gap", d))
    if gap is None:
        r0, t, v = rule.gap_quadrature()
        a = _SPLIT[d][0](0.0, Branch.ZERO)(r0, t)
        _require_finite(a, r0, t, "kernel")
        gap = rule._cache[("gap", d)] = (a * v * t**(d - 1)).reshape(len(rule.nodes), -1).sum(axis=1)
    return gap


def _moment_series(rule, d, k, branch):
    """(coefficients, rows) of the moment route of the dimension-d split
    build at k on the rule, or None where the build takes the kernel route.

    `coefficients` is a tuple of arrays, one per kind of moment: kind 0,
    the k = 0 kernel, with coefficient 1, then the series, empty at k = 0.
    rows(orders) stacks the rows of each kind for the index ranges in
    `orders` (`_moment_sum`)."""
    family, basis = _SPLIT[d]
    radius = rule.domain[1]
    rho_max = radius if d == 2 else 2.0 * radius
    if abs(k) * rho_max > (J0Y0_SERIES_RADIUS if d == 2 else G1_SERIES_RADIUS):
        return None
    if branch is Branch.ZERO:
        series = (np.zeros(0),) * (3 if d == 2 else 2)
    elif d == 2:
        series = _j0y0_series(k, branch, radius)
    else:
        a, b = greens.g1_series(k, branch, SERIES_MAX_ORDER)
        scale = rho_max ** np.arange(len(a))
        a, b = a * scale, b * scale[::2]
        a[2::2] += b[1:] * math.log(rho_max)  # log rho = log s + log rho_max
        size = np.abs(a)
        size[::2] += np.abs(b)
        order = _series_order(size, abs(k) * rho_max)
        series = (a[:order + 1], b[1:order // 2 + 1])

    def rows(orders):  # kind 0's kernel is made only for a build that grows it
        k0 = family(0.0, Branch.ZERO) if orders[0] else None
        if d == 2:
            return _j0y0_rows(radius, orders[1], k0)
        logs = range(orders[2].start + 1, orders[2].stop + 1)  # b[0] = 0 has no row
        return _moment_kernel(basis(rho_max), orders[1], logs, k0)
    return (np.ones(1),) + series, rows


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


def _j0y0_rows(radius, orders, k0=None):
    """Kernel stacking the kernel k0 if given, then the rows U_n, U_n log
    y and H_n, n in `orders`, of the 2D remainder: with x = min(r, t) / R
    and y = max(r, t) / R, U_n = sum_{a+b=n} x^2a y^2b / (a! b!)^2 and H_n
    is the same sum with each term weighted by the harmonic number H_b.
    All terms are positive, so the rows do not cancel."""
    def f(r0, t):
        head = [] if k0 is None else [k0(r0, t)]
        x2, y = (np.minimum(r0, t) / radius) ** 2, np.maximum(r0, t) / radius
        p, q = [np.ones_like(y)], [np.ones_like(y)]  # x^2a / a!^2, y^2b / b!^2
        for j in range(1, orders.stop):
            p.append(p[-1] * x2 / j**2)
            q.append(q[-1] * (y * y) / j**2)
        U = [sum(p[a] * q[n - a] for a in range(n + 1)) for n in orders]
        H = [sum(p[a] * q[n - a] * _HARMONIC[n - a] for a in range(n + 1)) for n in orders]
        log_y = np.log(y) if U else None  # none for kind 0 alone
        return np.array(head + U + [u * log_y for u in U] + H)
    return f


def _moment_sum(rule, d, coefficients, rows):
    """sum_f sum_i coefficients[f][i] M_f[i], the moment route of every
    split build (d = 1, 2, 3), in float64 where the coefficients are real.

    M_f[i] is the rule's integral of row i of kind f of the reduced basis;
    kind 0 less its gap term (`_k0_gap`) is W_sing, and the sum adds it
    first.  The moments are cached on the rule and grown, in one stacked
    build of the missing rows (`rows`), when a larger |k| needs more terms;
    a grown stack equals a fresh one bit for bit (`_contract_panel`)."""
    moments = rule._cache.setdefault(("moments", d), [[] for _ in coefficients])
    missing = [range(len(M), max(len(M), len(c))) for M, c in zip(moments, coefficients)]
    if any(missing):
        stack = iter(build_kernel_matrix(rule, rows(missing), d - 1))
        for M, r in zip(moments, missing):
            M.extend(itertools.islice(stack, len(r)))
        if missing[0]:
            moments[0][0][np.diag_indices(len(rule.nodes))] -= _k0_gap(rule, d)
    W = np.zeros(moments[0][0].shape, np.result_type(*coefficients))
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
    then small real matrix products fill each row's entries in the panel's
    columns: the row's scaled kernel values (stack rows x the row's
    points) times the panel's barycentric terms at those points (points x
    panel nodes), see `_contract_panel`.  A kernel that returns a stack of
    shape (..., len(t)) gives the stack of matrices (..., N, N), in the
    kernel's dtype, in the same pass.

    The products take the real rows: a real kernel's own values, scaled by
    the weights in place (so `kernel` must return a fresh float array), or
    a copy of the real parts stacked on the imaginary ones.  A complex
    product of these sizes wakes a second OpenBLAS thread (a 1152 x 14 one
    took 1.3 times its wall time in CPU time, a 4000 x 14 one 1.9 times); a
    real one does not.  A single kernel is contracted in slices of 2 rows,
    its real and imaginary parts or its values and a zero row, a stack in
    slices of _STACK_SLICE rows (`_contract_panel`).  Each panel's values
    are released before the next panel's kernel call, so that the build's
    peak holds one panel's values, not two.
    """
    nodes, batches = rule.nodes, rule.panel_batches()
    W = None
    for batch in batches:
        t = batch.t
        r0 = np.repeat(nodes, batch.counts)
        a = kernel(r0, t)
        _require_finite(a, r0, t, "kernel")
        if W is None:
            shape, dtype = a.shape[:-1] + (len(nodes), len(nodes)), a.dtype
            stack = math.prod(a.shape[:-1])
            height = 2 * stack if np.iscomplexobj(a) else stack
            h = _STACK_SLICE if a.ndim > 1 else 2
            W = np.empty((max(height, h),) + shape[-2:])
        a = a.reshape(stack, len(t))
        rows = np.concatenate((a.real, a.imag)) if height > stack else a
        rows *= batch.weights  # a real kernel's own values, scaled in place
        if measure_power:
            rows *= t**measure_power
        _contract_panel(W[:, :, batch.nodes], rows, h, batch, nodes[batch.nodes])
        del a, rows  # free the kernel values before the next panel's kernel call
    if height == stack:
        return W[:height].reshape(shape)
    out = np.empty(shape, dtype)
    out.real, out.imag = (half.reshape(shape) for half in np.split(W[:height], 2))
    return out


_STACK_SLICE = 4  # stack rows of each product
_TERM_BLOCK = 4096  # points per block of barycentric terms


def _contract_panel(W, rows, h, batch, x):
    """W[:, i] = rows[:, row i's points] @ terms[:, row i's points].T for
    every row i of the batch, with W the (height, N, len(x)) view of the
    panel's columns and terms the node terms w_j / (t - x_j) (`_bary_terms`),
    in products of h stack rows each.  Where h does not divide the height,
    the last product takes the last h rows and so overlaps the one before:
    their shared rows are written twice, with the same bits, as a row sums
    alike wherever it sits in a product.  No copy of `rows` is made, except
    that a stack of fewer than h rows is zero-padded to h.

    A fixed h keeps a row of W independent of the height of the stack it
    is built in: OpenBLAS 0.3.31 on an AVX-512 Xeon summed a row in one
    order in products of 2 or 3 rows and in another from 4 rows on, and
    the grown moment stacks must equal fresh ones.  Every product stays
    far below OpenBLAS's threading threshold of 65536 x 4 multiply-adds
    (4 rows x 1,152 points x 24 nodes at most).  A single row would take
    BLAS's matrix-vector path, which summed less accurately (3.8 against
    1.5 eps of max |W| off the exact sums, for the 3D W_sing at N = 96).

    The terms are computed in blocks of consecutive rows of about
    _TERM_BLOCK points into one buffer: those of a whole panel at once
    land on more fresh pages.  In a block, each run of rows with equal
    point counts is one batched product."""
    if len(rows) < h:  # a stack below one slice: zero rows fill it
        rows = np.concatenate((rows, np.zeros((h - len(rows), rows.shape[1]))))
    t, exact, n, full = batch.t, batch.exact, len(x), len(rows) // h * h
    parts = [(rows[:full], W[:full])]
    if full < len(rows):  # the last h rows, overlapping the slice before
        parts.append((rows[-h:], W[-h:]))
    counts = batch.counts.tolist()
    ends = np.cumsum(batch.counts).tolist()
    buffer = np.empty(n * (_TERM_BLOCK + max(counts)))
    i = 0
    while i < len(counts):
        s = ends[i] - counts[i]
        j = min(bisect.bisect_left(ends, s + _TERM_BLOCK), len(counts) - 1) + 1
        e = ends[j - 1]
        terms = _bary_terms(t[s:e], x, None if exact is None else exact[s:e],
                            buffer[:n * (e - s)].reshape(n, e - s))
        while i < j:  # the block's runs of rows i..k-1 with c points each
            c, k = counts[i], i + 1
            while k < j and counts[k] == c:
                k += 1
            lo, hi = ends[i] - c, ends[k - 1]
            run_terms = terms[:, lo - s:hi - s].reshape(n, k - i, 1, c).transpose(1, 2, 3, 0)
            for part, dest in parts:
                slices = len(part) // h
                run = part[:, lo:hi].reshape(slices, h, k - i, c).transpose(2, 0, 1, 3)
                out = dest[:, i:k].reshape(slices, h, k - i, n).transpose(2, 0, 1, 3)
                np.matmul(run, run_terms, out=out)
            i = k


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


def coupling_operator(params, rule, omega):
    """(A, weights): A(omega) = (g^2 rho0 / c) s W(s k; R) on the branch of
    k = omega / c (real for a real omega), s = eps / R for a rule of radius
    R, and the volume weights of B_eps, volume_weights(d, rule) s^d."""
    k = omega / params.c
    s = params.epsilon / rule.domain[1]
    W = build_split_matrix(rule, params.d, s * k, greens.branch_for(k))
    pref = params.g**2 * params.density / params.c * s
    return pref * W, volume_weights(params.d, rule) * s**params.d


def build_full_operator(params, omega, rule):
    """Matrix of the nonlinear-eigenvalue operator at frequency omega:
    M(omega) = (Omega - omega) I - A(omega) (`coupling_operator`), with the
    norm weights of B_eps."""
    omega = complex(omega)
    if omega.real == 0.0:
        raise GreensDomainError("omega on the imaginary axis is outside the domain")
    A, weights = coupling_operator(params, rule, omega)
    M = -(omega - params.omega_a) * np.eye(len(rule.nodes)) - A
    return RadialOperator(M, rule, omega, params, weights)
