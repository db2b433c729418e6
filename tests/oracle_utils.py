"""Independent oracles used by the test suite only.

Extended-precision references are summed with mpmath; quadrature oracles
use scipy's adaptive integrator.  These deliberately avoid the library's
own evaluation paths.
"""

import itertools
import math

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from photon_resonance import greens as gr, nystrom as ny

mp.mp.dps = 60  # Hankel/Struve references need headroom off the real axis


def e1_series_extended(z, terms=60):
    """E1 by the defining series, truncated at `terms` in extended precision."""
    z = mp.mpc(z)
    s = mp.mpc(0)
    term = mp.mpc(1)
    for n in range(1, terms + 1):
        term *= -z / n
        s += term / n
    return complex(-mp.log(z) - mp.euler - s)


def e1_quad_ray(x):
    """E1(x) for real x > 0 by adaptive quadrature of the tail integral."""
    val = mp.quad(lambda t: mp.e ** (-t) / t, [mp.mpf(x), mp.inf])
    return float(val)


def e1_ref(z):
    return complex(mp.e1(mp.mpc(complex(z))))


def j0_ref(z):
    return complex(mp.besselj(0, mp.mpc(complex(z))))


def y0_ref(z):
    return complex(mp.bessely(0, mp.mpc(complex(z))))


def hankel_ref(z, kind=1):
    f = mp.hankel1 if kind == 1 else mp.hankel2
    return complex(f(0, mp.mpc(complex(z))))


def struve_k0_ref(z):
    zz = mp.mpc(complex(z))
    return complex(mp.struveh(0, zz) - mp.bessely(0, zz))


def green_reduced_3d_oracle(k, branch_green, r, rp):
    """Adaptive angular quadrature of the 3D shell average of G."""
    def f_re(th):
        rho = np.sqrt(r * r + rp * rp - 2 * r * rp * np.cos(th))
        return (2 * np.pi * branch_green(rho) * np.sin(th)).real

    def f_im(th):
        rho = np.sqrt(r * r + rp * rp - 2 * r * rp * np.cos(th))
        return (2 * np.pi * branch_green(rho) * np.sin(th)).imag

    re, _ = quad(f_re, 0, np.pi, epsabs=1e-12, limit=400)
    im, _ = quad(f_im, 0, np.pi, epsabs=1e-12, limit=400)
    return complex(re, im)


def green_negk_quadrature_oracle(d, k, r, abs_tol=1e-12):
    """Slow independent evaluation of the negative-branch kernel.

    Integrates c_d * int_0^inf e^{kt} t (t^2+r^2)^{-(d+1)/2} dt for real
    k < 0, to cross-check the closed forms of `greens`.
    """
    if d not in (1, 2, 3):
        raise gr.GreensDomainError("dimension must be 1, 2 or 3")
    k = float(k)
    if k >= 0:
        raise gr.GreensDomainError("quadrature oracle requires real k < 0")
    r = float(r)
    if r <= gr.R_MIN:
        raise gr.GreensDomainError(f"radius must exceed {gr.R_MIN}")
    cd = gr.heat_constant(d)
    p = (d + 1) / 2

    def integrand(t):
        return math.exp(k * t) * t / (t * t + r * r) ** p

    val, err = quad(integrand, 0.0, np.inf, epsabs=abs_tol, epsrel=1e-13, limit=400)
    if err > max(100 * abs_tol, 1e-8 * abs(val)):
        raise RuntimeError(f"quadrature did not converge: estimate {val}, error {err}")
    return cd * val


def reduced_kernel(d, k, r, rp):
    """Angular average of G^k over shells |x| = r, |y| = rp (surface measure
    of the unit sphere included), for r != rp, from the library's reduced
    kernels at one point."""
    branch = gr.branch_for(k)
    kc = complex(k)
    r = float(r)
    rp = float(rp)
    if r <= 0 or rp <= 0:
        raise ny.NystromError("shell radii must be positive")
    if d == 1:
        return complex(ny.kernel_1d(kc, branch)(r, np.asarray([rp]))[0])
    if d == 3:
        return complex(ny.kernel_3d_reduced(kc, branch)(r, np.asarray([rp]))[0])
    if d == 2:
        tt = np.asarray([rp])
        struve = ny.kernel_2d_struve(kc, branch, np.asarray([r]), tt, [])
        return complex(ny.kernel_2d_singular(kc, branch)(r, tt)[0] + struve[0, 0])
    raise ValueError("dimension must be 1, 2 or 3")


def build_rank1_limit_1d(params, omega, rule=None):
    """(M, weights) of the d=1 limiting operator: M is a rank-1 perturbation
    of -(omega - Omega) I.

    Its single nontrivial eigenvalue sits at Omega - g^2 s0 |B1| / (pi c),
    with the constant function as eigenvector.  Without a rule, a 64-node
    rule on the unit interval.
    """
    if params.d != 1:
        raise ValueError("rank-1 limit applies to d = 1 only")
    if rule is None:
        rule = ny.QuadratureRule.make(1.0, n_radial=64)
    w_even = 2.0 * rule.weights  # int over [-1, 1] of even samples
    pref = params.g**2 * params.s0_effective / (np.pi * params.c)
    N = len(rule.nodes)
    M = -(complex(omega) - params.omega_a) * np.eye(N) - pref * np.tile(w_even, (N, 1))
    return M.astype(complex), 2.0 * rule.weights


def characteristic_value_eigvals(M):
    """Eigenvalue of smallest magnitude of the matrix M, picked from its full
    spectrum (`np.linalg.eigvals`)."""
    ev = np.linalg.eigvals(M)
    return complex(ev[np.argmin(np.abs(ev))])


def symmetric_eigenvalues_extended(matrix):
    """Eigenvalues of a real symmetric matrix in extended precision
    (mpmath `eigsy` at the module precision), ascending, rounded to floats."""
    ev = mp.eigsy(mp.matrix(np.asarray(matrix).tolist()), eigvals_only=True)
    return np.array(sorted(float(x) for x in ev))


def limiting_matrix(params, rule):
    """(L0, weights): the limiting operator L0 = (g^2 s0 / c) W(0) on the
    unit-domain rule, W(0) the k = 0 build, and the rule's volume weights."""
    W = ny.build_split_matrix(rule, params.d, 0.0, gr.Branch.ZERO)
    return params.g**2 * params.s0_effective / params.c * W, ny.volume_weights(params.d, rule)


def build_limiting_operator(params, omega, rule):
    """(M, weights) of the eps -> 0 limiting operator M = -(omega - Omega) I - L0."""
    L0, weights = limiting_matrix(params, rule)
    return -(complex(omega) - params.omega_a) * np.eye(len(rule.nodes)) - L0, weights


def radial_integral(f, d, r_max=1e7, n_decades_start=1e-6):
    """integral over R^d of a radial function via geometric panels."""
    import warnings

    from scipy.integrate import IntegrationWarning

    from photon_resonance.greens import surface_measure
    total = 0.0
    a = 0.0
    with warnings.catch_warnings():
        # tiny panels at tight epsabs report roundoff; the panel sum is
        # well below the tolerances these oracles back
        warnings.simplefilter("ignore", IntegrationWarning)
        for b in np.geomspace(n_decades_start, r_max, 48):
            val, _ = quad(lambda r: f(r) * r ** (d - 1), a, b, epsabs=1e-13, limit=200)
            total += val
            a = b
    return surface_measure(d) * total


def loglog_slope(xs, ys):
    """Least-squares slope of log|y| against log x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys, dtype=float))
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def bisect_real_root(f, a, b, iters=200):
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _dyadic_pieces(a, b, toward_start, levels, last):
    """Panels on [a, b] geometrically refined toward one endpoint, in
    `levels` dyadic levels and then the last piece, which reaches the
    endpoint: (lo, hi, None) for Gauss pieces, whose order is set later,
    and (singular end, far end, order) for a log tail (last = "tail")."""
    h = b - a
    edges = h * 2.0 ** (-np.arange(levels + 1, dtype=float))
    out = []
    for j in range(levels):
        lo, hi = edges[j + 1], edges[j]
        out.append((a + lo, a + hi, None) if toward_start else (b - hi, b - lo, None))
    if last == "tail":
        out.append((a, a + edges[levels], ny.TAIL_POINTS) if toward_start
                   else (b, b - edges[levels], ny.TAIL_POINTS))
    else:
        out.append((a, a + edges[levels], None) if toward_start else (b - edges[levels], b, None))
    return out


def row_pieces(rule, p, r0):
    """(lo, hi, points) of each piece of the row quadrature at r0 on base
    panel p, one row and one panel at a time: the per-row reference for
    `QuadratureRule._row_pieces`."""
    a, b = float(rule.panels[p]), float(rule.panels[p + 1])
    width = b - a
    if a < r0 < b:
        pieces = []
        for lo, hi, toward_start in ((a, r0, False), (r0, b, True)):
            levels = max(1, math.ceil(math.log2((hi - lo) / (ny.TAIL_REACH * r0))))
            pieces += _dyadic_pieces(lo, hi, toward_start, levels, "tail")
    else:
        sing = (float(r0), float(-r0))
        dist = min(abs(s - a) if s <= a else abs(s - b) for s in sing if not (a < s < b))
        near_lo = any(0 <= a - s < 0.75 * width for s in sing)
        near_hi = any(0 <= s - b < 0.75 * width for s in sing)
        if near_lo or near_hi:
            levels = min(ny.GAP_LEVELS, math.ceil(math.log2(max(width / max(dist, 1e-300), 2.0))))
            pieces = _dyadic_pieces(a, b, near_lo, levels, "gauss")
        else:
            pieces = [(a, b, None)]
    return [(lo, hi, n if n is not None else
             ny.SING_POINTS if (hi - lo) < 0.9 * width else ny.PLAIN_POINTS)
            for lo, hi, n in pieces]


def gauss_points(pieces):
    """Points and weights of (lo, hi, order) pieces, piece by piece: Gauss
    on [lo, hi], or for order TAIL_POINTS the log tail from lo to hi."""
    t, v = [], []
    for lo, hi, n in pieces:
        if n == ny.TAIL_POINTS:
            t.append(lo + (hi - lo) * ny._TAIL_NODES)
            v.append(abs(hi - lo) * ny._TAIL_WEIGHTS)
            continue
        x, w = leggauss(n)
        t.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        v.append(0.5 * (hi - lo) * w)
    return np.concatenate(t), np.concatenate(v)


def row_quadrature(rule, r0):
    """The row quadrature at r0, panel after panel, from `row_pieces`."""
    return gauss_points([piece for p in range(len(rule.counts)) for piece in row_pieces(rule, p, r0)])


def bary_basis(t, x):
    """(scale, exact) of the panel interpolant at t, testing every node for
    an exact hit in turn (see `nystrom._bary_basis`)."""
    w = ny._bary_weights(x)
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


def panel_batches(rule):
    """(t, weights, counts, exact) of each base panel: every row's
    `row_pieces` on the panel in node order, as `QuadratureRule.panel_batches`
    lays them out."""
    out = []
    start = 0
    for p, c in enumerate(rule.counts):
        rows = [row_pieces(rule, p, r0) for r0 in rule.nodes]
        t, v = gauss_points([piece for row in rows for piece in row])
        scale, exact = bary_basis(t, rule.nodes[start:start + c])
        counts = np.array([sum(n for _, _, n in row) for row in rows])
        out.append((t, v * scale, counts, exact))
        start += c
    return out


def build_kernel_matrix_per_node(rule, kernel, measure_power):
    """Reference assembly of `nystrom.build_kernel_matrix` from the same
    panel batches, one panel node at a time: the integrand times the node's
    barycentric term, summed over each row's points by `np.add.reduceat`."""
    nodes = rule.nodes
    W = None
    for batch in rule.panel_batches():
        t = batch.t
        r0 = np.repeat(nodes, batch.counts)
        a = kernel(r0, t) * batch.weights * t**measure_power
        if W is None:
            W = np.empty(a.shape[:-1] + (len(nodes), len(nodes)), dtype=a.dtype)
        starts = np.cumsum(batch.counts) - batch.counts
        x = nodes[batch.nodes]
        w = ny._bary_weights(x)
        for j in range(len(x)):
            with np.errstate(divide="ignore"):  # a point on node j: replaced below
                term = w[j] / (t - x[j])
            if batch.exact is not None:
                term[batch.exact >= 0] = 0.0
                term[batch.exact == j] = 1.0
            W[..., batch.nodes.start + j] = np.add.reduceat(a * term, starts, axis=-1)
    return W


# -- generator forms of the moment-stack rows, the reference for the rows
# -- that nystrom writes in place: same operations, in the same order

def _powers_and_logs(s):
    """Yield (s^n, s^n log s for even n, else None) for n = 0, 1, ..."""
    p, log_s = np.ones_like(s), np.log(s)
    for n in itertools.count():
        yield p, (p * log_s if n % 2 == 0 else None)
        p = p * s


def basis_1d_terms(rho_max):
    """`_powers_and_logs` at s = |r - t| / rho_max plus at (r + t) / rho_max."""
    def terms(r0, t):
        for (a, log_a), (b, log_b) in zip(_powers_and_logs(np.abs(r0 - t) / rho_max),
                                          _powers_and_logs((r0 + t) / rho_max)):
            yield a + b, (None if log_a is None else log_a + log_b)
    return terms


def basis_3d_terms(rho_max):
    """`_powers_and_logs` at s = |r - t| / rho_max minus at (r + t) /
    rho_max, divided by r t, by the recurrences of `nystrom._basis_3d`."""
    def terms(r0, t):
        hi, lo = np.maximum(r0, t), np.minimum(r0, t)
        x, y, u = hi / rho_max, lo / rho_max, lo / hi
        minus = np.abs(r0 - t) / hi
        log_x, log_minus, log_plus = np.log(x), np.log(minus), np.log1p(u)
        x2, minus2, plus2 = x * x, minus * minus, (1.0 + u) ** 2
        xm, minus_m, plus_m = np.ones_like(x), minus2, plus2
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


def moment_kernel_terms(terms, powers, logs, k0=None):
    """Kernel stacking the kernel k0 if given, the power rows n in
    `powers`, then the log rows m in `logs` (row 2m of `terms`)."""
    def f(r0, t):
        out = np.empty((1 + len(powers) + len(logs), len(t)))
        if k0 is not None:
            out[0] = k0(r0, t)
        for n, (row, log_row) in zip(range(powers.stop), terms(r0, t)):
            if n in powers:
                out[1 + n - powers.start] = row
            if n % 2 == 0 and n // 2 in logs:
                out[1 + len(powers) + n // 2 - logs.start] = log_row
        return out if k0 is not None else out[1:]
    return f


def j0y0_rows_lists(radius, orders, k0=None):
    """The rows of `nystrom._j0y0_rows`, each built as a list of arrays."""
    def f(r0, t):
        head = [] if k0 is None else [k0(r0, t)]
        x2, y = (np.minimum(r0, t) / radius) ** 2, np.maximum(r0, t) / radius
        p, q = [np.ones_like(y)], [np.ones_like(y)]
        for j in range(1, orders.stop):
            p.append(p[-1] * x2 / j**2)
            q.append(q[-1] * (y * y) / j**2)
        U = [sum(p[a] * q[n - a] for a in range(n + 1)) for n in orders]
        H = [sum(p[a] * q[n - a] * ny._HARMONIC[n - a] for a in range(n + 1)) for n in orders]
        log_y = np.log(y) if U else None
        return np.array(head + U + [u * log_y for u in U] + H)
    return f


def panel_batches_per_panel(rule):
    """(t, weights, counts, exact) of each base panel from one `_row_pieces`
    and one `_gauss_pieces` call per panel, over that panel's rows."""
    out = []
    for p, sl in enumerate(rule._panel_slices()):
        lo, hi, n, pieces = rule._row_pieces(p, rule.nodes)
        t, v = ny._gauss_pieces(lo, hi, n)
        scale, exact = ny._bary_basis(t, rule.nodes[sl])
        out.append((t, v * scale, np.add.reduceat(n, np.cumsum(pieces) - pieces), exact))
    return out
