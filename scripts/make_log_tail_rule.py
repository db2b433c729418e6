#!/usr/bin/env python3
"""Generate and check the log tail rule of photon_resonance.nystrom.

    python scripts/make_log_tail_rule.py            # print the table
    python scripts/make_log_tail_rule.py --write    # rewrite it in nystrom.py
    python scripts/make_log_tail_rule.py --check    # exit 1 if nystrom.py differs

The tail rule integrates x^j and x^j log x, j = 0 .. TAIL_DEGREE, on
[0, 1], the functions a row's integrand is made of next to its singular
point.  It is compressed from a candidate rule of LEVELS dyadic pieces
[2^-(m+1), 2^-m] with 16 Gauss-Legendre points each: the basis P_j(2x - 1)
and P_j(2x - 1) log x is orthonormalized in the candidate rule's inner
product, and pivoted Gram-Schmidt on the points' rows of that basis picks
as many points as there are functions (Kolm & Rokhlin 2001, Comput. Math.
Appl. 41:327).  The weights solve the moment equations of the
orthonormalized functions, whose conditioning a solve in the raw basis
would pay for in digits, and one step of iterative refinement, with the
moment errors of the Legendre basis summed in mpmath, takes those errors
from 1.6e-14 to about 1e-17.  The refinement works in that basis and not
in the monomials: x^j is a sum of P_k(2x - 1) with nonnegative
coefficients that add up to 1, so the Legendre errors bound the monomial
ones, but monomial moments exact to 1e-17 left 3e-11 in P_30(2x - 1) log x.

The rule is checked in mpmath against the exact moments of both bases.
--check regenerates the table and fails when the committed nodes differ
from it by more than MATCH_RTOL relative or its weights by more than
MATCH_ATOL, or miss their moments by more than MOMENT_TOL.
"""

import argparse
import os
import re
import sys

import mpmath as mp
import numpy as np
from numpy.polynomial import legendre

TAIL_DEGREE = 30
LEVELS = 80  # candidate pieces: the last reaches 2^-80, where log x still counts
MOMENT_TOL = 1e-15  # largest moment error
MAX_ABS_WEIGHT_SUM = 3.0  # sum |w| of the tail rule
MATCH_RTOL = 1e-14  # committed nodes against regenerated ones, relative
MATCH_ATOL = 1e-14  # committed weights against regenerated ones, absolute

NYSTROM = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src", "photon_resonance", "nystrom.py")
BEGIN = "# -- log tail rule: written by scripts/make_log_tail_rule.py --"
END = "# -- end of the log tail rule --"
NAMES = ("_TAIL_NODES", "_TAIL_WEIGHTS")


def candidate_rule():
    x, w = legendre.leggauss(16)
    lo, hi = 2.0 ** -np.arange(1, LEVELS + 1), 2.0 ** -np.arange(LEVELS)
    half = 0.5 * (hi - lo)
    return ((half[:, None] * x + (0.5 * (hi + lo))[:, None]).ravel(),
            (half[:, None] * w).ravel())


def tail_rule():
    """(nodes, weights) of the tail rule, nodes increasing."""
    x, w = candidate_rule()
    F = _basis(x, TAIL_DEGREE) * np.sqrt(w)[:, None]
    Q = np.linalg.qr(np.linalg.qr(F)[0])[0]  # twice, for orthogonality to round-off
    residual = Q.copy()
    chosen = []
    for _ in range(Q.shape[1]):
        s = int(np.argmax(np.einsum("ij,ij->i", residual, residual)))
        chosen.append(s)
        v = residual[s] / np.linalg.norm(residual[s])
        residual -= np.outer(residual @ v, v)
    chosen = np.array(sorted(chosen, key=lambda s: x[s]))
    # the moments of the orthonormal functions Q / sqrt(w), at the chosen points
    weights = np.linalg.solve((Q[chosen] / np.sqrt(w[chosen])[:, None]).T, np.sqrt(w) @ Q)
    nodes = x[chosen]
    # one step of iterative refinement, the moment errors summed in mpmath
    errors = _moment_errors(nodes, weights, TAIL_DEGREE, "legendre")
    return nodes, weights - np.linalg.lstsq(_basis(nodes, TAIL_DEGREE).T, errors, rcond=1e-12)[0]


def _basis(x, degree):
    """P_j(2x - 1), then P_j(2x - 1) log x, j <= degree, at the points x:
    one column per function."""
    P = legendre.legvander(2.0 * x - 1.0, degree)
    return np.hstack([P, P * np.log(x)[:, None]])


def _moment_errors(x, w, degree, kind):
    """sum w f(x) - int_0^1 f, summed in mpmath, for f = p_j, then p_j log x,
    j <= degree: p_j = x^j ("monomial"), with the integrals 1 / (j + 1) and
    -1 / (j + 1)^2, or P_j(2x - 1) ("legendre"), with delta_j0 and -1, then
    (-1)^(j+1) / (j (j + 1))."""
    n = degree + 1
    with mp.workdps(40):
        X = [mp.mpf(float(v)) for v in x]
        W = [mp.mpf(float(v)) for v in w]
        if kind == "monomial":
            p = [[v**j for v in X] for j in range(n)]
            exact = ([mp.mpf(1) / (j + 1) for j in range(n)]
                     + [-mp.mpf(1) / (j + 1) ** 2 for j in range(n)])
        else:
            p = [[mp.mpf(1)] * len(X), [2 * v - 1 for v in X]]
            for j in range(1, n - 1):  # Bonnet's recurrence
                p.append([((2 * j + 1) * (2 * v - 1) * a - j * b) / (j + 1)
                          for v, a, b in zip(X, p[j], p[j - 1])])
            exact = ([mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
                     + [mp.mpf(-1)] + [mp.mpf((-1) ** (j + 1)) / (j * (j + 1)) for j in range(1, n)])
        sums = ([mp.fsum(wi * pi for wi, pi in zip(W, row)) for row in p[:n]]
                + [mp.fsum(wi * pi * mp.log(xi) for wi, pi, xi in zip(W, row, X)) for row in p[:n]])
        return np.array([float(s - e) for s, e in zip(sums, exact)])


def moment_error(x, w, degree, kind="monomial"):
    """Largest moment error of the rule (x, w) up to degree in the basis `kind`."""
    return float(np.max(np.abs(_moment_errors(x, w, degree, kind))))


def problems(tables):
    """What is wrong with the rule in `tables`, as lines of text."""
    x, w = tables["_TAIL_NODES"], tables["_TAIL_WEIGHTS"]
    out = []
    for kind in ("monomial", "legendre"):
        err = moment_error(x, w, TAIL_DEGREE, kind)
        if not err <= MOMENT_TOL:
            out.append(f"the rule misses a {kind} moment by {err:.2e} > {MOMENT_TOL:.0e}")
    if not np.abs(w).sum() <= MAX_ABS_WEIGHT_SUM:
        out.append(f"the rule has sum |w| = {np.abs(w).sum():.3g} > {MAX_ABS_WEIGHT_SUM}")
    return out


def _array(name, values):
    rows = [", ".join(repr(float(v)) for v in values[i:i + 3]) for i in range(0, len(values), 3)]
    return f"{name} = np.array([\n" + "".join(f"    {r},\n" for r in rows) + "])\n"


def table_text(tables):
    return (f"{BEGIN}\n# x^j and x^j log x, j <= {TAIL_DEGREE}, on [0, 1]\n"
            + "".join(_array(name, tables[name]) for name in NAMES) + f"{END}\n")


def committed():
    """The arrays of the generated block in nystrom.py, by name."""
    with open(NYSTROM, encoding="utf-8") as fh:
        text = fh.read()
    block = text[text.index(BEGIN):text.index(END)]
    return {name: np.array([float(v) for v in body.split(",") if v.strip()])
            for name, body in re.findall(r"(_\w+) = np\.array\(\[(.*?)\]\)", block, re.S)}


def differs(have, want):
    """Names of the committed arrays that are missing or differ from `want`."""
    out = []
    for name in NAMES:
        got = have.get(name)
        rtol, atol = (0.0, MATCH_ATOL) if name.endswith("WEIGHTS") else (MATCH_RTOL, 0.0)
        if got is None or got.shape != want[name].shape or not np.allclose(got, want[name], rtol, atol):
            out.append(name)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite the table in nystrom.py")
    mode.add_argument("--check", action="store_true", help="exit 1 if nystrom.py differs")
    args = ap.parse_args(argv)
    tables = dict(zip(NAMES, tail_rule()))
    bad = problems(tables)
    if args.check:
        have = committed()
        names = differs(have, tables)
        if names:
            bad.append(f"nystrom.py: {', '.join(names)} differ from the regenerated table")
        else:
            bad += [f"nystrom.py: {line}" for line in problems(have)]
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    if args.write:
        with open(NYSTROM, encoding="utf-8") as fh:
            src = fh.read()
        start, stop = src.index(BEGIN), src.index(END) + len(END) + 1
        with open(NYSTROM, "w", encoding="utf-8") as fh:
            fh.write(src[:start] + table_text(tables) + src[stop:])
    elif not args.check:
        print(table_text(tables), end="")
    x, w = tables["_TAIL_NODES"], tables["_TAIL_WEIGHTS"]
    print(f"{len(x)} points in [{x[0]:.3g}, {x[-1]:.3g}], sum |w| = {np.abs(w).sum():.4g}, "
          f"moment errors {moment_error(x, w, TAIL_DEGREE):.2e} (x^j), "
          f"{moment_error(x, w, TAIL_DEGREE, 'legendre'):.2e} (P_j(2x - 1))", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
