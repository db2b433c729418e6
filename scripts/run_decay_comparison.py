#!/usr/bin/env python3
"""Survival-probability decay of an atomic excitation vs the resonance width.

Locates the dominant 1D resonance, evolves an atomic bump, and compares
the fitted log-survival slope with 2 Im(omega*).

    python scripts/run_decay_comparison.py --eps 0.05 --s0 0.3
"""

import argparse
import sys

import numpy as np

from photon_resonance import dynamics as dyn, eigensolver as es
from photon_resonance.nystrom import PhysicalParams, QuadratureRule


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--s0", type=float, default=0.3)
    ap.add_argument("--box", type=float, default=24.0)
    ap.add_argument("--grid", type=int, default=8192)
    ap.add_argument("--t-final", type=float, default=4.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--fit-window", type=float, nargs=2, default=(1.0, 4.0))
    ap.add_argument("--out", default="decay.csv")
    args = ap.parse_args()

    p = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=args.eps, s0=args.s0)
    res = es.find_resonances(p, 1, QuadratureRule.make(1.0, n_radial=48))
    w = res[0].omega
    print(f"resonance omega* = {w:.8f}", file=sys.stderr)

    x = -args.box / 2 + (args.box / args.grid) * np.arange(args.grid)
    phi0 = np.where(np.abs(x) <= p.epsilon, 1.0, 0.0).astype(complex)
    state0 = dyn.FieldState(args.box, np.zeros(args.grid, complex), phi0, 0.0).normalized()

    cur = state0
    ts, surv = [0.0], [1.0]
    steps = max(1, int(round(args.t_final / (args.dt * 100))))
    for _ in range(steps):
        cur = dyn.evolve(cur, args.dt, 100, p)
        ts.append(cur.t)
        surv.append(dyn.survival_probability(state0, cur))
    ts, surv = np.asarray(ts), np.asarray(surv)
    with open(args.out, "w") as fh:
        fh.write("t,survival,exponential_envelope\n")
        for t, s in zip(ts, surv):
            fh.write(f"{t:.17g},{s:.17g},{np.exp(2 * w.imag * t):.17g}\n")
    a, b = args.fit_window
    m = (ts >= a) & (ts <= b)
    slope = np.polyfit(ts[m], np.log(surv[m]), 1)[0]
    print(f"fitted slope {slope:.4f}  vs  2 Im omega* = {2 * w.imag:.4f} "
          f"(ratio {slope / (2 * w.imag):.3f})")
    print(args.out)


if __name__ == "__main__":
    main()
