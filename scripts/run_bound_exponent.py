#!/usr/bin/env python3
"""Negative eigenvalue of the 1D log-scaled inclusion vs the power law.

For Omega pi c / (g^2 s0 |B1|) > 1 the small negative eigenvalue follows
omega(eps) ~ -c eps^p.  This script locates it by the Birman-Schwinger
root finder on an eps sweep, every eps on one unit-domain rule, and prints
the fitted exponent next to the predicted one.

    python scripts/run_bound_exponent.py --s0 0.7853981633974483
"""

import argparse
import sys

import numpy as np

from photon_resonance import asymptotics, boundstates as bs
from photon_resonance.nystrom import PhysicalParams, QuadratureRule


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--s0", type=float, default=np.pi / 4)
    ap.add_argument("--omega-a", type=float, default=1.0)
    ap.add_argument("--eps", type=float, nargs="+",
                    default=[1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
    ap.add_argument("--nodes", type=int, default=40)
    ap.add_argument("--out", default="bound_exponent.csv")
    args = ap.parse_args()

    p_pred = asymptotics.bound_state_exponent_1d(
        PhysicalParams(d=1, c=1.0, g=1.0, omega_a=args.omega_a,
                       epsilon=args.eps[0], s0=args.s0))
    rule = QuadratureRule.make(1.0, n_radial=args.nodes)  # shared by every eps
    rows = []
    for eps in args.eps:
        params = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=args.omega_a,
                                epsilon=eps, s0=args.s0)
        w = bs.solve_bound_state(params, 1, rule).omega
        rows.append((eps, w))
        print(f"eps = {eps:.1e}: omega* = {w:.6e}", file=sys.stderr)
    slope = np.polyfit(np.log([r[0] for r in rows]),
                       np.log([-r[1] for r in rows]), 1)[0]
    with open(args.out, "w") as fh:
        fh.write("epsilon,omega_star,power_law\n")
        for eps, w in rows:
            fh.write(f"{eps:.17g},{w:.17g},{-eps**p_pred:.17g}\n")
    print(f"fitted exponent {slope:.4f}  vs  predicted p = {p_pred:.4f}")
    print(args.out)


if __name__ == "__main__":
    main()
