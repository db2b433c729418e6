"""Reference frequencies each workload must reproduce, and their checker.

The values are the CSV output of the unoptimised solver for exactly the
committed inputs, to all 17 written digits.  Each relative tolerance is the
discretisation error of that solve, measured as the largest difference
between the N = 48 result and the same config at N = 96 (rounded up to two
digits):

    resonances-3d     1.95e-11 over the five modes      -> 2.0e-11
    bound-states-1d   8.03e-8                            -> 8.1e-8
    trace-2d mode 1   2.45e-9 (eps = 0.2, 0.1)           -> 2.5e-9
    trace-2d mode 2   3.13e-8 (eps = 0.2, 0.1)           -> 3.2e-8

A faster solver whose frequencies move by more than the discretisation error
has changed the answer, not just the cost.  Besides the pins, every
resonance must satisfy Im omega <= 1e-9 with residual <= 1e-8 (acceptance
criterion 5), and every bound state omega < 0 with |mu_check - 1| <= 1e-8.
"""

import csv

IM_SLACK = 1e-9
MAX_RESIDUAL = 1e-8
MAX_MU_DEFECT = 1e-8

# workload -> {row key: (reference omega, relative tolerance)}
PINS = {
    "resonances-3d": {
        1: (0.48070092782342377 - 0.0013848101967657395j, 2.0e-11),
        2: (0.80082153207503715 - 0.00017222328124339174j, 2.0e-11),
        3: (0.87736324070308214 - 4.4961143149217678e-05j, 2.0e-11),
        4: (0.91144735058879234 - 1.7636340243959653e-05j, 2.0e-11),
        5: (0.93071332826618192 - 8.6224645938089671e-06j, 2.0e-11),
    },
    "bound-states-1d": {
        1: (-0.22616455649596309 + 0j, 8.1e-8),
    },
    "trace-2d": {
        (1, 0.2): (0.090557806100417707 - 0.020938682378656443j, 2.5e-9),
        (1, 0.1): (0.1080400873392196 - 0.013941032061130041j, 2.5e-9),
        (2, 0.2): (0.75728266162566782 - 0.0030234698875568899j, 3.2e-8),
        (2, 0.1): (0.76255288606241045 - 0.0016321395040409534j, 3.2e-8),
    },
}


def _rows(csv_path):
    """Row key -> (omega, extra checks failed) for one CLI output file."""
    out = {}
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            problems = []
            if "mu_check" in row:  # bound-states
                key = int(row["mode"])
                omega = complex(float(row["omega"]))
                if not omega.real < 0:
                    problems.append(f"mode {key}: omega = {omega.real} is not below 0")
                if not abs(float(row["mu_check"]) - 1.0) <= MAX_MU_DEFECT:
                    problems.append(f"mode {key}: |mu_check - 1| > {MAX_MU_DEFECT}")
            else:  # resonances / trace-epsilon
                omega = complex(float(row["re_omega"]), float(row["im_omega"]))
                if "epsilon" in row:
                    key = (int(row["j"]), round(float(row["epsilon"]), 12))
                else:
                    key = int(row["j"])
                    if not float(row["residual"]) <= MAX_RESIDUAL:
                        problems.append(f"mode {key}: residual {row['residual']} > {MAX_RESIDUAL}")
                if not omega.imag <= IM_SLACK:
                    problems.append(f"{key}: Im omega = {omega.imag} > {IM_SLACK}")
            out[key] = (omega, problems)
    return out


def check(workload, csv_path):
    """Compare one solve's CSV with the pins.

    Returns (ok, largest relative error over the pinned rows, problems).
    A missing or unreadable file, a missing or extra row, a pin beyond its
    tolerance and any failed invariant each make ok False.
    """
    pins = PINS[workload]
    try:
        rows = _rows(csv_path)
    except (OSError, KeyError, ValueError) as exc:
        return False, float("inf"), [f"cannot read {csv_path}: {exc!r}"]
    problems = []
    if set(rows) != set(pins):
        problems.append(f"rows {sorted(rows, key=str)} differ from pinned {sorted(pins, key=str)}")
    worst = 0.0
    for key, (ref, tol) in pins.items():
        if key not in rows:
            worst = float("inf")
            continue
        omega, extra = rows[key]
        problems += extra
        err = abs(omega - ref) / abs(ref)
        if not err <= tol:  # also rejects NaN
            problems.append(f"{key}: omega = {omega} is {err:.3g} from the pin, tolerance {tol:g}")
        worst = max(worst, err) if err == err else float("inf")
    return not problems, worst, problems
