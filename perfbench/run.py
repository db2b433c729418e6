"""Benchmark of the photon-resonance CLI: time to a correct answer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (each one committed config, run through ``cli.run``, the entry
point of the ``photon-resonance`` command):

  resonances-3d    configs/resonances_3d.cfg: five 3D resonances by Muller
                   on one quadrature rule; the outgoing branch evaluates E1
                   of complex argument and every build reuses one rule.
  bound-states-1d  configs/bound_states_1d.cfg: one 1D bound state by the
                   bracket scan and secant on mu_n(omega) = 1; the real
                   negative branch, the interval rule and eigvalsh, and no
                   Muller.
  trace-2d         perfbench/configs/trace_2d.cfg: 2D modes 1-2 followed
                   along eps = 0.2, 0.1; the only Bessel/Hankel/Struve path,
                   no E1, and a fresh rule per eps.

The load is a closed loop with one client: solves run one after another,
each in a fresh process (``solve.py``), until ``--seconds`` have passed,
because every CLI invocation is a fresh process and the package's
in-process memo tables would otherwise flatter repeated solves.  Every
solve's CSV is checked against the pinned frequencies in ``pins.py``; a
solve fails when the CLI exits non-zero or any check misses.

The inputs are the committed configs for every seed: the pins are
reference values for exactly those inputs.  ``--seed`` only labels the
run's output directory and record.  BLAS thread variables are left as the
caller set them, so the program runs as users run it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the medians over the run's
solves (``--trace 0``), or the per-layer figures of one traced solve plus
the tracing overhead against the untraced solves of the same run
(``--trace 1``).  A readable summary, with the error rate and the
environment, goes to standard error; the full record, spans included, to
``perfbench/out/<workload>-seed<seed>/``.

Exits 2 without a result when the package or a config is absent.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pins  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {
    "resonances-3d": "configs/resonances_3d.cfg",
    "bound-states-1d": "configs/bound_states_1d.cfg",
    "trace-2d": "perfbench/configs/trace_2d.cfg",
}

END_TO_END = {  # name -> unit
    "solve_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

RUN_LIMIT_S = 170.0  # a run, its last solve included, ends within this
SETUP_FAILED = 3  # exit status of solve.py when the package cannot be set up
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def solve(workload, out_dir, spans_path, time_left):
    """One solve in a fresh process; returns its record with the pin check."""
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "solve.py"),
           "--config", os.path.join(ROOT, WORKLOADS[workload]), "--out", out_dir]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(time_left, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": ["solve timed out"], "max_rel_err": float("inf")}
    if proc.returncode == SETUP_FAILED:
        raise HarnessError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "max_rel_err": float("inf"),
                "problems": [f"solve.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    record = json.loads(lines[-1])
    problems = [] if record["status"] == 0 else [f"CLI exit status {record['status']}"]
    if record["csv"]:
        ok, worst, pin_problems = pins.check(workload, record["csv"])
        problems += pin_problems
    else:
        worst = float("inf")
    record.update(ok=not problems, max_rel_err=worst, problems=problems)
    return record


def environment(seed):
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "photon_resonance")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="photon-resonance CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "photon_resonance", "cli.py")):
        raise HarnessError(f"no photon_resonance package under {ROOT}/src")
    config = os.path.join(ROOT, WORKLOADS[args.workload])
    if not os.path.isfile(config):
        raise HarnessError(f"missing config {config}")
    run_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)

    def time_left():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    traced = None
    if args.trace:
        spans_path = os.path.join(run_dir, "spans.json")
        traced = solve(args.workload, os.path.join(run_dir, "traced"), spans_path, time_left())
    # start another solve while it is expected to end nearer the window's
    # end than stopping now would, so that a run lasts about --seconds
    records, walls = [], []
    while not records or (time.perf_counter() - start
                          + statistics.median(walls) / 2 < args.seconds):
        began = time.perf_counter()
        records.append(solve(args.workload, os.path.join(run_dir, f"solve-{len(records)}"),
                             None, time_left()))
        walls.append(time.perf_counter() - began)
    everything = records + ([traced] if traced else [])
    failed = sum(not r["ok"] for r in everything)

    timed = [r for r in records if "solve_s" in r] or [{k: float("nan") for k in END_TO_END}]
    medians = {k: statistics.median(r[k] for r in timed) for k in END_TO_END if k != "success_rate"}
    medians["success_rate"] = 1.0 - failed / len(everything)
    if args.trace:
        layers = dict(traced.get("layers") or dict.fromkeys(tracing.PER_LAYER))
        overhead = traced["solve_s"] - medians["solve_s"] if "solve_s" in traced else None
        layers["cli.trace_overhead_s"] = overhead
        layers["pins.max_rel_err"] = max(r["max_rel_err"] for r in everything)
        units = {k: v[0] for k, v in tracing.PER_LAYER.items()}
        units.update({"cli.trace_overhead_s": "s", "pins.max_rel_err": "ratio"})
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in medians.items()}

    env = environment(args.seed)
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, "environment": env,
                   "solves": records, "traced": traced, "metrics": metrics}, fh, indent=1)
    for r in everything:
        for p in r["problems"]:
            print(f"FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(everything)} solves, {failed} failed, "
          f"error_rate {failed / len(everything):.3g}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"  {k:36s} {m['value']!s:>24} {m['unit']}", file=sys.stderr)
    print(f"  environment {json.dumps(env)}", file=sys.stderr)
    for m in metrics.values():  # JSON has no Infinity or NaN
        if m["value"] is not None and not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({"correct": failed == 0, "attempted": len(everything),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(2)
