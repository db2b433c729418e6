"""One solve in a fresh process: the unit the benchmark times.

    python3 perfbench/solve.py --config CFG --out DIR [--spans FILE]

Imports the package from ``src/`` next to this directory, resolves the
config, runs ``cli.run`` once and prints one JSON line with the set-up
time, the solve's wall and CPU time, the process's peak resident memory
and the CLI exit status.  With ``--spans`` the public calls into each
module are wrapped first (see ``tracing.py``), the spans are written to
FILE and the per-layer figures are added to the line.

Exit status: 0 when the line was printed (whatever the CLI returned),
3 when the package cannot be imported or the config cannot be resolved.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)  # every thread of this process
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        from photon_resonance import cli
        cfg = cli.resolve_config(cli.parse_config(args.config), None, args.out)
    except (ImportError, ValueError) as exc:
        print(f"solve.py: cannot set up: {exc!r}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - _T0

    tracer = None
    if args.spans:
        sys.path.insert(0, HERE)
        import uuid

        import tracing
        tracer = tracing.Tracer(solve_id=uuid.uuid4().hex)
        tracer.install()

    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    try:
        status, csv_path = cli.run(cfg)
    except Exception:  # a crash inside the program is a failed solve, not a harness error
        traceback.print_exc()
        status, csv_path = -1, None
    solve_s = time.perf_counter() - wall0
    cpu_s = _cpu_seconds() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {"status": status, "csv": csv_path, "setup_s": setup_s,
              "solve_s": solve_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_kib * 1024 / 1e6}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.spans)
        record["layers"] = tracer.layer_metrics()
        record["missing_hooks"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
