"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the pin checker rejects a frequency moved beyond its tolerance,
that traced solves repeat their counts exactly, that span self times are
consistent, that a vanished hook only blanks its own layer, that
BENCHMARK.json lists what run.py reports, and that run.py refuses to
report without the package.  Scratch files go under perfbench/out/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pins  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from photon_resonance import cli, nystrom  # noqa: E402

# small versions of the workloads, so that two traced solves of each are cheap
SMALL_CONFIGS = {
    "resonances-3d.cfg": """experiment = resonances
[params]
d = 3
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.1
s0 = 1.0
[numerics]
radial_nodes = 16
n_modes = 2
""",
    "trace-2d.cfg": """experiment = trace-epsilon
[params]
d = 2
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.2
s0 = 1.0
[numerics]
radial_nodes = 12
n_modes = 1
epsilon_grid = 0.2
""",
    "bound-states-1d.cfg": """experiment = bound-states
[params]
d = 1
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 1.0
rho0 = 1.0
[numerics]
radial_nodes = 16
[bound_states]
rho0 = 1.0
half_width = 1.0
modes = 1
""",
}


def scratch_dir():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "out"))


def write_pinned_csv(workload, path, omegas=None, residual=1e-14):
    """A CLI-format CSV holding the pinned values, or `omegas` by row key."""
    ref = {key: omega for key, (omega, _) in pins.PINS[workload].items()}
    ref.update(omegas or {})
    if workload == "resonances-3d":
        rows = [(j, w.real, w.imag, residual, 1) for j, w in sorted(ref.items())]
        schema = cli.CSV_SCHEMAS["resonances"]
    elif workload == "trace-2d":
        rows = [(j, e, w.real, w.imag) for (j, e), w in sorted(ref.items())]
        schema = cli.CSV_SCHEMAS["trace-epsilon"]
    else:
        rows = [(n, w.real, 1.0) for n, w in sorted(ref.items())]
        schema = cli.CSV_SCHEMAS["bound-states"]
    cli.write_csv(path, schema, rows)
    return path


def traced_solve(config, out_dir):
    spans = os.path.join(out_dir, "spans.json")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "solve.py"), "--config", config,
                           "--out", os.path.join(out_dir, "csv"), "--spans", spans],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), spans


class PinChecker(unittest.TestCase):
    def setUp(self):
        self.dir = scratch_dir()

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_pinned_values_pass_and_perturbed_values_fail(self):
        for workload, table in pins.PINS.items():
            ok, worst, problems = pins.check(
                workload, write_pinned_csv(workload, os.path.join(self.dir, "a.csv")))
            self.assertTrue(ok, problems)
            self.assertEqual(worst, 0.0)
            for key, (omega, tol) in table.items():
                for factor, expect in ((0.5, True), (2.0, False)):
                    moved = omega * (1 + factor * tol)
                    path = write_pinned_csv(workload, os.path.join(self.dir, "b.csv"), {key: moved})
                    ok, worst, problems = pins.check(workload, path)
                    self.assertEqual(ok, expect, (workload, key, factor, problems))

    def test_invariants_and_missing_rows_fail(self):
        path = os.path.join(self.dir, "c.csv")
        write_pinned_csv("resonances-3d", path, residual=1e-6)
        self.assertFalse(pins.check("resonances-3d", path)[0])
        (key, (omega, _)), = list(pins.PINS["trace-2d"].items())[:1]
        write_pinned_csv("trace-2d", path, {key: complex(omega.real, 1e-6)})
        self.assertFalse(pins.check("trace-2d", path)[0])
        cli.write_csv(path, cli.CSV_SCHEMAS["bound-states"], [])
        self.assertFalse(pins.check("bound-states-1d", path)[0])
        self.assertFalse(pins.check("bound-states-1d", os.path.join(self.dir, "absent.csv"))[0])


class TracedSolves(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = scratch_dir()
        cls.results = {}
        for name, text in SMALL_CONFIGS.items():
            config = os.path.join(cls.dir, name)
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
            cls.results[name] = [traced_solve(config, os.path.join(cls.dir, f"{name}-{i}"))
                                 for i in range(2)]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def test_solves_succeed_with_every_hook(self):
        for name, runs in self.results.items():
            for record, _ in runs:
                self.assertEqual(record["status"], 0, name)
                self.assertEqual(record["missing_hooks"], [], name)

    def test_counts_repeat_exactly(self):
        counts = [k for k, (unit, _, _) in tracing.PER_LAYER.items() if unit == "count"]
        for name, ((first, _), (second, _)) in self.results.items():
            for k in counts:
                self.assertEqual(first["layers"][k], second["layers"][k], (name, k))
        layers = {name: runs[0][0]["layers"] for name, runs in self.results.items()}
        self.assertGreater(layers["resonances-3d.cfg"]["eigensolver.f_evals"], 0)
        self.assertGreater(layers["resonances-3d.cfg"]["specfun.e1.points"], 0)
        self.assertGreater(layers["trace-2d.cfg"]["specfun.struve.points"], 0)
        self.assertEqual(layers["trace-2d.cfg"]["specfun.e1.points"], 0)
        self.assertGreater(layers["bound-states-1d.cfg"]["boundstates.mu_evals"], 0)

    def test_self_times_are_nonnegative_and_within_the_run(self):
        for name, runs in self.results.items():
            for record, spans_path in runs:
                with open(spans_path, encoding="utf-8") as fh:
                    dump = json.load(fh)
                spans = [[s["name"], s["start"], s["end"], s["parent"], s["points"], None]
                         for s in dump["spans"]]
                self.assertEqual({s["solve"] for s in dump["spans"]}, {dump["solve"]})
                own = tracing.self_times(spans)
                self.assertGreaterEqual(min(own), -1e-9, name)
                self.assertLessEqual(sum(own), record["layers"]["cli.run.s"] + 1e-9, name)
                self.assertEqual(sum(s[0] == "cli.run" for s in spans), 1)


class Hooks(unittest.TestCase):
    def test_missing_name_blanks_only_its_layers(self):
        original, build = nystrom._jy0, nystrom.build_kernel_matrix
        del nystrom._jy0
        tracer = tracing.Tracer("missing")
        try:
            tracer.install()
            self.assertIsNot(nystrom.build_kernel_matrix, build)
        finally:
            tracer.uninstall()
            nystrom._jy0 = original
        self.assertIs(nystrom.build_kernel_matrix, build)
        self.assertEqual(tracer.missing, ["nystrom._jy0"])
        metrics = tracer.layer_metrics()
        self.assertIsNone(metrics["specfun.bessel.s"])
        self.assertIsNone(metrics["specfun.calls"])
        self.assertEqual(metrics["specfun.e1.s"], 0.0)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        per_layer = {k: (unit, better) for k, (unit, better, _) in tracing.PER_LAYER.items()}
        per_layer.update({"cli.trace_overhead_s": ("s", "lower"),
                          "pins.max_rel_err": ("ratio", "lower")})
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         per_layer)

    def test_refuses_without_the_package(self):
        bare = scratch_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "trace-2d",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
