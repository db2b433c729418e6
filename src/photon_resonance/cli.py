"""Configuration-driven command line runner.

``photon-resonance <experiment> --config <file> [--out <dir>]``

Experiments: greens-table, resonances, trace-epsilon, bound-states,
asymptotics-compare, dynamics.  Each run writes one CSV with a fixed
column schema plus a JSON manifest recording every resolved parameter
(defaults included) and the library version.  Floats are written with 17
significant digits so identical configs reproduce byte-identical output.

Config files are plain text: top-level ``key = value`` lines plus
``[section]`` blocks; unknown sections or keys are rejected with the
offending line number.  ``#`` starts a comment.  Exit codes: 0 success,
1 configuration error, 2 solver failure (non-convergence, LinAlgError or
NystromError; partial results are flushed first).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__, asymptotics, boundstates, dynamics, eigensolver, greens, nystrom

EXPERIMENTS = ("greens-table", "resonances", "trace-epsilon", "bound-states",
               "asymptotics-compare", "dynamics")

CSV_SCHEMAS = {
    "greens-table": ("d", "re_k", "im_k", "r", "re_G", "im_G"),
    "resonances": ("j", "re_omega", "im_omega", "residual", "iterations"),
    "trace-epsilon": ("j", "epsilon", "re_omega", "im_omega"),
    "bound-states": ("mode", "omega", "mu_check"),
    "asymptotics-compare": ("epsilon", "re_num", "im_num", "re_asym", "im_asym"),
    "dynamics": ("t", "mass", "window_mass", "survival"),
}


class ConfigError(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


SOLVER_ERRORS = (np.linalg.LinAlgError, nystrom.NystromError)


# ----------------------------------------------------------------------
# strict key-value config parsing
# ----------------------------------------------------------------------

_SCHEMA = {
    "": {"experiment": str, "out_dir": str},
    "params": {"d": int, "c": float, "g": float, "omega_a": float,
               "epsilon": float, "s0": float, "rho0": float},
    "numerics": {"radial_nodes": int, "muller_tol": float,
                 "max_iter": int, "n_modes": int, "mode_index": int,
                 "epsilon_grid": "floats"},
    "greens": {"dims": "ints", "k_values": "complexes", "r_values": "floats",
               "branch": str},
    "bound_states": {"rho0": float, "half_width": float, "center": float,
                     "modes": int},
    "dynamics": {"grid_points": int, "box_length": float, "dt": float,
                 "t_final": float, "sample_every": int,
                 "window_halfwidth": float, "init_kind": str,
                 "packet_center": float, "packet_width": float,
                 "packet_momentum": float},
    "asymptotics": {"approximation": str},
}

_DEFAULTS = {
    "out_dir": "out",
    "numerics": {"radial_nodes": 64, "muller_tol": 1e-10,
                 "max_iter": 50, "n_modes": 5, "mode_index": 1,
                 "epsilon_grid": None},
    "greens": {"dims": [1, 2, 3], "k_values": [-1.0 + 0j], "r_values": [0.5, 1.0, 2.0],
               "branch": "negative"},
    "bound_states": {"rho0": 1.0, "half_width": 1.0, "center": 0.0, "modes": 1},
    "dynamics": {"grid_points": 8192, "box_length": 24.0, "dt": 1e-3,
                 "t_final": 10.0, "sample_every": 100, "window_halfwidth": 0.5,
                 "init_kind": "atomic-bump", "packet_center": -4.0,
                 "packet_width": 0.5, "packet_momentum": 3.0},
    "asymptotics": {"approximation": "expansion"},
}


# per-key value constraints checked at parse time, so violations carry the line
_POSITIVE_KEYS = {
    ("params", "c"), ("params", "g"), ("params", "epsilon"), ("params", "s0"),
    ("params", "rho0"), ("numerics", "muller_tol"), ("numerics", "n_modes"),
    ("numerics", "mode_index"), ("numerics", "max_iter"),
    ("bound_states", "rho0"), ("bound_states", "half_width"), ("bound_states", "modes"),
    ("dynamics", "grid_points"), ("dynamics", "box_length"), ("dynamics", "dt"),
    ("dynamics", "t_final"), ("dynamics", "sample_every"), ("dynamics", "window_halfwidth"),
}


def _convert(raw, kind, where, section, key):
    try:
        if kind is str:
            val = raw
        elif kind is int:
            val = int(raw)
        elif kind is float:
            val = float(raw)
        elif kind == "ints":
            val = [int(x) for x in raw.split(",") if x.strip()]
        elif kind == "floats":
            val = [float(x) for x in raw.split(",") if x.strip()]
        elif kind == "complexes":
            val = [complex(x.replace(" ", "")) for x in raw.split(",") if x.strip()]
        else:
            raise ConfigError(f"{where}: unknown value kind {kind}")
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse value {raw!r} ({exc})") from None
    if (section, key) in _POSITIVE_KEYS and val <= 0:
        raise ConfigError(f"{where}: {key} must be positive, got {val}")
    if (section, key) == ("numerics", "radial_nodes") and val < 8:
        raise ConfigError(f"{where}: radial_nodes must be at least 8, got {val}")
    if (section, key) == ("numerics", "epsilon_grid"):
        if any(e <= 0 for e in val):
            raise ConfigError(f"{where}: epsilon_grid entries must be positive")
        if any(b >= a for a, b in zip(val, val[1:])):
            raise ConfigError(f"{where}: epsilon_grid must be strictly decreasing")
    return val


def parse_config(path):
    """Strict parser; returns {section: {key: value}} with '' for top level."""
    out = {"": {}}
    section = ""
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        where = f"{path}:{lineno}"
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _SCHEMA or section == "":
                raise ConfigError(f"{where}: unknown section [{section}]")
            out.setdefault(section, {})
            continue
        if "=" not in body:
            raise ConfigError(f"{where}: expected key = value")
        key, raw = (s.strip() for s in body.split("=", 1))
        schema = _SCHEMA[section]
        if key not in schema:
            loc = f"[{section}]" if section else "top level"
            raise ConfigError(f"{where}: unknown key {key!r} in {loc}")
        if key in out.setdefault(section, {}):
            raise ConfigError(f"{where}: duplicate key {key!r}")
        out[section][key] = _convert(raw, schema[key], where, section, key)
    return out


@dataclass
class RunConfig:
    """Fully resolved run description (defaults filled in)."""

    experiment: str
    out_dir: str
    params: nystrom.PhysicalParams | None
    numerics: dict
    greens_block: dict = field(default_factory=dict)
    bound_block: dict = field(default_factory=dict)
    dynamics_block: dict = field(default_factory=dict)
    asym_block: dict = field(default_factory=dict)

    def manifest(self):
        p = None
        if self.params is not None:
            p = {"d": self.params.d, "c": self.params.c, "g": self.params.g,
                 "omega_a": self.params.omega_a, "epsilon": self.params.epsilon,
                 "s0": self.params.s0, "rho0": self.params.rho0}
        return {
            "version": __version__,
            "experiment": self.experiment,
            "out_dir": self.out_dir,
            "params": p,
            "numerics": self.numerics,
            "greens": {k: [str(v) for v in vs] if isinstance(vs, list) else vs
                       for k, vs in self.greens_block.items()},
            "bound_states": self.bound_block,
            "dynamics": self.dynamics_block,
            "asymptotics": self.asym_block,
        }


def resolve_config(parsed, experiment=None, out_override=None):
    top = parsed.get("", {})
    exp = experiment or top.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown or missing experiment {exp!r}; "
                          f"choose from {', '.join(EXPERIMENTS)}")
    numerics = dict(_DEFAULTS["numerics"])
    numerics.update(parsed.get("numerics", {}))
    params = None
    if "params" in parsed and parsed["params"]:
        try:
            params = nystrom.PhysicalParams(**parsed["params"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[params]: {exc}") from None
    elif exp != "greens-table":
        raise ConfigError(f"experiment {exp} requires a [params] section")
    blocks = {}
    for name in ("greens", "bound_states", "dynamics", "asymptotics"):
        blk = dict(_DEFAULTS.get(name, {}))
        blk.update(parsed.get(name, {}))
        blocks[name] = blk
    out_dir = out_override or top.get("out_dir") or _DEFAULTS["out_dir"]
    return RunConfig(exp, out_dir, params, numerics, blocks["greens"],
                     blocks["bound_states"], blocks["dynamics"], blocks["asymptotics"])


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ----------------------------------------------------------------------
# experiment runners (each returns rows; raises SolverFailure on trouble)
# ----------------------------------------------------------------------

def _run_greens_table(cfg):
    blk = cfg.greens_block
    try:
        branch = greens.Branch(blk["branch"])
    except ValueError:
        raise ConfigError(f"[greens]: unknown branch {blk['branch']!r}") from None
    rows = []
    for d in blk["dims"]:
        for k in blk["k_values"]:
            for r in blk["r_values"]:
                if branch is greens.Branch.ZERO or k == 0:
                    wave = greens.WaveNumber.zero()
                else:
                    wave = greens.WaveNumber(k, branch)
                val = greens.green(d, wave, float(r))
                rows.append((d, k.real, k.imag, float(r), val.real, val.imag))
    return rows


def _run_resonances(cfg):
    rule = nystrom.QuadratureRule.make(cfg.params.epsilon, n_radial=cfg.numerics["radial_nodes"])
    res = eigensolver.find_resonances(
        cfg.params, cfg.numerics["n_modes"], rule=rule,
        tol=cfg.numerics["muller_tol"], max_iter=cfg.numerics["max_iter"])
    rows = [(j, r.omega.real, r.omega.imag, r.residual, r.iterations)
            for j, r in enumerate(res, start=1)]
    if any(not r.converged for r in res):
        raise SolverFailure(rows)
    return rows


def _trace(cfg, modes, grid, limit=None):
    num = cfg.numerics
    return eigensolver.trace_in_epsilon(
        cfg.params, modes, grid, n_radial=num["radial_nodes"], tol=num["muller_tol"],
        max_iter=num["max_iter"], limit=limit)


def _run_trace(cfg):
    grid = cfg.numerics["epsilon_grid"]
    if not grid:
        raise ConfigError("trace-epsilon requires numerics.epsilon_grid")
    traces = _trace(cfg, range(1, cfg.numerics["n_modes"] + 1), grid)
    return [(tr.mode_index, e, r.omega.real, r.omega.imag)
            for tr in traces for e, r in zip(tr.epsilons, tr.results)]


def _run_bound_states(cfg):
    blk = cfg.bound_block
    prof = boundstates.DensityProfile.square(
        cfg.params.d, blk["rho0"], blk["half_width"], blk["center"])
    rows = []
    failures = False
    for n in range(1, blk["modes"] + 1):
        try:
            st = boundstates.solve_bound_state(
                prof, cfg.params, n, n_nodes=cfg.numerics["radial_nodes"])
        except (boundstates.BoundStateNotFound, *SOLVER_ERRORS) as exc:
            print(f"solver failure: mode {n}: {exc}", file=sys.stderr)
            failures = True
            continue
        rows.append((n, st.omega, st.mu))
    if failures:
        raise SolverFailure(rows)
    return rows


def _run_asymptotics_compare(cfg):
    grid = cfg.numerics["epsilon_grid"]
    if not grid:
        raise ConfigError("asymptotics-compare requires numerics.epsilon_grid")
    p = cfg.params
    j = cfg.numerics["mode_index"]
    kind = cfg.asym_block["approximation"]
    if kind not in ("expansion", "sphere"):
        raise ConfigError(f"[asymptotics]: unknown approximation {kind!r}")
    mode = limit = None
    if p.d in (2, 3):
        modes = asymptotics.limiting_modes(p, j)  # also the trace's seeds: one L0 build
        mode = modes[j - 1]
        limit = [m.omega_j for m in modes]
    else:
        # fail fast if the requested regime has no resonance expansion
        asymptotics.resonance_expansion_1d(p, grid[0])

    def asym_at(eps):
        pe = replace(p, epsilon=eps)
        if p.d == 1:
            return asymptotics.resonance_expansion_1d(pe, eps)
        if kind == "sphere":
            return asymptotics.sphere_lowest_mode_approx(pe, eps)
        if p.d == 2:
            return asymptotics.resonance_expansion_2d(mode, pe, eps)
        return asymptotics.resonance_expansion_3d(mode, pe, eps)

    [trace] = _trace(cfg, [j], grid, limit)
    rows = []
    for e, r in zip(trace.epsilons, trace.results):
        a = asym_at(e)
        rows.append((e, r.omega.real, r.omega.imag, a.real, a.imag))
    return rows


def _run_dynamics(cfg):
    blk = cfg.dynamics_block
    p = cfg.params
    n = blk["grid_points"]
    L = blk["box_length"]
    x = -0.5 * L + (L / n) * np.arange(n)
    if blk["init_kind"] == "atomic-bump":
        psi0 = np.zeros(n, dtype=complex)
        phi0 = np.where(np.abs(x) <= p.epsilon, 1.0, 0.0).astype(complex)
    elif blk["init_kind"] == "wave-packet":
        psi0 = np.exp(-((x - blk["packet_center"]) / blk["packet_width"]) ** 2
                      + 1j * blk["packet_momentum"] * x)
        phi0 = np.zeros(n, dtype=complex)
    else:
        raise ConfigError(f"[dynamics]: unknown init_kind {blk['init_kind']!r}")
    state0 = dynamics.FieldState(L, psi0, phi0, 0.0).normalized()
    dt = blk["dt"]
    chunk = blk["sample_every"]
    n_chunks = max(1, int(round(blk["t_final"] / (dt * chunk))))
    w = blk["window_halfwidth"]
    rows = [(0.0, state0.mass(), state0.window_mass(-w, w),
             dynamics.survival_probability(state0, state0))]
    cur = state0
    for _ in range(n_chunks):
        cur = dynamics.evolve(cur, dt, chunk, p)
        rows.append((cur.t, cur.mass(), cur.window_mass(-w, w),
                     dynamics.survival_probability(state0, cur)))
    return rows


def run(cfg: RunConfig):
    """Execute one experiment; returns (exit_code, csv_path)."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.csv")
    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    status = 0
    try:
        if cfg.experiment == "greens-table":
            rows = _run_greens_table(cfg)
        elif cfg.experiment == "resonances":
            rows = _run_resonances(cfg)
        elif cfg.experiment == "trace-epsilon":
            rows = _run_trace(cfg)
        elif cfg.experiment == "bound-states":
            rows = _run_bound_states(cfg)
        elif cfg.experiment == "asymptotics-compare":
            rows = _run_asymptotics_compare(cfg)
        else:
            rows = _run_dynamics(cfg)
    except SolverFailure as exc:
        rows = exc.args[0] if exc.args else []
        status = 2
    except asymptotics.AsymptoticsError as exc:
        raise ConfigError(str(exc)) from None
    except (eigensolver.EigensolverError, boundstates.BoundStateNotFound, *SOLVER_ERRORS) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        rows = []
        status = 2
    write_csv(csv_path, CSV_SCHEMAS[cfg.experiment], rows)
    manifest = cfg.manifest()
    manifest["output_csv"] = os.path.basename(csv_path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status, csv_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="photon-resonance",
        description="Photon bound-state and resonance experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(parse_config(args.config), args.experiment, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        status, csv_path = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(csv_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
