"""Configuration-driven command line runner.

``photon-resonance <experiment> --config <file> [--out <dir>]``

Experiments: greens-table, resonances, trace-epsilon, bound-states,
asymptotics-compare, dynamics.  Each run writes one CSV with a fixed
column schema plus a JSON manifest recording every resolved parameter
of the sections its experiment reads (defaults included), the library
version, the node count of the rule the run solved on (``rule_nodes``)
and per-mode ``diagnostics`` (`RunConfig`).  Floats are written with 17
significant digits.  A root is converged only to |f| <= ``muller_tol``, so
the trailing digits of a weakly damped imaginary part depend on round-off:
output is byte-identical only for a fixed config, code version and BLAS.
At the shipped N (32 and 48) it does not depend on the BLAS thread count
either; eigvalsh goes threaded from N = 96, and at N = 384 one thread
against the default moved omega by up to 1.2e-15 relative and
``residual`` by 2.7 %.

Config files are plain text: top-level ``key = value`` lines plus
``[section]`` blocks; unknown sections or keys are rejected with the
offending line number, and so is a section that neither the run's
experiment nor the config's own reads.  ``#`` starts a comment.  Every
section and key is declared once, in ``_SCHEMA``.  ``bound-states`` solves
the density of ``[bound_states]`` and ignores ``[params]`` epsilon, s0 and
rho0.  Exit codes: 0 success, 1 configuration error (a greens-table entry
outside the Green's function's domain included), 2 solver failure
(non-convergence, LinAlgError, NystromError, EigensolverError or
BoundStateNotFound; partial results are flushed first).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__, asymptotics, boundstates, dynamics, eigensolver, greens, nystrom


class ConfigError(ValueError):
    pass


class SolverFailure(RuntimeError):
    pass


SOLVER_ERRORS = (np.linalg.LinAlgError, nystrom.NystromError)


# ----------------------------------------------------------------------
# strict key-value config parsing
# ----------------------------------------------------------------------

def _list_of(item):
    return lambda raw: [item(x) for x in raw.split(",") if x.strip()]


def _positive(val):
    if val <= 0:
        return f"must be positive, got {val}"


def _at_least_8(val):
    if val < 8:
        return f"must be at least 8, got {val}"


def _decreasing_positive(val):
    if any(e <= 0 for e in val):
        return "entries must be positive"
    if any(b >= a for a, b in zip(val, val[1:])):
        return "must be strictly decreasing"


# section -> key -> (parser, default, check); '' is the top level.  A check
# returns its complaint about a parsed value, or None.  [params] has no
# defaults here: nystrom.PhysicalParams decides them.
_SCHEMA = {
    "": {"experiment": (str, None, None), "out_dir": (str, "out", None)},
    "params": {"d": (int, None, None), "c": (float, None, _positive),
               "g": (float, None, _positive), "omega_a": (float, None, None),
               "epsilon": (float, None, _positive), "s0": (float, None, _positive),
               "rho0": (float, None, _positive)},
    "numerics": {"radial_nodes": (int, 64, _at_least_8),
                 "muller_tol": (float, 1e-10, _positive),
                 "max_iter": (int, 50, _positive), "n_modes": (int, 5, _positive),
                 "mode_index": (int, 1, _positive),
                 "epsilon_grid": (_list_of(float), None, _decreasing_positive)},
    "greens": {"dims": (_list_of(int), [1, 2, 3], None),
               "k_values": (_list_of(lambda x: complex(x.replace(" ", ""))), [-1.0 + 0j], None),
               "r_values": (_list_of(float), [0.5, 1.0, 2.0], None),
               "branch": (str, "negative", None)},
    "bound_states": {"rho0": (float, 1.0, _positive), "half_width": (float, 1.0, _positive),
                     "modes": (int, 1, _positive)},
    "dynamics": {"grid_points": (int, 8192, _positive), "box_length": (float, 24.0, _positive),
                 "dt": (float, 1e-3, _positive), "t_final": (float, 10.0, _positive),
                 "sample_every": (int, 100, _positive),
                 "window_halfwidth": (float, 0.5, _positive),
                 "init_kind": (str, "atomic-bump", None),
                 "packet_center": (float, -4.0, None), "packet_width": (float, 0.5, None),
                 "packet_momentum": (float, 3.0, None)},
    "asymptotics": {"approximation": (str, "expansion", None)},
}


def parse_config(path):
    """Strict parser; returns {section: {key: value}} with '' for top level."""
    out = {"": {}}
    section = ""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
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
        if key not in _SCHEMA[section]:
            loc = f"[{section}]" if section else "top level"
            raise ConfigError(f"{where}: unknown key {key!r} in {loc}")
        if key in out.setdefault(section, {}):
            raise ConfigError(f"{where}: duplicate key {key!r}")
        parser, _, check = _SCHEMA[section][key]
        try:
            val = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: cannot parse value {raw!r} ({exc})") from None
        complaint = check and check(val)
        if complaint:
            raise ConfigError(f"{where}: {key} {complaint}")
        out[section][key] = val
    return out


@dataclass
class RunConfig:
    """Fully resolved run description: the sections the experiment reads
    (`_EXPERIMENTS`), defaults filled in, in `sections`."""

    experiment: str
    out_dir: str
    params: nystrom.PhysicalParams | None
    sections: dict
    # set by the run: the node count of the rule it solves on, which can
    # exceed numerics.radial_nodes, as every panel of a rule gets at least
    # 6 nodes (make(R, n) has 30 for n <= 30)
    rule_nodes: int | None = None
    # set by the run, keyed by mode: a bound-state solve's largest operator
    # asymmetry ("asymmetry"), a trace's continuity breaks as eps values
    # ("continuity_breaks")
    diagnostics: dict = field(default_factory=dict)

    def manifest(self):
        blocks = dict(self.sections)
        if "greens" in blocks:  # complex k has no JSON form: its lists are recorded as strings
            blocks["greens"] = {k: [str(v) for v in vs] if isinstance(vs, list) else vs
                                for k, vs in blocks["greens"].items()}
        return {"version": __version__, "experiment": self.experiment,
                "out_dir": self.out_dir, "rule_nodes": self.rule_nodes,
                "diagnostics": self.diagnostics,
                "params": None if self.params is None else asdict(self.params), **blocks}


def resolve_config(parsed, experiment=None, out_override=None):
    top = parsed.get("", {})
    exp = experiment or top.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown or missing experiment {exp!r}; "
                          f"choose from {', '.join(EXPERIMENTS)}")
    params = None
    if parsed.get("params"):
        try:
            params = nystrom.PhysicalParams(**parsed["params"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[params]: {exc}") from None
    elif exp != "greens-table":
        raise ConfigError(f"experiment {exp} requires a [params] section")
    # a config may be run as another experiment: the sections of its own are allowed
    read = {name for e in (exp, top.get("experiment")) if e in _EXPERIMENTS
            for name in _EXPERIMENTS[e][1]}
    unread = [f"[{name}]" for name in parsed if name not in ("", "params", *read)]
    if unread:
        raise ConfigError(f"experiment {exp} does not read {', '.join(unread)}")
    sections = {name: {key: parsed.get(name, {}).get(key, default)
                       for key, (_, default, _) in _SCHEMA[name].items()}
                for name in _EXPERIMENTS[exp][1]}
    out_dir = out_override or top.get("out_dir") or _SCHEMA[""]["out_dir"][1]
    return RunConfig(exp, out_dir, params, sections)


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
    blk = cfg.sections["greens"]
    try:
        branch = greens.Branch(blk["branch"])
    except ValueError:
        raise ConfigError(f"[greens]: unknown branch {blk['branch']!r}") from None
    rows = []
    for d in blk["dims"]:
        for k in blk["k_values"]:
            for r in blk["r_values"]:
                try:  # k = 0 is the zero branch's, whatever the branch
                    wave = greens.WaveNumber.zero() if k == 0 else greens.WaveNumber(k, branch)
                    val = greens.green(d, wave, float(r))
                except greens.GreensDomainError as exc:
                    raise ConfigError(f"[greens]: d = {d}, k = {k}, r = {r}: {exc}") from None
                rows.append((d, k.real, k.imag, float(r), val.real, val.imag))
    return rows


def _unit_rule(cfg, count_key, section="numerics"):
    """The run's one unit-domain rule, for every eps and operator, once
    section.count_key is checked against the modes of the run's operator:
    one per rule node in 2D and 3D (at least radial_nodes: every panel gets
    at least 6); in 1D one for the limiting operator (rank one) and two per
    rule node for the K_omega of a bound-state run (its parity blocks)."""
    n, nodes = cfg.sections[section][count_key], cfg.sections["numerics"]["radial_nodes"]
    rule = nystrom.QuadratureRule.make(1.0, n_radial=nodes)
    size, d, bound = len(rule.nodes), cfg.params.d, cfg.experiment == "bound-states"
    modes = (2 * size if bound else 1) if d == 1 else size
    if n > modes:
        raise ConfigError(f"{section}.{count_key} = {n} exceeds the {modes} "
                          f"{'K_omega' if bound else 'limiting'} modes of d = {d}: the rule of "
                          f"numerics.radial_nodes = {nodes} has {size} nodes")
    cfg.rule_nodes = size
    return rule


def _run_resonances(cfg):
    num = cfg.sections["numerics"]
    res = eigensolver.find_resonances(cfg.params, num["n_modes"], _unit_rule(cfg, "n_modes"),
                                      tol=num["muller_tol"], max_iter=num["max_iter"])
    rows = [(j, r.omega.real, r.omega.imag, r.residual, r.iterations)
            for j, r in enumerate(res, start=1)]
    if any(not r.converged for r in res):
        raise SolverFailure(rows)
    return rows


def _trace(cfg, modes, grid, rule):
    num = cfg.sections["numerics"]
    traces = eigensolver.trace_in_epsilon(
        cfg.params, modes, grid, rule, tol=num["muller_tol"], max_iter=num["max_iter"])
    cfg.diagnostics["continuity_breaks"] = {
        tr.mode_index: [tr.epsilons[i] for i in tr.continuity_breaks] for tr in traces}
    return traces


def _run_trace(cfg):
    num = cfg.sections["numerics"]
    grid = num["epsilon_grid"]
    if not grid:
        raise ConfigError("trace-epsilon requires numerics.epsilon_grid")
    traces = _trace(cfg, range(1, num["n_modes"] + 1), grid, _unit_rule(cfg, "n_modes"))
    return [(tr.mode_index, e, r.omega.real, r.omega.imag)
            for tr in traces for e, r in zip(tr.epsilons, tr.results)]


def _run_bound_states(cfg):
    blk = cfg.sections["bound_states"]
    radius = boundstates.equal_volume_radius(cfg.params.d, blk["half_width"])
    params = replace(cfg.params, epsilon=radius, rho0=blk["rho0"], s0=None)
    rule = _unit_rule(cfg, "modes", "bound_states")  # every mode solves on it
    rows = []
    failures = False
    asymmetry = cfg.diagnostics["asymmetry"] = {}
    for n in range(1, blk["modes"] + 1):
        try:
            st = boundstates.solve_bound_state(params, n, rule)
        except (boundstates.BoundStateNotFound, *SOLVER_ERRORS) as exc:
            print(f"solver failure: mode {n}: {exc}", file=sys.stderr)
            failures = True
            continue
        rows.append((n, st.omega, st.mu))
        asymmetry[n] = st.asymmetry
    if failures:
        raise SolverFailure(rows)
    return rows


def _run_asymptotics_compare(cfg):
    grid = cfg.sections["numerics"]["epsilon_grid"]
    if not grid:
        raise ConfigError("asymptotics-compare requires numerics.epsilon_grid")
    p = cfg.params
    j = cfg.sections["numerics"]["mode_index"]
    kind = cfg.sections["asymptotics"]["approximation"]
    if kind not in ("expansion", "sphere"):
        raise ConfigError(f"[asymptotics]: unknown approximation {kind!r}")
    rule = _unit_rule(cfg, "mode_index")
    mode = None
    if p.d in (2, 3):
        mode = asymptotics.limiting_modes(p, j, rule)[j - 1]
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

    [trace] = _trace(cfg, [j], grid, rule)
    rows = []
    for e, r in zip(trace.epsilons, trace.results):
        a = asym_at(e)
        rows.append((e, r.omega.real, r.omega.imag, a.real, a.imag))
    return rows


def _run_dynamics(cfg):
    blk = cfg.sections["dynamics"]
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


# experiment -> (runner, the config sections it reads and records, CSV columns)
_EXPERIMENTS = {
    "greens-table": (_run_greens_table, ("greens",), ("d", "re_k", "im_k", "r", "re_G", "im_G")),
    "resonances": (_run_resonances, ("numerics",),
                   ("j", "re_omega", "im_omega", "residual", "iterations")),
    "trace-epsilon": (_run_trace, ("numerics",), ("j", "epsilon", "re_omega", "im_omega")),
    "bound-states": (_run_bound_states, ("numerics", "bound_states"), ("mode", "omega", "mu_check")),
    "asymptotics-compare": (_run_asymptotics_compare, ("numerics", "asymptotics"),
                            ("epsilon", "re_num", "im_num", "re_asym", "im_asym")),
    "dynamics": (_run_dynamics, ("dynamics",), ("t", "mass", "window_mass", "survival")),
}
CSV_SCHEMAS = {name: columns for name, (_, _, columns) in _EXPERIMENTS.items()}
EXPERIMENTS = tuple(CSV_SCHEMAS)


def run(cfg: RunConfig):
    """Execute one experiment; returns (exit_code, csv_path)."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, f"{cfg.experiment}.csv")
    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    status = 0
    runner, _, columns = _EXPERIMENTS[cfg.experiment]
    try:
        rows = runner(cfg)
    except SolverFailure as exc:
        rows = exc.args[0] if exc.args else []
        status = 2
    except asymptotics.AsymptoticsError as exc:
        raise ConfigError(str(exc)) from None
    except (eigensolver.EigensolverError, boundstates.BoundStateNotFound, *SOLVER_ERRORS) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        rows = []
        status = 2
    write_csv(csv_path, columns, rows)
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
        status, csv_path = run(resolve_config(parse_config(args.config), args.experiment, args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(csv_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
