import gc
import glob
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from photon_resonance import asymptotics, boundstates, cli, dynamics, greens, nystrom
from photon_resonance.cli import ConfigError


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


GREENS_CFG = """
experiment = greens-table

[greens]
dims = 1,2,3
k_values = -1.0, -2.0
r_values = 0.5, 1.0
branch = negative
"""

RES_CFG = """
experiment = resonances

[params]
d = 3
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.1
s0 = 1.0

[numerics]
radial_nodes = 24
n_modes = 2
"""


def test_unknown_key_is_line_anchored(tmp_path):
    path = write_cfg(tmp_path, "experiment = resonances\nbogus = 3\n")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(path)
    assert ":2:" in str(exc.value)
    assert "bogus" in str(exc.value)


def test_parse_config_closes_the_file(tmp_path):
    path = write_cfg(tmp_path, GREENS_CFG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cli.parse_config(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_unknown_section_rejected(tmp_path):
    path = write_cfg(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(path)
    assert ":1:" in str(exc.value)


def test_duplicate_key_rejected(tmp_path):
    path = write_cfg(tmp_path, "[params]\nd = 3\nd = 2\n")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(path)
    assert "duplicate" in str(exc.value)


def test_negative_tolerance_exits_1_line_anchored(tmp_path, capsys):
    cfg = RES_CFG + "muller_tol = -1.0\n"
    path = write_cfg(tmp_path, cfg)
    code = cli.main(["resonances", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "muller_tol" in err
    lineno = cfg.splitlines().index("muller_tol = -1.0") + 1
    assert f":{lineno}:" in err


def test_nonconvergence_exits_2_with_partial_rows(tmp_path, monkeypatch):
    import numpy as np

    from photon_resonance import eigensolver

    good = eigensolver.SpectrumResult(0.5 - 1e-3j, np.ones(3), 1e-12, 4, 0.5 + 0j)
    bad = eigensolver.SpectrumResult(0.9 + 0j, np.array([]), float("nan"), 50,
                                     0.9 + 0j, converged=False)
    monkeypatch.setattr(cli.eigensolver, "find_resonances",
                        lambda *a, **kw: [good, bad])
    path = write_cfg(tmp_path, RES_CFG)
    out = str(tmp_path / "out")
    code = cli.main(["resonances", "--config", path, "--out", out])
    assert code == 2
    lines = Path(out, "resonances.csv").read_text().splitlines()
    assert len(lines) == 3  # header + both rows flushed before the failure exit


def test_missing_params_section(tmp_path):
    path = write_cfg(tmp_path, "experiment = resonances\n")
    with pytest.raises(ConfigError):
        cli.resolve_config(cli.parse_config(path))


def test_section_the_experiment_does_not_read_rejected(tmp_path):
    # a [bound_states] block in a resonances config is an error, not dropped
    path = write_cfg(tmp_path, RES_CFG + "\n[bound_states]\nmodes = 2\n")
    with pytest.raises(ConfigError, match=r"resonances does not read \[bound_states\]"):
        cli.resolve_config(cli.parse_config(path))
    assert cli.resolve_config(cli.parse_config(path), "bound-states").sections["bound_states"]["modes"] == 2


def test_greens_table_values_and_schema(tmp_path):
    path = write_cfg(tmp_path, GREENS_CFG)
    out = str(tmp_path / "out")
    code = cli.main(["greens-table", "--config", path, "--out", out])
    assert code == 0
    lines = Path(out, "greens-table.csv").read_text().splitlines()
    assert lines[0] == "d,re_k,im_k,r,re_G,im_G"
    assert len(lines) == 1 + 3 * 2 * 2
    first = lines[1].split(",")
    ref = greens.green(1, greens.WaveNumber.negative(-1.0), 0.5)
    assert float(first[4]) == pytest.approx(ref.real, rel=1e-15)
    assert float(first[5]) == 0.0


def test_unknown_greens_branch_exits_1(tmp_path, capsys):
    path = write_cfg(tmp_path, GREENS_CFG.replace("branch = negative", "branch = sideways"))
    code = cli.main(["greens-table", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "sideways" in capsys.readouterr().err


@pytest.mark.parametrize("branch, dims, k, r, what", (
    ("zero", "1", "-0.5", "1.0", "zero branch requires k = 0"),
    ("outgoing", "1", "-0.5", "1.0", "requires Re k > 0"),
    ("outgoing", "1", "1j", "1.0", "imaginary axis"),
    ("outgoing", "4", "0.5", "1.0", "dimension"),
    ("outgoing", "1", "0.5", "0.0", "radius"),
), ids=("k-off-the-zero-branch", "k-off-the-outgoing-branch", "imaginary-k", "d-4", "r-0"))
def test_greens_entry_outside_the_domain_exits_1(tmp_path, capsys, branch, dims, k, r, what):
    # every entry is built on the configured branch, and an entry that the
    # Green's function rejects is a config error naming d, k and r
    text = (f"experiment = greens-table\n[greens]\ndims = {dims}\nk_values = {k}\n"
            f"r_values = {r}\nbranch = {branch}\n")
    code = cli.main(["greens-table", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: [greens]: d = {dims}, k = {complex(k)}, r = {float(r)}: ")
    assert what in err


def test_greens_table_k_0_takes_the_zero_branch_on_any_branch(tmp_path):
    text = "experiment = greens-table\n[greens]\ndims = 2\nk_values = 0, 0.5\nr_values = 0.5\n"
    out = str(tmp_path / "o")
    assert cli.main(["greens-table", "--config", write_cfg(tmp_path, text + "branch = outgoing\n"),
                     "--out", out]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in Path(out, "greens-table.csv").read_text().splitlines()[1:]]
    for row, wave in zip(rows, (greens.WaveNumber.zero(), greens.WaveNumber.outgoing(0.5))):
        val = greens.green(2, wave, 0.5)
        assert row[1:] == [wave.k.real, wave.k.imag, 0.5, val.real, val.imag]


ASYMPTOTICS_CFG = """
experiment = asymptotics-compare

[params]
d = {d}
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.05
s0 = {s0}

[numerics]
radial_nodes = 32
epsilon_grid = 0.05, 0.02, 0.01
"""


@pytest.mark.parametrize("d, s0, gaps", ((2, 1.0, (7.1e-3, 2.9e-3, 1.5e-3)),
                                         (1, 0.3, (3.1e-2, 2.3e-2, 2.0e-2))))
def test_asymptotics_compare_below_three_dimensions(tmp_path, d, s0, gaps):
    # the asym columns are the d-dimensional expansion bit for bit, and the
    # solved resonance approaches it as eps falls
    out = str(tmp_path / "o")
    path = write_cfg(tmp_path, ASYMPTOTICS_CFG.format(d=d, s0=s0))
    assert cli.main(["asymptotics-compare", "--config", path, "--out", out]) == 0
    lines = Path(out, "asymptotics-compare.csv").read_text().splitlines()
    assert lines[0] == "epsilon,re_num,im_num,re_asym,im_asym"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    p = nystrom.PhysicalParams(d=d, c=1.0, g=1.0, omega_a=1.0, epsilon=0.05, s0=s0)
    if d == 2:
        mode = asymptotics.limiting_modes(p, 1, nystrom.QuadratureRule.make(1.0, n_radial=32))[0]
    got = []
    for eps, re_num, im_num, re_asym, im_asym in rows:
        pe = replace(p, epsilon=eps)
        want = (asymptotics.resonance_expansion_2d(mode, pe, eps) if d == 2
                else asymptotics.resonance_expansion_1d(pe, eps))
        assert (re_asym, im_asym) == (want.real, want.imag)
        got.append(abs(complex(re_num, im_num) - want))
    assert [row[0] for row in rows] == [0.05, 0.02, 0.01]
    assert got[0] > got[1] > got[2]
    assert got == pytest.approx(gaps, rel=0.05)


def test_determinism_byte_identical(tmp_path):
    path = write_cfg(tmp_path, GREENS_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cli.main(["greens-table", "--config", path, "--out", out1])
    cli.main(["greens-table", "--config", path, "--out", out2])
    c1 = Path(out1, "greens-table.csv").read_bytes()
    c2 = Path(out2, "greens-table.csv").read_bytes()
    assert c1 == c2


def test_manifest_records_defaults(tmp_path):
    path = write_cfg(tmp_path, RES_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["resonances", "--config", path, "--out", out]) == 0
    man = json.loads(Path(out, "manifest.json").read_text())
    assert man["version"]
    assert man["experiment"] == "resonances"
    # defaults the user never set are resolved and recorded
    assert man["numerics"]["muller_tol"] == 1e-10
    assert man["numerics"]["max_iter"] == 50
    assert "dynamics" not in man  # a section the run does not read
    assert man["params"]["epsilon"] == 0.1


@pytest.mark.parametrize("name, sections", [("bound_states_1d.cfg", {"numerics", "bound_states"}),
                                            ("greens_table.cfg", {"greens"})])
def test_manifest_records_only_the_sections_its_experiment_reads(name, sections, tmp_path):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", name)
    assert cli.run(cli.resolve_config(cli.parse_config(path), None, str(tmp_path)))[0] == 0
    man = json.loads(Path(tmp_path, "manifest.json").read_text())
    assert (set(cli._SCHEMA) - {"", "params"}) & set(man) == sections


def test_manifest_records_the_nodes_solved_on(tmp_path):
    # every panel of a rule gets at least 6 nodes: radial_nodes = 16 solves
    # the 1D bound state and resonances on the 30 nodes of make; no rule: null
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bound_states_1d.cfg")
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path / "out"))
    cfg.sections["numerics"]["radial_nodes"] = 16
    assert cli.run(cfg)[0] == 0
    man = json.loads(Path(tmp_path, "out", "manifest.json").read_text())
    assert (man["numerics"]["radial_nodes"], man["rule_nodes"]) == (16, 30)
    res = cli.resolve_config(cli.parse_config(write_cfg(tmp_path, RES_CFG)), None, str(tmp_path))
    for radial_nodes, nodes in ((16, 30), (64, 64)):
        res.sections["numerics"]["radial_nodes"] = radial_nodes
        assert len(cli._unit_rule(res, "n_modes").nodes) == res.manifest()["rule_nodes"] == nodes
    out = str(tmp_path / "greens")
    assert cli.main(["greens-table", "--config", write_cfg(tmp_path, GREENS_CFG), "--out", out]) == 0
    assert json.loads(Path(out, "manifest.json").read_text())["rule_nodes"] is None


def test_bound_states_builds_only_for_the_solve(tmp_path, monkeypatch):
    # mu_check comes from the solver's memo, not from one more build
    calls = {"all": 0, "solve": 0}
    build, solve = boundstates.build_bs_operator, boundstates.solve_bound_state

    def counted_build(*args, **kwargs):
        calls["all"] += 1
        return build(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        before = calls["all"]
        state = solve(*args, **kwargs)
        calls["solve"] += calls["all"] - before
        return state

    monkeypatch.setattr(boundstates, "build_bs_operator", counted_build)
    monkeypatch.setattr(boundstates, "solve_bound_state", counted_solve)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bound_states_1d.cfg")
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path / "out"))
    assert cli.run(cfg)[0] == 0
    assert calls["all"] == calls["solve"] == 8


def test_bound_states_1d_solve_evaluates_no_e1(tmp_path, monkeypatch):
    # the proven deep bracket end |omega| = 1 keeps |kappa| rho_max = 2 within
    # G1_SERIES_RADIUS, so every build of the solve is a moment sum
    points = []
    e1 = greens.exp_integral_e1

    def counted(z):
        points.append(np.size(z))
        return e1(z)

    monkeypatch.setattr(greens, "exp_integral_e1", counted)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bound_states_1d.cfg")
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path / "out"))
    assert cli.run(cfg)[0] == 0
    assert points == []


def test_asymptotics_compare_numbers_are_the_trace(tmp_path):
    # re_num, im_num are, as written, the roots of a trace-epsilon run of the
    # same mode on the same grid
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "asymptotics_compare_3d.cfg")
    parsed = cli.parse_config(path)
    compare = cli.resolve_config(parsed, None, str(tmp_path / "compare"))
    trace = cli.resolve_config(parsed, "trace-epsilon", str(tmp_path / "trace"))
    assert compare.sections["numerics"]["mode_index"] == 1
    trace.sections["numerics"]["n_modes"] = 1

    def rows(cfg):
        status, csv_path = cli.run(cfg)
        assert status == 0
        return [ln.split(",") for ln in Path(csv_path).read_text().splitlines()[1:]]

    traced = rows(trace)
    assert [r[0] for r in traced] == ["1"] * len(compare.sections["numerics"]["epsilon_grid"])
    assert [r[:3] for r in rows(compare)] == [r[1:] for r in traced]


def test_asymptotics_compare_sphere_approximation(tmp_path):
    cfg = """
experiment = asymptotics-compare

[params]
d = 3
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.05
s0 = 1.0

[numerics]
radial_nodes = 24
epsilon_grid = 0.05, 0.02

[asymptotics]
approximation = sphere
"""
    path = write_cfg(tmp_path, cfg)
    resolved = cli.resolve_config(cli.parse_config(path), None, str(tmp_path / "out"))
    status, csv_path = cli.run(resolved)
    assert status == 0
    lines = Path(csv_path).read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        eps, _, _, re_asym, im_asym = line.split(",")
        want = asymptotics.sphere_lowest_mode_approx(
            replace(resolved.params, epsilon=float(eps)), float(eps))
        assert (re_asym, im_asym) == (f"{want.real:.17g}", f"{want.imag:.17g}")


def test_resonances_csv(tmp_path):
    path = write_cfg(tmp_path, RES_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["resonances", "--config", path, "--out", out]) == 0
    lines = Path(out, "resonances.csv").read_text().splitlines()
    assert lines[0] == "j,re_omega,im_omega,residual,iterations"
    assert len(lines) == 3
    rows = [ln.split(",") for ln in lines[1:]]
    assert float(rows[0][1]) < float(rows[1][1]) < 1.0
    assert all(float(r[2]) <= 1e-9 for r in rows)


def test_dynamics_csv_mass_conserved(tmp_path):
    cfg = """
experiment = dynamics

[params]
d = 1
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.25
s0 = 0.5

[dynamics]
grid_points = 1024
box_length = 16.0
dt = 2e-3
t_final = 1.0
sample_every = 100
window_halfwidth = 0.5
"""
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["dynamics", "--config", path, "--out", out]) == 0
    lines = Path(out, "dynamics.csv").read_text().splitlines()
    assert lines[0] == "t,mass,window_mass,survival"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape[0] == 6
    assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-9
    assert rows[0, 3] == pytest.approx(1.0)


def test_dynamics_wave_packet(tmp_path):
    cfg = """
experiment = dynamics

[params]
d = 1
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.25
s0 = 0.5

[dynamics]
grid_points = 1024
box_length = 16.0
dt = 2e-3
t_final = 1.0
sample_every = 100
init_kind = wave-packet
"""
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["dynamics", "--config", path, "--out", out]) == 0
    lines = Path(out, "dynamics.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape[0] == 6
    assert np.max(np.abs(rows[:, 1] - 1.0)) <= 1e-12  # 3.4e-14 measured: round-off


DYN_CFG = """
experiment = dynamics

[params]
d = 1
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.25
s0 = 0.5

[dynamics]
grid_points = 64
box_length = 16.0
dt = 2e-3
t_final = 0.2
sample_every = 100
"""


def test_dynamics_in_two_dimensions_exits_1(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, DYN_CFG.replace("d = 1", "d = 2"))
    assert cli.main(["dynamics", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: [params]: dynamics evolves d = 1 only")
    assert not out.exists()


def test_dynamics_mass_drift_abort_exits_2_with_a_manifest(tmp_path, monkeypatch, capsys):
    def drift(*args, **kwargs):
        raise dynamics.DynamicsError("mass drift 1.000e-03 exceeds 1.0e-06")

    monkeypatch.setattr(dynamics, "evolve", drift)
    out = tmp_path / "o"
    assert cli.main(["dynamics", "--config", write_cfg(tmp_path, DYN_CFG), "--out", str(out)]) == 2
    assert "solver failure: mass drift" in capsys.readouterr().err
    assert (out / "dynamics.csv").read_text().splitlines() == ["t,mass,window_mass,survival"]
    assert json.loads((out / "manifest.json").read_text())["experiment"] == "dynamics"


@pytest.mark.parametrize("experiment, cfg, key, bad, complaint", (
    ("greens-table", GREENS_CFG.replace("branch = negative", "branch = sideways"), "branch", "sideways",
     "must be one of"),
    ("asymptotics-compare", RES_CFG + "epsilon_grid = 0.1, 0.05\n[asymptotics]\napproximation = born\n",
     "approximation", "born", "must be one of"),
    ("dynamics", DYN_CFG + "init_kind = plane\n", "init_kind", "plane", "must be one of"),
    ("dynamics", DYN_CFG.replace("grid_points = 64", "grid_points = 1000"), "grid_points", "1000",
     "must be a power of two"),
), ids=("branch", "approximation", "init_kind", "grid_points"))
def test_value_outside_its_schema_exits_1_line_anchored(tmp_path, capsys, experiment, cfg, key,
                                                         bad, complaint):
    # checked as the config is read: the message names the line, and the run
    # makes no output directory
    out = tmp_path / "o"
    assert cli.main([experiment, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    lineno = cfg.splitlines().index(f"{key} = {bad}") + 1
    assert err.startswith("config error:") and f":{lineno}: {key} {complaint}" in err
    assert bad in err
    assert not out.exists()


def test_trace_epsilon_csv(tmp_path):
    cfg = """
experiment = trace-epsilon

[params]
d = 3
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 0.04
s0 = 1.0

[numerics]
radial_nodes = 24
n_modes = 1
epsilon_grid = 0.04, 0.02, 0.01
"""
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert cli.main(["trace-epsilon", "--config", path, "--out", out]) == 0
    lines = Path(out, "trace-epsilon.csv").read_text().splitlines()
    assert lines[0] == "j,epsilon,re_omega,im_omega"
    assert len(lines) == 4
    eps = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert eps == [0.04, 0.02, 0.01]


def test_increasing_epsilon_grid_rejected(tmp_path):
    cfg = RES_CFG.replace("n_modes = 2", "n_modes = 2\nepsilon_grid = 0.01, 0.02")
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(ConfigError):
        cli.resolve_config(cli.parse_config(path))


def test_wrong_regime_asymptotics_exits_1(tmp_path, capsys):
    cfg = """
experiment = asymptotics-compare

[params]
d = 1
c = 1.0
g = 1.0
omega_a = 0.3
epsilon = 0.01
s0 = 1.0

[numerics]
epsilon_grid = 0.01, 0.005
"""
    path = write_cfg(tmp_path, cfg)
    code = cli.main(["asymptotics-compare", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "regime" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, edit, key", (
    ("resonances", {"d = 3": "d = 1"}, "numerics.n_modes"),
    ("trace-epsilon", {"radial_nodes = 24": "radial_nodes = 8", "n_modes = 2": "n_modes = 31"},
     "numerics.n_modes"),
    ("asymptotics-compare", {"radial_nodes = 24": "radial_nodes = 8", "n_modes = 2": "mode_index = 70"},
     "numerics.mode_index"),
    # configs/bound_states_2d.cfg: K_omega has one mode per rule node
    ("bound-states", {"radial_nodes = 32": "radial_nodes = 8", "modes = 1": "modes = 31"},
     "bound_states.modes"),
))
def test_mode_count_beyond_the_limiting_operator_exits_1(tmp_path, capsys, experiment, edit, key):
    # d = 1 has one limiting mode, d = 2, 3 one per rule node: 30 for
    # radial_nodes = 8, whose panels get at least 6 nodes each
    if experiment == "bound-states":
        cfg = Path(os.path.dirname(__file__), os.pardir, "configs", "bound_states_2d.cfg").read_text()
    else:
        cfg = RES_CFG + "epsilon_grid = 0.1, 0.05\n"
    for old, new in edit.items():
        cfg = cfg.replace(old, new)
    path = write_cfg(tmp_path, cfg)
    assert cli.main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_modes_beyond_the_bound_state_count_exits_2_naming_it(tmp_path, capsys):
    # configs/bound_states_2d.cfg has 2 bound states: mode 3 fails, and the
    # message counts them at the shallow bracket end
    cfg = Path(os.path.dirname(__file__), os.pardir, "configs", "bound_states_2d.cfg").read_text()
    path = write_cfg(tmp_path, cfg.replace("modes = 1", "modes = 3"))
    out = tmp_path / "o"
    assert cli.main(["bound-states", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "mode 3: no bound state detected" in err and "stays below 1 on the scanned bracket" in err
    assert err.rstrip().endswith(": 2") and "bound states below" in err
    assert len(Path(out, "bound-states.csv").read_text().splitlines()) == 3  # modes 1 and 2


def test_failed_continuation_exits_2_with_the_header_alone(tmp_path, capsys):
    # one Muller step does not settle mode 1 at the first eps: trace_in_epsilon
    # raises, and the run reports the solver failure, writes no row and exits 2
    cfg = Path(os.path.dirname(__file__), os.pardir, "configs", "trace_epsilon.cfg").read_text()
    path = write_cfg(tmp_path, cfg.replace("[numerics]\n", "[numerics]\nmax_iter = 1\n"))
    out = tmp_path / "o"
    assert cli.main(["trace-epsilon", "--config", path, "--out", str(out)]) == 2
    assert "solver failure: continuation of mode 1 failed at eps = 0.2" in capsys.readouterr().err
    lines = Path(out, "trace-epsilon.csv").read_text().splitlines()
    assert lines == [",".join(cli.CSV_SCHEMAS["trace-epsilon"])]
    assert json.loads(Path(out, "manifest.json").read_text())["numerics"]["max_iter"] == 1


def test_unreachable_muller_tol_exits_2_with_its_rows_and_a_manifest(tmp_path):
    # configs/resonances_3d.cfg at muller_tol = 1e-30: no mode reaches |f| <= tol,
    # so each one stalls at its root, and the run writes all 5 rows
    cfg = Path(os.path.dirname(__file__), os.pardir, "configs", "resonances_3d.cfg").read_text()
    out = tmp_path / "o"
    path = write_cfg(tmp_path, cfg.replace("[numerics]\n", "[numerics]\nmuller_tol = 1e-30\n"))
    assert cli.main(["resonances", "--config", path, "--out", str(out)]) == 2
    rows = (out / "resonances.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and all(row.split(",")[3] == "nan" for row in rows)  # no residual
    assert json.loads((out / "manifest.json").read_text())["numerics"]["muller_tol"] == 1e-30


def test_bound_states_manifest_records_the_params_it_solved(tmp_path):
    # configs/bound_states_2d.cfg: [params] carries epsilon = 1 and s0 = 1,
    # the solve takes the disk of equal area (radius 2 / sqrt(pi)) at rho0 = 4
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bound_states_2d.cfg")
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path))
    assert cli.run(cfg)[0] == 0
    params = json.loads(Path(tmp_path, "manifest.json").read_text())["params"]
    assert params["epsilon"] == 2.0 / np.sqrt(np.pi) == 1.1283791670955126
    assert (params["rho0"], params["s0"]) == (4.0, None)


@pytest.mark.parametrize("path, key, check", (
    ("configs/bound_states_1d.cfg", "asymmetry", lambda a: 0.0 <= a < 1e-3),
    ("perfbench/configs/trace_2d.cfg", "continuity_breaks", lambda breaks: breaks == []),
))
def test_manifest_records_the_diagnostics(tmp_path, path, key, check):
    # each mode's largest K_omega asymmetry over the solve's builds, or
    # the eps values at which a traced mode jumped
    path = os.path.join(os.path.dirname(__file__), os.pardir, path)
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path))
    assert cli.run(cfg)[0] == 0
    diagnostics = json.loads(Path(tmp_path, "manifest.json").read_text())["diagnostics"]
    blk = cfg.sections.get("bound_states")
    modes = blk["modes"] if blk else cfg.sections["numerics"]["n_modes"]
    assert set(diagnostics) == {key}
    assert list(diagnostics[key]) == [str(n) for n in range(1, modes + 1)]
    assert all(check(v) for v in diagnostics[key].values()), diagnostics


def test_2d_bound_state_solver_failure_exits_2(tmp_path, capsys):
    # at rho0 = 100 the deep bracket end puts the 2D Struve series past its
    # reach: it cancels at |kappa| (r + t)_max = 30.8
    cfg = """
experiment = bound-states

[params]
d = 2
c = 1.0
g = 1.0
omega_a = 1.0
epsilon = 1.0
s0 = 1.0

[numerics]
radial_nodes = 32

[bound_states]
rho0 = 100.0
half_width = 1.0
"""
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert cli.main(["bound-states", "--config", path, "--out", out]) == 2
    assert "solver failure" in capsys.readouterr().err
    lines = Path(out, "bound-states.csv").read_text().splitlines()
    assert lines == ["mode,omega,mu_check"]


def test_bound_states_flush_rows_before_a_linalg_failure(tmp_path, monkeypatch, capsys):
    def solve(params, n, rule):
        if n == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return boundstates.BoundState(-0.5, 1.0)

    monkeypatch.setattr(boundstates, "solve_bound_state", solve)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bound_states_1d.cfg")
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path / "out"))
    cfg.sections["bound_states"]["modes"] = 2
    code, csv_path = cli.run(cfg)
    assert code == 2
    assert "solver failure: mode 2" in capsys.readouterr().err
    assert Path(csv_path).read_text().splitlines() == ["mode,omega,mu_check", "1,-0.5,1"]


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))
                         + glob.glob(os.path.join(ROOT, "perfbench", "configs", "*.cfg")))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_configs_resolve(path, tmp_path):
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path))
    assert cfg.experiment in cli.EXPERIMENTS


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_manifest_records_every_schema_key(path, tmp_path):
    parsed = cli.parse_config(path)
    cfg = cli.resolve_config(parsed, None, str(tmp_path))
    man = cfg.manifest()
    read = cli._EXPERIMENTS[cfg.experiment][1]
    assert not (set(cli._SCHEMA) - {"", "params", *read}) & set(man)  # none the run does not read
    for section in read:
        keys = cli._SCHEMA[section]
        assert set(man[section]) == set(keys)
        for key, (_, default, _) in keys.items():
            want = parsed.get(section, {}).get(key, default)
            if section == "greens" and isinstance(want, list):
                want = [str(v) for v in want]
            assert man[section][key] == want, (section, key)


@pytest.mark.parametrize("path", [p for p in SHIPPED_CONFIGS if os.path.basename(p).startswith(
    ("resonances", "trace", "asymptotics"))], ids=os.path.basename)
def test_solve_configs_build_one_unit_rule(path, tmp_path, monkeypatch):
    # the limiting operator and every eps share the run's one unit-domain rule
    rules = []
    post_init = nystrom.QuadratureRule.__post_init__

    def counted(rule):
        rules.append(rule)
        post_init(rule)

    monkeypatch.setattr(nystrom.QuadratureRule, "__post_init__", counted)
    setups = []  # batches made by each first panel_batches call
    batches = nystrom.QuadratureRule.panel_batches

    def counted_batches(rule):
        first = "batches" not in rule._cache
        out = batches(rule)
        if first:
            setups.append(len(out))
        return out

    monkeypatch.setattr(nystrom.QuadratureRule, "panel_batches", counted_batches)
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path))
    assert cli.run(cfg)[0] == 0
    n = cfg.sections["numerics"]["radial_nodes"]
    # one rule, whose panel batches are set up once, panel by panel
    assert [(r.domain, len(r.nodes)) for r in rules] == [((0.0, 1.0), n)]
    assert setups == [len(rules[0].counts)]


# build_kernel_matrix calls of each solve config: one moment stack at its full
# height, which a bound state builds with W_sing (kind 0) and a resonance or
# trace solve after L0's one-row kind 0, and in the asymptotics comparison the
# A1 kernel
STACK_BUILDS = {"resonances_3d.cfg": 2, "trace_2d.cfg": 2, "trace_epsilon.cfg": 2,
                "bound_states_1d.cfg": 1, "bound_states_2d.cfg": 1, "asymptotics_compare_3d.cfg": 3}


@pytest.mark.parametrize("path", [p for p in SHIPPED_CONFIGS if os.path.basename(p) in STACK_BUILDS],
                         ids=os.path.basename)
def test_solve_configs_build_each_moment_stack_once(path, tmp_path, monkeypatch):
    # the mode loop solves the largest |omega| first, so no later build grows a stack
    shapes = []
    build = nystrom.build_kernel_matrix

    def counted(rule, kernel, measure_power):
        W = build(rule, kernel, measure_power)
        shapes.append(W.shape)
        return W

    monkeypatch.setattr(nystrom, "build_kernel_matrix", counted)
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path))
    assert cli.run(cfg)[0] == 0
    assert len(shapes) == STACK_BUILDS[os.path.basename(path)], shapes
    # one stack of moment matrices, after L0's one-row kind 0 where the run has L0
    heights = [s[0] for s in shapes if len(s) == 3]
    assert heights[-1] > 1 and heights[:-1] in ([], [1]), shapes


def test_cli_import_leaves_scipy_integrate_unloaded():
    # start-up: the test-only quadrature oracles live in tests/oracle_utils.py,
    # and the bound-state solve carries its own Brent, so neither
    # scipy.optimize nor the scipy.linalg it pulls in is imported
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, photon_resonance.cli; "
            "print([m in sys.modules for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False, False]"
    # nor any scipy module at all: the special functions load scipy.special on first use
    code = "import sys, photon_resonance.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_resonance_regime_runs_load_no_scipy_special(tmp_path):
    # the 3D resonances, the 1D and 2D bound states and the 2D trace build every
    # operator on the moment route, so neither scipy.special nor numpy.ma loads
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    paths = [os.path.join(ROOT, *p) for p in (("configs", "resonances_3d.cfg"), ("configs", "bound_states_1d.cfg"),
                                              ("perfbench", "configs", "trace_2d.cfg"),
                                              ("configs", "bound_states_2d.cfg"))]
    code = ("import sys; from photon_resonance import cli\n"
            "for i, path in enumerate(sys.argv[2:]):\n"
            "    cfg = cli.resolve_config(cli.parse_config(path), None, f'{sys.argv[1]}/{i}')\n"
            "    assert cli.run(cfg)[0] == 0, path\n"
            "print([m in sys.modules for m in ('scipy.special', 'numpy.ma')])")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), *paths], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"


def test_unit_rule_admits_one_mode_per_rule_node(tmp_path):
    # radial_nodes = 8 makes a rule of 30 nodes: its limiting operator has 30 modes
    cfg = RES_CFG.replace("radial_nodes = 24", "radial_nodes = 8")
    res = cli.resolve_config(cli.parse_config(write_cfg(tmp_path, cfg.replace("n_modes = 2", "n_modes = 30"))),
                             None, str(tmp_path / "a"))
    assert len(cli._unit_rule(res, "n_modes").nodes) == 30
    res.sections["numerics"]["n_modes"] = 31
    with pytest.raises(ConfigError, match="exceeds the 30 limiting modes.* has 30 nodes"):
        cli._unit_rule(res, "n_modes")


def test_bound_state_rule_admits_two_modes_per_rule_node_in_1d(tmp_path):
    # the even and odd blocks of K_omega each have one mode per rule node
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bound_states_1d.cfg")
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path / "out"))
    cfg.sections["numerics"]["radial_nodes"] = 8
    cfg.sections["bound_states"]["modes"] = 60
    assert len(cli._unit_rule(cfg, "modes", "bound_states").nodes) == cfg.rule_nodes == 30
    cfg.sections["bound_states"]["modes"] = 61
    with pytest.raises(ConfigError, match="bound_states.modes = 61 exceeds the 60 K_omega modes"):
        cli._unit_rule(cfg, "modes", "bound_states")


def test_bound_state_modes_share_one_rule(tmp_path, monkeypatch):
    # configs/bound_states_2d.cfg with modes = 2: both modes solve on one
    # rule, with the frequencies and mu of a rule of their own each
    path = os.path.join(ROOT, "configs", "bound_states_2d.cfg")
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path / "out"))
    cfg.sections["bound_states"]["modes"] = 2
    rules = []
    post_init = nystrom.QuadratureRule.__post_init__

    def counted(rule):
        rules.append(rule)
        post_init(rule)

    monkeypatch.setattr(nystrom.QuadratureRule, "__post_init__", counted)
    code, csv_path = cli.run(cfg)
    assert code == 0 and len(rules) == 1
    monkeypatch.undo()
    blk = cfg.sections["bound_states"]
    params = replace(cfg.params, epsilon=boundstates.equal_volume_radius(2, blk["half_width"]),
                     rho0=blk["rho0"], s0=None)
    lines = Path(csv_path).read_text().splitlines()
    assert len(lines) == 3
    for n, line in enumerate(lines[1:], start=1):
        rule = nystrom.QuadratureRule.make(1.0, n_radial=cfg.sections["numerics"]["radial_nodes"])
        st = boundstates.solve_bound_state(params, n, rule)
        mode, omega, mu = line.split(",")
        assert (int(mode), float(omega), float(mu)) == (n, st.omega, st.mu)
