import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from photon_resonance import boundstates, cli, greens, nystrom
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
    lines = open(os.path.join(out, "resonances.csv")).read().splitlines()
    assert len(lines) == 3  # header + both rows flushed before the failure exit


def test_missing_params_section(tmp_path):
    path = write_cfg(tmp_path, "experiment = resonances\n")
    with pytest.raises(ConfigError):
        cli.resolve_config(cli.parse_config(path))


def test_greens_table_values_and_schema(tmp_path):
    path = write_cfg(tmp_path, GREENS_CFG)
    out = str(tmp_path / "out")
    code = cli.main(["greens-table", "--config", path, "--out", out])
    assert code == 0
    lines = open(os.path.join(out, "greens-table.csv")).read().splitlines()
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


def test_determinism_byte_identical(tmp_path):
    path = write_cfg(tmp_path, GREENS_CFG)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cli.main(["greens-table", "--config", path, "--out", out1])
    cli.main(["greens-table", "--config", path, "--out", out2])
    c1 = open(os.path.join(out1, "greens-table.csv"), "rb").read()
    c2 = open(os.path.join(out2, "greens-table.csv"), "rb").read()
    assert c1 == c2


def test_manifest_records_defaults(tmp_path):
    path = write_cfg(tmp_path, RES_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["resonances", "--config", path, "--out", out]) == 0
    man = json.load(open(os.path.join(out, "manifest.json")))
    assert man["version"]
    assert man["experiment"] == "resonances"
    # defaults the user never set are resolved and recorded
    assert man["numerics"]["muller_tol"] == 1e-10
    assert man["numerics"]["max_iter"] == 50
    assert man["dynamics"]["grid_points"] == 8192
    assert man["params"]["epsilon"] == 0.1


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
    assert calls["all"] == calls["solve"] == 9


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


def test_asymptotics_compare_builds_l0_once(tmp_path, monkeypatch):
    # the limiting modes seed the trace too; the CSV is the one a trace with
    # its own L0 build writes
    from photon_resonance import eigensolver
    l0_builds = []
    build_l0, trace = nystrom.build_l0_operator, eigensolver.trace_in_epsilon

    def counted_l0(*args, **kwargs):
        l0_builds.append(1)
        return build_l0(*args, **kwargs)

    monkeypatch.setattr(nystrom, "build_l0_operator", counted_l0)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "asymptotics_compare_3d.cfg")

    def run(out):
        cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path / out))
        status, csv_path = cli.run(cfg)
        assert status == 0
        return open(csv_path, "rb").read()

    shared = run("shared")
    assert len(l0_builds) == 1
    monkeypatch.setattr(eigensolver, "trace_in_epsilon",
                        lambda *args, limit=None, **kwargs: trace(*args, **kwargs))
    assert run("separate") == shared
    assert len(l0_builds) == 3


def test_resonances_csv(tmp_path):
    path = write_cfg(tmp_path, RES_CFG)
    out = str(tmp_path / "out")
    assert cli.main(["resonances", "--config", path, "--out", out]) == 0
    lines = open(os.path.join(out, "resonances.csv")).read().splitlines()
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
    lines = open(os.path.join(out, "dynamics.csv")).read().splitlines()
    assert lines[0] == "t,mass,window_mass,survival"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape[0] == 6
    assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-9
    assert rows[0, 3] == pytest.approx(1.0)


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
    lines = open(os.path.join(out, "trace-epsilon.csv")).read().splitlines()
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
    ("trace-epsilon", {"radial_nodes = 24": "radial_nodes = 8", "n_modes = 2": "n_modes = 9"},
     "numerics.n_modes"),
    ("asymptotics-compare", {"radial_nodes = 24": "radial_nodes = 8", "n_modes = 2": "mode_index = 70"},
     "numerics.mode_index"),
))
def test_mode_count_beyond_the_limiting_operator_exits_1(tmp_path, capsys, experiment, edit, key):
    # d = 1 has one limiting mode, d = 2, 3 radial_nodes of them
    cfg = RES_CFG + "epsilon_grid = 0.1, 0.05\n"
    for old, new in edit.items():
        cfg = cfg.replace(old, new)
    path = write_cfg(tmp_path, cfg)
    assert cli.main([experiment, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


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
    lines = open(os.path.join(out, "bound-states.csv")).read().splitlines()
    assert lines == ["mode,omega,mu_check"]


def test_bound_states_flush_rows_before_a_linalg_failure(tmp_path, monkeypatch, capsys):
    def solve(profile, params, n, n_nodes):
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
    assert open(csv_path).read().splitlines() == ["mode,omega,mu_check", "1,-0.5,1"]


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
    man = cli.resolve_config(parsed, None, str(tmp_path)).manifest()
    for section, keys in cli._SCHEMA.items():
        if section in ("", "params"):
            continue
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
    cfg = cli.resolve_config(cli.parse_config(path), None, str(tmp_path))
    assert cli.run(cfg)[0] == 0
    n = cfg.sections["numerics"]["radial_nodes"]
    # the rule and its derived rule for the regular part
    assert [(r.domain, len(r.nodes), r.close_gap) for r in rules] == [
        ((0.0, 1.0), n, False), ((0.0, 1.0), n, True)]


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
