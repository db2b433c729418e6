import numpy as np
import pytest

from photon_resonance import eigensolver as es, nystrom as ny
from photon_resonance.nystrom import PhysicalParams, QuadratureRule

import oracle_utils as orc

# frozen: real root of z^3 - 2z - 5 from a bisection oracle
CUBIC_ROOT = 2.0945514815423265


def test_cubic_root_oracle():
    root = orc.bisect_real_root(lambda x: x**3 - 2 * x - 5, 2.0, 2.2)
    assert abs(root - CUBIC_ROOT) < 1e-14


def test_characteristic_value_diagonal():
    rule = QuadratureRule.make(1.0, n_radial=8)
    p = PhysicalParams(d=3, c=1, g=1, omega_a=1, epsilon=0.1, s0=1)

    def as_op(mat):
        return ny.RadialOperator(mat, rule, 0.0 + 0j, p, np.ones(mat.shape[0]))

    m = np.diag([3.0 + 0j, -0.1 + 0j, 2.0j])
    assert es.characteristic_value(as_op(m)) == -0.1
    omega = p.omega_a
    m2 = -(omega - p.omega_a) * np.eye(3, dtype=complex)
    assert es.characteristic_value(as_op(m2)) == 0.0
    with pytest.raises(es.EigensolverError):
        es.characteristic_value(as_op(np.array([[np.nan + 0j]])))


def test_muller_linear_and_quadratic():
    r = es.muller_solve(lambda z: z - 2.0, [0.0, 1.0, 3.0])
    assert r.converged and abs(r.root - 2.0) < 1e-12
    r = es.muller_solve(lambda z: z * z + 1.0, [0.5j, 1 + 1j, 2j])
    assert abs(r.root - 1j) < 1e-10


def test_muller_cubic_vs_bisection_oracle():
    r = es.muller_solve(lambda z: z**3 - 2 * z - 5, [1.9, 2.0, 2.2], tol=1e-13)
    assert abs(r.root - CUBIC_ROOT) < 1e-11


def test_muller_polynomial_grid_property():
    # degree <= 3 converges to a true root from any seed triple in |z| <= 3
    polys = [
        (lambda z: z**3 - 2 * z - 5, "cubic"),
        (lambda z: (z - 1) * (z + 2), "quadratic"),
        (lambda z: z**2 + 1, "complex pair"),
    ]
    grid = np.linspace(-2.5, 2.5, 5)
    for p, _name in polys:
        for a in grid:
            for b in grid:
                seeds = [complex(a, b), complex(a + 0.31, b - 0.17), complex(a - 0.23, b + 0.29)]
                if len({*seeds}) < 3:
                    continue
                r = es.muller_solve(p, seeds, tol=1e-13, max_iter=120)
                assert abs(p(r.root)) <= 1e-12, (a, b)


def test_muller_needs_distinct_seeds():
    with pytest.raises(ValueError):
        es.muller_solve(lambda z: z, [1.0, 1.0, 2.0])


def test_muller_nonconvergence_flagged():
    # |f| has no zero: stays at the best iterate with converged=False
    r = es.muller_solve(lambda z: 1.0 + 0.01 * abs(z) ** 2, [0.0, 1.0, 2.0], max_iter=12)
    assert not r.converged
    assert np.isfinite(r.root.real)


def params3(eps=0.1):
    return PhysicalParams(d=3, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=1.0)


@pytest.fixture(scope="module")
def res3():
    p = params3()
    return es.find_resonances(p, 3, rule=QuadratureRule.make(0.1, n_radial=32))


def test_first_mode_regression_pin(res3):
    # converged value at this discretization, pinned as a refactoring guard
    assert res3[0].omega.real == pytest.approx(0.4807009278, abs=2e-6)
    assert res3[0].omega.imag == pytest.approx(-1.38481e-3, rel=2e-3)


def test_find_resonances_basic_structure(res3):
    assert len(res3) == 3
    assert all(r.converged for r in res3)
    re = [r.omega.real for r in res3]
    assert re == sorted(re)
    for r in res3:
        assert r.omega.imag <= es.IM_SLACK
        assert r.residual <= 1e-8
        assert abs(r.omega.imag) > 0  # genuine resonances radiate


def test_find_resonances_eigenvector_normalized(res3):
    p = params3()
    rule = QuadratureRule.make(0.1, n_radial=32)
    op = ny.build_full_operator(p, res3[0].omega, rule)
    assert op.weighted_norm(res3[0].eigenvector) == pytest.approx(1.0, abs=1e-10)


def test_find_resonances_builds_each_omega_once(monkeypatch):
    # the eigenvector at a root comes from the operator Muller already built
    omegas = []
    build = ny.build_full_operator

    def recorded(params, omega, rule=None):
        omegas.append(complex(omega))
        return build(params, omega, rule)

    monkeypatch.setattr(ny, "build_full_operator", recorded)
    res = es.find_resonances(params3(), 3, rule=QuadratureRule.make(0.1, n_radial=32))
    assert all(r.converged for r in res)
    assert len(omegas) == len(set(omegas))


def test_seed_robustness(res3):
    # 1% seed perturbation reproduces the first mode to 1e-8
    p = params3()
    rule = QuadratureRule.make(0.1, n_radial=32)

    def f(w):
        return es.characteristic_value(ny.build_full_operator(p, w, rule))

    s = res3[0].seed * 1.01
    r = es.muller_solve(f, [s, s * (1 - 1e-3), s * (1 - 1e-3j)], tol=1e-10)
    assert r.converged
    assert abs(r.root - res3[0].omega) < 1e-8


def test_tiny_eps_roots_stay_near_seeds():
    p = params3(1e-4)
    res = es.find_resonances(p, 2, rule=QuadratureRule.make(1e-4, n_radial=32))
    for r in res:
        assert abs(r.omega - r.seed) < 50 * p.epsilon  # O(eps) displacement


def test_find_resonances_2d_smoke():
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=0.1, s0=1.0)
    res = es.find_resonances(p, 2, rule=QuadratureRule.make(0.1, n_radial=28))
    assert all(r.converged for r in res)
    assert res[0].omega.real < res[1].omega.real < 1.0
    assert all(r.omega.imag < 0 for r in res)


def test_nonconvergence_reported_not_raised():
    p = params3()
    res = es.find_resonances(p, 1, rule=QuadratureRule.make(0.1, n_radial=16),
                             tol=1e-18, max_iter=2)
    assert len(res) == 1
    assert not res[0].converged
    assert np.isnan(res[0].residual)


def test_one_dimensional_bound_mode_real():
    p = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=0.3, epsilon=0.01, s0=1.0)
    res = es.find_resonances(p, 1, rule=QuadratureRule.make(0.01, n_radial=32))
    assert res[0].converged
    assert res[0].omega.real < 0
    assert abs(res[0].omega.imag) <= 1e-9
    with pytest.raises(ValueError):
        es.find_resonances(p, 2)


def test_trace_requires_decreasing_grid():
    with pytest.raises(ValueError):
        es.trace_in_epsilon(params3(), [1], [0.1, 0.2])


def test_trace_warm_start_and_limit():
    p = params3()
    eps = [4e-2, 2e-2, 1e-2, 5e-3]
    [tr] = es.trace_in_epsilon(p, [1], eps, n_radial=32)
    assert tr.continuity_breaks == ()
    w_seed = tr.results[0].seed
    gaps = [abs(r.omega - w_seed) for r in tr.results]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))  # approaching the limit
    slope = orc.loglog_slope(eps, gaps)
    assert 0.8 <= slope <= 1.3  # O(eps) approach in 3D


def test_smooth_2d_trace_logs_no_continuity_break(caplog):
    # the perfbench trace_2d shape: mode 1 moves by 20 % of its own size,
    # yet by a few percent of its distance to Omega and to mode 2
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=0.2, s0=1.0)
    with caplog.at_level("WARNING", logger=es.__name__):
        traces = es.trace_in_epsilon(p, [1, 2], [0.2, 0.1], n_radial=48)
    assert [tr.continuity_breaks for tr in traces] == [(), ()]
    assert not [r for r in caplog.records if r.name == es.__name__]


def test_trace_rejects_bad_modes():
    for modes in ([], [0, 1], [1, 1]):
        with pytest.raises(ValueError):
            es.trace_in_epsilon(params3(), modes, [0.1, 0.05])


def test_trace_shares_one_rule_per_eps_and_one_limit(monkeypatch):
    radii, l0_builds = [], []
    make, build_l0 = QuadratureRule.make.__func__, ny.build_l0_operator

    def counted_make(cls, radius, *args, **kwargs):
        radii.append(radius)
        return make(cls, radius, *args, **kwargs)

    def counted_l0(*args, **kwargs):
        l0_builds.append(1)
        return build_l0(*args, **kwargs)

    monkeypatch.setattr(QuadratureRule, "make", classmethod(counted_make))
    monkeypatch.setattr(ny, "build_l0_operator", counted_l0)
    eps = [4e-2, 2e-2]
    traces = es.trace_in_epsilon(params3(), (1, 2), eps, n_radial=16)
    # the unit rule of the limiting operator, then one rule per eps for both modes
    assert radii == [1.0, *eps]
    assert len(l0_builds) == 1
    assert [tr.mode_index for tr in traces] == [1, 2]
    assert all(r.converged for tr in traces for r in tr.results)
    assert traces[0].omegas[-1].real < traces[1].omegas[-1].real


def test_trace_logs_continuity_breaks(caplog):
    with caplog.at_level("WARNING", logger=es.__name__):
        [tr] = es.trace_in_epsilon(params3(), [1], [4e-2, 2e-2], n_radial=16,
                                   continuity_rtol=1e-12)
    assert tr.continuity_breaks == (1,)
    [rec] = [r for r in caplog.records if r.name == es.__name__]
    assert rec.levelname == "WARNING"
    assert "mode 1" in rec.getMessage() and "eps = 0.02" in rec.getMessage()
