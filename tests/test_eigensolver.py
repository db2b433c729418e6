import math
from types import SimpleNamespace

import numpy as np
import pytest

from photon_resonance import asymptotics as asym, eigensolver as es, nystrom as ny
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


def test_muller_degenerate_interpolation_moves_the_newest_point():
    # x^3 - x + 1 is 1 at all three seeds, so the interpolant's denominator
    # is 0: the newest point moves by 1e-8 |x| and the iteration goes on
    points = []

    def f(x):
        points.append(x)
        return x**3 - x + 1

    r = es.muller_solve(f, [-1.0, 0.0, 1.0], tol=1e-12)
    assert points[3] == 1 + 1e-8
    assert r.converged and abs(r.root - (0.66236 + 0.56228j)) < 1e-5
    assert abs(r.root**3 - r.root + 1) <= 1e-12


def params3(eps=0.1):
    return PhysicalParams(d=3, c=1.0, g=1.0, omega_a=1.0, epsilon=eps, s0=1.0)


def test_spectrum_result_rejects_a_converged_root_above_the_axis():
    # a converged root with Im omega > IM_SLACK is no resonance; an
    # unconverged one is kept, flagged, as the best iterate
    v = np.ones(3)
    with pytest.raises(es.EigensolverError, match="Im omega"):
        es.SpectrumResult(0.5 + 2 * es.IM_SLACK * 1j, v, 1e-12, 4, 0.5 + 0j)
    es.SpectrumResult(0.5 + 0.5 * es.IM_SLACK * 1j, v, 1e-12, 4, 0.5 + 0j)  # round-off slack
    kept = es.SpectrumResult(0.5 + 1e-3j, v, 1e-3, 50, 0.5 + 0j, converged=False)
    assert kept.omega == 0.5 + 1e-3j and not kept.converged


@pytest.fixture(scope="module")
def res3():
    p = params3()
    return es.find_resonances(p, 3, rule=QuadratureRule.make(1.0, n_radial=32))


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
    res = es.find_resonances(params3(), 3, rule=QuadratureRule.make(1.0, n_radial=32))
    assert all(r.converged for r in res)
    assert len(omegas) == len(set(omegas))


def _aligned_distance(v, ref):
    # distance between two vectors up to phase and scale
    v, ref = v / np.linalg.norm(v), ref / np.linalg.norm(ref)
    phase = np.vdot(v, ref)
    return np.linalg.norm(v * phase / abs(phase) - ref)


def test_smallest_eigenpair_matches_eig(res3):
    rule = QuadratureRule.make(0.1, n_radial=48)
    p2 = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=0.1, s0=1.0)
    for params, omega in ((params3(), res3[0].omega), (params3(), 0.7 - 0.01j), (p2, 0.108 - 0.014j)):
        op = ny.build_full_operator(params, omega, rule)
        v = es._smallest_eigenpair(op.matrix, es.characteristic_value(op))
        ev, V = np.linalg.eig(op.matrix)
        assert _aligned_distance(v, V[:, np.argmin(np.abs(ev))]) <= 1e-10, omega
    # an eigenvalue that is exact in floating point still gives its vector
    v = es._smallest_eigenpair(np.diag([3.0, -0.1, 2.0j]), -0.1)
    assert _aligned_distance(v, np.array([0.0, 1.0, 0.0])) <= 1e-10


def test_find_resonances_makes_no_eig_call(monkeypatch):
    def no_eig(*args, **kwargs):
        raise AssertionError("np.linalg.eig, eigvals or eigh called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    monkeypatch.setattr(np.linalg, "eigvals", no_eig)
    monkeypatch.setattr(np.linalg, "eigh", no_eig)  # the seeds need eigenvalues only
    res = es.find_resonances(params3(), 2, rule=QuadratureRule.make(1.0, n_radial=32))
    assert all(r.converged and r.residual <= 1e-8 for r in res)
    p2 = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=0.2, s0=1.0)
    traces = es.trace_in_epsilon(p2, [1, 2], [0.2, 0.1], QuadratureRule.make(1.0, n_radial=16))
    assert all(r.converged and r.residual <= 1e-8 for tr in traces for r in tr.results)


N32_CASES = {"3d": params3(),
             "2d": PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=0.1, s0=1.0)}


@pytest.fixture(scope="module", params=sorted(N32_CASES))
def n32_solves(request):
    """A 2-mode N = 32 solve: every (operator, characteristic value) Muller
    asked for, seeds included, its roots, and the roots again with the
    eigvals-based f of the oracle."""
    p, rule = N32_CASES[request.param], QuadratureRule.make(1.0, n_radial=32)
    evals, cv = [], es.characteristic_value

    def recorded(op):
        evals.append((op, cv(op)))
        return evals[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(es, "characteristic_value", recorded)
        roots = [r.omega for r in es.find_resonances(p, 2, rule)]
        mp.setattr(es, "characteristic_value", orc.characteristic_value_eigvals)
        oracle_roots = [r.omega for r in es.find_resonances(p, 2, rule)]
    return evals, roots, oracle_roots


def test_characteristic_value_matches_eigvals(n32_solves):
    evals, _, _ = n32_solves
    assert len(evals) >= 6  # three seeds per mode, then the Muller steps
    for op, lam in evals:
        scale = np.finfo(float).eps * np.max(np.abs(op.matrix))
        assert abs(lam - orc.characteristic_value_eigvals(op)) <= 8 * scale, op.omega


def test_muller_roots_match_the_eigvals_f(n32_solves):
    _, roots, oracle_roots = n32_solves
    for w, ref in zip(roots, oracle_roots):
        assert abs(w - ref) <= 1e-13 * abs(ref)


def _with_spectrum(eigenvalues):
    # a non-normal matrix with these eigenvalues: a fixed random similarity
    rng = np.random.default_rng(7)
    n = len(eigenvalues)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SimpleNamespace(matrix=X @ np.diag(eigenvalues) @ np.linalg.inv(X))


def test_characteristic_value_at_its_step_bound():
    rest = list(1.5 + np.arange(30) / 10)
    # |lambda_1 / lambda_2| = 0.9 still settles within MAX_STEPS
    lam1 = 0.9 * np.exp(0.3j)
    assert abs(es.characteristic_value(_with_spectrum([lam1, 1j, *rest])) - lam1) <= 1e-12
    # near-tied and tied magnitudes do not settle: EigensolverError
    for tied in (0.999 * np.exp(0.3j), -1j):
        with pytest.raises(es.EigensolverError, match="near-tied"):
            es.characteristic_value(_with_spectrum([tied, 1j, *rest]))


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
    res = es.find_resonances(p, 2, rule=QuadratureRule.make(1.0, n_radial=32))
    for r in res:
        assert abs(r.omega - r.seed) < 50 * p.epsilon  # O(eps) displacement


def test_find_resonances_2d_smoke():
    p = PhysicalParams(d=2, c=1.0, g=1.0, omega_a=1.0, epsilon=0.1, s0=1.0)
    res = es.find_resonances(p, 2, rule=QuadratureRule.make(1.0, n_radial=28))
    assert all(r.converged for r in res)
    assert res[0].omega.real < res[1].omega.real < 1.0
    assert all(r.omega.imag < 0 for r in res)


def test_nonconvergence_reported_not_raised(monkeypatch):
    p = params3()
    res = es.find_resonances(p, 1, rule=QuadratureRule.make(1.0, n_radial=16),
                             tol=1e-18, max_iter=2)
    assert len(res) == 1
    assert not res[0].converged
    assert np.isnan(res[0].residual)
    # an f that does not settle (near-tied magnitudes) fails its own mode only
    cv = es.characteristic_value

    def unsettled_above(op):
        if op.omega.real > 0.65:
            raise es.EigensolverError("near-tied smallest eigenvalues")
        return cv(op)

    monkeypatch.setattr(es, "characteristic_value", unsettled_above)
    res = es.find_resonances(p, 2, rule=QuadratureRule.make(1.0, n_radial=16))
    assert [r.converged for r in res] == [True, False]
    assert np.isnan(res[1].residual)


def test_resonance_roots_do_not_depend_on_the_solve_order():
    # each mode of the loop, whose first build holds the largest |k|, has the
    # root of its seed solved alone on a fresh rule, bit for bit
    p = params3()
    res = es.find_resonances(p, 5, QuadratureRule.make(1.0, n_radial=48))
    for r in res:
        [alone] = es._solve_modes(p, [r.seed], QuadratureRule.make(1.0, n_radial=48), 1e-10, 50)
        assert alone.omega == r.omega, r.seed


def _recorded_muller_seeds(monkeypatch):
    first = []  # first seed of each Muller run
    solve = es.muller_solve

    def recorded(f, seeds, **kwargs):
        first.append(seeds[0])
        return solve(f, seeds, **kwargs)

    monkeypatch.setattr(es, "muller_solve", recorded)
    return first


def test_mode_loop_solves_the_largest_seed_first_and_returns_seed_order(monkeypatch, caplog):
    p = params3()
    rule = QuadratureRule.make(1.0, n_radial=16)
    limit = es._limiting_frequencies(p, 3, rule)
    order = [1, 2, 0]  # modes 2, 3, 1: not sorted by |omega|
    seeds, modes = [limit[i] for i in order], [i + 1 for i in order]
    cv = es.characteristic_value

    def unsettled_mode_2(op):  # mode 2 fails, so its label shows in the log
        if abs(op.omega.real - limit[1]) < 0.05:
            raise es.EigensolverError("near-tied smallest eigenvalues")
        return cv(op)

    monkeypatch.setattr(es, "characteristic_value", unsettled_mode_2)
    first = _recorded_muller_seeds(monkeypatch)
    with caplog.at_level("WARNING", logger=es.__name__):
        res = es._solve_modes(p, seeds, rule, 1e-10, 50, modes)
    assert first == sorted(seeds, key=abs, reverse=True)
    assert [r.seed for r in res] == seeds
    assert [r.converged for r in res] == [False, True, True]
    assert [abs(r.omega - s) < 0.05 for r, s in zip(res, seeds)] == [True] * 3
    assert any("mode 2 did not converge" in r.getMessage() for r in caplog.records)


def test_a_clash_reseeds_the_mode_solved_second(monkeypatch):
    # two seeds in the basin of mode 1: the larger one keeps the root, the
    # smaller one is re-seeded off it
    p = params3()
    rule = QuadratureRule.make(1.0, n_radial=16)
    s = es._limiting_frequencies(p, 1, rule)[0]
    seeds = [s, s * (1 + 1e-4)]
    first = _recorded_muller_seeds(monkeypatch)
    small, large = es._solve_modes(p, seeds, rule, 1e-10, 50)
    assert first[:2] == [seeds[1], seeds[0]]
    assert len(first) > 2 and not set(first[2:]) & set(seeds)  # re-seeded runs
    [alone] = es._solve_modes(p, [seeds[1]], QuadratureRule.make(1.0, n_radial=16), 1e-10, 50)
    assert large.converged and large.omega == alone.omega
    assert not (small.converged and abs(small.omega - large.omega) < es.DEFLATION_RADIUS)


def test_one_dimensional_bound_mode_real():
    p = PhysicalParams(d=1, c=1.0, g=1.0, omega_a=0.3, epsilon=0.01, s0=1.0)
    res = es.find_resonances(p, 1, rule=QuadratureRule.make(1.0, n_radial=32))
    assert res[0].converged
    assert res[0].omega.real < 0
    assert abs(res[0].omega.imag) <= 1e-9
    with pytest.raises(ValueError):
        es.find_resonances(p, 2, rule=QuadratureRule.make(1.0, n_radial=32))


@pytest.mark.parametrize("omega_a", [0.3, 0.8, 1.0, 2.5])
@pytest.mark.parametrize("g", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("epsilon", [1e-4, 0.01, 0.3])
def test_1d_seed_is_the_log_limit_exactly(omega_a, g, epsilon):
    # Omega - g^2 s0 |B1| / (pi c), pushed to 2 g^2 s0 / (c log eps) below
    # the real axis in the resonance regime and left real in the negative one
    p = PhysicalParams(d=1, c=1.3, g=g, omega_a=omega_a, epsilon=epsilon, s0=0.9)
    re = omega_a - g**2 * 0.9 * 2.0 / (np.pi * 1.3)
    want = complex(re, 2.0 * g**2 * 0.9 / (1.3 * math.log(epsilon))) if re > 0 else re
    [seed] = es._limiting_frequencies(p, 1, QuadratureRule.make(1.0, n_radial=8))
    assert seed == want and type(seed) is type(want)


def test_trace_requires_decreasing_grid():
    with pytest.raises(ValueError):
        es.trace_in_epsilon(params3(), [1], [0.1, 0.2], QuadratureRule.make(1.0, n_radial=16))


def test_trace_warm_start_and_limit():
    p = params3()
    eps = [4e-2, 2e-2, 1e-2, 5e-3]
    [tr] = es.trace_in_epsilon(p, [1], eps, QuadratureRule.make(1.0, n_radial=32))
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
        traces = es.trace_in_epsilon(p, [1, 2], [0.2, 0.1], QuadratureRule.make(1.0, n_radial=48))
    assert [tr.continuity_breaks for tr in traces] == [(), ()]
    assert not [r for r in caplog.records if r.name == es.__name__]


def test_trace_rejects_bad_modes():
    for modes in ([], [0, 1], [1, 1]):
        with pytest.raises(ValueError):
            es.trace_in_epsilon(params3(), modes, [0.1, 0.05], QuadratureRule.make(1.0, n_radial=16))


def test_trace_shares_one_rule_and_one_limit(monkeypatch):
    radii, l0_builds = [], []
    make, spectrum = QuadratureRule.make.__func__, asym.limiting_spectrum

    def counted_make(cls, radius, *args, **kwargs):
        radii.append(radius)
        return make(cls, radius, *args, **kwargs)

    def counted_l0(*args, **kwargs):
        l0_builds.append(1)
        return spectrum(*args, **kwargs)

    rule = QuadratureRule.make(1.0, n_radial=16)
    monkeypatch.setattr(QuadratureRule, "make", classmethod(counted_make))
    monkeypatch.setattr(asym, "limiting_spectrum", counted_l0)
    eps = [4e-2, 2e-2]
    traces = es.trace_in_epsilon(params3(), (1, 2), eps, rule)
    # the caller's unit rule seeds and solves every eps: no rule is made here
    assert radii == []
    assert len(l0_builds) == 1
    assert [tr.mode_index for tr in traces] == [1, 2]
    assert all(r.converged for tr in traces for r in tr.results)
    assert traces[0].results[-1].omega.real < traces[1].results[-1].omega.real


def test_find_resonances_rejects_a_non_unit_rule():
    for p in (params3(), PhysicalParams(d=1, c=1.0, g=1.0, omega_a=1.0, epsilon=0.1, s0=0.3)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            es.find_resonances(p, 1, rule=QuadratureRule.make(p.epsilon, n_radial=16))


def test_trace_logs_continuity_breaks(caplog, monkeypatch):
    monkeypatch.setattr(es, "CONTINUITY_RTOL", 1e-12)
    with caplog.at_level("WARNING", logger=es.__name__):
        [tr] = es.trace_in_epsilon(params3(), [1], [4e-2, 2e-2], QuadratureRule.make(1.0, n_radial=16))
    assert tr.continuity_breaks == (1,)
    [rec] = [r for r in caplog.records if r.name == es.__name__]
    assert rec.levelname == "WARNING"
    assert "mode 1" in rec.getMessage() and "eps = 0.02" in rec.getMessage()
