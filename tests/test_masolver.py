import dataclasses
import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cyflab.geometry
import cyflab.masolver
from cyflab.geometry import (
    DefinitenessError,
    FiberChart,
    FiberGrid,
    GeometryError,
    InvalidFieldError,
    NormalizationError,
    ddc_fiber,
    drop_nyquist_modes,
    fiber_integral,
    herm_det,
    herm_inverse,
    herm_min_eig,
    laplace_beltrami,
)
from cyflab.masolver import (
    BaseStencil,
    KE_VOLUME,
    MAProblem,
    NO_NORMALIZATION,
    REFERENCE_VOLUME,
    SolverConfig,
    SolverDivergence,
    _laplacian_of_potential,
    _linear_solve,
    epsilon_continuation,
    eta_from_metric,
    fiberwise_ricci_flat,
    lgmres,
    linearized_solve,
    manufactured_problem,
    ricci_flat_problem,
    semiflat_shift,
    solve_ma,
    solve_nested,
    solve_stencil,
)
from cyflab.models import FamilySpec, FiberMetric, FourierPoly, make_family
from conftest import as_metric, perturbation_chi, random_chart_and_metric, random_trig_field


@pytest.fixture(scope="module")
def flat_setup():
    grid = FiberGrid(1, 64)
    chart = FiberChart.make(grid, tau=1j)
    g = np.ones((1, 1) + grid.shape, dtype=complex)
    return grid, chart, g


def test_eta_examples(flat_setup):
    grid, chart, g = flat_setup
    # constant det => eta identically zero after normalization
    eta = eta_from_metric(g, chart)
    assert np.max(np.abs(eta)) < 1e-14
    # perturbed metric: eta = -log(g) + c with the quadrature constant
    x = grid.coords[0]
    gp = (1.0 + 0.2 * np.cos(2 * np.pi * x)).astype(complex)[np.newaxis, np.newaxis]
    eta = eta_from_metric(gp, chart)
    c = np.log(np.mean(gp[0, 0].real))
    assert np.max(np.abs(eta - (-np.log(gp[0, 0].real) + c))) < 1e-13
    # the defining normalization: int e^eta omega^n = int omega^n
    lhs = fiber_integral(np.exp(eta), chart, metric=gp)
    rhs = fiber_integral(np.ones(grid.shape), chart, metric=gp)
    assert abs(lhs / rhs - 1) < 1e-12


def test_eta_normalization_random(flat_setup):
    grid, chart, _ = flat_setup
    rng = np.random.RandomState(4)
    for _ in range(5):
        bump = random_trig_field(rng, grid, kmax=2).real
        bump = 0.4 * bump / max(1.0, float(np.max(np.abs(bump))))
        g = (1.3 + bump).astype(complex)[np.newaxis, np.newaxis]
        eta = eta_from_metric(g, chart)
        lhs = fiber_integral(np.exp(eta), chart, metric=g)
        rhs = fiber_integral(np.ones(grid.shape), chart, metric=g)
        assert abs(lhs / rhs - 1) < 1e-12


def test_solve_trivial(flat_setup):
    grid, chart, g = flat_setup
    for eps in (0.0, 0.5):
        problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape), epsilon=eps)
        sol = solve_ma(problem)
        assert np.max(np.abs(sol.phi)) < 1e-13
        assert sol.newton_iters == 0


def test_manufactured_n1(flat_setup):
    grid, chart, g = flat_setup
    x = grid.coords[0]
    phi_star = 0.1 * np.cos(2 * np.pi * x)
    problem = manufactured_problem(FiberMetric(chart, g), phi_star, 0.5)
    sol = solve_ma(problem)
    assert np.max(np.abs(sol.phi - phi_star)) < 1e-10
    assert sol.residual_sup < 1e-11
    assert sol.diagnostics["fiber_min_eig"] > 0


def test_uniqueness_eps_positive(flat_setup):
    grid, chart, g = flat_setup
    x, y = grid.coords
    phi_star = 0.05 * np.cos(2 * np.pi * x)
    problem = manufactured_problem(FiberMetric(chart, g), phi_star, 1.0)
    a = solve_ma(problem)
    b = solve_ma(problem, initial_guess=0.02 * np.cos(2 * np.pi * y))
    assert np.max(np.abs(a.phi - b.phi)) < 1e-9


def test_manufactured_n2():
    grid = FiberGrid(2, 16)
    chart = FiberChart.make(grid, omega_matrix=1j * np.eye(2))
    x1, y2 = grid.coords[0], grid.coords[3]
    phi_star = 0.05 * np.cos(2 * np.pi * x1) + 0.05 * np.cos(2 * np.pi * y2)
    g = np.zeros((2, 2) + grid.shape, dtype=complex)
    g[0, 0] = g[1, 1] = 1.0
    problem = manufactured_problem(FiberMetric(chart, as_metric(g)), phi_star, 0.0)
    sol = solve_ma(problem, normalization=REFERENCE_VOLUME)
    assert np.max(np.abs(sol.phi - phi_star)) < 1e-9
    assert sol.diagnostics["volume_residual"] < 1e-10


def test_compatibility_enforced(flat_setup):
    grid, chart, g = flat_setup
    problem = MAProblem(chart=chart, gab=g, eta=0.1 * np.ones(grid.shape), epsilon=0.0)
    with pytest.raises(NormalizationError):
        solve_ma(problem)


@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_non_finite_target_rejected(flat_setup, eps):
    """A NaN in eta + f fails every comparison, so it must be caught before
    the solvability check and the Newton tests, at every eps."""
    grid, chart, g = flat_setup
    extra_f = np.zeros(grid.shape)
    extra_f[3, 5] = np.nan
    problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape),
                        epsilon=eps, extra_f=extra_f)
    with pytest.raises(InvalidFieldError):
        solve_ma(problem)


def test_divergence_reported(flat_setup):
    grid, chart, g = flat_setup
    x = grid.coords[0]
    phi_star = 0.1 * np.cos(2 * np.pi * x)
    problem = manufactured_problem(FiberMetric(chart, g), phi_star, 0.5)
    with pytest.raises(SolverDivergence) as err:
        solve_ma(problem, SolverConfig(max_iters=2))
    assert err.value.residual is not None


def test_linear_fallbacks_recorded():
    """Krylov solves that miss rtol but pass the true-residual check are counted.

    On this varying metric one GMRES cycle ends the last step at a relative
    residual of about 4e-10, above its forcing term and below 1e-8.
    """
    grid = FiberGrid(1, 16)
    chart = FiberChart.make(grid, tau=1j)
    x, y = grid.coords
    g = (1 + 0.85 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)).astype(complex)
    g = g[np.newaxis, np.newaxis]
    phi_star = 0.002 * np.cos(2 * np.pi * x) + 0.0005 * np.sin(2 * np.pi * (x + 3 * y))
    problem = manufactured_problem(FiberMetric(chart, g), phi_star, 0.5)
    strict = solve_ma(problem, SolverConfig(linear_rtol=1e-16, linear_maxiter=1))
    assert strict.residual_sup < 1e-11
    assert strict.diagnostics["linear_fallbacks"] >= 1
    assert solve_ma(problem).diagnostics["linear_fallbacks"] == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), N=st.sampled_from([16, 32]),
       tau=st.sampled_from([1j, 0.3 + 1.1j]))
def test_exact_n1_step(seed, N, tau):
    """At n = 1, eps = 0 the Newton step solves Delta_h u = projected rhs exactly."""
    grid = FiberGrid(1, N)
    chart = FiberChart.make(grid, tau=tau)
    rng = np.random.RandomState(seed)
    bump = random_trig_field(rng, grid, kmax=2).real
    bump = 0.5 * bump / max(1.0, float(np.max(np.abs(bump))))
    h = (1.0 + rng.uniform() + bump).astype(complex)[np.newaxis, np.newaxis]
    rhs = random_trig_field(rng, grid, kmax=3).real
    u, fallbacks, iterations, residual = _linear_solve(h, chart, 0.0, rhs, SolverConfig())
    det = herm_det(h).real
    projected = rhs - np.mean(rhs * det) / np.mean(det)
    lap = laplace_beltrami(h, u, chart).real
    assert fallbacks == 0 and iterations == 0 and residual is None
    assert np.max(np.abs(lap - projected)) < 1e-11 * max(1.0, float(np.max(np.abs(rhs))))
    assert abs(np.mean(u)) < 1e-15 * max(1.0, float(np.max(np.abs(u))))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), N=st.sampled_from([16, 32]),
       tau=st.sampled_from([1j, 0.3 + 1.1j]), eps=st.floats(0.01, 1.0))
def test_elliptic_solves_eps_positive(seed, N, tau, eps):
    """At n = 1, eps > 0 the GMRES step solves Delta_h u - eps u = rhs."""
    grid = FiberGrid(1, N)
    chart = FiberChart.make(grid, tau=tau)
    rng = np.random.RandomState(seed)
    bump = random_trig_field(rng, grid, kmax=2).real
    bump = 0.5 * bump / max(1.0, float(np.max(np.abs(bump))))
    h = (1.0 + rng.uniform() + bump).astype(complex)[np.newaxis, np.newaxis]
    rhs = random_trig_field(rng, grid, kmax=3).real
    u, _, iterations, residual = _linear_solve(h, chart, eps, rhs, SolverConfig())
    back = laplace_beltrami(h, u, chart).real - eps * u
    # worst measured over 400 random cases: 5.0e-11
    assert np.max(np.abs(back - rhs)) < 2e-10 * max(1.0, float(np.max(np.abs(rhs))))
    assert 0 < iterations <= 30 * SolverConfig().linear_maxiter
    assert residual <= 1e-8


def test_elliptic_eps_positive_solves_run_lgmres(monkeypatch, perturbed_family):
    """Newton, linearized and continuation solves at n = 1, eps > 0 run lgmres,
    and each Newton step stops at its forcing term."""
    calls = []
    lgmres = cyflab.masolver.lgmres

    def counted(*args, **kwargs):
        calls.append(kwargs["rtol"])
        return lgmres(*args, **kwargs)

    monkeypatch.setattr("cyflab.masolver.lgmres", counted)
    form = perturbed_family.omega(1j)
    eta = eta_from_metric(form.gab, form.chart)
    config = SolverConfig()
    sol = solve_ma(MAProblem(chart=form.chart, gab=form.gab, eta=eta, epsilon=0.1))
    assert sol.residual_sup <= config.tol
    diag = sol.diagnostics
    assert all(its > 0 for its in diag["linear_iterations"])
    assert diag["linear_rtol"] == [max(config.linear_rtol, min(1e-2, 0.1 * res))
                                   for res in diag["residual_history"]]
    assert calls == diag["linear_rtol"]
    h = form.gab + ddc_fiber(sol.phi, form.chart)
    x, y = form.chart.grid.coords
    R = np.cos(2 * np.pi * x) + 1j * np.sin(2 * np.pi * (x + 2 * y))
    calls.clear()
    u = linearized_solve(h, form.chart, 0.1, R)
    back = -laplace_beltrami(h, u, form.chart) + 0.1 * u
    assert np.max(np.abs(back - R)) < 1e-9
    # the complex right-hand side is two real solves, at linear_rtol
    assert calls == [config.linear_rtol] * 2
    calls.clear()
    path = epsilon_continuation(perturbed_family, 1j, [1.0, 0.1, 0.01, 0.0])
    assert path.order > 0.95
    assert len(calls) == sum(sol.newton_iters for sol in path.solutions[:-1])


# the README's richer n = 2 potential: acceptance 4's chi plus two conjugate pairs
RICHER_MODES = {(2, 1, 0, 0, 0, 0): 0.004, (-2, -1, 0, 0, 0, 0): 0.004,
                (0, 0, 3, -1, 0, 0): 0.002, (0, 0, -3, 1, 0, 0): 0.002}


def acceptance4_problem(N, extra_modes=None, eps=0.0):
    """The Ricci-flat problem of acceptance 4 on an N^4 grid, and its potential chi.

    chi gives the flat metric <g> as the Ricci-flat one, so
    phi = -(chi - mean chi) exactly.  extra_modes adds terms to chi, and eps
    regularizes the problem.
    """
    grid = FiberGrid(2, N)
    chart = FiberChart.make(grid, omega_matrix=1j * np.eye(2))
    g = np.zeros((2, 2) + grid.shape, dtype=complex)
    g[0, 0] = g[1, 1] = 1.0
    g = as_metric(g)
    chi = FourierPoly(2, {
        (1, 0, 0, 0, 0, 0): 0.01, (-1, 0, 0, 0, 0, 0): 0.01,
        (0, 0, 0, 1, 0, 0): 0.008, (0, 0, 0, -1, 0, 0): 0.008, **(extra_modes or {}),
    }).eval(grid, 0.0).real
    g2 = g + ddc_fiber(chi, chart)
    return MAProblem(chart=chart, gab=g2, eta=eta_from_metric(g2, chart), epsilon=eps), chi


def test_forcing_terms(perturbed_family):
    """Forcing terms keep the Newton path and its answer, with fewer matvecs:
    at n = 2, eps = 0 and at n = 1, eps > 0."""
    n2, chi = acceptance4_problem(16)
    form = perturbed_family.omega(1j)
    n1 = MAProblem(chart=form.chart, gab=form.gab, eta=eta_from_metric(form.gab, form.chart),
                   epsilon=0.1)
    config = SolverConfig()
    prepare = cyflab.masolver._prepare_linear_solve

    def at_linear_rtol(h, det_h, chart, eps, rhs, config, rtol):
        return prepare(h, det_h, chart, eps, rhs, config, config.linear_rtol)

    solved = []
    for problem in (n2, n1):
        forced = solve_ma(problem, config)
        with patch("cyflab.masolver._prepare_linear_solve", at_linear_rtol):
            strict = solve_ma(problem, config)
        assert forced.newton_iters == strict.newton_iters
        diag = forced.diagnostics
        assert sum(diag["linear_iterations"]) < sum(strict.diagnostics["linear_iterations"])
        assert diag["linear_rtol"] == [max(config.linear_rtol, min(1e-2, 0.1 * res))
                                       for res in diag["residual_history"]]
        assert diag["residual_history"][0] == pytest.approx(float(np.max(np.abs(problem.eta))))
        assert all(0 < t <= 1 for t in diag["step_lengths"])
        solved.append((forced, strict))
    (forced_n2, _), (forced_n1, strict_n1) = solved
    assert np.max(np.abs(forced_n2.phi + chi - np.mean(chi))) < 1e-12
    assert np.max(np.abs(forced_n1.phi - strict_n1.phi)) < 1e-12


def _traced_solve(problem):
    """(solve_ma(problem), the real fields of traced allocations it held at once)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sol = solve_ma(problem)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return sol, peak / (8 * problem.chart.grid.num_nodes)


def test_n2_solve_peak_memory():
    """An n = 2 solve holds at most 36 real fields of traced allocations at once.

    The count takes in everything solve_ma allocates: the chart's spectral
    tables, the Newton iterates, the GMRES basis and every temporary.
    """
    sol, peak = _traced_solve(acceptance4_problem(12)[0])
    assert sol.newton_iters == 4 and sum(sol.diagnostics["linear_iterations"]) == 12
    assert peak <= 36, f"peak {peak:.1f} real fields"


def test_n2_solve_holds_only_what_the_next_step_reads():
    """The same solve as test_n2_solve_peak_memory, with its explicit eta,
    peaks at 18.08 real fields, in a GMRES matvec; the bound leaves 1.42.

    The Newton loop frees h, F and the last step u before each Krylov
    solve and keeps no zero forcing field, and the closing Delta_g phi
    takes the real Hessian weights of g, not herm_inverse(g).  The solve
    forms det g, drops it after the first step, and holds log det g and
    the KE density e^eta det g.
    """
    sol, peak = _traced_solve(acceptance4_problem(12)[0])
    assert sol.newton_iters == 4 and sum(sol.diagnostics["linear_iterations"]) == 12
    assert peak <= 19.5, f"peak {peak:.1f} real fields"


def test_n2_ricci_flat_solve_holds_no_density_field():
    """The Ricci-flat problem of the same metric peaks at 16.08 real fields,
    two fewer than with the explicit eta: it holds no log det g and no KE
    density, as its target density is the number vol g.  The bound leaves
    1.42 fields of margin."""
    explicit = acceptance4_problem(12)[0]
    problem = MAProblem(chart=explicit.chart, gab=explicit.gab, eta=None, epsilon=0.0)
    del explicit
    sol, peak = _traced_solve(problem)
    assert sol.newton_iters == 4 and sum(sol.diagnostics["linear_iterations"]) == 12
    assert peak <= 17.5, f"peak {peak:.1f} real fields"


@pytest.mark.parametrize("case, grid_n, band, levels", [
    ("n2", 16, 1, [8, 16]),
    ("n1-eps", 64, 1, [8, 16, 32, 64]),
    ("n1-eps", 32, 4, [16, 32]),
    ("n1", 64, 1, [64]),
    ("n2", 24, 1, [8, 12, 24]),
    ("n2", 20, 1, [8, 10, 20]),
])
def test_nested_levels_follow_the_even_floor_rule(case, grid_n, band, levels,
                                                  perturbed_family):
    """The level below N is at M = max(8, 2 floor(N/4)) when M < N and the
    input band lies below its Nyquist frequency M/2; the exact n = 1,
    eps = 0 step has none.  Each level records its own Newton steps and
    matvecs, and the answer is the direct solve's within rounding."""
    built = []

    def problem_at(N):
        built.append(N)
        if case == "n2":
            return acceptance4_problem(N)[0]
        fiber = perturbed_family.on_grid(N).fiber_metric(1j)
        return MAProblem(chart=fiber.chart, gab=fiber.gab,
                         eta=eta_from_metric(fiber.gab, fiber.chart),
                         epsilon=0.1 if case == "n1-eps" else 0.0)

    sol = solve_nested(problem_at, grid_n, band)
    assert built == levels[::-1]
    records = sol.diagnostics["levels"]
    assert [r["grid_n"] for r in records] == levels
    assert records[0]["start_residual"] is None
    assert all(r["start_residual"] > 0 for r in records[1:])
    fine = records[-1]
    assert fine["newton_iters"] == sol.newton_iters
    assert fine["matvecs"] == sum(sol.diagnostics["linear_iterations"])
    if len(levels) > 1:
        assert fine["start_residual"] == (sol.diagnostics["residual_history"] or
                                          [sol.residual_sup])[0]
    direct = solve_ma(problem_at(grid_n))
    assert sol.residual_sup <= SolverConfig().tol
    assert np.max(np.abs(sol.phi - direct.phi)) < 1e-13


def test_nested_solve_of_an_answer_that_is_not_band_limited():
    """The richer potential at eps = 1 on 24^4: the answer has modes above
    every coarse grid's Nyquist frequency, so the 24^4 level takes a step
    from the 12^4 answer (at most one), and phi is the direct solve's
    within 1e-11."""
    def problem_at(N):
        return acceptance4_problem(N, RICHER_MODES, eps=1.0)[0]

    sol = solve_nested(problem_at, 24, 3)
    records = sol.diagnostics["levels"]
    assert [r["grid_n"] for r in records] == [8, 12, 24]
    assert records[-1]["newton_iters"] == sol.newton_iters <= 1
    assert sol.residual_sup <= SolverConfig().tol
    direct = solve_ma(problem_at(24))
    assert np.max(np.abs(sol.phi - direct.phi)) < 1e-11


def unforced_problem(case, family):
    """A problem with no extra_f: n = 1 at eps = 0 and 0.1, n = 2, or one at its solution."""
    if case == "n2":
        return acceptance4_problem(8)[0]
    if case == "solved":
        grid = FiberGrid(1, 16)
        chart = FiberChart.make(grid, tau=1j)
        return MAProblem(chart=chart, gab=np.ones((1, 1) + grid.shape, dtype=complex),
                         eta=np.zeros(grid.shape), epsilon=0.0)
    form = family.omega(1j)
    return MAProblem(chart=form.chart, gab=form.gab, eta=eta_from_metric(form.gab, form.chart),
                     epsilon=0.1 if case == "n1-eps" else 0.0)


@pytest.mark.parametrize("case", ["n1", "n1-eps", "n2"])
def test_omitted_forcing_is_zero_forcing(case, perturbed_family):
    """extra_f omitted and an explicit zero field give the same bits."""
    problem = unforced_problem(case, perturbed_family)
    assert problem.extra_f is None
    zero = dataclasses.replace(problem, extra_f=np.zeros(problem.chart.grid.shape))
    omitted, zeroed = solve_ma(problem), solve_ma(zero)
    assert np.array_equal(omitted.phi, zeroed.phi) and np.array_equal(omitted.h, zeroed.h)
    assert omitted.diagnostics == zeroed.diagnostics


@pytest.mark.parametrize("case", ["n1", "n1-eps", "n2", "solved"])
def test_fiber_min_eig_is_that_of_the_returned_metric(case, perturbed_family):
    """The diagnostic reuses the last Newton step's eigenvalue, or takes g's
    when no step ran; either way it is herm_min_eig of the solution's h."""
    sol = solve_ma(unforced_problem(case, perturbed_family))
    assert (sol.newton_iters == 0) == (case == "solved")
    assert sol.diagnostics["fiber_min_eig"] == herm_min_eig(sol.h)


def test_damping_floor_names_its_cause():
    """The damping-floor error says whether the line search stagnated or
    lost positivity, with the residual it stopped at."""
    grid = FiberGrid(1, 16)
    chart = FiberChart.make(grid, tau=1j)
    g = np.ones((1, 1) + grid.shape, dtype=complex)
    x = grid.coords[0]
    phi_star = 0.1 * np.cos(2 * np.pi * x)
    problem = manufactured_problem(FiberMetric(chart, g), phi_star, 0.5)
    # below the rounding floor of F, no step can lower sup |F|
    with pytest.raises(SolverDivergence) as err:
        solve_ma(problem, SolverConfig(tol=1e-30))
    message, residual = str(err.value), err.value.residual
    assert message.startswith("damping floor reached (stagnation")
    assert "positivity" not in message and f"at residual {residual:.3e}" in message
    assert 0 < residual < 1e-11
    # an undamped Newton step that overshoots the positivity of h
    problem = MAProblem(chart=chart, gab=g, eta=2.0 * np.cos(2 * np.pi * x), epsilon=1.0)
    with pytest.raises(SolverDivergence) as err:
        solve_ma(problem, SolverConfig(damping_floor=1.0))
    assert str(err.value).startswith("damping floor reached (positivity loss")
    assert "stagnation" not in str(err.value) and err.value.residual == 2.0


def test_lgmres_solves_a_dense_nonsymmetric_system():
    """lgmres on its own, without a preconditioner, on a LinearOperator as traced.

    The system needs a restart (30 iterations per cycle) to reach rtol; an
    rtol out of reach returns info == maxiter with the iterate it has.
    """
    from scipy.sparse.linalg import LinearOperator

    rng = np.random.RandomState(0)
    m = 50
    A = 1.5 * np.eye(m) + rng.standard_normal((m, m)) / np.sqrt(m)
    b = rng.standard_normal(m)
    op = LinearOperator((m, m), matvec=lambda v: A @ v, dtype=float)
    residuals = []
    x, info = lgmres(op, b, rtol=1e-12, atol=0.0, maxiter=10, callback=residuals.append)
    assert info == 0 and len(residuals) >= 3
    assert residuals[-1] <= 1e-12 * residuals[0]
    exact = np.linalg.solve(A, b)
    assert np.max(np.abs(x - exact)) < 1e-10 * np.max(np.abs(exact))
    residuals = []
    x, info = lgmres(op, b, rtol=1e-300, atol=0.0, maxiter=2, callback=residuals.append)
    assert info == 2 and len(residuals) == 3
    assert np.max(np.abs(x - exact)) < 1e-8 * np.max(np.abs(exact))


def random_n2_metric(rng, N=8):
    """A random n = 2 chart and h = g + dd^c psi, psi small and band-limited."""
    chart, g0 = random_chart_and_metric(rng, 2, N)
    g = as_metric(g0[:, :, np.newaxis, np.newaxis, np.newaxis, np.newaxis]
                  * np.ones(chart.grid.shape))
    psi = random_trig_field(rng, chart.grid, kmax=1, terms=4).real
    hess = ddc_fiber(psi, chart)
    # dd^c is linear: scaling psi scales its hessian
    h = g + ddc_fiber(0.3 * herm_min_eig(g) / float(np.max(np.abs(hess))) * psi, chart)
    assert herm_min_eig(h) > 0
    return chart, h


def projected(rhs, h):
    det = herm_det(h).real
    return rhs - np.mean(rhs * det) / np.mean(det)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), eps=st.sampled_from([0.0, 0.4]))
def test_gmres_solves_n2(seed, eps):
    """At n = 2 the GMRES step solves Delta_h u - eps u = rhs for h = g + dd^c psi."""
    rng = np.random.RandomState(seed)
    chart, h = random_n2_metric(rng)
    rhs = random_trig_field(rng, chart.grid, kmax=3).real
    if eps == 0:
        rhs = projected(rhs, h)
    config = SolverConfig()
    u, fallbacks, iterations, residual = _linear_solve(h, chart, eps, rhs, config)
    back = laplace_beltrami(h, u, chart).real - eps * u
    if eps == 0:
        # at eps = 0 the solve drops the pure-Nyquist aliasing of Delta_h u
        drop_nyquist_modes(back)
    # worst measured over 1200 random cases: 5.4e-11
    assert np.max(np.abs(back - rhs)) < 5e-10 * max(1.0, float(np.max(np.abs(rhs))))
    assert fallbacks == 0 and iterations > 0
    assert residual <= config.linear_rtol


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_n2_laplacian_from_real_weights(seed):
    """At n = 2 the closing Delta_g phi, summed from the real Hessian weights
    of g, is g^{b a} phi_ab with g^{b a} from herm_inverse(g)."""
    rng = np.random.RandomState(seed)
    chart, g = random_n2_metric(rng)
    h = g + ddc_fiber(random_trig_field(rng, chart.grid, kmax=2).real, chart)
    gup = herm_inverse(g)
    expected = sum(gup[b, a] * (h[a, b] - g[a, b]) for a in range(2) for b in range(2)).real
    lap = _laplacian_of_potential(g, h)
    assert np.max(np.abs(lap - expected)) <= 1e-14 * float(np.max(np.abs(expected)))


def test_gmres_counts_true_residual_misses_n2():
    """An n = 2 solve that misses rtol on its true residual is counted, not trusted."""
    rng = np.random.RandomState(3)
    chart, h = random_n2_metric(rng)
    strict = SolverConfig(linear_rtol=1e-16, linear_maxiter=2)
    for eps in (0.4, 0.0):
        R = random_trig_field(rng, chart.grid, kmax=3).real
        if eps == 0:
            R = projected(R, h)
        diagnostics = {}
        linearized_solve(h, chart, eps, R, strict, diagnostics=diagnostics)
        assert diagnostics["linear_fallbacks"] >= 1
        fresh = {}
        linearized_solve(h, chart, eps, R, diagnostics=fresh)
        assert fresh == {"linear_fallbacks": 0}


def test_linear_residual_per_newton_step(perturbed_family):
    """Each Newton step records the true relative residual its linear solve ended at."""
    form = perturbed_family.omega(1j)
    eta = eta_from_metric(form.gab, form.chart)
    exact = solve_ma(MAProblem(chart=form.chart, gab=form.gab, eta=eta, epsilon=0.0))
    assert exact.diagnostics["linear_residual"] == [None] * exact.newton_iters
    cg = solve_ma(MAProblem(chart=form.chart, gab=form.gab, eta=eta, epsilon=0.1))
    chart, g = random_n2_metric(np.random.RandomState(5))
    gmres = solve_ma(MAProblem(chart=chart, gab=g, eta=eta_from_metric(g, chart),
                               epsilon=0.0))
    for sol in (cg, gmres):
        diag = sol.diagnostics
        assert diag["linear_fallbacks"] == 0
        assert len(diag["linear_residual"]) == sol.newton_iters > 0
        assert all(0 < res <= rtol
                   for res, rtol in zip(diag["linear_residual"], diag["linear_rtol"]))


def test_elliptic_eps0_solve_is_krylov_free(monkeypatch, perturbed_family):
    def no_krylov(*args, **kwargs):
        raise AssertionError("lgmres called on an n = 1, eps = 0 solve")

    monkeypatch.setattr("cyflab.masolver.lgmres", no_krylov)
    form = perturbed_family.omega(1j)
    eta = eta_from_metric(form.gab, form.chart)
    sol = solve_ma(MAProblem(chart=form.chart, gab=form.gab, eta=eta, epsilon=0.0))
    assert sol.newton_iters > 0
    assert sol.diagnostics["linear_fallbacks"] == 0
    assert sol.diagnostics["volume_residual"] < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), N=st.sampled_from([16, 32]),
       tau=st.sampled_from([1j, 0.3 + 1.1j]), warm=st.booleans())
def test_elliptic_eps0_one_exact_step(seed, N, tau, warm):
    """At n = 1, eps = 0 one Newton step solves the equation, with no Krylov solve."""
    grid = FiberGrid(1, N)
    chart = FiberChart.make(grid, tau=tau)
    rng = np.random.RandomState(seed)

    bump = random_trig_field(rng, grid, kmax=2).real
    bump = 0.4 * bump / max(1.0, float(np.max(np.abs(bump))))
    g = (1.0 + rng.uniform() + bump).astype(complex)[np.newaxis, np.newaxis]
    g_min = float(np.min(g[0, 0].real))

    def potential(kmax, hess_sup):
        # a random potential with sup |phi_{z z-bar}| = hess_sup
        f = random_trig_field(rng, grid, kmax=kmax).real
        return hess_sup * f / float(np.max(np.abs(ddc_fiber(f, chart)[0, 0].real)))

    phi_star = potential(3, 0.5 * g_min)
    problem = manufactured_problem(FiberMetric(chart, g), phi_star, 0.0)
    guess = potential(2, 0.25 * g_min) if warm else None
    with patch("cyflab.masolver.lgmres", side_effect=AssertionError("lgmres called")):
        sol = solve_ma(problem, initial_guess=guess)
    weight = np.exp(problem.extra_f) * g[0, 0].real
    expected = phi_star - np.mean(phi_star * weight) / np.mean(weight)
    assert sol.newton_iters == 1
    assert sol.diagnostics["linear_iterations"] == [0]
    assert sol.residual_sup <= 1e-12
    assert np.max(np.abs(sol.phi - expected)) <= 1e-12


def _record_guesses(monkeypatch):
    calls = []
    real_solve_ma = solve_ma

    def recording(problem, *args, initial_guess=None, **kwargs):
        sol = real_solve_ma(problem, *args, initial_guess=initial_guess, **kwargs)
        calls.append((initial_guess, sol))
        return sol

    monkeypatch.setattr("cyflab.masolver.solve_ma", recording)
    return calls


def test_stencil_eps0_points_solve_independently(monkeypatch, perturbed_family):
    calls = _record_guesses(monkeypatch)
    solutions = solve_stencil(perturbed_family, BaseStencil(center=1j), eps=0.0)
    assert len(calls) == 9
    assert all(guess is None for guess, _ in calls)
    assert sum(sol.newton_iters for sol in solutions.values()) == 9


def test_stencil_eps_positive_warm_starts_from_center(monkeypatch, perturbed_family):
    calls = _record_guesses(monkeypatch)
    solutions = solve_stencil(perturbed_family, BaseStencil(center=1j), eps=0.5)
    center_phi = solutions[(0, 0)].phi
    guesses = [guess for guess, sol in calls if sol is not solutions[(0, 0)]]
    assert len(guesses) == 8
    assert all(guess is center_phi for guess in guesses)


def test_config_validation():
    with pytest.raises(GeometryError):
        SolverConfig(tol=0.0)
    with pytest.raises(GeometryError):
        SolverConfig(linear_maxiter=0)


def test_linearized_examples(flat_setup):
    grid, chart, g = flat_setup
    x = grid.coords[0]
    R = np.cos(2 * np.pi * x)
    u = linearized_solve(g, chart, 1.0, R)
    assert np.max(np.abs(u - R / (1 + np.pi ** 2))) < 1e-12
    # zero right-hand side
    assert np.max(np.abs(linearized_solve(g, chart, 1.0, np.zeros(grid.shape)))) < 1e-14
    assert np.max(np.abs(linearized_solve(g, chart, 0.0, np.zeros(grid.shape)))) < 1e-14
    # eps = 0 without compatibility
    with pytest.raises(NormalizationError):
        linearized_solve(g, chart, 0.0, np.ones(grid.shape))


def test_linearized_solve_counts_fallbacks(flat_setup):
    """linearized_solve adds its Krylov fallbacks to a diagnostics dict."""
    grid, chart, g = flat_setup
    x, y = grid.coords
    R = np.cos(2 * np.pi * x) + 1j * np.sin(2 * np.pi * (x + 2 * y))
    strict = SolverConfig(linear_rtol=1e-16, linear_maxiter=2)
    diagnostics = {"linear_fallbacks": 3}
    u = linearized_solve(g, chart, 1.0, R, strict, diagnostics=diagnostics)
    assert isinstance(u, np.ndarray)
    # the complex right-hand side is two real Krylov solves
    assert diagnostics["linear_fallbacks"] >= 4
    fresh = {}
    linearized_solve(g, chart, 1.0, R, diagnostics=fresh)
    assert fresh == {"linear_fallbacks": 0}


def test_solve_ma_diagnostics_from_last_metric(perturbed_family):
    """The post-solve diagnostics reuse the last h and equal a recomputation."""
    form = perturbed_family.omega(0.2 + 1.0j)
    eta = eta_from_metric(form.gab, form.chart)
    sol = solve_ma(MAProblem(chart=form.chart, gab=form.gab, eta=eta, epsilon=0.0))
    lap = laplace_beltrami(form.gab, sol.phi, form.chart).real
    h = form.gab + ddc_fiber(sol.phi, form.chart)
    det_h = herm_det(h).real
    scale = max(1.0, float(np.max(np.abs(lap))))
    assert abs(sol.diagnostics["sup_lap_phi"] - np.max(np.abs(lap))) < 1e-12 * scale
    assert abs(sol.diagnostics["trace_min"] - np.min(1 + lap)) < 1e-12 * scale
    constancy = float(np.max(np.abs(det_h - np.mean(det_h))) / np.mean(det_h))
    assert abs(sol.diagnostics["det_h_constancy"] - constancy) < 1e-12


def test_linearized_round_trip(flat_setup):
    grid, chart, _ = flat_setup
    rng = np.random.RandomState(9)
    bump = random_trig_field(rng, grid, kmax=2).real
    h = (1.2 + 0.3 * bump / max(1.0, float(np.max(np.abs(bump)))))
    h = h.astype(complex)[np.newaxis, np.newaxis]
    for eps in (0.7, 0.0):
        R = random_trig_field(rng, grid).real
        if eps == 0:
            det = herm_det(h).real
            R = R - np.mean(R * det) / np.mean(det)
        u = linearized_solve(h, chart, eps, R)
        from cyflab.geometry import laplace_beltrami
        back = -laplace_beltrami(h, u, chart) + eps * u
        assert np.max(np.abs(back - R)) < 1e-10 * max(1.0, float(np.max(np.abs(R))))
        if eps == 0:
            det = herm_det(h)
            assert abs(np.mean(u * det) / np.mean(det)) < 1e-12


def test_continuation_trivial(elliptic_family):
    path = epsilon_continuation(elliptic_family, 1j, [1.0, 0.1, 0.0])
    assert path.sup_phi_max < 1e-12
    # every phi_eps is the eps = 0 one: no decay order to fit, and no NaN
    assert [row["sup_diff_to_limit"] for row in path.table] == [0.0, 0.0, 0.0]
    assert path.order is None
    for row in path.table:
        assert abs(row["ke_integral"]) < 1e-13


def test_continuation_schedule_validation(elliptic_family):
    with pytest.raises(GeometryError):
        epsilon_continuation(elliptic_family, 1j, [0.1, 0.5])
    with pytest.raises(GeometryError):
        epsilon_continuation(elliptic_family, 1j, [0.5, 0.5])


def test_continuation_table_counts_fallbacks():
    """Each continuation row reports the Krylov fallbacks of its solve.

    No Ricci-flat grid-16 solve was seen to miss its forcing term, so the
    rows may all read 0; test_linear_fallbacks_recorded counts a miss.
    """
    spec = FamilySpec(kind="universal_elliptic", chi=perturbation_chi(), grid_n=16,
                      base_samples=(1j,))
    strict = SolverConfig(linear_rtol=1e-16, linear_maxiter=2)
    path = epsilon_continuation(make_family(spec), 1j, [1.0, 0.5, 0.0], strict)
    counts = [row["linear_fallbacks"] for row in path.table]
    assert counts == [sol.diagnostics["linear_fallbacks"] for sol in path.solutions]
    assert counts[2] == 0       # the eps = 0 end takes the exact step


def test_continuation_perturbed(perturbed_family):
    path = epsilon_continuation(perturbed_family, 1j, [1.0, 0.3, 0.1, 0.03, 0.01, 0.0])
    assert path.order > 0.95
    for row in path.table:
        assert row["volume_residual"] < 1e-10
        if row["eps"] > 0:
            assert row["ke_identity_residual"] <= 10 * SolverConfig().tol
    diffs = [row["sup_diff_to_limit"] for row in path.table if row["eps"] > 0]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert np.isfinite(path.sup_phi_max) and np.isfinite(path.sup_lap_max)


def test_ke_identity_detects_shifted_potential(monkeypatch, perturbed_family):
    """phi_eps + 1e-6 fails the integrated fiber equation at every eps > 0, while
    |ke_integral| <= C eps holds by construction: C is the largest
    |ke_integral| / eps of the same rows."""
    import cyflab.masolver

    solve = cyflab.masolver.solve_ma

    def shifted(problem, *args, **kwargs):
        sol = solve(problem, *args, **kwargs)
        if problem.epsilon > 0:
            sol.phi = sol.phi + 1e-6
        return sol

    monkeypatch.setattr(cyflab.masolver, "solve_ma", shifted)
    path = epsilon_continuation(perturbed_family, 1j, [1.0, 0.3, 0.1, 0.03, 0.01, 0.0])
    rows = [row for row in path.table if row["eps"] > 0]
    assert all(abs(row["ke_integral"]) <= path.c_normalization * row["eps"] * (1 + 1e-9)
               for row in rows)
    assert all(row["ke_identity_residual"] > 10 * SolverConfig().tol for row in rows)


def test_stencil_offsets():
    stencil = BaseStencil(center=1j, h_s=1e-3)
    assert len(stencil.offsets()) == 9
    assert stencil.point(1, -1) == 1j + 1e-3 * (1 - 1j)
    with pytest.raises(GeometryError):
        BaseStencil(center=1j, h_s=0.0)


def test_fiberwise_ricci_flat_elliptic(elliptic_family):
    rho = fiberwise_ricci_flat(elliptic_family, BaseStencil(center=1j, h_s=1e-3))
    assert np.max(np.abs(rho.phi)) < 1e-12
    assert rho.solutions[(0, 0)].diagnostics["det_h_constancy"] < 1e-12
    # rho equals the model form exactly
    assert np.max(np.abs(rho.form.gss - rho.omega.gss)) < 1e-8
    assert np.max(np.abs(rho.form.gsb - rho.omega.gsb)) < 1e-8


def test_fiberwise_ricci_flat_perturbed(perturbed_family):
    rho = fiberwise_ricci_flat(perturbed_family, BaseStencil(center=0.2 + 1.0j, h_s=1e-3))
    # the flat representative of the fiber class is (1/Im s) * flat
    assert np.max(np.abs(rho.form.gab[0, 0] - 1.0)) < 1e-6
    assert rho.solutions[(0, 0)].diagnostics["det_h_constancy"] < 1e-8
    # rho's fiber block is the solve's own metric
    assert np.array_equal(rho.form.gab[0, 0], rho.solutions[(0, 0)].h[0, 0])
    sol = rho.solutions[(0, 0)]
    assert sol.diagnostics["volume_residual"] < 1e-10
    # KE normalization holds on every stencil fiber
    for key in rho.solutions:
        om = rho.solutions[key].problem
        det_rho = herm_det(om.gab + ddc_fiber(rho.solutions[key].phi, om.chart)).real
        val = np.mean(rho.solutions[key].phi * det_rho) / np.mean(det_rho)
        assert abs(val) < 1e-12


def test_mixed_component_hermiticity(perturbed_family):
    """conj(D_s dzbar phi) equals dz(D_sbar phi) within the FD budget."""
    from cyflab.geometry import d_z, d_zbar

    stencil = BaseStencil(center=0.2 + 1.0j, h_s=1e-3)
    rho = fiberwise_ricci_flat(perturbed_family, stencil)
    phis = rho.phi_stack()
    dzb = {k: d_zbar(phis[k], rho.solutions[k].problem.chart) for k in phis}
    chart = rho.form.chart
    tau = perturbed_family.tau(stencil.center)
    taup = perturbed_family.tau_prime(stencil.center)
    D = tau - np.conj(tau)
    y = chart.grid.coords[1]
    lhs = stencil.ds(dzb) - taup * y * d_z(dzb[(0, 0)], chart)
    # dz(D_sbar phi) with the y-weighted term expanded by the product rule
    # (y itself is not periodic, so it never enters a transform)
    phi0_zb = d_zbar(phis[(0, 0)], chart)
    rhs = d_z(stencil.dsbar(phis), chart) \
        - np.conj(taup) * (phi0_zb / D + y * d_z(phi0_zb, chart))
    assert np.max(np.abs(lhs - np.conj(rhs))) < 1e-7


def test_semiflat_shift_matches_reference(product_family):
    stencil = BaseStencil(center=0.2 + 0.3j, h_s=1e-3)
    rho = fiberwise_ricci_flat(product_family, stencil, normalization=KE_VOLUME)
    shift = semiflat_shift(rho)
    sols_ref = solve_stencil(product_family, stencil, 0.0, None, REFERENCE_VOLUME)
    for key in sols_ref:
        assert np.max(np.abs(shift["psi"][key] - sols_ref[key].phi)) < 1e-10
        assert shift["psi_integral_residual"][key] < 1e-10
    assert np.isfinite(abs(shift["ddc_A"]))


def test_semiflat_requires_ke(product_family):
    stencil = BaseStencil(center=0.2 + 0.3j, h_s=1e-3)
    rho = fiberwise_ricci_flat(product_family, stencil, normalization=REFERENCE_VOLUME)
    with pytest.raises(GeometryError):
        semiflat_shift(rho)


def test_ricci_flat_problem_eta_family(perturbed_family):
    metric = perturbed_family.fiber_metric(1j)
    eta = eta_from_metric(metric.gab, metric.chart)
    form = perturbed_family.omega(1j)
    lhs = fiber_integral(np.exp(eta), form.chart, metric=form.gab)
    rhs = fiber_integral(np.ones(perturbed_family.grid.shape), form.chart,
                         metric=form.gab)
    assert abs(lhs / rhs - 1) < 1e-12


@pytest.mark.parametrize("kind", ["universal_elliptic", "product-n2"])
def test_ricci_flat_problem_holds_only_its_inputs(kind):
    """A Ricci-flat problem holds no grid-sized array but gab: no eta, det g
    or log det g.  An eta_from_metric given to MAProblem is an explicit eta."""
    family, s = BUILDER_FAMILIES[kind]
    metric = family.fiber_metric(s)
    problem = ricci_flat_problem(metric, 0.0)
    assert problem.ricci_flat
    nodes = metric.chart.grid.num_nodes
    held = [name for name, value in vars(problem).items()
            if name != "gab" and isinstance(value, np.ndarray) and value.size >= nodes]
    assert held == []
    assert problem.eta is None
    eta = eta_from_metric(metric.gab, metric.chart)
    assert not MAProblem(chart=metric.chart, gab=metric.gab, eta=eta, epsilon=0.0).ricci_flat


def test_replace_keeps_a_ricci_flat_problem_ricci_flat(perturbed_family):
    """A Ricci-flat problem's eta is None, so a dataclasses.replace copy is
    Ricci-flat too, on its own gab: it solves as ricci_flat_problem does."""
    metric = perturbed_family.fiber_metric(1j)
    base = ricci_flat_problem(metric, 0.0)
    moved = dataclasses.replace(base, epsilon=0.1)
    assert moved.ricci_flat and moved.eta is None
    direct = solve_ma(ricci_flat_problem(metric, 0.1))
    assert solve_ma(moved).phi.tobytes() == direct.phi.tobytes()
    other = dataclasses.replace(base, gab=2.0 * metric.gab)
    assert other.ricci_flat and other.eta is None


def test_a_forcing_needs_an_eta(perturbed_family):
    """MAProblem refuses a forcing f with eta None: no problem is Ricci-flat
    and forced at once, and no builder makes one."""
    metric = perturbed_family.fiber_metric(1j)
    with pytest.raises(GeometryError):
        MAProblem(metric.chart, metric.gab, eta=None, epsilon=0.0,
                  extra_f=np.zeros(metric.chart.grid.shape))


def test_ricci_flat_solve_rejects_an_infinite_volume(flat_setup):
    """The Ricci-flat target density is the number vol g: a metric whose det g
    is infinite gives no target, and the solve raises InvalidFieldError."""
    _, chart, g = flat_setup
    problem = MAProblem(chart=chart, gab=np.full_like(g, np.inf), eta=None, epsilon=0.0)
    assert problem.ricci_flat
    with pytest.raises(InvalidFieldError, match="vol g"):
        solve_ma(problem)


def _record_calls(monkeypatch, function):
    """Every module binding of geometry.<function>, wrapped to record its first argument."""
    real = getattr(cyflab.geometry, function)
    seen = []

    def recording(g, *args, **kwargs):
        seen.append(g)
        return real(g, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cyflab") and getattr(module, function, None) is real:
            monkeypatch.setattr(module, function, recording)
    return seen


def test_one_step_solve_forms_each_determinant_once(monkeypatch, perturbed_family):
    """A one-step n = 1, eps = 0 Ricci-flat solve, its problem built in it,
    forms det g once (for vol g and as the first det h, which the step
    reads) and det h of the step's residual once (which the closing
    diagnostics read); the problem forms none."""
    metric = perturbed_family.fiber_metric(1j)
    dets = _record_calls(monkeypatch, "herm_det")
    sol = solve_ma(ricci_flat_problem(metric, 0.0))
    assert sol.newton_iters == 1
    assert len(dets) == 2
    assert dets[0] is metric.gab and dets[1] is sol.h


@pytest.mark.parametrize("n", [1, 2])
def test_manufactured_problem_forms_each_determinant_once(monkeypatch, n):
    """A manufactured problem forms det g once, for the log det g the forcing
    reads, and det h* for the forcing; a phi* whose h* is not positive is
    still rejected."""
    rng = np.random.RandomState(40 + n)
    chart, h = random_chart_and_metric(rng, n, 16 if n == 1 else 8)
    g = as_metric(np.broadcast_to(h.reshape(h.shape + (1,) * (2 * n)),
                                  h.shape + chart.grid.shape).copy())
    phi_star = 0.002 * random_trig_field(rng, chart.grid, kmax=2).real
    dets = _record_calls(monkeypatch, "herm_det")
    problem = manufactured_problem(FiberMetric(chart, g), phi_star, 0.3)
    assert len(dets) == 2
    assert dets[0] is g
    h_star = dets[1]
    ref = np.log(cyflab.geometry.herm_det(h_star).real) \
        - np.log(cyflab.geometry.herm_det(g).real) - 0.3 * phi_star
    assert np.array_equal(problem.extra_f, ref)
    with pytest.raises(DefinitenessError, match=r"manufactured phi\* breaks fiber positivity"):
        manufactured_problem(FiberMetric(chart, g), 1e3 * phi_star, 0.3)


def test_problem_rejects_a_metric_with_a_nan_node(flat_setup):
    _, chart, g = flat_setup
    bad = g.copy()
    bad[0, 0, 1, 2] = np.nan
    with pytest.raises(DefinitenessError, match="fiber-positive reference form"):
        MAProblem(chart=chart, gab=bad, eta=None, epsilon=0.0)


def test_nan_metric_iterate_counts_as_lost_positivity(monkeypatch, flat_setup):
    """A Newton iterate whose metric has a NaN node fails the positivity
    test: from an initial guess with DefinitenessError, in the line search
    as a positivity loss."""
    _, chart, g = flat_setup
    real_ddc = cyflab.masolver.ddc_fiber

    def nan_ddc(f, c):
        out = real_ddc(f, c)
        out[0, 0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(cyflab.masolver, "ddc_fiber", nan_ddc)
    eta = 0.1 * np.cos(2 * np.pi * chart.grid.coords[0])
    problem = MAProblem(chart=chart, gab=g, eta=eta - np.log(np.mean(np.exp(eta))),
                        epsilon=0.0)
    with pytest.raises(DefinitenessError, match="initial guess"):
        solve_ma(problem, initial_guess=np.zeros(chart.grid.shape))
    with pytest.raises(SolverDivergence, match="positivity loss"):
        solve_ma(problem)


def test_one_positivity_check_per_ricci_flat_problem(monkeypatch, perturbed_family):
    """A Ricci-flat problem checks its fiber metric once: on each stencil
    point, and once for all the problems of an eps continuation, which share
    one checked metric."""
    checked = _record_calls(monkeypatch, "herm_min_eig")
    solutions = solve_stencil(perturbed_family, BaseStencil(center=1j), eps=0.5)
    for sol in solutions.values():
        assert sum(g is sol.problem.gab for g in checked) == 1
    checked.clear()
    path = epsilon_continuation(perturbed_family, 1j, [1.0, 0.1])
    # the two problems of the schedule and the closing eps = 0 one
    assert sum(g is path.solutions[0].problem.gab for g in checked) == 1


def _builder_family(kind, s, **spec):
    return make_family(FamilySpec(kind=kind, grid_n=16, base_samples=(s,), **spec)), s


# (family, base point) of each n = 1 kind and of the n = 2 product, on 16 grids
BUILDER_FAMILIES = {
    "product": _builder_family("product", 0.2 + 0.3j, tau0=0.3 + 1.1j, chi=perturbation_chi()),
    "universal_elliptic": _builder_family("universal_elliptic", 0.2 + 1.0j,
                                          chi=perturbation_chi()),
    "modulus_map": _builder_family("modulus_map", 0.3 + 0.2j, modulus_coeffs=(1j, 0.5),
                                   chi=perturbation_chi()),
    "product-n2": _builder_family(
        "product", 0.2 + 0.3j, n=2,
        omega_matrix=np.array([[1.1j, 0.1 + 0.05j], [0.1 + 0.05j, 0.2 + 0.9j]]),
        chi=FourierPoly(2, {(1, 0, 0, 0, 0, 0): 0.01, (-1, 0, 0, 0, 0, 0): 0.01,
                            (0, 0, 1, 1, 0, 0): 0.004j, (0, 0, -1, -1, 0, 0): -0.004j})),
}


@pytest.mark.parametrize("kind", sorted(BUILDER_FAMILIES))
def test_eta_from_metric_is_its_formula(kind):
    """eta_from_metric is -log det g + log mean det g, bit for bit, by these
    operations: the explicit-eta problem a benchmark times stays the same."""
    family, s = BUILDER_FAMILIES[kind]
    metric = family.fiber_metric(s)
    det_g = herm_det(metric.gab, real=True)
    eta = np.log(det_g)
    np.negative(eta, out=eta)
    eta += np.log(np.mean(det_g))
    assert np.array_equal(eta_from_metric(metric.gab, metric.chart), eta)


def _positivity_limit(metric, psi) -> float:
    """sup t with g + t dd^c psi positive-definite: the least positive root
    over nodes of det(g + t dd^c psi) = c + b t + a t^2 (a = 0 at n = 1)."""
    c = herm_det(metric.gab).real
    plus = herm_det(metric.gab + ddc_fiber(psi, metric.chart)).real
    minus = herm_det(metric.gab + ddc_fiber(-psi, metric.chart)).real
    b = (plus - minus) / 2
    a = (plus + minus) / 2 - c
    disc = b * b - 4 * a * c
    denom = -b + np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore"):
        roots = np.where((disc >= 0) & (denom > 0), 2 * c / denom, np.inf)
    return float(np.min(roots))


_MODE = st.tuples(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                  st.floats(0.1, 1.0), st.floats(0.0, 2 * np.pi))


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(sorted(BUILDER_FAMILIES)), modes=st.lists(_MODE, min_size=1,
                                                                      max_size=3),
       fraction=st.floats(0.0, 0.9, exclude_min=True), eps=st.sampled_from([0.0, 0.01, 1.0]))
def test_problem_builders_on_random_potentials(kind, modes, fraction, eps):
    """A manufactured phi* of up to three modes, at a fraction of at most 0.9
    of its positivity limit, is recovered by solve_ma and by solve_nested, or
    the solve raises SolverDivergence or DefinitenessError.  A returned solve
    meets its tol and counts as fallbacks exactly the steps whose linear
    residual missed their rtol."""
    family, s = BUILDER_FAMILIES[kind]
    n = family.n
    # one mode per frequency up to sign, so that no two cancel
    waves = {}
    for k, amplitude, phase in modes:
        k = tuple(k[:2 * n])
        sign = next((1 if v > 0 else -1 for v in k if v), 0)
        if sign:
            waves[tuple(sign * v for v in k)] = amplitude, sign * phase
    assume(waves)

    def shape_on(grid):
        return sum(a * np.cos(2 * np.pi * sum(kk * grid.coords[ax] for ax, kk in enumerate(k))
                              + phase) for k, (a, phase) in waves.items())

    metric = family.fiber_metric(s)
    scale = fraction * _positivity_limit(metric, shape_on(metric.chart.grid))
    phi_star = scale * shape_on(metric.chart.grid)

    def problem_at(grid_n):
        fine = family.on_grid(grid_n).fiber_metric(s)
        return manufactured_problem(fine, scale * shape_on(fine.chart.grid), eps)

    band = max(family.chi.max_frequency(), *(max(map(abs, k)) for k in waves))
    normalization = REFERENCE_VOLUME if eps == 0 else NO_NORMALIZATION
    expected = phi_star
    if eps == 0:
        det_g = herm_det(metric.gab).real
        expected = phi_star - np.mean(phi_star * det_g) / np.mean(det_g)
    config = SolverConfig()
    for solve in (lambda: solve_ma(problem_at(16), config, normalization),
                  lambda: solve_nested(problem_at, 16, band, config, normalization)):
        try:
            sol = solve()
        except (SolverDivergence, DefinitenessError):
            continue
        assert sol.residual_sup <= config.tol
        assert np.max(np.abs(sol.phi - expected)) <= 1e-9
        trace = sol.diagnostics
        missed = sum(res is not None and res > rtol
                     for res, rtol in zip(trace["linear_residual"], trace["linear_rtol"]))
        assert trace["linear_fallbacks"] == missed
