import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyflab.geometry import (
    FiberChart,
    FiberGrid,
    GeometryError,
    NormalizationError,
    ddc_fiber,
    fiber_integral,
    herm_det,
    laplace_beltrami,
)
from cyflab.masolver import (
    BaseStencil,
    KE_VOLUME,
    MAProblem,
    REFERENCE_VOLUME,
    SolverConfig,
    SolverDivergence,
    _linear_solve,
    compute_eta,
    epsilon_continuation,
    eta_from_metric,
    fiberwise_ricci_flat,
    linearized_solve,
    semiflat_shift,
    solve_ma,
    solve_stencil,
)
from cyflab.models import FamilySpec, make_family
from conftest import perturbation_chi, random_trig_field


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
    hess = ddc_fiber(phi_star, chart)[0, 0].real
    extra_f = np.log(1.0 + hess) - 0.5 * phi_star
    problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape),
                        epsilon=0.5, extra_f=extra_f)
    sol = solve_ma(problem)
    assert np.max(np.abs(sol.phi - phi_star)) < 1e-10
    assert sol.residual_sup < 1e-11
    assert sol.diagnostics["fiber_min_eig"] > 0


def test_uniqueness_eps_positive(flat_setup):
    grid, chart, g = flat_setup
    x, y = grid.coords
    phi_star = 0.05 * np.cos(2 * np.pi * x)
    extra_f = np.log(1.0 + ddc_fiber(phi_star, chart)[0, 0].real) - phi_star
    problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape),
                        epsilon=1.0, extra_f=extra_f)
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
    extra_f = np.log(herm_det(g + ddc_fiber(phi_star, chart)).real)
    problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape),
                        epsilon=0.0, extra_f=extra_f)
    sol = solve_ma(problem, normalization=REFERENCE_VOLUME)
    assert np.max(np.abs(sol.phi - phi_star)) < 1e-9
    assert sol.diagnostics["volume_residual"] < 1e-10


def test_compatibility_enforced(flat_setup):
    grid, chart, g = flat_setup
    problem = MAProblem(chart=chart, gab=g, eta=0.1 * np.ones(grid.shape), epsilon=0.0)
    with pytest.raises(NormalizationError):
        solve_ma(problem)


def test_divergence_reported(flat_setup):
    grid, chart, g = flat_setup
    x = grid.coords[0]
    phi_star = 0.1 * np.cos(2 * np.pi * x)
    hess = ddc_fiber(phi_star, chart)[0, 0].real
    extra_f = np.log(1.0 + hess) - 0.5 * phi_star
    problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape),
                        epsilon=0.5, extra_f=extra_f)
    with pytest.raises(SolverDivergence) as err:
        solve_ma(problem, SolverConfig(max_iters=2))
    assert err.value.residual is not None


def test_linear_fallbacks_recorded():
    """Krylov solves that miss rtol but pass the true-residual check are counted."""
    grid = FiberGrid(1, 16)
    chart = FiberChart.make(grid, tau=1j)
    g = np.ones((1, 1) + grid.shape, dtype=complex)
    x = grid.coords[0]
    phi_star = 0.1 * np.cos(2 * np.pi * x)
    extra_f = np.log(1.0 + ddc_fiber(phi_star, chart)[0, 0].real) - 0.5 * phi_star
    problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape),
                        epsilon=0.5, extra_f=extra_f)
    strict = solve_ma(problem, SolverConfig(linear_rtol=1e-16, linear_maxiter=2))
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
    u, fallbacks = _linear_solve(h, chart, 0.0, rhs, SolverConfig())
    det = herm_det(h).real
    projected = rhs - np.mean(rhs * det) / np.mean(det)
    lap = laplace_beltrami(h, u, chart).real
    assert fallbacks == 0
    assert np.max(np.abs(lap - projected)) < 1e-11 * max(1.0, float(np.max(np.abs(rhs))))
    assert abs(np.mean(u)) < 1e-15 * max(1.0, float(np.max(np.abs(u))))


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


def test_config_validation():
    with pytest.raises(GeometryError):
        SolverConfig(tol=0.0)


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
    for row in path.table:
        assert abs(row["ke_integral"]) < 1e-13


def test_continuation_schedule_validation(elliptic_family):
    with pytest.raises(GeometryError):
        epsilon_continuation(elliptic_family, 1j, [0.1, 0.5])
    with pytest.raises(GeometryError):
        epsilon_continuation(elliptic_family, 1j, [0.5, 0.5])


def test_continuation_table_counts_fallbacks():
    """Each continuation row reports the Krylov fallbacks of its solve."""
    spec = FamilySpec(kind="universal_elliptic", chi=perturbation_chi(), grid_n=16,
                      base_samples=(1j,))
    strict = SolverConfig(linear_rtol=1e-16, linear_maxiter=2)
    path = epsilon_continuation(make_family(spec), 1j, [1.0, 0.5, 0.0], strict)
    counts = [row["linear_fallbacks"] for row in path.table]
    assert counts == [sol.diagnostics["linear_fallbacks"] for sol in path.solutions]
    assert counts[0] >= 1 and counts[1] >= 1
    assert counts[2] == 0       # the eps = 0 end takes the exact step


def test_continuation_perturbed(perturbed_family):
    path = epsilon_continuation(perturbed_family, 1j, [1.0, 0.3, 0.1, 0.03, 0.01, 0.0])
    assert path.order > 0.95
    for row in path.table:
        assert row["volume_residual"] < 1e-10
        if row["eps"] > 0:
            assert abs(row["ke_integral"]) <= path.c_normalization * row["eps"] * (1 + 1e-9)
    diffs = [row["sup_diff_to_limit"] for row in path.table if row["eps"] > 0]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert np.isfinite(path.sup_phi_max) and np.isfinite(path.sup_lap_max)


def test_stencil_offsets():
    stencil = BaseStencil(center=1j, h_s=1e-3)
    assert len(stencil.offsets()) == 9
    assert stencil.point(1, -1) == 1j + 1e-3 * (1 - 1j)
    with pytest.raises(GeometryError):
        BaseStencil(center=1j, h_s=0.0)


def test_fiberwise_ricci_flat_elliptic(elliptic_family):
    rho = fiberwise_ricci_flat(elliptic_family, BaseStencil(center=1j, h_s=1e-3))
    assert np.max(np.abs(rho.phi)) < 1e-12
    assert rho.ricci_constancy() < 1e-12
    # rho equals the model form exactly
    assert np.max(np.abs(rho.form.gss - rho.omega.gss)) < 1e-8
    assert np.max(np.abs(rho.form.gsb - rho.omega.gsb)) < 1e-8


def test_fiberwise_ricci_flat_perturbed(perturbed_family):
    rho = fiberwise_ricci_flat(perturbed_family, BaseStencil(center=0.2 + 1.0j, h_s=1e-3))
    # the flat representative of the fiber class is (1/Im s) * flat
    assert np.max(np.abs(rho.form.gab[0, 0] - 1.0)) < 1e-6
    assert rho.ricci_constancy() < 1e-8
    sol = rho.solutions[(0, 0)]
    assert sol.diagnostics["volume_residual"] < 1e-10
    # KE normalization holds on every stencil fiber
    for key in rho.solutions:
        om = rho.omegas[key]
        det_rho = herm_det(om.gab + ddc_fiber(rho.solutions[key].phi, om.chart)).real
        val = np.mean(rho.solutions[key].phi * det_rho) / np.mean(det_rho)
        assert abs(val) < 1e-12


def test_mixed_component_hermiticity(perturbed_family):
    """conj(D_s dzbar phi) equals dz(D_sbar phi) within the FD budget."""
    from cyflab.geometry import d_z, d_zbar
    from cyflab.masolver import _fd_ds, _fd_dsbar

    stencil = BaseStencil(center=0.2 + 1.0j, h_s=1e-3)
    rho = fiberwise_ricci_flat(perturbed_family, stencil)
    phis = rho.phi_stack()
    dzb = {k: d_zbar(phis[k], rho.omegas[k].chart) for k in phis}
    chart = rho.form.chart
    tau = perturbed_family.tau(stencil.center)
    taup = perturbed_family.tau_prime(stencil.center)
    D = tau - np.conj(tau)
    y = chart.grid.coords[1]
    lhs = _fd_ds(dzb, stencil.h_s) - taup * y * d_z(dzb[(0, 0)], chart)
    # dz(D_sbar phi) with the y-weighted term expanded by the product rule
    # (y itself is not periodic, so it never enters a transform)
    phi0_zb = d_zbar(phis[(0, 0)], chart)
    rhs = d_z(_fd_dsbar(phis, stencil.h_s), chart) \
        - np.conj(taup) * (phi0_zb / D + y * d_z(phi0_zb, chart))
    assert np.max(np.abs(lhs - np.conj(rhs))) < 1e-7


def test_semiflat_shift_matches_reference(product_family):
    stencil = BaseStencil(center=0.2 + 0.3j, h_s=1e-3)
    rho = fiberwise_ricci_flat(product_family, stencil, normalization=KE_VOLUME)
    shift = semiflat_shift(rho)
    sols_ref, _ = solve_stencil(product_family, stencil, 0.0, None, REFERENCE_VOLUME)
    for key in sols_ref:
        assert np.max(np.abs(shift["psi"][key] - sols_ref[key].phi)) < 1e-10
        assert shift["psi_integral_residual"][key] < 1e-10
    assert np.isfinite(abs(shift["ddc_A"]))


def test_semiflat_requires_ke(product_family):
    stencil = BaseStencil(center=0.2 + 0.3j, h_s=1e-3)
    rho = fiberwise_ricci_flat(product_family, stencil, normalization=REFERENCE_VOLUME)
    with pytest.raises(GeometryError):
        semiflat_shift(rho)


def test_compute_eta_family(perturbed_family):
    eta = compute_eta(perturbed_family, 1j)
    form = perturbed_family.omega(1j)
    lhs = fiber_integral(np.exp(eta), form.chart, metric=form.gab)
    rhs = fiber_integral(np.ones(perturbed_family.grid.shape), form.chart,
                         metric=form.gab)
    assert abs(lhs / rhs - 1) < 1e-12
