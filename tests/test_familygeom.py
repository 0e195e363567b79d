import numpy as np
import pytest

from cyflab.familygeom import (
    combined_form_min_eig,
    contraction_residual,
    curvature_report,
    dbar_closedness_residual,
    dbar_star_residual,
    dbar_vertical,
    direct_image_report,
    geodesic_curvature,
    horizontal_lift,
    kodaira_spencer_norm,
    pde_residual,
    semmes_residual,
    theta_E,
    vbarvphi_cross_check,
    vphi_cross_check,
    wp_norm,
)
from cyflab.geometry import FiberChart, FiberGrid, fiber_integral
from cyflab.masolver import BaseStencil, SolverConfig, fiberwise_ricci_flat
from cyflab.models import FamilySpec, make_family, random_positive_form
from conftest import perturbation_chi


@pytest.fixture(scope="module")
def elliptic_rho(elliptic_family):
    return {s: fiberwise_ricci_flat(elliptic_family, BaseStencil(center=s, h_s=1e-3))
            for s in (1j, 0.3 + 0.8j, 2j)}


@pytest.fixture(scope="module")
def perturbed_rho(perturbed_family):
    return fiberwise_ricci_flat(perturbed_family,
                                BaseStencil(center=0.2 + 1.0j, h_s=1e-3))


# -- algebraic identities -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_random_form_identities(n):
    rng = np.random.RandomState(13 + n)
    grid = FiberGrid(n, 16 if n == 1 else 10)
    chart = FiberChart.make(grid, tau=1j) if n == 1 else \
        FiberChart.make(grid, omega_matrix=np.array([[1j, 0.1], [0.1, 1.2j]]))
    for _ in range(20):
        form = random_positive_form(rng, grid, chart)
        assert semmes_residual(form) < 1e-11
        assert contraction_residual(form) < 1e-11
        if n == 1:
            det = form.gss * form.gab[0, 0] - np.abs(form.gsb[0]) ** 2
            c = geodesic_curvature(form)
            assert np.max(np.abs(c - det / form.gab[0, 0])) < 1e-12


def test_dbar_closedness_n2():
    rng = np.random.RandomState(31)
    grid = FiberGrid(2, 10)
    chart = FiberChart.make(grid, omega_matrix=np.array([[1j, 0.1], [0.1, 1.2j]]))
    form = random_positive_form(rng, grid, chart)
    fld = dbar_vertical(form)
    assert dbar_closedness_residual(fld, form) < 1e-10


def test_product_metric_lift(grid64):
    chart = FiberChart.make(grid64, tau=1j)
    from cyflab.models import FamilyForm
    gab = np.ones((1, 1) + grid64.shape, dtype=complex)
    gss = np.full(grid64.shape, 2.0, dtype=complex)
    form = FamilyForm(chart=chart, s=1j, gss=gss,
                      gsb=np.zeros((1,) + grid64.shape, dtype=complex), gab=gab)
    assert np.max(np.abs(horizontal_lift(form))) == 0.0
    assert np.max(np.abs(geodesic_curvature(form) - 2.0)) < 1e-14


# -- section 8 closed forms -----------------------------------------------------


def test_elliptic_geodesic_curvature(elliptic_rho, elliptic_family):
    for s, rho in elliptic_rho.items():
        c = geodesic_curvature(rho.form)
        assert np.max(np.abs(c - elliptic_family.ricci_flat_closed_form(s).c)) < 1e-12
        assert semmes_residual(rho.form) < 1e-12
        assert contraction_residual(rho.form) < 1e-12


def test_elliptic_lift_and_dbar(elliptic_rho, elliptic_family):
    y = elliptic_family.grid.coords[1]
    for s, rho in elliptic_rho.items():
        exact = elliptic_family.ricci_flat_closed_form(s)
        a = horizontal_lift(rho.form)
        assert np.max(np.abs(a[0] - elliptic_family.tau_prime(s) * y)) < 1e-10
        fld = dbar_vertical(rho.form)
        assert np.max(np.abs(fld.A[0, 0] - exact.dbar_a)) < 1e-10
        assert np.max(np.abs(fld.norm2 - exact.theta)) < 1e-10


def test_elliptic_theta_and_wp(elliptic_rho, elliptic_family):
    for s, rho in elliptic_rho.items():
        th = theta_E(elliptic_family, rho.stencil)
        expected = elliptic_family.ricci_flat_closed_form(s).theta
        assert abs(th - expected) < 1e-5
        assert abs(wp_norm(rho.form) - expected) < 1e-12
        assert abs(kodaira_spencer_norm(rho.form) - expected) < 1e-12


def test_elliptic_pde_and_positivity(elliptic_rho, elliptic_family):
    for s, rho in elliptic_rho.items():
        res = pde_residual(rho)
        assert np.max(np.abs(res)) < 1e-5
        di = direct_image_report(rho)
        assert abs(di["direct_image"] - elliptic_family.ricci_flat_closed_form(s).c) < 1e-10
        assert di["positive"]


def test_elliptic_harmonicity(elliptic_rho):
    for rho in elliptic_rho.values():
        assert dbar_star_residual(rho.form, rho.omega, 0.0) < 1e-10


def test_corollary71_constancy(elliptic_rho):
    """Fiber-constancy of |dbar v|^2 forces fiber-constancy of c(rho)."""
    for rho in elliptic_rho.values():
        fld = dbar_vertical(rho.form)
        c = geodesic_curvature(rho.form)
        assert float(np.ptp(fld.norm2)) < 1e-12
        assert float(np.ptp(c)) < 1e-12


# -- perturbed family -----------------------------------------------------------


def test_perturbed_pde_residual(perturbed_rho):
    res = pde_residual(perturbed_rho)
    assert np.max(np.abs(res)) < 5e-5


def test_perturbed_pde_residual_refines(perturbed_family):
    sups = {}
    for h in (1e-3, 5e-4):
        rho = fiberwise_ricci_flat(perturbed_family,
                                   BaseStencil(center=0.2 + 1.0j, h_s=h))
        sups[h] = float(np.max(np.abs(pde_residual(rho))))
    assert sups[1e-3] / sups[5e-4] >= 3.0


def test_perturbed_positivity(perturbed_rho):
    di = direct_image_report(perturbed_rho)
    assert di["lower_bound"] > 0
    assert di["direct_image"] >= di["lower_bound"] - 1e-6
    assert di["positive"]


def test_perturbed_eps_pde(perturbed_family):
    """The eps-regularized PDE with the literal omega(v, vbar) pairing."""
    stencil = BaseStencil(center=0.2 + 1.0j, h_s=1e-3)
    for eps in (0.1, 0.5):
        rho = fiberwise_ricci_flat(perturbed_family, stencil, eps=eps)
        res = pde_residual(rho)
        assert np.max(np.abs(res)) < 5e-5, f"eps={eps}"


def test_dbar_star_identity_eps(perturbed_family):
    # the residual is pure O(h_s^2) stencil error; h_s = 5e-4 puts it
    # inside the 1e-7 budget
    stencil = BaseStencil(center=0.2 + 1.0j, h_s=5e-4)
    rho0 = fiberwise_ricci_flat(perturbed_family, stencil)
    assert dbar_star_residual(rho0.form, rho0.omega, 0.0) < 1e-7
    rho = fiberwise_ricci_flat(perturbed_family, stencil, eps=0.1)
    assert dbar_star_residual(rho.form, rho.omega, 0.1) < 1e-7


def test_integrated_pde_identity(perturbed_rho, perturbed_family):
    """int (|dbar v|^2 - Theta) dV_rho = 0 at unit fiber volume."""
    fld = dbar_vertical(perturbed_rho.form)
    th = theta_E(perturbed_family, perturbed_rho.stencil)
    val = fiber_integral(fld.norm2 - th, perturbed_rho.form.chart,
                         metric=perturbed_rho.form.gab)
    assert abs(val) < 1e-5


def test_class_invariance_of_fiber_restriction(elliptic_family, perturbed_family):
    """rho|fiber is unchanged when omega moves by dd^c of a global potential."""
    s = 1j
    rho_a = fiberwise_ricci_flat(elliptic_family, BaseStencil(center=s, h_s=1e-3))
    rho_b = fiberwise_ricci_flat(perturbed_family, BaseStencil(center=s, h_s=1e-3))
    assert np.max(np.abs(rho_a.form.gab - rho_b.form.gab)) < 1e-6


def test_geodesic_curvature_normalization_sensitivity(perturbed_family):
    from cyflab.masolver import KE_VOLUME, REFERENCE_VOLUME
    stencil = BaseStencil(center=0.2 + 1.0j, h_s=1e-3)
    rho_ke = fiberwise_ricci_flat(perturbed_family, stencil, normalization=KE_VOLUME)
    rho_rf = fiberwise_ricci_flat(perturbed_family, stencil,
                                  normalization=REFERENCE_VOLUME)
    # the fiber restriction is normalization-independent ...
    assert np.max(np.abs(rho_ke.form.gab - rho_rf.form.gab)) < 1e-10
    # ... while c(rho) shifts by dd^c of the base function A(y)
    c_ke = geodesic_curvature(rho_ke.form)
    c_rf = geodesic_curvature(rho_rf.form)
    assert np.max(np.abs(c_ke - c_rf)) > 1e-7


# -- product family -------------------------------------------------------------


def test_product_family_vanishing(product_family):
    stencil = BaseStencil(center=0.2 + 0.3j, h_s=1e-3)
    rho = fiberwise_ricci_flat(product_family, stencil)
    fld = dbar_vertical(rho.form)
    assert np.max(np.abs(fld.A)) < 1e-8
    assert abs(theta_E(product_family, stencil)) < 1e-9
    assert wp_norm(rho.form) < 1e-8
    assert kodaira_spencer_norm(rho.form) < 1e-8
    res = pde_residual(rho)
    assert np.max(np.abs(res)) < 1e-6
    di = direct_image_report(rho)
    assert abs(di["direct_image"] - di["lower_bound"]) < 1e-8


def test_product_rho_fiber_flat():
    """chi ~ cos(2 pi x)(1 + |s|^2) on a fixed-modulus family: the
    Ricci-flat representative of each fiber class is the flat metric.

    Amplitude 0.04 keeps the form fiber-positive (0.1 would push
    |chi_zzbar| past g = 1 on the tau = i torus and is rejected at load).
    """
    from cyflab.models import FourierPoly

    chi = FourierPoly.real_cosine(1, (1, 0), {(0, 0): 1.0, (1, 1): 1.0}, 0.04)
    fam = make_family(FamilySpec(kind="product", tau0=1j, chi=chi, grid_n=64,
                                 base_samples=(0.4 + 0.2j,)))
    rho = fiberwise_ricci_flat(fam, BaseStencil(center=0.4 + 0.2j, h_s=1e-3))
    assert np.max(np.abs(rho.form.gab[0, 0] - 1.0)) < 1e-9
    assert rho.solutions[(0, 0)].diagnostics["det_h_constancy"] < 1e-9


# -- Griffiths / Weil-Petersson consistency --------------------------------------


def test_griffiths_consistency_modulus_map():
    spec = FamilySpec(kind="modulus_map", modulus_coeffs=(0.0, 1.0, 0.1),
                      grid_n=64, base_samples=(0.2 + 1.1j,))
    fam = make_family(spec)
    samples = [complex(a, b) for a in (-0.1, 0.1, 0.2) for b in (0.95, 1.05, 1.1)]
    for s in samples:
        stencil = BaseStencil(center=s, h_s=1e-3)
        rho = fiberwise_ricci_flat(fam, stencil)
        th = theta_E(fam, stencil)
        wp = wp_norm(rho.form)
        ks = kodaira_spencer_norm(rho.form)
        tau, taup = fam.tau(s), fam.tau_prime(s)
        exact = abs(taup) ** 2 / abs(tau - np.conj(tau)) ** 2
        for a, b in ((th, wp), (th, ks), (wp, ks)):
            assert abs(a - b) / abs(exact) < 1e-4
        assert abs(th - exact) / exact < 1e-4


def test_theta_symbolic_oracle():
    """Theta against a symbolic-FD oracle of -dd^c log(2 Im tau(s))."""
    spec = FamilySpec(kind="modulus_map", modulus_coeffs=(0.0, 1.0, 0.1),
                      grid_n=32, base_samples=(0.2 + 1.1j,))
    fam = make_family(spec)
    s, h = 0.2 + 1.1j, 1e-3
    th = theta_E(fam, BaseStencil(center=s, h_s=h))

    def log_norm(sp):
        tau = sp + 0.1 * sp ** 2
        return np.log(2 * tau.imag)

    vals = {}
    for i, j in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        vals[(i, j)] = log_norm(s + h * (i + 1j * j))
    lap = (vals[(1, 0)] - 2 * vals[(0, 0)] + vals[(-1, 0)]) / h ** 2 \
        + (vals[(0, 1)] - 2 * vals[(0, 0)] + vals[(0, -1)]) / h ** 2
    oracle = -lap / 4.0
    assert abs(th - oracle) < 1e-9
    tau, taup = fam.tau(s), fam.tau_prime(s)
    assert abs(th - abs(taup) ** 2 / abs(tau - np.conj(tau)) ** 2) < 1e-5


def test_theta_fd_order():
    spec = FamilySpec(kind="modulus_map", modulus_coeffs=(0.0, 1.0, 0.1),
                      grid_n=32, base_samples=(0.2 + 1.1j,))
    fam = make_family(spec)
    s = 0.2 + 1.1j
    tau, taup = fam.tau(s), fam.tau_prime(s)
    exact = abs(taup) ** 2 / abs(tau - np.conj(tau)) ** 2
    errs = [abs(theta_E(fam, BaseStencil(center=s, h_s=h)) - exact)
            for h in (2e-3, 1e-3)]
    assert errs[0] / errs[1] > 3.5


# -- cross checks ----------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
def test_vphi_cross_check(perturbed_family, eps):
    out = vphi_cross_check(perturbed_family, 0.2 + 1.0j, eps=eps)
    assert out["sup_difference"] < max(1e-6, 10 * 1e-3 ** 2)
    assert out["vphi_integral"] < 1e-8


def test_vphi_cross_check_given_rho0(perturbed_family):
    """A given eps = 0 stencil gives the bits of one solved inside the check."""
    s = 0.2 + 1.0j
    rho0 = fiberwise_ricci_flat(perturbed_family, BaseStencil(center=s))
    for eps in (0.0, 0.1):
        given = vphi_cross_check(perturbed_family, s, eps=eps, rho0=rho0)
        solved = vphi_cross_check(perturbed_family, s, eps=eps)
        for key in ("vphi_fd", "vphi_pde"):
            assert np.array_equal(given[key], solved[key])
        assert given["linear_fallbacks"] == solved["linear_fallbacks"]


def test_vphi_cross_check_counts_fallbacks():
    """The cross check reports the Krylov fallbacks of its eps solves.

    Its stencil solves stop at forcing terms and were not seen to miss them
    on this family; the two real solves of route (b) at linear_rtol = 1e-17,
    below the rounding floor of a relative residual, do miss.
    """
    spec = FamilySpec(kind="universal_elliptic", chi=perturbation_chi(), grid_n=16,
                      base_samples=(1j,))
    family = make_family(spec)
    strict = SolverConfig(linear_rtol=1e-17, linear_maxiter=2)
    assert vphi_cross_check(family, 1j, eps=0.5, config=strict)["linear_fallbacks"] >= 2
    assert vphi_cross_check(family, 1j, eps=0.5)["linear_fallbacks"] == 0
    assert vphi_cross_check(family, 1j, eps=0.0, config=strict)["linear_fallbacks"] == 0


def test_cross_checks_count_route_b_fallbacks():
    """Both cross checks count the fallbacks of their route (b) linearized solve."""
    spec = FamilySpec(kind="universal_elliptic", chi=perturbation_chi(), grid_n=16,
                      base_samples=(1j,))
    family = make_family(spec)
    strict = SolverConfig(linear_rtol=1e-16, linear_maxiter=2)

    def stencil_fallbacks(half):
        rho = fiberwise_ricci_flat(family, BaseStencil(center=1j, half=half), eps=0.5,
                                   config=strict)
        return sum(sol.diagnostics["linear_fallbacks"] for sol in rho.solutions.values())

    assert vphi_cross_check(family, 1j, eps=0.5, config=strict)["linear_fallbacks"] \
        > stencil_fallbacks(1)
    assert vbarvphi_cross_check(family, 1j, eps=0.5, config=strict)["linear_fallbacks"] \
        > stencil_fallbacks(2)
    assert vbarvphi_cross_check(family, 1j, eps=0.5)["linear_fallbacks"] == 0


def test_vphi_product_trivial(elliptic_family):
    out = vphi_cross_check(elliptic_family, 1j, eps=0.0)
    assert out["sup_difference"] < 1e-10
    assert out["vphi_integral"] < 1e-12


def test_vbarvphi_cross_check(perturbed_family):
    out = vbarvphi_cross_check(perturbed_family, 0.2 + 1.0j, eps=0.1)
    assert out["sup_difference"] < max(1e-5, 10 * 1e-3)
    assert out["lemma_residual"] < 1e-6
    out0 = vbarvphi_cross_check(perturbed_family, 0.2 + 1.0j, eps=0.0)
    assert out0["sup_difference"] < max(1e-5, 10 * 1e-3)
    assert out0["vbarvphi_integral"] < 1e-10


def test_vbarvphi_monitor_decreasing(perturbed_family):
    """Theorem-6.1-style monitor: vbar v phi_eps approaches the eps = 0 field."""
    s = 0.2 + 1.0j
    ref = vbarvphi_cross_check(perturbed_family, s, eps=0.0)["vbarvphi_fd"]
    sups = []
    for eps in (0.3, 0.1, 0.03):
        cur = vbarvphi_cross_check(perturbed_family, s, eps=eps)["vbarvphi_fd"]
        sups.append(float(np.max(np.abs(cur - ref))))
    assert sups[0] > sups[1] > sups[2]


# -- Theorem 1.2 assembly ---------------------------------------------------------


def test_theorem12_check(perturbed_family, perturbed_rho):
    """The Green-kernel bound of the curvature report, at the fiber's own K."""
    out = curvature_report(perturbed_family, 0.2 + 1.0j, rho=perturbed_rho)
    assert out["pass"]
    assert out["combined_min_eig"] > 0
    # the pointwise inequality holds with margin on the near-constant fiber
    assert out["pointwise_margin"] >= -1e-6


def test_combined_form_min_eig(perturbed_rho):
    base = perturbed_rho.form.full_matrix()
    from cyflab.geometry import matrix_min_eig
    m0 = matrix_min_eig(base)
    assert combined_form_min_eig(perturbed_rho.form, 1.0) > m0
    # the n = 1 closed form agrees with LAPACK on the 2 x 2 blocks
    base[0, 0] = base[0, 0] + 1.0
    assert abs(combined_form_min_eig(perturbed_rho.form, 1.0) - matrix_min_eig(base)) < 1e-12


def test_relative_canonical_curvature(perturbed_family, perturbed_rho):
    """dd^c log det(h) across the stencil reproduces Theta(E) for the
    Ricci-flat form (the curvature identity driving the PDE)."""
    from cyflab.familygeom import relative_canonical_curvature

    curv = relative_canonical_curvature(perturbed_rho)
    th = theta_E(perturbed_family, perturbed_rho.stencil)
    assert abs(curv - th) < 1e-6
    s = perturbed_rho.stencil.center
    tau, taup = perturbed_family.tau(s), perturbed_family.tau_prime(s)
    assert abs(curv - abs(taup) ** 2 / abs(tau - np.conj(tau)) ** 2) < 1e-5


def test_trace_monitor_nonnegative(perturbed_rho):
    """0 <= n + Delta_omega phi on every solved fiber (trace positivity)."""
    for sol in perturbed_rho.solutions.values():
        assert sol.diagnostics["trace_min"] >= 0.0


def test_semiflat_direct_image_shift(perturbed_family):
    """Pushing forward the semi-flat form and adding dd^c A recovers the
    direct image of the normalized form; the shifted combined form stays
    positive (the A(y)-corollary of the positivity theorem)."""
    from cyflab.masolver import KE_VOLUME, REFERENCE_VOLUME, semiflat_shift

    stencil = BaseStencil(center=0.2 + 1.0j, h_s=1e-3)
    rho = fiberwise_ricci_flat(perturbed_family, stencil, normalization=KE_VOLUME)
    rho_sf = fiberwise_ricci_flat(perturbed_family, stencil,
                                  normalization=REFERENCE_VOLUME)
    shift = semiflat_shift(rho)
    ddc_a = shift["ddc_A"].real
    di = direct_image_report(rho)["direct_image"]
    di_sf = direct_image_report(rho_sf)["direct_image"]
    # c(rho) = c(rho_sf) + A_ss pointwise, and the fiber volumes agree
    assert abs(di_sf + ddc_a - di) < 1e-6
    assert di_sf + ddc_a > 0
    wp = wp_norm(rho_sf.form)
    assert combined_form_min_eig(rho_sf.form, ddc_a + 0.25 * wp) > 0


def test_curvature_report_row(perturbed_family):
    row = curvature_report(perturbed_family, 0.2 + 1.0j)
    assert row["positive"]
    assert row["pde_residual_sup"] < 5e-5
    assert set(row) >= {"s_re", "s_im", "direct_image", "lower_bound", "theta_E",
                        "wp", "c_min", "c_max", "pde_residual_sup"}


def test_curvature_report_builds_the_model_form_once(perturbed_family, monkeypatch):
    """One curvature report solves all 9 stencil points from their fiber metrics,
    builds the model form at the center only, and takes dzbar phi on the
    five-point cross that the differences read: 7 fiber derivatives in all,
    with the q1 chain-rule term and dbar of the lift.  rho's fiber block is the
    center solve's metric, not rebuilt from phi: dd^c of a real field
    (geometry.ddc_real_fields) is taken once per solve (one exact Newton
    step) and once in the PDE's Laplace-Beltrami operator, 10 times in all."""
    import sys

    import cyflab.geometry
    import cyflab.masolver
    from cyflab.models import Family

    owners = [(cyflab.masolver, "solve_ma"), (Family, "omega"),
              (cyflab.geometry, "fiber_derivative")]
    # every module that binds ddc_real_fields, so that no caller escapes the count
    owners += [(mod, "ddc_real_fields") for name, mod in sorted(sys.modules.items())
               if name.split(".")[0] == "cyflab" and hasattr(mod, "ddc_real_fields")]
    calls = dict.fromkeys((name for _, name in owners), 0)
    for owner, name in owners:
        def counted(*args, _name=name, _real=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    curvature_report(perturbed_family, 0.2 + 1.0j)
    assert calls == {"solve_ma": 9, "omega": 1, "fiber_derivative": 7, "ddc_real_fields": 10}
