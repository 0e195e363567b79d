"""Acceptance suite: every primary criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Criteria are executed individually to keep failures separable.
"""

import time

import numpy as np
import pytest

from cyflab.familygeom import (
    curvature_report,
    direct_image_report,
    kodaira_spencer_norm,
    theta_E,
    wp_norm,
)
from cyflab.geometry import (
    FiberChart,
    FiberGrid,
    d_z,
    ddc_fiber,
    fiber_integral,
    fiber_integral_complex,
)
from cyflab.green import build_green, kernel_mean_residual, reproducing_residual
from cyflab.masolver import (
    BaseStencil,
    MAProblem,
    REFERENCE_VOLUME,
    eta_from_metric,
    fiberwise_ricci_flat,
    manufactured_problem,
    solve_ma,
)
from cyflab.models import FamilySpec, FiberMetric, FourierPoly, make_family
from cyflab.config import parse_config
from cyflab.suites import suite_convergence, suite_elliptic, suite_epsilon, suite_identities, \
    suite_product
from conftest import as_metric, perturbation_chi, random_trig_field


def _suite_config():
    """The run configuration of the verify suites that the criteria share."""
    return parse_config({"schema": 1, "family": {"kind": "universal_elliptic"},
                         "solver": {"grid_n": 64}, "stencil": {"h_s": 1e-3}})


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_elliptic_reproduction():
    # the verify suite holds the samples (i, 0.3 + 0.8i, 2i) and the four bounds
    t0 = time.monotonic()
    suite = suite_elliptic(_suite_config())
    worst = {k: max(row[k] for row in suite["rows"])
             for k in ("phi_sup", "c_rel_err", "dbarv_rel_err", "theta_err")}
    elapsed = time.monotonic() - t0
    ok = suite["pass"] and elapsed < 10.0
    _report(1, "section-8 reproduction", ok,
            f"phi={worst['phi_sup']:.2e} c={worst['c_rel_err']:.2e} "
            f"dbv={worst['dbarv_rel_err']:.2e} theta={worst['theta_err']:.2e} {elapsed:.1f}s")


def test_criterion_2_perturbed_family():
    t0 = time.monotonic()
    res_grid = np.linspace(-0.2, 0.2, 5)
    ims_grid = np.linspace(0.8, 1.2, 5)
    samples = [complex(a, b) for b in ims_grid for a in res_grid]
    fam = make_family(FamilySpec(kind="universal_elliptic", chi=perturbation_chi(),
                                 grid_n=64, base_samples=tuple(samples)))
    flat_dev = 0.0
    pos_ok = True
    for s in samples:
        rho = fiberwise_ricci_flat(fam, BaseStencil(center=s, h_s=1e-3))
        flat_dev = max(flat_dev,
                       float(np.max(np.abs(rho.form.gab[0, 0] - 1.0 / s.imag))))
        di = direct_image_report(rho)
        pos_ok = pos_ok and di["lower_bound"] > 0 \
            and di["direct_image"] >= di["lower_bound"] - 1e-6
    # PDE residual at 0.2 + 1.0i and its decrease under stencil refinement
    # (h_s and h_s / 2), as the convergence suite computes them
    cfg = _suite_config()
    conv = suite_convergence(cfg)
    pde = conv["pde_residual"][str(cfg["h_s"])]
    ratio = conv["fd_ratio"]
    elapsed = time.monotonic() - t0
    ok = (flat_dev < 1e-6 and pde < 5e-5 and ratio >= 3.0 and pos_ok
          and elapsed < 120.0)
    _report(2, "perturbed elliptic family", ok,
            f"flat_dev={flat_dev:.2e} pde={pde:.2e} ratio={ratio:.2f} "
            f"positive={pos_ok} {elapsed:.1f}s")


def test_criterion_3_epsilon_continuation():
    # the verify suite holds the family (s = i, perturbation_chi), the default
    # schedule and solver, and the checks; the bounds are restated here
    cfg = _suite_config()
    suite = suite_epsilon(cfg)
    vphi_max = max(row["vphi_integral"] for row in suite["vphi"])
    # the integrated fiber equation at each eps > 0
    ke_ok = all(row["ke_identity_residual"] <= 10 * cfg["solver"].tol
                for row in suite["table"] if row["eps"] > 0)
    # the fitted slope approaches 1 from below through the o(eps) terms
    ok = suite["pass"] and suite["order"] >= 0.95 and ke_ok and vphi_max < 1e-8
    _report(3, "epsilon continuation", ok,
            f"order={suite['order']:.3f} C={suite['c_normalization']:.3e} "
            f"max|int v phi rho^n|={vphi_max:.2e}")


def test_criterion_4_determinant_nonlinearity():
    t0 = time.monotonic()
    grid = FiberGrid(2, 24)
    chart = FiberChart.make(grid, omega_matrix=1j * np.eye(2))
    x1, y2 = grid.coords[0], grid.coords[3]
    phi_star = 0.05 * np.cos(2 * np.pi * x1) + 0.05 * np.cos(2 * np.pi * y2)
    g = np.zeros((2, 2) + grid.shape, dtype=complex)
    g[0, 0] = g[1, 1] = 1.0
    problem = manufactured_problem(FiberMetric(chart, as_metric(g)), phi_star, 0.0)
    sol = solve_ma(problem, normalization=REFERENCE_VOLUME)
    recovery = float(np.max(np.abs(sol.phi - phi_star)))
    vol_res = sol.diagnostics["volume_residual"]

    # Ricci-flat solve on a perturbed n=2 fiber: det h must be constant
    chi2 = FourierPoly(2, {
        (1, 0, 0, 0, 0, 0): 0.01, (-1, 0, 0, 0, 0, 0): 0.01,
        (0, 0, 0, 1, 0, 0): 0.008, (0, 0, 0, -1, 0, 0): 0.008,
    })
    g2 = as_metric(g + ddc_fiber(chi2.eval(grid, 0.0), chart))
    eta = eta_from_metric(g2, chart)
    prob2 = MAProblem(chart=chart, gab=g2, eta=eta, epsilon=0.0)
    sol2 = solve_ma(prob2)
    det_const = sol2.diagnostics["det_h_constancy"]
    elapsed = time.monotonic() - t0
    ok = (recovery < 1e-9 and det_const < 1e-8 and vol_res < 1e-10
          and sol2.diagnostics["volume_residual"] < 1e-10 and elapsed < 60.0)
    _report(4, "n=2 determinant nonlinearity", ok,
            f"recovery={recovery:.2e} det_const={det_const:.2e} "
            f"vol={vol_res:.2e} {elapsed:.1f}s")


def test_criterion_5_identity_suite():
    results = suite_identities({"seed": 7})
    ok = (results["cases"] == 100 and results["semmes_max"] < 1e-11
          and results["contraction_max"] < 1e-11
          and results["det_oracle_max"] < 1e-12)
    _report(5, "algebraic identity suite", ok,
            f"cases={results['cases']} semmes={results['semmes_max']:.2e} "
            f"contraction={results['contraction_max']:.2e} "
            f"det={results['det_oracle_max']:.2e}")


def test_criterion_6_griffiths_consistency():
    fam = make_family(FamilySpec(kind="modulus_map", modulus_coeffs=(0.0, 1.0, 0.1),
                                 grid_n=64, base_samples=(0.2 + 1.1j,)))
    samples = [complex(a, b) for a in (-0.1, 0.05, 0.2) for b in (0.95, 1.05, 1.15)]
    worst = 0.0
    for s in samples:
        stencil = BaseStencil(center=s, h_s=1e-3)
        rho = fiberwise_ricci_flat(fam, stencil)
        th = theta_E(fam, stencil)
        wp = wp_norm(rho.form)
        ks = kodaira_spencer_norm(rho.form)
        scale = abs(th)
        worst = max(worst, abs(th - wp) / scale, abs(th - ks) / scale,
                    abs(wp - ks) / scale)

    # the product family at 0.2 + 0.3i, as the product suite computes it
    prod = suite_product(_suite_config())
    triv = max(prod["theta"], prod["wp"], prod["ks_norm"])
    ok = worst < 1e-4 and triv < 1e-8
    _report(6, "Griffiths / Weil-Petersson consistency", ok,
            f"pairwise_rel={worst:.2e} product_max={triv:.2e}")


def test_criterion_7_green_theorem12():
    grid = FiberGrid(1, 64)
    chart = FiberChart.make(grid, tau=1j)
    green = build_green(np.array([[1.0 + 0j]]), chart)
    rng = np.random.RandomState(3)
    f = random_trig_field(rng, grid, kmax=4).real
    rep = reproducing_residual(green, f)
    mean_res = kernel_mean_residual(green)

    samples = [0.1 + 0.9j, 0.0 + 1.0j, -0.1 + 1.1j]
    fam = make_family(FamilySpec(kind="universal_elliptic", chi=perturbation_chi(),
                                 grid_n=64, base_samples=tuple(samples)))
    rows = [curvature_report(fam, s) for s in samples]
    combined_ok = all(r["combined_min_eig"] > 0 for r in rows)
    pointwise_ok = all(r["pointwise_margin"] >= -1e-6 for r in rows)
    ok = rep < 1e-9 and mean_res < 1e-12 and combined_ok and pointwise_ok
    _report(7, "Green kernel / combined positivity", ok,
            f"reproducing={rep:.2e} mean={mean_res:.2e} "
            f"min_eig_min={min(r['combined_min_eig'] for r in rows):.3e} "
            f"margin_min={min(r['pointwise_margin'] for r in rows):.2e}")


def test_criterion_8_fiber_integral_calculus():
    h_s = 1e-3
    fam = make_family(FamilySpec(kind="universal_elliptic", chi=perturbation_chi(),
                                 grid_n=64, base_samples=(0.2 + 1.0j,)))
    s = 0.2 + 1.0j

    # volume constancy across the stencil
    vols = {}
    for i, j in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        sp = s + h_s * (i + 1j * j)
        form = fam.omega(sp)
        vols[(i, j)] = fiber_integral(np.ones(fam.grid.shape), form.chart,
                                      metric=form.gab)
    dvol = max(abs(vols[(1, 0)] - vols[(-1, 0)]),
               abs(vols[(0, 1)] - vols[(0, -1)])) / (2 * h_s)

    # d/ds int f tau^n = int (v_tau f) tau^n for tau = omega and an analytic f
    grid = fam.grid
    x = grid.coords[0]

    def f_at(sp):
        return np.cos(2 * np.pi * x) ** 2 * (sp.imag ** 2)

    integrals = {}
    for i, j in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        sp = s + h_s * (i + 1j * j)
        form = fam.omega(sp)
        integrals[(i, j)] = fiber_integral(f_at(sp), form.chart, metric=form.gab)
    lhs = ((integrals[(1, 0)] - integrals[(-1, 0)]) / (2 * h_s)
           - 1j * (integrals[(0, 1)] - integrals[(0, -1)]) / (2 * h_s)) / 2.0

    form = fam.omega(s)
    # v_tau f = d_s|grid f + a_p dz f for global f (the y-linear parts cancel)
    ds_f = np.cos(2 * np.pi * x) ** 2 * (2 * s.imag) / 2j
    vf = ds_f + form.a_periodic() * d_z(f_at(s), form.chart)
    rhs = fiber_integral_complex(vf, form.chart, metric=form.gab)
    lie_dev = abs(lhs - rhs)
    ok = dvol < 10 * h_s ** 2 and lie_dev < 10 * h_s ** 2
    _report(8, "fiber integral calculus", ok,
            f"d(vol)/ds={dvol:.2e} lie_identity={lie_dev:.2e}")
