"""The verify suites: each checks one group of identities at stated bounds.

A suite takes the run configuration and returns its report, whose "pass"
says whether every bound held.  SUITE_RUNNERS maps each name of
config.KNOWN_SUITES to its suite.
"""

from __future__ import annotations

import numpy as np

# the solves and reports a benchmark trace wraps are called through their
# modules, so that a traced run sees each of them
from . import familygeom, green, masolver, models
from .config import KNOWN_SUITES
from .familygeom import contraction_residual, geodesic_curvature, kodaira_spencer_norm, \
    pde_residual, semmes_residual, wp_norm
from .geometry import FiberChart, FiberGrid
from .green import ewald_kernel_min, kernel_mean_residual, reproducing_residual
from .masolver import BaseStencil, MAProblem
from .models import FamilySpec, FourierPoly, random_positive_form
from .reports import GREEN_ROW_KEYS


def suite_identities(cfg: dict) -> dict:
    rng = np.random.RandomState(cfg["seed"])
    results = {"semmes_max": 0.0, "contraction_max": 0.0, "det_oracle_max": 0.0,
               "cases": 0}
    for n, N in ((1, 32), (2, 12)):
        grid = FiberGrid(n, N)
        chart = FiberChart.make(grid, tau=1j) if n == 1 else \
            FiberChart.make(grid, omega_matrix=np.array([[1j, 0.2], [0.2, 1.5j]]))
        for _ in range(50):
            form = random_positive_form(rng, grid, chart)
            results["semmes_max"] = max(results["semmes_max"], semmes_residual(form))
            results["contraction_max"] = max(results["contraction_max"],
                                             contraction_residual(form))
            if n == 1:
                det_full = form.gss * form.gab[0, 0] - np.abs(form.gsb[0]) ** 2
                c = geodesic_curvature(form)
                results["det_oracle_max"] = max(
                    results["det_oracle_max"],
                    float(np.max(np.abs(c - det_full / form.gab[0, 0]))))
            results["cases"] += 1
    results["pass"] = bool(results["semmes_max"] < 1e-11
                           and results["contraction_max"] < 1e-11
                           and results["det_oracle_max"] < 1e-12)
    return results


def suite_elliptic(cfg: dict) -> dict:
    spec = FamilySpec(kind="universal_elliptic", grid_n=cfg["spec"].grid_n,
                      base_samples=(1j, 0.3 + 0.8j, 2j))
    family = models.make_family(spec)
    rows, ok = [], True
    for s in spec.base_samples:
        stencil = BaseStencil(center=s, h_s=cfg["h_s"])
        rho = masolver.fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
        exact = family.ricci_flat_closed_form(s)
        v = s.imag
        c = geodesic_curvature(rho.form)
        fld = familygeom.dbar_vertical(rho.form)
        th = familygeom.theta_E(family, stencil)
        row = {
            "s": s,
            "phi_sup": float(np.max(np.abs(rho.phi - exact.phi))),
            "c_rel_err": float(np.max(np.abs(c - exact.c)) * v ** 2),
            "dbarv_rel_err": float(np.max(np.abs(fld.norm2 - exact.theta)) * 4 * v ** 2),
            "theta_err": abs(th - exact.theta),
        }
        ok = ok and row["phi_sup"] < 1e-10 and row["c_rel_err"] < 1e-8 \
            and row["dbarv_rel_err"] < 1e-8 and row["theta_err"] < 1e-5
        rows.append(row)
    return {"rows": rows, "pass": bool(ok)}


def suite_product(cfg: dict) -> dict:
    s = 0.2 + 0.3j
    family = _perturbed_family(cfg, (s,), kind="product")
    stencil = BaseStencil(center=s, h_s=cfg["h_s"])
    rho = masolver.fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
    fld = familygeom.dbar_vertical(rho.form)
    out = {
        "dbarv_sup": float(np.max(np.abs(fld.A))),
        "theta": abs(familygeom.theta_E(family, stencil)),
        "wp": wp_norm(rho.form),
        "ks_norm": kodaira_spencer_norm(rho.form),
    }
    out["pass"] = bool(out["dbarv_sup"] < 1e-8 and out["theta"] < 1e-9
                       and out["wp"] < 1e-8 and out["ks_norm"] < 1e-8)
    return out


def _perturbed_family(cfg: dict, samples=(1j,), kind="universal_elliptic"):
    """The family of kind over tau0 = i with a small chi perturbation."""
    chi = FourierPoly.real_cosine(1, (1, 0), {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5}, 0.05)
    return models.make_family(FamilySpec(kind=kind, tau0=1j, chi=chi,
                                         grid_n=cfg["spec"].grid_n, base_samples=tuple(samples)))


def suite_epsilon(cfg: dict) -> dict:
    family = _perturbed_family(cfg)
    s = 1j
    path = masolver.epsilon_continuation(family, s, cfg["schedule"], cfg["solver"])
    # every cross check compares with the same eps = 0 stencil: solve it once
    rho0 = masolver.fiberwise_ricci_flat(family, BaseStencil(center=s, h_s=cfg["h_s"]),
                                         config=cfg["solver"])
    vphi_rows = []
    ok = path.order is not None and path.order > 0.95
    for eps in cfg["schedule"]:
        out = familygeom.vphi_cross_check(family, s, eps=eps, h_s=cfg["h_s"],
                                          config=cfg["solver"], rho0=rho0)
        vphi_rows.append({"eps": eps, "sup_difference": out["sup_difference"],
                          "vphi_integral": out["vphi_integral"],
                          "linear_fallbacks": out["linear_fallbacks"]})
        ok = ok and out["vphi_integral"] < 1e-8
    for row in path.table:
        if row["eps"] > 0:
            ok = ok and row["ke_identity_residual"] <= 10 * cfg["solver"].tol
    out = {"order": path.order, "c_normalization": path.c_normalization,
           "table": path.table, "vphi": vphi_rows,
           "sup_phi_max": path.sup_phi_max, "sup_lap_max": path.sup_lap_max,
           "pass": bool(ok)}
    if path.order is None:
        out["failure"] = ("no decay order: a sup_diff_to_limit of an eps > 0 row "
                          "is not positive")
    return out


def suite_green(cfg: dict) -> dict:
    grid = FiberGrid(1, cfg["spec"].grid_n)
    chart = FiberChart.make(grid, tau=1j)
    kernel = green.build_green(np.array([[1.0 + 0j]]), chart)
    rng = np.random.RandomState(cfg["seed"])
    x, y = grid.coords
    f = np.zeros(grid.shape)
    for _ in range(6):
        k1, k2 = rng.randint(-4, 5, size=2)
        f = f + rng.standard_normal() * np.cos(2 * np.pi * (k1 * x + k2 * y)) \
            + rng.standard_normal() * np.sin(2 * np.pi * (k1 * x + k2 * y))
    kb = green.k_bound(kernel)
    exact = -ewald_kernel_min(kernel)
    out = {
        "reproducing_residual": reproducing_residual(kernel, f),
        "kernel_mean": kernel_mean_residual(kernel),
        "K": kb.K,
        "K_exact_ewald": exact,
        "K_truncation_err": abs(kb.K - exact),
    }
    out["pass"] = bool(out["reproducing_residual"] < 1e-9
                       and out["kernel_mean"] < 1e-12
                       and out["K_truncation_err"] < 5e-3 * exact)
    return out


def suite_positivity(cfg: dict) -> dict:
    samples = [0.1 + 0.9j, 0.3 + 1.1j]
    family = _perturbed_family(cfg, samples)
    reports = [familygeom.curvature_report(family, s, h_s=cfg["h_s"], config=cfg["solver"])
               for s in samples]
    rows = [{key: rep[key] for key in GREEN_ROW_KEYS} for rep in reports]
    rows += [{"s": rep["s"], "direct_image": rep["direct_image"],
              "lower_bound": rep["lower_bound"], "pass": rep["positive"]} for rep in reports]
    return {"rows": rows, "pass": all(r["pass"] for r in rows)}


def suite_convergence(cfg: dict) -> dict:
    # manufactured-solution error must drop spectrally when N doubles; the
    # target and its forcing are analytic (full spectrum), so the discrete
    # error is pure truncation
    errors = {}
    for N in (16, 32):
        grid = FiberGrid(1, N)
        chart = FiberChart.make(grid, tau=1j)
        x = grid.coords[0]
        amp = 0.01
        phi_star = amp * np.exp(np.cos(2 * np.pi * x))
        lap_star = 0.25 * amp * (2 * np.pi) ** 2 * np.exp(np.cos(2 * np.pi * x)) \
            * (np.sin(2 * np.pi * x) ** 2 - np.cos(2 * np.pi * x))
        g = np.ones((1, 1) + grid.shape, dtype=complex)
        extra_f = np.log(1.0 + lap_star) - 0.5 * phi_star
        problem = MAProblem(chart=chart, gab=g, eta=np.zeros(grid.shape),
                            epsilon=0.5, extra_f=extra_f)
        sol = masolver.solve_ma(problem, cfg["solver"])
        errors[N] = float(np.max(np.abs(sol.phi - phi_star)))
    factor = errors[16] / max(errors[32], 1e-16)

    family = _perturbed_family(cfg, (0.2 + 1.0j,))
    sups = {}
    for h in (cfg["h_s"], cfg["h_s"] / 2):
        stencil = BaseStencil(center=0.2 + 1.0j, h_s=h)
        rho = masolver.fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
        sups[h] = float(np.max(np.abs(pde_residual(rho))))
    ratio = sups[cfg["h_s"]] / max(sups[cfg["h_s"] / 2], 1e-18)
    return {"manufactured_errors": {str(k): v for k, v in errors.items()},
            "spectral_factor": factor,
            "pde_residual": {str(k): v for k, v in sups.items()},
            "fd_ratio": ratio,
            "pass": bool(factor >= 100 and ratio >= 3)}


SUITE_RUNNERS = {name: globals()[f"suite_{name}"] for name in KNOWN_SUITES}
