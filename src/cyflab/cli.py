"""Configuration ingestion, experiment orchestration and report emission.

A run is described by a single JSON document (schema 1, unknown keys are
errors).  Reports are deterministic for a fixed config and seed: JSON with
sorted keys, CSV with a fixed column order; the optional SVG heatmap is
presentation-only.

Exit codes: 0 pass, 1 assertion failure, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import FiberChart, FiberGrid, GeometryError, ddc_fiber, herm_det
from .green import build_green, ewald_kernel_min, k_bound, kernel_mean_residual, \
    reproducing_residual, theorem12_assemble
from .familygeom import (
    combined_form_min_eig,
    contraction_residual,
    curvature_report,
    dbar_vertical,
    geodesic_curvature,
    kodaira_spencer_norm,
    semmes_residual,
    theta_E,
    vphi_cross_check,
    wp_norm,
)
from .masolver import (
    BaseStencil,
    KE_VOLUME,
    MAProblem,
    REFERENCE_VOLUME,
    SolverConfig,
    SolverDivergence,
    epsilon_continuation,
    eta_from_metric,
    fiberwise_ricci_flat,
    solve_ma,
)
from .models import FamilySpec, FourierPoly, make_family

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

KNOWN_SUITES = ("identities", "elliptic", "product", "epsilon", "green",
                "positivity", "convergence")


class ConfigError(ValueError):
    pass


# -- config parsing ------------------------------------------------------------

_TOP_KEYS = {"schema", "family", "solver", "continuation", "stencil", "outputs",
             "suites", "seed", "threads", "fiber"}
_FAMILY_KEYS = {"kind", "n", "tau0", "modulus_coeffs", "period_matrix", "chi",
                "base_coeff", "base"}
_SOLVER_KEYS = {"grid_n", "tol", "max_iters", "damping_floor"}
_STENCIL_KEYS = {"h_s", "richardson"}
_OUTPUT_KEYS = {"dir", "formats"}
_BASE_KEYS = {"samples", "rect", "nx", "ny"}
_FIBER_KEYS = {"s", "eps", "normalization", "manufactured"}
_MANUFACTURED_KEYS = {"amplitude", "mode", "eps"}


def _check_keys(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value, kind, where: str):
    """value converted by kind (int or float), or a ConfigError naming where."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], float, where), _number(value[1], float, where))
    raise ConfigError(f"{where} must be a number or [re, im] pair")


def parse_config(doc: dict) -> dict:
    _check_keys(doc, _TOP_KEYS, "config")
    if doc.get("schema") != 1:
        raise ConfigError("config must declare \"schema\": 1")
    if "family" not in doc:
        raise ConfigError("config needs a family section")

    fam = doc["family"]
    _check_keys(fam, _FAMILY_KEYS, "family")
    kind = fam.get("kind")
    n = _number(fam.get("n", 1), int, "family.n")

    solver = doc.get("solver", {})
    _check_keys(solver, _SOLVER_KEYS, "solver")
    grid_n = _number(solver.get("grid_n", 64 if n == 1 else 24), int, "solver.grid_n")
    tol = _number(solver.get("tol", 1e-11), float, "solver.tol")
    if grid_n < 8 or grid_n % 2:
        raise ConfigError("solver.grid_n must be even and >= 8")
    if not (0 < tol <= 1e-4):
        raise ConfigError("solver.tol must lie in (0, 1e-4]")

    stencil = doc.get("stencil", {})
    _check_keys(stencil, _STENCIL_KEYS, "stencil")
    h_s = _number(stencil.get("h_s", 1e-3), float, "stencil.h_s")
    if h_s <= 0:
        raise ConfigError("stencil.h_s must be positive")

    outputs = doc.get("outputs", {})
    _check_keys(outputs, _OUTPUT_KEYS, "outputs")
    formats = outputs.get("formats", ["json", "csv"])
    bad = set(formats) - {"json", "csv", "svg"}
    if bad:
        raise ConfigError(f"unknown output formats: {sorted(bad)}")

    suites = doc.get("suites", list(KNOWN_SUITES))
    bad = set(suites) - set(KNOWN_SUITES)
    if bad:
        raise ConfigError(f"unknown suites: {sorted(bad)}")

    cont = doc.get("continuation", {})
    _check_keys(cont, {"eps_schedule"}, "continuation")
    schedule = cont.get("eps_schedule", [1.0, 0.3, 0.1, 0.03, 0.01, 0.0])
    if not isinstance(schedule, list) or not schedule:
        raise ConfigError("continuation.eps_schedule must be a non-empty list")
    schedule = [_number(e, float, "continuation.eps_schedule") for e in schedule]
    if schedule != sorted(schedule, reverse=True) or len(set(schedule)) != len(schedule):
        raise ConfigError("continuation.eps_schedule must be strictly decreasing")
    if schedule[-1] < 0:
        raise ConfigError("continuation.eps_schedule must be nonnegative")

    base = fam.get("base", {"samples": [[0.0, 1.0]]})
    _check_keys(base, _BASE_KEYS, "family.base")
    if "samples" in base:
        samples = [_as_complex(v, "family.base.samples") for v in base["samples"]]
    else:
        rect = base.get("rect")
        if not isinstance(rect, list) or len(rect) != 4:
            raise ConfigError("family.base needs samples or rect [re0, re1, im0, im1]")
        rect = [_number(v, float, "family.base.rect") for v in rect]
        nx = _number(base.get("nx", 5), int, "family.base.nx")
        ny = _number(base.get("ny", 5), int, "family.base.ny")
        res = np.linspace(rect[0], rect[1], nx)
        ims = np.linspace(rect[2], rect[3], ny)
        samples = [complex(a, b) for b in ims for a in res]
    if any(s.imag <= 0 for s in samples) and kind != "product":
        raise ConfigError("base samples must satisfy Im s > 0")

    chi_terms = {}
    for row in fam.get("chi", []):
        if not isinstance(row, list) or len(row) != 2 * n + 4:
            raise ConfigError(
                f"chi terms must be [k_1..k_{2 * n}, p, q, re, im], got {row}")
        key = tuple(_number(v, int, "family.chi") for v in row[:-2])
        chi_terms[key] = chi_terms.get(key, 0.0) + _as_complex(row[-2:], "family.chi")
    chi = FourierPoly(n, chi_terms)
    if chi.realness_residual() > 1e-13:
        raise ConfigError("family.chi is not closed under conjugation (not real)")
    if chi.max_frequency() > grid_n // 2 - 1:
        raise ConfigError("family.chi frequency exceeds the grid Nyquist range")

    try:
        spec = FamilySpec(
            kind=kind, n=n,
            tau0=_as_complex(fam.get("tau0", [0.0, 1.0]), "family.tau0"),
            modulus_coeffs=tuple(_as_complex(c, "family.modulus_coeffs")
                                 for c in fam.get("modulus_coeffs", [[0, 0], [1, 0]])),
            omega_matrix=(np.array([[_as_complex(v, "period_matrix") for v in row]
                                    for row in fam["period_matrix"]])
                          if "period_matrix" in fam else None),
            chi=chi, base_coeff=_number(fam.get("base_coeff", 1.0), float, "family.base_coeff"),
            grid_n=grid_n, base_samples=tuple(samples))
    except (GeometryError, TypeError) as exc:
        raise ConfigError(f"invalid family: {exc}") from exc

    fiber = doc.get("fiber", {})
    _check_keys(fiber, _FIBER_KEYS, "fiber")
    if "s" in fiber:
        _as_complex(fiber["s"], "fiber.s")
    _number(fiber.get("eps", 0.0), float, "fiber.eps")
    manufactured = fiber.get("manufactured")
    if manufactured is not None:
        _check_keys(manufactured, _MANUFACTURED_KEYS, "fiber.manufactured")
    if manufactured:
        missing = {"amplitude", "mode"} - set(manufactured)
        if missing:
            raise ConfigError(f"fiber.manufactured needs {sorted(missing)}")
        _number(manufactured["amplitude"], float, "fiber.manufactured.amplitude")
        _number(manufactured.get("eps", 0.0), float, "fiber.manufactured.eps")
        mode = manufactured["mode"]
        if not isinstance(mode, list) or len(mode) != 2 * n:
            raise ConfigError(
                f"fiber.manufactured.mode must list {2 * n} integer frequencies, got {mode}")
        for v in mode:
            _number(v, int, "fiber.manufactured.mode")

    threads = _number(doc.get("threads", 1), int, "threads")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")

    return {
        "spec": spec,
        "solver": SolverConfig(
            tol=tol, max_iters=_number(solver.get("max_iters", 50), int, "solver.max_iters"),
            damping_floor=_number(solver.get("damping_floor", 2.0 ** -20), float,
                                  "solver.damping_floor")),
        "h_s": h_s,
        "richardson": bool(stencil.get("richardson", False)),
        "schedule": schedule,
        "outputs": {"dir": outputs.get("dir", "out"), "formats": list(formats)},
        "suites": list(suites),
        "seed": _number(doc.get("seed", 0), int, "seed"),
        "threads": threads,
        "fiber": fiber,
        "samples": samples,
        "raw": doc,
    }


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)


def provenance_block(cfg: dict) -> dict:
    blob = json.dumps(cfg["raw"], sort_keys=True).encode()
    return {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "version": __version__,
        "grid_n": cfg["spec"].grid_n,
        "h_s": cfg["h_s"],
        "tol": cfg["solver"].tol,
        "seed": cfg["seed"],
    }


# -- writers -------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


FAMILY_CSV_COLUMNS = ["s_re", "s_im", "direct_image", "lower_bound", "theta_E",
                      "wp", "c_min", "c_max", "pde_residual_sup", "K",
                      "combined_min_eig"]


def write_family_csv(path: Path, rows: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FAMILY_CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(float(row[c])) for c in FAMILY_CSV_COLUMNS])


def write_phi_csv(path: Path, phi: np.ndarray):
    """CSV of a real field: the bytes csv.writer gives, CRLF line ends included."""
    phi = np.asarray(phi, dtype=float)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if phi.ndim == 2:
            fh.write("i,j,phi\r\n")
            fh.write("".join(f"{i},{j},{v!r}\r\n"
                             for i, row in enumerate(phi.tolist())
                             for j, v in enumerate(row)))
        else:
            fh.write("flat_index,phi\r\n")
            fh.write("".join(f"{i},{v!r}\r\n" for i, v in enumerate(phi.ravel().tolist())))


def write_heatmap_svg(path: Path, samples: list, values: list, cell: int = 40):
    """Presentation-only heatmap of a base-sample scalar (not deterministic-tracked)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    res = sorted({round(s.real, 12) for s in samples})
    ims = sorted({round(s.imag, 12) for s in samples})
    vmin, vmax = min(values), max(values)
    span = (vmax - vmin) or 1.0
    w, h = cell * len(res), cell * len(ims)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    for s, v in zip(samples, values):
        i = res.index(round(s.real, 12))
        j = ims.index(round(s.imag, 12))
        t = (v - vmin) / span
        r, g, b = int(255 * t), int(64 + 64 * (1 - t)), int(255 * (1 - t))
        parts.append(
            f'<rect x="{i * cell}" y="{(len(ims) - 1 - j) * cell}" width="{cell}" '
            f'height="{cell}" fill="rgb({r},{g},{b})"><title>s=({s.real:.4g},'
            f'{s.imag:.4g}) value={v:.6g}</title></rect>')
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")


# -- commands ------------------------------------------------------------------


def cmd_solve_fiber(cfg: dict, out_dir: Path) -> int:
    spec = cfg["spec"]
    family = make_family(spec)
    fiber = cfg["fiber"]
    s = _as_complex(fiber.get("s", [spec.base_samples[0].real,
                                    spec.base_samples[0].imag]), "fiber.s")
    eps = float(fiber.get("eps", 0.0))
    normalization = fiber.get("normalization", KE_VOLUME)
    if normalization not in (KE_VOLUME, REFERENCE_VOLUME, "none"):
        raise ConfigError(f"unknown normalization {normalization!r}")

    form = family.omega(s)
    manufactured = fiber.get("manufactured")
    report = {"provenance": provenance_block(cfg), "s": s, "eps": eps}
    if manufactured:
        amp = float(manufactured["amplitude"])
        mode = tuple(int(v) for v in manufactured["mode"])
        eps = float(manufactured.get("eps", eps))
        grid = family.grid
        phase = sum(k * grid.coords[ax] for ax, k in enumerate(mode))
        phi_star = amp * np.cos(2 * np.pi * phase)
        hess = ddc_fiber(phi_star, form.chart)
        extra_f = np.log(herm_det(form.gab + hess).real) \
            - np.log(herm_det(form.gab).real) - eps * phi_star
        problem = MAProblem(chart=form.chart, gab=form.gab,
                            eta=np.zeros(grid.shape), epsilon=eps, extra_f=extra_f)
        sol = solve_ma(problem, cfg["solver"],
                       normalization=REFERENCE_VOLUME if eps == 0 else "none")
        shift = float(np.mean(phi_star * herm_det(form.gab).real)
                      / np.mean(herm_det(form.gab).real)) if eps == 0 else 0.0
        report["recovery_error"] = float(np.max(np.abs(sol.phi - (phi_star - shift))))
    else:
        eta = eta_from_metric(form.gab, form.chart)
        problem = MAProblem(chart=form.chart, gab=form.gab, eta=eta, epsilon=eps)
        sol = solve_ma(problem, cfg["solver"], normalization=normalization)

    report.update({
        "residual_sup": sol.residual_sup,
        "newton_iters": sol.newton_iters,
        "normalization": sol.normalization,
        "diagnostics": sol.diagnostics,
    })
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "fiber_solution.json", report)
    if "csv" in cfg["outputs"]["formats"]:
        write_phi_csv(out_dir / "phi.csv", sol.phi)
    return EXIT_OK


def sample_report(family, s, h_s, config, richardson=False) -> dict:
    stencil = BaseStencil(center=complex(s), h_s=h_s)
    rho = fiberwise_ricci_flat(family, stencil, config=config)
    rep = curvature_report(family, s, h_s=h_s, config=config,
                           richardson=richardson, rho=rho)
    green = build_green(rho.form.gab, rho.form.chart)
    kb = k_bound(green)
    row = rep.row()
    row["K"] = kb.K
    row["combined_min_eig"] = combined_form_min_eig(rho.form, kb.K * rep.wp)
    return row


def cmd_run_family(cfg: dict, out_dir: Path, plot: bool = False) -> int:
    family = make_family(cfg["spec"])
    samples = cfg["samples"]
    h_s, solver = cfg["h_s"], cfg["solver"]

    def work(s):
        try:
            return sample_report(family, s, h_s, solver, cfg["richardson"])
        except SolverDivergence as exc:
            return exc

    if cfg["threads"] > 1:
        with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
            results = list(pool.map(work, samples))
    else:
        results = [work(s) for s in samples]

    rows, failure = [], None
    for s, res in zip(samples, results):
        if isinstance(res, SolverDivergence):
            failure = (s, res)
            break
        rows.append(res)

    formats = cfg["outputs"]["formats"]
    all_positive = bool(rows) and all(r["positive"] and r["combined_min_eig"] > 0
                                      for r in rows)
    report = {
        "provenance": provenance_block(cfg),
        "rows": rows,
        "all_positive": all_positive,
    }
    if failure is not None:
        report["failure"] = {"s": failure[0], "error": str(failure[1])}
    if "json" in formats:
        write_json(out_dir / "family_report.json", report)
    if "csv" in formats:
        # on a fiber failure the rows computed so far are still written
        write_family_csv(out_dir / "family.csv", rows)
    if rows and (plot or "svg" in formats):
        write_heatmap_svg(out_dir / "c_heatmap.svg", samples[:len(rows)],
                          [r["direct_image"] for r in rows])
    if failure is not None:
        print(f"numerical failure at s = {failure[0]}: {failure[1]}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if all_positive else EXIT_ASSERTION


# -- verify suites --------------------------------------------------------------


def random_positive_form(rng: np.random.RandomState, grid: FiberGrid,
                         chart: FiberChart) -> "object":
    """Seeded fiberwise-positive random form with O(1) band-limited entries."""
    from .models import FamilyForm

    n = grid.n

    def band_field(scale=1.0):
        f = np.zeros(grid.shape, dtype=complex)
        for _ in range(4):
            k = rng.randint(-3, 4, size=2 * n)
            amp = (rng.standard_normal() + 1j * rng.standard_normal()) * scale / 4
            phase = sum(kk * grid.coords[ax] for ax, kk in enumerate(k))
            f += amp * np.exp(2j * np.pi * phase)
        return f

    gab = np.zeros((n, n) + grid.shape, dtype=complex)
    for a in range(n):
        for b in range(a, n):
            f = band_field(0.25)
            if a == b:
                gab[a, b] = 1.5 + f.real
            else:
                gab[a, b] = f
                gab[b, a] = np.conj(f)
    # push up the diagonal until comfortably positive
    from .geometry import herm_min_eig
    me = herm_min_eig(gab)
    if me < 0.25:
        for a in range(n):
            gab[a, a] += 0.5 - me
    gsb = np.stack([band_field(0.5) for _ in range(n)])
    gss = 2.0 + band_field(0.3).real.astype(complex)
    return FamilyForm(chart=chart, s=1j, gss=gss, gsb=gsb, gab=gab,
                      provenance="model")


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
    family = make_family(spec)
    rows, ok = [], True
    for s in spec.base_samples:
        stencil = BaseStencil(center=s, h_s=cfg["h_s"])
        rho = fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
        v = s.imag
        c = geodesic_curvature(rho.form)
        fld = dbar_vertical(rho.form)
        th = theta_E(family, stencil)
        row = {
            "s": s,
            "phi_sup": float(np.max(np.abs(rho.phi))),
            "c_rel_err": float(np.max(np.abs(c - 1 / v ** 2)) * v ** 2),
            "dbarv_rel_err": float(np.max(np.abs(fld.norm2 - 0.25 / v ** 2)) * 4 * v ** 2),
            "theta_err": abs(th - 0.25 / v ** 2),
        }
        ok = ok and row["phi_sup"] < 1e-10 and row["c_rel_err"] < 1e-8 \
            and row["dbarv_rel_err"] < 1e-8 and row["theta_err"] < 1e-5
        rows.append(row)
    return {"rows": rows, "pass": bool(ok)}


def suite_product(cfg: dict) -> dict:
    chi = FourierPoly.real_cosine(1, (1, 0), {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5}, 0.05)
    spec = FamilySpec(kind="product", tau0=1j, chi=chi, grid_n=cfg["spec"].grid_n,
                      base_samples=(0.2 + 0.3j,))
    family = make_family(spec)
    s = spec.base_samples[0]
    stencil = BaseStencil(center=s, h_s=cfg["h_s"])
    rho = fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
    fld = dbar_vertical(rho.form)
    out = {
        "dbarv_sup": float(np.max(np.abs(fld.A))),
        "theta": abs(theta_E(family, stencil)),
        "wp": wp_norm(rho.form),
        "ks_norm": kodaira_spencer_norm(rho.form),
    }
    out["pass"] = bool(out["dbarv_sup"] < 1e-8 and out["theta"] < 1e-9
                       and out["wp"] < 1e-8 and out["ks_norm"] < 1e-8)
    return out


def _perturbed_family(cfg: dict, samples=(1j,)):
    chi = FourierPoly.real_cosine(1, (1, 0), {(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.5}, 0.05)
    spec = FamilySpec(kind="universal_elliptic", chi=chi, grid_n=cfg["spec"].grid_n,
                      base_samples=tuple(samples))
    return make_family(spec)


def suite_epsilon(cfg: dict) -> dict:
    family = _perturbed_family(cfg)
    s = 1j
    path = epsilon_continuation(family, s, cfg["schedule"], cfg["solver"])
    vphi_rows = []
    ok = path.order > 0.95
    for eps in cfg["schedule"]:
        out = vphi_cross_check(family, s, eps=eps, h_s=cfg["h_s"], config=cfg["solver"])
        vphi_rows.append({"eps": eps, "sup_difference": out["sup_difference"],
                          "vphi_integral": out["vphi_integral"],
                          "linear_fallbacks": out["linear_fallbacks"]})
        ok = ok and out["vphi_integral"] < 1e-8
    for row in path.table:
        if row["eps"] > 0:
            ok = ok and abs(row["ke_integral"]) <= max(path.c_normalization, 1e-12) \
                * row["eps"] * (1 + 1e-9)
    return {"order": path.order, "c_normalization": path.c_normalization,
            "table": path.table, "vphi": vphi_rows,
            "sup_phi_max": path.sup_phi_max, "sup_lap_max": path.sup_lap_max,
            "pass": bool(ok)}


def suite_green(cfg: dict) -> dict:
    grid = FiberGrid(1, cfg["spec"].grid_n)
    chart = FiberChart.make(grid, tau=1j)
    green = build_green(np.array([[1.0 + 0j]]), chart)
    rng = np.random.RandomState(cfg["seed"])
    x, y = grid.coords
    f = np.zeros(grid.shape)
    for _ in range(6):
        k1, k2 = rng.randint(-4, 5, size=2)
        f = f + rng.standard_normal() * np.cos(2 * np.pi * (k1 * x + k2 * y)) \
            + rng.standard_normal() * np.sin(2 * np.pi * (k1 * x + k2 * y))
    kb = k_bound(green)
    exact = -ewald_kernel_min(green, coarse=48)
    out = {
        "reproducing_residual": reproducing_residual(green, f),
        "kernel_mean": kernel_mean_residual(green),
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
    rows = theorem12_assemble(family, samples, h_s=cfg["h_s"], config=cfg["solver"])
    ok = all(r["pass"] for r in rows)
    for s in samples:
        stencil = BaseStencil(center=complex(s), h_s=cfg["h_s"])
        rho = fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
        from .familygeom import direct_image_report
        di = direct_image_report(rho)
        ok = ok and di["positive"]
        rows.append({"s": complex(s), "direct_image": di["direct_image"],
                     "lower_bound": di["lower_bound"], "pass": di["positive"]})
    return {"rows": rows, "pass": bool(ok)}


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
        sol = solve_ma(problem, cfg["solver"])
        errors[N] = float(np.max(np.abs(sol.phi - phi_star)))
    factor = errors[16] / max(errors[32], 1e-16)

    family = _perturbed_family(cfg, (0.2 + 1.0j,))
    sups = {}
    for h in (cfg["h_s"], cfg["h_s"] / 2):
        stencil = BaseStencil(center=0.2 + 1.0j, h_s=h)
        rho = fiberwise_ricci_flat(family, stencil, config=cfg["solver"])
        from .familygeom import pde_residual
        sups[h] = float(np.max(np.abs(pde_residual(rho))))
    ratio = sups[cfg["h_s"]] / max(sups[cfg["h_s"] / 2], 1e-18)
    return {"manufactured_errors": {str(k): v for k, v in errors.items()},
            "spectral_factor": factor,
            "pde_residual": {str(k): v for k, v in sups.items()},
            "fd_ratio": ratio,
            "pass": bool(factor >= 100 and ratio >= 3)}


SUITE_RUNNERS = {
    "identities": suite_identities,
    "elliptic": suite_elliptic,
    "product": suite_product,
    "epsilon": suite_epsilon,
    "green": suite_green,
    "positivity": suite_positivity,
    "convergence": suite_convergence,
}


def cmd_verify(cfg: dict, out_dir: Path, suites=None) -> int:
    suites = suites or cfg["suites"]
    results = {}
    ok = True
    for name in suites:
        if name not in SUITE_RUNNERS:
            raise ConfigError(f"unknown suite {name!r}")
        results[name] = SUITE_RUNNERS[name](cfg)
        ok = ok and results[name]["pass"]
    report = {"provenance": provenance_block(cfg), "suites": results, "pass": ok}
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "verify_report.json", report)
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_green(cfg: dict, out_dir: Path) -> int:
    family = make_family(cfg["spec"])
    rows = theorem12_assemble(family, cfg["samples"], h_s=cfg["h_s"],
                              config=cfg["solver"])
    report = {"provenance": provenance_block(cfg), "rows": rows,
              "pass": all(r["pass"] for r in rows)}
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "green_report.json", report)
    return EXIT_OK if report["pass"] else EXIT_ASSERTION


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyflab",
        description="Fiberwise Ricci-flat metrics on torus fibrations: "
                    "solves, identity checks and positivity reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve-fiber", "run-family", "verify", "green"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None, help="override solver.grid_n")
        p.add_argument("--fd-step", type=float, default=None, help="override stencil.h_s")
        p.add_argument("--threads", type=int, default=None, help="override threads")
        if name == "run-family":
            p.add_argument("--plot", action="store_true", help="emit the SVG heatmap")
        if name == "verify":
            p.add_argument("--suite", default=None,
                           help="run a single named suite instead of the configured set")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.grid is not None:
            cfg["raw"].setdefault("solver", {})["grid_n"] = args.grid
            cfg = parse_config(cfg["raw"])
        if args.fd_step is not None:
            cfg["raw"].setdefault("stencil", {})["h_s"] = args.fd_step
            cfg = parse_config(cfg["raw"])
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads must be at least 1, got {args.threads}")
            cfg["threads"] = args.threads
        out_dir = Path(args.out or cfg["outputs"]["dir"])
        if args.command == "solve-fiber":
            return cmd_solve_fiber(cfg, out_dir)
        if args.command == "run-family":
            return cmd_run_family(cfg, out_dir, plot=getattr(args, "plot", False))
        if args.command == "verify":
            suites = [args.suite] if args.suite else None
            return cmd_verify(cfg, out_dir, suites=suites)
        if args.command == "green":
            return cmd_green(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverDivergence as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GeometryError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
