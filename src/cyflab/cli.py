"""The command line: solve-fiber, run-family, verify and green.

Each command reads one JSON config (cyflab.config), computes, and writes
its reports (cyflab.reports); verify runs the suites of cyflab.suites.

Exit codes: 0 pass, 1 assertion failure, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# load_config is not used here: perfbench looks it up on this module, as it
# does parse_config, sample_report and the writers
from .config import KNOWN_SUITES, ConfigError, load_config, parse_config, provenance_block, \
    read_config
from .familygeom import curvature_report
from .geometry import FiberGrid, GeometryError
from .masolver import (
    NO_NORMALIZATION,
    REFERENCE_VOLUME,
    SolverDivergence,
    manufactured_problem,
    ricci_flat_problem,
    solve_nested,
)
from .models import Family, make_family
from .reports import FAMILY_ROW_KEYS, GREEN_ROW_KEYS, write_family_csv, write_heatmap_svg, \
    write_json, write_phi_csv
from .suites import SUITE_RUNNERS

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def manufactured_phi(manufactured: dict, grid: FiberGrid) -> np.ndarray:
    """phi* = amplitude cos(2 pi k.xi) of fiber.manufactured on the grid."""
    phase = sum(k * grid.coords[ax] for ax, k in enumerate(manufactured["mode"]))
    return manufactured["amplitude"] * np.cos(2 * np.pi * phase)


def cmd_solve_fiber(cfg: dict, out_dir: Path) -> int:
    fiber = cfg["fiber"]
    s = fiber["s"]
    eps = fiber["eps"]
    manufactured = fiber["manufactured"]
    family = Family(cfg["spec"])
    # make_family's check of the base samples; the metric it builds at s is
    # the fine problem's, which is then not built again
    fine = None
    for sample in map(complex, family.spec.base_samples):
        metric = family.validate_at(sample)
        if sample == s:
            fine = metric
        del metric

    def metric_at(grid_n):
        nonlocal fine
        if grid_n != family.grid.N or fine is None:
            return family.on_grid(grid_n).fiber_metric(s)
        metric, fine = fine, None
        return metric

    report = {"provenance": provenance_block(cfg), "s": s, "eps": eps}
    band = family.chi.max_frequency()
    normalization = fiber["normalization"]
    if manufactured is not None:
        band = max(band, *map(abs, manufactured["mode"]))
        normalization = REFERENCE_VOLUME if eps == 0 else NO_NORMALIZATION

    def problem_at(grid_n):
        metric = metric_at(grid_n)
        if manufactured is None:
            return ricci_flat_problem(metric, eps)
        return manufactured_problem(metric, manufactured_phi(manufactured, metric.chart.grid),
                                    eps)

    # every grid's problem comes from the same analytic data: solve_nested
    # starts the fine Newton from the solves of coarser grids
    sol = solve_nested(problem_at, family.grid.N, band, cfg["solver"],
                       normalization=normalization)
    if manufactured is not None:
        phi_star = manufactured_phi(manufactured, sol.problem.chart.grid)
        shift = 0.0
        if eps == 0:
            det_g = sol.problem.det_g
            shift = float(np.mean(phi_star * det_g) / np.mean(det_g))
        report["recovery_error"] = float(np.max(np.abs(sol.phi - (phi_star - shift))))

    report.update({
        "residual_sup": sol.residual_sup,
        "newton_iters": sol.newton_iters,
        "normalization": sol.normalization,
        "diagnostics": sol.diagnostics,
    })
    # sol.h and sol.problem are not written: free them before the phi.csv write
    phi = sol.phi
    del sol
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "fiber_solution.json", report)
    if "csv" in cfg["outputs"]["formats"]:
        write_phi_csv(out_dir / "phi.csv", phi)
    return EXIT_OK


def sample_report(family, s, h_s, config, richardson=False) -> dict:
    """The curvature report of one base point, as familygeom.curvature_report."""
    return curvature_report(family, s, h_s=h_s, config=config, richardson=richardson)


def sample_rows(cfg: dict, keys) -> tuple:
    """(rows, failure): the given keys of the sample report at each base sample.

    The samples run on cfg["threads"] threads and the rows keep their order.
    A sample that fails numerically (a divergent solve, a stencil point
    outside the family's domain, a float operation out of range, or a
    selected value that is NaN or inf) ends the rows, which hold the samples
    before it, and failure is {"s", "error"} of it; None when every sample
    solved.  numpy's floating-point warnings are off: they would only precede
    the message of that failure on stderr.
    """
    with np.errstate(all="ignore"):
        family = make_family(cfg["spec"])

    def work(s):
        try:
            with np.errstate(all="ignore"):
                return sample_report(family, s, cfg["h_s"], cfg["solver"], cfg["richardson"])
        except (SolverDivergence, GeometryError, ArithmeticError) as exc:
            return exc

    if cfg["threads"] > 1:
        with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
            results = list(pool.map(work, cfg["samples"]))
    else:
        results = [work(s) for s in cfg["samples"]]

    rows = []
    for s, res in zip(cfg["samples"], results):
        if isinstance(res, Exception):
            return rows, {"s": s, "error": str(res)}
        row = {key: res[key] for key in keys}
        for key, value in row.items():
            if not np.isfinite(value):
                return rows, {"s": s, "error": f"{key} is {value}, not finite"}
        rows.append(row)
    return rows, None


def _exit_code(failure, ok: bool) -> int:
    if failure is not None:
        print(f"numerical failure at s = {failure['s']}: {failure['error']}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_run_family(cfg: dict, out_dir: Path, plot: bool = False) -> int:
    rows, failure = sample_rows(cfg, FAMILY_ROW_KEYS)
    formats = cfg["outputs"]["formats"]
    all_positive = bool(rows) and all(r["positive"] and r["combined_min_eig"] > 0
                                      for r in rows)
    report = {
        "provenance": provenance_block(cfg),
        "rows": rows,
        "all_positive": all_positive,
    }
    if failure is not None:
        report["failure"] = failure
    if "json" in formats:
        write_json(out_dir / "family_report.json", report)
    if "csv" in formats:
        # on a fiber failure the rows computed so far are still written
        write_family_csv(out_dir / "family.csv", rows)
    if rows and (plot or "svg" in formats):
        write_heatmap_svg(out_dir / "c_heatmap.svg", cfg["samples"][:len(rows)],
                          [r["direct_image"] for r in rows])
    return _exit_code(failure, all_positive)


def cmd_verify(cfg: dict, out_dir: Path, suites=None) -> int:
    suites = suites or cfg["suites"]
    if "epsilon" in suites and sum(eps > 0 for eps in cfg["schedule"]) < 2:
        raise ConfigError("continuation.eps_schedule needs two values > 0 for the "
                          "epsilon suite to fit its order")
    results = {name: SUITE_RUNNERS[name](cfg) for name in suites}
    ok = all(r["pass"] for r in results.values())
    report = {"provenance": provenance_block(cfg), "suites": results, "pass": ok}
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "verify_report.json", report)
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_green(cfg: dict, out_dir: Path) -> int:
    rows, failure = sample_rows(cfg, GREEN_ROW_KEYS)
    report = {"provenance": provenance_block(cfg), "rows": rows,
              "pass": bool(rows) and all(r["pass"] for r in rows)}
    if failure is not None:
        report["failure"] = failure
    if "json" in cfg["outputs"]["formats"]:
        write_json(out_dir / "green_report.json", report)
    return _exit_code(failure, report["pass"])


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
            p.add_argument("--suite", default=None, choices=KNOWN_SUITES,
                           help="run a single named suite instead of the configured set")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = read_config(args.config)
        # the overrides enter the document, hence the provenance hash
        for section, key, value in (("solver", "grid_n", args.grid),
                                    ("stencil", "h_s", args.fd_step)):
            if value is not None and isinstance(doc, dict) \
                    and isinstance(doc.setdefault(section, {}), dict):
                doc[section][key] = value
        cfg = parse_config(doc)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(f"--threads must be at least 1, got {args.threads}")
            cfg["threads"] = args.threads
        if args.command in ("run-family", "green") and cfg["spec"].n != 1:
            raise ConfigError(f"{args.command} needs family.n = 1: the family pipeline "
                              "assembles n = 1 fibrations only")
        out_dir = Path(args.out or cfg["outputs"]["dir"])
        if args.command == "solve-fiber":
            return cmd_solve_fiber(cfg, out_dir)
        if args.command == "run-family":
            return cmd_run_family(cfg, out_dir, plot=getattr(args, "plot", False))
        if args.command == "verify":
            suites = [args.suite] if args.suite else None
            return cmd_verify(cfg, out_dir, suites=suites)
        return cmd_green(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverDivergence, GeometryError, ArithmeticError) as exc:
        # ArithmeticError: a float power past the range, such as a chi power
        # of s, or a division by a square that underflowed to zero
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
