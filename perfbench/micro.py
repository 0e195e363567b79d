"""Single-call unit costs of each layer, timed after a warm-up call.

Inputs are fixed (README family at s = i, grid 64; the n = 2 chart at grid
24), so these numbers compare one commit with another independently of
the workload seed.  Each figure is the median of several calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

MICRO_METRICS = (
    "micro.ddc_fiber_n1_s", "micro.ddc_fiber_n2_s", "micro.d_z_s",
    "micro.laplace_beltrami_s", "micro.linearized_solve_s", "micro.solve_ma_s",
    "micro.fiberwise_ricci_flat_s", "micro.curvature_report_s", "micro.k_bound_s",
)

REPEATS = 7
BUDGET_S = 0.5      # stop repeating a call once this much time is spent on it


def _time(fn) -> float:
    fn()                                    # warm-up: caches and lazy set-up
    samples = []
    spent = 0.0
    while len(samples) < 3 or (len(samples) < REPEATS and spent < BUDGET_S):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        samples.append(dt)
        spent += dt
    return statistics.median(samples)


def run_micro(config: dict) -> dict:
    from cyflab.cli import parse_config
    from cyflab.familygeom import curvature_report
    from cyflab.geometry import FiberChart, FiberGrid, d_z, ddc_fiber, laplace_beltrami
    from cyflab.green import build_green, k_bound
    from cyflab.masolver import (BaseStencil, MAProblem, eta_from_metric,
                                 fiberwise_ricci_flat, linearized_solve, solve_ma)
    from cyflab.models import make_family

    cfg = parse_config(config)
    family = make_family(cfg["spec"])
    solver = cfg["solver"]
    s = 1j
    form = family.omega(s)
    chart = form.chart
    rng = np.random.RandomState(0)
    field = rng.standard_normal(chart.grid.shape)

    grid2 = FiberGrid(2, 24)
    chart2 = FiberChart.make(grid2, omega_matrix=1j * np.eye(2))
    field2 = rng.standard_normal(grid2.shape)

    problem = MAProblem(chart=chart, gab=form.gab,
                        eta=eta_from_metric(form.gab, chart), epsilon=0.0)
    sol = solve_ma(problem, solver)
    h = form.gab + ddc_fiber(sol.phi, chart)
    stencil = BaseStencil(center=s, h_s=cfg["h_s"])
    rho = fiberwise_ricci_flat(family, stencil, config=solver)
    green = build_green(rho.form.gab, chart)

    calls = {
        "micro.ddc_fiber_n1_s": lambda: ddc_fiber(field, chart),
        "micro.ddc_fiber_n2_s": lambda: ddc_fiber(field2, chart2),
        "micro.d_z_s": lambda: d_z(field, chart),
        "micro.laplace_beltrami_s": lambda: laplace_beltrami(h, field, chart),
        "micro.linearized_solve_s": lambda: linearized_solve(h, chart, 0.1, field, solver),
        "micro.solve_ma_s": lambda: solve_ma(problem, solver),
        "micro.fiberwise_ricci_flat_s":
            lambda: fiberwise_ricci_flat(family, stencil, config=solver),
        "micro.curvature_report_s":
            lambda: curvature_report(family, s, h_s=cfg["h_s"], config=solver, rho=rho),
        "micro.k_bound_s": lambda: k_bound(green),
    }
    return {name: _time(calls[name]) for name in MICRO_METRICS}
