"""The benchmark's tracer (perfbench/spans.py) still finds what it wraps.

perfbench counts the n >= 2 Krylov work through the module-level name
cyflab.masolver.lgmres and wraps the public functions in spans.TARGETS; a
solver change that renames one of them breaks every traced benchmark run.
These tests import perfbench and never change it.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cyflab.masolver
from cyflab.geometry import FiberChart, FiberGrid, ddc_fiber
from cyflab.masolver import MAProblem, eta_from_metric
from cyflab.models import FourierPoly

ROOT = Path(__file__).resolve().parents[1]


def subprocess_env():
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_counts_n2_krylov_matvecs():
    """Traced lgmres matvecs equal the solve's own linear_iterations at n = 2."""
    grid = FiberGrid(2, 8)
    chart = FiberChart.make(grid, omega_matrix=1j * np.eye(2))
    g = np.zeros((2, 2) + grid.shape, dtype=complex)
    g[0, 0] = g[1, 1] = 1.0
    chi = FourierPoly(2, {
        (1, 0, 0, 0, 0, 0): 0.01, (-1, 0, 0, 0, 0, 0): 0.01,
        (0, 0, 0, 1, 0, 0): 0.008, (0, 0, 0, -1, 0, 0): 0.008,
    }).eval(grid, 0.0).real
    g2 = g + ddc_fiber(chi, chart)
    problem = MAProblem(chart=chart, gab=g2, eta=eta_from_metric(g2, chart), epsilon=0.0)

    spans = load_spans()
    rec = spans.Recorder("test")
    tracer = spans.Tracer(rec).install()
    try:
        sol = cyflab.masolver.solve_ma(problem)
    finally:
        tracer.uninstall()

    assert sol.diagnostics["linear_fallbacks"] == 0
    metrics = rec.metrics(points=1)
    assert metrics["lgmres.calls"] == sol.newton_iters
    assert metrics["lgmres.matvecs"] == sum(sol.diagnostics["linear_iterations"]) > 0
    assert metrics["lgmres.unconverged"] == 0
    assert metrics["newton_steps"] == sol.newton_iters


def test_cli_import_leaves_out_sparse_and_linalg():
    """import cyflab.cli loads neither scipy.sparse nor scipy.linalg."""
    code = ("import sys, cyflab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'sparse'], ['scipy', 'linalg'])))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
