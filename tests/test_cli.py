import copy
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyflab.cli
import cyflab.masolver
import cyflab.models
import cyflab.reports
import cyflab.suites
from cyflab.cli import EXIT_ASSERTION, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, \
    manufactured_phi
from cyflab.config import CONFIG_SCHEMA, ConfigError, load_config, parse_config
from cyflab.geometry import DefinitenessError
from cyflab.masolver import SolverDivergence, manufactured_problem, solve_ma
from cyflab.models import VALID_KINDS, FamilySpec, make_family
from cyflab.reports import write_json


def base_config(tmp_path, **overrides):
    doc = {
        "schema": 1,
        "family": {"kind": "universal_elliptic",
                   "base": {"samples": [[0.0, 1.0], [0.0, 2.0]]}},
        "solver": {"grid_n": 64},
        "outputs": {"dir": str(tmp_path / "out"), "formats": ["json", "csv"]},
        "seed": 7,
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path, doc


def test_unknown_keys_rejected(tmp_path):
    path, doc = base_config(tmp_path)
    doc["surprise"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(path))
    assert main(["verify", "--config", str(path), "--suite", "identities"]) == EXIT_CONFIG


def test_schema_and_tol_validation(tmp_path):
    path, doc = base_config(tmp_path)
    doc["schema"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(path))
    doc["schema"] = 1
    doc["solver"] = {"grid_n": 64, "tol": 0.0}
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(path))
    doc["solver"] = {"grid_n": 7}
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(path))
    doc["solver"] = {"grid_n": 64}
    doc["continuation"] = {"eps_schedule": [0.1, 0.5]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_chi_realness_validated(tmp_path):
    path, doc = base_config(tmp_path)
    doc["family"]["chi"] = [[1, 0, 0, 0, 0.05, 0.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_unknown_suite(tmp_path):
    path, doc = base_config(tmp_path)
    doc["suites"] = ["nonsense"]
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path)]) == EXIT_CONFIG


def test_rect_base(tmp_path):
    path, doc = base_config(tmp_path)
    doc["family"]["base"] = {"rect": [-0.1, 0.1, 0.9, 1.1], "nx": 3, "ny": 2}
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert len(cfg["samples"]) == 6
    assert cfg["samples"][0] == complex(-0.1, 0.9)


def test_solve_fiber_manufactured(tmp_path):
    path, doc = base_config(tmp_path)
    doc["fiber"] = {"s": [0.0, 1.0], "eps": 0.5,
                    "manufactured": {"amplitude": 0.05, "mode": [1, 0]}}
    path.write_text(json.dumps(doc))
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "fiber_solution.json").read_text())
    assert rep["recovery_error"] < 1e-10
    # the per-step solve trace: one entry per Newton step
    for key in ("residual_history", "step_lengths", "linear_iterations", "linear_rtol",
                "linear_residual"):
        assert len(rep["diagnostics"][key]) == rep["newton_iters"]
    assert all(its > 0 for its in rep["diagnostics"]["linear_iterations"])
    assert (tmp_path / "out" / "phi.csv").exists()


def test_solve_fiber_product_trivial(tmp_path):
    path, doc = base_config(tmp_path)
    doc["family"] = {"kind": "product", "tau0": [0.0, 1.0],
                     "base": {"samples": [[0.2, 0.3]]}}
    path.write_text(json.dumps(doc))
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "fiber_solution.json").read_text())
    assert rep["diagnostics"]["sup_phi"] < 1e-12


# the acceptance-4 potential 0.01 cos 2 pi x_1 + 0.008 cos 2 pi y_2 on the
# fiber with period matrix i I (the benchmark's fiber-n2 seed-0 input)
N2_FAMILY = {"kind": "product", "n": 2,
             "period_matrix": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]],
             "chi": [[1, 0, 0, 0, 0, 0, 0.01, 0.0], [-1, 0, 0, 0, 0, 0, 0.01, 0.0],
                     [0, 0, 0, 1, 0, 0, 0.008, 0.0], [0, 0, 0, -1, 0, 0, 0.008, 0.0]]}


def read_phi(out):
    """The field of phi.csv, flat, as written (repr round-trips every float)."""
    return np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1)[:, -1]


def test_solve_fiber_n2_starts_from_the_coarse_grid(tmp_path):
    """The fiber-n2 solve runs its Newton steps on the 12^4 grid; the 24^4
    grid accepts the prolonged answer with no step."""
    path, doc = base_config(tmp_path, family=N2_FAMILY, fiber={"eps": 0.0})
    doc["solver"] = {"grid_n": 24, "tol": 1e-11}
    doc["outputs"]["formats"] = ["json"]
    path.write_text(json.dumps(doc))
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "fiber_solution.json").read_text())
    levels = rep["diagnostics"]["levels"]
    assert [lv["grid_n"] for lv in levels] == [12, 24]
    assert levels[0]["newton_iters"] == 4 and levels[0]["matvecs"] > 0
    assert levels[0]["start_residual"] is None
    assert rep["newton_iters"] == levels[1]["newton_iters"] == 0
    assert levels[1]["start_residual"] == rep["residual_sup"] <= 1e-11


def manufactured_n1(tmp_path):
    path, doc = base_config(tmp_path)
    doc["solver"]["grid_n"] = 32
    doc["fiber"] = {"s": [0.0, 1.0], "eps": 0.5,
                    "manufactured": {"amplitude": 0.05, "mode": [1, 0]}}
    path.write_text(json.dumps(doc))
    return path, doc


@pytest.mark.parametrize("failure", ["coarse-diverges", "coarse-indefinite", "guess-fails"])
def test_solve_fiber_falls_back_to_the_direct_solve(tmp_path, monkeypatch, failure):
    """When a coarse level fails, or the solve from its guess does, solve-fiber
    returns the direct solve from phi = 0, bit for bit, with its exit code."""
    path, doc = manufactured_n1(tmp_path)
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "fiber_solution.json").read_text())
    assert [lv["grid_n"] for lv in rep["diagnostics"]["levels"]] == [8, 16, 32]

    def failing(problem, config=None, normalization="ke_volume", initial_guess=None):
        N = problem.chart.grid.N
        if failure == "coarse-diverges" and N < 32:
            raise SolverDivergence("coarse level diverged")
        if failure == "coarse-indefinite" and N < 32:
            raise DefinitenessError("coarse level lost positivity")
        if failure == "guess-fails" and initial_guess is not None:
            raise SolverDivergence("fine solve from the guess diverged")
        return solve_ma(problem, config, normalization, initial_guess)

    monkeypatch.setattr(cyflab.masolver, "solve_ma", failing)
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "fiber_solution.json").read_text())
    (level,) = rep["diagnostics"]["levels"]
    assert level["grid_n"] == 32 and level["start_residual"] is None
    assert level["newton_iters"] == rep["newton_iters"]
    cfg = load_config(str(path))
    family = make_family(cfg["spec"])
    metric = family.fiber_metric(cfg["fiber"]["s"])
    problem = manufactured_problem(metric, manufactured_phi(cfg["fiber"]["manufactured"],
                                                            metric.chart.grid), 0.5)
    direct = solve_ma(problem, cfg["solver"], "none")
    assert rep["newton_iters"] == direct.newton_iters > 0
    assert np.array_equal(read_phi(tmp_path / "out"), direct.phi.ravel())


def test_solve_fiber_n2_manufactured_eps_positive(tmp_path):
    """A full n = 2 Newton solve at eps > 0 on a metric with non-constant
    coefficients recovers the manufactured phi*, on the nested path and
    directly, and the two answers agree."""
    path, doc = base_config(tmp_path, family=N2_FAMILY)
    doc["solver"] = {"grid_n": 16, "tol": 1e-11}
    doc["fiber"] = {"eps": 0.4, "manufactured": {"amplitude": 0.02, "mode": [1, 1, 0, -1]}}
    path.write_text(json.dumps(doc))
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_OK
    out = tmp_path / "out"
    rep = json.loads((out / "fiber_solution.json").read_text())
    assert rep["recovery_error"] <= 1e-10 and rep["residual_sup"] <= 1e-11
    assert [lv["grid_n"] for lv in rep["diagnostics"]["levels"]] == [8, 16]

    cfg = load_config(str(path))
    metric = make_family(cfg["spec"]).fiber_metric(cfg["fiber"]["s"])
    phi_star = manufactured_phi(cfg["fiber"]["manufactured"], metric.chart.grid)
    direct = solve_ma(manufactured_problem(metric, phi_star, 0.4), cfg["solver"], "none")
    assert direct.newton_iters > 1 and direct.residual_sup <= 1e-11
    assert np.max(np.abs(direct.phi - phi_star)) <= 1e-10
    assert np.max(np.abs(read_phi(out) - direct.phi.ravel())) <= 1e-10


def test_epsilon_suite_without_a_decay_order_fails_with_a_reason(tmp_path, monkeypatch):
    """On a chi = 0 family every phi_eps is the eps = 0 one, so no order can be
    fitted: the suite fails, says why, and its report is valid JSON."""
    monkeypatch.setattr(cyflab.suites, "_perturbed_family", lambda cfg: make_family(
        FamilySpec(kind="universal_elliptic", grid_n=cfg["spec"].grid_n)))
    path, doc = base_config(tmp_path)
    doc["solver"]["grid_n"] = 16
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--suite", "epsilon"]) == EXIT_ASSERTION
    suite = json.loads((tmp_path / "out" / "verify_report.json").read_text())["suites"]["epsilon"]
    assert suite["order"] is None and not suite["pass"]
    assert suite["failure"].startswith("no decay order")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_refuses_non_finite_values(tmp_path, value):
    with pytest.raises(ValueError):
        write_json(tmp_path / "report.json", {"rows": [{"order": value}]})


def test_run_family_outputs_and_determinism(tmp_path):
    path, doc = base_config(tmp_path)
    assert main(["run-family", "--config", str(path)]) == EXIT_OK
    report1 = (tmp_path / "out" / "family_report.json").read_bytes()
    csv1 = (tmp_path / "out" / "family.csv").read_text()
    header = csv1.splitlines()[0]
    assert header == ("s_re,s_im,direct_image,lower_bound,theta_E,wp,c_min,c_max,"
                      "pde_residual_sup,K,combined_min_eig")
    rows = csv1.splitlines()[1:]
    assert len(rows) == 2
    # section 8 direct image: 1/(Im s)^2 at the two samples
    vals = [float(r.split(",")[2]) for r in rows]
    assert abs(vals[0] - 1.0) < 1e-9 and abs(vals[1] - 0.25) < 1e-9
    # byte-identical rerun
    assert main(["run-family", "--config", str(path)]) == EXIT_OK
    assert (tmp_path / "out" / "family_report.json").read_bytes() == report1


def test_run_family_threads_deterministic(tmp_path):
    """run-family and green write the same rows on one thread and on four."""
    path, doc = base_config(tmp_path)
    for command, name in (("run-family", "family_report.json"), ("green", "green_report.json")):
        assert main([command, "--config", str(path)]) == EXIT_OK
        ref = json.loads((tmp_path / "out" / name).read_text())
        assert main([command, "--config", str(path), "--threads", "4"]) == EXIT_OK
        out = json.loads((tmp_path / "out" / name).read_text())
        assert out["rows"] == ref["rows"]


@pytest.mark.parametrize("command, name", [("run-family", "family_report.json"),
                                           ("green", "green_report.json")])
def test_divergence_keeps_rows_before_it(tmp_path, monkeypatch, capsys, command, name):
    """A divergent solve at the second of three samples exits 3, and the report
    holds the first sample's row and the failure."""
    import cyflab.cli
    from cyflab.masolver import SolverDivergence

    report = cyflab.cli.sample_report
    calls = []

    def diverging(family, s, *args, **kwargs):
        calls.append(s)
        if len(calls) == 2:
            raise SolverDivergence("Newton did not converge")
        return report(family, s, *args, **kwargs)

    monkeypatch.setattr(cyflab.cli, "sample_report", diverging)
    path, doc = base_config(tmp_path)
    doc["family"]["base"]["samples"] = [[0.0, 1.0], [0.0, 2.0], [0.0, 1.5]]
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure at s = 2j")
    rep = json.loads((tmp_path / "out" / name).read_text())
    assert len(rep["rows"]) == 1
    assert rep["failure"]["s"] == [0.0, 2.0]
    if command == "run-family":
        assert len((tmp_path / "out" / "family.csv").read_text().splitlines()) == 2


def test_continuation_divergence_aborts_at_its_eps(tmp_path, monkeypatch, capsys):
    """A solve that diverges at the third eps of the schedule ends the
    continuation there, with the eps, the solves completed and the residual;
    verify --suite epsilon then exits 3."""
    import cyflab.masolver
    from cyflab.masolver import SolverDivergence, epsilon_continuation
    from cyflab.models import FamilySpec, make_family

    real_solve = cyflab.masolver.solve_ma
    calls = []

    def diverging(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise SolverDivergence("Newton did not converge", residual=2.5e-3)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cyflab.masolver, "solve_ma", diverging)
    family = make_family(FamilySpec(kind="universal_elliptic", grid_n=16))
    with pytest.raises(SolverDivergence) as err:
        epsilon_continuation(family, 1j, [1.0, 0.3, 0.1, 0.0])
    assert str(err.value) == ("continuation aborted at eps = 0.1: Newton did not "
                              "converge; 2 solves completed")
    assert err.value.residual == 2.5e-3

    calls.clear()
    path, doc = base_config(tmp_path)
    doc["solver"]["grid_n"] = 16
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--suite", "epsilon"]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "numerical failure: continuation aborted at eps = 0.1:")
    assert len(calls) == 3


@pytest.mark.parametrize("command", ["run-family", "green"])
def test_family_commands_reject_n2(tmp_path, capsys, command):
    """run-family and green assemble n = 1 fibrations only: an n = 2 config is
    a config error, rejected before any report is written, while solve-fiber
    runs it."""
    path, doc = base_config(tmp_path)
    doc["family"] = {"kind": "product", "n": 2,
                     "period_matrix": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]}
    doc["solver"]["grid_n"] = 8
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_OK


@pytest.mark.parametrize("command, name", [("run-family", "family_report.json"),
                                           ("green", "green_report.json")])
def test_stencil_outside_domain_keeps_rows_before_it(tmp_path, capsys, command, name):
    """A sample whose base stencil leaves the upper half plane (s - i h_s with
    Im s = h_s / 2) exits 3 like a divergence: the report holds the rows before
    it and the failure."""
    path, doc = base_config(tmp_path)
    doc["family"]["base"]["samples"] = [[0.0, 1.0], [0.0, 0.0005]]
    doc["solver"]["grid_n"] = 16
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure at s = 0.0005j")
    rep = json.loads((tmp_path / "out" / name).read_text())
    assert len(rep["rows"]) == 1
    assert rep["failure"]["s"] == [0.0, 0.0005]
    if command == "run-family":
        assert len((tmp_path / "out" / "family.csv").read_text().splitlines()) == 2


def test_run_family_evaluates_each_point_once(tmp_path, monkeypatch):
    """run-family takes dbar v and c(rho) once per base point: the curvature
    report hands them to every identity that needs them."""
    import cyflab.familygeom

    calls = []
    for name in ("dbar_vertical", "geodesic_curvature"):
        def counted(*args, _name=name, _real=getattr(cyflab.familygeom, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cyflab.familygeom, name, counted)
    path, _ = base_config(tmp_path)
    assert main(["run-family", "--config", str(path)]) == EXIT_OK
    assert sorted(calls) == 2 * ["dbar_vertical"] + 2 * ["geodesic_curvature"]


def test_run_family_svg(tmp_path):
    path, doc = base_config(tmp_path)
    doc["family"]["base"] = {"rect": [-0.1, 0.1, 0.9, 1.1], "nx": 2, "ny": 2}
    doc["outputs"]["formats"] = ["json", "csv", "svg"]
    path.write_text(json.dumps(doc))
    assert main(["run-family", "--config", str(path)]) == EXIT_OK
    svg = (tmp_path / "out" / "c_heatmap.svg").read_text()
    assert svg.startswith("<svg") and "rect" in svg


def test_verify_single_suite(tmp_path):
    path, _ = base_config(tmp_path)
    assert main(["verify", "--config", str(path), "--suite", "identities"]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert rep["suites"]["identities"]["cases"] == 100
    assert rep["pass"]


def test_verify_seed_determinism(tmp_path):
    path, doc = base_config(tmp_path)
    assert main(["verify", "--config", str(path), "--suite", "identities"]) == EXIT_OK
    first = (tmp_path / "out" / "verify_report.json").read_bytes()
    assert main(["verify", "--config", str(path), "--suite", "identities"]) == EXIT_OK
    assert (tmp_path / "out" / "verify_report.json").read_bytes() == first


def test_verify_convergence_suite(tmp_path):
    path, _ = base_config(tmp_path)
    assert main(["verify", "--config", str(path), "--suite", "convergence"]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    conv = rep["suites"]["convergence"]
    assert conv["spectral_factor"] >= 100
    assert conv["fd_ratio"] >= 3


def test_positivity_suite_solves_each_sample_once(tmp_path, monkeypatch):
    import cyflab.familygeom
    import cyflab.masolver

    calls = []
    solve = cyflab.masolver.fiberwise_ricci_flat

    def counted(family, stencil, *args, **kwargs):
        calls.append(stencil.center)
        return solve(family, stencil, *args, **kwargs)

    monkeypatch.setattr(cyflab.familygeom, "fiberwise_ricci_flat", counted)
    monkeypatch.setattr(cyflab.masolver, "fiberwise_ricci_flat", counted)
    path, doc = base_config(tmp_path)
    doc["solver"] = {"grid_n": 16}
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), "--suite", "positivity"]) == EXIT_OK
    assert calls == [0.1 + 0.9j, 0.3 + 1.1j]
    rows = json.loads((tmp_path / "out" / "verify_report.json").read_text())[
        "suites"]["positivity"]["rows"]
    assert [sorted(r) for r in rows] == \
        2 * [["K", "combined_min_eig", "mean_c", "pass", "pointwise_margin", "s", "wp"]] \
        + 2 * [["direct_image", "lower_bound", "pass", "s"]]


def test_green_command(tmp_path):
    path, doc = base_config(tmp_path)
    doc["family"]["base"] = {"samples": [[0.0, 1.0]]}
    path.write_text(json.dumps(doc))
    assert main(["green", "--config", str(path)]) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "green_report.json").read_text())
    assert rep["rows"][0]["K"] > 0 and rep["pass"]


def test_cli_entry_point(tmp_path):
    path, _ = base_config(tmp_path)
    # the subprocess does not inherit pytest's pythonpath setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "cyflab.cli", "verify", "--config", str(path),
         "--suite", "identities"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr


def test_solve_fiber_divergence_exit3(tmp_path):
    path, doc = base_config(tmp_path)
    doc["solver"] = {"grid_n": 64, "max_iters": 1}
    doc["fiber"] = {"s": [0.0, 1.0], "eps": 0.5,
                    "manufactured": {"amplitude": 0.1, "mode": [1, 0]}}
    path.write_text(json.dumps(doc))
    assert main(["solve-fiber", "--config", str(path)]) == 3


def test_solve_fiber_divergence_falls_back_once(tmp_path, monkeypatch, capsys):
    """On test_solve_fiber_divergence_exit3's input every level diverges: the
    coarsest level (8) fails, the failure passes up through 16 and 32
    without a solve of their own, and only the 64 grid is solved again from
    phi = 0, which fails with the message of a direct solve."""
    path, doc = base_config(tmp_path)
    doc["solver"] = {"grid_n": 64, "max_iters": 1}
    doc["fiber"] = {"s": [0.0, 1.0], "eps": 0.5,
                    "manufactured": {"amplitude": 0.1, "mode": [1, 0]}}
    path.write_text(json.dumps(doc))
    calls = []

    def counting(problem, *args, **kwargs):
        calls.append((problem.chart.grid.N, kwargs.get("initial_guess") is not None))
        return solve_ma(problem, *args, **kwargs)

    monkeypatch.setattr(cyflab.masolver, "solve_ma", counting)
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_NUMERICAL
    assert calls == [(8, False), (64, False)]
    assert capsys.readouterr().err == ("numerical failure: Newton did not converge in 1 "
                                       "iterations (residual 2.082e+00)\n")


def n2_solve_fiber_config(tmp_path, grid_n=24):
    """The fiber-n2 input: N2_FAMILY at s = i, eps = 0, on a grid_n^4 grid."""
    path, doc = base_config(tmp_path, family=N2_FAMILY, fiber={"eps": 0.0})
    doc["solver"] = {"grid_n": grid_n, "tol": 1e-11}
    path.write_text(json.dumps(doc))
    return path


def test_solve_fiber_builds_the_fine_metric_once(tmp_path, monkeypatch):
    """The metric that validates the base sample s is the fine problem's:
    Family.fiber_metric runs once on the 24^4 grid and once on 12^4."""
    built = []
    fiber_metric = cyflab.models.Family.fiber_metric

    def counting(family, s):
        built.append(family.grid.N)
        return fiber_metric(family, s)

    monkeypatch.setattr(cyflab.models.Family, "fiber_metric", counting)
    assert main(["solve-fiber", "--config", str(n2_solve_fiber_config(tmp_path))]) == EXIT_OK
    assert built == [24, 12]


@pytest.mark.parametrize("family, fiber, message", [
    # n = 2, indefinite at s
    ({**N2_FAMILY, "chi": [[1, 0, 0, 0, 0, 0, 0.1, 0.0], [-1, 0, 0, 0, 0, 0, 0.1, 0.0]]},
     {"eps": 0.0}, "at s = 1j (min eig -9.739e-01)"),
    # n = 1, indefinite at s = 3i and at the sample i after it: the first is named
    ({"kind": "universal_elliptic", "chi": [[1, 0, 0, 0, 0.1, 0], [-1, 0, 0, 0, 0.1, 0]],
      "base": {"samples": [[0.0, 3.0], [0.0, 1.0]]}},
     {"s": [0.0, 3.0]}, "at s = 3j (min eig -1.641e+00)"),
    # n = 1, indefinite at a base sample other than s
    ({"kind": "universal_elliptic", "chi": [[1, 0, 0, 0, 0.1, 0], [-1, 0, 0, 0, 0.1, 0]],
      "base": {"samples": [[0.0, 3.0]]}},
     {"s": [0.0, 1.0]}, "at s = 3j (min eig -1.641e+00)"),
])
def test_solve_fiber_rejects_an_indefinite_model_metric(tmp_path, capsys, family, fiber,
                                                         message):
    """A base sample where the model form's fiber metric is indefinite ends
    solve-fiber with exit 3 and names the sample and the least eigenvalue."""
    path, doc = base_config(tmp_path, family=family, fiber=fiber)
    doc["solver"] = {"grid_n": 12 if family.get("n") == 2 else 16}
    path.write_text(json.dumps(doc))
    assert main(["solve-fiber", "--config", str(path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == \
        f"numerical failure: model form loses fiber definiteness {message}\n"


def test_solve_fiber_n2_peak_memory(tmp_path):
    """The whole fiber-n2 command, reports included, holds at most 19 real
    24^4 fields of traced allocations over what it starts with.

    Measured in a fresh process: 17.48 fields, reached while dd^c of the
    prolonged guess forms the metric of its 24^4 residual (g, eta, det g,
    log det g, the Ricci-flat density, phi and the dd^c tables are alive);
    the bound leaves 1.52 fields of margin.  16.36 before the problem held
    det g and the solve the density; a complex (2, 2) stack for g and h
    took 29.2 fields.
    """
    path = n2_solve_fiber_config(tmp_path)
    field_bytes = 8 * 24 ** 4
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(["solve-fiber", "--config", str(path)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 19 * field_bytes, f"peak {peak / field_bytes:.2f} real fields"


def test_richardson_theta(tmp_path):
    from cyflab.familygeom import theta_E
    from cyflab.masolver import BaseStencil
    from cyflab.models import FamilySpec, make_family
    fam = make_family(FamilySpec(kind="modulus_map", modulus_coeffs=(0.0, 1.0, 0.1),
                                 grid_n=32, base_samples=(0.2 + 1.1j,)))
    s = 0.2 + 1.1j
    tau, taup = fam.tau(s), fam.tau_prime(s)
    exact = abs(taup) ** 2 / abs(tau - np.conj(tau)) ** 2
    stencil = BaseStencil(center=s, h_s=2e-3)
    plain = abs(theta_E(fam, stencil) - exact)
    refined = abs(theta_E(fam, stencil, richardson=True) - exact)
    assert refined < plain / 10


def test_grid_override(tmp_path):
    path, _ = base_config(tmp_path)
    cfg = load_config(str(path))
    assert cfg["spec"].grid_n == 64
    # --grid propagates through re-parsing
    assert main(["verify", "--config", str(path), "--suite", "identities",
                 "--grid", "32"]) == EXIT_OK


RECT = [-0.1, 0.1, 0.9, 1.1]


# Each edit sets the value at a dotted path of the base config (grid 16).
@pytest.mark.parametrize("command, edit", [
    (["solve-fiber"], {"fiber": {"manufactured": {"mode": [1, 0]}}}),
    (["solve-fiber"], {"fiber": {"manufactured": {"amplitude": 0.05, "mode": [1, 0, 0]}}}),
    (["solve-fiber"], {"solver": {"grid_n": "x"}}),
    (["verify", "--suite", "epsilon"], {"continuation": {"eps_schedule": []}}),
    (["run-family"], {"threads": 0}),
    (["run-family"], {"family.chi": 5}),
    (["run-family"], {"family.base.samples": 5}),
    (["verify"], {"suites": 5}),
    (["run-family"], {"outputs.formats": 5}),
    (["run-family"], {"family.base": {"rect": RECT, "nx": -1}}),
    (["verify", "--suite", "identities"], {"seed": -1}),
    (["verify", "--suite", "identities"], {"seed": 2 ** 40}),
    (["run-family"], {"family.base": {"rect": RECT, "nx": 0}}),
    (["run-family"], {"family.base.samples": []}),
    (["run-family"], {"family.chi": [[1, 0, -1, 0, 0.01, 0.0], [-1, 0, 0, -1, 0.01, 0.0]]}),
    (["run-family"], {"solver.max_iters": 0}),
    (["run-family"], {"stencil.h_s": float("inf")}),
    (["solve-fiber"], {"fiber.eps": -1}),
    (["solve-fiber"], {"fiber.s": [0, -1]}),
    (["run-family"], {"solver.grid_n": 16.7}),
    (["run-family"], {"family.chi": [[1.5, 0, 0, 0, 0.01, 0.0], [-1.5, 0, 0, 0, 0.01, 0.0]]}),
    (["run-family"], {"stencil.richardson": "no"}),
    (["run-family"], {"solver.damping_floor": 2}),
    (["run-family"], {"outputs.dir": 5}),
    (["run-family"], {"fiber.normalization": "bad"}),
    (["run-family"], {"family.chi": 2 * [[1, 0, 0, 0, 1e308, 0.0], [-1, 0, 0, 0, 1e308, 0.0]]}),
    (["run-family"], {"family": {"kind": "product", "n": 2,
                                 "period_matrix": [[[0, 1], 0], [0, [0, 1]]]},
                      "solver.grid_n": 34}),
    (["run-family"], {"solver.grid_n": 17}),
    (["solve-fiber"], {"fiber": {"manufactured": {"amplitude": 0.05, "mode": [8, 0]}}}),
    (["verify", "--suite", "elliptic"], {"stencil.h_s": 1e-300}),
    (["verify", "--suite", "epsilon"], {"continuation": {"eps_schedule": [0.1, 0.0]}}),
    (["verify"], {"suites": []}),
    (["run-family"], {"family": {"kind": "product", "period_matrix": [[[0.3, 2.5]]]}}),
], ids=["manufactured-no-amplitude", "mode-3-entries", "grid-n-string",
        "empty-eps-schedule", "threads-0",
        "chi-5", "samples-5", "suites-5", "formats-5", "nx-negative", "seed-negative",
        "seed-2-40", "nx-0", "samples-empty", "chi-power-negative", "max-iters-0",
        "h-s-infinite", "fiber-eps-negative", "fiber-s-below-axis", "grid-n-float",
        "chi-frequency-float", "richardson-string", "damping-floor-2", "dir-5",
        "normalization-bad", "chi-coefficient-overflow", "grid-n2-past-node-bound",
        "grid-n-odd", "mode-past-nyquist", "h-s-tiny", "eps-schedule-one-positive",
        "suites-empty", "period-matrix-at-n1"])
def test_malformed_config_exits_2(tmp_path, capsys, command, edit):
    path, doc = base_config(tmp_path)
    doc["solver"]["grid_n"] = 16
    for dotted, value in edit.items():
        *parents, last = dotted.split(".")
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        node[last] = value
    path.write_text(json.dumps(doc))
    assert main(command + ["--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, edit", [
    (["run-family"], {"family": {"kind": "product", "tau0": [0.0, -1.0],
                                 "base": {"samples": [[0.2, 0.3]]}}}),
    (["solve-fiber"], {"fiber": {"manufactured": {"amplitude": 1.0, "mode": [1, 0]}}}),
    (["solve-fiber"], {"fiber": {"eps": 0.5,
                                 "manufactured": {"amplitude": 1.0, "mode": [1, 0]}}}),
    (["run-family"], {"family": {"kind": "universal_elliptic",
                                 "base": {"samples": [[0.0, 1.2]]},
                                 "chi": [[1, 0, 4000, 0, 0.01, 0.0],
                                         [-1, 0, 0, 4000, 0.01, 0.0]]}}),
    (["run-family"], {"family": {"kind": "universal_elliptic", "base_coeff": 1e308,
                                 "base": {"samples": [[0.0, 1.0]]}}}),
    (["green"], {"family": {"kind": "universal_elliptic", "base_coeff": 1e308,
                            "base": {"samples": [[0.0, 1.0]]}}}),
], ids=["tau0-below-axis", "manufactured-not-positive-eps-0",
        "manufactured-not-positive-eps-positive", "chi-power-overflow",
        "base-coeff-overflow-run-family", "base-coeff-overflow-green"])
def test_numerical_failure_exits_3(tmp_path, capsys, command, edit):
    """Well-formed configs whose numerics fail exit 3, never with a traceback
    or a report of non-finite values: a family whose fibers are not tori, a
    manufactured phi* whose g + dd^c phi* is not positive (its forcing would
    be NaN), a chi power of s past the float range, and a base term so large
    that a report value overflows."""
    path, doc = base_config(tmp_path)
    doc.update(edit)
    doc["solver"]["grid_n"] = 16
    path.write_text(json.dumps(doc))
    assert main(command + ["--config", str(path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure")
    assert not (tmp_path / "out" / "fiber_solution.json").exists()


@pytest.mark.parametrize("command, report, flag", [
    ("run-family", "family_report.json", "positive"), ("green", "green_report.json", "pass")])
def test_large_base_term_reports_a_positive_form(tmp_path, command, report, flag):
    """A base term of 1e200 puts g_ss near 1e200 beside g_zz near 1: the
    combined form's least eigenvalue is still taken finite, and the row is
    written with it."""
    path, doc = base_config(tmp_path)
    doc["family"] = {"kind": "universal_elliptic", "base_coeff": 1e200,
                     "base": {"samples": [[0.0, 1.0]]}}
    doc["solver"]["grid_n"] = 16
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == EXIT_OK
    (row,) = json.loads((tmp_path / "out" / report).read_text())["rows"]
    assert np.isfinite(row["combined_min_eig"]) and row["combined_min_eig"] > 0
    assert row[flag] is True


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PAIR = st.lists(_FINITE, min_size=2, max_size=2)


@settings(max_examples=30, deadline=None)
# a base term whose report values overflow, and a modulus whose Im tau^2
# underflows to zero in the base term's division
@example(kind="universal_elliptic", base_coeff=1e308, tau0=[0.0, 1.0],
         modulus_coeffs=[[0.0, 1.0]], h_s=1e-3, sample=(0.0, 1.0))
@example(kind="modulus_map", base_coeff=1.0, tau0=[0.0, 1.0],
         modulus_coeffs=[[0.0, 4.198338182088119e-286]], h_s=1.0, sample=(0.0, 1.0))
@given(kind=st.sampled_from(VALID_KINDS), base_coeff=st.floats(0.0, 1e308, exclude_min=True),
       tau0=_PAIR, modulus_coeffs=st.lists(_PAIR, min_size=1, max_size=3),
       h_s=st.floats(1e-6, 1e308),
       sample=st.tuples(_FINITE, st.floats(0.0, 1e308, exclude_min=True)))
def test_family_commands_exit_0_1_or_3(tmp_path_factory, kind, base_coeff, tau0,
                                       modulus_coeffs, h_s, sample):
    """run-family and green on any numbers the config accepts return 0, 1 or
    3 and never raise; every report they write is valid JSON, and one written
    with exit 3 names the failure."""
    out = tmp_path_factory.mktemp("out")
    doc = {"schema": 1,
           "family": {"kind": kind, "base_coeff": base_coeff, "tau0": tau0,
                      "modulus_coeffs": modulus_coeffs, "base": {"samples": [list(sample)]}},
           "solver": {"grid_n": 8}, "stencil": {"h_s": h_s},
           "outputs": {"dir": str(out), "formats": ["json", "csv"]}}
    path = out / "cfg.json"
    path.write_text(json.dumps(doc))
    for command, name in (("run-family", "family_report.json"), ("green", "green_report.json")):
        code = main([command, "--config", str(path)])
        assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_NUMERICAL)
        if (out / name).exists():
            report = json.loads((out / name).read_text())
            assert ("failure" in report) == (code == EXIT_NUMERICAL)


def test_damping_floor_one_is_undamped_newton(tmp_path):
    """damping_floor = 1 (no step halving) is a valid config."""
    _, doc = base_config(tmp_path)
    doc["solver"]["damping_floor"] = 1
    assert parse_config(doc)["solver"].damping_floor == 1.0


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _schema_keys():
    return {name if where == "config" else f"{where}.{name}": key
            for where, table in CONFIG_SCHEMA.items() for name, key in table.items()}


def test_readme_config_reference_matches_schema():
    """Every key of the README's config reference, with its default and range,
    is a key of the schema table, and the reverse; each range gives its reason."""
    section = _readme().split("## Config reference")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            rows[cells[0].strip("`")] = cells
    keys = _schema_keys()
    assert sorted(rows) == sorted(keys)
    for name, key in keys.items():
        _, _, default, allowed, why = rows[name]
        assert allowed == key.allowed, name
        assert bool(why) == bool(allowed), f"{name}: a range needs its reason"
        if key.default is Ellipsis:
            assert default == "required", name
        elif key.default is not None:
            assert default == f"`{json.dumps(key.default)}`", name


N2_CONFIG = {
    "schema": 1,
    "family": {"kind": "product", "n": 2,
               "period_matrix": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]],
               "chi": [[1, 0, 0, 0, 0, 0, 0.01, 0.0], [-1, 0, 0, 0, 0, 0, 0.01, 0.0]]},
    "solver": {"grid_n": 24, "tol": 1e-11},
    "fiber": {"eps": 0.0, "manufactured": {"amplitude": 0.05, "mode": [1, 0, 0, 0]}},
    "outputs": {"dir": "out", "formats": ["json", "csv"]},
}

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
# values near the valid ones, so that mutations also reach the later rules
_NEAR = st.sampled_from([0, 1, 2, -1, 7, 16, 24, 2 ** 40, 0.5, 1e-11, 1e300, [], {},
                         [0, 1], [0, -1], [1, 0], [0.2, 0.3], [[0, 1]], [1, 0, 0, 0],
                         [-0.2, 0.2, 0.8, 1.2], [[1, 0, 0, 0, 0.01, 0.0]],
                         "product", "modulus_map", "ke_volume", "json", "epsilon"])


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _nodes(child, path + (i,))


@pytest.mark.parametrize("base", ["readme", "n2"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_config_mutations_raise_only_config_error(base, data):
    """parse_config returns or raises ConfigError for any mutation of a valid config."""
    doc = json.loads(_readme().split("```json\n")[1].split("```")[0]) if base == "readme" \
        else copy.deepcopy(N2_CONFIG)
    names = st.sampled_from(sorted({k.split(".")[-1] for k in _schema_keys()}))
    for _ in range(data.draw(st.integers(1, 3))):
        path, node = data.draw(st.sampled_from(list(_nodes(doc))))
        op = data.draw(st.sampled_from(["replace", "delete", "add"]))
        value = copy.deepcopy(data.draw(_JSON | _NEAR))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "replace":
            if path:
                parent[path[-1]] = value
            else:
                doc = value
        elif op == "delete" and path:
            del parent[path[-1]]
        elif op == "add" and isinstance(node, dict):
            node[data.draw(names | st.text(max_size=4))] = value
        elif op == "add" and isinstance(node, list):
            node.append(value)
    try:
        parse_config(doc)
    except ConfigError:
        pass


def _csv_module_phi(path, phi):
    """The csv.writer form of write_phi_csv, the reference for its bytes."""
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if phi.ndim == 2:
            writer.writerow(["i", "j", "phi"])
            for i in range(phi.shape[0]):
                for j in range(phi.shape[1]):
                    writer.writerow([i, j, repr(float(phi[i, j]))])
        else:
            writer.writerow(["flat_index", "phi"])
            for i, v in enumerate(phi.ravel()):
                writer.writerow([i, repr(float(v))])


@pytest.mark.parametrize("shape", [(8, 6), (4, 4, 4, 4)])
def test_phi_csv_bytes_match_csv_module(tmp_path, shape):
    from cyflab.reports import write_phi_csv
    rng = np.random.RandomState(1)
    phi = rng.standard_normal(shape) * 10.0 ** rng.randint(-20, 20, size=shape)
    phi.flat[0] = 0.0
    phi.flat[1] = -1e-300
    write_phi_csv(tmp_path / "new.csv", phi)
    _csv_module_phi(tmp_path / "ref.csv", phi)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _per_row_phi(path, phi):
    """write_phi_csv as one f-string per row, the reference for the joined blocks."""
    flat = np.asarray(phi, dtype=float).ravel().tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if phi.ndim == 2:
            cols = phi.shape[1]
            fh.write("i,j,phi\r\n")
            fh.write("".join(f"{k // cols},{k % cols},{v!r}\r\n" for k, v in enumerate(flat)))
        else:
            fh.write("flat_index,phi\r\n")
            fh.write("".join(f"{k},{v!r}\r\n" for k, v in enumerate(flat)))


@pytest.mark.parametrize("block", [7, 2 ** 15])
@pytest.mark.parametrize("shape", [(9, 12), (4, 4, 4, 4)])
def test_phi_csv_blocks_match_per_row_writer(tmp_path, monkeypatch, shape, block):
    """The joined blocks give the per-row writer's bytes, across block edges too."""
    monkeypatch.setattr(cyflab.reports, "PHI_CSV_BLOCK", block)
    rng = np.random.RandomState(2)
    phi = rng.standard_normal(shape) * 10.0 ** rng.randint(-20, 20, size=shape)
    phi.flat[:4] = [1e-05, -3.2e-17, 0.0, -0.0]
    assert repr(float(phi.flat[0])) == "1e-05" and repr(float(phi.flat[1])) == "-3.2e-17"
    cyflab.reports.write_phi_csv(tmp_path / "new.csv", phi)
    _per_row_phi(tmp_path / "ref.csv", phi)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _assert_phi_csv_is_repr(tmp, phi):
    """write_phi_csv gives the bytes of both repr-based references."""
    cyflab.reports.write_phi_csv(tmp / "new.csv", phi)
    new = (tmp / "new.csv").read_bytes()
    for reference in (_per_row_phi, _csv_module_phi):
        reference(tmp / "ref.csv", phi)
        ref = (tmp / "ref.csv").read_bytes()
        assert new == ref, next((pair for pair in zip(new.split(b"\r\n"), ref.split(b"\r\n"))
                                 if pair[0] != pair[1]), "lengths differ")


def _phi_field(values, ndim):
    """values, padded with zeros, as a 2-d (-1, 7) or a 4-d (-1, 2, 3, 2) field."""
    cols = 7 if ndim == 2 else 12
    flat = np.zeros(-(-len(values) // cols) * cols)
    flat[:len(values)] = values
    return flat.reshape((-1, 7) if ndim == 2 else (-1, 2, 3, 2))


PHI_CSV_EDGES = np.array(
    [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 1e-5,
     9999999999999998.0, 1e16, 1e23, 9007199254740993.0, 0.1, 0.3, -0.0, 0.0,
     np.nan, np.inf, -np.inf] + [2.0 ** k for k in range(-1074, 1024)])
with np.errstate(over="ignore"):
    PHI_CSV_EDGES = np.concatenate([PHI_CSV_EDGES, np.nextafter(PHI_CSV_EDGES, np.inf),
                                    np.nextafter(PHI_CSV_EDGES, 0.0)])


@pytest.mark.parametrize("block", [7, 2 ** 15])
@pytest.mark.parametrize("ndim", [2, 4])
def test_phi_csv_edge_values_are_repr(tmp_path, monkeypatch, ndim, block):
    """Subnormals, the ends of the double range, every power of two (where the
    spacing below differs from the spacing above), the neighbours of each, and
    the edges of repr's positional and exponent forms."""
    monkeypatch.setattr(cyflab.reports, "PHI_CSV_BLOCK", block)
    values = np.concatenate([PHI_CSV_EDGES, -PHI_CSV_EDGES])
    _assert_phi_csv_is_repr(tmp_path, _phi_field(values, ndim))


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_phi_csv_digits_are_repr_for_any_bits(tmp_path_factory, words, seed):
    """Any float64 bit pattern, NaN payloads, subnormals and infinities
    included; half of the random patterns get an exponent near 2^0, where
    repr switches between positional text and the exponent form."""
    tmp = tmp_path_factory.mktemp("phi")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64 - 1, size=2000, dtype=np.uint64, endpoint=True)
    near_one = rng.integers(1003, 1080, size=1000).astype(np.uint64) << 52
    bits[1000:] = bits[1000:] & ~np.uint64(0x7FF << 52) | near_one
    values = np.frombuffer(np.concatenate([np.array(words, dtype=np.uint64), bits]).tobytes(),
                           dtype=np.float64)
    for ndim in (2, 4):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cyflab.reports, "PHI_CSV_BLOCK", 7)
            _assert_phi_csv_is_repr(tmp, _phi_field(values[:200], ndim))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cyflab.reports, "PHI_CSV_BLOCK", 2 ** 15)
            _assert_phi_csv_is_repr(tmp, _phi_field(values, ndim))


def test_phi_csv_write_peak_memory(tmp_path):
    """Writing a 24^4 field holds at most 1.5 real 24^4 fields of traced
    allocations over what it starts with: only one PHI_CSV_BLOCK of rows is
    formatted at a time.

    Measured: 0.99 fields at 2^13 rows a block (1.95 at 2^14, 3.84 at 2^15).
    The fiber-n2 command peaks at 17.48 fields elsewhere, so the write is
    never its peak.
    """
    phi = np.random.RandomState(3).standard_normal((24,) * 4)
    field_bytes = phi.nbytes
    cyflab.reports.write_phi_csv(tmp_path / "warm.csv", phi[:1])   # the lazy tables
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cyflab.reports.write_phi_csv(tmp_path / "phi.csv", phi)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 1.5 * field_bytes, f"peak {peak / field_bytes:.2f} real fields"
