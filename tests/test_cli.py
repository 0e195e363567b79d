import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyflab.cli import CONFIG_SCHEMA, ConfigError, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, \
    load_config, main, parse_config


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
    import cyflab.cli
    import cyflab.familygeom
    import cyflab.masolver

    calls = []
    solve = cyflab.masolver.fiberwise_ricci_flat

    def counted(family, stencil, *args, **kwargs):
        calls.append(stencil.center)
        return solve(family, stencil, *args, **kwargs)

    monkeypatch.setattr(cyflab.cli, "fiberwise_ricci_flat", counted)
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
], ids=["manufactured-no-amplitude", "mode-3-entries", "grid-n-string",
        "empty-eps-schedule", "threads-0",
        "chi-5", "samples-5", "suites-5", "formats-5", "nx-negative", "seed-negative",
        "seed-2-40", "nx-0", "samples-empty", "chi-power-negative", "max-iters-0",
        "h-s-infinite", "fiber-eps-negative", "fiber-s-below-axis", "grid-n-float",
        "chi-frequency-float", "richardson-string", "damping-floor-2", "dir-5",
        "normalization-bad", "chi-coefficient-overflow", "grid-n2-past-node-bound",
        "grid-n-odd"])
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
], ids=["tau0-below-axis", "manufactured-not-positive-eps-0",
        "manufactured-not-positive-eps-positive", "chi-power-overflow"])
def test_numerical_failure_exits_3(tmp_path, capsys, command, edit):
    """Well-formed configs whose numerics fail exit 3, never with a traceback
    or a report of non-finite values: a family whose fibers are not tori, a
    manufactured phi* whose g + dd^c phi* is not positive (its forcing would
    be NaN), and a chi power of s past the float range."""
    path, doc = base_config(tmp_path)
    doc.update(edit)
    doc["solver"]["grid_n"] = 16
    path.write_text(json.dumps(doc))
    assert main(command + ["--config", str(path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure")
    assert not (tmp_path / "out" / "fiber_solution.json").exists()


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
    from cyflab.cli import write_phi_csv
    rng = np.random.RandomState(1)
    phi = rng.standard_normal(shape) * 10.0 ** rng.randint(-20, 20, size=shape)
    phi.flat[0] = 0.0
    phi.flat[1] = -1e-300
    write_phi_csv(tmp_path / "new.csv", phi)
    _csv_module_phi(tmp_path / "ref.csv", phi)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
