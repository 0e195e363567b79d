"""Module layering: cyflab.green depends on the geometry layer only, so the
curvature report in cyflab.familygeom can use it without an import cycle;
cyflab.models does too, so the closed-form eps = 0 answer it holds shares no
code with the solver (cyflab.masolver) or the Green kernels it checks.  The
command line sits on top: cyflab.config and cyflab.reports import neither
cyflab.suites nor cyflab.cli, cyflab.suites does not import cyflab.cli, and
no package module imports cyflab.cli.  No module reaches into another's
private names, and the fiber Laplacian and every n = 2 Hermitian field are
built in cyflab.geometry only."""

import ast
from pathlib import Path

import cyflab


def imported_cyflab_modules(path: Path) -> set:
    """The cyflab modules a source file imports, at module level or in a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name.split(".")[0] == "cyflab")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # relative to the package: "from . import x" names the module x
                names = [node.module] if node.module else [alias.name for alias in node.names]
                found.update(f"cyflab.{name}" for name in names)
            elif node.module.split(".")[0] == "cyflab":
                found.add(node.module)
    return found


def test_green_imports_only_geometry():
    green = Path(cyflab.__file__).parent / "green.py"
    assert imported_cyflab_modules(green) <= {"cyflab.geometry"}


def test_models_imports_only_geometry():
    models = Path(cyflab.__file__).parent / "models.py"
    assert imported_cyflab_modules(models) <= {"cyflab.geometry"}


def test_config_and_reports_sit_below_suites_and_cli():
    for name in ("config.py", "reports.py"):
        found = imported_cyflab_modules(Path(cyflab.__file__).parent / name)
        assert not found & {"cyflab.suites", "cyflab.cli"}, name


def test_suites_do_not_import_cli():
    suites = Path(cyflab.__file__).parent / "suites.py"
    assert "cyflab.cli" not in imported_cyflab_modules(suites)


def test_no_module_imports_cli():
    found = [path.name for path in sorted(Path(cyflab.__file__).parent.glob("*.py"))
             if "cyflab.cli" in imported_cyflab_modules(path)]
    assert found == []


def test_no_private_cross_module_imports():
    """No cyflab module imports an underscore-prefixed name from another one
    (dunder names such as __version__ are public)."""
    found = []
    for path in sorted(Path(cyflab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "cyflab"):
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []


def test_public_names_resolve():
    """Every name the package exports exists."""
    missing = [name for name in cyflab.__all__ if not hasattr(cyflab, name)]
    assert missing == []


def test_fiber_laplacian_built_in_geometry_only():
    """Only cyflab.geometry reads a chart's derivative tables (z_mult, ddc_mult,
    ddc_mult_half) or defines Hessian weights: every other module takes Delta_g
    and its symbol from geometry's functions."""
    tables = {"z_mult", "ddc_mult", "ddc_mult_half"}
    found = []
    for path in sorted(Path(cyflab.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in tables:
                found.append((path.name, node.attr))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and "hessian_weights" in node.name:
                found.append((path.name, node.name))
    assert found == []


def test_solve_fiber_has_one_solve_path():
    """cmd_solve_fiber solves through masolver.solve_nested only, never calling
    solve_ma itself, so both of its branches take the nested solve."""
    cli = Path(cyflab.__file__).parent / "cli.py"
    (func,) = [node for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "cmd_solve_fiber"]
    called = [node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(func) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))]
    assert "solve_ma" not in called
    assert called.count("solve_nested") == 2


ALLOCATORS = {"empty", "zeros", "ones", "full"}
CONJUGATES = {"conj", "conjugate"}


def _starts_with_2_2(shape) -> bool:
    """shape is (2, 2, ...) or (2, 2) + ..., written with literal 2s."""
    if isinstance(shape, ast.BinOp) and isinstance(shape.op, ast.Add):
        shape = shape.left
    return isinstance(shape, ast.Tuple) and len(shape.elts) >= 2 and all(
        isinstance(e, ast.Constant) and e.value == 2 for e in shape.elts[:2])


def _is_entry(node) -> bool:
    """node is a matrix entry m[i, j]."""
    return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) \
        and len(node.slice.elts) == 2


def _is_conjugate(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)) \
        and (node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id) \
        in CONJUGATES


def hermitian_stack_builds(source: str) -> list:
    """Line numbers where source allocates a (2, 2, ...) array, or fills a
    matrix entry m[i, j] with a conjugate (by assignment or by out=)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ALLOCATORS and node.args \
                and _starts_with_2_2(node.args[0]):
            found.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and _is_conjugate(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_is_entry(t) for t in targets):
                found.append(node.lineno)
        elif _is_conjugate(node) and any(kw.arg == "out" and _is_entry(kw.value)
                                         for kw in node.keywords):
            found.append(node.lineno)
    return sorted(found)


def test_hermitian_stack_check_finds_each_form():
    """The check below sees each way a module could build an n = 2 stack."""
    source = "\n".join([
        "g = np.zeros((2, 2) + grid.shape, dtype=complex)",
        "g = np.empty((2, 2, 8, 8))",
        "g[1, 0] = np.conj(g[0, 1])",
        "g[b, a] += np.conj(h01)",
        "np.conjugate(g[0, 1], out=g[1, 0])",
        "g[1, 0] = g[0, 1].conj()",
        "a = np.zeros((n, n) + grid.shape)",
        "w = np.conj(z) * g[0, 1]",
    ])
    assert hermitian_stack_builds(source) == [1, 2, 3, 4, 5, 6]


def test_n2_hermitian_fields_built_in_geometry_only():
    """Only cyflab.geometry allocates an n = 2 Hermitian stack or fills a lower
    entry by conjugation: every other module holds an n = 2 metric as the
    Herm2 that geometry and models build, and reads its entries."""
    found = []
    for path in sorted(Path(cyflab.__file__).parent.glob("*.py")):
        if path.name != "geometry.py":
            found += [(path.name, line)
                      for line in hermitian_stack_builds(path.read_text(encoding="utf-8"))]
    assert found == []
