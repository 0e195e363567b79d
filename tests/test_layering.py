"""Module layering: cyflab.green depends on the geometry layer only, so the
curvature report in cyflab.familygeom can use it without an import cycle;
cyflab.models does too, so the closed-form eps = 0 answer it holds shares no
code with the solver (cyflab.masolver) or the Green kernels it checks.  No
module reaches into another's private names, and the fiber Laplacian is
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
