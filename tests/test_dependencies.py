"""The package imports only the standard library, numpy and itself.

scipy, networkx and sympy may serve as independent references in the
tests; numpy is the package's one runtime dependency.  The oracle and
the direct metrics kernel share no module but ``graphs``, and
``graphs.twin_classes`` is the one place that builds the twin quotient,
its integer divisor matrix B, and the one entry point to it: the kernel
reads B to weight its common neighbor counts and the twin-reduced
spectra to build their quotient matrix.  Only ``twin_classes`` calls the
private twin scan under it and knows its runs, no module exports a
function of runs, and the subgraph listing that checks the kernel uses
neither.
numpy itself is imported only inside the functions that build a matrix
or solve eigenvalues, so it loads on the first of those calls, and
``spectra`` imports it nowhere: it builds its B in integers and leaves
the matrix to ``oracle.symmetric_quotient``.
"""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coresat"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "coresat"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    foreign = {
        f"{path.name}: {root}"
        for path in files
        for root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in ALLOWED
    }
    assert foreign == set()


def test_no_module_rebinds_a_global():
    # a result kept in module state outlives the call that made it and
    # is shared by every thread; each result travels as a value instead
    rebinding = {
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    }
    assert rebinding == set()


def _package_imports(tree: ast.AST):
    """Stems of the package files a module imports, relative or absolute.

    A name taken from the package itself (``from . import x``) is module
    ``x`` when there is such a file, and else the package's
    ``__init__``, which imports every module.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root, _, rest = alias.name.partition(".")
                if root == "coresat":
                    yield rest.split(".")[0] or "__init__"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                root, _, module = module.partition(".")
                if root != "coresat":
                    continue
            if module:
                yield module.split(".")[0]
            else:
                for alias in node.names:
                    yield alias.name if (SRC / f"{alias.name}.py").exists() else "__init__"


def test_oracle_and_metrics_share_no_code():
    direct = {
        path.stem: set(_package_imports(ast.parse(path.read_text(encoding="utf-8"))))
        for path in SRC.glob("*.py")
    }

    def reached(stem):
        seen, todo = set(), [stem]
        while todo:
            for dep in direct[todo.pop()] - seen:
                seen.add(dep)
                todo.append(dep)
        return seen

    # both import forms the package uses are read
    assert direct["verification"] >= {"metrics", "oracle", "spectra"}
    assert "oracle" in direct["spectra"]
    assert reached("oracle") & {"metrics", "spectra", "verification", "__init__"} == set()
    assert reached("metrics") & {"oracle", "__init__"} == set()


def _names(path: Path) -> set[str]:
    """Every name a module reads or imports, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    imports = (node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom))
    return read | {alias.name for node in imports for alias in node.names}


def test_only_graphs_builds_the_twin_quotient():
    names = {path.stem: _names(path) for path in SRC.glob("*.py")}
    scan = {"_twin_runs"}
    assert {stem for stem, used in names.items() if used & scan} == {"graphs"}
    quotient = {stem for stem, used in names.items() if "twin_classes" in used}
    assert quotient - {"graphs"} == {"metrics", "oracle"}
    # within graphs, twin_classes is the scan's one caller
    body = ast.parse((SRC / "graphs.py").read_text(encoding="utf-8")).body
    callers = {
        getattr(node, "name", "<module>")
        for node in body
        if not (isinstance(node, ast.FunctionDef) and node.name in scan)
        and scan & {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
    }
    assert callers == {"twin_classes"}
    # and no module exports a function of runs
    run_level = {"twin_runs", "_twin_runs", "run_neighbors"}
    for path in SRC.glob("*.py"):
        name = "coresat" if path.stem == "__init__" else f"coresat.{path.stem}"
        exported = getattr(importlib.import_module(name), "__all__", ())
        assert run_level & set(exported) == set(), path.name


def _module_level_imports(body):
    """The imports a module runs when it loads: not in a function, nor under TYPE_CHECKING."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            yield from _module_level_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level_imports(getattr(node, field, ()))


def test_no_module_imports_numpy_when_it_loads():
    loaded = {
        path.name
        for path in SRC.glob("*.py")
        for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")).body)
        if "numpy" in _imported_roots(node)
    }
    assert loaded == set()


def test_spectra_imports_no_numpy_even_in_a_function():
    tree = ast.parse((SRC / "spectra.py").read_text(encoding="utf-8"))
    assert "numpy" not in set(_imported_roots(tree))
    assert "np" not in _names(SRC / "spectra.py")


# every module is imported and generate, metrics and sweep run in a child
# process, which then says whether numpy is loaded, before and after one
# spectral radius is solved
NO_NUMPY_CHILD = """
import contextlib, io, sys
import coresat
import coresat.cli, coresat.exceptions, coresat.graphs, coresat.io, coresat.metrics
import coresat.oracle, coresat.params, coresat.spectra, coresat.verification
from coresat.cli import main
argvs = (
    ["generate", "--core", "2", "--satellites", "3:2", "--format", "mtx"],
    ["metrics", "--core", "2", "--satellites", "3:2,1:4"],
    ["sweep", "--cores", "2", "--sizes", "1,3", "--pmax", "3"],
)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in argvs]
print(codes, "numpy" in sys.modules)
coresat.spectral_radius(coresat.GeneralizedParams(2, [(3, 2)]))
print("numpy" in sys.modules)
"""


def _run_child(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return child.stdout


def test_graph_commands_leave_numpy_unloaded():
    assert _run_child(NO_NUMPY_CHILD) == "[0, 0, 0] False\nTrue\n"


# the package is imported a second time, beside the first, as a harness
# that re-imports it does; the first copy's cli must still call the
# numeric modules of its own copy, where a wrapper records each call
FRESH_PACKAGE_CHILD = """
import contextlib, importlib, io, sys
import coresat.cli, coresat.oracle, coresat.spectra, coresat.verification
first = sys.modules.copy()
for name in [m for m in sys.modules if m == "coresat" or m.startswith("coresat.")]:
    del sys.modules[name]
for name in ("oracle", "spectra", "verification"):
    importlib.import_module(f"coresat.{name}")
calls = []
for module, attr in (("oracle", "twin_reduced_spectra"), ("spectra", "analytic_spectra"), ("verification", "run_checks")):
    module = first[f"coresat.{module}"]
    real = getattr(module, attr)
    setattr(module, attr, lambda *a, real=real, attr=attr, **k: calls.append(attr) or real(*a, **k))
with contextlib.redirect_stdout(io.StringIO()):
    cli = first["coresat.cli"]
    codes = [cli.main(["spectrum", "--core", "2", "--satellites", "1:3"]), cli.main(["verify", "--max-n", "6"])]
print(codes, sorted(set(calls)))
"""


def test_cli_calls_the_numeric_modules_of_its_own_package():
    expected = "[0, 0] ['analytic_spectra', 'run_checks', 'twin_reduced_spectra']\n"
    assert _run_child(FRESH_PACKAGE_CHILD) == expected


# the cli alone is imported, then the package again beside it, as a
# harness that re-imports it does; the first copy's cli must still
# catch the error its own spectra raise past the float range
LONE_CLI_CHILD = """
import contextlib, importlib, io, sys
import coresat.cli
cli = sys.modules["coresat.cli"]
for name in [m for m in sys.modules if m == "coresat" or m.startswith("coresat.")]:
    del sys.modules[name]
importlib.import_module("coresat")
for name in ("params", "graphs", "metrics", "spectra", "oracle", "verification", "io", "cli"):
    importlib.import_module(f"coresat.{name}")
err = io.StringIO()
argv = ["spectrum", "--core", str(10**309), "--satellites", "1:2", "--method", "analytic"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = cli.main(argv)
print(code, err.getvalue(), end="")
"""


def test_cli_alone_catches_the_errors_of_its_own_package():
    expected = "2 error: parameters exceed the float range of the spectra\n"
    assert _run_child(LONE_CLI_CHILD) == expected
