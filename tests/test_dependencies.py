"""The package imports only the standard library, numpy and itself.

scipy, networkx and sympy may serve as independent references in the
tests; numpy is the package's one runtime dependency.  The oracle and
the direct metrics kernel share no module but ``graphs``, and
``graphs.twin_classes`` is the one place that builds the twin quotient:
the kernel reads it to weight its classes and the twin-reduced spectra
to build their quotient matrix, only ``graphs`` calls the twin scan
under it, and the subgraph listing that checks the kernel uses neither.
numpy itself loads only with the modules that solve eigenvalues.
"""
from __future__ import annotations

import ast
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
    scan = {"twin_runs", "run_neighbors"}
    assert {stem for stem, used in names.items() if used & scan} == {"graphs"}
    quotient = {stem for stem, used in names.items() if "twin_classes" in used}
    assert quotient - {"graphs"} == {"metrics", "oracle"}


# generate, metrics and sweep run in a child process, which then says
# whether numpy is loaded, before and after a numeric name is read
NO_NUMPY_CHILD = """
import contextlib, io, sys
import coresat
from coresat.cli import main
argvs = (
    ["generate", "--core", "2", "--satellites", "3:2", "--format", "mtx"],
    ["metrics", "--core", "2", "--satellites", "3:2,1:4"],
    ["sweep", "--cores", "2", "--sizes", "1,3", "--pmax", "3"],
)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in argvs]
print(codes, "numpy" in sys.modules)
coresat.spectral_radius
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
for module, attr in (("oracle", "twin_reduced_spectra"), ("spectra", "spectral_indices"), ("verification", "run_checks")):
    module = first[f"coresat.{module}"]
    real = getattr(module, attr)
    setattr(module, attr, lambda *a, real=real, attr=attr, **k: calls.append(attr) or real(*a, **k))
with contextlib.redirect_stdout(io.StringIO()):
    cli = first["coresat.cli"]
    codes = [cli.main(["spectrum", "--core", "2", "--satellites", "1:3"]), cli.main(["verify", "--max-n", "6"])]
print(codes, sorted(set(calls)))
"""


def test_cli_calls_the_numeric_modules_of_its_own_package():
    expected = "[0, 0] ['run_checks', 'spectral_indices', 'twin_reduced_spectra']\n"
    assert _run_child(FRESH_PACKAGE_CHILD) == expected
