"""Package layering: which module may import which, read from the source with ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blochspec"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# ``assembly`` is interval algebra and ``algebra`` the clock/shift pair over
# ``model``; the operator modules sit on top of ``assembly``, and only the
# front ends (``cli``, ``__init__``) reach across the package.  ``__init__``
# stands for the package itself (``from . import __version__``).
EXPECTED = {
    "model": set(),
    "svgplot": set(),
    "assembly": set(),
    "fibering": {"assembly", "model"},
    "harper": {"assembly", "model"},
    "algebra": {"model"},
    "cli": {"__init__", "algebra", "assembly", "fibering", "harper", "model", "svgplot"},
    "__init__": {"algebra", "assembly", "fibering", "harper", "model"},
    "__main__": {"cli"},
}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:  # from .model import X
                found.add(node.module.split(".")[0])
            else:  # from . import harper, __version__
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("blochspec"):
            found.add((node.module.split(".") + ["__init__"])[1])
        elif isinstance(node, ast.Import):
            found.update((a.name.split(".") + ["__init__"])[1]
                         for a in node.names if a.name.split(".")[0] == "blochspec")
    return found


def test_every_module_is_covered():
    assert MODULES == set(EXPECTED)


def test_package_imports_follow_the_layers():
    actual = {module: _package_imports(_tree(module)) for module in MODULES}
    assert actual == EXPECTED


def _references(module: str) -> set:
    """Names a module loads, looks up as attributes or imports, each outside its
    own top-level definition."""
    found = set()
    for top in _tree(module).body:
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None and name != getattr(top, "name", None):
                found.add(name)
    return found


def test_every_public_name_is_used_by_the_package():
    # a public name that no production path reaches is surface only the tests
    # hold up; ``__init__`` re-exports every name, so its imports do not count
    exported = next(ast.literal_eval(node.value) for node in _tree("__init__").body
                    if isinstance(node, ast.Assign) and node.targets[0].id == "__all__")
    used = set().union(*(_references(module) for module in MODULES - {"__init__"}))
    assert set(exported) - used == set()


def test_no_module_imports_inside_a_function():
    offenders = []
    for module in sorted(MODULES):
        for func in ast.walk(_tree(module)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{module}.{func.name}:{node.lineno}"
                              for node in ast.walk(func)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def test_k_grid_oracles_live_only_in_the_tests():
    # an oracle that lives in the tests cannot share a code path with the band edges
    oracles = {"eigenvalue_grid", "bloch_matrix_family", "DEFAULT_KGRID", "branch_ranges",
               "block_circulant_from_fibers"}
    defined = set()
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    assert defined & oracles == set()


def _uses_numpy_linalg(tree: ast.Module) -> bool:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.append(f"{node.value.id}.{node.attr}")  # np.linalg.eigh
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names += [f"{node.module}.{a.name}" for a in node.names]  # from numpy import linalg
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]  # import numpy.linalg
    return any(name.split(".")[:2] in (["np", "linalg"], ["numpy", "linalg"]) for name in names)


def test_numpy_linalg_is_used_only_in_model():
    # ``model.eigensolve`` is the one boundary to LAPACK
    assert {module for module in MODULES if _uses_numpy_linalg(_tree(module))} == {"model"}


def test_no_module_asks_lapack_for_eigenvectors():
    # every spectrum the package reports needs eigenvalues only
    solvers = {"eig", "eigh"}
    used = {f"{module}.{node.attr}" for module in MODULES for node in ast.walk(_tree(module))
            if isinstance(node, ast.Attribute) and node.attr in solvers}
    assert used == set()
