"""Package layering: which module may import which, read from the source with ``ast``."""

import argparse
import ast
import importlib
import sys
from pathlib import Path

from blochspec import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blochspec"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# ``assembly`` is interval algebra and ``model`` holds the shared types, the
# clock/shift pair and the one LAPACK call; the operator modules sit on top of
# both, and only the front ends (``cli``, ``__init__``) reach across the
# package.  ``__init__`` stands for the package itself (``from . import
# __version__``).
EXPECTED = {
    "model": set(),
    "svgplot": set(),
    "assembly": set(),
    "fibering": {"assembly", "model"},
    "harper": {"assembly", "model"},
    "cli": {"__init__", "assembly", "fibering", "harper", "model", "svgplot"},
    "__init__": {"assembly", "fibering", "harper", "model"},
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


def test_svgplot_imports_only_the_standard_library():
    # the SVG encoders draw the payload's builtin lists, the numbers JSON and
    # CSV print, so they need neither numpy nor the rest of the package
    imported = set()
    for node in ast.walk(_tree("svgplot")):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported - sys.stdlib_module_names == set()


def _name(node: ast.AST):
    """The name a node loads, looks up as an attribute or imports, if any."""
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None)


def _references(module: str) -> set:
    """Names a module loads, looks up as attributes or imports, each outside its
    own top-level definition."""
    found = set()
    for top in _tree(module).body:
        for node in ast.walk(top):
            name = _name(node)
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


def _names_outside(node: ast.AST, skip: ast.AST):
    """``_name`` of every node under ``node``, leaving out the subtree ``skip``."""
    if node is skip:
        return
    yield _name(node)
    for child in ast.iter_child_nodes(node):
        yield from _names_outside(child, skip)


def test_every_class_member_is_used_by_the_package():
    # the same rule for the functions, classmethods and properties of a class
    # body; a method that overrides a base class's is called by the base
    trees = {module: _tree(module) for module in MODULES - {"__init__"}}
    unused = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            bases = getattr(importlib.import_module(f"blochspec.{module}"), cls.name).__mro__[1:]
            for member in cls.body:
                if (not isinstance(member, ast.FunctionDef) or member.name.startswith("__")
                        or any(hasattr(base, member.name) for base in bases)):
                    continue
                if all(member.name not in _names_outside(t, member) for t in trees.values()):
                    unused.append(f"{module}.{cls.name}.{member.name}")
    assert unused == []


def test_every_cli_option_is_read_by_its_command():
    # the same rule for the options of each subcommand: one that neither its
    # command function nor ``run`` reads as ``ns.<name>`` only fills the echo
    funcs = {node.name: node for node in _tree("cli").body if isinstance(node, ast.FunctionDef)}

    def reads(name: str) -> set:
        return {node.attr for node in ast.walk(funcs[name]) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "ns"}

    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    # every subcommand has a registry entry with a command and a CSV table
    assert sorted(commands) == sorted(cli._COMMANDS)
    for command, table, _ in cli._COMMANDS.values():
        assert callable(command) and callable(table)
    read = {name: reads(entry[0].__name__) | reads("run") for name, entry in cli._COMMANDS.items()}
    unread = sorted(f"{command}: {action.dest}" for command, parser in commands.items()
                    for action in parser._actions
                    if action.dest != "help" and action.dest not in read[command])
    assert unread == []


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


def _numpy_submodules(tree: ast.Module) -> set:
    """The ``numpy`` submodules a module imports or looks up, e.g. ``linalg``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.append(f"{node.value.id}.{node.attr}")  # np.linalg.eigh
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names += [f"{node.module}.{a.name}" for a in node.names]  # from numpy import linalg
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]  # import numpy.linalg
    return {parts[1] for parts in (name.split(".") for name in names)
            if parts[0] in ("np", "numpy") and len(parts) > 1}


def _modules_using_numpy(submodule: str) -> set:
    return {module for module in MODULES if submodule in _numpy_submodules(_tree(module))}


def test_numpy_linalg_is_used_only_in_model():
    # ``model.eigensolve`` is the one boundary to LAPACK
    assert _modules_using_numpy("linalg") == {"model"}


def test_no_module_uses_numpy_random():
    # the randomized oracles draw from a seeded ``random.Random``; importing
    # numpy.random would add about 5.6 MB resident to every oracle-check call
    assert _modules_using_numpy("random") == set()


def test_no_module_asks_lapack_for_eigenvectors():
    # every spectrum the package reports needs eigenvalues only
    solvers = {"eig", "eigh"}
    used = {f"{module}.{node.attr}" for module in MODULES for node in ast.walk(_tree(module))
            if isinstance(node, ast.Attribute) and node.attr in solvers}
    assert used == set()


def test_no_source_line_is_longer_than_99_characters():
    # the src/ line count tracks the size of the design; this keeps it from
    # shrinking by packing code onto fewer, longer lines
    long_lines = []
    for module in sorted(MODULES):
        lines = (PACKAGE / f"{module}.py").read_text(encoding="utf-8").splitlines()
        long_lines += [f"{module}.py:{n}" for n, line in enumerate(lines, 1) if len(line) > 99]
    assert long_lines == []
