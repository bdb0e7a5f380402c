"""The library's import structure: every import at module level, no cycles.

An import inside a function hides a dependency from the module header and
usually papers over a cycle; both are checked on the source with ``ast``,
as is that every private function has a reader in the library.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specpoly"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _function_level_imports(tree):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield f"{fn.name} (line {node.lineno})"


def _internal_imports(tree):
    """The package modules a module imports, by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                # ``from . import roots``: a submodule, or a name of __init__
                for alias in node.names:
                    yield alias.name if alias.name in MODULES else "__init__"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else [node.module or ""])
            for name in names:
                parts = name.split(".")
                if parts[0] == "specpoly":
                    yield parts[1] if len(parts) > 1 else "__init__"


def test_no_import_inside_a_function():
    found = {name: list(_function_level_imports(tree))
             for name, tree in MODULES.items()}
    assert {k: v for k, v in found.items() if v} == {}


def test_internal_import_graph_is_acyclic():
    graph = {name: sorted(set(_internal_imports(tree)) - {name})
             for name, tree in MODULES.items()}
    assert set().union(*graph.values()) <= set(graph)
    done, path = set(), []

    def visit(name):
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name not in done:
            path.append(name)
            for dep in graph[name]:
                visit(dep)
            path.pop()
            done.add(name)

    for name in graph:
        visit(name)


def _private_functions(tree):
    """The ``_name`` functions and methods a module defines (no dunders)."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")):
            yield node.name


def _loaded_names(tree):
    """Every name a module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr


def test_every_private_function_has_a_library_caller():
    # a private helper that only the tests call is test code in the
    # library; one that nothing calls is dead
    loaded = set().union(*(_loaded_names(tree) for tree in MODULES.values()))
    unused = {name: sorted(set(_private_functions(tree)) - loaded)
              for name, tree in MODULES.items()}
    assert {k: v for k, v in unused.items() if v} == {}
