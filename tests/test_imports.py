"""Every module under src/ uses every name it imports."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _unused_imports(path: Path) -> list:
    """The names ``path`` imports and never reads; a name listed in the
    module's ``__all__`` counts as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert _unused_imports(path) == []



#: the repository's programs that call the package from outside it: its
#: scripts and the benchmark, less the benchmark's tests
ROOT = SRC.parent
PROGRAMS = sorted(ROOT.glob("scripts/*.py")) + sorted(
    path for path in ROOT.glob("perfbench/*.py") if not path.name.startswith("test_")
)

#: names that only perfbench/tracing.py keeps alive: it wraps them by name,
#: in strings, so they stay until the benchmark reads its counts from the
#: report (ROADMAP item 9)
TRACER_ONLY = {
    "harness._field_sample_points",
    "report.ResidualReport.merge",
    "core.ComplexField.at",
}


def _definitions(tree):
    """(qualified name, node) of every top-level function, class and
    non-dunder assigned name of a module, and of every public method of its
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else (node.target,):
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not (name.id.startswith("__") and name.id.endswith("__")):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _names(tree):
    """(name, line, whether an attribute) of every identifier a module
    reads: names, attributes, imported names and the strings of ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno, False) for alias in node.names)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ((name, node.lineno, False) for name in ast.literal_eval(node.value))


def _dead_names(src: Path, programs=()) -> list:
    """The functions, classes, module constants and public methods under
    ``src`` whose name appears nowhere under ``src`` outside their own
    definition or assignment, nor in ``programs``, as ``module.name``; a
    method counts only as an attribute.  The check is by name alone: a name
    read anywhere, for anything, counts as a use."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py")) + list(programs)}
    named = {path: list(_names(tree)) for path, tree in trees.items()}
    dead = []
    for path in sorted(src.rglob("*.py")):
        for qualname, node in _definitions(trees[path]):
            name, method = qualname.rsplit(".", 1)[-1], "." in qualname
            if not any(
                used == name and (attribute or not method)
                and not (other == path and node.lineno <= line <= node.end_lineno)
                for other, names in named.items() for used, line, attribute in names
            ):
                dead.append(f"{path.stem}.{qualname}")
    return dead


def _overrides(qualname: str) -> bool:
    """Whether ``module.Class.method`` overrides a method of a base class,
    which the base's own code calls (argparse calls ArgumentParser.error)."""
    module, *owner, name = qualname.split(".")
    if not owner:
        return False
    cls = getattr(importlib.import_module(f"kgconformal.{module}"), owner[0])
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def test_every_definition_is_named_outside_itself():
    dead = [name for name in _dead_names(SRC, PROGRAMS) if not _overrides(name)]
    assert sorted(set(dead) - TRACER_ONLY) == []


def test_tracer_only_names_are_still_defined_and_unused():
    """Each allowlisted name is still defined and still has no caller, so
    the allowlist cannot outlive its reason."""
    assert TRACER_ONLY <= set(_dead_names(SRC, PROGRAMS))
