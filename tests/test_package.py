"""The package's public names: each library module's ``__all__``, each name
listed once; and no module or test imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import tvflow
from tvflow import flow, graph, instances, io, oracle, signal, solver

EXPORTED = (graph, signal, solver, flow, oracle)


def test_package_all_is_the_modules_all():
    assert tvflow.__all__ == [
        *(name for module in EXPORTED for name in module.__all__),
        "__version__",
    ]
    assert len(set(tvflow.__all__)) == len(tvflow.__all__)


def test_every_public_name_resolves():
    for module in EXPORTED:
        for name in module.__all__:
            assert getattr(tvflow, name) is getattr(module, name)
    for module in (io, instances):
        for name in module.__all__:
            getattr(module, name)
    namespace: dict = {}
    exec("from tvflow import *", namespace)
    assert set(tvflow.__all__) <= set(namespace)


def _unused_imports(path: Path) -> list[str]:
    """Names that ``path`` binds by import but never reads; a name listed
    in ``__all__`` counts as read, and star imports are not checked."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]


def test_no_unused_imports():
    files = [
        *sorted(Path(tvflow.__file__).parent.glob("*.py")),
        *sorted(Path(__file__).parent.glob("*.py")),
    ]
    assert len(files) > 10
    assert [hit for path in files for hit in _unused_imports(path)] == []
