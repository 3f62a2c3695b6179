"""The package's public names: each library module's ``__all__``, each name
listed once; no module or test imports a name it never uses; and every
default tolerance is the one constant ``Problem.DEFAULT_TOL``."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import tvflow
from tvflow import cli, flow, graph, instances, io, oracle, signal, solver
from tvflow.signal import Problem

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


# Not a feasibility or certificate tolerance: the stopping rule of the
# oracle's Dykstra projection, which reference values are computed with.
CONVERGENCE_TOLS = {"project_dual_feasible"}


def test_every_default_tolerance_is_the_one_constant():
    defaults = {}
    for module in (*EXPORTED, io, instances):
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or name in CONVERGENCE_TOLS:
                continue
            for param in inspect.signature(obj).parameters.values():
                if param.name in ("tol", "feas_tol"):
                    defaults[f"{name}({param.name})"] = param.default
    parser = cli._build_parser()
    files = ["--graph", "g", "--observations", "o"]
    for argv, dest in (
        (["solve", *files], "feas_tol"),
        (["experiment-chain"], "feas_tol"),
        (["certify", *files, "--flow", "f", "--partition", "p"], "tol"),
    ):
        defaults[f"{argv[0]} --{dest.replace('_', '-')}"] = getattr(
            parser.parse_args(argv), dest
        )
    assert {
        "verify_certificate(tol)",
        "certificate_from_partition(tol)",
        "certificate_from_signal(tol)",
        "duality_gap(feas_tol)",
        "SolverConfig(feas_tol)",
    } <= set(defaults)
    assert {k: v for k, v in defaults.items() if v != Problem.DEFAULT_TOL} == {}
