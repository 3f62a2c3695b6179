"""The package's public names: each library module's ``__all__``, each name
listed once."""

from __future__ import annotations

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
