"""The program names the benchmark reaches into must keep resolving.

`bench/tracer.py` rebinds (module, attribute) pairs by name and
`bench/run.py` imports a few functions directly; a refactor that renames or
drops one of them would break the benchmark without failing any other test.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_bindings_resolve(tracer):
    pairs = [(module, attr) for module, attr, _ in tracer.BINDINGS + tracer.GENERATORS]
    assert pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_tracer_bindings_are_used(tracer):
    # a rebound name that its module no longer reads would trace nothing,
    # and its per-layer metric would silently read 0
    unused = []
    for module, attr, _ in tracer.BINDINGS + tracer.GENERATORS:
        source = Path(importlib.import_module(module).__file__).read_text(encoding="utf-8")
        loads = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == attr and isinstance(node.ctx, ast.Load)
        ]
        if not loads:
            unused.append(f"{module}.{attr}")
    assert unused == []


def test_bench_run_imports_resolve():
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chidelta")
        for alias in node.names
    ]
    assert names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
