"""Every name a program module imports is read in that module.

A deletion can leave an import behind that nothing reads any more.  The
only imports kept unread are re-exports, marked `# noqa: F401` on their
line: `bench/run.py` imports `verify_certificate` from `chidelta.oracle`
and `deserialize_certificate` from `chidelta.sweep`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chidelta"


def _unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_reported():
    source = "from os import path, sep  # noqa: E501\nimport sys  # noqa: F401\nprint(sep)\n"
    assert _unread_imports(source) == ["path (line 1)"]
