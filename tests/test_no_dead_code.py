"""No dead code in the package: every import is used and every private
top-level name is read, by the module that holds it.  Stdlib ``ast`` only."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ctxtrace"


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotations = []
        if isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= _read_names(ast.parse(part.value, mode="eval"))
    return read


def dead_names(source: str) -> list[str]:
    """'import <name>' for each import *source* never uses, and '<name>' for
    each private top-level name it never reads; an import statement whose
    first line says ``# noqa: F401`` is a deliberate re-export."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _read_names(tree)
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in read:
                dead.append(f"import {bound}")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        dead += [name for name in defined
                 if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_import_or_unread_private_name(module):
    assert dead_names((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_guard_finds_what_it_is_for():
    source = '''
from __future__ import annotations
import os.path
import json, re
from typing import TYPE_CHECKING, Mapping
from .errors import SchemaError  # noqa: F401
if TYPE_CHECKING:
    from .pipeline import Context
_LIMIT = 3
_unread: int = 4

def _helper(x: Mapping[str, "Context"]) -> int:
    return json.loads(x) + _LIMIT

def public():
    return _helper({})

class _Orphan:
    pass
'''
    assert dead_names(source) == ["import os", "import re", "_unread", "_Orphan"]
