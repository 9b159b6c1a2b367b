"""No library module imports a name it never uses.

A deletion easily leaves its imports behind, and an unused import still
costs import time and misleads a reader.  An import on a line marked
``# noqa`` is exempt: it re-exports a name on purpose.  A package's
``__all__`` counts as a use.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hypermdp")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def unused_imports(source: str) -> list:
    """The names that ``source`` imports, outside ``# noqa`` lines and
    ``__future__`` imports, and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_uses_every_name_it_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_attribute_reads_noqa_and_all():
    assert unused_imports("from typing import Dict, Sequence\nx: Dict = {}\n") == ["Sequence"]
    assert unused_imports("import os.path\nimport re\nos.path.join('a')\n") == ["re"]
    assert unused_imports("from .model import (\n    Dtmc,  # noqa: F401\n    Mdp,\n)\n") == ["Mdp"]
    assert unused_imports("from .model import Dtmc\n__all__ = ['Dtmc']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert len(MODULES) >= 10
