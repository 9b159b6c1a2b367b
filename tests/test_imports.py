"""No library module imports a name it never uses, or more than it needs.

A deletion easily leaves its imports behind, and an unused import still
costs import time and misleads a reader.  An import on a line marked
``# noqa`` is exempt: it re-exports a name on purpose.  A package's
``__all__`` counts as a use.

The package loads its modules on first use: ``import hypermdp`` loads
none of them, ``import hypermdp.cases`` and ``import hypermdp.cli``
neither engine, and each public name, read from the package, is the
object its module defines.  No module, the engines included, loads
``dataclasses``, whose classes cost about a millisecond each to define,
or the modules that only the external solver run needs.  These checks
run in fresh interpreters.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

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


def fresh(code: str):
    """The value that ``code`` prints, run in a fresh interpreter that
    imports the package from this source tree.  ``-S``: no site packages,
    whose .pth files may import some modules first."""
    env = {**os.environ, "PYTHONPATH": os.path.join(SRC, os.pardir)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip())


def loaded_by(statement: str) -> list:
    """The modules of the package that ``statement`` loads in a fresh interpreter."""
    return fresh(f"import sys; {statement}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'hypermdp'))")


def test_import_loads_no_submodule():
    assert loaded_by("import hypermdp") == ["hypermdp"]


def test_case_generation_loads_no_engine():
    loaded = loaded_by("import hypermdp.cases")
    assert "hypermdp.cases" in loaded
    assert {"hypermdp.analysis", "hypermdp.enumcheck", "hypermdp.smt", "hypermdp.constraints"} & set(loaded) == set()


def test_the_command_line_loads_no_engine_until_a_command_runs_one():
    # ``hypermdp gen`` and ``hypermdp stats`` run neither engine
    loaded = loaded_by("import hypermdp.cli")
    assert "hypermdp.cli" in loaded
    assert {"hypermdp.smt", "hypermdp.enumcheck", "hypermdp.constraints"} & set(loaded) == set()


def test_package_serves_exactly_all_each_as_its_module_defines_it():
    code = ("import sys, hypermdp\n"
            "missing = [n for n in hypermdp.__all__ if not hasattr(hypermdp, n)]\n"
            "values = {n: getattr(hypermdp, n) for n in hypermdp.__all__ if n not in missing}\n"
            "print((missing, [n for n, v in values.items() if getattr(sys.modules[v.__module__], n) is not v],"
            " sorted(hypermdp._HOMES) == sorted(hypermdp.__all__)))")
    assert fresh(code) == ([], [], True)


def test_dir_lists_all():
    assert fresh("import hypermdp; print(dir(hypermdp) == sorted(hypermdp.__all__))") is True


def test_submodules_resolve_without_their_own_import():
    names = sorted(os.path.basename(path)[:-3] for path in MODULES if not path.endswith("__init__.py"))
    assert fresh(f"import hypermdp; print([getattr(hypermdp, n).__name__ for n in {names!r}])") == \
        ["hypermdp." + name for name in names]


def test_unknown_name_raises_attribute_error():
    code = "import hypermdp\ntry:\n    hypermdp.no_such_name\nexcept AttributeError as exc:\n    print(repr(str(exc)))"
    assert fresh(code) == "module 'hypermdp' has no attribute 'no_such_name'"


def test_no_module_loads_dataclasses_or_the_external_solver_modules():
    code = ("import sys; before = set(sys.modules); "
            "import hypermdp, hypermdp.smt, hypermdp.constraints, hypermdp.enumcheck; "
            "print(sorted({'dataclasses', 'inspect', 'subprocess', 'tempfile'} & (set(sys.modules) - before)))")
    assert fresh(code) == []


def test_no_class_is_a_dataclass():
    names = [os.path.basename(path)[:-3] for path in MODULES]
    modules = [importlib.import_module("hypermdp" + ("" if name == "__init__" else "." + name)) for name in names]
    classes = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__]
    assert len(classes) > 34
    assert [cls.__name__ for cls in classes if hasattr(cls, "__dataclass_fields__")] == []
