"""Every public name each module declares exists, and no module imports
a name it never uses.

The benchmark's tracer (perfbench/spans.py) looks up every entry of each
module's __all__, so a stale name would break a traced run.
"""

import ast
import importlib
import importlib.util
import pkgutil

import pytest

import squaretriads

# __main__ runs the command line on import
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(squaretriads.__path__, "squaretriads.")
    if info.name != "squaretriads.__main__"
)


def test_modules_declare_public_names():
    declaring = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert len(declaring) >= 9, declaring


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing


def _unused_imports(path: str) -> list[str]:
    """Names a module imports and never uses; __all__ entries count as used,
    and an import on a line marked `# noqa: F401` is allowed."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(tg, "id", None) == "__all__" for tg in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted("%s (line %d)" % (name, line) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("modname", MODULES + ["squaretriads.__main__"])
def test_no_unused_imports(modname):
    # no linter runs on the package, so dead imports are caught here
    assert _unused_imports(importlib.util.find_spec(modname).origin) == []


def test_unused_import_check_sees_a_dead_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from math import gcd, lcm\n"
        "__all__ = ['lcm']\n"
        "print(len([]))\n"
    )
    assert _unused_imports(str(path)) == ["gcd (line 3)", "os (line 1)"]
