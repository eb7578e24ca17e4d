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


# SearchConfig.primitive_only is a bool setting, not an integer
_ALLOWED_BOOL_TESTS = {"self.primitive_only"}


def _input_rule_forks(path: str) -> list[str]:
    """Places where a module decides for itself what counts as an integer,
    which is exactnum's rule alone: a `numbers` import, `operator.index`,
    any use of `__index__`, or an isinstance test against bool."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            what = "numbers"
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            what = "numbers"
        elif isinstance(node, ast.ImportFrom) and node.module == "operator" and any(a.name == "index" for a in node.names):
            what = "operator.index"
        elif isinstance(node, ast.Attribute) and node.attr == "index" and getattr(node.value, "id", None) == "operator":
            what = "operator.index"
        elif "__index__" in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "value", None)):
            what = "__index__"
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))
            and ast.unparse(node.args[0]) not in _ALLOWED_BOOL_TESTS
        ):
            what = "isinstance bool"
        else:
            continue
        found.append("%s (line %d)" % (what, node.lineno))
    return sorted(found)


@pytest.mark.parametrize("modname", [m for m in MODULES + ["squaretriads.__main__"] if m != "squaretriads.exactnum"])
def test_only_exactnum_decides_integer_inputs(modname):
    # exactnum._integer and _exact_scalar are the one input rule; a module
    # with a check of its own would drift from it
    assert _input_rule_forks(importlib.util.find_spec(modname).origin) == []


def test_input_rule_check_sees_a_fork(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import numbers\n"
        "import operator\n"
        "from operator import index\n"
        "def f(x, self):\n"
        "    if isinstance(x, bool) or not isinstance(x, numbers.Integral):\n"
        "        return hasattr(type(x), '__index__')\n"
        "    if isinstance(x, (int, bool)):\n"
        "        return x.__index__()\n"
        "    return isinstance(self.primitive_only, bool), operator.index(x), isinstance(x, int)\n"
    )
    assert _input_rule_forks(str(path)) == [
        "__index__ (line 6)",
        "__index__ (line 8)",
        "isinstance bool (line 5)",
        "isinstance bool (line 7)",
        "numbers (line 1)",
        "operator.index (line 3)",
        "operator.index (line 9)",
    ]
