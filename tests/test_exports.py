"""Every public name each module declares exists and has a use, and no
module imports a name it never uses.

The benchmark's tracer (perfbench/spans.py) looks up every entry of each
module's __all__, so a stale name would break a traced run.
"""

import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent
# code outside the package whose references count as uses of its names
CONSUMERS = [ROOT / "demos", ROOT / "scripts", ROOT / "perfbench", ROOT / "tests" / "test_acceptance.py"]


def _module_aliases(tree, package: str, modules: set[str]) -> dict[str, str]:
    """{expression: module} for each expression that tree binds to a module
    of the package: `import package.mod [as X]`, `from package import mod
    [as X]` and `from . import mod [as X]`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == package and module in modules:
                    aliases[alias.asname or alias.name] = module
        elif isinstance(node, ast.ImportFrom) and (node.module == package or (node.level, node.module) == (1, None)):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def _identifiers(node, aliases: dict[str, str]) -> set[str]:
    """Every name that node's code refers to, and "mod.attr" for each
    attribute of an expression that aliases binds to module mod."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and ast.unparse(sub.value) in aliases:
            found.add("%s.%s" % (aliases[ast.unparse(sub.value)], sub.attr))
    return found


def _unused_exports(package: Path, consumers: list[Path], readme: Path) -> list[str]:
    """module.name for each __all__ entry that has no use: no code of the
    package outside its own top-level definition refers to it, no file of
    the consumers does, and the README does not name it in backticks.  An
    attribute is a use only of the module its object is bound to."""
    modules = {path.stem for path in package.glob("*.py")}
    exports, users = [], {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = _module_aliases(tree, package.name, modules)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(getattr(tg, "id", None) == "__all__" for tg in stmt.targets):
                exports += [(module, name) for name in ast.literal_eval(stmt.value)]
            # a def or class is its own user; other statements have no name
            for ident in _identifiers(stmt, aliases):
                users.setdefault(ident, set()).add((module, getattr(stmt, "name", None)))
    outside = set()
    for consumer in consumers:
        for path in sorted(consumer.rglob("*.py")) if consumer.is_dir() else [consumer]:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            outside |= _identifiers(tree, _module_aliases(tree, package.name, modules))
    # code blocks first, so that their fences do not pair with inline quotes
    text = readme.read_text(encoding="utf-8")
    spans = re.findall(r"```(.*?)```", text, flags=re.S)
    spans += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    quoted = {ident for span in spans for ident in re.findall(r"[A-Za-z_]\w*", span)}
    return [
        "%s.%s" % (module, name)
        for module, name in exports
        if users.get(name, set()) | users.get("%s.%s" % (module, name), set()) <= {(module, name)}
        and not {name, "%s.%s" % (module, name)} & outside
        and name not in quoted
    ]


def test_every_public_name_has_a_use():
    # a public name that only unit tests reach is a second path to keep
    # working: delete it, or name it in the README as documented API
    package = Path(squaretriads.__path__[0])
    assert _unused_exports(package, CONSUMERS, ROOT / "README.md") == []


def test_unused_export_check_sees_an_unused_name(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "__all__ = ['used', 'by_attribute', 'recursive', 'Klass', 'in_readme', 'in_demo', 'isqrt', 'orphan']\n"
        "def used(): return 1\n"
        "def by_attribute(): return 2\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Klass:\n"
        "    def copy(self): return Klass()\n"
        "def in_readme(): pass\n"
        "def in_demo(): pass\n"
        "def isqrt(n): return n\n"
        "def orphan(): pass\n"
        "note = 'orphan, in a string, is no use'\n"
    )
    (package / "b.py").write_text(
        "from . import a\n"
        "from .a import used, orphan\n"
        "__all__ = ['later']\n"
        "def later(): return used() + a.by_attribute()\n"
        "value = later()\n"
    )
    # math.isqrt is no use of a.isqrt
    (package / "c.py").write_text("import math\nroot = math.isqrt(4)\n")
    demo = tmp_path / "demo.py"
    demo.write_text("import pkg.a as A\nA.in_demo()\n")
    readme = tmp_path / "README.md"
    readme.write_text("```\nx = 1\n```\nCall `in_readme()`; `Klass` is documented, and recursive is not.\n")
    assert _unused_exports(package, [demo], readme) == ["a.recursive", "a.isqrt", "a.orphan"]
    readme.write_text("")
    assert _unused_exports(package, [], readme) == ["a.recursive", "a.Klass", "a.in_readme", "a.in_demo", "a.isqrt", "a.orphan"]


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
