"""Every public name each module declares exists.

The benchmark's tracer (perfbench/spans.py) looks up every entry of each
module's __all__, so a stale name would break a traced run.
"""

import importlib
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
