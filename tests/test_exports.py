import importlib
import pkgutil

import pytest

import sobikit

MODULES = ["sobikit"] + sorted(
    f"sobikit.{m.name}" for m in pkgutil.iter_modules(sobikit.__path__)
    if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a stale name in __all__ breaks only `from ... import *` otherwise
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["autocovariance", "asymptotics", "metrics", "presets",
                                  "signal_model"])
def test_package_reexports_the_module_api(name):
    # joint_diag keeps its block kernels to itself; cli exports nothing
    module = importlib.import_module(f"sobikit.{name}")
    for export in module.__all__:
        assert export in sobikit.__all__
        assert getattr(sobikit, export) is getattr(module, export)
