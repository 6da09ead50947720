"""Every exported name resolves, so a deleted function cannot linger in __all__."""

import importlib
import pkgutil

import pytest

import hydrobench

MODULES = ["hydrobench"] + [
    f"hydrobench.{info.name}" for info in pkgutil.iter_modules(hydrobench.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
