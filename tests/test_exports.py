"""Every exported name resolves, so a deleted function cannot linger in __all__."""

import ast
import importlib
import inspect
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


def test_cli_binds_only_the_text_entry_points():
    # The CSV and SVG text format has one owner: cli hands _text its columns
    # and points through csv_text and point_text, and binds, copies or
    # aliases no other name _text defines.
    from hydrobench import _text, cli

    assert _text.__all__ == ["csv_text", "point_text"]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.parse(inspect.getsource(_text)).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    own = {
        name: value
        for name, value in vars(_text).items()
        if not name.startswith("__") and name not in imported
    }
    bound = sorted(
        name
        for name, value in vars(cli).items()
        if name in own or value is _text or any(value is v for v in own.values())
    )
    assert bound == ["csv_text", "point_text"]
