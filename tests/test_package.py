"""The package's public names: every export in an `__all__` resolves."""

import importlib
import pkgutil

import pytest

import checkerboard_rmt

MODULES = ["checkerboard_rmt"] + [
    f"checkerboard_rmt.{info.name}" for info in pkgutil.iter_modules(checkerboard_rmt.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
