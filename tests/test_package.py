"""The package's public names: every export in an `__all__` resolves, and the package exports each module's."""

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


PUBLIC_MODULES = ("algebra", "ensembles", "spectra", "moments", "analysis")


def test_package_exports_every_public_module_name_once():
    modules = [importlib.import_module(f"checkerboard_rmt.{name}") for name in PUBLIC_MODULES]
    expected = ["__version__", *(export for module in modules for export in module.__all__)]
    assert checkerboard_rmt.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for export in module.__all__:
            value = getattr(module, export)
            assert getattr(checkerboard_rmt, export) is value, export
            assert getattr(value, "__module__", module.__name__) == module.__name__, export  # defined there
