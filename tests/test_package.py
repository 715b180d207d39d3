"""The package root re-exports the public names of every library module."""

import importlib

import tsfrac

LIBRARY_MODULES = ("timescale", "order", "derivative", "integral", "exprlang", "checks", "errors")


def test_root_exports_every_library_name_once():
    names = tsfrac.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(tsfrac, name) for name in names)
    for layer in LIBRARY_MODULES:
        mod = importlib.import_module(f"tsfrac.{layer}")
        assert set(mod.__all__) <= set(names), layer
        assert all(getattr(tsfrac, name) is getattr(mod, name) for name in mod.__all__), layer
    assert "__version__" in names
