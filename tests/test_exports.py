"""Every name a module exports exists on that module."""

import importlib
import pkgutil

import pytest

import cnoweave

MODULES = sorted(m.name for m in pkgutil.iter_modules(cnoweave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"cnoweave.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
