"""The public surface: every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import besselrules

MODULES = [info.name for info in pkgutil.iter_modules(besselrules.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"besselrules.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"besselrules.{name}.__all__ lists missing names {missing}"
