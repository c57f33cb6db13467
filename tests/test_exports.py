"""The public surface: every name a module lists in __all__ exists, and the
package exports each module's list."""

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


def test_package_exports_every_module_list():
    # the package's import order: each module after the ones it imports
    order = ("bessel_core", "coefficients", "sum_rules", "modulation_spectroscopy")
    lists = [importlib.import_module(f"besselrules.{name}").__all__ for name in order]
    assert besselrules.__all__ == [attr for names in lists for attr in names]
    missing = [attr for attr in besselrules.__all__ if not hasattr(besselrules, attr)]
    assert not missing, f"besselrules.__all__ lists missing names {missing}"
