"""The benchmark's trace hooks still find the functions they wrap.

perfbench/tracer.py wraps each (module, qualified name) of its TARGETS at
install time, so a renamed or deleted function would break ``--trace 1``
only when the benchmark runs.  These tests load the tracer by path and
resolve every name it wraps.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module, qualname",
    [(module, qualname) for module, qualname, _, _ in tracer.TARGETS],
    ids=[f"{module}.{qualname}" for module, qualname, _, _ in tracer.TARGETS],
)
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    *classes, attr = qualname.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    # methods are read from the class's own namespace, as install() does
    assert attr in vars(owner), f"{module}.{qualname} is gone"
    assert callable(getattr(owner, attr))


def test_counted_integrator_resolves():
    # install() also wraps the solve_ivp that time_domain_oracle's module holds
    module = importlib.import_module(f"{tracer.PACKAGE}.modulation_spectroscopy")
    assert callable(module.solve_ivp)
