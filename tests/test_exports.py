"""Every exported name is defined: no ``__all__`` lists a name its module lacks."""

import importlib
import pkgutil

import pytest

import leangrape

MODULES = sorted(info.name for info in pkgutil.iter_modules(leangrape.__path__))


def test_every_module_is_found():
    assert {"costs", "derivatives", "expm", "sparse"} <= set(MODULES)


@pytest.mark.parametrize("name", ["leangrape", *(f"leangrape.{m}" for m in MODULES)])
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
