import importlib
import pkgutil

import pytest

import itals

MODULES = ["itals", *(f"itals.{m.name}" for m in pkgutil.iter_modules(itals.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_is_listed_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert sorted(set(exported)) == sorted(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
