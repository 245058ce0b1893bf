"""Every name a module exports through ``__all__`` exists in it."""
import importlib
import pkgutil

import pytest

import tocp

MODULES = ["tocp"] + [f"tocp.{m.name}" for m in pkgutil.iter_modules(tocp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []
