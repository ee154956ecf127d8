"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import hybrid_isaacs

MODULES = ["hybrid_isaacs"] + sorted(f"hybrid_isaacs.{m.name}"
                                     for m in pkgutil.iter_modules(hybrid_isaacs.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
