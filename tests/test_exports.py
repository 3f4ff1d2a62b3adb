"""Every exported name resolves: ``ngm.__all__`` and each submodule's."""

import importlib
import pkgutil

import pytest

import ngm

MODULES = ["ngm"] + [f"ngm.{info.name}" for info in pkgutil.iter_modules(ngm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)

