"""Every module's export list names only what the module defines."""
import importlib
import pkgutil

import pytest

import qpke

MODULES = [info.name for info in pkgutil.iter_modules(qpke.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"qpke.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
