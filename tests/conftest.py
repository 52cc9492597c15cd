import importlib
import pkgutil

import pytest

import kfdr

_MODULES = [importlib.import_module(f"kfdr.{m.name}") for m in pkgutil.iter_modules(kfdr.__path__)]


@pytest.fixture
def row_block(monkeypatch):
    """``row_block(size)`` sets ``_ROW_BLOCK`` to ``size`` in every kfdr
    module that binds it, so a test sees only layouts that production can
    make: one block size for every pass over the rows."""

    def set_size(size):
        for module in _MODULES:
            if hasattr(module, "_ROW_BLOCK"):
                monkeypatch.setattr(module, "_ROW_BLOCK", size)

    return set_size
