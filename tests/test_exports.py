import importlib
import pkgutil

import pytest

import mfbsde

MODULES = ["mfbsde"] + [f"mfbsde.{m.name}" for m in pkgutil.iter_modules(mfbsde.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    # a deleted class or function must not leave a stale export behind
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
