import importlib
import pkgutil

import pytest

import cvdec

MODULES = ["cvdec"] + [f"cvdec.{m.name}"
                       for m in pkgutil.iter_modules(cvdec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_existing_names(name):
    # a deleted export left in __all__ breaks `from module import *`
    module = importlib.import_module(name)
    assert not [n for n in module.__all__ if not hasattr(module, n)]
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
