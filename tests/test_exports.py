"""Public surface: every exported name resolves."""
import importlib

import pytest


@pytest.mark.parametrize("module", ["hybridflow", "hybridflow.runtime"])
def test_every_export_imports(module):
    mod = importlib.import_module(module)
    namespace = {}
    # a star import raises AttributeError for a name in __all__ that is gone
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
