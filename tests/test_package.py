"""The package surface: every name that an __all__ lists exists."""
import importlib

import pytest

import hyperbessel

MODULES = ["hyperbessel", "hyperbessel.cli", "hyperbessel.hypergroup", "hyperbessel.kernels",
           "hyperbessel.quadrature", "hyperbessel.sampling", "hyperbessel.specfun",
           "hyperbessel.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_law_writer_is_exported_from_kernels():
    from hyperbessel import kernels
    assert hyperbessel.law_json is kernels.law_json
