"""The docstring examples of every ``gwgamma`` module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import gwgamma

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(gwgamma.__path__, "gwgamma.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
