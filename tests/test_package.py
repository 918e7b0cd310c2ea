"""The package root re-exports exactly the public names of its modules."""

import importlib

import phaselim

MODULES = ("specfun", "eigensolve", "canonical", "variational", "asympt", "povm", "estimators")


def test_root_exports_every_module_all_and_the_version():
    names = {"__version__"}
    for module in MODULES:
        names |= set(importlib.import_module(f"phaselim.{module}").__all__)
    assert set(phaselim.__all__) == names
    assert len(phaselim.__all__) == len(names)


def test_every_exported_name_resolves():
    for name in phaselim.__all__:
        assert hasattr(phaselim, name), name
