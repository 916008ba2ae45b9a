"""The package's export list matches what it imports."""

import types

import ferrospin


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(ferrospin).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(ferrospin.__all__) == len(set(ferrospin.__all__))
    assert set(ferrospin.__all__) == public


def test_every_listed_name_imports():
    namespace = {}
    exec("from ferrospin import *", namespace)  # fails on a missing name
    namespace.pop("__builtins__")
    assert set(namespace) == set(ferrospin.__all__)
