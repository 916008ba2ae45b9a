"""The package's export list matches what it imports, and every constant
in `constants.py` is read somewhere in the package."""

import ast
import pathlib
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


def test_every_constant_is_read_by_another_module():
    # a tolerance or cap that no module reads is dead: it only looks like a
    # setting, and the bound it names is applied nowhere
    package = pathlib.Path(ferrospin.__file__).parent
    tree = ast.parse((package / "constants.py").read_text())
    names = {target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    read = set()
    for path in package.glob("*.py"):
        if path.name == "constants.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "constants"):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert names and names <= read, sorted(names - read)
