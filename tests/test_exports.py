"""The package's export list matches what it imports and is its only one,
every constant in `constants.py` is read somewhere in the package, every
defaulted parameter of a public function is passed by some call, the
package imports exactly its declared runtime dependencies beside the
standard library, the package and its demos read only log parameters,
no module checks an integer argument with `isinstance`, and the walk-tree
module takes no exp or log from numpy."""

import ast
import math
import pathlib
import re
import sys
import types

import pytest

import ferrospin


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(ferrospin).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(ferrospin.__all__) == len(set(ferrospin.__all__))
    assert set(ferrospin.__all__) == public


def test_only_the_package_defines_an_export_list():
    # a second list in a module is one more copy of the public surface to
    # keep in step, and nothing reads it
    package = pathlib.Path(ferrospin.__file__).parent
    listed = [path.name for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"
              and any(isinstance(node, ast.Name) and node.id == "__all__"
                      and isinstance(node.ctx, ast.Store)
                      for node in ast.walk(ast.parse(path.read_text())))]
    assert not listed, listed


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


def _calls(tree):
    """(name, positional count, keyword names) of each call in `tree`; a
    starred argument passes every position, a ** argument every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        positional = (math.inf if any(isinstance(a, ast.Starred)
                                      for a in node.args) else len(node.args))
        keywords = {k.arg for k in node.keywords}
        yield name, positional, keywords


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant in disguise: it reads
    # like a setting that nothing sets
    root = pathlib.Path(__file__).resolve().parents[1]
    package = root / "src" / "ferrospin"
    passed = {}
    for top in ("src", "demos", "perfbench", "tests"):
        for path in (root / top).rglob("*.py"):
            for name, positional, keywords in _calls(
                    ast.parse(path.read_text())):
                passed.setdefault(name, []).append((positional, keywords))
    never = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, ast.FunctionDef)
                    or node.name.startswith("_")):
                continue
            args = node.args
            ordered = args.posonlyargs + args.args
            defaulted = [(i, a.arg) for i, a in enumerate(ordered)
                         if i >= len(ordered) - len(args.defaults)]
            defaulted += [(math.inf, a.arg) for a, d in
                          zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            calls = passed.get(node.name, [])
            never += [f"{path.stem}.{node.name}({arg})"
                      for i, arg in defaulted
                      if not any(positional > i or arg in keywords
                                 or None in keywords
                                 for positional, keywords in calls)]
    assert not never, never


def test_imports_are_exactly_the_declared_dependencies():
    # pyproject.toml and the code must not drift apart: every third-party
    # package the source imports is declared, and every declared one is used
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", d)[0] for d in project["dependencies"]}
    imported = set()
    for path in (root / "src" / "ferrospin").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"ferrospin"}
    assert third_party <= declared, sorted(third_party - declared)
    assert declared <= third_party, sorted(declared - third_party)


def test_package_and_demos_read_only_log_parameters():
    # a system hands out its parameters as logs only: a call to the linear
    # accessors lam, beta or gamma it no longer has would fail only when its
    # path runs, and not every path in a module or demo has a test
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "ferrospin").glob("*.py"))
    paths += sorted((root / "demos").glob("*.py"))
    linear = [f"{path.name}:{node.lineno} .{node.func.attr}("
              for path in paths
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("lam", "beta", "gamma")]
    assert len(paths) > 10 and not linear, linear


def test_package_checks_integers_only_through_model_integer():
    # `model._integer` is the one rule for an integer argument (numpy ints
    # pass, bool and floats do not); an isinstance test against int reads
    # True as 1 and refuses np.int64(1), so it would fork the rule again
    package = pathlib.Path(ferrospin.__file__).parent
    forks = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "int" for k in names):
                forks.append(f"{path.name}:{node.lineno}")
    assert not forks, forks


def test_sawtree_takes_no_transcendental_from_numpy():
    # the level-order fold of `saw_marginal` matches the depth-first one bit
    # for bit only because both take exp and log1p from math: numpy's
    # vectorised versions differ from libm in the last bit, which would
    # move the walk digests
    path = pathlib.Path(ferrospin.__file__).parent / "sawtree.py"
    banned = {"exp", "log", "log1p", "expm1", "logaddexp"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in banned
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append(f"sawtree.py:{node.lineno} np.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"):
            found += [f"sawtree.py:{node.lineno} from numpy import {a.name}"
                      for a in node.names if a.name in banned | {"*"}]
    assert not found, found


# each module's layer: a module imports, by relative import, only from
# modules of a lower layer, so the base (model) never depends on what is
# built on it
LAYERS = {"errors": 0, "constants": 0, "model": 1, "exact": 2, "sawtree": 2,
          "samplers": 3, "regions": 3, "harness": 4, "cli": 5}


def test_each_module_imports_only_from_lower_layers():
    package = pathlib.Path(ferrospin.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py")}
    assert set(modules) - {"__init__"} == set(LAYERS)
    upward = []
    for name, layer in LAYERS.items():
        for node in ast.walk(ast.parse(modules[name].read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            targets = ([node.module] if node.module
                       else [alias.name for alias in node.names])
            upward += [f"{name} -> {target}" for target in targets
                       if LAYERS[target.split(".")[0]] >= layer]
    assert not upward, upward
