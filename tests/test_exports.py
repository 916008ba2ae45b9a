"""The package's export list matches what it imports and is its only one,
every constant in `constants.py` is read somewhere in the package, every
defaulted parameter of a public function is passed by some call, the
package imports exactly its declared runtime dependencies beside the
standard library, the package and its demos read only log parameters,
no module checks an integer argument with `isinstance`, the walk-tree
module takes no exp or log from numpy, and only the builders of `model`
make a system without the public checks."""

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


def _is_spin_literal(node) -> bool:
    """`node` is a literal tuple, list or set of the constants 0 and 1."""
    return (isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and all(isinstance(e, ast.Constant) for e in node.elts)
            and {e.value for e in node.elts} == {0, 1})


def test_package_checks_integers_only_through_model_integer():
    # `model._integer` is the one rule for an integer argument (numpy ints
    # pass, bool and floats do not); an isinstance test against int reads
    # True as 1 and refuses np.int64(1), and a membership test in (0, 1)
    # passes True and 1.0 as spins, so either would fork the rule again
    package = pathlib.Path(ferrospin.__file__).parent
    forks = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "__contains__"
                    and _is_spin_literal(node.value)):
                forks.append(f"{path.name}:{node.lineno} (0, 1).__contains__")
            elif (isinstance(node, ast.Compare)
                  and any(isinstance(op, (ast.In, ast.NotIn))
                          and _is_spin_literal(right)
                          for op, right in zip(node.ops, node.comparators))):
                forks.append(f"{path.name}:{node.lineno} in (0, 1)")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "int"
                       for k in names):
                    forks.append(f"{path.name}:{node.lineno} isinstance")
    assert not forks, forks


# public names that no library, demo or benchmark code calls, kept as the
# laboratory's API for the gate or claim that each one serves; any other
# public def or class without such a caller is a wrapper only tests call
LAB_API = {
    "influence_pair": "gate 10, pairwise influence signs and decay",
    "all_to_one_influence": "gate 10, all-to-one influence stabilises",
    "heatbath_matrix": "the uniform-block heat-bath kernel the block "
                       "samplers are checked against",
    "instance_dict": "gate 13, the instance files of the byte-identical "
                     "CLI runs",
    "is_good_tree_boundary": "gate 09, good walk-tree boundaries",
    "universal_pinning": "gate 09, the worst good walk-tree boundary",
    "ratio_dominance_slack": "gate 09, ratio dominance on the walk tree",
    "monotone_potential_slack": "gate 09, the monotone potential",
    "check_one_step_relation": "gate 09, worst-boundary dominance",
    "influence_a_u": "the influence of one boundary vertex on the centre",
    "assm_sum": "the aggregate influence at the centre (target 1/20)",
    "shortest_path_closure_check": "good boundaries are closed under "
                                   "Hamming geodesics",
    "warm_start_check": "the warm-start condition of the chains",
    "trivial_term_bound": "the single-term bound of the decay-factor sum",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name is referenced by a load of it as a name or an attribute, or by
    # a string constant equal to it (`perfbench/tracing.TRACED` names the
    # functions it wraps), in the package modules, the demos or perfbench
    root = pathlib.Path(__file__).resolve().parents[1]
    package = root / "src" / "ferrospin"
    modules = [path for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"]
    referenced = set()
    for path in (modules + sorted((root / "demos").rglob("*.py"))
                 + sorted((root / "perfbench").rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    public = {node.name: path.stem for path in modules
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert set(LAB_API) <= set(public), sorted(set(LAB_API) - set(public))
    uncalled = sorted(f"{module}.{name}" for name, module in public.items()
                      if name not in referenced and name not in LAB_API)
    assert not uncalled, uncalled


def _numpy_transcendentals(label, tree) -> list[str]:
    """The exp and log family that `tree` (an AST) takes from numpy."""
    banned = {"exp", "log", "log1p", "expm1", "logaddexp"}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in banned
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append(f"{label}:{node.lineno} np.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"):
            found += [f"{label}:{node.lineno} from numpy import {a.name}"
                      for a in node.names if a.name in banned | {"*"}]
    return found


def test_sawtree_takes_no_transcendental_from_numpy():
    # the level-order fold of `saw_marginal` matches the depth-first one bit
    # for bit, and each row of the stored tree's batched fold matches
    # `evaluate_ratios`, only because both take exp and log1p from math:
    # numpy's vectorised versions differ from libm in the last bit, which
    # would move the walk and lab digests.  The dominance slacks in
    # `regions`, and every `regions` function they reach, take their ratios
    # from that fold and only subtract, take abs and take minima.
    package = pathlib.Path(ferrospin.__file__).parent
    found = _numpy_transcendentals(
        "sawtree.py", ast.parse((package / "sawtree.py").read_text()))
    regions = ast.parse((package / "regions.py").read_text())
    found += [f for f in _numpy_transcendentals("regions.py", regions)
              if " from numpy import " in f]
    defs = {node.name: node for node in regions.body
            if isinstance(node, ast.FunctionDef)}
    todo = ["ratio_dominance_slack", "monotone_potential_slack"]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defs[name])
                     if isinstance(node, ast.Name) and node.id in defs]
    assert {"_mixture_ratios", "_boundary_leaves"} <= reached
    for name in sorted(reached):
        found += _numpy_transcendentals(f"regions.py {name}", defs[name])
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


def test_only_the_builders_of_model_call_its_private_constructor():
    # `model._derived_system` builds a system without the public checks, so
    # only code whose values have passed them may call it: the derived
    # builders, whose parent system passed them, `rbm_to_two_spin`, whose
    # checked RBM fixes the edges (it checks the values itself), and
    # `_from_columns`, the public route of `from_params` and
    # `load_instance`, after it has checked each value once
    root = pathlib.Path(__file__).resolve().parents[1]
    callers = set()
    for top in ("src", "demos", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                callers.update(
                    f"{path.stem}.{func.name}" for node in ast.walk(func)
                    if isinstance(node, ast.Name)
                    and node.id == "_derived_system")
    assert callers == {"model.induced_subsystem", "model.apply_pinning",
                       "model.tilt", "model.rbm_to_two_spin",
                       "model._from_columns"}
    assert not hasattr(ferrospin, "_derived_system")


def test_derived_builders_run_no_public_check(monkeypatch):
    from ferrospin import model
    counts = {}

    def counting(name, check):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return check(*args, **kwargs)
        return wrapper

    for name in ("_check_counts", "_check_edges", "_check_finite"):
        monkeypatch.setattr(model, name, counting(name, getattr(model, name)))
    monkeypatch.setattr(model.TwoSpinSystem, "__post_init__",
                        counting("__post_init__",
                                 model.TwoSpinSystem.__post_init__))
    system = model.TwoSpinSystem.from_params(
        4, [1.0, 0.5, 2.0, 1.0],
        [(1, 0, 1.0, 2.0), (1, 2, 0.5, 3.0), (3, 2, 1.0, 2.5)])
    # the public route checks each value once: no second pass in the
    # constructor
    assert counts == {"_check_counts": 1, "_check_edges": 1}
    counts.clear()
    model.tilt(system, 0.5)
    model.tilt(system, [0.5, 1.0, 0.25, 1.0])
    model.induced_subsystem(system, [0, 1, 3])
    assert counts == {}
    # pinning checks only the fields its absorbed neighbours changed, and
    # the RBM map only the values its checked parameters hand it
    model.apply_pinning(system, model.Pinning({1: 0}))
    assert counts == {"_check_finite": 1}
    model.rbm_to_two_spin(model.RbmParams(1, 2, ((0.0, 0.5, 0.2),
                                                 (0.5, 0.0, 0.0),
                                                 (0.2, 0.0, 0.0)),
                                          (0.1, -0.3, 0.2)))
    assert counts == {"_check_finite": 3}
