"""Walk-tree construction, the log-space marginal pass against the stored
tree and brute force, the ratio recursion, and the potential apparatus."""

import itertools
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as ora
from ferrospin import constants, sawtree
from ferrospin.errors import CapacityError, InputError, NumericError
from ferrospin.model import (
    ParamClass,
    Pinning,
    RbmParams,
    TwoSpinSystem,
    lambda0,
    lambda_c,
    rbm_to_two_spin,
)
from ferrospin.sawtree import (
    Phi,
    PotentialParams,
    SawTree,
    build_saw_tree,
    decay_factor,
    derive_potential,
    evaluate_ratios,
    g_value,
    phi,
    pin_saw_tree,
    prune_pinned_leaves,
    _fold,
    _ratio_rows,
    _roots,
    saw_marginal,
)


def to_system(inst):
    n, lam, edges = inst
    return TwoSpinSystem.from_params(n, lam, edges)


PATH3 = to_system((3, [1.0, 1.0, 1.0], [(0, 1, 0.9, 2.0), (1, 2, 0.8, 3.0)]))
TRIANGLE = to_system((3, [1.0, 1.0, 1.0],
                      [(0, 1, 1.0, 2.0), (0, 2, 1.0, 2.0), (1, 2, 1.0, 2.0)]))
SQUARE = to_system((4, [1.0] * 4,
                    [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0),
                     (2, 3, 1.0, 2.0), (0, 3, 1.0, 2.0)]))


# ---------------------------------------------------------------------------
# construction

def test_path_tree_is_the_path():
    tree = build_saw_tree(PATH3, 0)
    assert len(tree) == 3
    assert tree.preimage == [0, 1, 2]
    assert tree.parent == [-1, 0, 1]
    assert not any(tree.cycle_closing) and not any(tree.boundary_copy)
    ora.verify_tree_invariants(tree, PATH3)


def test_triangle_tree_shape():
    tree = build_saw_tree(TRIANGLE, 0)
    assert len(tree.children[0]) == 2
    closers = [u for u in range(len(tree)) if tree.cycle_closing[u]]
    assert len(closers) == 2
    assert all(tree.preimage[u] == 0 for u in closers)
    assert all(tree.is_leaf(u) for u in closers)
    # one walk returns 0-1-2-0, the other 0-2-1-0: the copy reached through
    # the larger neighbour pins 1, through the smaller pins 0
    assert sorted(tree.cycle_spin[u] for u in closers) == [0, 1]
    assert pin_saw_tree(tree, Pinning({})) == {
        u: math.inf if tree.cycle_spin[u] == 0 else 0.0 for u in closers}
    ora.verify_tree_invariants(tree, TRIANGLE)


def test_square_with_boundary_stops_at_copies():
    tree = build_saw_tree(SQUARE, 0, boundary=[2])
    assert not any(tree.cycle_closing)
    copies = [u for u in range(len(tree)) if tree.boundary_copy[u]]
    assert len(copies) == 2
    assert pin_saw_tree(tree, Pinning({2: 1})) == {u: 0.0 for u in copies}
    with pytest.raises(InputError, match="missing"):
        pin_saw_tree(tree, Pinning({}))
    assert all(tree.preimage[u] == 2 and tree.is_leaf(u) for u in copies)
    ora.verify_tree_invariants(tree, SQUARE)


def test_boundary_vertices_never_interior():
    rng = random.Random(5)
    for _ in range(20):
        inst = ora.random_instance(rng, 6)
        system = to_system(inst)
        boundary = [v for v in range(6) if rng.random() < 0.3]
        root = rng.choice([v for v in range(6) if v not in boundary])
        tree = build_saw_tree(system, root, boundary)
        for u in range(len(tree)):
            if tree.preimage[u] in boundary:
                assert tree.boundary_copy[u] and tree.is_leaf(u)
        ora.verify_tree_invariants(tree, system)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 7))
def test_structural_invariants_random(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    ora.verify_tree_invariants(build_saw_tree(system, rng.randrange(n)), system)


def test_walk_tree_against_recursive_walk_oracle():
    # every node's walk and leaf flags, against a plain recursive enumeration
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 11)
        inst = ora.random_instance(rng, n, p=rng.uniform(0.1, 0.5))
        adj = {v: [] for v in range(n)}
        for (a, b, _, _) in inst[2]:
            adj[a].append(b)
            adj[b].append(a)
        root = rng.randrange(n)
        boundary = {v for v in range(n) if v != root and rng.random() < 0.3}
        tree = build_saw_tree(to_system(inst), root, boundary)
        seen = {}
        for u in range(len(tree)):
            walk = []
            a = u
            while a != -1:
                walk.append(tree.preimage[a])
                a = tree.parent[a]
            seen[tuple(reversed(walk))] = (
                tree.boundary_copy[u], tree.cycle_closing[u],
                tree.cycle_spin[u], tree.is_leaf(u))
        assert len(seen) == len(tree)
        assert seen == ora.saw_tree_nodes(adj, root, boundary)


def test_build_rejects_bad_root_and_caps():
    with pytest.raises(InputError):
        build_saw_tree(PATH3, 3)
    with pytest.raises(InputError):
        build_saw_tree(PATH3, 0, boundary=[0])
    k5 = to_system((5, [1.0] * 5,
                    [(u, v, 1.0, 2.0) for u in range(5) for v in range(u + 1, 5)]))
    with pytest.raises(CapacityError):
        build_saw_tree(k5, 0, node_cap=10)


def test_single_vertex_tree():
    solo = TwoSpinSystem.from_params(1, [2.0], [])
    tree = build_saw_tree(solo, 0)
    assert len(tree) == 1 and tree.is_leaf(0)
    ora.verify_tree_invariants(tree, solo)
    assert saw_marginal(solo, 0) == pytest.approx((2 / 3, 1 / 3, 1))


# ---------------------------------------------------------------------------
# the log-space pass against the stored tree and the linear recursion

def reference_marginal(system, root, pin=Pinning()):
    """(p0, p1, nodes) from the stored tree: `build_saw_tree`, then
    `evaluate_ratios` with every spin leaf pinned to ratio inf (spin 0) or 0
    (spin 1): boundary copies by `pin`, cycle-closing copies by their
    `cycle_spin`."""
    tree = build_saw_tree(system, root, pin.domain)
    spins = dict(pin.items())
    ratio_pin = {}
    for u in range(len(tree)):
        if tree.boundary_copy[u]:
            ratio_pin[u] = math.inf if spins[tree.preimage[u]] == 0 else 0.0
        elif tree.cycle_closing[u]:
            ratio_pin[u] = math.inf if tree.cycle_spin[u] == 0 else 0.0
    r = evaluate_ratios(tree, system, ratio_pin)[0]
    return r / (1.0 + r), 1.0 / (1.0 + r), len(tree)


def test_pin_boundary_copies():
    # the square's boundary tree at vertex 2 has two boundary copies and no
    # other leaves: spin 1 there is ratio 0, spin 0 ratio inf
    tree = build_saw_tree(SQUARE, 0, boundary=[2])
    copies = [u for u in range(len(tree)) if tree.boundary_copy[u]]
    assert len(copies) == 2
    for s, x in ((1, 0.0), (0, math.inf)):
        r = evaluate_ratios(tree, SQUARE, {u: x for u in copies})[0]
        got = saw_marginal(SQUARE, 0, Pinning({2: s}))
        assert got.p1 == pytest.approx(1.0 / (1.0 + r), rel=1e-15)
        assert got.tree_nodes == len(tree)


def test_pin_cycle_closers_triangle():
    # the two cycle-closing copies take spins 0 and 1 by the successor rule,
    # and the pass must follow it: both at spin 0 gives another marginal
    tri_inst = (3, [1.0, 0.5, 2.0],
                [(0, 1, 1.0, 2.0), (0, 2, 0.7, 3.0), (1, 2, 0.9, 1.5)])
    tri = to_system(tri_inst)
    tree = build_saw_tree(tri, 0)
    closers = [u for u in range(len(tree)) if tree.cycle_closing[u]]
    assert sorted(tree.cycle_spin[u] for u in closers) == [0, 1]
    p1 = saw_marginal(tri, 0).p1
    assert p1 == pytest.approx(reference_marginal(tri, 0)[1], rel=1e-15)
    assert p1 == pytest.approx(ora.marginal(*tri_inst, 0)[1], abs=1e-15)
    r = evaluate_ratios(tree, tri, {u: math.inf for u in closers})[0]
    assert abs(p1 - 1.0 / (1.0 + r)) > 1e-3


def test_prune_field_updates():
    # a pinned-1 leaf through gamma = 2 halves the root ratio, a pinned-0 leaf
    # through beta = 0.5 halves it too, from lambda = 1
    sys2 = to_system((2, [1.0, 1.0], [(0, 1, 0.5, 2.0)]))
    tree = build_saw_tree(sys2, 0, boundary=[1])
    for s in (0, 1):
        assert saw_marginal(sys2, 0, Pinning({1: s})) == pytest.approx(
            (1 / 3, 2 / 3, 2), rel=1e-15)
        reduced, log_fields = prune_pinned_leaves(
            tree, sys2, pin_saw_tree(tree, Pinning({1: s})))
        assert log_fields == {0: pytest.approx(math.log(0.5), rel=1e-15)}
        assert reduced.children[0] == []
    with pytest.raises(InputError, match="not a leaf"):
        prune_pinned_leaves(tree, sys2, {0: math.inf})
    solo = TwoSpinSystem.from_params(1, [2.0], [])
    with pytest.raises(InputError, match="not a leaf below the root"):
        prune_pinned_leaves(build_saw_tree(solo, 0), solo, {0: math.inf})
    # node -1 once folded node 1 into the root and left it attached
    for u in (-1, 2, True):
        with pytest.raises(InputError, match="tree node"):
            prune_pinned_leaves(tree, sys2, {u: 0.0})
    # node 99 once left the tree unpinned, root ratio 0.5 and all
    for u in (99, True):
        with pytest.raises(InputError, match="tree node"):
            evaluate_ratios(tree, sys2, {u: 0.0})
        with pytest.raises(InputError, match="tree node"):
            evaluate_ratios(tree, sys2, log_fields={u: 0.0})
    # every pin is checked, also one below another pin
    for pins in ({1: math.nan}, {0: 1.0, 1: -0.5}):
        with pytest.raises(InputError, match=r"must be in \[0, inf\]"):
            evaluate_ratios(tree, sys2, pins)
    # only a spin leaf folds: ratio inf or 0
    with pytest.raises(InputError, match="must be 0 or inf to fold, got 2.0"):
        prune_pinned_leaves(tree, sys2, {1: 2.0})


def test_prune_overflowing_field_is_a_numeric_error():
    # a star, centre 0 with log lambda 800, leaves 1-4 on the boundary, log
    # gamma 800 on edge (0,1): spin-0 leaves leave the centre's log field at
    # 800, past the float range as a ratio, which the ratio recursion
    # reports on the pruned tree as on the unpruned one
    system = TwoSpinSystem(
        n=5, edges=((0, 1), (0, 2), (0, 3), (0, 4)), log_beta=(0.0,) * 4,
        log_gamma=(800.0, 1.0, 0.5, 2.0), log_lambda=(800.0,) + (0.0,) * 4)
    tree = build_saw_tree(system, 0, {1, 2, 3, 4})
    zeros = pin_saw_tree(tree, Pinning({v: 0 for v in range(1, 5)}))
    reduced, log_fields = prune_pinned_leaves(tree, system, zeros)
    assert log_fields == {0: 800.0}
    overflow = r"node 0 \(vertex 0\): ratio = exp\(800\.0\) overflows"
    with pytest.raises(NumericError, match=overflow):
        evaluate_ratios(tree, system, zeros)
    with pytest.raises(NumericError, match=overflow):
        evaluate_ratios(reduced, system, log_fields=log_fields)
    with pytest.raises(NumericError, match="vertex 0: lambda"):
        ora.evaluate_ratios(tree, system, zeros)
    # spin-1 leaves fold in log space, 800 - 800 - 1 - 0.5 - 2
    ones = pin_saw_tree(tree, Pinning({1: 1, 2: 1, 3: 1, 4: 1}))
    assert prune_pinned_leaves(tree, system, ones)[1] == {
        0: pytest.approx(-3.5, rel=1e-12)}
    # the log fold evaluates the tree whose lambda overflows linear scale
    with pytest.raises(NumericError, match="vertex 0: lambda"):
        ora.evaluate_ratios(tree, system, ones)
    r = evaluate_ratios(tree, system, ones)[0]
    assert r == pytest.approx(math.exp(-3.5), rel=1e-12)
    got = saw_marginal(system, 0, Pinning({1: 1, 2: 1, 3: 1, 4: 1}))
    assert got.p1 == pytest.approx(1.0 / (1.0 + r), rel=1e-15)


def test_prune_keeps_a_field_below_the_float_range_in_log_space():
    # a star, centre 0 with log lambda 0: spin-1 boundary leaves 1 and 2
    # over log gamma 400 each fold the centre's log field to -800, a field
    # below the float range, which once read 0.0 or raised; leaf 3 (log
    # lambda -1000, log gamma -1000) lifts the true ratio to exp(200) / 2
    system = TwoSpinSystem(
        n=4, edges=((0, 1), (0, 2), (0, 3)), log_beta=(0.0,) * 3,
        log_gamma=(400.0, 400.0, -1000.0), log_lambda=(0.0,) * 3 + (-1000.0,))
    tree = build_saw_tree(system, 0, {1, 2})
    ones = pin_saw_tree(tree, Pinning({1: 1, 2: 1}))
    reduced, log_fields = prune_pinned_leaves(tree, system, ones)
    assert log_fields == {0: -800.0}
    r = evaluate_ratios(tree, system, ones)[0]
    assert r == pytest.approx(math.exp(200.0) / 2.0, rel=1e-12)
    pruned = evaluate_ratios(reduced, system, log_fields=log_fields)[0]
    assert pruned == pytest.approx(r, rel=1e-12)
    got = saw_marginal(system, 0, Pinning({1: 1, 2: 1}))
    assert got.p1 == pytest.approx(1.0 / (1.0 + r), rel=1e-12)


def test_prune_preserves_root_ratio():
    # the spin leaves evaluated in place, folded into fields, and as ratio
    # pins all give the pass's marginal
    for system in (TRIANGLE, SQUARE, PATH3):
        for v in range(system.n):
            got = saw_marginal(system, v)
            want = reference_marginal(system, v)
            assert got[:2] == pytest.approx(want[:2], rel=1e-14)
            assert got.tree_nodes == want[2]
            tree = build_saw_tree(system, v)
            pins = pin_saw_tree(tree, Pinning({}))
            direct = evaluate_ratios(tree, system, pins)[0]
            reduced, log_fields = prune_pinned_leaves(tree, system, pins)
            pruned = evaluate_ratios(reduced, system, log_fields=log_fields)[0]
            for r in (direct, pruned):
                assert got.p1 == pytest.approx(1.0 / (1.0 + r), rel=1e-14)


def test_saw_marginal_matches_the_stored_tree_recursion():
    # n 1-11, sparse G(n, p) with isolated roots and dead ends, random pins
    rng = random.Random(29)
    kinds = set()
    for trial in range(48):
        n, p = rng.randint(1, 11), rng.uniform(0.1, 0.4)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        root = rng.randrange(n)
        if trial % 8 == 0:
            pairs = [e for e in pairs if root not in e]
        edges = [(u, v, rng.uniform(0.2, 3.0), rng.uniform(0.2, 5.0))
                 for u, v in pairs]
        system = to_system((n, [rng.uniform(0.05, 3.0) for _ in range(n)],
                            edges))
        pin = Pinning({u: rng.randint(0, 1) for u in range(n)
                       if u != root and rng.random() < 0.3})
        got = saw_marginal(system, root, pin)
        want = reference_marginal(system, root, pin)
        assert got == pytest.approx(want, rel=1e-12)
        tree = build_saw_tree(system, root, pin.domain)
        reduced, log_fields = prune_pinned_leaves(tree, system,
                                                  pin_saw_tree(tree, pin))
        r = evaluate_ratios(reduced, system, log_fields=log_fields)[0]
        assert got.p1 == pytest.approx(1.0 / (1.0 + r), rel=1e-12)
        for u in range(len(tree)):
            if tree.is_leaf(u):
                kinds.add("boundary" if tree.boundary_copy[u] else
                          "cycle" if tree.cycle_closing[u] else
                          "dead end" if u else "isolated root")
    assert kinds == {"boundary", "cycle", "dead end", "isolated root"}


def _random_pin(rng, n, v):
    return {u: rng.randint(0, 1) for u in range(n)
            if u != v and rng.random() < 0.3}


def test_saw_marginal_at_extreme_rbm_weights():
    # |w| and |theta| up to 1000: the linear weights overflow a float
    rng = random.Random(31)
    for _ in range(40):
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
        n = n0 + n1
        w = [[0.0] * n for _ in range(n)]
        for u in range(n0):
            for v in range(n0, n):
                if rng.random() < 0.7:
                    w[u][v] = w[v][u] = rng.choice(
                        [1000.0, -1000.0, rng.uniform(-1000.0, 1000.0)])
        theta = [rng.choice([1000.0, -1000.0, rng.uniform(-1000.0, 1000.0)])
                 for _ in range(n)]
        system = rbm_to_two_spin(RbmParams(
            n0=n0, n1=n1, interaction=tuple(map(tuple, w)), theta=tuple(theta)))
        v = rng.randrange(n)
        pin = _random_pin(rng, n, v)
        p0, p1, _ = saw_marginal(system, v, Pinning(pin))
        o0, o1 = ora.log_conditional(n, ora.rbm_log_weight_fn(w, theta), pin, v)
        assert abs(p0 - o0) <= constants.SAW_ORACLE_TOL
        assert abs(p1 - o1) <= constants.SAW_ORACLE_TOL


def test_saw_marginal_at_extreme_linear_parameters():
    # lambda, beta and gamma from 1e-300 to 1e300
    rng = random.Random(37)

    def draw():
        return rng.choice([1e300, 1e-300, 10.0 ** rng.uniform(-300, 300)])

    for _ in range(40):
        n = rng.randint(1, 7)
        pairs = ora.random_connected_graph(rng, n, p=0.4)
        lam = [draw() for _ in range(n)]
        edges = [(u, v, draw(), draw()) for u, v in pairs]
        system = to_system((n, lam, edges))
        v = rng.randrange(n)
        pin = _random_pin(rng, n, v)
        p0, p1, _ = saw_marginal(system, v, Pinning(pin))
        log_weight = ora.log_weight_fn(
            n, [math.log(x) for x in lam],
            [(a, b, math.log(be), math.log(ga)) for a, b, be, ga in edges])
        o0, o1 = ora.log_conditional(n, log_weight, pin, v)
        assert abs(p0 - o0) <= constants.SAW_ORACLE_TOL
        assert abs(p1 - o1) <= constants.SAW_ORACLE_TOL


def test_saw_marginal_node_cap_fires_where_the_tree_build_does(monkeypatch):
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randint(2, 8)
        system = to_system(ora.random_instance(rng, n))
        v = rng.randrange(n)
        pin = Pinning(_random_pin(rng, n, v))
        size = len(build_saw_tree(system, v, pin.domain))
        with pytest.raises(CapacityError):
            build_saw_tree(system, v, pin.domain, node_cap=size - 1)
        monkeypatch.setattr(constants, "REGION_NODE_CAP", size)
        assert saw_marginal(system, v, pin).tree_nodes == size
        monkeypatch.setattr(constants, "REGION_NODE_CAP", size - 1)
        with pytest.raises(CapacityError, match=f"node cap {size - 1}$"):
            saw_marginal(system, v, pin)


def _route_system(rng, kind):
    """A seeded system for the route test: ferromagnetic, extreme
    (1e+-300) or an RBM whose weights reach 1e+-308, where sums of log
    terms overflow to +-inf."""
    n = rng.randint(1, 8)
    pairs = ora.random_connected_graph(rng, n, rng.uniform(0.2, 0.6))
    if kind == 0:
        return to_system((n, [rng.uniform(0.05, 2.0) for _ in range(n)],
                          ora.random_ferro_params(rng, pairs)))

    def extreme():
        return rng.choice([1e300, 1e-300, 10.0 ** rng.uniform(-300, 300),
                           rng.uniform(0.2, 5.0)])

    if kind == 1:
        return to_system((n, [extreme() for _ in range(n)],
                          [(u, v, extreme(), extreme()) for u, v in pairs]))
    n0, n1 = rng.randint(1, 4), rng.randint(1, 4)
    weights = [1e308, -1e308, 1e300, -1e-300, 1000.0, -1000.0]
    w = [[0.0] * (n0 + n1) for _ in range(n0 + n1)]
    for u in range(n0):
        for v in range(n0, n0 + n1):
            if rng.random() < 0.8:
                w[u][v] = w[v][u] = rng.choice(weights + [rng.uniform(-2, 2)])
    theta = [rng.choice(weights + [0.0, rng.uniform(-2, 2)])
             for _ in range(n0 + n1)]
    return rbm_to_two_spin(RbmParams(n0=n0, n1=n1,
                                     interaction=tuple(map(tuple, w)),
                                     theta=tuple(theta)))


class _RouteSpy:
    """Spy on `saw_marginal`'s route, one `run` at a time: `estimates` holds
    each estimate of the tree's size as (the pass's node count, the
    estimate), and `handed` whether `_level_fold` took the tree."""

    def __init__(self, monkeypatch):
        walks = sawtree._walks
        finished_share = sawtree._finished_share
        level_fold = sawtree._level_fold

        def counted_walks(root, state, expand):
            def counted(walk, pos, e):  # the pass's node count, as it keeps it
                self.nodes += (len(self.system.adjacency[walk[-1]])
                               - (len(walk) > 1))
                return expand(walk, pos, e)
            return walks(root, state, counted)

        def share(*args):
            s = finished_share(*args)
            self.estimates.append(
                (self.nodes, self.nodes / s if s else math.inf))
            return s

        def fold(*args):
            self.handed = True
            return level_fold(*args)

        monkeypatch.setattr(sawtree, "_walks", counted_walks)
        monkeypatch.setattr(sawtree, "_finished_share", share)
        monkeypatch.setattr(sawtree, "_level_fold", fold)

    def run(self, system, v, pin=Pinning()):
        self.system, self.nodes, self.estimates = system, 1, []
        self.handed = False
        return saw_marginal(system, v, pin)


def test_level_order_fold_is_the_depth_first_fold_bit_for_bit(monkeypatch):
    # a budget of 0 sends every tree to the level-order arrays, one of inf
    # none, one of 64 the trees past 16, 32 or 64 nodes estimated at 160
    # nodes or more, and the pass finishes the others; repr tells apart
    # every float bit, also of -0.0, which == does not.  At budget 0 the
    # arrays also run with 8 cells a chunk, so most levels split into
    # several chunks, some of one walk each
    spy = _RouteSpy(monkeypatch)
    checks = set()  # the checks that handed a tree over at budget 64

    def answer(budget, cap, system, v, pin, cells=sawtree._CELLS):
        monkeypatch.setattr(sawtree, "_ARRAY_NODES", budget)
        monkeypatch.setattr(sawtree, "_CELLS", cells)
        monkeypatch.setattr(constants, "REGION_NODE_CAP", cap)
        try:
            return repr(tuple(spy.run(system, v, pin)))
        except CapacityError:
            return "CapacityError"
        finally:
            if budget == 64 and spy.handed:
                checks.add(len(spy.estimates))

    rng = random.Random(47)

    def cases():
        for trial in range(240):
            system = _route_system(rng, trial % 3)
            v = rng.randrange(system.n)
            yield system, v, Pinning(_random_pin(rng, system.n, v)
                                     if trial % 2 else {})
        # the path 0-1-2, then a 4- or 5-clique on the root: the pass walks
        # the path first, so the first estimate is low and the second or
        # third check hands the tree over
        for m in (4, 5):
            clique = range(3, 3 + m)
            pairs = [(0, 1), (1, 2), *((0, c) for c in clique),
                     *itertools.combinations(clique, 2)]
            yield to_system((3 + m, [1.0] * (3 + m),
                             [(u, w, 1.0, 2.0) for u, w in pairs])), 0, Pinning()
        # K(2,10): the root's 10 children, and each depth-2 walk's 9, fold
        # into one parent through one scatter
        pairs = [(u, w) for u in range(2) for w in range(2, 12)]
        fan = to_system((12, [rng.uniform(0.05, 2.0) for _ in range(12)],
                         ora.random_ferro_params(rng, pairs)))
        assert len(fan.adjacency[0]) == 10  # the root's children
        yield fan, 0, Pinning()
        yield fan, 2, Pinning({5: 0, 7: 1})

    full = constants.REGION_NODE_CAP
    sizes, answers = [], set()
    for system, v, pin in cases():
        monkeypatch.setattr(constants, "REGION_NODE_CAP", full)
        size = spy.run(system, v, pin).tree_nodes
        sizes.append(size)
        for cap in (full, size - 1, size // 2, 1):
            if cap:
                want = answer(math.inf, cap, system, v, pin)
                assert answer(0, cap, system, v, pin) == want
                assert answer(0, cap, system, v, pin, cells=8) == want
                assert answer(64, cap, system, v, pin) == want
                answers.add(want[:1])
    # answers and raised caps, on trees of 1 to thousands of nodes, and
    # hand-overs at the first check and at a later one
    assert answers == {"(", "C"}
    assert min(sizes) == 1 and max(sizes) > 1000
    assert 1 in checks and checks & {2, 3}


def test_the_pass_keeps_small_and_deep_trees_and_hands_over_wide_ones(
        monkeypatch):
    spy = _RouteSpy(monkeypatch)

    def bipartite(a, b):
        return to_system((a + b, [1.0] * (a + b),
                          [(u, a + w, 1.0, 2.0)
                           for u in range(a) for w in range(b)]))

    # K(3,9) has a 3,628-node tree, under the hand-over threshold of 5,120,
    # and stays in the pass through all three checks
    assert spy.run(bipartite(3, 9), 0).tree_nodes == 3628
    assert (len(spy.estimates), spy.handed) == (3, False)
    # K(5,5) has a 44,586-node one, handed over at the first check, within
    # one walk's children (4 below the root) past 512 nodes
    assert spy.run(bipartite(5, 5), 1).tree_nodes == 44586
    assert (len(spy.estimates), spy.handed) == (1, True)
    assert 512 < spy.estimates[0][0] <= 512 + 4
    # a 3000-cycle's 6,001 nodes lie on 3,000 levels; the budget, and so
    # every check, scales with n/16, so the pass never checks it
    cycle = to_system((3000, [1.0] * 3000,
                       [(i, (i + 1) % 3000, 2.0, 3.0) for i in range(3000)]))
    assert spy.run(cycle, 2).tree_nodes == 6001
    assert (spy.estimates, spy.handed) == ([], False)


def _random_regular(rng, n, d, bipartite):
    """A connected simple d-regular graph by random stub pairing, as the
    benchmark draws its saw queries' graphs; a bipartite one joins 0..n/2-1
    to n/2..n-1, as an RBM's."""
    while True:
        if bipartite:
            right = [w for w in range(n // 2, n) for _ in range(d)]
            rng.shuffle(right)
            pairs = zip([u for u in range(n // 2) for _ in range(d)], right)
        else:
            stubs = [u for u in range(n) for _ in range(d)]
            rng.shuffle(stubs)
            pairs = zip(stubs[::2], stubs[1::2])
        edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        reached = {0}
        for _ in range(n):
            reached |= {a + b - u for a, b in edges for u in (a, b)
                        if u in reached}
        if len(edges) == n * d // 2 and len(reached) == n:
            return sorted(edges)


def test_the_first_estimate_lies_near_the_tree_size(monkeypatch):
    # at the first check, 512 nodes scaled by n/16 past 16 vertices, the
    # nodes over the finished share estimate the tree within [0.75, 1.5] of
    # its size on the benchmark's kinds of graph: 3- and 4-regular, and
    # bipartite regular as an RBM's (the estimate reads the graph alone)
    spy = _RouteSpy(monkeypatch)
    rng = random.Random(53)
    ratios = []
    for d, bipartite, sizes in ((3, False, (10, 12, 14, 16, 18)),
                                (4, False, (10, 12, 14)),
                                (3, True, (10, 12, 14, 16, 18)),
                                (4, True, (10, 12, 14))):
        for n in sizes * 2:
            system = to_system((n, [1.0] * n, [
                (u, w, 1.0, 2.0)
                for u, w in _random_regular(rng, n, d, bipartite)]))
            for v in rng.sample(range(n), 2):
                size = spy.run(system, v).tree_nodes
                if spy.estimates:
                    ratios.append(spy.estimates[0][1] / size)
    assert len(ratios) > 50
    assert 0.75 <= min(ratios) and max(ratios) <= 1.5


def _log_edge_factor(log_x, lb, lg):
    """The log edge factor `_fold` adds to a parent frame of log R = 0."""
    acc = [0.0, log_x]
    _fold(acc, [-1, 0], 1, (lb,), (lg,))
    assert len(acc) == 1
    return acc[0]


def test_fold_terms_are_the_fold_terms_bit_for_bit():
    # one libm call per distinct gap gives every element `_fold`'s own
    # term, also where gaps repeat: x at +-0.0, +-inf, subnormal, on both
    # sides of x > 0, each value three times on a few edges
    rng = random.Random(61)
    xs = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 0.5, -0.5, 1.7,
          -1.7, 700.0, -700.0, 1e4, -1e4,
          *(rng.uniform(-40.0, 40.0) for _ in range(30))] * 3
    rng.shuffle(xs)
    edges = [rng.choice(((0.0, 0.7), (-0.3, 2.0), (800.0, -800.0),
                         (math.log(0.6), math.log(3.0)))) for _ in xs]
    lb, lg = (np.array(e) for e in zip(*edges))
    terms = sawtree._fold_terms(np.array(xs), lb, lg)
    assert [repr(t) for t in terms.tolist()] == [
        repr(_log_edge_factor(x, b, g)) for x, (b, g) in zip(xs, edges)]


def test_log_edge_factor_limits_and_values():
    for lb, lg in ((0.0, 0.7), (-0.3, 2.0), (800.0, -800.0), (-1000.0, 1000.0)):
        # x = inf is a spin-0 leaf (beta), x = 0 a spin-1 leaf (1/gamma)
        assert _log_edge_factor(math.inf, lb, lg) == lb
        assert _log_edge_factor(-math.inf, lb, lg) == -lg
        for log_x in (-1e4, -700.0, -1.0, 0.0, 1.0, 700.0, 1e4):
            assert math.isfinite(_log_edge_factor(log_x, lb, lg))
    for log_x in (-30.0, -2.0, -0.5, 0.0, 0.5, 2.0, 30.0):
        x = math.exp(log_x)
        assert _log_edge_factor(log_x, math.log(0.6), math.log(3.0)) == \
            pytest.approx(math.log((0.6 * x + 1.0) / (x + 3.0)), rel=1e-13,
                          abs=1e-15)


def test_fold_folds_every_finished_frame_into_its_parent():
    # a root with one child that has one child: the two folds nest
    lb, lg = (0.1, -0.2), (0.9, 1.4)
    acc, via = [0.3, -0.4, 1.7], [-1, 1, 0]
    _fold(acc, via, 1, lb, lg)
    assert acc == [0.3 + _log_edge_factor(-0.4 + _log_edge_factor(1.7, 0.1, 0.9),
                                          -0.2, 1.4)]
    assert via == [-1]
    _fold(acc, via, 1, lb, lg)  # nothing deeper than depth 1 is left
    assert len(acc) == 1


# ---------------------------------------------------------------------------
# recursion

def test_recursion_step_values():
    # the oracle's linear step, the reference of `evaluate_ratios`
    step = ora.recursion_step
    assert step(0.7, [], []) == 0.7
    assert step(1.0, [(1.0, 2.0)], [1.0]) == pytest.approx(2 / 3)
    assert step(1.0, [(0.5, 2.0)], [math.inf]) == 0.5  # exact
    assert step(1.0, [(0.5, 2.0)], [0.0]) == 0.5       # 1/gamma
    with pytest.raises(ValueError):
        step(1.0, [(1.0, 2.0)], [1.0, 2.0])


def test_evaluate_ratios_matches_the_linear_reference():
    # 320 stored trees on random graphs, n 2-8, random boundaries: ratio pins
    # from {0, inf, finite}, spin pins through `pin_saw_tree` on every other
    # tree (a ratio pin wins), and fields, in log space for the library.
    # Every evaluated node agrees with the linear recursion of the oracles,
    # and every pinned node comes back as its pin.
    rng = random.Random(47)
    seen = set()
    for trial in range(320):
        n = rng.randint(2, 8)
        system = to_system(ora.random_instance(rng, n, p=rng.uniform(0, 0.6)))
        root = rng.randrange(n)
        boundary = {v for v in range(n) if v != root and rng.random() < 0.3}
        tree = build_saw_tree(system, root, boundary)
        spin_pin = {}
        if trial % 2:
            spin_pin = pin_saw_tree(tree, Pinning(
                {v: rng.randint(0, 1) for v in boundary}))
        ratio_pin = {u: rng.choice([0.0, math.inf, rng.uniform(0.01, 20.0)])
                     for u in range(1, len(tree)) if rng.random() < 0.15}
        fields = {u: rng.uniform(0.01, 3.0) for u in range(len(tree))
                  if rng.random() < 0.2}
        pins = spin_pin | ratio_pin
        got = evaluate_ratios(tree, system, pins,
                              {u: math.log(f) for u, f in fields.items()})
        want = ora.evaluate_ratios(tree, system, pins, fields)
        assert got.keys() == want.keys()
        for u, r in got.items():
            if u in ratio_pin:
                assert r == ratio_pin[u]
                seen.add(("ratio", r if r in (0.0, math.inf) else "finite"))
            elif u in spin_pin:
                assert r == spin_pin[u]
                seen.add(("spin", r))
            else:
                assert r == pytest.approx(want[u], rel=constants.REL_TOL)
                seen.add("field" if u in fields else "lambda")
    assert len(seen) == 7, seen


def test_ratio_rows_match_the_linear_reference_row_by_row():
    # 320 stored trees, n 2-8, random boundaries, 8 to 12 rows of pins each
    # at 0, inf and finite values on any node below the root, internal
    # nodes included, and one set of fields per tree, in log space for the
    # fold.  Every row agrees with the oracle's linear recursion node by
    # node, a pinned node reads its pin, and a node the oracle does not
    # evaluate reads nan.
    rng = random.Random(2626)
    seen = set()
    for trial in range(320):
        n = rng.randint(2, 8)
        system = to_system(ora.random_instance(rng, n, p=rng.uniform(0, 0.6)))
        root = rng.randrange(n)
        boundary = {v for v in range(n) if v != root and rng.random() < 0.3}
        tree = build_saw_tree(system, root, boundary)
        fields = {u: rng.uniform(0.01, 3.0) for u in range(len(tree))
                  if rng.random() < 0.2}
        rows = [{u: rng.choice([0.0, math.inf, rng.uniform(0.01, 20.0)])
                 for u in range(1, len(tree)) if rng.random() < 0.2}
                for _ in range(rng.randint(8, 12))]
        pins = np.full((len(rows), len(tree)), math.nan)
        for i, row in enumerate(rows):
            pins[i, list(row)] = list(row.values())
        got = _ratio_rows(tree, system, pins,
                          {u: math.log(f) for u, f in fields.items()})
        assert got.shape == pins.shape
        for row, r in zip(rows, got.tolist()):
            want = ora.evaluate_ratios(tree, system, row, fields)
            assert {u for u, x in enumerate(r) if not math.isnan(x)} == (
                want.keys())
            for u, x in want.items():
                if u in row:
                    assert r[u] == x
                    kind = x if x in (0.0, math.inf) else "finite"
                    seen.add((kind, "leaf" if tree.is_leaf(u) else "inner"))
                else:
                    assert r[u] == pytest.approx(x, rel=constants.REL_TOL)
                    seen.add("field" if u in fields else "lambda")
    assert len(seen) == 8, seen


def test_root_ratio_single_node_and_result_range():
    solo = TwoSpinSystem.from_params(1, [0.8], [])
    tree = build_saw_tree(solo, 0)
    assert evaluate_ratios(tree, solo)[0] == 0.8
    # ratios far outside the float range still give marginals in [0, 1]
    for lam, want in ((1e300, (1.0, 1e-300)), (1e-300, (1e-300, 1.0))):
        got = saw_marginal(TwoSpinSystem.from_params(1, [lam], []), 0)
        assert got[:2] == pytest.approx(want, rel=1e-13)
    w, theta = ((0.0, 800.0), (800.0, 0.0)), (-900.0, 0.1)
    rbm = rbm_to_two_spin(RbmParams(n0=1, n1=1, interaction=w, theta=theta))
    want = ora.log_conditional(2, ora.rbm_log_weight_fn(w, theta), {}, 0)
    assert saw_marginal(rbm, 0)[:2] == pytest.approx(want, rel=1e-12)


def test_ratio_pin_infinity_equals_spin_zero():
    # pinning every leaf ratio to infinity is the all-0 spin boundary
    tree = build_saw_tree(SQUARE, 0, boundary=[2])
    leaves = [u for u in range(len(tree)) if tree.is_leaf(u)]
    via_ratio = evaluate_ratios(tree, SQUARE, {u: math.inf for u in leaves})[0]
    # the square's boundary tree has only boundary-copy leaves
    assert all(tree.boundary_copy[u] for u in leaves)
    p1 = saw_marginal(SQUARE, 0, Pinning({2: 0})).p1
    assert p1 == pytest.approx(1.0 / (1.0 + via_ratio), rel=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_root_ratio_monotone_in_pinned_ratios(seed):
    # ferromagnetic recursion: raising any pinned leaf ratio never lowers R
    rng = random.Random(seed)
    inst = ora.random_instance(rng, rng.randint(3, 6))
    system = to_system(inst)
    tree = build_saw_tree(system, 0)
    leaves = [u for u in range(len(tree)) if tree.is_leaf(u)]
    base_pin = {u: rng.choice([0.0, 0.2, 1.0, 5.0, math.inf]) for u in leaves}
    base = evaluate_ratios(tree, system, ratio_pin=base_pin)[0]
    target = rng.choice(leaves)
    bumped = dict(base_pin)
    x = bumped[target]
    bumped[target] = 2.0 * x + 0.5 if not math.isinf(x) else x
    assert evaluate_ratios(tree, system, ratio_pin=bumped)[0] >= base - 1e-12


def test_evaluate_ratios_skips_pinned_subtrees():
    tree = build_saw_tree(PATH3, 0)
    ratios = evaluate_ratios(tree, PATH3, ratio_pin={1: 0.0})
    assert 2 not in ratios  # below the pin, never evaluated
    assert ratios[0] == pytest.approx(1.0 * (0.9 * 0 + 1) / (0 + 2.0))


def test_rejects_negative_ratio_pin():
    tree = build_saw_tree(PATH3, 0)
    with pytest.raises(InputError):
        evaluate_ratios(tree, PATH3, ratio_pin={1: -0.5})


def test_underflowing_gamma_is_a_numeric_error():
    # gamma = exp(-1000) underflows to 0, and in linear scale a ratio-0 child
    # divides by it; the log fold adds -log gamma = 1000 and the root ratio
    # exp(999.9...) overflows on the way out
    system = rbm_to_two_spin(RbmParams(
        n0=1, n1=1, interaction=((0, -1000), (-1000, 0)), theta=(0.1, 0.2)))
    tree = build_saw_tree(system, 0, {1})
    with pytest.raises(NumericError, match=r"node 0 \(vertex 0\): ratio = "
                       r"exp\(999\.9\d*\) overflows"):
        evaluate_ratios(tree, system, ratio_pin={1: 0.0})
    with pytest.raises(NumericError, match=r"edge 0 \(0,1\): gamma"):
        ora.evaluate_ratios(tree, system, ratio_pin={1: 0.0})
    # at ratio inf the same edge adds log beta, and p1 follows saw_marginal
    r = evaluate_ratios(tree, system, ratio_pin={1: math.inf})[0]
    assert saw_marginal(system, 0, Pinning({1: 0})).p1 == pytest.approx(
        1.0 / (1.0 + r), rel=1e-15)


# ---------------------------------------------------------------------------
# marginals through the walk tree

def test_saw_marginal_on_tree_graph_is_exact():
    rng = random.Random(21)
    inst = ora.random_instance(rng, 6, p=0.0)  # spanning tree only
    system = to_system(inst)
    for v in range(6):
        p0, p1, _ = saw_marginal(system, v)
        o0, o1 = ora.marginal(*inst, v)
        assert p0 == pytest.approx(o0, abs=1e-12)


def test_saw_marginal_triangle():
    p0, p1, _ = saw_marginal(TRIANGLE, 0)
    assert p0 == pytest.approx(5 / 18, abs=1e-15)
    assert p1 == pytest.approx(13 / 18, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6))
def test_saw_marginal_matches_oracle(seed, n):
    rng = random.Random(seed)
    inst = ora.random_instance(rng, n)
    system = to_system(inst)
    pinned = {v: rng.randint(0, 1) for v in range(n) if rng.random() < 0.35}
    free = [v for v in range(n) if v not in pinned]
    if not free:
        pinned.pop(next(iter(pinned)))
        free = [v for v in range(n) if v not in pinned]
    v = rng.choice(free)
    p0 = saw_marginal(system, v, Pinning(pinned)).p0
    o0, _ = ora.conditional(*inst, pinned, v)
    assert abs(p0 - o0) <= constants.SAW_ORACLE_TOL


def test_saw_marginal_rejects_pinned_root():
    with pytest.raises(InputError):
        saw_marginal(PATH3, 0, Pinning({0: 1}))


# ---------------------------------------------------------------------------
# potential apparatus

PC_DEGENERATE = ParamClass(beta=1.0, gamma=4.0, lambda_bound=1.0)   # t >= lam/e
PC_KINKED = ParamClass(beta=1.0, gamma=1.2, lambda_bound=6.0)       # t < lam/e


def test_derive_potential_degenerate_branch():
    pp = derive_potential(PC_DEGENERATE)
    lam = PC_DEGENERATE.lambda_bound
    assert pp.t >= lam / math.e
    assert pp.c_min == pytest.approx(1.0 / pp.t, rel=1e-9)
    assert pp.c_max == pytest.approx(1.0 / pp.t, rel=1e-9)
    assert 0.0 < pp.alpha < 1.0
    assert 0.0 < pp.x0 < lam
    # phi is the constant 1/t, so Phi is linear
    for x in (0.0, 0.3, 0.9):
        assert Phi(x, pp, lam) == pytest.approx(x / pp.t, abs=1e-10)


def test_derive_potential_kinked_branch():
    pp = derive_potential(PC_KINKED)
    lam = PC_KINKED.lambda_bound
    assert pp.t < lam / math.e
    assert pp.c_max == pytest.approx(1.0 / pp.t, rel=1e-9)
    assert pp.c_min == pytest.approx(math.e / lam, rel=1e-6)


def test_derive_potential_regime_error():
    pc = ParamClass(beta=1.0, gamma=4.0, lambda_bound=16.0)  # = lambda_c
    with pytest.raises(InputError):
        derive_potential(pc)


def test_x0_is_maximal_on_the_rising_branch():
    pp = derive_potential(PC_DEGENERATE)
    lam, beta, gamma = 1.0, 1.0, 4.0
    norm = math.log((lam + gamma) / (lam + 1.0))
    h = lambda x: (beta * gamma - 1.0) * x * math.log(lam / x) / norm
    assert h(pp.x0) == pytest.approx(0.5, abs=1e-9)
    assert h(min(pp.x0 * 1.01, lam / math.e)) > 0.5


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_potential_well_defined_across_regimes(seed):
    rng = random.Random(seed)
    beta = rng.uniform(0.5, 1.0)
    gamma = rng.uniform(1.0 / beta + 0.1, 5.0)
    pc = ParamClass(beta=beta, gamma=gamma, lambda_bound=1.0)
    lam = rng.uniform(0.01, 0.99) * lambda_c(pc)
    pc = ParamClass(beta=beta, gamma=gamma, lambda_bound=lam)
    pp = derive_potential(pc)
    assert 0.0 < pp.alpha < 1.0
    assert pp.t > 0.0
    assert 0.0 < pp.x0 < lam


def test_g_bounded_by_one_minus_alpha_on_grid():
    for pc in (PC_DEGENERATE, PC_KINKED):
        pp = derive_potential(pc)
        lam = pc.lambda_bound
        rng = random.Random(17)
        for _ in range(20):
            # admissible edge: beta_e <= beta, gamma_e >= gamma, product below
            beta_e = rng.uniform(0.3, pc.beta)
            hi = pc.beta * pc.gamma / beta_e
            gamma_e = rng.uniform(pc.gamma, hi)
            xs = np.linspace(lam * 1e-6, lam * (1 - 1e-6), 500)
            worst = max(g_value(float(x), pc, beta_e, gamma_e) for x in xs)
            assert worst <= 1.0 - pp.alpha + constants.INEQUALITY_SLACK


def test_phi_bounds_and_domain():
    for pc in (PC_DEGENERATE, PC_KINKED):
        pp = derive_potential(pc)
        lam = pc.lambda_bound
        xs = np.linspace(0.0, lam * (1 - 1e-9), 1000)
        vals = [phi(float(x), pp, lam) for x in xs]
        assert min(vals) >= pp.c_min - 1e-12
        assert max(vals) <= pp.c_max + 1e-12
        with pytest.raises(InputError):
            phi(lam, pp, lam)
        with pytest.raises(InputError):
            phi(-0.1, pp, lam)


def test_Phi_zero_increasing_and_quadrature():
    from scipy.integrate import quad

    pp = derive_potential(PC_KINKED)
    lam = PC_KINKED.lambda_bound
    assert Phi(0.0, pp, lam) == 0.0
    xs = np.linspace(0.1, lam * 0.999, 25)
    vals = [Phi(float(x), pp, lam) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # cross-check the closed-form primitive against scipy's quadrature
    for x in (0.5, 2.0, 5.5):
        ref, err = quad(lambda s: phi(s, pp, lam), 0.0, x, limit=200)
        assert Phi(x, pp, lam) == pytest.approx(ref, abs=max(1e-9, 3 * err))


def _oracle_classes(seed, count):
    """Seeded classes with lambda log-uniform in [1e-3, 1e300], below
    lambda_c: beta uniform in [0.3, 1], beta gamma - 1 log-uniform in
    [1e-4, 3.2], rejected until lambda < lambda_c."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lam = 10.0 ** rng.uniform(-3.0, 300.0)
        beta = rng.uniform(0.3, 1.0)
        pc = ParamClass(beta, (1.0 + 10.0 ** rng.uniform(-4.0, 0.5)) / beta,
                        lam)
        if lam < lambda_c(pc):
            out.append(pc)
    return out


ORACLE_CLASSES = _oracle_classes(1212, 300)


def assert_roots_match_oracle(c, lam, roots):
    """Both roots of x log(lam/x) = c: 1e-12 relative to the mpmath roots
    away from the peak, where they are well conditioned; everywhere a
    residual of at most 1e-14 c, plus what one ulp of x moves it by (a
    falling root within an ulp of lam has no closer float)."""
    near_peak = c > (1.0 - 1e-6) * lam / math.e
    with mp.workdps(40):
        for x, ref in zip(roots, ora.potential_roots(c, lam)):
            if not near_peak:
                assert abs(x - ref) <= 1e-12 * ref, (c, lam, x, ref)
            y = mp.log(mp.mpf(lam) / x)
            assert abs(x * y - c) <= 1e-14 * c + abs(y - 1) * math.ulp(x), (
                c, lam, x, ref)


def test_potential_roots_match_the_mpmath_oracle():
    kinked = rising = 0
    for pc in ORACLE_CLASSES:
        lam, beta, gamma = pc.lambda_bound, pc.beta, pc.gamma
        pp = derive_potential(pc)
        bound = (0.5 * math.log1p((gamma - 1.0) / (lam + 1.0))
                 / (beta * gamma - 1.0))
        if bound < lam / math.e:
            rising += 1
            x0_root = ora.potential_roots(bound, lam)[0]
            assert abs(pp.x0 - x0_root) <= 1e-12 * x0_root
            assert_roots_match_oracle(bound, lam, _roots(bound, lam))
        if pp.t < lam / math.e:
            kinked += 1
            assert_roots_match_oracle(pp.t, lam, _roots(pp.t, lam))
        assert pp.c_max == 1.0 / pp.t
        assert pp.c_min == min(1.0 / pp.t, math.e / lam)
    assert min(kinked, rising) >= 250


def test_roots_next_to_the_branch_point_and_past_underflow():
    for lam in (1e-3, 1.0, 7.5, 1e40, 1e300):
        for k in range(1, 17):  # c = (1 - 10^-k) lam/e, up to the peak
            c = (1.0 - 10.0 ** -k) * lam / math.e
            assert_roots_match_oracle(c, lam, _roots(c, lam))
    for lam, c in ((1e300, 1e-20), (1e200, 1e-150), (1.7e308, 3e-308)):
        assert c / lam < 2.3e-308  # c/lam leaves the normal range
        assert_roots_match_oracle(c, lam, _roots(c, lam))
    assert _roots(1.0 / math.e, 1.0) == (1.0 / math.e, 1.0 / math.e)


def test_Phi_matches_the_mpmath_quadrature():
    rng = random.Random(1213)
    for pc in ORACLE_CLASSES:
        lam = pc.lambda_bound
        pp = derive_potential(pc)
        x = lam * (rng.random() if rng.random() < 0.5
                   else 10.0 ** -rng.uniform(0.0, 30.0))
        ref = ora.potential_Phi(x, pp.t, lam)
        assert abs(Phi(x, pp, lam) - ref) <= 1e-12 * ref, (pc, x)


def test_potential_far_below_the_linear_bracket():
    # lambda ~ 9.35e43: x0 ~ 1.3e-45 lies below any linear bisection's
    # resolution of (0, lambda/e)
    lam = lambda_c(ParamClass(0.3, 3.5, 1.0)) / 2.0
    pc = ParamClass(0.3, 3.5, lam)
    pp = derive_potential(pc)
    assert pp.x0 == pytest.approx(1.307e-45, rel=1e-3)
    assert pp.alpha == pytest.approx(0.003376, rel=1e-3)
    for x in (pp.x0, lam / 2.0):
        assert Phi(x, pp, lam) == pytest.approx(
            float(ora.potential_Phi(x, pp.t, lam)), rel=1e-12)


def test_x0_below_the_float_range_is_a_numeric_error():
    # lambda 1e308, beta 0.9 and beta gamma = 1 + 1e-4: x0 ~ 3.9e-309 is
    # subnormal, with digits lost
    pc = ParamClass(0.9, (1.0 + 1e-4) / 0.9, 1e308)
    assert lambda_c(pc) == math.inf
    with pytest.raises(NumericError, match="x0"):
        derive_potential(pc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_potential_sandwich(seed):
    # c_min |x0 - x1| <= |Phi(x0) - Phi(x1)| <= c_max |x0 - x1|
    rng = random.Random(seed)
    pc = PC_KINKED if seed % 2 else PC_DEGENERATE
    pp = derive_potential(pc)
    lam = pc.lambda_bound
    a = rng.uniform(lam * 1e-6, lam * (1 - 1e-6))
    b = rng.uniform(lam * 1e-6, lam * (1 - 1e-6))
    gap = abs(Phi(a, pp, lam) - Phi(b, pp, lam))
    width = abs(a - b)
    assert gap >= pp.c_min * width - constants.POTENTIAL_SLACK
    assert gap <= pp.c_max * width + constants.POTENTIAL_SLACK


def sample_admissible_edges(rng, pc, d):
    out = []
    for _ in range(d):
        beta_e = rng.uniform(0.3, pc.beta)
        gamma_e = rng.uniform(pc.gamma, pc.beta * pc.gamma / beta_e)
        out.append((beta_e, gamma_e))
    return out


def test_decay_factor_trivia():
    pp = derive_potential(PC_DEGENERATE)
    assert decay_factor([], 0.5, [], pp, 1.0) == 0.0
    # d=1: the factor scales linearly as lambda_u -> 0
    edge = [(0.9, 4.5)]
    c1 = decay_factor([0.4], 1e-6, edge, pp, 1.0) / 1e-6
    c2 = decay_factor([0.4], 1e-9, edge, pp, 1.0) / 1e-9
    assert c1 == pytest.approx(c2, rel=1e-4)
    with pytest.raises(InputError):
        decay_factor([1.0], 0.5, edge, pp, 1.0)  # boundary x


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_decay_factor_contracts(seed, d):
    rng = random.Random(seed)
    pc = PC_KINKED if seed % 2 else PC_DEGENERATE
    pp = derive_potential(pc)
    lam = pc.lambda_bound
    edges = sample_admissible_edges(rng, pc, d)
    lam_u = rng.uniform(1e-4, lam * (1 - 1e-9))
    x = [rng.uniform(lam * 1e-5, lam * (1 - 1e-5)) for _ in range(d)]
    c = decay_factor(x, lam_u, edges, pp, lam)
    assert c <= 1.0 - pp.alpha + constants.INEQUALITY_SLACK


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5))
def test_decay_partials_match_recursion_gradient(seed, d):
    # closed-form partials vs. the product-form identity and a finite difference
    rng = random.Random(seed)
    pc = PC_DEGENERATE
    pp = derive_potential(pc)
    lam = pc.lambda_bound
    edges = sample_admissible_edges(rng, pc, d)
    lam_u = rng.uniform(0.05, lam * 0.9)
    x = [rng.uniform(0.05 * lam, 0.9 * lam) for _ in range(d)]
    value = ora.recursion_step(lam_u, edges, x)
    i = rng.randrange(d)
    beta_i, gamma_i = edges[i]
    via_value = value * (beta_i * gamma_i - 1.0) / (
        (beta_i * x[i] + 1.0) * (x[i] + gamma_i))
    closed = lam_u * (beta_i * gamma_i - 1.0) / (x[i] + gamma_i) ** 2
    for j, (bj, gj) in enumerate(edges):
        if j != i:
            closed *= (bj * x[j] + 1.0) / (x[j] + gj)
    assert closed == pytest.approx(via_value, rel=1e-12)
    eps = 1e-7
    xp = list(x)
    xp[i] += eps
    fd = (ora.recursion_step(lam_u, edges, xp) - value) / eps
    assert closed == pytest.approx(fd, rel=1e-4)


def test_trivial_term_bound_shape():
    from ferrospin.sawtree import trivial_term_bound

    pp = derive_potential(PC_DEGENERATE)
    pc = PC_DEGENERATE
    c_trl = (pp.c_max / pp.c_min) * (pc.beta * pc.gamma - 1.0) / pc.gamma ** 2
    assert trivial_term_bound(0.7, 1, pp, pc) == pytest.approx(c_trl * 0.7)
    bounds = [trivial_term_bound(0.7, d, pp, pc) for d in range(1, 8)]
    ratio = (pc.beta * pc.lambda_bound + 1.0) / (pc.lambda_bound + pc.gamma)
    assert ratio < 1.0
    for a, b in zip(bounds, bounds[1:]):
        assert b == pytest.approx(a * ratio)
    with pytest.raises(InputError):
        trivial_term_bound(0.7, 0, pp, pc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6))
def test_single_terms_below_trivial_bound(seed, d):
    from ferrospin.sawtree import trivial_term_bound

    rng = random.Random(seed)
    pc = PC_KINKED if seed % 2 else PC_DEGENERATE
    pp = derive_potential(pc)
    lam = pc.lambda_bound
    edges = sample_admissible_edges(rng, pc, d)
    lam_u = rng.uniform(1e-3, lam * (1 - 1e-9))
    x = [rng.uniform(lam * 1e-4, lam * (1 - 1e-4)) for _ in range(d)]
    value = ora.recursion_step(lam_u, edges, x)
    bound = trivial_term_bound(lam_u, d, pp, pc)
    factors = [(b * xi + 1.0) / (xi + g) for (b, g), xi in zip(edges, x)]
    for i, ((b, g), xi) in enumerate(zip(edges, x)):
        partial = lam_u * (b * g - 1.0) / (xi + g) ** 2
        for j, fj in enumerate(factors):
            if j != i:
                partial *= fj
        term = phi(value, pp, lam) * abs(partial) / phi(xi, pp, lam)
        assert term <= bound + constants.INEQUALITY_SLACK


def test_ssm_probe_on_paths():
    # endpoint-to-root ratio discrepancy on paths: strictly decreasing in the
    # path length and log-linear with negative slope
    beta, gamma, lam = 1.0, 4.0, 1.0  # lam < lambda0 = 2
    disc = []
    lengths = list(range(2, 13))
    for ell in lengths:
        n = ell + 1
        edges = [(i, i + 1, beta, gamma) for i in range(ell)]
        system = TwoSpinSystem.from_params(n, [lam] * n, edges)
        r = {}
        for s in (0, 1):
            p0, p1, _ = saw_marginal(system, 0, Pinning({ell: s}))
            r[s] = p0 / p1
        disc.append(abs(r[0] - r[1]))
    assert all(b < a for a, b in zip(disc, disc[1:]))
    slope, intercept = np.polyfit(lengths, np.log(disc), 1)
    assert slope < 0.0
    fitted = slope * np.asarray(lengths) + intercept
    resid = np.log(disc) - fitted
    r2 = 1.0 - float(np.sum(resid ** 2)) / float(
        np.sum((np.log(disc) - np.mean(np.log(disc))) ** 2))
    assert r2 >= 0.9


# ---------------------------------------------------------------------------
# integer arguments and error branches

def test_saw_marginal_refuses_a_fractional_vertex():
    system = to_system(ora.random_instance(random.Random(1), 4))
    with pytest.raises(InputError, match="root vertex must be an integer, got 1.5"):
        saw_marginal(system, 1.5)
    assert saw_marginal(system, np.int64(1)) == saw_marginal(system, 1)


@pytest.mark.parametrize("call, fragment", [
    (lambda s, pp: build_saw_tree(s, 0, boundary=[9]),
     "boundary vertex 9 out of range"),
    (lambda s, pp: g_value(0.0, PC_DEGENERATE, 0.9, 4.5),
     r"g needs x in \(0, lambda\), got 0.0"),
    (lambda s, pp: g_value(1.0, PC_DEGENERATE, 0.9, 4.5),
     r"g needs x in \(0, lambda\), got 1.0"),
    (lambda s, pp: Phi(-0.1, pp, 1.0), r"Phi needs x in \[0, lambda\)"),
    (lambda s, pp: Phi(1.0, pp, 1.0), r"Phi needs x in \[0, lambda\)"),
    (lambda s, pp: decay_factor([0.4, 0.5], 0.5, [(0.9, 4.5)], pp, 1.0),
     "x and edge params disagree in length"),
], ids=["boundary-range", "g-at-zero", "g-at-lambda", "Phi-below",
        "Phi-at-lambda", "decay-length"])
def test_sawtree_error_branches(call, fragment):
    system = to_system(ora.random_instance(random.Random(1), 4))
    with pytest.raises(InputError, match=fragment):
        call(system, derive_potential(PC_DEGENERATE))
