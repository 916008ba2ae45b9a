"""Region growth, boundary goodness, and worst-pinning dominance checks."""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as ora
from ferrospin import constants
from ferrospin.errors import CapacityError, FerrospinError, InputError
from ferrospin.harness import _rng, random_connected_graph
from ferrospin.model import ParamClass, Pinning, TwoSpinSystem, lambda0
from ferrospin.regions import (
    GoodBoundarySpec,
    Region,
    RegionParams,
    adjacency_map,
    assm_report_csv,
    assm_sum,
    boundary_pinning,
    check_one_step_relation,
    construct_region,
    good_boundary_configs,
    influence_a_u,
    is_good_boundary,
    is_good_tree_boundary,
    level_mixture_pinning,
    monotone_potential_slack,
    one_step_ratio_factor,
    ratio_dominance_slack,
    region_json,
    shortest_path_closure_check,
    universal_pinning,
    unsatisfiable_vertices,
    verify_region,
)
from ferrospin.samplers import ChainState, RandomSource, UpdateSchedule, schedule_step
from ferrospin.sawtree import build_saw_tree, evaluate_ratios


def star(leaves):
    adj = {0: tuple(range(1, leaves + 1))}
    for v in range(1, leaves + 1):
        adj[v] = (0,)
    return adj


def path_graph(n):
    return {v: tuple(w for w in (v - 1, v + 1) if 0 <= w < n)
            for v in range(n)}


def uniform_system(adj, beta, gamma, lam):
    n = len(adj)
    edges = sorted({(min(u, w), max(u, w)) for u in adj for w in adj[u]})
    return TwoSpinSystem.from_params(
        n, [lam] * n, [(u, w, beta, gamma) for u, w in edges])


# ---------------------------------------------------------------------------
# parameters and plumbing

def test_region_params():
    p = RegionParams.from_n(200)
    assert p.d1 == math.ceil(4 * math.log(math.log(200)))
    assert p.d2 == math.ceil(math.log(200) ** 3)
    assert 1 <= p.d1 <= p.d2
    assert RegionParams.from_n(3).d1 == 1  # clamped at tiny n
    with pytest.raises(InputError):
        RegionParams(d1=0, d2=5)
    with pytest.raises(InputError):
        RegionParams(d1=6, d2=5)
    with pytest.raises(InputError):
        RegionParams.from_n(1)


def test_region_validation():
    with pytest.raises(InputError):
        Region(center=0, members=frozenset({1}), boundary=frozenset(),
               d1=1, d2=1)
    with pytest.raises(InputError):
        Region(center=0, members=frozenset({0, 1}), boundary=frozenset({1}),
               d1=1, d2=1)


def test_adjacency_map():
    system = TwoSpinSystem.from_params(
        3, [1.0] * 3, [(0, 1, 1.0, 2.0), (1, 2, 1.0, 2.0)])
    assert adjacency_map(system) == {0: (1,), 1: (0, 2), 2: (1,)}
    assert adjacency_map({0: [1], 1: [0]}) == {0: (1,), 1: (0,)}
    with pytest.raises(InputError):
        adjacency_map({0: [1], 1: []})  # asymmetric
    with pytest.raises(InputError):
        adjacency_map({0: [0]})  # self-loop
    with pytest.raises(InputError):
        adjacency_map([0, 1])


# ---------------------------------------------------------------------------
# region growth traces

def test_star_trace_flush():
    region = construct_region(star(5), 0, RegionParams(d1=3, d2=10))
    assert region.members == frozenset(range(6))
    assert region.boundary == frozenset()


def test_star_trace_stop():
    region = construct_region(star(5), 0, RegionParams(d1=3, d2=4))
    assert region.members == frozenset({0})
    assert region.boundary == frozenset(range(1, 6))


def test_path_with_large_d1_takes_whole_component():
    region = construct_region(path_graph(12), 3, RegionParams(d1=40, d2=40))
    assert region.members == frozenset(range(12))
    assert region.boundary == frozenset()


def test_triangle_region():
    tri = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    region = construct_region(tri, 0, RegionParams(d1=1, d2=5))
    assert region.members == frozenset({0, 1, 2})


def test_isolated_center():
    region = construct_region({0: (), 1: (2,), 2: (1,)}, 0,
                              RegionParams(d1=1, d2=1))
    assert region.members == frozenset({0})
    assert region.boundary == frozenset()


def test_region_node_cap():
    with pytest.raises(CapacityError):
        complete = {v: tuple(w for w in range(9) if w != v) for v in range(9)}
        construct_region(complete, 0, RegionParams(d1=30, d2=30), node_cap=200)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 40), st.integers(1, 4),
       st.integers(0, 26))
def test_size_bound_and_verification(seed, n, d1, d2_extra):
    rng = random.Random(seed)
    _, _, edges = ora.random_instance(rng, n, p=min(1.0, 3.0 / n))
    adj = {v: tuple(sorted(w for w in range(n)
                           if (min(v, w), max(v, w)) in
                           {(e[0], e[1]) for e in edges}))
           for v in range(n)}
    params = RegionParams(d1=d1, d2=d1 + d2_extra)
    region = construct_region(adj, rng.randrange(n), params)
    assert len(region.members) <= math.exp(params.d1) * params.d2
    report = verify_region(adj, region, params)
    assert report.ok and report.size_ok and report.boundary_ok
    assert bool(report)
    assert report.witness is None


def test_verify_star_traces():
    params = RegionParams(d1=3, d2=10)
    region = construct_region(star(5), 0, params)
    assert bool(verify_region(star(5), region, params))
    params2 = RegionParams(d1=3, d2=4)
    region2 = construct_region(star(5), 0, params2)
    report2 = verify_region(star(5), region2, params2)
    assert bool(report2) and report2.leaves_checked == 5


def test_verify_corrupted_region_yields_witness():
    params = RegionParams(d1=3, d2=10)
    corrupted = Region(center=0, members=frozenset(range(5)),  # leaf 5 dropped
                       boundary=frozenset({5}), d1=3, d2=10)
    report = verify_region(star(5), corrupted, params)
    assert not report.ok
    assert report.witness == (0, 5)
    assert not bool(report)


def test_verify_detects_boundary_mismatch():
    params = RegionParams(d1=3, d2=10)
    bad = Region(center=0, members=frozenset({0}), boundary=frozenset({1}),
                 d1=3, d2=10)
    report = verify_region(star(5), bad, params)
    assert not report.boundary_ok and not bool(report)


def test_verify_partial_on_caps():
    # half of K8: the walk tree over the members has 16 internal nodes
    complete = {v: tuple(w for w in range(8) if w != v) for v in range(8)}
    params = RegionParams(d1=1, d2=3)
    region = Region(center=0, members=frozenset({0, 1, 2, 3}),
                    boundary=frozenset({4, 5, 6, 7}), d1=1, d2=3)
    report = verify_region(complete, region, params, node_cap=10)
    assert report.partial and report.nodes_visited == 11
    # a 21-deep member chain against a depth cap of 3
    deep = path_graph(40)
    r2 = Region(center=0, members=frozenset(range(21)),
                boundary=frozenset({21}), d1=1, d2=2)
    rep2 = verify_region(deep, r2, RegionParams(d1=1, d2=2), depth_cap=3)
    assert rep2.partial and rep2.leaves_checked == 0 and rep2.ok


def oracle_adjacency(inst):
    n, _, edges = inst
    adj = {v: [] for v in range(n)}
    for (a, b, _, _) in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def test_construct_region_against_walk_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 11)
        adj = oracle_adjacency(ora.random_instance(rng, n))
        params = RegionParams(d1=rng.randint(1, 4), d2=rng.randint(4, 9))
        center = rng.randrange(n)
        region = construct_region(adj, center, params)
        assert region.members == ora.grown_region(adj, center, params.d1,
                                                  params.d2)


def test_verify_region_against_tree_oracle():
    # independent route: a plain recursive walk enumeration, rechecked per
    # boundary walk; grown regions and random member sets
    rng = random.Random(5)
    failures = 0
    for i in range(60):
        n = rng.randint(3, 11)
        adj = oracle_adjacency(ora.random_instance(rng, n))
        params = RegionParams(d1=rng.randint(1, 3), d2=rng.randint(3, 8))
        center = rng.randrange(n)
        if i % 2:
            members = frozenset({center} | {v for v in range(n)
                                            if rng.random() < 0.6})
            region = Region(center=center, members=members,
                            boundary=frozenset(w for u in members
                                               for w in adj[u]
                                               if w not in members),
                            d1=params.d1, d2=params.d2)
        else:
            region = construct_region(adj, center, params)
        report = verify_region(adj, region, params)
        walks = ora.region_boundary_walks(adj, center, region.members,
                                          params.d1, params.d2)
        assert report.ok == all(walks.values())
        assert report.boundary_ok and not report.partial
        if report.ok:
            assert report.leaves_checked == len(walks)
            assert report.witness is None
        else:
            failures += 1
            assert walks[report.witness] is False
            assert report.leaves_checked <= len(walks)
        if i % 2 == 0:
            assert report.ok  # grown regions must verify
    assert failures > 0


def test_verify_region_against_recursive_reference():
    # every RegionVerification field, against a plain recursion of the
    # verification walk: grown and arbitrary regions, verification d1/d2 at
    # or below the growth ones, small node and depth caps
    # a failing leaf at the depth cap: the walk's own vertices that precede
    # it in adjacency order do not make the pass partial
    path = {0: [1], 1: [0, 2], 2: [1]}
    short = Region(center=0, members=frozenset({0, 1}),
                   boundary=frozenset({2}), d1=2, d2=3)
    report = verify_region(path, short, RegionParams(d1=2, d2=3), depth_cap=1)
    assert dataclasses.astuple(report) == ora.region_verification(
        path, 0, short.members, short.boundary, 2, 3, 1, 10)
    assert report.witness == (0, 1, 2) and not report.partial
    rng = random.Random(17)
    witnesses = partials = mismatches = 0
    for i in range(2000):
        n = rng.randint(2, 40)
        adj = {v: [] for v in range(n)}
        for u, v in ora.random_connected_graph(rng, n, rng.uniform(1, 4) / n):
            adj[u].append(v)
            adj[v].append(u)
        grow = RegionParams(d1=rng.randint(1, 4), d2=rng.randint(4, 16))
        center = rng.randrange(n)
        if i % 2:
            region = construct_region(adj, center, grow)
        else:
            members = frozenset({center} | {v for v in range(n)
                                            if rng.random() < 0.5})
            boundary = {w for u in members for w in adj[u] if w not in members}
            if boundary and i % 10 == 0:
                boundary.pop()
            region = Region(center=center, members=members,
                            boundary=frozenset(boundary), d1=grow.d1,
                            d2=grow.d2)
        params = grow
        if rng.random() < 0.5:
            d1 = rng.randint(1, grow.d1)
            params = RegionParams(d1=d1, d2=rng.randint(d1, grow.d2))
        depth_cap = rng.choice((constants.SAW_DEPTH_CAP, rng.randint(0, 6)))
        node_cap = rng.choice((2000, rng.randint(1, 300)))
        report = verify_region(adj, region, params, depth_cap=depth_cap,
                               node_cap=node_cap)
        assert dataclasses.astuple(report) == ora.region_verification(
            adj, center, region.members, region.boundary, params.d1,
            params.d2, depth_cap, node_cap)
        witnesses += report.witness is not None
        partials += report.partial
        mismatches += not report.boundary_ok
    assert witnesses > 100 and partials > 100 and mismatches > 10


def test_capped_verification_keeps_its_walk_order():
    # a capped verification reports how far its walk got, so the walk order
    # is part of the result
    n = 100
    adj = {v: [] for v in range(n)}
    for u, v in random_connected_graph(_rng(5), n, (math.log(n) + 1.0) / n):
        adj[u].append(v)
        adj[v].append(u)
    params = RegionParams.from_n(n)
    region = construct_region(adj, 14, params)
    report = verify_region(adj, region, params, node_cap=5000)
    assert report.partial and report.ok
    assert report.nodes_visited == 5001
    assert report.leaves_checked == 15425


def test_verify_region_rejects_a_region_outside_the_graph():
    params = RegionParams(d1=3, d2=10)
    region = Region(center=9, members=frozenset({9}), boundary=frozenset(),
                    d1=3, d2=10)
    with pytest.raises(InputError):
        verify_region(star(5), region, params)


# ---------------------------------------------------------------------------
# good boundaries

def star_spec(leaves=9, d2=9, n=21):
    adj = star(leaves)
    region = Region(center=0, members=frozenset({0}),
                    boundary=frozenset(range(1, leaves + 1)), d1=1, d2=d2)
    return adj, region, GoodBoundarySpec.build(adj, region, n)


def test_good_boundary_threshold_arithmetic():
    # 9 boundary neighbors, d2 = 9, ln 21 ~ 3.04: needs >= 4.96, so 5 ones
    _, region, spec = star_spec()
    five = Pinning({v: 1 if v <= 5 else 0 for v in range(1, 10)})
    four = Pinning({v: 1 if v <= 4 else 0 for v in range(1, 10)})
    assert is_good_boundary(spec, five)
    assert not is_good_boundary(spec, four)
    assert is_good_boundary(spec, Pinning({v: 1 for v in range(1, 10)}))


def test_good_boundary_vacuous_when_degrees_small():
    _, region, spec = star_spec(leaves=3, d2=12)  # 3 <= 12/3
    zeros = Pinning({v: 0 for v in range(1, 4)})
    assert is_good_boundary(spec, zeros)
    assert unsatisfiable_vertices(spec) == []


def test_good_boundary_domain_mismatch():
    _, region, spec = star_spec()
    with pytest.raises(InputError):
        is_good_boundary(spec, Pinning({1: 1}))


def test_unsatisfiable_thresholds_reported():
    adj, region, _ = star_spec(leaves=4, d2=9)
    spec = GoodBoundarySpec.build(adj, region, n=2)  # ln 2: 4/0.69 + 2 > 4
    assert unsatisfiable_vertices(spec) == [0]
    assert not is_good_boundary(spec, Pinning({v: 1 for v in range(1, 5)}))
    assert list(good_boundary_configs(spec)) == []


def test_good_boundary_configs_counts():
    _, region, spec = star_spec()
    got = sum(1 for _ in good_boundary_configs(spec))
    want = sum(math.comb(9, k) for k in range(5, 10))
    assert got == want


def test_good_boundary_configs_capacity():
    adj, region, spec = star_spec(leaves=21, d2=100)
    with pytest.raises(CapacityError):
        list(good_boundary_configs(spec))


def test_boundary_pinning_helper():
    _, region, _ = star_spec(leaves=3, d2=12)
    pin = boundary_pinning(region, (0, 1, 0, 1))
    assert dict(pin.items()) == {1: 1, 2: 0, 3: 1}


def test_tree_boundary_goodness():
    system = uniform_system(star(9), 1.0, 4.0, 1.0)
    tree = build_saw_tree(system, 0, frozenset(range(1, 10)))
    five = {u: 1 if tree.preimage[u] <= 5 else 0 for u in range(1, 10)}
    four = {u: 1 if tree.preimage[u] <= 4 else 0 for u in range(1, 10)}
    # tree rule uses +1: needs >= 9/ln(21) + 1 = 3.96, so 4 ones suffice
    assert is_good_tree_boundary(tree, five, d2=9, n=21)
    assert is_good_tree_boundary(tree, four, d2=9, n=21)
    three = {u: 1 if tree.preimage[u] <= 3 else 0 for u in range(1, 10)}
    assert not is_good_tree_boundary(tree, three, d2=9, n=21)
    with pytest.raises(InputError):
        is_good_tree_boundary(tree, {1: 1}, d2=9, n=21)


# ---------------------------------------------------------------------------
# influence

def test_influence_single_edge_example():
    system = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    region = Region(center=0, members=frozenset({0}),
                    boundary=frozenset({1}), d1=1, d2=3)
    spec = GoodBoundarySpec.build(system, region, n=2)
    assert influence_a_u(system, region, 1, spec) == pytest.approx(1 / 6)


def test_influence_disconnected_vertex_is_zero():
    system = TwoSpinSystem.from_params(3, [1.0, 0.7, 1.3],
                                       [(0, 1, 1.0, 2.0)])
    region = Region(center=0, members=frozenset({0}),
                    boundary=frozenset({1, 2}), d1=1, d2=9)
    spec = GoodBoundarySpec.build(system, region, n=3)
    assert influence_a_u(system, region, 2, spec) == 0.0
    with pytest.raises(InputError):
        influence_a_u(system, region, 0, spec)


def test_influence_matches_whole_graph_oracle():
    # screening: conditioning on the boundary makes the rest of the graph
    # irrelevant, so the induced computation equals the full enumeration
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(5, 9)
        inst = ora.random_instance(rng, n, p=0.35)
        nn, lam, edges = inst
        system = TwoSpinSystem.from_params(nn, lam, edges)
        adj = adjacency_map(system)
        params = RegionParams(d1=1, d2=4)
        region = construct_region(adj, rng.randrange(n), params)
        if not region.boundary or len(region.boundary) > 8:
            continue
        spec = GoodBoundarySpec.build(adj, region, n)
        bset = sorted(region.boundary)
        for u in bset:
            got = influence_a_u(system, region, u, spec)
            want = 0.0
            for mask in range(2 ** len(bset)):
                sigma = Pinning({v: (mask >> i) & 1
                                 for i, v in enumerate(bset)})
                if not is_good_boundary(spec, sigma):
                    continue
                ps = []
                for c in (0, 1):
                    pin = {v: (c if v == u else sigma[v]) for v in bset}
                    _, p1 = ora.conditional(nn, lam, edges, pin, region.center)
                    ps.append(p1)
                want = max(want, abs(ps[0] - ps[1]))
            assert got == pytest.approx(want, abs=1e-12)


def test_assm_sum_isolated_region():
    system = TwoSpinSystem.from_params(1, [1.0], [])
    region = Region(center=0, members=frozenset({0}), boundary=frozenset(),
                    d1=1, d2=1)
    spec = GoodBoundarySpec.build(system, region, n=2)
    assert assm_sum(system, region, spec) == 0.0


def test_assm_sum_decreases_with_gamma():
    sums = []
    for gamma in (1.5, 2.5, 4.0, 8.0):
        system = uniform_system(star(9), 1.0, gamma, 0.3)
        adj = adjacency_map(system)
        region = Region(center=0, members=frozenset({0}),
                        boundary=frozenset(range(1, 10)), d1=1, d2=9)
        spec = GoodBoundarySpec.build(adj, region, 21)
        sums.append(assm_sum(system, region, spec))
    assert all(s > 0 for s in sums)
    assert all(a > b for a, b in zip(sums, sums[1:]))


def test_assm_report_csv():
    system = TwoSpinSystem.from_params(2, [1.0, 1.0], [(0, 1, 1.0, 2.0)])
    region = Region(center=0, members=frozenset({0}),
                    boundary=frozenset({1}), d1=1, d2=3)
    spec = GoodBoundarySpec.build(system, region, n=2)
    report = assm_report_csv(system, region, spec)
    lines = report.strip().split("\n")
    assert lines[0] == "center,boundary_vertex,a_u"
    assert len(lines) == 3
    assert lines[2].startswith("0,sum,")
    assert float(lines[2].split(",")[2]) == pytest.approx(1 / 6)
    assert report == assm_report_csv(system, region, spec)


def test_region_json_round_trip():
    region = Region(center=2, members=frozenset({2, 4, 3}),
                    boundary=frozenset({7, 1}), d1=2, d2=5)
    data = json.loads(region_json(region))
    assert data == {"center": 2, "members": [2, 3, 4], "boundary": [1, 7],
                    "d1": 2, "d2": 5}


# ---------------------------------------------------------------------------
# shortest-path closure

def test_shortest_path_trivia():
    _, region, spec = star_spec()
    sigma = Pinning({v: 1 if v <= 5 else 0 for v in range(1, 10)})
    assert shortest_path_closure_check(spec, sigma, sigma) == [sigma]
    tau = Pinning({v: 1 if (v <= 4 or v == 6) else 0 for v in range(1, 10)})
    path = shortest_path_closure_check(spec, sigma, tau)
    assert len(path) == 3  # raise 6, then lower 5
    assert path[0] == sigma and path[-1] == tau


def test_shortest_path_random_good_pairs():
    _, region, spec = star_spec()
    configs = list(good_boundary_configs(spec))
    rng = random.Random(7)
    for _ in range(40):
        sigma, tau = rng.sample(configs, 2)
        path = shortest_path_closure_check(spec, sigma, tau)
        dist = sum(1 for v in region.boundary if sigma[v] != tau[v])
        assert len(path) == dist + 1
        for a, b in zip(path, path[1:]):
            assert sum(1 for v in region.boundary if a[v] != b[v]) == 1
        assert all(is_good_boundary(spec, eta) for eta in path)


def test_shortest_path_rejects_bad_endpoint():
    _, region, spec = star_spec()
    good = Pinning({v: 1 for v in range(1, 10)})
    bad = Pinning({v: 0 for v in range(1, 10)})
    with pytest.raises(InputError):
        shortest_path_closure_check(spec, good, bad)


# ---------------------------------------------------------------------------
# universal pinning and dominance

def two_layer_tree_system(lam=1.7, gamma=4.0, jitter=None):
    """Root 0 with children 1, 2; vertex 1 has 4 leaf children, 2 has 5."""
    adj = {0: (1, 2), 1: (0, 3, 4, 5, 6), 2: (0, 7, 8, 9, 10, 11)}
    for v in range(3, 12):
        adj[v] = (1,) if v <= 6 else (2,)
    edges = sorted({(min(u, w), max(u, w)) for u in adj for w in adj[u]})
    rng = random.Random(jitter) if jitter is not None else None
    eparams = []
    for u, w in edges:
        g = gamma if rng is None else rng.uniform(1.5, gamma)
        eparams.append((u, w, 1.0, g))
    system = TwoSpinSystem.from_params(12, [lam] * 12, eparams)
    return system, frozenset(range(3, 12))


def test_universal_pinning_small_degree_branch():
    system = uniform_system(path_graph(5), 1.0, 4.0, 1.0)
    tree = build_saw_tree(system, 0, frozenset({4}))
    sigma = universal_pinning(tree, system, RegionParams(d1=1, d2=9), n=21)
    lam_leaves = [u for u in range(len(tree))
                  if tree.boundary_copy[u] and tree.is_leaf(u)]
    assert sigma == {u: math.inf for u in lam_leaves}


def test_universal_pinning_counting_branch():
    system, boundary = two_layer_tree_system(jitter=3)
    tree = build_saw_tree(system, 0, boundary)
    sigma = universal_pinning(tree, system, RegionParams(d1=1, d2=9), n=21)
    # ln 21 ~ 3.04: node 1 has 4 boundary children -> floor(4/3.04) = 1 zero;
    # node 2 has 5 -> floor(5/3.04) = 1 zero
    for parent_pre, want_zero in ((1, 1), (2, 1)):
        node = next(u for u in range(len(tree))
                    if tree.preimage[u] == parent_pre)
        kids = tree.children[node]
        zeros = [c for c in kids if sigma[c] == 0.0]
        assert len(zeros) == want_zero
        # the zeroed child carries the weakest edge coupling
        def strength(c):
            e = tree.edge_to_parent[c]
            return system.beta(e) * system.gamma(e)
        assert strength(zeros[0]) == min(strength(c) for c in kids)


def good_tree_spin_configs(tree, d2, n):
    lam_leaves = [u for u in range(len(tree))
                  if tree.boundary_copy[u] and tree.is_leaf(u)]
    for mask in range(2 ** len(lam_leaves)):
        spins = {u: (mask >> i) & 1 for i, u in enumerate(lam_leaves)}
        if is_good_tree_boundary(tree, spins, d2=d2, n=n):
            yield spins


def to_ratio(spins):
    return {u: (math.inf if s == 0 else 0.0) for u, s in spins.items()}


def test_universal_pinning_maximizes_root_ratio():
    system, boundary = two_layer_tree_system(jitter=11)
    tree = build_saw_tree(system, 0, boundary)
    params = RegionParams(d1=1, d2=9)
    sigma_star = universal_pinning(tree, system, params, n=21)
    r_star = evaluate_ratios(tree, system, ratio_pin=sigma_star)[0]
    best = max(evaluate_ratios(tree, system, ratio_pin=to_ratio(s))[0]
               for s in good_tree_spin_configs(tree, d2=9, n=21))
    assert best <= r_star + 1e-10


def test_ratio_dominance_exhaustive():
    system, boundary = two_layer_tree_system(jitter=23)
    tree = build_saw_tree(system, 0, boundary)
    params = RegionParams(d1=1, d2=9)
    lam_leaves = [u for u in range(len(tree))
                  if tree.boundary_copy[u] and tree.is_leaf(u)]
    rng = random.Random(0)
    configs = list(good_tree_spin_configs(tree, d2=9, n=21))
    sampled = rng.sample(configs, 60)
    worst = math.inf
    for spins in sampled:
        ratio = to_ratio(spins)
        for w in lam_leaves:
            for k in (1, tree.depth[w]):
                for c in (0.0, math.inf):
                    worst = min(worst, ratio_dominance_slack(
                        tree, system, ratio, k, w, c, params, n=21))
    assert worst >= -1e-10


def test_monotone_potential_trivia_and_regime():
    # single boundary leaf: the mixture equals the original pinning
    system = uniform_system(path_graph(4), 1.0, 4.0, 1.0)
    tree = build_saw_tree(system, 0, frozenset({3}))
    pc = ParamClass(1.0, 4.0, 1.0)
    w = next(u for u in range(len(tree))
             if tree.boundary_copy[u] and tree.is_leaf(u))
    params = RegionParams(d1=1, d2=9)
    assert monotone_potential_slack(tree, system, pc, w, {}, params,
                                    n=21) == 0.0
    assert (monotone_potential_slack(tree, system, pc, w, {}, params, n=21)
            >= -constants.POTENTIAL_SLACK)
    hot = ParamClass(1.0, 4.0, 2.5)  # lambda above sqrt(gamma/beta) = 2
    with pytest.raises(InputError):
        monotone_potential_slack(tree, system, hot, w, {}, params, n=21)
    with pytest.raises(InputError):
        monotone_potential_slack(tree, system, pc, 0, {}, params, n=21)


def test_monotone_potential_exhaustive_depth_two():
    # lambda = 0.9 * lambda0 regime, exhaustive over good pinnings and leaves
    lam = 0.9 * lambda0(ParamClass(1.0, 4.0, 1.0))
    system, boundary = two_layer_tree_system(lam=lam, jitter=41)
    pc = ParamClass(1.0, 4.0, lam * 1.0001)
    tree = build_saw_tree(system, 0, boundary)
    params = RegionParams(d1=1, d2=9)
    lam_leaves = [u for u in range(len(tree))
                  if tree.boundary_copy[u] and tree.is_leaf(u)]
    rng = random.Random(1)
    configs = rng.sample(list(good_tree_spin_configs(tree, d2=9, n=21)), 50)
    worst = math.inf
    for spins in configs:
        ratio = to_ratio(spins)
        for w in lam_leaves:
            rho_w = {u: r for u, r in ratio.items() if u != w}
            worst = min(worst, monotone_potential_slack(
                tree, system, pc, w, rho_w, params, n=21))
    assert worst >= -1e-10


# ---------------------------------------------------------------------------
# scalar one-step comparison

def test_one_step_relation_examples():
    pc = ParamClass(1.0, 4.0, 1.8)
    assert check_one_step_relation(pc, 1.0, 0.5, 1.0, 0.5) == 0.0
    assert check_one_step_relation(pc, 1.5, 0.5, 0.9, 0.4) >= 0.0
    with pytest.raises(InputError):
        check_one_step_relation(pc, 0.5, 1.0, 0.5, 0.4)  # x < y
    with pytest.raises(InputError):
        check_one_step_relation(pc, 1.0, 0.5, 1.2, 0.5)  # x < x'
    with pytest.raises(InputError):
        check_one_step_relation(pc, 1.0, 0.5, 0.9, 0.4)  # x/y < x'/y'
    hot = ParamClass(1.0, 4.0, 2.5)
    with pytest.raises(InputError):
        check_one_step_relation(hot, 1.0, 0.5, 0.9, 0.4)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_one_step_relation_random_tuples(seed):
    rng = random.Random(seed)
    beta = rng.uniform(0.5, 1.0)
    gamma = rng.uniform(1.0 / beta + 0.1, 6.0)
    lam = 0.95 * math.sqrt(gamma / beta)
    pc = ParamClass(beta, gamma, lam)
    x = lam * rng.uniform(0.05, 1.0)
    y = x * rng.uniform(0.05, 0.95)
    xp = x * rng.uniform(0.05, 0.999)
    # y' in [x'y/x, y): keeps y' <= y, y' < x', and x/y >= x'/y'
    lo, hi = xp * (y / x) * 1.0000001, min(y, 0.999999 * xp)
    yp = lo + (hi - lo) * rng.random()
    assert check_one_step_relation(pc, x, y, xp, yp) >= -1e-12


def test_one_step_factor_value():
    assert one_step_ratio_factor(1.0, 2.0, 1.0, 1.0) == pytest.approx(1.0)
    # (x=2,y=1): (3)(3)/((4)(2)) = 9/8
    assert one_step_ratio_factor(1.0, 2.0, 2.0, 1.0) == pytest.approx(9 / 8)


# ---------------------------------------------------------------------------
# burn-in: boundary configurations become good quickly

def test_boundary_goodness_after_burn_in():
    system = uniform_system(star(9), 1.0, 8.0, 0.3)
    adj = adjacency_map(system)
    region = Region(center=0, members=frozenset({0}),
                    boundary=frozenset(range(1, 10)), d1=1, d2=9)
    spec = GoodBoundarySpec.build(adj, region, 21)
    sched = UpdateSchedule(kind="single-site-glauber")
    steps = 10 * 10 * math.ceil(math.log(10))  # c n log n warm-up, c = 10
    good = 0
    runs = 300
    for seed in range(runs):
        start = tuple(RandomSource(seed ^ 0x5A5A).uniforms(10) < 0.5)
        state = ChainState(tuple(int(b) for b in start))
        rng = RandomSource(seed)
        for _ in range(steps):
            state = schedule_step(system, sched, state, rng)
        if is_good_boundary(spec, boundary_pinning(region, state.config)):
            good += 1
    assert good / runs >= 0.99
