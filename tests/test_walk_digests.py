"""Byte pins of the two walk passes: walk-tree marginals and regions.

Each digest is the sha256 of the reprs of `saw_marginal`, `construct_region`
and `verify_region` results on seeded inputs, recorded before the walk
callbacks moved to per-vertex tables.  A faster walk must leave every float
bit, node count, walk count and witness alone, and raise CapacityError on
exactly the same inputs.

`python3 tests/test_walk_digests.py` prints the current digests;
`python3 tests/test_walk_digests.py --write` re-pins them in this file, so
`git diff` shows which pins moved.
"""

import ast
import contextlib
import dataclasses
import hashlib
import math
import os
import random
import re
import sys

import pytest

if __name__ == "__main__":  # run from a checkout without installing
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))

import _oracles as ora  # noqa: E402
from ferrospin import constants  # noqa: E402
from ferrospin.errors import CapacityError  # noqa: E402
from ferrospin.model import (  # noqa: E402
    Pinning, RbmParams, TwoSpinSystem, rbm_to_two_spin)
from ferrospin.regions import (  # noqa: E402
    Region, RegionParams, construct_region, verify_region)
from ferrospin.sawtree import saw_marginal  # noqa: E402


def _regular(rng, n, d):
    """Edge list of a simple d-regular graph on n vertices (pairing model)."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == n * d // 2 and all(a != b for a, b in pairs):
            return sorted(pairs)


def _pin(rng, n, v):
    return Pinning({u: rng.randint(0, 1) for u in range(n)
                    if u != v and rng.random() < 0.3})


@contextlib.contextmanager
def _node_cap(cap):
    saved = constants.REGION_NODE_CAP
    constants.REGION_NODE_CAP = cap
    try:
        yield
    finally:
        constants.REGION_NODE_CAP = saved


def _marginal(system, v, pin):
    try:
        return repr(tuple(saw_marginal(system, v, pin)))
    except CapacityError:
        return "CapacityError"


def _marginals(rng, system):
    """Two roots, each without and with a random pinning."""
    out = []
    for v in rng.sample(range(system.n), min(2, system.n)):
        out.append(_marginal(system, v, Pinning()))
        out.append(_marginal(system, v, _pin(rng, system.n, v)))
    return out


def _gnp_text():
    rng = random.Random(9001)
    out = []
    for n in range(4, 15):
        pairs = ora.random_connected_graph(rng, n, p=2.0 / n)
        lam = [rng.uniform(0.05, 2.0) for _ in range(n)]
        system = TwoSpinSystem.from_params(
            n, lam, ora.random_ferro_params(rng, pairs))
        out += _marginals(rng, system)
    return "\n".join(out)


def _regular_text():
    rng = random.Random(9002)
    out = []
    for n, d in [(n, 3) for n in range(4, 15, 2)] + [(n, 4) for n in range(5, 11)]:
        pairs = _regular(rng, n, d)
        lam = [rng.uniform(0.05, 2.0) for _ in range(n)]
        system = TwoSpinSystem.from_params(
            n, lam, ora.random_ferro_params(rng, pairs))
        out += _marginals(rng, system)
    return "\n".join(out)


def _rbm_text():
    rng = random.Random(9003)
    out = []
    for _ in range(30):
        n0, n1 = rng.randint(1, 4), rng.randint(1, 4)
        n = n0 + n1
        w = [[0.0] * n for _ in range(n)]
        for u in range(n0):
            for v in range(n0, n):
                if rng.random() < 0.7:
                    w[u][v] = w[v][u] = rng.choice(
                        [1000.0, -1000.0, rng.uniform(-1000.0, 1000.0),
                         rng.uniform(-1.0, 1.0)])
        theta = [rng.choice([1000.0, -1000.0, rng.uniform(-1000.0, 1000.0),
                             rng.uniform(-1.0, 1.0)]) for _ in range(n)]
        out += _marginals(rng, rbm_to_two_spin(RbmParams(
            n0=n0, n1=n1, interaction=tuple(map(tuple, w)),
            theta=tuple(theta))))
    return "\n".join(out)


def _extreme_text():
    rng = random.Random(9004)

    def draw():
        return rng.choice([1e300, 1e-300, 10.0 ** rng.uniform(-300, 300)])

    out = []
    for _ in range(30):
        n = rng.randint(1, 8)
        pairs = ora.random_connected_graph(rng, n, p=0.4)
        system = TwoSpinSystem.from_params(
            n, [draw() for _ in range(n)],
            [(u, v, draw(), draw()) for u, v in pairs])
        out += _marginals(rng, system)
    return "\n".join(out)


def _capped_text():
    """Caps at, just below and well below each tree's node count."""
    rng = random.Random(9005)
    out = []
    for _ in range(12):
        n = rng.randint(2, 9)
        system = TwoSpinSystem.from_params(*ora.random_instance(rng, n))
        v = rng.randrange(n)
        pin = _pin(rng, n, v)
        size = saw_marginal(system, v, pin).tree_nodes
        for cap in (size, size - 1, max(1, size // 3), 1):
            with _node_cap(cap):
                out.append(f"{cap} {_marginal(system, v, pin)}")
    return "\n".join(out)


def _sparse_graph(rng, n):
    """G(n, (ln n + 1)/n) made connected, as an adjacency mapping."""
    adj = {v: [] for v in range(n)}
    for u, v in ora.random_connected_graph(rng, n, (math.log(n) + 1.0) / n):
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _verification(graph, region, params, **caps):
    return repr(dataclasses.astuple(verify_region(graph, region, params, **caps)))


def _region_text():
    """Grown regions and their verifications; the graph goes in as a
    mapping and as a system."""
    rng = random.Random(9006)
    out = []
    for n in (20, 30, 40, 60, 80, 100):
        adj = _sparse_graph(rng, n)
        pairs = sorted({(min(u, w), max(u, w)) for u in adj for w in adj[u]})
        system = TwoSpinSystem.from_params(
            n, [1.0] * n, [(u, w, 0.8, 2.0) for u, w in pairs])
        params = RegionParams.from_n(n)
        for center in rng.sample(range(n), 3):
            for graph in (adj, system):
                try:
                    region = construct_region(graph, center, params,
                                              node_cap=20000)
                except CapacityError:
                    out.append("CapacityError")
                    continue
                out.append(repr(region))
                out.append(_verification(graph, region, params,
                                         node_cap=20000))
    return "\n".join(out)


def _ball(adj, center, radius):
    members = frontier = {center}
    for _ in range(radius):
        frontier = {w for u in frontier for w in adj[u]} - members
        members = members | frontier
    boundary = {w for u in members for w in adj[u] if w not in members}
    return frozenset(members), frozenset(boundary)


def _region_edge_text():
    """Witnesses after one walk and after thousands, partials stopped by a
    small node cap and by a depth cap, and region growth stopped by its
    node cap."""
    rng = random.Random(9007)
    out = []
    adj = _sparse_graph(rng, 50)
    members = frozenset({24} | {v for v in range(50) if rng.random() < 0.5})
    boundary = frozenset({w for u in members for w in adj[u] if w not in members})
    out.append(_verification(adj, Region(center=24, members=members,
                                         boundary=boundary, d1=4, d2=20),
                             RegionParams(d1=4, d2=20)))
    adj = _sparse_graph(random.Random(9008), 100)
    members, boundary = _ball(adj, 76, 2)
    out.append(_verification(adj, Region(center=76, members=members,
                                         boundary=boundary, d1=10, d2=100),
                             RegionParams(d1=10, d2=100)))
    params = RegionParams.from_n(100)
    region = construct_region(adj, 9, params)
    out.append(repr(region))
    out.append(_verification(adj, region, params, node_cap=2000))
    out.append(_verification(adj, region, params, depth_cap=5))
    try:
        construct_region(adj, 9, params, node_cap=20)
    except CapacityError:
        out.append("CapacityError")
    return "\n".join(out)


TEXTS = {
    "saw:gnp": _gnp_text,
    "saw:regular": _regular_text,
    "saw:rbm": _rbm_text,
    "saw:extreme": _extreme_text,
    "saw:capped": _capped_text,
    "region:grown": _region_text,
    "region:edge": _region_edge_text,
}

# pins begin
DIGESTS = {
    "region:edge":
        "a7a7a67cfea2fa78d65779c565bcef5cc3fe1c7e5ae155ca281e42dd374209b6",
    "region:grown":
        "4357836b9e135896e8edc4deebbe523ae3f5a7f5679a76d4af8994112d3ee8fd",
    "saw:capped":
        "f172e65df54a4d59d5f44e37833290a68c80b586044cdc9ffa4b484664e91e10",
    "saw:extreme":
        "9e30f3df11014e67fde08621936800e1ef17e6952c9722de4a07d584cc2be9b0",
    "saw:gnp":
        "137a7a8fa3b33891d84102ba16cd7268023c365d744a5c10daeca5da46fc0b82",
    "saw:rbm":
        "12a6d4b65a456e5f7f1a9663f3f670bfa94275f245831b073ce68b0e103d92b6",
    "saw:regular":
        "4fee2250d92ec47632a084f7f63bfbe8e39f1ba802ec69e7b967c78c0df4f8f0",
}
# pins end


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(TEXTS))
def test_walk_results_are_pinned(case):
    assert _sha(TEXTS[case]()) == DIGESTS[case]


def test_the_edge_cases_reach_their_branches():
    lines = _region_edge_text().splitlines()
    shallow, deep, capped, cut = (ast.literal_eval(lines[i]) for i in (0, 1, 3, 4))
    assert shallow[4] == 1 and deep[4] > 1000
    assert shallow[6] and deep[6]
    assert capped[3] and capped[4] == 2001
    assert cut[3] and cut[4] < 2000
    assert lines[5] == "CapacityError"
    capped_saw = [line.split(" ", 1)[1] for line in _capped_text().splitlines()]
    assert capped_saw[::4].count("CapacityError") == 0
    assert capped_saw[1::4].count("CapacityError") == 12


def _pins_block(digests) -> str:
    rows = "".join(f'    "{k}":\n        "{v}",\n' for k, v in sorted(digests.items()))
    return f"# pins begin\nDIGESTS = {{\n{rows}}}\n# pins end"


if __name__ == "__main__":
    current = {case: _sha(make()) for case, make in TEXTS.items()}
    block = _pins_block(current)
    if sys.argv[1:] == ["--write"]:
        with open(__file__) as fh:
            source = fh.read()
        with open(__file__, "w") as fh:
            fh.write(re.sub(r"# pins begin\n.*?# pins end", lambda _: block,
                            source, count=1, flags=re.S))
    else:
        print(block)
