"""Seeded inputs and op lists for the three benchmark workloads.

`generate(workload, seed, workdir)` writes instance / RBM JSON files into
`workdir` and returns the op list of one pass.  Everything here is plain
Python and numpy: no ferrospin code runs while inputs are made, so the
program under test only ever sees the files.  One seed gives byte-identical
files and an identical op list; file names in ops are relative to `workdir`.

Op sizes are stratified so that every seed puts about the same work in each
size class, because the per-op cost of these algorithms is heavy-tailed:

* walk-marginals uses random regular graphs, whose walk trees vary little
  in size; `walk_tree_nodes` records each tree's size in the op list and
  guards against trees near the library's node cap;
* region-sweeps picks centres by the cyclomatic number of their grown
  region (`region_cyclomatic`), which decides how many walks
  `verify_region` enumerates, and mid and capped centres by the length
  and estimated cost of that walk (`verify_walk`).  In the graphs sampled
  while the benchmark was designed, a cyclomatic number of 30 or more
  always exhausted the 10^6-node cap and 21 or less never did; 24 to 29
  mostly did.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("walk-marginals", "region-sweeps", "mixing-tour")
SCHEDULES = ("glauber", "heat-bath", "systematic-scan", "alternating-scan",
             "field")

# walk-marginals strata: (label, [(n, degree, rbm)] one op each, pinned).
# Degree None is a connected G(n, 2.5/(n-1)); otherwise a random regular
# graph, whose walk-tree size varies little from seed to seed (4-regular
# n=14: 67k-80k nodes).  An RBM file gets a bipartite graph; 26 of 44 ops
# are RBMs.  Pinned strata pin 1-3 vertices on three ops in four (21 of 44
# ops).  The tail (11th slowest op) falls in the middle of the ten 4-regular
# bipartite n=10 ops, whose walk tree always has 6209 nodes, so it is a
# middle order statistic of equal ops; pins, which cut a tree by a varying
# factor, are kept off the medium and large ops.
SAW_STRATA = (
    ("tiny", [(n, None, k % 2 == 1) for k, n in enumerate((5, 6, 7, 6) * 4)],
     True),
    ("small", [(n, 3, k % 2 == 1) for k, n in enumerate((8, 10, 12) * 4)],
     True),
    ("medium", ([(18, 3, False)] + [(10, 4, True)] * 5) * 2, False),
    ("large", [(14, 4, False), (14, 4, True)] * 2, False),
)
SAW_NODE_LIMIT = 200000

# region-sweeps: G(n, (ln n + 1)/n) graphs, one per size and more where a
# graph has too few light centres.  Light centres (region cyclomatic number
# <= 4: the op costs its per-call work, which grows with n; above 6 the
# verification starts to cost more than the call) are drawn at evenly
# spaced quantiles per size, more of them on larger graphs as in a sweep of
# every centre, so that the median op falls in the middle of the eight n=200
# centres, not between two sizes.  The capped centre comes from an extra
# n=100 graph; there is one per pass, because its verification walks 10^6
# nodes before it stops (3-4 s on a 2-core Xeon, over 80% of a pass) and a
# pass of about 4 s lets a 30 s run time it seven times.  Mid centres
# (cyclomatic number 9..16) are those of n=100 graphs on which
# `verify_region` walks 3000 to 10^4 nodes; from at least twice as many
# candidates as needed, the one whose estimated cost (`verify_walk`) is
# nearest each of 18 evenly spaced targets (16 to 33 ref) is taken.  So
# every seed puts the same spread of verification work in them (the time
# per node grows with the mean degree, hence one n), and the tail (the 11th
# slowest op) is the one nearest the ninth target.
REGION_SIZES = (20, 40, 60, 100, 150, 200)
REGION_LIGHT = ((2, 3, 4, 5, 6, 8), range(0, 5))
REGION_MID = (18, 100, range(9, 17), (3000, 10000), (16.0, 33.0))
REGION_CAPPED = (1, 100, range(30, 1000))
# The capped verification's time varies by +-7% between centres, with the
# length of the walks it copies and the boundary leaves it checks: of the
# first eight candidates the centre whose estimated cost over the first
# 5*10^4 nodes (`verify_walk`) is nearest the target is taken, so every
# seed times the same work.
CAPPED_CHOICE = (8, 50000, 195.0)
SAW_DEPTH_CAP = 30  # ferrospin.constants.SAW_DEPTH_CAP: longer walks stop

# mixing-tour: (family, n) of the instances that get the full exact tour
# (Gibbs table, Glauber kernel, spectrum, exact mixing time, coupling
# estimate; trees also the alternating-scan kernel), plus one n=11 tree that
# gets the alternating-scan kernel and its spectrum only: its exact mixing
# time alone takes 7 s.  One n=10 instance and short sample runs keep a
# pass near 4 s, so that a 30 s run times every op about seven times.  The
# field runs are shorter than the coupling estimates and the n=30 runs
# longer, so the median op falls among the n=9 coupling estimates and the
# tail (11th slowest op) in the middle of the twelve near-equal ops that
# are the eight n=30 runs and the four n=9 exact tours.
MIX_INSTANCES = (
    ("path", 8), ("cycle", 8), ("tree", 8), ("gnp", 8),
    ("path", 9), ("cycle", 9), ("tree", 9), ("gnp", 9),
    ("tree", 10),
)
MIX_SCAN_ONLY_N = 11
MIX_COUPLING_TRIALS = 120
SAMPLE_N = 30
SAMPLE_STEPS = {"glauber": 4000, "heat-bath": 3500, "systematic-scan": 4000,
                "alternating-scan": 1400, "field": 25}
SAMPLE_REPEATS = 2
FIELD_SIZES = (10, 12) * 2  # 3-regular graphs

_STREAMS = {name: i for i, name in enumerate(WORKLOADS)}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_STREAMS[workload], int(seed)])


# ---------------------------------------------------------------------------
# graphs


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(ws) for ws in adj]


def _connected(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def gnp_edges(rng, n: int, p: float) -> list[tuple[int, int]]:
    iu, iv = np.triu_indices(n, 1)
    mask = rng.random(len(iu)) < p
    return [(int(u), int(v)) for u, v in zip(iu[mask], iv[mask])]


def connected_gnp_edges(rng, n: int, p: float) -> list[tuple[int, int]]:
    for _ in range(10000):
        edges = gnp_edges(rng, n, p)
        if _connected(n, edges):
            return edges
    raise RuntimeError(f"no connected G({n}, {p:.3f}) draw")


def tree_edges(rng, n: int) -> list[tuple[int, int]]:
    return [(int(rng.integers(0, v)), v) for v in range(1, n)]


def regular_edges(rng, n: int, d: int, bipartite: bool) -> list[tuple[int, int]]:
    """Connected simple d-regular graph by random stub pairing; bipartite
    graphs join 0..n/2-1 to n/2..n-1."""
    for _ in range(10000):
        if bipartite:
            half = n // 2
            right = np.repeat(np.arange(half, n), d)
            rng.shuffle(right)
            pairs = zip(np.repeat(np.arange(half), d), right)
        else:
            stubs = np.repeat(np.arange(n), d)
            rng.shuffle(stubs)
            pairs = zip(stubs[::2], stubs[1::2])
        edges = {(int(min(a, b)), int(max(a, b))) for a, b in pairs if a != b}
        if len(edges) == n * d // 2 and _connected(n, edges):
            return sorted(edges)
    raise RuntimeError(f"no {d}-regular graph on {n} vertices")


def _bipartite_gnp_edges(rng, n: int, p: float) -> list[tuple[int, int]]:
    half = n // 2
    for _ in range(10000):
        edges = [(u, v) for u in range(half) for v in range(half, n)
                 if rng.random() < p]
        if _connected(n, edges):
            return edges
    raise RuntimeError(f"no connected bipartite draw on {n} vertices")


def depth_parity(n: int, edges) -> tuple[list[int], list[int]]:
    """Two-colouring by BFS depth (the graphs given to it are bipartite)."""
    adj = adjacency(n, edges)
    colour = {0: 0}
    queue = [0]
    for u in queue:
        for w in adj[u]:
            if w not in colour:
                colour[w] = 1 - colour[u]
                queue.append(w)
    return ([v for v in range(n) if colour[v] == 0],
            [v for v in range(n) if colour[v] == 1])


def walk_tree_nodes(adj, root: int, boundary=frozenset(),
                    cap: int = 10**7) -> int:
    """Node count of the self-avoiding-walk tree from `root`: the root plus
    one node per (walk, neighbour of its end other than the vertex before
    it); walks stop at boundary vertices and at revisits.  Stops counting
    once `cap` is passed."""
    count = 1
    stack = [(root, -1, 1 << root)]
    while stack:
        v, prev, mask = stack.pop()
        for w in adj[v]:
            if w == prev:
                continue
            count += 1
            if w not in boundary and not (mask >> w) & 1:
                stack.append((w, v, mask | (1 << w)))
        if count > cap:
            break
    return count


def region_members(adj, center: int, d1: int, d2: int) -> set[int]:
    """The region grown around `center` by the paper's rule: follow
    self-avoiding walks until the branching summed along the walk reaches
    d1, then add the stopping vertex's children when there are fewer than
    d2 of them."""
    members = {center}
    stack = [(center, frozenset((center,)), 0)]
    while stack:
        u, walk, prefix = stack.pop()
        members.add(u)
        cld = [x for x in adj[u] if x not in walk]
        if not cld:
            continue
        degsum = prefix + len(cld)
        if degsum >= d1:
            if len(cld) < d2:
                members.update(cld)
            continue
        for x in cld:
            stack.append((x, walk | {x}, degsum))
    return members


def region_params(n: int) -> tuple[int, int]:
    """d1 = ceil(4 ln ln n), d2 = ceil((ln n)^3), as the CLI derives them."""
    d1 = max(1, math.ceil(4.0 * math.log(math.log(n))))
    return d1, max(d1, math.ceil(math.log(n) ** 3))


def region_cyclomatic(adj, members) -> int:
    inner = sum(1 for u in members for w in adj[u] if w in members) // 2
    return inner - len(members) + 1


def verify_walk(adj, center: int, members, cap: int) -> tuple[int, float]:
    """(nodes, estimated cost in ref) of the walk `verify_region` makes from
    `center` over the region `members`, in its order, up to `cap` nodes:
    self-avoiding walks that stay inside the region (boundary copies are
    leaves it checks, not nodes it visits) and stop past SAW_DEPTH_CAP.

    The cost of a node, in 10^-6 reference loops, is 2000 + 35 x the
    length of its walk (the walk tuple and set are copied) + 400 x the
    boundary leaves checked at it.  The weights are a
    least-squares fit to ten capped verifications timed in reference loops,
    and the estimate from their first 5*10^4 nodes matched them within
    0.7%; mid verifications measured the estimate plus the call's own
    4 ref, within 6%."""
    boundary = {w for u in members for w in adj[u] if w not in members}
    count = depth_sum = leaves = 0
    stack = [(center, 1 << center, 1)]
    while stack and count < cap:
        u, mask, depth = stack.pop()
        count += 1
        for w in adj[u]:
            if (mask >> w) & 1:
                continue
            if w in boundary:
                leaves += 1
            elif depth <= SAW_DEPTH_CAP:
                depth_sum += depth
                stack.append((w, mask | (1 << w), depth + 1))
    return count, (2000.0 * count + 35.0 * depth_sum + 400.0 * leaves) / 1e6


# ---------------------------------------------------------------------------
# files


def _ferro_params(rng, n: int, edges, lam=(0.5, 1.5), beta=(0.6, 1.0),
                  gamma_hi=3.5) -> dict:
    """Instance document with beta <= 1 < gamma and beta * gamma > 1."""
    recs = []
    for u, v in edges:
        b = float(rng.uniform(*beta))
        g = float(rng.uniform(1.0 / b + 0.1, gamma_hi))
        recs.append({"u": u, "v": v, "beta": b, "gamma": g})
    return {"n": n, "lambda": [float(x) for x in rng.uniform(*lam, n)],
            "edges": recs}


def _rbm_doc(rng, n: int, edges) -> dict:
    """RBM document on parts 0..n/2-1 and n/2..n-1 (the edges join them)."""
    w = [[0.0] * n for _ in range(n)]
    for u, v in edges:
        w[u][v] = w[v][u] = float(rng.uniform(0.2, 1.5))
    theta = [float(x) for x in rng.uniform(-1.0, 1.0, n)]
    return {"n0": n // 2, "n1": n - n // 2, "W": w, "theta": theta}


def _write(workdir: str, name: str, doc: dict) -> str:
    with open(os.path.join(workdir, name), "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
    return name


# ---------------------------------------------------------------------------
# op lists


def _saw_query(rng, n: int, degree, rbm: bool, pinned: bool) -> tuple:
    """One seeded (document, centre, pins, walk-tree nodes) draw."""
    if degree is not None:
        edges = regular_edges(rng, n, degree, rbm)
    elif rbm:
        edges = _bipartite_gnp_edges(rng, n, 2.5 * n / (2 * (n // 2) * (n - n // 2)))
    else:
        edges = connected_gnp_edges(rng, n, 2.5 / (n - 1))
    doc = _rbm_doc(rng, n, edges) if rbm else _ferro_params(rng, n, edges)
    center = int(rng.integers(0, n))
    pins = {}
    if pinned:
        others = [v for v in range(n) if v != center]
        for v in rng.choice(others, int(rng.integers(1, 4)), replace=False):
            pins[int(v)] = int(rng.integers(0, 2))
    nodes = walk_tree_nodes(adjacency(n, edges), center, frozenset(pins),
                            cap=SAW_NODE_LIMIT)
    if nodes > SAW_NODE_LIMIT:
        raise RuntimeError(f"walk tree of {nodes} nodes on n={n}")
    return doc, center, pins, nodes


def _walk_marginals(rng, workdir: str) -> list[dict]:
    ops = []
    for label, slots, pinned in SAW_STRATA:
        for k, (n, degree, rbm) in enumerate(slots):
            doc, center, pins, nodes = _saw_query(rng, n, degree, rbm,
                                                  pinned and k % 4 != 3)
            name = _write(workdir, f"saw-{label}-{k:02d}.json", doc)
            ops.append({"kind": "saw", "stratum": label, "file": name,
                        "format": "rbm" if rbm else "instance",
                        "center": center,
                        "pin": ",".join(f"{v}:{s}" for v, s in sorted(pins.items())),
                        "tree_nodes": nodes})
    return ops


def _region_graph(rng, workdir: str, index: int, n: int):
    edges = gnp_edges(rng, n, (math.log(n) + 1.0) / n)
    name = _write(workdir, f"region-{index:02d}-n{n}.json",
                  _ferro_params(rng, n, edges))
    adj = adjacency(n, edges)
    d1, d2 = region_params(n)
    ops = []
    for c in range(n):
        members = region_members(adj, c, d1, d2)
        ops.append({"kind": "region", "file": name, "n": n, "center": c,
                    "cyclomatic": region_cyclomatic(adj, members),
                    "members": members, "adj": adj})
    return ops


def _quantile_pick(items: list, k: int) -> list:
    return [items[int((i + 0.5) * len(items) / k)] for i in range(k)]


def _region_sweeps(rng, workdir: str) -> list[dict]:
    ops, pool = [], []
    index = 0
    counts, accepted = REGION_LIGHT
    for n, per_size in zip(REGION_SIZES, counts):
        light = []
        while len(light) < per_size:
            centres = _region_graph(rng, workdir, index, n)
            index += 1
            light += [op for op in centres if op["cyclomatic"] in accepted]
            pool += centres
        light.sort(key=lambda op: (op["cyclomatic"], op["file"], op["center"]))
        ops += [dict(op, stratum="light")
                for op in _quantile_pick(light, per_size)]
    count, n, accepted = REGION_CAPPED
    candidates, prefix, target = CAPPED_CHOICE
    heavy = []
    while len(heavy) < candidates:
        if index == 99:
            raise RuntimeError("too few capped region centres")
        centres = _region_graph(rng, workdir, index, n)
        index += 1
        pool += centres
        heavy += [op for op in centres if op["cyclomatic"] in accepted]
    for op in heavy[:candidates]:
        op["cost"] = verify_walk(op["adj"], op["center"], op["members"],
                                 prefix)[1]
    capped = sorted(heavy[:candidates], key=lambda op: abs(op["cost"] - target))
    capped = [dict(op, stratum="capped") for op in capped[:count]]
    # mid centres: search the graphs made so far, then fresh ones (`pool`
    # holds the centres not searched yet)
    count, n, accepted, (lo, hi), (low_cost, high_cost) = REGION_MID
    mid = []
    while True:
        for op in pool:
            if op["n"] == n and op["cyclomatic"] in accepted:
                nodes, cost = verify_walk(op["adj"], op["center"],
                                          op["members"], hi + 1)
                if lo <= nodes <= hi:
                    mid.append(dict(op, stratum="mid", nodes=nodes, cost=cost))
        if len(mid) >= 2 * count:
            break
        if index == 99:
            raise RuntimeError("too few mid region centres")
        pool = _region_graph(rng, workdir, index, n)
        index += 1
    for k in range(count):
        target = low_cost + k * (high_cost - low_cost) / (count - 1)
        op = min(mid, key=lambda op: (abs(op["cost"] - target), op["file"],
                                      op["center"]))
        mid.remove(op)
        ops.append(op)
    # heavy and light centres interleaved in file order
    ops = sorted(ops + capped, key=lambda op: (op["file"], op["center"]))
    for op in ops:
        del op["members"], op["adj"]
    return ops


def _mix_graph(rng, family: str, n: int) -> list[tuple[int, int]]:
    if family == "path":
        return [(v, v + 1) for v in range(n - 1)]
    if family == "cycle":
        return [(v, (v + 1) % n) for v in range(n)]
    if family == "tree":
        return tree_edges(rng, n)
    return connected_gnp_edges(rng, n, 2.5 / (n - 1))


def _mixing_tour(rng, workdir: str) -> list[dict]:
    ops = []
    for family, n in MIX_INSTANCES + (("tree", MIX_SCAN_ONLY_N),):
        edges = _mix_graph(rng, family, n)
        doc = _ferro_params(rng, n, edges, lam=(0.8, 1.2), beta=(0.8, 1.0),
                            gamma_hi=2.2)
        name = _write(workdir, f"mix-{family}-n{n}.json", doc)
        if n != MIX_SCAN_ONLY_N:
            ops.append({"kind": "mix-exact", "stratum": f"n{n}", "file": name})
            ops.append({"kind": "mix-coupling", "stratum": f"n{n}",
                        "file": name, "trials": MIX_COUPLING_TRIALS,
                        "seed": int(rng.integers(0, 2**31))})
        if family == "tree":
            ops.append({"kind": "mix-scan", "stratum": f"n{n}", "file": name,
                        "parts": depth_parity(n, edges)})
    # block kinds on a bipartite n=30 graph: a tree plus even-cycle chords
    edges = tree_edges(rng, SAMPLE_N)
    even, odd = depth_parity(SAMPLE_N, edges)
    present = set(edges)
    while len(edges) < SAMPLE_N + 5:
        u, v = sorted((int(rng.choice(even)), int(rng.choice(odd))))
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v))
    block_file = _write(workdir, f"sample-n{SAMPLE_N}.json",
                        _ferro_params(rng, SAMPLE_N, edges))
    runs = [(schedule, block_file) for schedule in SCHEDULES[:-1]
            for _ in range(SAMPLE_REPEATS)]
    for k, n in enumerate(FIELD_SIZES):
        runs.append(("field", _write(
            workdir, f"sample-field-{k}-n{n}.json",
            _ferro_params(rng, n, regular_edges(rng, n, 3, False),
                          lam=(0.8, 1.2), beta=(0.8, 1.0), gamma_hi=2.2))))
    for schedule, name in runs:
        ops.append({"kind": "sample", "stratum": schedule, "file": name,
                    "schedule": schedule, "steps": SAMPLE_STEPS[schedule],
                    "seed": int(rng.integers(0, 2**31))})
    return ops


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the inputs of one pass into `workdir`; return its op list."""
    makers = {"walk-marginals": _walk_marginals,
              "region-sweeps": _region_sweeps,
              "mixing-tour": _mixing_tour}
    os.makedirs(workdir, exist_ok=True)
    ops = makers[workload](_rng(workload, seed), workdir)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
